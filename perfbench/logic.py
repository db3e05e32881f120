"""The benchmark's own reading of the formula language, kept apart from the
package under test so that its checks are independent computations.

Formulas are JSON-friendly trees: ``["atom", functor, subject, predicate]``
(predicate ``None`` for ``ex``), ``["~", operand]`` and ``[op, left, right]``
with ``op`` one of ``&``, ``|``, ``->``, ``<->``.  Truth of the functors follows
the table in the package README; the labeling enumerator follows the order
documented in ``decide.decide``: regions lexicographically, region 0 varying
slowest, labels Zero < One < Many, first class-admissible falsifier wins.
"""

from __future__ import annotations

import itertools
import re

CLASSES = ("all", "traditional", "polyreferential", "nonmonoreferential")
UNIVERSE_MINIMUM = {"all": 0, "traditional": 1, "polyreferential": 2, "nonmonoreferential": 2}
THREE_LABEL_FUNCTORS = ("eps", "neps", "ideq")
FUNCTORS = ("a", "i", "e", "o", "ka", "ke", "kke", "ot", "ceq", "deq", "eps", "neps", "ideq", "ex")

# Cardinality a label stands for: Zero, One, Many (realized as two elements).
LABEL_SIZE = (0, 1, 2)


# --- text ------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(<->|->|[()~&|,]|[a-z]+|[A-Z][A-Za-z0-9_]*)")


def parse(text: str):
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot read {text[pos:pos + 10]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    at = [0]

    def peek():
        return tokens[at[0]]

    def take(expected=None):
        tok = tokens[at[0]]
        if expected is not None and tok != expected:
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        at[0] += 1
        return tok

    def iff():
        node = imp()
        while peek() == "<->":
            take()
            node = ["<->", node, imp()]
        return node

    def imp():
        node = disj()
        if peek() == "->":
            take()
            return ["->", node, imp()]
        return node

    def disj():
        node = conj()
        while peek() == "|":
            take()
            node = ["|", node, conj()]
        return node

    def conj():
        node = neg()
        while peek() == "&":
            take()
            node = ["&", node, neg()]
        return node

    def neg():
        if peek() == "~":
            take()
            return ["~", neg()]
        if peek() == "(":
            take()
            node = iff()
            take(")")
            return node
        functor = take()
        if functor not in FUNCTORS:
            raise ValueError(f"unknown functor {functor!r}")
        take("(")
        subject = take()
        predicate = None
        if peek() == ",":
            take()
            predicate = take()
        take(")")
        return ["atom", functor, subject, predicate]

    tree = iff()
    take(None)
    return tree


def atom_text(node) -> str:
    _, functor, subject, predicate = node
    return f"{functor}({subject})" if predicate is None else f"{functor}({subject},{predicate})"


def to_text(node) -> str:
    """Fully parenthesised text; the package parser reads it back."""
    if node[0] == "atom":
        return atom_text(node)
    if node[0] == "~":
        return "~" + to_text(node[1])
    return f"({to_text(node[1])} {node[0]} {to_text(node[2])})"


def letters(node) -> list:
    found = set()

    def walk(n):
        if n[0] == "atom":
            found.add(n[2])
            if n[3] is not None:
                found.add(n[3])
        elif n[0] == "~":
            walk(n[1])
        else:
            walk(n[1])
            walk(n[2])

    walk(node)
    return sorted(found)


def three_label(node) -> bool:
    if node[0] == "atom":
        return node[1] in THREE_LABEL_FUNCTORS
    if node[0] == "~":
        return three_label(node[1])
    return three_label(node[1]) or three_label(node[2])


def rename(node, mapping):
    if node[0] == "atom":
        p = node[3]
        return ["atom", node[1], mapping[node[2]], None if p is None else mapping[p]]
    if node[0] == "~":
        return ["~", rename(node[1], mapping)]
    return [node[0], rename(node[1], mapping), rename(node[2], mapping)]


# --- truth -----------------------------------------------------------------

def _connect(op, left, right):
    if op == "&":
        return left and right
    if op == "|":
        return left or right
    if op == "->":
        return (not left) or right
    return left == right


def _atom_on_sets(functor, ds, dp):
    if functor == "ex":
        return bool(ds)
    if functor == "a":
        return ds <= dp
    if functor == "i":
        return bool(ds & dp)
    if functor == "e":
        return not ds & dp
    if functor == "o":
        return not ds <= dp
    if functor == "ka":
        return bool(ds) and ds <= dp
    if functor == "ke":
        return bool(ds) and not ds & dp
    if functor == "kke":
        return bool(ds) and bool(dp) and not ds & dp
    if functor == "ot":
        return not (bool(ds) and ds <= dp)
    if functor == "ceq":
        return ds == dp
    if functor == "deq":
        return bool(ds) and ds == dp
    if functor == "eps":
        return len(ds) == 1 and ds <= dp
    if functor == "neps":
        return len(ds) == 1 and not ds & dp
    if functor == "ideq":
        return len(ds) == 1 and ds == dp
    raise ValueError(functor)


def holds(node, denotation) -> bool:
    """Truth in a set model; ``denotation`` maps letters to sets (absent: empty)."""
    if node[0] == "atom":
        empty = frozenset()
        dp = empty if node[3] is None else denotation.get(node[3], empty)
        return _atom_on_sets(node[1], denotation.get(node[2], empty), dp)
    if node[0] == "~":
        return not holds(node[1], denotation)
    return _connect(node[0], holds(node[1], denotation), holds(node[2], denotation))


def prop_value(node, true_atoms) -> bool:
    """Propositional value with each distinct atom a letter; ``true_atoms``
    holds the atom texts assigned true."""
    if node[0] == "atom":
        return atom_text(node) in true_atoms
    if node[0] == "~":
        return not prop_value(node[1], true_atoms)
    return _connect(node[0], prop_value(node[1], true_atoms), prop_value(node[2], true_atoms))


def in_class(universe_size, denotation, vocab, cls) -> bool:
    if universe_size < UNIVERSE_MINIMUM[cls]:
        return False
    sizes = [len(denotation.get(v, ())) for v in vocab]
    if cls == "traditional":
        return all(s >= 1 for s in sizes)
    if cls == "polyreferential":
        return all(s >= 2 for s in sizes)
    if cls == "nonmonoreferential":
        return all(s != 1 for s in sizes)
    return True


# --- labeling enumerator ---------------------------------------------------

def _signature(counts, cls):
    """Elements per region of the realized model; padding sits in region 0."""
    pad = max(0, UNIVERSE_MINIMUM[cls] - sum(counts))
    return (counts[0] + pad,) + tuple(counts[1:])


def first_countermodel(node, cls, limit=None):
    """Walk labelings in the documented order and return ``(index, signature)``
    of the first class-admissible labeling whose realization falsifies the
    formula; ``None`` when there is none (or none among the first ``limit``)."""
    vocab = letters(node)
    regions = 1 << len(vocab)
    alphabet = (0, 1, 2) if three_label(node) else (0, 2)
    members = [[r for r in range(regions) if r >> j & 1] for j in range(len(vocab))]
    element_ids = {}
    for index, labels in enumerate(itertools.product(alphabet, repeat=regions)):
        if limit is not None and index >= limit:
            return None
        counts = [LABEL_SIZE[label] for label in labels]
        sizes = [sum(counts[r] for r in mine) for mine in members]
        if cls == "traditional" and min(sizes, default=1) < 1:
            continue
        if cls == "polyreferential" and min(sizes, default=2) < 2:
            continue
        if cls == "nonmonoreferential" and 1 in sizes:
            continue
        denotation = {}
        for j, letter in enumerate(vocab):
            extent = set()
            for r in members[j]:
                for k in range(counts[r]):
                    extent.add(element_ids.setdefault((r, k), len(element_ids)))
            denotation[letter] = frozenset(extent)
        if not holds(node, denotation):
            return index, _signature(counts, cls)
    return None


def model_signature(universe, denotation, vocab):
    """Elements per region (bitmask over the sorted vocabulary) of a model."""
    vocab = sorted(vocab)
    counts = [0] * (1 << len(vocab))
    for element in universe:
        region = sum(1 << j for j, v in enumerate(vocab) if element in denotation.get(v, ()))
        counts[region] += 1
    return tuple(counts)


def check_countermodel(node, cls, universe, denotation):
    """Problems with a claimed countermodel, by the benchmark's own truth."""
    problems = []
    if any(not set(ext) <= set(universe) for ext in denotation.values()):
        problems.append("a denotation leaves the universe")
    sets = {k: frozenset(v) for k, v in denotation.items()}
    if holds(node, sets):
        problems.append("the formula is true in the claimed countermodel")
    if not in_class(len(universe), sets, letters(node), cls):
        problems.append(f"the claimed countermodel is not {cls}")
    return problems
