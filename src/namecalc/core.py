"""Formula language for the calculus of names.

Sentences are Boolean combinations of atomic name-formulas.  An atom applies
one of fourteen functors to name letters: the four categorical functors
(a, i, e, o), the strong/existential family (ka, ke, kke, ot, ex), extension
equality (ceq, deq) and the singular-copula family (eps, neps, ideq).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, reduce
from operator import or_
from typing import Any, Callable, Iterable, Mapping, Optional, Union


class Functor(Enum):
    """Atomic functor tags; value is the concrete-syntax name."""

    A = "a"          # every/all ... is ...          (weak universal affirmative)
    I = "i"          # some ... is ...
    E = "e"          # no ... is ...
    O = "o"          # some ... is not ...
    KA = "ka"        # strong universal affirmative (nonempty subject)
    KE = "ke"        # strong exclusion (nonempty subject)
    KKE = "kke"      # super-strong exclusion (both nonempty)
    CEQ = "ceq"      # same extension
    DEQ = "deq"      # same nonempty extension
    OT = "ot"        # not-every (negation of ka)
    EPS = "eps"      # singular copula: singleton subject inside predicate
    NEPS = "neps"    # singular denial: singleton subject outside predicate
    IDEQ = "ideq"    # singular identity: equal singletons
    EX = "ex"        # the subject exists (unary)

    # Members hash by identity, in C; ``Enum``'s own ``__hash__`` hashes the
    # name in Python, and functors key ``semantics.SHAPE`` and lru_cache
    # entries on every evaluation.  No set of functors is iterated into output.
    __hash__ = object.__hash__

    def __init__(self, value: str):
        # A plain attribute rather than a property: the parser reads it per atom.
        self.arity = 1 if value == "ex" else 2


FUNCTOR_BY_NAME = {f.value: f for f in Functor}

_LETTER_RE = re.compile(r"[A-Z][A-Za-z0-9_]*\Z")
# The characters a name letter may start with; the rest are word characters.
LETTER_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZ")


def is_letter(name: str) -> bool:
    """Name letters are uppercase-initial identifiers, compared by string equality."""
    return bool(_LETTER_RE.match(name))


# Formula nodes are interned (hash-consed): each constructor returns the one
# node with its fields, built and checked on first use and then kept for the
# life of the process.  Equal formulas are therefore the same object, so
# ``==`` and ``hash`` are object identity, and a set of formulas hashes no
# tree.  Each table is keyed by the ids of a node's children, which the kept
# node holds alive; the tables only grow, with the formulas a process builds.
# Set iteration follows memory addresses, so whatever reaches output goes
# through a sorted or insertion order, never a set's own order.
_ATOMS: dict[tuple[int, str, Optional[str]], "Atom"] = {}
_NEGS: dict[int, "Neg"] = {}
_BINS: dict[tuple[str, int, int], "Bin"] = {}


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Atom:
    functor: Functor
    subject: str
    predicate: Optional[str] = None

    def __new__(cls, functor: Functor, subject: str, predicate: Optional[str] = None) -> "Atom":
        key = (id(functor), subject, predicate)
        node = _ATOMS.get(key)
        if node is not None:
            return node
        if not is_letter(subject):
            raise ValueError(f"bad name letter: {subject!r}")
        if functor.arity == 1:
            if predicate is not None:
                raise ValueError(f"{functor.value} takes one letter")
        elif predicate is None or not is_letter(predicate):
            raise ValueError(f"bad name letter: {predicate!r}")
        node = object.__new__(cls)
        object.__setattr__(node, "functor", functor)
        object.__setattr__(node, "subject", subject)
        object.__setattr__(node, "predicate", predicate)
        _ATOMS[key] = node
        return node

    def __reduce__(self) -> tuple:
        return Atom, (self.functor, self.subject, self.predicate)


# The binary connectives and their binding levels, higher binding tighter;
# ``~`` binds tighter than all of them.  ``->`` groups to the right, the
# others to the left.  The parser and the formatter read both facts here.
PRECEDENCE = {"<->": 1, "->": 2, "|": 3, "&": 4}
RIGHT_GROUPING = frozenset({"->"})


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Neg:
    operand: "Formula"

    def __new__(cls, operand: "Formula") -> "Neg":
        node = _NEGS.get(id(operand))
        if node is None:
            node = object.__new__(cls)
            object.__setattr__(node, "operand", operand)
            _NEGS[id(operand)] = node
        return node

    def __reduce__(self) -> tuple:
        return Neg, (self.operand,)


@dataclass(frozen=True, slots=True, eq=False, init=False)
class Bin:
    op: str  # a key of PRECEDENCE
    left: "Formula"
    right: "Formula"

    def __new__(cls, op: str, left: "Formula", right: "Formula") -> "Bin":
        key = (op, id(left), id(right))
        node = _BINS.get(key)
        if node is not None:
            return node
        if op not in PRECEDENCE:
            raise ValueError(f"bad connective: {op!r}")
        node = object.__new__(cls)
        object.__setattr__(node, "op", op)
        object.__setattr__(node, "left", left)
        object.__setattr__(node, "right", right)
        _BINS[key] = node
        return node

    def __reduce__(self) -> tuple:
        return Bin, (self.op, self.left, self.right)


Formula = Union[Atom, Neg, Bin]

# A substitution maps name letters to name letters (never compound terms).
Substitution = Mapping[str, str]


def letters(formula: Formula) -> frozenset[str]:
    """The set of name letters occurring in a formula."""
    return atom_letters(distinct_atoms(formula))


def atom_letters(atoms: Iterable[Atom]) -> frozenset[str]:
    """The set of name letters the given atoms apply to."""
    found: set[str] = set()
    for atom in atoms:
        found.add(atom.subject)
        if atom.predicate is not None:
            found.add(atom.predicate)
    return frozenset(found)


def distinct_atoms(formula: Formula) -> list[Atom]:
    """Distinct atoms in order of first occurrence, left to right.  One walk
    with an explicit stack, so a long flat chain does not recurse."""
    seen: dict[Atom, None] = {}
    stack = [formula]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            seen[node] = None
        elif isinstance(node, Neg):
            stack.append(node.operand)
        else:
            stack.append(node.right)
            stack.append(node.left)
    return list(seen)


def truth(formula: Formula, leaf: Callable[[Atom], Any], full: Any = 1) -> Any:
    """Classical truth of a formula, folded bitwise over the values of its
    atoms: sets of rows, one bit per row, with `full` the set of all rows:
    1 for scalar truth, an int of 2^n ones for a table of n-bit rows."""
    if isinstance(formula, Atom):
        return leaf(formula)
    if isinstance(formula, Neg):
        return full ^ truth(formula.operand, leaf, full)
    left = truth(formula.left, leaf, full)
    right = truth(formula.right, leaf, full)
    op = formula.op
    if op == "&":
        return left & right
    if op == "|":
        return left | right
    if op == "->":
        return full ^ left | right
    return full ^ left ^ right


@lru_cache(maxsize=None)
def digit_columns(base: int, digits: int) -> tuple[tuple[int, ...], ...]:
    """The table of all `digits`-digit base-`base` numerals, row i for the
    numeral i: ``columns[d][v - 1]`` has bit i set when digit d of i (0 the
    least significant) is v, for each v >= 1.  A top digit repeats the table."""
    if digits == 0:
        return ()
    width = base ** (digits - 1)
    lower = tuple(
        tuple(reduce(or_, (rows << k * width for k in range(base))) for rows in by_value)
        for by_value in digit_columns(base, digits - 1)
    )
    return lower + (tuple(((1 << width) - 1) << v * width for v in range(1, base)),)


def substitute(formula: Formula, subst: Substitution) -> Formula:
    """Replace every letter occurrence L by subst.get(L, L); tree shape unchanged."""
    if isinstance(formula, Atom):
        subject = subst.get(formula.subject, formula.subject)
        if formula.predicate is None:
            return Atom(formula.functor, subject)
        return Atom(formula.functor, subject, subst.get(formula.predicate, formula.predicate))
    if isinstance(formula, Neg):
        return Neg(substitute(formula.operand, subst))
    return Bin(formula.op, substitute(formula.left, subst), substitute(formula.right, subst))


def compose(outer: Substitution, inner: Substitution) -> dict[str, str]:
    """The substitution acting as inner followed by outer."""
    result = {letter: outer.get(target, target) for letter, target in inner.items()}
    for letter, target in outer.items():
        result.setdefault(letter, target)
    return result


def _match(p: Formula, c: Formula, subst: dict[str, str]) -> bool:
    """Extend ``subst`` so that it sends pattern ``p`` to candidate ``c``;
    false when no extension does."""
    if isinstance(p, Atom):
        if not isinstance(c, Atom) or p.functor is not c.functor:
            return False
        if subst.setdefault(p.subject, c.subject) != c.subject:
            return False
        if p.predicate is None:
            return c.predicate is None
        return c.predicate is not None and subst.setdefault(p.predicate, c.predicate) == c.predicate
    if isinstance(p, Neg):
        return isinstance(c, Neg) and _match(p.operand, c.operand, subst)
    return (
        isinstance(c, Bin)
        and p.op == c.op
        and _match(p.left, c.left, subst)
        and _match(p.right, c.right, subst)
    )


def match_schema(pattern: Formula, candidate: Formula) -> Optional[dict[str, str]]:
    """Find the letter substitution sending pattern to candidate, if any.

    The substitution is unique when it exists because patterns bind every one
    of their letters at some atom position.
    """
    subst: dict[str, str] = {}
    return subst if _match(pattern, candidate, subst) else None


def match_atoms(pairs: list[tuple[Formula, Formula]]) -> Optional[dict[str, str]]:
    """Jointly match several (pattern, candidate) pairs with one substitution."""
    subst: dict[str, str] = {}
    return subst if all(_match(p, c, subst) for p, c in pairs) else None


# Convenience constructors, used heavily by the system registry and tests.

def neg(operand: Formula) -> Formula:
    return Neg(operand)


def conj(*parts: Formula) -> Formula:
    out = parts[0]
    for part in parts[1:]:
        out = Bin("&", out, part)
    return out


def disj(*parts: Formula) -> Formula:
    out = parts[0]
    for part in parts[1:]:
        out = Bin("|", out, part)
    return out


def imp(antecedent: Formula, consequent: Formula) -> Formula:
    return Bin("->", antecedent, consequent)


def iff(left: Formula, right: Formula) -> Formula:
    return Bin("<->", left, right)
