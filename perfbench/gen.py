"""Seeded inputs for the four workloads.

Every input is made here from ``--seed`` and the corpus data files; the
package under test receives only the generated texts.  Each operation also
carries what the benchmark expects of it, computed here and not by the
package: verdicts known by construction or pinned by hand in the manifest,
first countermodels from the benchmark's own labeling enumerator, falsifying
assignments of the non-tautologies, and failure lines of the mutants.
"""

from __future__ import annotations

import json
import random
import re
from pathlib import Path

from logic import (
    CLASSES,
    atom_text,
    first_countermodel,
    letters,
    parse,
    prop_value,
    rename,
    three_label,
    to_text,
)

LETTER_POOL = tuple("SPMQRTUVWXYZBCDFGHJKLN")
TWO_LABEL_BINARY = ("a", "i", "e", "o", "ka", "ke", "kke", "ot", "ceq", "deq")
THREE_LABEL = ("eps", "neps", "ideq")
OPS = ("&", "|", "->", "<->")

# A random formula is kept only if, in every class, its first countermodel
# comes within this many labelings: random formulas then stand for early exit,
# and their cost does not swing with the seed.
SCREEN_LABELINGS = 256

# decide's letter cap admits these valid formulas, but their enumeration
# (3^16 and 2^32 labelings) cannot finish; they do not depend on the seed.
CAP_FAULTS = (
    "eps(S,P) & a(P,M) & a(M,Q) -> eps(S,Q)",
    "a(S,P) & a(P,M) & a(M,Q) & a(Q,R) -> a(S,R)",
)
# cli.run lets a RecursionError escape on these valid inputs.
DEEP_NESTING = ("~" * 3000 + "a(S,S)", "(" * 2000 + "a(S,S)" + ")" * 2000)

# Valid in every class by the definitions: a singleton inside P stays a
# singleton inside anything P is included in, and outside anything P misses.
THREE_LABEL_TEMPLATES = (
    "eps(S,P) & a(P,M) -> eps(S,M)",
    "eps(S,P) & e(P,M) -> neps(S,M)",
)
# Valid in every class: chains of weak inclusions and the Darii/Celarent shapes.
TWO_LABEL_TEMPLATES_3 = (
    "a(M,P) & a(S,M) -> a(S,P)",
    "a(M,P) & i(S,M) -> i(S,P)",
    "e(M,P) & a(S,M) -> e(S,P)",
)

CLI_CLASS = {"all": "all", "traditional": "trad", "polyreferential": "poly",
             "nonmonoreferential": "nonmono"}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _letter_map(rng, old_letters):
    fresh = rng.sample(LETTER_POOL, len(old_letters))
    return dict(zip(sorted(old_letters), fresh))


def _rename_text(text, mapping):
    return re.sub(r"\b[A-Z][A-Za-z0-9_]*\b", lambda m: mapping[m.group(0)], text)


def _renamed(rng, text):
    tree = parse(text)
    mapping = _letter_map(rng, letters(tree))
    new_text = _rename_text(text, mapping)
    new_tree = parse(new_text)
    assert new_tree == rename(tree, mapping)
    return new_text, new_tree


def _shuffled_conjunction_text(rng, conjuncts, consequent):
    conjuncts = list(conjuncts)
    rng.shuffle(conjuncts)
    return " & ".join(conjuncts) + " -> " + consequent


def random_formula(rng, vocab, three, n_atoms):
    """A random Boolean combination of ``n_atoms`` atoms using every letter."""
    pending = list(vocab)
    rng.shuffle(pending)
    leaves = []
    while pending or len(leaves) < n_atoms:
        if three and not leaves:
            functor = rng.choice(THREE_LABEL)
        else:
            functor = rng.choice(TWO_LABEL_BINARY + ("ex",))
        subject = pending.pop() if pending else rng.choice(vocab)
        if functor == "ex":
            leaves.append(["atom", "ex", subject, None])
            continue
        predicate = pending.pop() if pending else rng.choice(vocab)
        leaves.append(["atom", functor, subject, predicate])
    rng.shuffle(leaves)
    nodes = [["~", leaf] if rng.random() < 0.25 else leaf for leaf in leaves]
    while len(nodes) > 1:
        k = rng.randrange(len(nodes) - 1)
        node = [rng.choice(OPS), nodes[k], nodes[k + 1]]
        if rng.random() < 0.15:
            node = ["~", node]
        nodes[k:k + 2] = [node]
    return nodes[0]


def screened_random(rng, n_letters, three, n_atoms=None):
    """A random formula with an early first countermodel in every class,
    with that countermodel's signature per class."""
    n_atoms = n_atoms or n_letters + 1
    while True:
        vocab = rng.sample(LETTER_POOL, n_letters)
        tree = random_formula(rng, vocab, three, n_atoms)
        firsts = {cls: first_countermodel(tree, cls, SCREEN_LABELINGS) for cls in CLASSES}
        if all(firsts.values()):
            return tree, {cls: list(found[1]) for cls, found in firsts.items()}


def _expectation(tree, cls, verdict):
    """Expected verdict, and for an invalid one the first countermodel's
    signature from the benchmark's enumerator (which must find one)."""
    if verdict == "valid":
        return {"expect": "valid", "first": None}
    found = first_countermodel(tree, cls)
    if found is None:
        raise RuntimeError(f"enumerator finds {to_text(tree)} valid in {cls}; the manifest says invalid")
    return {"expect": "invalid", "first": list(found[1])}


def load_manifest(root: Path):
    return json.loads((root / "src/namecalc/data/manifest.json").read_text())["entries"]


# --- search ------------------------------------------------------------------

RANDOM_PER_SIZE = 5
# (letters, three-label) -> corpus theses per round, renamed; all six
# three-label 3-letter theses are taken, so that stratum is the same set for
# every seed.
THESIS_STRATA = {(3, False): 4, (2, False): 3, (1, False): 1, (3, True): 6, (2, True): 1}


def search_inputs(seed, entries):
    rng = _rng("search", seed)
    ops = []

    def add(text, tree, kind, per_class):
        for cls in CLASSES:
            ops.append({"kind": kind, "text": text, "tree": tree, "cls": cls, **per_class[cls]})

    for three, sizes in ((False, (1, 2, 3, 4)), (True, (1, 2, 3))):
        for n in sizes:
            for _ in range(RANDOM_PER_SIZE):
                tree, firsts = screened_random(rng, n, three)
                add(to_text(tree), tree, "random",
                    {cls: {"expect": "invalid", "first": firsts[cls]} for cls in CLASSES})

    strata = {}
    for entry in entries:
        tree = parse(entry["formula"])
        strata.setdefault((len(letters(tree)), three_label(tree)), []).append(entry)
    for key, count in THESIS_STRATA.items():
        for entry in rng.sample(strata[key], count):
            text, tree = _renamed(rng, entry["formula"])
            add(text, tree, "thesis",
                {cls: _expectation(tree, cls, entry["verdicts"][cls]) for cls in CLASSES})
    for template in THREE_LABEL_TEMPLATES:
        text, tree = _renamed(rng, template)
        add(text, tree, "template", {cls: {"expect": "valid", "first": None} for cls in CLASSES})

    chain = rng.sample(LETTER_POOL, 4)
    links = [f"a({chain[k]},{chain[k + 1]})" for k in range(3)]
    text = _shuffled_conjunction_text(rng, links, f"a({chain[0]},{chain[3]})")
    add(text, parse(text), "chain4", {cls: {"expect": "valid", "first": None} for cls in CLASSES})

    rng.shuffle(ops)
    for text in CAP_FAULTS:
        ops.append({"kind": "cap-fault", "text": text, "tree": parse(text), "cls": "all",
                    "expect": "valid", "first": None})
    return {"workload": "search", "seed": seed, "ops": ops}


# --- cli ---------------------------------------------------------------------

CLI_UNIVERSES = (4, 5, 6, 7, 8)
CLI_LETTERS = (1, 2, 3)
CLI_WIDE_KEY = (3, 8)
CLI_WIDE_FORMULAS = 6


def cli_inputs(seed, entries):
    rng = _rng("cli", seed)
    by_letters = {}
    for entry in entries:
        tree = parse(entry["formula"])
        by_letters.setdefault(len(letters(tree)), []).append(entry)
    ops = []
    position = 0
    for universe in CLI_UNIVERSES:
        for n in CLI_LETTERS:
            wide = (n, universe) == CLI_WIDE_KEY
            for j in range(CLI_WIDE_FORMULAS if wide else 1):
                cls = CLASSES[position % 4]
                valid_by_construction = (j % 2 == 0) if wide else (position % 2 == 0)
                position += 1
                if valid_by_construction:
                    if wide:
                        source = TWO_LABEL_TEMPLATES_3[j // 2 % len(TWO_LABEL_TEMPLATES_3)]
                    else:
                        source = rng.choice([e["formula"] for e in by_letters[n]
                                             if e["verdicts"][cls] == "valid"])
                    text, tree = _renamed(rng, source)
                    expect = {"expect": "valid", "first": None}
                else:
                    tree, firsts = screened_random(rng, n, three=bool(position % 3 == 0),
                                                   n_atoms=3 if wide else None)
                    text = to_text(tree)
                    expect = {"expect": "invalid", "first": firsts[cls]}
                for oracle in (universe, None):
                    ops.append({"kind": "decide", "text": text, "tree": tree, "cls": cls,
                                "cli_class": CLI_CLASS[cls], "oracle": oracle, **expect})
    for text in DEEP_NESTING:
        ops.append({"kind": "deep-nesting", "text": text, "tree": None, "cls": "all",
                    "cli_class": "all", "oracle": None, "expect": "valid", "first": None})
    return {"workload": "cli", "seed": seed, "ops": ops,
            "warm_keys": [[n, u] for u in CLI_UNIVERSES for n in CLI_LETTERS]}


# --- kernels -----------------------------------------------------------------

CPL_WIDTHS = range(8, 16)
# Extra 11-atom tautology lines: they put the 90th percentile of the round
# inside a block of like operations, so it reads one truth-table size.
CPL_PLATEAU_WIDTH, CPL_PLATEAU_LINES = 11, 32
CANONICAL_LETTERS = range(4, 11)
_MP_LINE = re.compile(r"^(\s*(\d+)\s*:.*;\s*mp\s+)(\d+)(\s+)(\d+)(\s*)$")


def _distinct_atoms(rng, count, vocab):
    chosen = {}
    while len(chosen) < count:
        functor = rng.choice(TWO_LABEL_BINARY + THREE_LABEL + ("ex",))
        subject = rng.choice(vocab)
        node = (["atom", "ex", subject, None] if functor == "ex"
                else ["atom", functor, subject, rng.choice(vocab)])
        chosen.setdefault(atom_text(node), node)
    return list(chosen.values())


def _conjunction(parts):
    node = parts[0]
    for part in parts[1:]:
        node = ["&", node, part]
    return node


def _cpl_case(rng, width, sequent, tautology):
    """A chain p1 -> p2, ..., p(n-1) -> pn over ``width`` distinct atoms.

    Tautology: the chain entails p1 -> pn (as a line) or, with p1 added,
    entails pn (as a sequent).  Non-tautology: the chain alone and p1 | pn,
    false when every atom is false, so both kernels reject at their first row.
    """
    vocab = rng.sample(LETTER_POOL, rng.randint(4, 10))
    ps = _distinct_atoms(rng, width, vocab)
    links = [["->", ps[k], ps[k + 1]] for k in range(width - 1)]
    rng.shuffle(links)
    if not tautology:
        premises, conclusion = links, ["|", ps[0], ps[-1]]
    elif sequent:
        premises, conclusion = links + [ps[0]], ps[-1]
    else:
        premises, conclusion = links, ["->", ps[0], ps[-1]]
    tree = ["->", _conjunction(premises), conclusion]
    if sequent:
        premise_texts = sorted(to_text(p) for p in premises)
        text = f"1: {', '.join(premise_texts)} ==> {to_text(conclusion)} ; cpl\n"
    else:
        text = f"1: {to_text(tree)} ; cpl\n"
    falsifier = None if tautology else []
    assert tautology or not prop_value(tree, set(falsifier))
    return {"kind": "cpl-sequent" if sequent else "cpl-line", "text": text, "tree": tree,
            "width": width, "tautology": tautology, "falsifier": falsifier,
            "system": "LUK", "substitution_rule": True}


def _random_model(rng, vocab, traditional):
    size = rng.randint(3, 6)
    universe = [f"u{k}" for k in range(size)]
    denotation = {}
    for letter in vocab:
        count = rng.choice((1, 1, 2, 2, 3) if traditional else (0, 1, 1, 2, 2, 3))
        denotation[letter] = sorted(rng.sample(universe, min(count, size)))
    return {"universe": universe, "denotation": denotation}


def _structure(model, with_eps):
    """The letter relations of a model, by the benchmark's own set comparisons."""
    den = {k: set(v) for k, v in model["denotation"].items()}
    carrier = sorted(den)
    pairs = [(x, y) for x in carrier for y in carrier]
    out = {
        "carrier": carrier,
        "A": [[x, y] for x, y in pairs if den[x] <= den[y]],
        "I": [[x, y] for x, y in pairs if den[x] & den[y]],
    }
    if with_eps:
        out["eps"] = [[x, y] for x, y in pairs if len(den[x]) == 1 and den[x] <= den[y]]
    return out


def kernels_inputs(seed, entries, root: Path):
    rng = _rng("kernels", seed)
    data = root / "src/namecalc/data"
    ops = []
    for entry in entries:
        for script in entry.get("scripts", ()):
            text = (data / script["path"]).read_text()
            base = {"system": script["system"],
                    "substitution_rule": script.get("substitution_rule", True),
                    "pinned": entry["formula"], "path": script["path"]}
            fmt = script["path"].rsplit(".", 1)[1]
            ops.append({"kind": f"script-{fmt}", "text": text, **base})
            if fmt != "proof":
                continue
            lines = text.splitlines()
            mp_lines = [k for k, line in enumerate(lines) if _MP_LINE.match(line.split("#", 1)[0])]
            if not mp_lines:
                continue
            # The last detachment: the kernel checks the whole script before it.
            k = mp_lines[-1]
            m = _MP_LINE.match(lines[k].split("#", 1)[0])
            lines[k] = m.group(1) + m.group(5) + m.group(4) + m.group(3) + m.group(6)
            ops.append({"kind": "mutant", "text": "\n".join(lines) + "\n",
                        "failure_line": int(m.group(2)), **base})
    for width in CPL_WIDTHS:
        for sequent in (False, True):
            for tautology in (True, False):
                ops.append(_cpl_case(rng, width, sequent, tautology))
    for _ in range(CPL_PLATEAU_LINES):
        ops.append(_cpl_case(rng, CPL_PLATEAU_WIDTH, sequent=False, tautology=True))
    for n in CANONICAL_LETTERS:
        vocab = sorted(rng.sample(LETTER_POOL, n))
        loose = _random_model(rng, vocab, traditional=False)
        strict = _random_model(rng, vocab, traditional=True)
        for system, model in (("SH", loose), ("LUK", strict), ("SHIS", loose)):
            for method in ("filters", "pairs"):
                ops.append({"kind": "canonical", "model": model, "vocab": vocab,
                            "system": system, "method": method})
        ops.append({"kind": "represent", "structure": _structure(loose, True), "rep_kind": "C"})
        ops.append({"kind": "represent", "structure": _structure(strict, False), "rep_kind": "B3"})
    rng.shuffle(ops)
    return {"workload": "kernels", "seed": seed, "ops": ops}


# --- corpus ------------------------------------------------------------------

GROUPS = ("moods", "square", "shepherdson", "slupecki", "ontology", "variants", "sequent", "smiley")


def corpus_inputs(seed, entries):
    rng = _rng("corpus", seed)
    groups = list(GROUPS)
    rng.shuffle(groups)
    expected = {}
    for group in groups:
        mine = [e for e in entries if e["group"] == group]
        expected[group] = {
            "entries": len(mine),
            "verdict_checks": sum(len(e["verdicts"]) for e in mine),
            "script_checks": sum(len(e.get("scripts", ())) for e in mine),
        }
    ops = [{"kind": "group", "group": g, **expected[g]} for g in groups]
    return {"workload": "corpus", "seed": seed, "ops": ops}


def make_inputs(workload, seed, root: Path):
    entries = load_manifest(root)
    if workload == "search":
        return search_inputs(seed, entries)
    if workload == "cli":
        return cli_inputs(seed, entries)
    if workload == "kernels":
        return kernels_inputs(seed, entries, root)
    return corpus_inputs(seed, entries)
