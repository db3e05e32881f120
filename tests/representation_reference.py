"""The two canonical-model constructions, their four name helpers and
``represent``'s image loop that ``representation._extents`` replaced, kept as
the reference they are compared against: filters and pairs each restate the
extent of a letter, and ``represent`` builds its images by hand.

Below them sit the forms of ``i_sets``, ``structure_from_model`` and
``verify_structure`` that the rewrites replaced: the walk over every subset
of the carrier, the harvest through ``evaluate`` and the loops over all
triples.  The references above call these, never the live ones."""

import itertools
from typing import Iterable, Optional

from namecalc.representation import (
    CANONICAL_METHODS,
    CANONICAL_SYSTEMS,
    RelationalStructure,
    RepresentReport,
    congruence_classes,
)
from namecalc.core import Atom, Functor
from namecalc.semantics import Model, ModelClass, evaluate, in_class


def reference_represent(structure: RelationalStructure, kind: str):
    violations = reference_verify_structure(structure, kind)
    if violations:
        raise ValueError(f"structure violates {violations[0][0]} at {violations[0][1]}")
    family = reference_i_sets(structure)
    e_map = {}
    for x in structure.carrier:
        points = {("iset", f) for f in family if x in f}
        if kind == "C" and not structure.e(x, x):
            points |= {("el", c) for c in structure.carrier if structure.i(c, c) and structure.a(c, x)}
        e_map[x] = frozenset(points)
    failures = []
    for x, y in itertools.product(structure.carrier, repeat=2):
        if structure.a(x, y) != (e_map[x] <= e_map[y]):
            failures.append(f"A({x},{y}) vs point inclusion")
        if structure.i(x, y) != bool(e_map[x] & e_map[y]):
            failures.append(f"I({x},{y}) vs point intersection")
        if kind == "C":
            image_single = len(e_map[x]) == 1 and e_map[x] <= e_map[y]
            if structure.e(x, y) != image_single:
                failures.append(f"eps({x},{y}) vs singleton inclusion")
    if kind == "B3":
        for x in structure.carrier:
            if not e_map[x]:
                failures.append(f"e({x}) is empty")
    return e_map, RepresentReport(tuple(failures))


def _filter_name(subset: frozenset[str]) -> str:
    return "flt:" + ",".join(sorted(subset))


def _pair_name(pair: frozenset[str]) -> str:
    return "pr:" + ",".join(sorted(pair))


def _block_name(block: frozenset[str]) -> str:
    return "blk:" + ",".join(sorted(block))


def _letter_name(letter: str) -> str:
    return "lt:" + letter


def reference_canonical_model(
    model: Model,
    system: str,
    method: str,
    vocab: Optional[Iterable[str]] = None,
    force_nonmono: bool = False,
) -> Model:
    if system not in CANONICAL_SYSTEMS:
        raise ValueError(f"unknown system {system!r} for canonical models")
    if method not in CANONICAL_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if force_nonmono and system == "SHIS":
        raise ValueError("the non-singleton variant applies to SH and LUK only")
    vocab = tuple(sorted(set(vocab if vocab is not None else model.denotation.keys())))
    if system == "LUK" and not in_class(model, ModelClass.TRADITIONAL, vocab):
        raise ValueError("LUK canonical models need a traditional backing model")
    if not vocab:
        return Model(frozenset(), {})
    diagram = reference_structure_from_model(model, vocab, with_eps=system == "SHIS")
    if method == "filters":
        return _canonical_filters(diagram, system, force_nonmono)
    return _canonical_pairs(diagram, system, force_nonmono)


def _canonical_filters(diagram: RelationalStructure, system: str, force_nonmono: bool) -> Model:
    filters = reference_i_sets(diagram)
    filter_elements = {f: _filter_name(f) for f in filters}
    shis_like = system == "SHIS" or force_nonmono
    letter_elements = (
        {v: _letter_name(v) for v in diagram.carrier if diagram.i(v, v)} if shis_like else {}
    )
    universe = set(filter_elements.values()) | set(letter_elements.values())
    denotation = {}
    for letter in diagram.carrier:
        extent = {name for f, name in filter_elements.items() if letter in f}
        if shis_like and not (system == "SHIS" and diagram.e(letter, letter)):
            extent |= {
                name
                for member, name in letter_elements.items()
                if diagram.a(member, letter)
            }
        denotation[letter] = frozenset(extent)
    return Model(frozenset(universe), denotation)


def _canonical_pairs(diagram: RelationalStructure, system: str, force_nonmono: bool) -> Model:
    vocab = diagram.carrier
    pairs = {
        frozenset((m, q))
        for m, q in itertools.product(vocab, repeat=2)
        if diagram.i(m, q)
    }
    pair_elements = {p: _pair_name(p) for p in pairs}
    shis_like = system == "SHIS" or force_nonmono
    letter_elements = (
        {v: _letter_name(v) for v in vocab if diagram.i(v, v)} if shis_like else {}
    )
    block_elements = {}
    if system == "SHIS":
        blocks = congruence_classes(diagram)
        block_elements = {
            v: _block_name(blocks[v]) for v in vocab if diagram.i(v, v)
        }
    universe = (
        set(pair_elements.values())
        | set(letter_elements.values())
        | set(block_elements.values())
    )
    denotation = {}
    for letter in vocab:
        if system == "SHIS" and diagram.e(letter, letter):
            extent = {
                name
                for member, name in block_elements.items()
                if diagram.a(member, letter)
            }
        else:
            extent = {
                name
                for pair, name in pair_elements.items()
                if any(diagram.a(member, letter) for member in pair)
            }
            extent |= {
                name
                for member, name in block_elements.items()
                if diagram.a(member, letter)
            }
            extent |= {
                name
                for member, name in letter_elements.items()
                if diagram.a(member, letter)
            }
        denotation[letter] = frozenset(extent)
    return Model(frozenset(universe), denotation)


def reference_verify_structure(structure: RelationalStructure, kind: str):
    if kind not in ("B1", "B3", "C"):
        raise ValueError(f"unknown structure kind {kind!r}")
    s = structure
    out = []
    for x in s.carrier:
        if not s.a(x, x):
            out.append(("B1", (x,)))
    for x, y, z in itertools.product(s.carrier, repeat=3):
        if s.a(x, y) and s.a(y, z) and not s.a(x, z):
            out.append(("B2", (x, y, z)))
        if s.a(x, y) and s.i(x, z) and not s.i(z, y):
            out.append(("B3", (x, y, z)))
    if kind == "B3":
        for x in s.carrier:
            if not s.i(x, x):
                out.append(("B4'", (x,)))
    else:
        for x, y in itertools.product(s.carrier, repeat=2):
            if s.i(x, y) and not s.i(x, x):
                out.append(("B4", (x, y)))
            if not s.i(x, x) and not s.a(x, y):
                out.append(("B5", (x, y)))
    if kind == "C":
        for x, y in itertools.product(s.carrier, repeat=2):
            if s.e(x, y) and not s.e(x, x):
                out.append(("C0", (x, y)))
            if s.e(x, y) and not s.a(x, y):
                out.append(("C1", (x, y)))
        for x in s.carrier:
            if s.e(x, x) and not s.i(x, x):
                out.append(("C2", (x,)))
        for x, y, z in itertools.product(s.carrier, repeat=3):
            if s.a(x, z) and s.e(z, z) and s.i(x, y) and not s.e(x, y):
                out.append(("C4", (x, y, z)))
    return out


def reference_i_sets(structure: RelationalStructure):
    out = []
    carrier = structure.carrier
    up = {
        x: frozenset(y for y in carrier if structure.a(x, y))
        for x in carrier
    }
    for bits in range(1, 1 << len(carrier)):
        subset = frozenset(c for j, c in enumerate(carrier) if bits >> j & 1)
        if all(up[x] <= subset and all(structure.i(x, y) for y in subset) for x in subset):
            out.append(subset)
    return sorted(out, key=lambda f: (len(f), tuple(sorted(f))))


def reference_structure_from_model(model: Model, vocab: Iterable[str], with_eps: bool = True):
    carrier = tuple(sorted(set(vocab)))
    a_rel, i_rel, eps_rel = set(), set(), set()
    for x, y in itertools.product(carrier, repeat=2):
        if evaluate(model, Atom(Functor.A, x, y)):
            a_rel.add((x, y))
        if evaluate(model, Atom(Functor.I, x, y)):
            i_rel.add((x, y))
        if with_eps and evaluate(model, Atom(Functor.EPS, x, y)):
            eps_rel.add((x, y))
    return RelationalStructure(
        carrier, frozenset(a_rel), frozenset(i_rel), frozenset(eps_rel) if with_eps else None
    )
