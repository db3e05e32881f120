"""Finite relational structures, their set-representation maps, and canonical
models built from a finite model's atomic diagram.

The B-style structures carry inclusion-like and overlap-like relations; the
C-style structures add a singular-copula relation.  ``represent`` sends each
carrier element to a family of points so that the three relations turn into
inclusion, intersection and singleton-inclusion of point sets.  The
canonical-model constructions rebuild a model from nothing but the atomic
facts it satisfies, over a fixed finite vocabulary, and preserve atomic truth.

Both read one element table, turned into extents by one rule (``_extents``):
a row per point, with the letters it lies in and whether a singular letter
(a true ``eps(x,x)``) keeps it.  Rows are I-sets (filters), overlap pairs,
mutual-A blocks, and a point per inhabited letter.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Optional

from .core import Atom, Functor
from .parser import ParseError, decode_json, is_string_list
from .proof import GuardExceeded
from .semantics import SHAPE, Model, ModelClass, evaluate, in_class, shape_true


@dataclass(frozen=True)
class RelationalStructure:
    carrier: tuple[str, ...]
    A: frozenset[tuple[str, str]]
    I: frozenset[tuple[str, str]]
    eps: Optional[frozenset[tuple[str, str]]] = None

    def __post_init__(self) -> None:
        if not self.carrier:
            raise ValueError("carrier must be nonempty")
        if len(set(self.carrier)) != len(self.carrier):
            raise ValueError("carrier elements must be distinct")
        allowed = set(self.carrier)
        for relation in (self.A, self.I, self.eps or frozenset()):
            for x, y in relation:
                if x not in allowed or y not in allowed:
                    raise ValueError(f"relation pair ({x},{y}) is outside the carrier")

    def a(self, x: str, y: str) -> bool:
        return (x, y) in self.A

    def i(self, x: str, y: str) -> bool:
        return (x, y) in self.I

    def e(self, x: str, y: str) -> bool:
        return self.eps is not None and (x, y) in self.eps


Violation = tuple[str, tuple[str, ...]]


def verify_structure(structure: RelationalStructure, kind: str) -> list[Violation]:
    """All condition violations, as (condition name, witness tuple) pairs.

    kind "B1": reflexive-A, transitive-A, the Datisi-shaped mixing law,
    I-seriality and the empty-or-reflexive dichotomy.  kind "B3" replaces the
    last two with plain I-reflexivity.  kind "C" extends B1 with the four
    singular-copula conditions (a missing eps relation reads as empty).
    """
    if kind not in ("B1", "B3", "C"):
        raise ValueError(f"unknown structure kind {kind!r}")
    s = structure
    out: list[Violation] = []
    for x in s.carrier:
        if not s.a(x, x):
            out.append(("B1", (x,)))
    # Triples in product order; a pair (x, y) whose shared premise fails
    # skips its whole block of z.
    for x, y in itertools.product(s.carrier, repeat=2):
        if not s.a(x, y):
            continue
        for z in s.carrier:
            if s.a(y, z) and not s.a(x, z):
                out.append(("B2", (x, y, z)))
            if s.i(x, z) and not s.i(z, y):
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
        for x, y in itertools.product(s.carrier, repeat=2):
            if not s.i(x, y) or s.e(x, y):
                continue
            for z in s.carrier:
                if s.a(x, z) and s.e(z, z):
                    out.append(("C4", (x, y, z)))
    return out


def _up(structure: RelationalStructure) -> dict[str, frozenset[str]]:
    """Each element's A-successors."""
    return {
        x: frozenset(y for y in structure.carrier if structure.a(x, y))
        for x in structure.carrier
    }


# The walk below cuts a branch as soon as it breaks a rule, so its cost
# follows the output, not 2^n.  The worst case is every subset an I-set (A the identity, I total):
# `represent` then takes 0.08 s at 13 elements and 0.2 s at 14 on a 2-core
# VM (Python 3.11), and each element doubles time and memory.
I_SET_CARRIER_LIMIT = 13


def i_sets(structure: RelationalStructure) -> list[frozenset[str]]:
    """All nonempty subsets closed upward under A and pairwise related by I,
    in a fixed order (size, then sorted elements).

    A depth-first walk adds elements in carrier order, one bit each.  It
    keeps two masks: the elements that every member meets both ways, and the
    A-successors of members owed above the last element added.  An element
    joins only if it is in the first mask (so it meets itself too) and every
    A-successor below it is already a member; the walk never passes the
    lowest owed element.  So each I-set comes out once, and when few subsets
    are I-sets the walk visits few of the 2^n."""
    carrier = structure.carrier
    if len(carrier) > I_SET_CARRIER_LIMIT:
        raise GuardExceeded(
            f"{len(carrier)} carrier elements exceed the I-set cap ({I_SET_CARRIER_LIMIT})")
    n = len(carrier)
    index = {c: j for j, c in enumerate(carrier)}
    up, meets = [0] * n, [0] * n
    for x, y in structure.A:
        up[index[x]] |= 1 << index[y]
    for x, y in structure.I:
        if (y, x) in structure.I:
            meets[index[x]] |= 1 << index[y]
    out = []

    def walk(start: int, members: int, names: tuple[str, ...], meet: int, owed: int) -> None:
        if owed:
            stop = (owed & -owed).bit_length()  # through the lowest owed element
        else:
            if members:
                out.append(frozenset(names))
            stop = n
        for j in range(start, stop):
            bit = 1 << j
            if meet & bit and not up[j] & ~members & (bit - 1):
                above = -(bit << 1)
                walk(j + 1, members | bit, names + (carrier[j],), meet & meets[j], (owed | up[j]) & above)

    walk(0, 0, (), sum(1 << j for j in range(n) if meets[j] >> j & 1), 0)
    return sorted(out, key=lambda f: (len(f), tuple(sorted(f))))


def bracket(structure: RelationalStructure, x: str, y: str) -> Optional[frozenset[str]]:
    """The I-set {z : Axz or Ayz}, defined exactly when Ixy holds."""
    if not structure.i(x, y):
        return None
    return frozenset(z for z in structure.carrier if structure.a(x, z) or structure.a(y, z))


Point = tuple[str, object]  # a tag and a frozenset of elements, or one element
Row = tuple[Point, frozenset[str], bool]  # a point, the elements it lies in, kept by singular ones


class StructureViolation(ValueError):
    """The structure fails a condition of its kind; ``violations`` lists them all."""

    def __init__(self, violations: list[Violation]) -> None:
        super().__init__(f"structure violates {violations[0][0]} at {violations[0][1]}")
        self.violations = violations


def _letter_rows(structure: RelationalStructure, up: dict[str, frozenset[str]], tag: str) -> list[Row]:
    """A point for each inhabited element c, lying in every y with A(c, y);
    singular elements drop it."""
    return [((tag, c), up[c], False) for c in structure.carrier if structure.i(c, c)]


def _extents(structure: RelationalStructure, rows: list[Row]) -> dict[str, frozenset]:
    """Each element's extent: the points of the rows that lie in it, except
    that a singular element keeps only the rows marked to be kept."""
    singular = {x for x in structure.carrier if structure.e(x, x)}
    extents: dict[str, set] = {x: set() for x in structure.carrier}
    for point, members, keep in rows:
        for x in members:
            if keep or x not in singular:
                extents[x].add(point)
    return {x: frozenset(points) for x, points in extents.items()}


@dataclass(frozen=True)
class RepresentReport:
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def represent(structure: RelationalStructure, kind: str) -> tuple[dict[str, frozenset[Point]], RepresentReport]:
    """The point-set map e and the report of its exchange properties:
    Axy iff e(x) is a subset of e(y); Ixy iff e(x) meets e(y); for kind C,
    eps xy iff e(x) is a singleton inside e(y); for kind B3, no e(x) is empty.
    A structure that fails its kind's conditions raises ``StructureViolation``.
    """
    violations = verify_structure(structure, kind)
    if violations:
        raise StructureViolation(violations)
    rows: list[Row] = [(("iset", f), f, True) for f in i_sets(structure)]
    if kind == "C":
        rows += _letter_rows(structure, _up(structure), "el")
    e_map = _extents(structure, rows)
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


def structure_from_model(model: Model, vocab: Iterable[str], with_eps: bool = True) -> RelationalStructure:
    """Harvest the letter-to-letter relations of a model as a structure."""
    carrier = tuple(sorted(set(vocab)))
    extents = [(x, model.of(x)) for x in carrier]
    pairs = [((x, y), dx, dy) for (x, dx), (y, dy) in itertools.product(extents, repeat=2)]

    def relation(functor: Functor) -> frozenset[tuple[str, str]]:
        shape = SHAPE[functor]
        return frozenset(pair for pair, dx, dy in pairs if shape_true(shape, dx, dy))

    return RelationalStructure(
        carrier, relation(Functor.A), relation(Functor.I), relation(Functor.EPS) if with_eps else None
    )


def parse_structure(text: str) -> RelationalStructure:
    """A structure from a JSON object with the keys carrier, A and I and an
    optional eps: the carrier a list of distinct strings, each relation a list
    of pairs of carrier elements."""
    payload, span = decode_json(text)
    if not isinstance(payload, dict) or not (
        {"carrier", "A", "I"} <= set(payload) <= {"carrier", "A", "I", "eps"}
    ):
        raise ParseError("structure needs the keys carrier, A and I, and optionally eps", span)
    if not is_string_list(payload["carrier"]):
        raise ParseError("carrier must be a list of strings", span)

    def relation(name: str) -> frozenset[tuple[str, str]]:
        pairs = payload[name]
        if not isinstance(pairs, list) or not all(
            is_string_list(pair) and len(pair) == 2 for pair in pairs
        ):
            raise ParseError(f"{name} must be a list of pairs of strings", span)
        return frozenset(map(tuple, pairs))

    try:
        return RelationalStructure(
            tuple(payload["carrier"]), relation("A"), relation("I"),
            None if payload.get("eps") is None else relation("eps"),
        )
    except ValueError as err:  # an empty carrier, a repeated element, a pair outside it
        raise ParseError(str(err), span) from None


def format_structure(structure: RelationalStructure) -> str:
    payload = {
        "carrier": list(structure.carrier),
        "A": sorted([x, y] for x, y in structure.A),
        "I": sorted([x, y] for x, y in structure.I),
    }
    if structure.eps is not None:
        payload["eps"] = sorted([x, y] for x, y in structure.eps)
    return json.dumps(payload, separators=(",", ":"))


# Canonical models from a finite model's atomic diagram.

def congruence_classes(structure: RelationalStructure) -> dict[str, frozenset[str]]:
    """Blocks of the mutual-A relation over the carrier."""
    up = _up(structure)
    return {x: frozenset(y for y in up[x] if x in up[y]) for x in structure.carrier}


CANONICAL_SYSTEMS = ("SH", "LUK", "SHIS")
CANONICAL_METHODS = ("filters", "pairs")


def canonical_model(
    model: Model,
    system: str,
    method: str,
    vocab: Optional[Iterable[str]] = None,
    force_nonmono: bool = False,
) -> Model:
    """Rebuild a model from the atomic diagram of ``model`` over ``vocab``.

    For systems SH and LUK the universe consists of filters (method
    "filters") or of overlap-witness pairs (method "pairs"); for SHIS both
    methods extend the universe so that singleton denotations are recreated
    exactly for the letters with a true reflexive copula fact.  Atomic truth
    over the vocabulary is preserved; for LUK the backing model must be
    traditional on the vocabulary.

    force_nonmono applies the SHIS-style alternative denotation to SH or LUK,
    producing a model with no singleton denotation.
    """
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
        return Model(frozenset(), {})  # no letters, so no atomic facts to rebuild
    diagram = structure_from_model(model, vocab, with_eps=system == "SHIS")
    up = _up(diagram)
    if method == "filters":
        rows: list[Row] = [(("flt", f), f, True) for f in i_sets(diagram)]
    else:
        pairs = {frozenset((m, q)) for m, q in itertools.product(vocab, repeat=2) if diagram.i(m, q)}
        rows = [(("pr", p), frozenset().union(*(up[m] for m in p)), False) for p in pairs]
        if system == "SHIS":
            blocks = congruence_classes(diagram)
            rows += [(("blk", blocks[v]), up[v], True) for v in vocab if diagram.i(v, v)]
    if system == "SHIS" or force_nonmono:
        rows += _letter_rows(diagram, up, "lt")
    named = [(_element_name(point), members, keep) for point, members, keep in rows]
    return Model(frozenset(name for name, _, _ in named), _extents(diagram, named))


def _element_name(point: Point) -> str:
    """``tag:`` and the point's letters, sorted and comma-separated."""
    tag, letters = point
    return f"{tag}:{letters if isinstance(letters, str) else ','.join(sorted(letters))}"


def atomic_agreement(model: Model, canonical: Model, vocab: Iterable[str], with_eps: bool) -> list[Atom]:
    """Atomic formulas over the vocabulary on which the two models disagree."""
    functors = [Functor.A, Functor.I, Functor.E, Functor.O]
    if with_eps:
        functors.append(Functor.EPS)
    vocab = sorted(set(vocab))
    mismatches = []
    for f in functors:
        for x, y in itertools.product(vocab, repeat=2):
            atom = Atom(f, x, y)
            if evaluate(model, atom) != evaluate(canonical, atom):
                mismatches.append(atom)
    return mismatches
