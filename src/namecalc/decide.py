"""Validity decision over the four model classes, with countermodel extraction.

The decision procedure abstracts a model over k letters into a labeling of
the 2^k overlap regions by a cardinality type.  Truth of every functor
depends only on those labels: the singular-copula family (eps, neps, ideq)
needs the three-way split Zero/One/Many, everything else only needs
Zero/NonEmpty, which halves the search alphabet.  An independent brute-force
oracle enumerates raw denotation assignments over a fixed universe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .core import Atom, Formula, Functor, Neg, distinct_atoms, letters, truth
from .semantics import _UNIVERSE_MINIMUM, Model, ModelClass, evaluate, in_class


class Card(IntEnum):
    ZERO = 0
    ONE = 1
    MANY = 2


DEFAULT_CAP = 4


@dataclass(frozen=True)
class RegionLabeling:
    """Cardinality labels for the 2^k overlap regions of k letters.

    Region r (a bitmask over vocab positions) stands for the elements lying
    inside exactly the denotations whose bits are set in r.
    """

    vocab: tuple[str, ...]
    labels: tuple[Card, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != 1 << len(self.vocab):
            raise ValueError("need one label per region")


@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class Countermodel:
    model: Model


Verdict = Union[Valid, Countermodel]

def _letter_sizes(labeling: RegionLabeling, many_size: int = 2) -> list[int]:
    weights = [0, 1, many_size]
    sizes = [0] * len(labeling.vocab)
    for region, label in enumerate(labeling.labels):
        w = weights[label]
        if not w:
            continue
        for j in range(len(labeling.vocab)):
            if region >> j & 1:
                sizes[j] += w
    return sizes


def _class_admits(labeling: RegionLabeling, cls: ModelClass) -> bool:
    if cls is ModelClass.ALL:
        return True
    sizes = _letter_sizes(labeling)
    if cls is ModelClass.TRADITIONAL:
        return all(s >= 1 for s in sizes)
    if cls is ModelClass.POLYREFERENTIAL:
        return all(s >= 2 for s in sizes)
    return all(s == 0 or s >= 2 for s in sizes)


def realize(labeling: RegionLabeling, cls: ModelClass, many_size: int = 2) -> Optional[Model]:
    """Build a witness model: Zero regions get 0 elements, One regions 1,
    Many regions many_size; the universe is padded with fresh elements up to
    the class minimum.  None when some letter breaks the class constraint."""
    if not _class_admits(labeling, cls):
        return None
    weights = [0, 1, many_size]
    universe: list[str] = []
    extents: list[set[str]] = [set() for _ in labeling.vocab]
    for region, label in enumerate(labeling.labels):
        for k in range(weights[label]):
            element = f"r{region}_{k}"
            universe.append(element)
            for j in range(len(labeling.vocab)):
                if region >> j & 1:
                    extents[j].add(element)
    pad = 0
    while len(universe) < _UNIVERSE_MINIMUM[cls]:
        universe.append(f"pad{pad}")
        pad += 1
    denotation = {v: frozenset(extents[j]) for j, v in enumerate(labeling.vocab)}
    return Model(frozenset(universe), denotation)


_EPS_FAMILY = (Functor.EPS, Functor.NEPS, Functor.IDEQ)


def needs_three_labels(formula: Formula) -> bool:
    return any(atom.functor in _EPS_FAMILY for atom in distinct_atoms(formula))


def _compile_atom(atom: Atom, index: dict[str, int], regions: int):
    """Compile an atom to a predicate over (labels, sizes); agrees with
    evaluate over realize, since truth only needs the region cardinalities."""
    s = index[atom.subject]
    f = atom.functor
    if f is Functor.EX:
        return lambda labels, sizes: sizes[s] > 0
    p = index[atom.predicate]
    diff = tuple(r for r in range(regions) if r >> s & 1 and not r >> p & 1)
    meet = tuple(r for r in range(regions) if r >> s & 1 and r >> p & 1)
    split = tuple(r for r in range(regions) if (r >> s & 1) != (r >> p & 1))
    if f is Functor.A:
        return lambda labels, sizes: not any(labels[r] for r in diff)
    if f is Functor.O:
        return lambda labels, sizes: any(labels[r] for r in diff)
    if f is Functor.KA:
        return lambda labels, sizes: sizes[s] > 0 and not any(labels[r] for r in diff)
    if f is Functor.OT:
        return lambda labels, sizes: not (sizes[s] > 0 and not any(labels[r] for r in diff))
    if f is Functor.I:
        return lambda labels, sizes: any(labels[r] for r in meet)
    if f is Functor.E:
        return lambda labels, sizes: not any(labels[r] for r in meet)
    if f is Functor.KE:
        return lambda labels, sizes: sizes[s] > 0 and not any(labels[r] for r in meet)
    if f is Functor.KKE:
        return lambda labels, sizes: (
            sizes[s] > 0 and sizes[p] > 0 and not any(labels[r] for r in meet)
        )
    if f is Functor.CEQ:
        return lambda labels, sizes: not any(labels[r] for r in split)
    if f is Functor.DEQ:
        return lambda labels, sizes: sizes[s] > 0 and not any(labels[r] for r in split)
    if f is Functor.EPS:
        return lambda labels, sizes: sizes[s] == 1 and not any(labels[r] for r in diff)
    if f is Functor.NEPS:
        return lambda labels, sizes: sizes[s] == 1 and not any(labels[r] for r in meet)
    if f is Functor.IDEQ:
        return lambda labels, sizes: sizes[s] == 1 and not any(labels[r] for r in split)
    raise AssertionError(f)


class CapExceeded(ValueError):
    pass


def decide(formula: Formula, cls: ModelClass, cap: int = DEFAULT_CAP) -> Verdict:
    """Valid, or the first countermodel in the fixed labeling enumeration.

    Labelings are enumerated lexicographically over regions (region 0 varies
    slowest) with Zero < One < Many; the first class-admissible labeling that
    falsifies the formula is realized and returned.
    """
    vocab = tuple(sorted(letters(formula)))
    three = needs_three_labels(formula)
    limit = cap if three else cap + 1
    if len(vocab) > limit:
        raise CapExceeded(f"{len(vocab)} letters exceed the cap ({limit})")
    index = {v: j for j, v in enumerate(vocab)}
    regions = 1 << len(vocab)
    alphabet = (Card.ZERO, Card.ONE, Card.MANY) if three else (Card.ZERO, Card.MANY)
    letter_regions = [
        tuple(r for r in range(regions) if r >> j & 1) for j in range(len(vocab))
    ]
    compiled = {atom: _compile_atom(atom, index, regions) for atom in distinct_atoms(formula)}

    def leaf(atom: Atom) -> bool:
        return compiled[atom](labels, sizes)

    for labels in itertools.product(alphabet, repeat=regions):
        sizes = [sum(labels[r] for r in mine) for mine in letter_regions]
        if cls is ModelClass.TRADITIONAL:
            if any(s < 1 for s in sizes):
                continue
        elif cls is ModelClass.POLYREFERENTIAL:
            if any(s < 2 for s in sizes):
                continue
        elif cls is ModelClass.NON_MONOREFERENTIAL:
            if any(s == 1 for s in sizes):
                continue
        if not truth(formula, leaf):
            model = realize(RegionLabeling(vocab, labels), cls)
            assert model is not None
            return Countermodel(model)
    return Valid()


# Brute-force oracle: denotations as bitmasks over a fixed universe, all
# assignments enumerated with numpy.

ORACLE_MAX_LETTERS = 3
ORACLE_MAX_UNIVERSE = 8


@lru_cache(maxsize=None)
def _oracle_tables(count: int, max_universe: int):
    """Shared read-only denotation-mask and popcount columns for an assignment
    enumeration over `count` letters.  uint8 holds every mask, since the
    universe has at most 8 elements."""
    subsets = 1 << max_universe
    masks_of = np.arange(subsets, dtype=np.uint8)
    pops_of = np.array([bin(x).count("1") for x in range(subsets)], dtype=np.uint8)
    masks, pops = [], []
    for j in range(count):
        inner, outer = subsets ** (count - 1 - j), subsets**j
        for table, column in ((masks_of, masks), (pops_of, pops)):
            values = np.tile(np.repeat(table, inner), outer)
            values.setflags(write=False)
            column.append(values)
    return tuple(masks), tuple(pops)


def _oracle_atom(atom: Atom, masks: dict[str, np.ndarray], pops: dict[str, np.ndarray]):
    ds, ps = masks[atom.subject], pops[atom.subject]
    f = atom.functor
    if f is Functor.EX:
        return ps > 0
    dp, pp = masks[atom.predicate], pops[atom.predicate]
    if f is Functor.A:
        return (ds & ~dp) == 0
    if f is Functor.I:
        return (ds & dp) != 0
    if f is Functor.E:
        return (ds & dp) == 0
    if f is Functor.O:
        return (ds & ~dp) != 0
    if f is Functor.KA:
        return (ps > 0) & ((ds & ~dp) == 0)
    if f is Functor.KE:
        return (ps > 0) & ((ds & dp) == 0)
    if f is Functor.KKE:
        return (ps > 0) & (pp > 0) & ((ds & dp) == 0)
    if f is Functor.CEQ:
        return ds == dp
    if f is Functor.DEQ:
        return (ds == dp) & (ps > 0)
    if f is Functor.OT:
        return ~((ps > 0) & ((ds & ~dp) == 0))
    if f is Functor.EPS:
        return (ps == 1) & ((ds & ~dp) == 0)
    if f is Functor.NEPS:
        return (ps == 1) & ((ds & dp) == 0)
    if f is Functor.IDEQ:
        return (ps == 1) & (ds == dp)
    raise AssertionError(f)


def _oracle_eval(formula: Formula, masks, pops) -> np.ndarray:
    if isinstance(formula, Atom):
        return _oracle_atom(formula, masks, pops)
    if isinstance(formula, Neg):
        return ~_oracle_eval(formula.operand, masks, pops)
    left = _oracle_eval(formula.left, masks, pops)
    right = _oracle_eval(formula.right, masks, pops)
    if formula.op == "&":
        return left & right
    if formula.op == "|":
        return left | right
    if formula.op == "->":
        return ~left | right
    return left == right


def oracle_decide(formula: Formula, cls: ModelClass, max_universe: int) -> Verdict:
    """Exhaustive check over every denotation assignment into a fixed universe
    of size max_universe; the first falsifying in-class assignment wins.

    Enumeration is lexicographic over the letter tuple (first letter varies
    slowest) with denotations ordered as little-endian element bitmasks.
    """
    vocab = tuple(sorted(letters(formula)))
    if len(vocab) > ORACLE_MAX_LETTERS:
        raise CapExceeded(f"oracle is limited to {ORACLE_MAX_LETTERS} letters")
    if not 0 <= max_universe <= ORACLE_MAX_UNIVERSE:
        raise CapExceeded(f"oracle universe is limited to {ORACLE_MAX_UNIVERSE}")
    subsets = 1 << max_universe
    total = subsets ** len(vocab)
    mask_columns, pop_columns = _oracle_tables(len(vocab), max_universe)
    masks = {letter: mask_columns[j] for j, letter in enumerate(vocab)}
    pops = {letter: pop_columns[j] for j, letter in enumerate(vocab)}
    admissible = np.ones(total, dtype=bool)
    if cls is not ModelClass.ALL:
        if max_universe < _UNIVERSE_MINIMUM[cls]:
            admissible[:] = False
        elif cls is ModelClass.TRADITIONAL:
            for letter in vocab:
                admissible &= pops[letter] >= 1
        elif cls is ModelClass.POLYREFERENTIAL:
            for letter in vocab:
                admissible &= pops[letter] >= 2
        else:
            for letter in vocab:
                admissible &= pops[letter] != 1
    truths = (
        _oracle_eval(formula, masks, pops)
        if vocab
        else np.full(total, evaluate(Model(frozenset(f"u{k}" for k in range(max_universe))), formula))
    )
    failing = np.nonzero(admissible & ~truths)[0]
    if failing.size == 0:
        return Valid()
    first = int(failing[0])
    universe = frozenset(f"u{k}" for k in range(max_universe))
    denotation = {}
    for letter in vocab:
        mask = int(masks[letter][first])
        denotation[letter] = frozenset(f"u{k}" for k in range(max_universe) if mask >> k & 1)
    model = Model(universe, denotation)
    assert in_class(model, cls, vocab) and not evaluate(model, formula)
    return Countermodel(model)
