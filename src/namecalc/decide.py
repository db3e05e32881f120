"""Validity decision over the four model classes, with countermodel extraction.

A model over k letters is abstracted to a labeling of its 2^k overlap regions
by cardinality: Zero/NonEmpty, or Zero/One/Many when the singular-copula
family (eps, neps, ideq) occurs, since truth of every functor depends only on
those labels.  ``decide`` evaluates truth tables of labelings: a set of
labelings is a Python int, bit i for the i-th labeling in lexicographic order
(region 0 slowest), and the bitwise fold ``core.truth`` evaluates a whole
table at once.  The first falsifying labeling in that order, realized, is the
countermodel.  Formulas take up to LETTER_LIMIT letters with either
alphabet (2^16 or 3^16 labelings); a valid 5-letter two-label formula would
run through 2^32, so it is refused up front.  An independent brute-force
oracle enumerates raw denotation assignments over a fixed universe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache, reduce
from operator import or_
from typing import Optional, Sequence, Union

from .core import Atom, Formula, Functor, digit_columns, distinct_atoms, letters, truth
from .semantics import _UNIVERSE_MINIMUM, Model, ModelClass, evaluate, in_class


class Card(IntEnum):
    ZERO = 0
    ONE = 1
    MANY = 2


LETTER_LIMIT = 4
TABLE_ROWS = 1 << 16


@dataclass(frozen=True)
class Valid:
    pass


@dataclass(frozen=True)
class Countermodel:
    model: Model


Verdict = Union[Valid, Countermodel]


def realize(
    vocab: Sequence[str], labels: Sequence[Card], cls: ModelClass, many_size: int = 2
) -> Optional[Model]:
    """A witness model from one label per region r, a bitmask over vocab
    positions: Zero regions get 0 elements, One regions 1, Many regions
    many_size, each inside exactly the denotations of r's letters; fresh
    elements pad the universe to the class minimum.  None if not in cls."""
    if len(labels) != 1 << len(vocab):
        raise ValueError("need one label per region")
    weights = [0, 1, many_size]
    universe: list[str] = []
    extents: list[set[str]] = [set() for _ in vocab]
    for region, label in enumerate(labels):
        for k in range(weights[label]):
            element = f"r{region}_{k}"
            universe.append(element)
            for j in range(len(vocab)):
                if region >> j & 1:
                    extents[j].add(element)
    universe += [f"pad{k}" for k in range(_UNIVERSE_MINIMUM[cls] - len(universe))]
    denotation = {v: frozenset(extents[j]) for j, v in enumerate(vocab)}
    model = Model(frozenset(universe), denotation)
    return model if in_class(model, cls, vocab) else None


_EPS_FAMILY = (Functor.EPS, Functor.NEPS, Functor.IDEQ)


def needs_three_labels(formula: Formula) -> bool:
    return any(atom.functor in _EPS_FAMILY for atom in distinct_atoms(formula))


class CapExceeded(ValueError):
    pass


def decide(formula: Formula, cls: ModelClass) -> Verdict:
    """Valid, or the first countermodel in the lexicographic labeling order:
    the first class-admissible labeling that falsifies the formula, realized."""
    vocab = tuple(sorted(letters(formula)))
    if len(vocab) > LETTER_LIMIT:
        raise CapExceeded(f"{len(vocab)} letters exceed the cap ({LETTER_LIMIT})")
    three = needs_three_labels(formula)
    alphabet = (Card.ZERO, Card.ONE, Card.MANY) if three else (Card.ZERO, Card.MANY)
    base = len(alphabet)
    regions = 1 << len(vocab)
    spanned = max((t for t in range(1, regions + 1) if base**t <= TABLE_ROWS), default=1)
    full = (1 << base**spanned) - 1
    # A table spans the last regions, its rows' digits from the most
    # significant down, each the index of a label in the alphabet.  The first
    # regions' labels are fixed per table, taken in lexicographic order too.
    columns = digit_columns(base, spanned)[::-1]
    spanned_nonempty = [reduce(or_, column) for column in columns]
    spanned_one = [column[0] if three else 0 for column in columns]
    for head in itertools.product(alphabet, repeat=regions - spanned):
        nonempty = [full if label else 0 for label in head] + spanned_nonempty
        one = [full if label is Card.ONE else 0 for label in head] + spanned_one
        failing = _failing_rows(formula, cls, vocab, nonempty, one, full)
        if failing:
            row = (failing & -failing).bit_length() - 1
            digits = (row // base**d % base for d in reversed(range(spanned)))
            model = realize(vocab, head + tuple(alphabet[d] for d in digits), cls)
            assert model is not None
            return Countermodel(model)
    return Valid()


def _failing_rows(formula: Formula, cls: ModelClass, vocab: tuple[str, ...],
                  nonempty: list[int], one: list[int], full: int) -> int:
    """The rows of one table that are in the class and falsify the formula,
    from the rows where each region's label is nonempty and where it is One."""
    regions = range(len(nonempty))
    has, single, admissible = [], [], full
    for j in range(len(vocab)):
        # seen: some region of letter j is nonempty; two: at least two are.
        seen = two = ones = 0
        for r in regions:
            if r >> j & 1:
                two |= seen & nonempty[r]
                seen |= nonempty[r]
                ones |= one[r]
        has.append(seen)
        single.append(ones & ~two)  # exactly one nonempty region, and it is One
        if cls is ModelClass.TRADITIONAL:
            admissible &= seen
        elif cls is ModelClass.POLYREFERENTIAL:
            admissible &= seen & ~single[j]
        elif cls is ModelClass.NON_MONOREFERENTIAL:
            admissible &= ~single[j]
    index = {v: j for j, v in enumerate(vocab)}

    def rows(atom: Atom) -> int:
        s, f = index[atom.subject], atom.functor
        if f is Functor.EX:
            return has[s]
        p = index[atom.predicate]
        # The regions it needs empty: S outside P, S inside P, or S and P apart.
        if f in (Functor.A, Functor.O, Functor.KA, Functor.OT, Functor.EPS):
            zero = (r for r in regions if r >> s & 1 and not r >> p & 1)
        elif f in (Functor.E, Functor.I, Functor.KE, Functor.KKE, Functor.NEPS):
            zero = (r for r in regions if r >> s & 1 and r >> p & 1)
        else:
            zero = (r for r in regions if (r >> s ^ r >> p) & 1)
        empty = full ^ reduce(or_, (nonempty[r] for r in zero), 0)
        if f in (Functor.A, Functor.E, Functor.CEQ):
            return empty
        if f in (Functor.O, Functor.I):
            return full ^ empty
        if f in (Functor.KA, Functor.KE, Functor.DEQ):
            return has[s] & empty
        if f is Functor.OT:
            return full ^ (has[s] & empty)
        if f is Functor.KKE:
            return has[s] & has[p] & empty
        return single[s] & empty

    values = {atom: rows(atom) for atom in distinct_atoms(formula)}
    return admissible & ~truth(formula, values.__getitem__, full)


# Brute-force oracle: denotations as bitmasks over a fixed universe, all
# assignments enumerated with numpy.

ORACLE_MAX_LETTERS = 3
ORACLE_MAX_UNIVERSE = 8


@lru_cache(maxsize=None)
def _oracle_tables(count: int, max_universe: int):
    """Shared read-only denotation-mask and popcount columns for an assignment
    enumeration over `count` letters.  uint8 holds every mask, since the
    universe has at most 8 elements."""
    import numpy as np  # only the oracle needs numpy, so only it pays the import
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


def _oracle_atom(atom: Atom, masks, pops):
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


def oracle_decide(formula: Formula, cls: ModelClass, max_universe: int) -> Verdict:
    """Exhaustive check over every denotation assignment into a fixed universe
    of size max_universe; the first falsifying in-class assignment wins.

    Enumeration is lexicographic over the letter tuple (first letter varies
    slowest) with denotations ordered as little-endian element bitmasks.
    """
    import numpy as np
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
    truths = truth(formula, lambda atom: _oracle_atom(atom, masks, pops), True)
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
