"""Validity decision over the four model classes, with countermodel extraction.

A model over k letters is abstracted to a labeling of its 2^k overlap regions
by cardinality: Zero/NonEmpty, or Zero/One/Many when the singular-copula
family (eps, neps, ideq) occurs, since truth of every functor depends only on
those labels.  ``decide`` evaluates truth tables of labelings: a set of
labelings is a Python int, bit i for the i-th labeling in lexicographic order
(region 0 slowest), and the bitwise fold ``core.truth`` evaluates a whole
table at once; atoms read ``semantics.SHAPE`` over the regions of their
zone (``_zone``), the class filter ``semantics.admitted``.  A call walks its
formula once, for its distinct atoms, and the table layout depends only on
the letter count and the alphabet, so one is kept per pair (``_plan``).
At the default TABLE_ROWS every layout but four three-label letters fits
one table, whose letter, class and atom rows depend on the layout alone:
they are kept with it (``_kept_letters``, ``_kept_class``, ``_kept_atom``),
atom rows by functor and letter positions, so a one-table call looks its
atoms' rows up and folds once.  Per layout that is 2k letter rows, 4 class
rows and at most 14k^2 atom rows, about 1.8 MB for four two-label letters
(2^16-bit rows, 8 KB each), however many formulas are decided.  A layout of
several tables builds its rows per table, from its head labels.
The first falsifying labeling in that order, realized, is the countermodel:
its row's digits, read by ``divmod``, are the labels, and ``realize`` gives
each region its elements from region tables kept per letter count
(``_regions``: each region's two element names and its letter positions).
Formulas take up to LETTER_LIMIT letters with either alphabet (2^16 or 3^16
labelings); a valid 5-letter two-label formula would run through 2^32, so it
is refused up front.  An independent brute-force oracle enumerates raw
denotation assignments over a fixed universe, in tables, and reads the same
table over element planes, never over regions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import IntEnum
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Iterable, Iterator, Optional, Sequence, Union

from .core import Atom, Formula, Functor, atom_letters, digit_columns, distinct_atoms, truth
from .semantics import (
    _UNIVERSE_MINIMUM, SHAPE, Model, ModelClass, SINGLE, admitted, evaluate, holds, in_class, outside,
)


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


def realize(vocab: Sequence[str], labels: Sequence[Card], cls: ModelClass) -> Optional[Model]:
    """A witness model from one label per region r, a bitmask over vocab
    positions: Zero regions get 0 elements, One regions r{r}_0, Many regions
    r{r}_0 and r{r}_1, each inside exactly the denotations of r's letters
    (``_regions``); fresh elements pad the universe to the class minimum.
    None if not in cls."""
    if len(labels) != 1 << len(vocab):
        raise ValueError("need one label per region")
    universe: list[str] = []
    extents: list[list[str]] = [[] for _ in vocab]
    for label, (pair, positions) in zip(labels, _regions(len(vocab))):
        if label:
            elements = pair[:label]
            universe += elements
            for j in positions:
                extents[j] += elements
    if len(universe) < _UNIVERSE_MINIMUM[cls]:
        universe += [f"pad{k}" for k in range(_UNIVERSE_MINIMUM[cls] - len(universe))]
    model = Model(frozenset(universe), dict(zip(vocab, map(frozenset, extents))))
    return model if in_class(model, cls, vocab) else None


@lru_cache(maxsize=2 * LETTER_LIMIT)
def _regions(count: int) -> tuple[tuple[tuple[str, str], tuple[int, ...]], ...]:
    """Per region of `count` letters: its two element names and the
    positions of its letters."""
    return tuple(((f"r{r}_0", f"r{r}_1"), tuple(j for j in range(count) if r >> j & 1))
                 for r in range(1 << count))


def needs_three_labels(formula: Formula) -> bool:
    return _singular(distinct_atoms(formula))


def _singular(atoms: Iterable[Atom]) -> bool:
    """Whether some atom is of the singular-copula family, which tells One from Many."""
    return any(SHAPE[atom.functor].need is SINGLE for atom in atoms)


class CapExceeded(ValueError):
    pass


def decide(formula: Formula, cls: ModelClass) -> Verdict:
    """Valid, or the first countermodel in the lexicographic labeling order:
    the first class-admissible labeling that falsifies the formula, realized."""
    atoms = distinct_atoms(formula)
    vocab = tuple(sorted(atom_letters(atoms)))
    if len(vocab) > LETTER_LIMIT:
        raise CapExceeded(f"{len(vocab)} letters exceed the cap ({LETTER_LIMIT})")
    layout = (len(vocab), _singular(atoms), TABLE_ROWS)
    alphabet, spanned, full, _, _ = _plan(*layout)
    index = {v: j for j, v in enumerate(vocab)}
    # Each atom by its functor and letter positions; ex(S) reads only S, so S
    # stands in for the predicate it lacks.
    if spanned == 1 << len(vocab):  # one table, whose rows depend on the layout alone
        count, three, rows = layout
        values = {atom: _kept_atom(count, three, rows, atom.functor, index[atom.subject],
                                   index[atom.predicate or atom.subject]) for atom in atoms}
        failing = _kept_class(*layout, cls) & (full ^ truth(formula, values.__getitem__, full))
        return _countermodel(vocab, (), failing, alphabet, spanned, cls) if failing else Valid()
    keys = {atom: (atom.functor, index[atom.subject], index[atom.predicate or atom.subject]) for atom in atoms}
    for head, admissible, values in _tables(layout, cls, keys):
        failing = admissible & (full ^ truth(formula, values.__getitem__, full))
        if failing:
            return _countermodel(vocab, head, failing, alphabet, spanned, cls)
    return Valid()


def _countermodel(vocab: tuple[str, ...], head: tuple[Card, ...], failing: int,
                  alphabet: tuple[Card, ...], spanned: int, cls: ModelClass) -> Countermodel:
    """The lowest row of `failing`, after the head labels of its table, realized."""
    row, base = (failing & -failing).bit_length() - 1, len(alphabet)
    labels = []
    for _ in range(spanned):  # the last region's digit is the least significant
        row, digit = divmod(row, base)
        labels.append(alphabet[digit])
    labels.reverse()
    model = realize(vocab, head + tuple(labels), cls)
    if model is None:
        raise RuntimeError(f"the first falsifying labeling is not realized in {cls.value}")
    return Countermodel(model)


@lru_cache(maxsize=None)
def _plan(count: int, three: bool,
          table_rows: int) -> tuple[tuple[Card, ...], int, int, tuple[int, ...], tuple[int, ...]]:
    """The table layout for `count` letters: the alphabet, how many of the
    last regions a table spans (at most `table_rows` rows), the set of all
    rows, and per spanned region the rows where its label is nonempty and
    where it is One.  A table's rows take their digits from the most
    significant down, each the index of a label in the alphabet; the first
    regions' labels are fixed per table, taken in lexicographic order too."""
    alphabet = (Card.ZERO, Card.ONE, Card.MANY) if three else (Card.ZERO, Card.MANY)
    base = len(alphabet)
    spanned = max((t for t in range(1, (1 << count) + 1) if base**t <= table_rows), default=1)
    columns = digit_columns(base, spanned)[::-1]
    nonempty = tuple(reduce(or_, column) for column in columns)
    one = tuple(column[0] if three else 0 for column in columns)
    return alphabet, spanned, (1 << base**spanned) - 1, nonempty, one


@lru_cache(maxsize=None)
def _kept_letters(count: int, three: bool, table_rows: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """A one-table layout's has and single rows per letter position."""
    _, _, _, nonempty, one = _plan(count, three, table_rows)
    return _letter_rows(nonempty, one)


@lru_cache(maxsize=None)
def _kept_class(count: int, three: bool, table_rows: int, cls: ModelClass) -> int:
    """A one-table layout's rows admitted in the class."""
    full = _plan(count, three, table_rows)[2]
    return _class_rows(cls, *_kept_letters(count, three, table_rows), full)


@lru_cache(maxsize=None)
def _kept_atom(count: int, three: bool, table_rows: int, f: Functor, s: int, p: int) -> int:
    """A one-table layout's rows where the atom f(s, p) holds, by letter positions."""
    _, _, full, nonempty, _ = _plan(count, three, table_rows)
    return _atom_rows(f, s, p, nonempty, *_kept_letters(count, three, table_rows), full)


def _tables(layout: tuple[int, bool, int], cls: ModelClass,
            keys: dict[Atom, tuple[Functor, int, int]]) -> Iterator[tuple[tuple[Card, ...], int, dict[Atom, int]]]:
    """Per table of a layout that spans several, in order: its head labels,
    the rows admitted in the class and each atom's rows, from the rows where
    each region's label is nonempty and where it is One."""
    alphabet, spanned, full, spanned_nonempty, spanned_one = _plan(*layout)
    for head in itertools.product(alphabet, repeat=(1 << layout[0]) - spanned):
        nonempty = [*(full if label else 0 for label in head), *spanned_nonempty]
        one = [*(full if label is Card.ONE else 0 for label in head), *spanned_one]
        has, single = _letter_rows(nonempty, one)
        yield head, _class_rows(cls, has, single, full), \
            {atom: _atom_rows(*key, nonempty, has, single, full) for atom, key in keys.items()}


def _letter_rows(nonempty: Sequence[int], one: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per letter position, the rows where some region of the letter is
    nonempty, and where exactly one is and it is One."""
    regions = len(nonempty)
    has, single = [], []
    for j in range(regions.bit_length() - 1):
        # seen: some region of letter j is nonempty; two: at least two are.
        seen = two = ones = 0
        for r in range(regions):
            if r >> j & 1:
                two |= seen & nonempty[r]
                seen |= nonempty[r]
                ones |= one[r]
        has.append(seen)
        single.append(outside(ones, two))
    return tuple(has), tuple(single)


def _class_rows(cls: ModelClass, has: Sequence[int], single: Sequence[int], full: int) -> int:
    """The rows where every letter's denotation is allowed in the class."""
    return reduce(and_, (admitted(cls, rows, one, full) for rows, one in zip(has, single)), full)


def _atom_rows(f: Functor, s: int, p: int, nonempty: Sequence[int], has: Sequence[int],
               single: Sequence[int], full: int) -> int:
    """The rows where the atom f(s, p) holds, by letter positions."""
    empty = full ^ reduce(or_, (nonempty[r] for r in _zone(f, s, p, len(nonempty))), 0)
    return holds(SHAPE[f], empty, has[s], has[p], single[s], full)


@lru_cache(maxsize=None)
def _zone(f: Functor, s: int, p: int, regions: int) -> tuple[int, ...]:
    """The regions that the atom f(s, p) needs empty, by letter positions."""
    return tuple(r for r in range(regions) if SHAPE[f].zone(r >> s & 1, r >> p & 1))


# Brute-force oracle: every denotation assignment into a universe of u
# elements, in truth tables.  Bit (k-1-j)*u + e of assignment i says whether
# element e is in letter j's denotation, so the first letter varies slowest.
# Tables split the digits of i as in decide, the head digits ascending; a
# digit's plane is the set of rows where it is 1, and a head digit's plane is
# all rows or none, by its bit of the table's head.  So what the head digits
# fix is worked out once per call, not once per table: a letter's row sets
# take one of three forms, by how many of its head digits are set, and an
# atom's zone is its part over the elements whose planes are both spanned,
# ORed with the terms of the other elements.  No two elements share a head
# bit, so those terms split into two halves with disjoint head-bit masks.
# Per call, each half maps head & mask to the OR of its terms, the low half's
# ORed with the spanned part, so a table's zone is low[head & low_mask] |
# high[head & high_mask]; an entry is built when a table first reads it.
# Atom values sit in a list by distinct-atom position; equal atoms are one
# interned node, so the fold's leaf finds its position by identity hashing.

ORACLE_MAX_LETTERS = 3
ORACLE_MAX_UNIVERSE = 8


def _oracle_letter(planes: list[int], heads: int, full: int) -> list[tuple[int, int]]:
    """The rows where a letter's denotation has at least one element and
    exactly one, from its spanned planes, for none, one, and two or more of
    its `heads` head digits set."""
    has = two = 0
    for plane in planes:
        two |= has & plane
        has |= plane
    return [(has, has ^ two), (full, full ^ has), (full, 0)][:heads + 1]


class _OracleHalf(dict):
    """`base` ORed with some elements' zone terms, keyed by head & mask, the
    value of those elements' head bits; a term is a table by the head bit of
    the element in the subject, bs, and in the predicate, bp.  A key is built
    when a table first reads it, so a call that stops early builds little."""

    def __init__(self, terms: list[tuple[int, int, list[list[int]]]], head_bits: int, base: int) -> None:
        self.terms, self.base = terms, base
        self.mask = reduce(or_, (1 << bs | 1 << bp for bs, bp, _ in terms), 0) & head_bits

    def __missing__(self, key: int) -> int:
        zone = self.base
        for bs, bp, term in self.terms:
            zone |= term[key >> bs & 1][key >> bp & 1]
        self[key] = zone
        return zone


def oracle_decide(formula: Formula, cls: ModelClass, max_universe: int) -> Verdict:
    """Exhaustive check over every denotation assignment into a fixed universe
    of size max_universe; the first falsifying in-class assignment wins.

    Enumeration is lexicographic over the letter tuple (first letter varies
    slowest) with denotations ordered as little-endian element bitmasks.
    """
    atoms = distinct_atoms(formula)
    vocab = tuple(sorted(atom_letters(atoms)))
    if len(vocab) > ORACLE_MAX_LETTERS:
        raise CapExceeded(f"oracle is limited to {ORACLE_MAX_LETTERS} letters")
    if not 0 <= max_universe <= ORACLE_MAX_UNIVERSE:
        raise CapExceeded(f"oracle universe must be 0 to {ORACLE_MAX_UNIVERSE}, not {max_universe}")
    if max_universe < _UNIVERSE_MINIMUM[cls]:
        return Valid()
    universe, count = max_universe, len(vocab)
    digits = universe * count
    spanned = min(digits, TABLE_ROWS.bit_length() - 1)
    full = (1 << (1 << spanned)) - 1
    # Per digit, the planes it can have and the head bit that picks one: a
    # spanned digit's one plane, and `digits`, a bit no head has; or a head
    # digit's no rows and all rows, and its bit.
    planes = [((plane,), digits) for (plane,) in digit_columns(2, spanned)] + \
        [((0, full), bit) for bit in range(digits - spanned)]
    own = [planes[(count - 1 - j) * universe:(count - j) * universe] for j in range(count)]
    masks = [sum(1 << bit for _, bit in elements if bit < digits) for elements in own]
    summaries = [_oracle_letter([choices[0] for choices, bit in elements if bit == digits],
                                mask.bit_count(), full) for elements, mask in zip(own, masks)]
    allowed = [[admitted(cls, has, single, full) for has, single in summary] for summary in summaries]
    # Letters without head digits pass the class filter on the same rows in every table.
    settled = reduce(and_, (rows[0] for rows, mask in zip(allowed, masks) if not mask), full)
    moving = [j for j, mask in enumerate(masks) if mask]
    head_bits = (1 << digits - spanned) - 1
    index = {v: j for j, v in enumerate(vocab)}
    # Each distinct atom's position, in order of first occurrence.
    position = {atom: k for k, atom in enumerate(atoms)}
    values = [0] * len(position)

    def leaf(atom: Atom) -> int:
        return values[position[atom]]

    fixed, varying = [], []
    for atom, k in position.items():
        # ex(S) reads only S, so S stands in for the predicate it lacks.
        shape, s, p = SHAPE[atom.functor], index[atom.subject], index[atom.predicate or atom.subject]
        if s == p:
            # Each zone is the letter or nothing, so one row set stands for its planes.
            fixed.append((k, s, [holds(shape, full ^ shape.zone(has, has), has, has, single, full)
                                 for has, single in summaries[s]]))
            continue
        zone, terms = 0, []
        for (subject, bs), (predicate, bp) in zip(own[s], own[p]):
            if bs == bp == digits:
                zone |= shape.zone(subject[0], predicate[0])
            else:
                terms.append((bs, bp, [[shape.zone(x, y) for y in predicate] for x in subject]))
        if terms:
            half = len(terms) // 2
            low, high = _OracleHalf(terms[:half], head_bits, zone), _OracleHalf(terms[half:], head_bits, 0)
            varying.append((k, shape, s, p, low.mask, low, high.mask, high))
        else:
            (has_s, single_s), (has_p, _) = summaries[s][0], summaries[p][0]
            fixed.append((k, s, [holds(shape, full ^ zone, has_s, has_p, single_s, full)]))
    for head in range(head_bits + 1):
        picks = [min((head & mask).bit_count(), 2) for mask in masks]
        admissible = reduce(and_, (allowed[j][picks[j]] for j in moving), settled)
        for k, s, by_pick in fixed:
            values[k] = by_pick[picks[s]]
        for k, shape, s, p, low_mask, low, high_mask, high in varying:
            zone = low[head & low_mask] | high[head & high_mask]
            (has_s, single_s), (has_p, _) = summaries[s][picks[s]], summaries[p][picks[p]]
            values[k] = holds(shape, full ^ zone, has_s, has_p, single_s, full)
        failing = admissible & (full ^ truth(formula, leaf, full))
        if failing:
            first = (head << spanned) | ((failing & -failing).bit_length() - 1)
            elements = [f"u{e}" for e in range(universe)]
            model = Model(frozenset(elements), {
                letter: frozenset(x for e, x in enumerate(elements)
                                  if first >> (count - 1 - j) * universe + e & 1)
                for j, letter in enumerate(vocab)})
            if not (in_class(model, cls, vocab) and not evaluate(model, formula)):
                raise RuntimeError(f"the oracle countermodel fails its re-check in {cls.value}")
            return Countermodel(model)
    return Valid()
