"""Two references for ``oracle_decide``.

``reference_oracle`` is the brute-force oracle one assignment at a time:
every denotation assignment into a universe of u elements in the documented
order (``itertools.product`` over the sorted letters, so the first letter
varies slowest, each denotation taken as a little-endian element bitmask),
each built as a ``Model`` and checked with the frozen set semantics of
``semantics_reference``, so that it does not read the functor table the
table oracle reads.

``table_oracle`` is the table oracle frozen as it stood before its head
digits were folded once per call (see below)."""

import importlib
import itertools
from functools import lru_cache, reduce
from operator import and_, or_
from typing import Optional

from namecalc.core import Formula, Functor, digit_columns, distinct_atoms, letters, truth
from namecalc.decide import CapExceeded, Countermodel, Valid, Verdict
from namecalc.semantics import (
    _UNIVERSE_MINIMUM, SHAPE, Model, ModelClass, admitted, evaluate, holds, in_class,
)
from semantics_reference import reference_evaluate, reference_in_class


def reference_oracle(formula: Formula, cls: ModelClass, universe: int) -> tuple[int, Optional[Model]]:
    """The index of the first in-class assignment that falsifies the formula,
    and that assignment as a model; (-1, None) when there is none."""
    vocab = sorted(letters(formula))
    elements = [f"u{e}" for e in range(universe)]
    subsets = [frozenset(x for e, x in enumerate(elements) if mask >> e & 1)
               for mask in range(1 << universe)]
    for row, denotations in enumerate(itertools.product(subsets, repeat=len(vocab))):
        model = Model(frozenset(elements), dict(zip(vocab, denotations)))
        if reference_in_class(model, cls, vocab) and not reference_evaluate(model, formula):
            return row, model
    return -1, None


# The table oracle as it stood before its head digits were folded once per
# call: per table, `_oracle_letter` over every letter whose element planes a
# head digit touches and `_oracle_atom` over every atom on such a letter, with
# what no head digit touches cached across calls in `_oracle_fixed`.  The
# differential tests compare `oracle_decide` with it byte for byte.  It reads
# `TABLE_ROWS` from `namecalc.decide` at call time, so a test that patches it
# there splits both oracles' tables the same way.

decide_module = importlib.import_module("namecalc.decide")
ORACLE_MAX_LETTERS = decide_module.ORACLE_MAX_LETTERS
ORACLE_MAX_UNIVERSE = decide_module.ORACLE_MAX_UNIVERSE


def _oracle_letter(planes: tuple[int, ...]) -> tuple[tuple[int, ...], int, int]:
    """A letter's element planes, and the rows where its denotation has at
    least one element and exactly one."""
    has = two = 0
    for plane in planes:
        two |= has & plane
        has |= plane
    return planes, has, has ^ two


@lru_cache(maxsize=None)
def _oracle_fixed(universe: int, count: int, spanned: int) -> tuple[tuple[int, ...], tuple, dict]:
    """What no head digit touches, the same in every table: the planes of the
    spanned digits; per letter, `_oracle_letter` if no head digit is the
    letter's, else None; and `_oracle_atom` of each functor over such letters.
    At most 3 letters and 126 atoms of at most 2^16 bits, about 3 MB over
    every key."""
    planes = tuple(plane for (plane,) in digit_columns(2, spanned))
    full = (1 << (1 << spanned)) - 1
    fixed = tuple(_oracle_letter(planes[(count - 1 - j) * universe:(count - j) * universe])
                  if (count - j) * universe <= spanned else None for j in range(count))
    return planes, fixed, {(f, s, p): _oracle_atom(f, fixed[s], fixed[p], full) for f in Functor
                           for s in range(count) for p in range(count) if fixed[s] and fixed[p]}


def _oracle_atom(f: Functor, subject: tuple, predicate: tuple, full: int) -> int:
    """The rows where the atom holds, from its letters' `_oracle_letter`s: the
    zone is empty where no element lies in it.  With one letter on both sides
    each zone is the letter or nothing, so one row set stands for its planes."""
    shape = SHAPE[f]
    if subject is predicate:
        empty = full ^ shape.zone(subject[1], subject[1])
    else:
        empty = full ^ reduce(or_, map(shape.zone, subject[0], predicate[0]), 0)
    return holds(shape, empty, subject[1], predicate[1], subject[2], full)


def table_oracle(formula: Formula, cls: ModelClass, max_universe: int) -> Verdict:
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
    if max_universe < _UNIVERSE_MINIMUM[cls]:
        return Valid()
    universe, count = max_universe, len(vocab)
    digits = universe * count
    spanned = min(digits, decide_module.TABLE_ROWS.bit_length() - 1)
    full = (1 << (1 << spanned)) - 1
    columns, fixed, fixed_atoms = _oracle_fixed(universe, count, spanned)
    index = {v: j for j, v in enumerate(vocab)}
    # ex(S) reads only S, so S stands in for the predicate it lacks.
    keys = {atom: (atom.functor, index[atom.subject], index[atom.predicate or atom.subject])
            for atom in distinct_atoms(formula)}
    for head in range(1 << digits - spanned):
        planes = columns + tuple(full if head >> d & 1 else 0 for d in range(digits - spanned))
        summaries = [fixed[j] or _oracle_letter(planes[(count - 1 - j) * universe:(count - j) * universe])
                     for j in range(count)]
        admissible = reduce(and_, (admitted(cls, has, single, full) for _, has, single in summaries), full)
        values = {atom: fixed_atoms[key] if key in fixed_atoms
                  else _oracle_atom(key[0], summaries[key[1]], summaries[key[2]], full)
                  for atom, key in keys.items()}
        failing = admissible & (full ^ truth(formula, values.__getitem__, full))
        if failing:
            first = (head << spanned) | ((failing & -failing).bit_length() - 1)
            elements = [f"u{e}" for e in range(universe)]
            model = Model(frozenset(elements), {
                letter: frozenset(x for e, x in enumerate(elements)
                                  if first >> (count - 1 - j) * universe + e & 1)
                for j, letter in enumerate(vocab)})
            assert in_class(model, cls, vocab) and not evaluate(model, formula)
            return Countermodel(model)
    return Valid()
