"""Finite set-theoretic models, the functor table and truth evaluation.

A model is a finite universe plus a denotation map from name letters to
subsets of the universe.  Letters absent from the map denote the empty set,
so a model only ever carries the finite vocabulary in play.

``SHAPE`` holds each functor's truth condition and ``admitted`` each model
class's, once, in ``|``, ``&`` and ``^`` only: sets and bools here, region
bits and truth tables of rows in ``decide`` and its oracle.
"""

from __future__ import annotations

import random
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from operator import and_, xor
from typing import Iterable, Mapping

from .core import Atom, Formula, Functor, truth


@dataclass(frozen=True)
class Model:
    universe: frozenset[str]
    denotation: Mapping[str, frozenset[str]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for letter, extension in self.denotation.items():
            if not extension <= self.universe:
                raise ValueError(f"denotation of {letter} is not inside the universe")

    def of(self, letter: str) -> frozenset[str]:
        return self.denotation.get(letter, frozenset())


def make_model(universe: Iterable[str], denotation: Mapping[str, Iterable[str]]) -> Model:
    return Model(frozenset(universe), {k: frozenset(v) for k, v in denotation.items()})


class ModelClass(Enum):
    ALL = "all"
    TRADITIONAL = "traditional"
    POLYREFERENTIAL = "polyreferential"
    NON_MONOREFERENTIAL = "nonmonoreferential"

    # Members hash by identity, in C, as ``Functor``'s do: classes key
    # ``_UNIVERSE_MINIMUM`` and ``decide``'s lru_cache entries on every call.
    # No set of classes is iterated into output.
    __hash__ = object.__hash__


# The members as module globals: ``ModelClass.ALL`` goes through ``EnumType``'s
# Python-level ``__getattr__`` on every read, and ``admitted`` runs per letter.
_ALL, _TRADITIONAL, _POLYREFERENTIAL = ModelClass.ALL, ModelClass.TRADITIONAL, ModelClass.POLYREFERENTIAL


_UNIVERSE_MINIMUM = {
    ModelClass.ALL: 0,
    ModelClass.TRADITIONAL: 1,
    ModelClass.POLYREFERENTIAL: 2,
    ModelClass.NON_MONOREFERENTIAL: 2,
}


def outside(s, p):
    """s minus p, for frozensets, region bits and row-table ints alike."""
    return (s | p) ^ p  # no negative int


# What an atom can need besides its empty zone.
NOTHING, SUBJECT, BOTH, SINGLE = "nothing", "S nonempty", "S and P nonempty", "S a singleton"

# A functor's truth condition: the zone of S and P that must be empty (S
# outside P, S inside P, or S and P apart), whether the atom is the negation
# of that, and what else it needs.  ex reads its subject as P too.
Shape = namedtuple("Shape", "zone negated need")
SHAPE = {
    Functor.A: Shape(outside, False, NOTHING),
    Functor.O: Shape(outside, True, NOTHING),
    Functor.KA: Shape(outside, False, SUBJECT),
    Functor.OT: Shape(outside, True, SUBJECT),
    Functor.EPS: Shape(outside, False, SINGLE),
    Functor.EX: Shape(outside, False, SUBJECT),
    Functor.E: Shape(and_, False, NOTHING),
    Functor.I: Shape(and_, True, NOTHING),
    Functor.KE: Shape(and_, False, SUBJECT),
    Functor.KKE: Shape(and_, False, BOTH),
    Functor.NEPS: Shape(and_, False, SINGLE),
    Functor.CEQ: Shape(xor, False, NOTHING),
    Functor.DEQ: Shape(xor, False, SUBJECT),
    Functor.IDEQ: Shape(xor, False, SINGLE),
}


def holds(shape: Shape, empty, has_s, has_p, single_s, full):
    """Where an atom holds, from where its zone is empty, where S and P have
    an element and where S has exactly one: bools with full True, or sets of
    rows with full the set of all rows."""
    _, negated, need = shape
    if need is SUBJECT:
        empty &= has_s
    elif need is BOTH:
        empty &= has_s & has_p
    elif need is SINGLE:
        empty &= single_s
    return full ^ empty if negated else empty


def admitted(cls: ModelClass, has, single, full):
    """Where one letter's denotation is allowed in the class, from where it
    has an element and where it has exactly one, as in ``holds``."""
    if cls is _ALL:
        return full
    if cls is _TRADITIONAL:
        return has
    if cls is _POLYREFERENTIAL:
        return has ^ single  # at least two
    return full ^ single


def shape_true(shape: Shape, ds: frozenset[str], dp: frozenset[str]) -> bool:
    """Truth of a functor's atom whose subject denotes ds and predicate dp."""
    return holds(shape, not shape.zone(ds, dp), bool(ds), bool(dp), len(ds) == 1, True)


def atom_true(model: Model, atom: Atom) -> bool:
    return shape_true(SHAPE[atom.functor], model.of(atom.subject), model.of(atom.predicate or atom.subject))


def evaluate(model: Model, formula: Formula) -> bool:
    """Truth of a formula in a model; connectives are classical."""
    return bool(truth(formula, partial(atom_true, model)))


def in_class(model: Model, cls: ModelClass, vocab: Iterable[str]) -> bool:
    """Class membership, checked over the supplied vocabulary only."""
    if len(model.universe) < _UNIVERSE_MINIMUM[cls]:
        return False
    for letter in vocab:
        d = model.of(letter)
        if not admitted(cls, bool(d), len(d) == 1, True):
            return False
    return True


def random_model(seed: int, vocab: Iterable[str], cls: ModelClass, max_universe: int) -> Model:
    """A pseudorandom model of the given class, deterministic in the seed."""
    vocab = sorted(set(vocab))
    minimum = _UNIVERSE_MINIMUM[cls]
    if max_universe < minimum:
        raise ValueError(f"{cls.value} models need a universe of at least {minimum}")
    rng = random.Random(seed)
    size = rng.randint(minimum, max_universe)
    universe = [f"u{k}" for k in range(size)]
    denotation: dict[str, frozenset[str]] = {}
    for letter in vocab:
        if cls is ModelClass.ALL:
            picked = [u for u in universe if rng.random() < 0.5]
        elif cls is ModelClass.TRADITIONAL:
            count = rng.randint(1, size)
            picked = rng.sample(universe, count)
        elif cls is ModelClass.POLYREFERENTIAL:
            count = rng.randint(2, size)
            picked = rng.sample(universe, count)
        else:  # NON_MONOREFERENTIAL
            count = rng.choice([0, rng.randint(2, size)])
            picked = rng.sample(universe, count)
        denotation[letter] = frozenset(picked)
    model = Model(frozenset(universe), denotation)
    if not in_class(model, cls, vocab):
        raise RuntimeError(f"the random model is not in {cls.value}")
    return model
