"""Finite set-theoretic models and truth evaluation.

A model is a finite universe plus a denotation map from name letters to
subsets of the universe.  Letters absent from the map denote the empty set,
so a model only ever carries the finite vocabulary in play.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
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


def atom_true(model: Model, atom: Atom) -> bool:
    ds = model.of(atom.subject)
    if atom.functor is Functor.EX:
        return bool(ds)
    dp = model.of(atom.predicate)
    f = atom.functor
    if f is Functor.A:
        return ds <= dp
    if f is Functor.I:
        return bool(ds & dp)
    if f is Functor.E:
        return not ds & dp
    if f is Functor.O:
        return bool(ds - dp)
    if f is Functor.KA:
        return bool(ds) and ds <= dp
    if f is Functor.KE:
        return bool(ds) and not ds & dp
    if f is Functor.KKE:
        return bool(ds) and bool(dp) and not ds & dp
    if f is Functor.CEQ:
        return ds == dp
    if f is Functor.DEQ:
        return bool(ds) and ds == dp
    if f is Functor.OT:
        return not (bool(ds) and ds <= dp)
    if f is Functor.EPS:
        return len(ds) == 1 and ds <= dp
    if f is Functor.NEPS:
        return len(ds) == 1 and not ds & dp
    if f is Functor.IDEQ:
        return len(ds) == 1 and ds == dp
    raise AssertionError(f"unhandled functor {f}")


def evaluate(model: Model, formula: Formula) -> bool:
    """Truth of a formula in a model; connectives are classical."""
    return bool(truth(formula, partial(atom_true, model)))


def in_class(model: Model, cls: ModelClass, vocab: Iterable[str]) -> bool:
    """Class membership, checked over the supplied vocabulary only."""
    if cls is ModelClass.ALL:
        return True
    if cls is ModelClass.TRADITIONAL:
        return bool(model.universe) and all(len(model.of(v)) >= 1 for v in vocab)
    if cls is ModelClass.POLYREFERENTIAL:
        return len(model.universe) >= 2 and all(len(model.of(v)) >= 2 for v in vocab)
    if cls is ModelClass.NON_MONOREFERENTIAL:
        return len(model.universe) >= 2 and all(len(model.of(v)) != 1 for v in vocab)
    raise AssertionError(cls)


_UNIVERSE_MINIMUM = {
    ModelClass.ALL: 0,
    ModelClass.TRADITIONAL: 1,
    ModelClass.POLYREFERENTIAL: 2,
    ModelClass.NON_MONOREFERENTIAL: 2,
}


def random_model(seed: int, vocab: Iterable[str], cls: ModelClass, max_universe: int) -> Model:
    """A pseudorandom model of the given class, deterministic in the seed."""
    vocab = sorted(set(vocab))
    minimum = _UNIVERSE_MINIMUM[cls]
    if max_universe < minimum:
        raise ValueError(f"{cls.value} models need a universe of at least {minimum}")
    if cls is ModelClass.POLYREFERENTIAL and vocab and max_universe < 2:
        raise ValueError("polyreferential denotations need at least two elements")
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
    assert in_class(model, cls, vocab)
    return model
