"""The per-labeling enumeration that ``decide``'s truth tables replaced, kept
as the reference they are compared against: one labeling at a time in
``itertools.product`` order, atoms compiled to predicates over (labels,
sizes), a short-circuiting scalar fold, and its own realization."""

import itertools
from typing import Optional

from namecalc.core import Atom, Formula, Functor, Neg, distinct_atoms, letters
from namecalc.decide import Card, needs_three_labels
from namecalc.semantics import _UNIVERSE_MINIMUM, Model, ModelClass


def _truth(formula: Formula, leaf) -> bool:
    if isinstance(formula, Atom):
        return leaf(formula)
    if isinstance(formula, Neg):
        return not _truth(formula.operand, leaf)
    left = _truth(formula.left, leaf)
    op = formula.op
    if op == "&":
        return left and _truth(formula.right, leaf)
    if op == "|":
        return left or _truth(formula.right, leaf)
    if op == "->":
        return not left or _truth(formula.right, leaf)
    return left == _truth(formula.right, leaf)


def _letter_sizes(vocab, labels, many_size: int = 2) -> list[int]:
    weights = [0, 1, many_size]
    sizes = [0] * len(vocab)
    for region, label in enumerate(labels):
        w = weights[label]
        if not w:
            continue
        for j in range(len(vocab)):
            if region >> j & 1:
                sizes[j] += w
    return sizes


def _class_admits(vocab, labels, cls: ModelClass) -> bool:
    if cls is ModelClass.ALL:
        return True
    sizes = _letter_sizes(vocab, labels)
    if cls is ModelClass.TRADITIONAL:
        return all(s >= 1 for s in sizes)
    if cls is ModelClass.POLYREFERENTIAL:
        return all(s >= 2 for s in sizes)
    return all(s == 0 or s >= 2 for s in sizes)


def reference_realize(vocab, labels, cls: ModelClass, many_size: int = 2) -> Optional[Model]:
    if not _class_admits(vocab, labels, cls):
        return None
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
    pad = 0
    while len(universe) < _UNIVERSE_MINIMUM[cls]:
        universe.append(f"pad{pad}")
        pad += 1
    denotation = {v: frozenset(extents[j]) for j, v in enumerate(vocab)}
    return Model(frozenset(universe), denotation)


def _compile_atom(atom: Atom, index: dict[str, int], regions: int):
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


def reference_decide(formula: Formula, cls: ModelClass) -> Optional[Model]:
    """None when valid, else the first countermodel in labeling order."""
    vocab = tuple(sorted(letters(formula)))
    three = needs_three_labels(formula)
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
        if not _truth(formula, leaf):
            model = reference_realize(vocab, labels, cls)
            assert model is not None
            return model
    return None
