"""The functor ladder and class branches that ``semantics.SHAPE`` and
``semantics.admitted`` replaced, kept as the reference they are compared
against: one branch per functor over Python sets, one per model class."""

from functools import partial
from typing import Iterable

from namecalc.core import Atom, Formula, Functor, truth
from namecalc.semantics import Model, ModelClass


def reference_atom_true(model: Model, atom: Atom) -> bool:
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


def reference_evaluate(model: Model, formula: Formula) -> bool:
    return bool(truth(formula, partial(reference_atom_true, model)))


def reference_in_class(model: Model, cls: ModelClass, vocab: Iterable[str]) -> bool:
    if cls is ModelClass.ALL:
        return True
    if cls is ModelClass.TRADITIONAL:
        return bool(model.universe) and all(len(model.of(v)) >= 1 for v in vocab)
    if cls is ModelClass.POLYREFERENTIAL:
        return len(model.universe) >= 2 and all(len(model.of(v)) >= 2 for v in vocab)
    if cls is ModelClass.NON_MONOREFERENTIAL:
        return len(model.universe) >= 2 and all(len(model.of(v)) != 1 for v in vocab)
    raise AssertionError(cls)
