"""The hand-written basis rewriters that ``proof.expand_definitions`` replaced,
kept as the reference the derived rewriter is compared against."""

from namecalc.core import Atom, Bin, Formula, Functor, Neg, conj, disj, neg
from namecalc.proof import Basis


def _a(s, p):
    return Atom(Functor.A, s, p)


def _i(s, p):
    return Atom(Functor.I, s, p)


def _ka(s, p):
    return Atom(Functor.KA, s, p)


def _eps(s, p):
    return Atom(Functor.EPS, s, p)


def _ai_atom(atom: Atom) -> Formula:
    s, p = atom.subject, atom.predicate
    f = atom.functor
    if f in (Functor.A, Functor.I, Functor.EPS):
        return atom
    if f is Functor.E:
        return neg(_i(s, p))
    if f is Functor.O:
        return neg(_a(s, p))
    if f is Functor.EX:
        return _i(s, s)
    if f is Functor.KA:
        return conj(_i(s, s), _a(s, p))
    if f is Functor.OT:
        return neg(conj(_i(s, s), _a(s, p)))
    if f is Functor.KE:
        return conj(_i(s, s), neg(_i(s, p)))
    if f is Functor.KKE:
        return conj(_i(s, s), _i(p, p), neg(_i(s, p)))
    if f is Functor.CEQ:
        return conj(_a(s, p), _a(p, s))
    if f is Functor.DEQ:
        return conj(conj(_i(s, s), _a(s, p)), conj(_i(p, p), _a(p, s)))
    if f is Functor.NEPS:
        return conj(_eps(s, s), neg(_eps(s, p)))
    if f is Functor.IDEQ:
        return conj(_eps(s, p), _eps(p, s))
    raise AssertionError(f)


def _weak_a(s, p):
    # a through the strong functor
    return disj(neg(_ka(s, s)), _ka(s, p))


def _kai_atom(atom: Atom) -> Formula:
    s, p = atom.subject, atom.predicate
    f = atom.functor
    if f in (Functor.KA, Functor.I, Functor.EPS):
        return atom
    if f is Functor.A:
        return _weak_a(s, p)
    if f is Functor.E:
        return neg(_i(s, p))
    if f is Functor.O:
        return neg(_weak_a(s, p))
    if f is Functor.EX:
        return _i(s, s)
    if f is Functor.OT:
        return neg(_ka(s, p))
    if f is Functor.KE:
        return conj(_i(s, s), neg(_i(s, p)))
    if f is Functor.KKE:
        return conj(_i(s, s), _i(p, p), neg(_i(s, p)))
    if f is Functor.CEQ:
        return conj(_weak_a(s, p), _weak_a(p, s))
    if f is Functor.DEQ:
        return conj(_ka(s, p), _ka(p, s))
    if f is Functor.NEPS:
        return conj(_eps(s, s), neg(_eps(s, p)))
    if f is Functor.IDEQ:
        return conj(_eps(s, p), _eps(p, s))
    raise AssertionError(f)


def _full_atom(atom: Atom) -> Formula:
    if atom.functor in (Functor.A, Functor.I, Functor.E, Functor.O, Functor.EPS):
        return atom
    s, p = atom.subject, atom.predicate
    f = atom.functor
    if f is Functor.EX:
        return _i(s, s)
    if f is Functor.KA:
        return conj(_i(s, s), _a(s, p))
    if f is Functor.OT:
        return neg(conj(_i(s, s), _a(s, p)))
    if f is Functor.KE:
        return conj(_i(s, s), Atom(Functor.E, s, p))
    if f is Functor.KKE:
        return conj(_i(s, s), _i(p, p), Atom(Functor.E, s, p))
    return _ai_atom(atom)


_EXPANDERS = {
    Basis.AI: _ai_atom,
    Basis.KAI: _kai_atom,
    Basis.AIEO_FULL: _full_atom,
}


def reference_expand(formula: Formula, basis: Basis) -> Formula:
    expander = _EXPANDERS[basis]
    if isinstance(formula, Atom):
        return expander(formula)
    if isinstance(formula, Neg):
        return Neg(reference_expand(formula.operand, basis))
    return Bin(
        formula.op,
        reference_expand(formula.left, basis),
        reference_expand(formula.right, basis),
    )
