import itertools

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from namecalc.core import Atom, Functor
from namecalc.parser import parse_formula
from namecalc.semantics import (
    SHAPE,
    Model,
    ModelClass,
    atom_true,
    evaluate,
    in_class,
    make_model,
    random_model,
)

from conftest import formulas_st
from semantics_reference import reference_atom_true, reference_in_class

PAIRS = [("S", "P"), ("P", "S"), ("S", "S"), ("P", "P")]


def models_st(universe_size=3, pool=("S", "P", "M")):
    universe = [f"u{k}" for k in range(universe_size)]
    return st.builds(
        lambda d: make_model(universe, d),
        st.dictionaries(st.sampled_from(pool), st.sets(st.sampled_from(universe)), max_size=3),
    )


def test_empty_names_make_a_true_and_i_false():
    m = make_model(["u"], {"S": [], "P": []})
    assert evaluate(m, parse_formula("a(S,P)"))
    assert not evaluate(m, parse_formula("i(S,S)"))


def test_singular_copula_needs_a_singleton():
    m = make_model(["u", "v"], {"S": ["u"]})
    assert evaluate(m, parse_formula("eps(S,S)"))
    m2 = make_model(["u", "v"], {"S": ["u", "v"]})
    assert not evaluate(m2, parse_formula("eps(S,S)"))


def test_strong_exclusions_on_disjoint_singletons():
    m = make_model(["u", "v"], {"S": ["u"], "P": ["v"]})
    assert evaluate(m, parse_formula("kke(S,P)"))
    assert evaluate(m, parse_formula("ke(P,S)"))


DEFINITION_EQUATIONS = [
    ("e(S,P)", "~i(S,P)"),
    ("o(S,P)", "~a(S,P)"),
    ("ex(S)", "i(S,S)"),
    ("ka(S,P)", "ex(S) & a(S,P)"),
    ("ot(S,P)", "~ka(S,P)"),
    ("ceq(S,P)", "a(S,P) & a(P,S)"),
    ("deq(S,P)", "ka(S,P) & ka(P,S)"),
    ("ke(S,P)", "ex(S) & e(S,P)"),
    ("kke(S,P)", "ex(S) & ex(P) & e(S,P)"),
    ("neps(S,P)", "eps(S,S) & ~eps(S,P)"),
    ("ideq(S,P)", "eps(S,P) & eps(P,S)"),
]


@settings(max_examples=300)
@given(models_st())
def test_definition_coherence(model):
    for left, right in DEFINITION_EQUATIONS:
        for s, p in PAIRS:
            subst = {"S": s, "P": p}
            lhs = parse_formula(left.replace("S", s).replace("P", p))
            rhs = parse_formula(right.replace("S", s).replace("P", p))
            assert evaluate(model, lhs) == evaluate(model, rhs), (left, s, p)


@settings(max_examples=300)
@given(models_st(), formulas_st(pool=("S", "P", "M")))
def test_padding_invariance(model, formula):
    padded = Model(model.universe | {"pad0", "pad1"}, model.denotation)
    assert evaluate(model, formula) == evaluate(padded, formula)


@settings(max_examples=300)
@given(models_st())
def test_strong_weak_collapse_on_nonempty_names(model):
    vocab = ("S", "P")
    if not all(model.of(v) for v in vocab):
        return
    for s, p in PAIRS:
        a = evaluate(model, Atom(Functor.A, s, p))
        ka = evaluate(model, Atom(Functor.KA, s, p))
        e = evaluate(model, Atom(Functor.E, s, p))
        ke = evaluate(model, Atom(Functor.KE, s, p))
        kke = evaluate(model, Atom(Functor.KKE, s, p))
        assert a == ka and e == ke == kke


def test_in_class_examples():
    both = make_model(["u0", "u1"], {"S": ["u0", "u1"]})
    assert in_class(both, ModelClass.POLYREFERENTIAL, ["S"])
    empty_s = make_model(["u0", "u1"], {"S": []})
    assert in_class(empty_s, ModelClass.NON_MONOREFERENTIAL, ["S"])
    assert not in_class(empty_s, ModelClass.TRADITIONAL, ["S"])
    single = make_model(["u0", "u1"], {"S": ["u0"]})
    assert in_class(single, ModelClass.ALL, ["S"])
    assert in_class(single, ModelClass.TRADITIONAL, ["S"])
    assert not in_class(single, ModelClass.POLYREFERENTIAL, ["S"])
    assert not in_class(single, ModelClass.NON_MONOREFERENTIAL, ["S"])


def test_empty_universe_is_admitted_in_the_all_class():
    empty = make_model([], {})
    assert in_class(empty, ModelClass.ALL, ["S"])
    assert not in_class(empty, ModelClass.TRADITIONAL, ["S"])


def test_random_model_deterministic():
    first = random_model(1, ["S", "P"], ModelClass.ALL, 4)
    second = random_model(1, ["S", "P"], ModelClass.ALL, 4)
    assert first == second


@pytest.mark.parametrize("cls", list(ModelClass))
def test_random_model_lands_in_class(cls):
    for seed in range(101):
        model = random_model(seed, ["S"], cls, 4)
        assert in_class(model, cls, ["S"])
        if cls is ModelClass.POLYREFERENTIAL:
            assert len(model.of("S")) >= 2


def test_random_model_infeasible_request():
    with pytest.raises(ValueError):
        random_model(0, ["S"], ModelClass.POLYREFERENTIAL, 1)


def test_model_rejects_stray_denotation():
    with pytest.raises(ValueError):
        make_model(["u0"], {"S": ["u1"]})


def _subsets(universe):
    return [frozenset(c) for k in range(len(universe) + 1) for c in itertools.combinations(universe, k)]


def test_the_table_covers_every_functor():
    assert set(SHAPE) == set(Functor)


def test_atom_true_matches_the_reference_ladder_exhaustively():
    # Six elements give every count 0, 1 and >= 2 in each zone of S and P.
    universe = [f"u{k}" for k in range(6)]
    for ds, dp in itertools.product(_subsets(universe), repeat=2):
        model = make_model(universe, {"S": ds, "P": dp})
        for functor in Functor:
            atom = Atom(functor, "S") if functor.arity == 1 else Atom(functor, "S", "P")
            assert atom_true(model, atom) == reference_atom_true(model, atom), (functor, ds, dp)


def test_in_class_matches_the_reference_exhaustively():
    pool = ("S", "P", "M")  # M is never assigned, so it denotes the empty set
    vocabs = [vocab for k in range(len(pool) + 1) for vocab in itertools.combinations(pool, k)]
    for size in range(4):
        universe = [f"u{k}" for k in range(size)]
        for ds, dp in itertools.product(_subsets(universe), repeat=2):
            model = make_model(universe, {"S": ds, "P": dp})
            for cls, vocab in itertools.product(ModelClass, vocabs):
                assert in_class(model, cls, vocab) == reference_in_class(model, cls, vocab), \
                    (cls, vocab, ds, dp)
