import gc
import importlib
import itertools
import random
import sys
import tracemalloc
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from conftest import formulas_st
from decide_reference import reference_decide, reference_realize
from oracle_reference import reference_oracle, table_oracle
from namecalc.core import Atom, Bin, Functor, Neg, conj, digit_columns, letters
from namecalc.corpus import corpus_entries
from namecalc.decide import (
    Card,
    CapExceeded,
    Countermodel,
    Valid,
    decide,
    needs_three_labels,
    oracle_decide,
    realize,
)
from namecalc.parser import format_model, parse_formula
from namecalc.semantics import ModelClass, evaluate, in_class

# The package re-exports the function decide under the module's own name.
decide_module = importlib.import_module("namecalc.decide")


def is_valid(verdict):
    return isinstance(verdict, Valid)


def test_identity_particular_splits_the_classes():
    f = parse_formula("i(S,S)")
    assert is_valid(decide(f, ModelClass.TRADITIONAL))
    verdict = decide(f, ModelClass.ALL)
    assert isinstance(verdict, Countermodel)
    assert verdict.model.of("S") == frozenset()


def test_subordination_splits_the_classes():
    f = parse_formula("a(S,P) -> i(S,P)")
    assert isinstance(decide(f, ModelClass.ALL), Countermodel)
    assert is_valid(decide(f, ModelClass.TRADITIONAL))


def test_strong_reflexive_from_any_particular():
    assert is_valid(decide(parse_formula("i(S,P) -> ka(S,S)"), ModelClass.ALL))


def test_singular_boundary_formula():
    f = parse_formula("eps(S,S) -> eps(M,M)")
    assert is_valid(decide(f, ModelClass.NON_MONOREFERENTIAL))
    assert isinstance(decide(f, ModelClass.ALL), Countermodel)


def test_realize_singleton_region():
    labels = (Card.ZERO, Card.ONE)
    model = realize(("S",), labels, ModelClass.ALL)
    assert len(model.of("S")) == 1
    assert realize(("S",), labels, ModelClass.POLYREFERENTIAL) is None


def test_realize_empty_region():
    labels = (Card.ZERO, Card.ZERO)
    assert realize(("S",), labels, ModelClass.TRADITIONAL) is None
    model = realize(("S",), labels, ModelClass.NON_MONOREFERENTIAL)
    assert model is not None
    assert model.of("S") == frozenset()
    assert len(model.universe) >= 2  # padded to the class minimum


def test_realize_all_many_everywhere():
    labels = (Card.MANY,) * 4
    for cls in ModelClass:
        model = realize(("S", "P"), labels, cls)
        assert model is not None
        assert in_class(model, cls, ["S", "P"])


def test_realize_needs_one_label_per_region():
    with pytest.raises(ValueError):
        realize(("S", "P"), (Card.MANY,) * 2, ModelClass.ALL)


def _realized_text(model):
    return None if model is None else format_model(model)


@pytest.mark.parametrize("alphabet", [(Card.ZERO, Card.MANY), tuple(Card)], ids=["two", "three"])
@pytest.mark.parametrize("vocab", [("S",), ("P", "S")])
def test_realize_matches_the_reference_on_every_labeling(vocab, alphabet):
    for labels in itertools.product(alphabet, repeat=1 << len(vocab)):
        for cls in ModelClass:
            assert _realized_text(realize(vocab, labels, cls)) == \
                _realized_text(reference_realize(vocab, labels, cls, many_size=2)), (labels, cls)


def test_realize_matches_the_reference_on_sampled_labelings():
    rng = random.Random(20261022)
    for vocab in [("M", "P", "S"), ("M", "P", "Q", "S")]:
        for _ in range(300):
            labels = _random_labels(rng, vocab)
            if rng.random() < 0.5:  # two labels only, as a two-label layout realizes
                labels = tuple(Card.MANY if label else Card.ZERO for label in labels)
            cls = rng.choice(list(ModelClass))
            assert _realized_text(realize(vocab, labels, cls)) == \
                _realized_text(reference_realize(vocab, labels, cls, many_size=2)), (vocab, labels, cls)


@pytest.mark.parametrize("vocab", [(), ("M", "P", "Q", "R", "S")])
def test_realize_takes_any_vocabulary_size(vocab):
    rng = random.Random(len(vocab))
    for cls in ModelClass:
        labels = _random_labels(rng, vocab)
        assert _realized_text(realize(vocab, labels, cls)) == \
            _realized_text(reference_realize(vocab, labels, cls, many_size=2)), cls
    regions = 1 << len(vocab)
    model = realize(vocab, (Card.ONE,) * regions, ModelClass.TRADITIONAL)
    assert len(model.universe) == regions
    assert all(len(model.of(v)) == regions // 2 for v in vocab)
    for wrong in (regions - 1, regions + 1, 2 * regions):
        with pytest.raises(ValueError):
            realize(vocab, (Card.MANY,) * wrong, ModelClass.ALL)


def _random_labels(rng, vocab):
    return tuple(rng.choice(list(Card)) for _ in range(1 << len(vocab)))


def _random_formula(rng, pool, depth):
    from namecalc.core import Atom, Bin, Functor, Neg

    if depth == 0 or rng.random() < 0.35:
        functor = rng.choice(list(Functor))
        if functor.arity == 1:
            return Atom(functor, rng.choice(pool))
        return Atom(functor, rng.choice(pool), rng.choice(pool))
    shape = rng.choice(["~", "&", "|", "->", "<->"])
    if shape == "~":
        return Neg(_random_formula(rng, pool, depth - 1))
    return Bin(shape, _random_formula(rng, pool, depth - 1), _random_formula(rng, pool, depth - 1))


def test_abstraction_soundness_many_inflation():
    # Truth over a realization depends only on the labeling: inflating Many
    # regions from two to three elements never changes evaluation.
    rng = random.Random(20260811)
    checked = 0
    while checked < 500:
        vocab = tuple(sorted(rng.sample(["S", "P", "M"], rng.randint(1, 3))))
        labels = _random_labels(rng, vocab)
        formula = _random_formula(rng, vocab, rng.randint(1, 3))
        cls = rng.choice(list(ModelClass))
        small = realize(vocab, labels, cls)
        big = reference_realize(vocab, labels, cls, many_size=3)
        if small is None:
            assert big is None
            continue
        assert evaluate(small, formula) == evaluate(big, formula)
        checked += 1


def test_small_model_property_exhaustive_two_letters():
    # decide agrees with the oracle at universe size 2 * 2^k for k <= 2
    functors = ["a", "i", "e", "o", "ka", "eps"]
    shapes = []
    for f, g in itertools.product(functors, repeat=2):
        shapes.append(f"{f}(S,P) -> {g}(P,S)")
        shapes.append(f"{f}(S,S) & {g}(S,P) -> {f}(S,P)")
    for text in shapes:
        formula = parse_formula(text)
        bound = 2 * (1 << len(letters(formula)))
        for cls in ModelClass:
            assert is_valid(decide(formula, cls)) == is_valid(
                oracle_decide(formula, cls, bound)
            ), (text, cls)


def test_small_model_property_sampled_three_letters():
    # Three-letter sample at the largest oracle-feasible universe.
    rng = random.Random(7)
    pool = ("S", "P", "M")
    for _ in range(40):
        formula = _random_formula(rng, pool, 2)
        if len(letters(formula)) != 3:
            continue
        for cls in ModelClass:
            assert is_valid(decide(formula, cls)) == is_valid(oracle_decide(formula, cls, 6))


def test_paired_class_verdicts_coincide_without_the_singular_family():
    # Completeness corollary: over the singular-free fragment the traditional
    # and polyreferential tautologies coincide, as do the unrestricted and
    # non-monoreferential ones.  The singular copula is exactly what breaks
    # this (see the eps-class-boundary entry).
    for entry in corpus_entries():
        formula = parse_formula(entry.formula)
        if needs_three_labels(formula):
            continue
        assert is_valid(decide(formula, ModelClass.TRADITIONAL)) == is_valid(
            decide(formula, ModelClass.POLYREFERENTIAL)
        ), entry.name
        assert is_valid(decide(formula, ModelClass.ALL)) == is_valid(
            decide(formula, ModelClass.NON_MONOREFERENTIAL)
        ), entry.name


def test_class_monotonicity_on_the_corpus():
    order = [
        (ModelClass.ALL, ModelClass.TRADITIONAL),
        (ModelClass.TRADITIONAL, ModelClass.POLYREFERENTIAL),
        (ModelClass.ALL, ModelClass.NON_MONOREFERENTIAL),
        (ModelClass.NON_MONOREFERENTIAL, ModelClass.POLYREFERENTIAL),
    ]
    for entry in corpus_entries():
        formula = parse_formula(entry.formula)
        verdicts = {cls: is_valid(decide(formula, cls)) for cls in ModelClass}
        for stronger, weaker in order:
            if verdicts[stronger]:
                assert verdicts[weaker], (entry.name, stronger, weaker)


def test_countermodels_recheck():
    cases = [
        ("i(S,S)", ModelClass.ALL),
        ("a(S,P) -> i(S,P)", ModelClass.NON_MONOREFERENTIAL),
        ("eps(S,S) -> eps(M,M)", ModelClass.TRADITIONAL),
        ("ka(S,P) -> ka(P,S)", ModelClass.POLYREFERENTIAL),
    ]
    for text, cls in cases:
        formula = parse_formula(text)
        verdict = decide(formula, cls)
        assert isinstance(verdict, Countermodel)
        assert not evaluate(verdict.model, formula)
        assert in_class(verdict.model, cls, letters(formula))


def test_decide_is_deterministic():
    f = parse_formula("ka(S,P) -> ka(P,S)")
    first = decide(f, ModelClass.ALL)
    second = decide(f, ModelClass.ALL)
    assert format_model(first.model) == format_model(second.model)


def test_two_label_mode_is_used_only_without_the_singular_family():
    assert not needs_three_labels(parse_formula("a(S,P) & kke(S,P)"))
    assert needs_three_labels(parse_formula("a(S,P) & neps(S,P)"))


def test_letter_cap():
    wide = parse_formula("a(A,B) & a(C,D) & a(E,F) -> a(A,F)")
    with pytest.raises(CapExceeded):
        decide(wide, ModelClass.ALL)
    with pytest.raises(CapExceeded):
        decide(parse_formula("eps(A,B) & eps(C,D) -> eps(E,E)"), ModelClass.ALL)
    # Valid, so it would run through all 2^32 two-label labelings.
    with pytest.raises(CapExceeded):
        decide(parse_formula("a(S,P) & a(P,M) & a(M,Q) & a(Q,R) -> a(S,R)"), ModelClass.ALL)


def test_four_letter_singular_chain_is_decided():
    # 3^16 labelings, in 729 tables of 3^10 rows: valid, so every table is read.
    formula = parse_formula("eps(S,P) & a(P,M) & a(M,Q) -> eps(S,Q)")
    for cls in ModelClass:
        assert is_valid(decide(formula, cls)), cls


def _reference_output(formula, cls):
    model = reference_decide(formula, cls)
    return "VALID" if model is None else format_model(model)


def _output(verdict):
    return "VALID" if is_valid(verdict) else format_model(verdict.model)


# The second table size splits every labeling space into many tables, so the
# lexicographic order across tables is compared as well as within one.
TABLE_SIZES = [decide_module.TABLE_ROWS, 1 << 4]


@pytest.mark.parametrize("table_rows", TABLE_SIZES)
@settings(max_examples=60, deadline=None)
@given(formula=st.sampled_from([("S",), ("S", "P"), ("S", "P", "M")]).flatmap(
    lambda pool: formulas_st(pool, max_depth=4)))
@example(formula=parse_formula("eps(S,P) & a(P,M) -> eps(S,M)"))
@example(formula=parse_formula("eps(S,P) & e(P,M) -> neps(S,M)"))
@example(formula=parse_formula("a(M,P) & i(S,M) -> i(S,P) & ex(M)"))
def test_decide_matches_the_reference_enumeration(table_rows, formula):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decide_module, "TABLE_ROWS", table_rows)
        for cls in ModelClass:
            assert _output(decide(formula, cls)) == _reference_output(formula, cls), cls


@pytest.mark.parametrize("table_rows", TABLE_SIZES)
def test_decide_matches_the_reference_on_four_letters(table_rows):
    rng = random.Random(20261018)
    pool = ("S", "P", "M", "Q")
    checked = 0
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decide_module, "TABLE_ROWS", table_rows)
        while checked < 8:
            formula = _random_formula(rng, pool, 3)
            if len(letters(formula)) != 4 or needs_three_labels(formula):
                continue
            for cls in ModelClass:
                assert _output(decide(formula, cls)) == _reference_output(formula, cls), cls
            checked += 1
        chain = parse_formula("a(S,P) & a(P,M) & a(M,Q) -> a(S,Q)")  # every table, to the end
        assert _output(decide(chain, ModelClass.ALL)) == _reference_output(chain, ModelClass.ALL)


def test_table_layout_follows_table_rows(monkeypatch):
    # Valid, so every table is read.  At the default size the 2^8 labelings
    # fit one table, whose kept rows the call reads; at 1 << 4 they take 16,
    # which a layout or rows kept without the table size would not split.
    formula = parse_formula("a(M,P) & a(S,M) -> a(S,P)")
    tables, kept = Counter(), Counter()
    build_tables, kept_atom = decide_module._tables, decide_module._kept_atom

    def counting_tables(*args):
        for table in build_tables(*args):
            tables[decide_module.TABLE_ROWS] += 1
            yield table

    def counting_kept_atom(count, three, table_rows, *key):
        kept[table_rows] += 1
        return kept_atom(count, three, table_rows, *key)

    monkeypatch.setattr(decide_module, "_tables", counting_tables)
    monkeypatch.setattr(decide_module, "_kept_atom", counting_kept_atom)
    for table_rows in TABLE_SIZES:
        monkeypatch.setattr(decide_module, "TABLE_ROWS", table_rows)
        for cls in ModelClass:
            assert _output(decide(formula, cls)) == _reference_output(formula, cls), (table_rows, cls)
    assert tables == {TABLE_SIZES[1]: 16 * len(ModelClass)}
    assert kept == {TABLE_SIZES[0]: 3 * len(ModelClass)}  # three distinct atoms


def _kept_sizes():
    return [cache.cache_info().currsize for cache in (
        decide_module._plan, decide_module._kept_letters, decide_module._kept_class, decide_module._kept_atom)]


def _positioned_atoms(vocab, three):
    """Each functor of the alphabet at each ordered pair of the letters, ex at
    each letter, plain and negated, each in a formula over all the letters:
    every atom row of the one-table layout."""
    # Each letter a singleton (or nonempty): false at the first labelings, so
    # the first countermodel is where the atom is false.
    rest = conj(*(Atom(Functor.EPS, v, v) if three else Atom(Functor.EX, v) for v in vocab))
    atoms = [Atom(f, *pair) for f in Functor if three or not needs_three_labels(Atom(f, *vocab[:f.arity]))
             for pair in itertools.product(vocab, repeat=f.arity)]
    return [Bin("|", body, rest) for atom in atoms for body in (atom, Neg(atom))]


def test_kept_rows_match_the_reference_and_are_bounded_by_layouts():
    # Every kept row of three letters in both alphabets against the
    # reference, and of four two-label letters on a seeded sample: the
    # reference takes about 0.2 s a call there, as it runs through up to 2^16
    # labelings, one at a time.
    rng = random.Random(20261020)
    four = _positioned_atoms(("M", "P", "Q", "S"), False)
    sample = rng.sample(four, 2)
    for formula in [*_positioned_atoms(("M", "P", "S"), False), *_positioned_atoms(("M", "P", "S"), True), *four]:
        for cls in ModelClass:
            output = _output(decide(formula, cls))
            if len(letters(formula)) == 3 or formula in sample:
                assert output == _reference_output(formula, cls), (formula, cls)
    # Kept rows are keyed by letter positions, never by the formula: new
    # formulas over other letters in the same layouts add none.
    sizes = _kept_sizes()
    checked = 0
    while checked < 300:
        pool = rng.sample("ABCDEFGHJKLMNPQRSTUVWXYZ", rng.choice((3, 4)))
        formula = _random_formula(rng, pool, 3)
        if len(letters(formula)) != len(pool) or len(pool) == 4 and needs_three_labels(formula):
            continue
        for cls in ModelClass:
            decide(formula, cls)
        checked += 1
    assert _kept_sizes() == sizes


def test_corpus_outputs_do_not_depend_on_the_table_size():
    # Up to three letters the default size takes one table, read from kept
    # rows, and 1 << 4 splits the labelings into many, each built per table.
    formulas = [parse_formula(entry.formula) for entry in corpus_entries()]
    formulas = [formula for formula in formulas if len(letters(formula)) <= 3]
    outputs = {}
    with pytest.MonkeyPatch.context() as patch:
        for table_rows in TABLE_SIZES:
            patch.setattr(decide_module, "TABLE_ROWS", table_rows)
            outputs[table_rows] = [_output(decide(formula, cls)) for formula in formulas for cls in ModelClass]
    assert outputs[TABLE_SIZES[0]] == outputs[TABLE_SIZES[1]]
    assert len(outputs[TABLE_SIZES[0]]) == len(formulas) * len(ModelClass) > 300


def _every_atom_and_negation():
    """Each binary functor on (S,P), (P,S) and (S,S), and ex(S), each plain and
    negated: every row of the functor table in every letter pattern."""
    atoms = [Atom(Functor.EX, "S")] + [Atom(f, s, p) for f in Functor if f.arity == 2
                                       for s, p in [("S", "P"), ("P", "S"), ("S", "S")]]
    return [formula for atom in atoms for formula in (atom, Neg(atom))]


@pytest.mark.parametrize("table_rows", TABLE_SIZES)
def test_decide_matches_the_reference_on_every_functor(table_rows):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decide_module, "TABLE_ROWS", table_rows)
        for formula, cls in itertools.product(_every_atom_and_negation(), ModelClass):
            assert _output(decide(formula, cls)) == _reference_output(formula, cls), (formula, cls)


def test_oracle_matches_the_reference_on_every_functor():
    for formula, cls, universe in itertools.product(_every_atom_and_negation(), ModelClass, range(5)):
        assert _output(oracle_decide(formula, cls, universe)) == \
            _reference_oracle_output(formula, cls, universe), (formula, cls, universe)


def test_oracle_examples_and_guards():
    assert is_valid(oracle_decide(parse_formula("a(S,S)"), ModelClass.ALL, 2))
    verdict = oracle_decide(parse_formula("ex(S)"), ModelClass.ALL, 2)
    assert isinstance(verdict, Countermodel)
    assert verdict.model.of("S") == frozenset()
    with pytest.raises(CapExceeded):
        oracle_decide(parse_formula("a(A,B) & a(B,C) -> a(C,D)"), ModelClass.ALL, 4)
    with pytest.raises(CapExceeded):
        oracle_decide(parse_formula("a(S,P)"), ModelClass.ALL, 9)


def _reference_oracle_output(formula, cls, universe):
    _, model = reference_oracle(formula, cls, universe)
    return "VALID" if model is None else format_model(model)


_SHARED = Atom(Functor.I, "M", "S")


@pytest.mark.parametrize("table_rows", TABLE_SIZES)
@settings(max_examples=100, deadline=None)
@given(formula=st.sampled_from([("S",), ("S", "P"), ("S", "P", "M")]).flatmap(
    lambda pool: formulas_st(pool, max_depth=4)), universe=st.integers(0, 4))
@example(formula=parse_formula("a(S,P) & a(P,M) -> a(S,M)"), universe=4)  # every table, to the end
# A repeated atom, once as one object at two leaves and once as equal but
# distinct objects: both occurrences must read the same value.
@example(formula=Bin("->", conj(_SHARED, Atom(Functor.A, "M", "P")), conj(_SHARED, Atom(Functor.I, "S", "P"))),
         universe=4)
@example(formula=Bin("->", conj(Atom(Functor.I, "M", "S"), Atom(Functor.A, "M", "P")),
                     conj(Atom(Functor.I, "M", "S"), Atom(Functor.I, "S", "P"))), universe=4)
def test_oracle_matches_the_reference_enumeration(table_rows, formula, universe):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decide_module, "TABLE_ROWS", table_rows)
        for cls in ModelClass:
            assert _output(oracle_decide(formula, cls, universe)) == \
                _reference_oracle_output(formula, cls, universe), cls


@pytest.mark.parametrize("text, cls, universe", [
    ("ex(M) & ex(P) -> ex(S)", ModelClass.ALL, 2),
    ("i(S,P) -> a(P,S) | eps(M,M)", ModelClass.TRADITIONAL, 3),
    ("ka(M,P) -> ka(S,P)", ModelClass.POLYREFERENTIAL, 3),
    ("ke(P,S) -> ex(S)", ModelClass.NON_MONOREFERENTIAL, 4),
])
def test_oracle_finds_countermodels_beyond_the_first_table(text, cls, universe):
    formula = parse_formula(text)
    row, _ = reference_oracle(formula, cls, universe)
    assert row >= 1 << 4
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decide_module, "TABLE_ROWS", 1 << 4)
        assert _output(oracle_decide(formula, cls, universe)) == \
            _reference_oracle_output(formula, cls, universe)


def test_oracle_runs_without_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)
    with pytest.raises(ImportError):
        importlib.import_module("numpy")
    chain = parse_formula("a(S,P) & a(P,M) -> a(S,M)")
    assert is_valid(oracle_decide(chain, ModelClass.ALL, 8))  # every table, to the end
    # The first countermodel gives M one element, so it lies past the first table.
    verdict = oracle_decide(parse_formula("ex(M) & a(P,S) -> ex(S)"), ModelClass.ALL, 8)
    assert _output(verdict) == \
        '{"universe":["u0","u1","u2","u3","u4","u5","u6","u7"],"denotation":{"M":["u0"],"P":[],"S":[]}}'
    for universe in (0, 4, 8):
        verdict = oracle_decide(parse_formula("i(S,P) -> a(P,S)"), ModelClass.TRADITIONAL, universe)
        assert is_valid(verdict) == (universe < 2)


def test_oracle_keeps_nothing_between_calls():
    def cached():
        return [(f.cache_info().misses, f.cache_info().currsize) for f in (decide_module._zone, digit_columns)]

    # The warm call builds what every 3-letter call at 8 elements shares; its
    # atoms each read one letter, so no atom's element terms are built yet.
    assert is_valid(oracle_decide(parse_formula("a(S,S) & a(P,P) -> a(M,M)"), ModelClass.ALL, 8))
    chain = parse_formula("a(S,P) & a(P,M) -> a(S,M)")
    before = cached()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert is_valid(oracle_decide(chain, ModelClass.ALL, 8))
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert cached() == before
    # One table row set is 8 KiB, and the chain's half tables hold 64 of them.
    assert retained < 16 * 1024, retained


def _assignment(model, universe):
    """The index of a model's denotation assignment in the oracle's order."""
    index = 0
    for letter in sorted(model.denotation):
        index = index << universe | sum(1 << int(x[1:]) for x in model.of(letter))
    return index


def _guarded(rng, pool):
    """A random formula behind a premise that makes M nonempty or a singleton:
    M sorts first, so its denotation is the assignment's top digits and the
    first countermodel, if any, lies past the first table once those digits
    are head digits."""
    guard = Atom(Functor.EX, "M") if rng.random() < 0.7 else Atom(Functor.EPS, "M", "M")
    return Bin("->", Bin("&", guard, _random_formula(rng, pool, 1)), _random_formula(rng, pool, 2))


@pytest.mark.parametrize("table_rows, pools, universes", [
    (decide_module.TABLE_ROWS, [("S", "P", "M")], (6, 7, 8)),
    (1 << 7, [("S",), ("S", "P"), ("S", "P", "M")], range(5)),
    (1 << 4, [("S",), ("S", "P"), ("S", "P", "M")], range(5)),
])
def test_oracle_matches_the_frozen_table_oracle(table_rows, pools, universes):
    # Valid formulas run every table; guarded ones put the first countermodel
    # past the first table.  At the two small sizes the head digits cross
    # from the first letter into the others.
    rng = random.Random(20261019 + table_rows)
    corpus = [parse_formula(entry.formula) for entry in corpus_entries()]
    seen = Counter()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decide_module, "TABLE_ROWS", table_rows)
        while seen["checked"] < 320:
            pool = rng.choice(pools)
            formula = rng.choices([
                _random_formula(rng, pool, 3),
                _guarded(rng, ("S", "P", "M")),
                rng.choice([f for f in corpus if letters(f) <= set(pool)]),
            ], weights=(1, 2, 1))[0]
            if len(pools) == 1 and letters(formula) != set(pool):
                continue
            universe = rng.choice(universes)
            for cls in ModelClass:
                expected = table_oracle(formula, cls, universe)
                assert _output(oracle_decide(formula, cls, universe)) == _output(expected), \
                    (formula, cls, universe)
                seen["checked"] += 1
                if is_valid(expected):
                    seen["valid"] += 1
                elif _assignment(expected.model, universe) >= table_rows:
                    seen["past the first table"] += 1
    assert seen["valid"] >= 25 and seen["past the first table"] >= 25, seen
