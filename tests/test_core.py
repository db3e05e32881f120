import pytest
from hypothesis import given
import hypothesis.strategies as st

from namecalc.core import (
    Atom,
    Functor,
    compose,
    digit_columns,
    letters,
    match_atoms,
    match_schema,
    substitute,
    truth,
)
from namecalc.parser import parse_formula
from namecalc.systems import SCHEMAS, SYSTEMS

from conftest import formulas_st, substitutions_st


def test_substitute_letter_collapse():
    barbara = parse_formula("a(M,P) & a(S,M) -> a(S,P)")
    collapsed = substitute(barbara, {"M": "S"})
    assert collapsed == parse_formula("a(S,P) & a(S,S) -> a(S,P)")


def test_substitute_identity():
    f = parse_formula("i(S,S)")
    assert substitute(f, {}) == f


@given(formulas_st(), substitutions_st, substitutions_st)
def test_substitute_composes(formula, first, second):
    chained = substitute(substitute(formula, first), second)
    assert chained == substitute(formula, compose(second, first))


@given(formulas_st(), substitutions_st)
def test_letters_image(formula, subst):
    expected = frozenset(subst.get(x, x) for x in letters(formula))
    assert letters(substitute(formula, subst)) == expected


def test_match_barbara_renaming():
    candidate = parse_formula("a(A,B) & a(C,A) -> a(C,B)")
    assert match_schema(SCHEMAS["Barbara"].pattern, candidate) == {"M": "A", "P": "B", "S": "C"}


def test_match_diagonal_mismatch():
    assert match_schema(SCHEMAS["Ia"].pattern, parse_formula("a(X,Y)")) is None


def test_match_self_is_identity():
    pattern = SCHEMAS["Datisi"].pattern
    assert match_schema(pattern, pattern) == {"M": "M", "P": "P", "S": "S"}


@given(formulas_st(), substitutions_st)
def test_match_recovers_collapsing_substitutions(pattern, subst):
    candidate = substitute(pattern, subst)
    found = match_schema(pattern, candidate)
    assert found is not None
    assert substitute(pattern, found) == candidate
    injective = len({subst.get(x, x) for x in letters(pattern)}) == len(letters(pattern))
    if injective:
        assert found == {x: subst.get(x, x) for x in letters(pattern)}


def _merged_matches(pairs):
    """Joint matching as each pair's own match, merged where they agree."""
    subst = {}
    for pattern, candidate in pairs:
        found = match_schema(pattern, candidate)
        if found is None:
            return None
        for letter, target in found.items():
            if subst.setdefault(letter, target) != target:
                return None
    return subst


@given(st.lists(st.tuples(formulas_st(pool=("S", "P"), max_depth=3), substitutions_st), max_size=3),
       formulas_st(pool=("S", "P"), max_depth=3))
def test_joint_match_is_the_merge_of_the_single_matches(instances, stray):
    # Instances under one substitution per pair: pairs sharing a letter agree
    # on it only sometimes.  A stray candidate makes some pairs fail outright.
    pairs = [(pattern, substitute(pattern, subst)) for pattern, subst in instances]
    assert match_atoms(pairs) == _merged_matches(pairs)
    if pairs:
        spoiled = pairs + [(pairs[0][0], stray)]
        assert match_atoms(spoiled) == _merged_matches(spoiled)


def test_joint_match_needs_agreement_across_pairs():
    s_p, p_s = parse_formula("a(S,P)"), parse_formula("a(P,S)")
    assert match_atoms([(s_p, parse_formula("a(M,Q)")), (s_p, parse_formula("a(M,Q)"))]) == {"S": "M", "P": "Q"}
    assert match_atoms([(s_p, parse_formula("a(M,Q)")), (p_s, parse_formula("a(M,Q)"))]) is None
    assert match_atoms([(s_p, parse_formula("a(M,M)")), (p_s, parse_formula("a(M,M)"))]) == {"S": "M", "P": "M"}
    assert match_atoms([]) == {}


def test_schema_sets_are_closed_over_the_functor_table():
    from namecalc.core import atoms

    functors = set(Functor)
    for spec in SYSTEMS.values():
        for schema in spec.axioms + spec.definitions + spec.extension_definitions:
            for atom in atoms(schema.pattern):
                assert atom.functor in functors
            assert letters(schema.pattern) <= {"S", "P", "M", "Q"}


def test_registry_has_the_sixteen_systems():
    assert set(SYSTEMS) == {
        "LUK", "SH", "SLU", "SLU_A", "SLU_B", "SLU_C", "SLU_D", "ONTO",
        "SHIS_I", "SHIS_II", "SHIS_III", "SHIS_IV",
        "KAIS_A", "KAIS_B", "KAIS_C", "KAIS_D",
    }


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom(Functor.A, "lower", "P")
    with pytest.raises(ValueError):
        Atom(Functor.EX, "S", "P")
    with pytest.raises(ValueError):
        Atom(Functor.A, "S")


@pytest.mark.parametrize("base, widest", [(2, 8), (3, 5)])
def test_digit_columns_exhaustive(base, widest):
    for digits in range(widest + 1):
        columns = digit_columns(base, digits)
        assert len(columns) == digits
        for d, by_value in enumerate(columns):
            assert len(by_value) == base - 1
            for v, rows in enumerate(by_value, start=1):
                expected = {i for i in range(base**digits) if i // base**d % base == v}
                assert {i for i in range(base**digits) if rows >> i & 1} == expected


def test_truth_over_a_table_is_truth_of_each_row():
    formula = parse_formula("~(a(S,P) -> i(S,P)) | (e(S,P) <-> a(S,P)) & i(S,P)")
    atoms = [parse_formula(text) for text in ("a(S,P)", "i(S,P)", "e(S,P)")]
    columns = digit_columns(2, len(atoms))
    table = truth(formula, {atom: columns[k][0] for k, atom in enumerate(atoms)}.__getitem__, 255)
    for row in range(8):
        value = truth(formula, lambda atom: row >> atoms.index(atom) & 1)
        assert value in (0, 1)
        assert value == table >> row & 1
