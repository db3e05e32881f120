import copy
import dataclasses
import pickle

import pytest
from hypothesis import given
import hypothesis.strategies as st

from namecalc import core
from namecalc.core import (
    Atom,
    Bin,
    Functor,
    Neg,
    compose,
    conj,
    digit_columns,
    distinct_atoms,
    letters,
    match_atoms,
    match_schema,
    substitute,
    truth,
)
from namecalc.parser import format_formula, parse_formula
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


def _occurrences(formula):
    """Atom occurrences left to right, by recursion: the reference for distinct_atoms."""
    if isinstance(formula, Atom):
        return [formula]
    if isinstance(formula, Neg):
        return _occurrences(formula.operand)
    return _occurrences(formula.left) + _occurrences(formula.right)


@given(formulas_st())
def test_distinct_atoms_keep_the_first_occurrence_order(formula):
    occurrences = _occurrences(formula)
    assert distinct_atoms(formula) == list(dict.fromkeys(occurrences))
    assert letters(formula) == {x for atom in occurrences for x in (atom.subject, atom.predicate) if x}


def test_flat_chains_are_walked_without_recursion():
    # 5000 conjuncts over 700 distinct atoms: the left-deep tree is 4999 deep.
    parts = [Atom(Functor.A, f"S{k % 700}", f"P{k % 350}") for k in range(5000)]
    chain = conj(*parts)
    assert distinct_atoms(chain) == parts[:700]
    assert letters(chain) == {f"S{k}" for k in range(700)} | {f"P{k}" for k in range(350)}


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
    functors = set(Functor)
    for spec in SYSTEMS.values():
        for schema in spec.axioms + spec.definitions + spec.extension_definitions:
            for atom in distinct_atoms(schema.pattern):
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


def test_equal_nodes_are_one_object():
    a_sp, ex_m = Atom(Functor.A, "S", "P"), Atom(Functor.EX, "M")
    built = Bin("<->", Neg(Bin("&", a_sp, ex_m)), Bin("|", Atom(Functor.I, "P", "S"), Neg(Neg(a_sp))))
    parsed = parse_formula("~(a(S,P) & ex(M)) <-> i(P,S) | ~~a(S,P)")
    assert parsed is built
    assert parse_formula("a(S,P) & ex(M)") is built.left.operand
    assert substitute(parse_formula("~(a(Q,P) & ex(S)) <-> i(P,Q) | ~~a(Q,P)"), {"Q": "S", "S": "M"}) is built
    assert dataclasses.replace(built, op="<->") is built
    assert dataclasses.replace(built.right, op="&") is parse_formula("i(P,S) & ~~a(S,P)")
    assert dataclasses.replace(a_sp, subject="P", predicate="S") is Atom(Functor.A, "P", "S")
    assert dataclasses.replace(built.left, operand=a_sp) is Neg(a_sp)
    for node in (built, built.left, built.right.right, a_sp, ex_m):
        assert copy.copy(node) is node
        assert copy.deepcopy(node) is node
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(node, protocol)) is node
    # Equality and hashing are object identity: no set operation walks a tree.
    for cls in (Atom, Neg, Bin):
        assert cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__


@given(formulas_st(), substitutions_st)
def test_every_route_to_a_formula_gives_the_interned_node(formula, subst):
    assert parse_formula(format_formula(formula)) is formula
    assert substitute(formula, {}) is formula
    assert copy.deepcopy(formula) is formula
    assert pickle.loads(pickle.dumps(formula)) is formula
    image = substitute(formula, subst)
    assert parse_formula(format_formula(image)) is image


def test_failed_builds_enter_no_table():
    a_sp = Atom(Functor.A, "S", "P")
    not_a, both = Neg(a_sp), Bin("&", a_sp, a_sp)
    tables = (core._ATOMS, core._NEGS, core._BINS)
    sizes = [len(table) for table in tables]
    bad = [
        lambda: Atom(Functor.A, "lower", "P"),
        lambda: Atom(Functor.A, "S", "p"),
        lambda: Atom(Functor.EX, "S", "P"),
        lambda: Atom(Functor.A, "S"),
        lambda: Bin("=>", a_sp, a_sp),
        lambda: Bin("<-", not_a, not_a),
        lambda: dataclasses.replace(a_sp, subject="s"),
        lambda: dataclasses.replace(both, op="and"),
    ]
    for build in bad:
        for _ in range(2):  # a failed build leaves nothing that a retry would find
            with pytest.raises(ValueError):
                build()
    assert [len(table) for table in tables] == sizes


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
