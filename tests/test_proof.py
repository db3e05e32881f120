import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from namecalc.core import letters
from namecalc.decide import Valid, decide
from namecalc.parser import parse_formula, parse_proof_script
from namecalc.proof import (
    Basis,
    GuardExceeded,
    axioms_of,
    check_proof,
    expand_definitions,
    is_cpl_tautology,
)
from namecalc.semantics import ModelClass, evaluate, random_model
from namecalc.sequent import cpl_consequence
from namecalc.systems import SCHEMAS, system

from basis_reference import reference_expand
from conftest import LETTER_POOL, formulas_st


def test_cpl_examples():
    assert is_cpl_tautology(parse_formula("a(S,P) | ~a(S,P)"))
    assert is_cpl_tautology(parse_formula("(a(S,P) & i(S,S)) -> a(S,P)"))
    assert not is_cpl_tautology(parse_formula("a(S,P) -> i(S,P)"))


def test_cpl_guard():
    parts = [f"a(S,P{k}) & i(S,P{k}) | e(S,P{k}) & o(S,P{k})" for k in range(6)]
    with pytest.raises(GuardExceeded):
        is_cpl_tautology(parse_formula(" | ".join(parts)))


def _truth_by_dict(formula, assignment):
    # second, independently coded evaluator used only by this test
    from namecalc.core import Atom, Neg

    if isinstance(formula, Atom):
        return assignment[formula]
    if isinstance(formula, Neg):
        return not _truth_by_dict(formula.operand, assignment)
    l, r = _truth_by_dict(formula.left, assignment), _truth_by_dict(formula.right, assignment)
    if formula.op == "&":
        return l and r
    if formula.op == "|":
        return l or r
    if formula.op == "->":
        return not l or r
    return l is r


@settings(max_examples=200)
@given(formulas_st(max_depth=4))
def test_cpl_agrees_with_a_second_evaluator(formula):
    from namecalc.core import distinct_atoms

    atoms = distinct_atoms(formula)
    brute = all(
        _truth_by_dict(formula, dict(zip(atoms, values)))
        for values in itertools.product([False, True], repeat=len(atoms))
    )
    assert is_cpl_tautology(formula) == brute


@settings(max_examples=200)
@given(
    st.lists(formulas_st(pool=("S", "P"), max_depth=2), max_size=3),
    formulas_st(pool=("S", "P"), max_depth=3),
)
def test_cpl_consequence_agrees_with_a_second_evaluator(premises, conclusion):
    from namecalc.core import distinct_atoms

    atoms = list({atom for formula in [*premises, conclusion] for atom in distinct_atoms(formula)})
    brute = True
    for values in itertools.product([False, True], repeat=len(atoms)):
        assignment = dict(zip(atoms, values))
        if all(_truth_by_dict(p, assignment) for p in premises):
            brute = brute and _truth_by_dict(conclusion, assignment)
    assert cpl_consequence(premises, conclusion) == brute


CONVERSION_SCRIPT = """
1: a(P,P) ; ax Ia [S:=P]
2: a(P,P) & i(P,S) -> i(S,P) ; ax Datisi [M:=P]
3: a(P,P) -> (a(P,P) & i(P,S) -> i(S,P)) -> i(P,S) -> i(S,P) ; cpl
4: (a(P,P) & i(P,S) -> i(S,P)) -> i(P,S) -> i(S,P) ; mp 1 3
5: i(P,S) -> i(S,P) ; mp 2 4
"""

SUBALTERNATION_SCRIPT = """
1: i(S,S) ; ax Ii
2: a(S,P) & i(S,S) -> i(S,P) ; ax Datisi [M:=S]
3: i(S,S) -> (a(S,P) & i(S,S) -> i(S,P)) -> a(S,P) -> i(S,P) ; cpl
4: (a(S,P) & i(S,S) -> i(S,P)) -> a(S,P) -> i(S,P) ; mp 1 3
5: a(S,P) -> i(S,P) ; mp 2 4
"""


def test_conversion_script_checks_in_luk():
    report = check_proof(system("LUK"), parse_proof_script(CONVERSION_SCRIPT))
    assert report.accepted


def test_subalternation_script_checks_in_luk():
    report = check_proof(system("LUK"), parse_proof_script(SUBALTERNATION_SCRIPT))
    assert report.accepted


def test_detach_mismatch_is_rejected_at_its_line():
    script = parse_proof_script(
        """
        1: a(S,S) ; ax Ia
        2: i(S,S) ; ax Ii
        3: i(S,P) ; mp 1 2
        """
    )
    report = check_proof(system("LUK"), script)
    assert not report.accepted
    assert report.failure_line == 3


def test_axiom_instance_must_match():
    script = parse_proof_script("1: a(S,P) ; ax Ia")
    report = check_proof(system("LUK"), script)
    assert not report.accepted
    script = parse_proof_script("1: a(Q,Q) ; ax Ia [S:=P]")
    assert not check_proof(system("LUK"), script).accepted


def test_foreign_schema_is_rejected():
    script = parse_proof_script("1: i(S,P) -> i(S,S) ; ax SubjEx")
    report = check_proof(system("LUK"), script)
    assert not report.accepted
    assert "not available" in report.reason


def test_substitution_rule_flag():
    script = parse_proof_script(
        """
        1: i(S,S) ; ax Ii
        2: i(Q,Q) ; sub 1 [S:=Q]
        """
    )
    assert check_proof(system("LUK"), script).accepted
    report = check_proof(system("LUK", substitution_rule_enabled=False), script)
    assert not report.accepted
    assert report.failure_line == 2


def test_shis_group_one_proves_copula_transitivity():
    from namecalc.corpus import DATA_DIR

    script = parse_proof_script((DATA_DIR / "scripts/ish2-shis1.proof").read_text())
    assert check_proof(system("SHIS_I"), script).accepted
    assert not check_proof(system("SH"), script).accepted  # the copula axioms are missing


def test_axioms_of_counts():
    assert len(axioms_of(system("LUK"))) == 6
    assert len(axioms_of(system("SH"))) == 7
    slu_b = system("SLU_B")
    assert len(slu_b.axioms) == 5 and len(slu_b.definitions) == 2
    names = {s.name for s in axioms_of(system("LUK"))}
    assert names == {"Ia", "Ii", "Barbara", "Datisi", "dfE", "dfO"}


def test_expand_examples():
    from namecalc.parser import format_formula

    assert format_formula(expand_definitions(parse_formula("e(S,P)"), Basis.AI)) == "~i(S,P)"
    assert (
        format_formula(expand_definitions(parse_formula("a(S,P)"), Basis.KAI))
        == "~ka(S,S) | ka(S,P)"
    )


def test_expand_idempotent_on_basis():
    for text, basis in [
        ("a(S,P) & i(P,S) | ~eps(S,P)", Basis.AI),
        ("ka(S,P) & i(P,S) | ~eps(S,P)", Basis.KAI),
        ("a(S,P) & e(P,S) -> o(S,P) | eps(S,S)", Basis.AIEO_FULL),
    ]:
        formula = parse_formula(text)
        assert expand_definitions(formula, basis) == formula


def test_each_derived_functor_has_one_definition():
    from namecalc.core import Functor

    defined = [s.pattern.left.functor for name, s in SCHEMAS.items() if name.startswith("df")]
    assert len(defined) == len(set(defined)) == 12
    assert set(Functor) - set(defined) == {Functor.I, Functor.EPS}


def test_expand_matches_the_hand_written_rewriters():
    from namecalc.core import Atom, Functor
    from namecalc.parser import format_formula

    for functor in Functor:
        for s, p in itertools.product(LETTER_POOL, repeat=2):
            atom = Atom(functor, s) if functor.arity == 1 else Atom(functor, s, p)
            for basis in Basis:
                assert format_formula(expand_definitions(atom, basis)) == format_formula(
                    reference_expand(atom, basis)
                ), (atom, basis)


@settings(max_examples=250)
@given(formulas_st(max_depth=4))
def test_expand_matches_the_hand_written_rewriters_on_formulas(formula):
    from namecalc.parser import format_formula

    for basis in Basis:
        assert format_formula(expand_definitions(formula, basis)) == format_formula(
            reference_expand(formula, basis)
        )


def _basis_atoms(formula, basis):
    from namecalc.core import Functor, distinct_atoms

    allowed = {
        Basis.AI: {Functor.A, Functor.I, Functor.EPS},
        Basis.KAI: {Functor.KA, Functor.I, Functor.EPS},
        Basis.AIEO_FULL: {Functor.A, Functor.I, Functor.E, Functor.O, Functor.EPS},
    }[basis]
    return all(atom.functor in allowed for atom in distinct_atoms(formula))


@settings(max_examples=250)
@given(formulas_st(max_depth=4))
def test_expand_preserves_evaluation(formula):
    for seed in (0, 1):
        model = random_model(seed, sorted(letters(formula)), ModelClass.ALL, 4)
        for basis in Basis:
            expanded = expand_definitions(formula, basis)
            assert _basis_atoms(expanded, basis)
            assert evaluate(model, formula) == evaluate(model, expanded)


def test_axiom_schemas_decide_valid_in_their_classes():
    for sid in ("LUK", "SH", "SHIS_I", "ONTO", "SLU_B", "KAIS_C"):
        spec = system(sid)
        for schema in spec.axioms + spec.definitions + spec.extension_definitions:
            target = expand_definitions(schema.pattern, Basis.AI)
            for cls in spec.model_classes:
                assert isinstance(decide(target, cls), Valid), (sid, schema.name, cls)


def test_two_system_versions_accept_the_same_corpus_conclusions():
    from namecalc.corpus import DATA_DIR, corpus_entries

    pairs = [e for e in corpus_entries() if e.group == "variants"]
    assert len(pairs) == 5
    for entry in pairs:
        conclusions = set()
        for script in entry.scripts:
            parsed = parse_proof_script((DATA_DIR / script.path).read_text())
            spec = system(script.system, substitution_rule_enabled=script.substitution_rule)
            assert check_proof(spec, parsed).accepted, (entry.name, script.path)
            from namecalc.parser import format_formula

            conclusions.add(format_formula(parsed.conclusion))
        assert len(conclusions) == 1
