import pytest

import namecalc.sequent as sequent_module
from namecalc.core import Atom, Functor
from namecalc.corpus import DATA_DIR
from namecalc.decide import Valid, decide
from namecalc.parser import (
    parse_deduction_script,
    parse_formula,
    parse_sequent_script,
)
from namecalc.proof import check_proof
from namecalc.proofscript import CplConsequenceAxiom, Cut, Deduction
from namecalc.semantics import ModelClass
from namecalc.sequent import (
    DERIVED_RULES,
    check_expansion,
    check_sequent_proof,
    check_smiley_deduction,
    contradictory,
    cpl_consequence,
    implication,
)
from namecalc.systems import system


def test_cpl_consequence_examples():
    alpha = parse_formula("a(S,P)")
    beta = parse_formula("i(S,P)")
    assert cpl_consequence([alpha, parse_formula("a(S,P) -> i(S,P)")], beta)
    assert cpl_consequence([], parse_formula("a(S,P) | ~a(S,P)"))
    assert not cpl_consequence([alpha], beta)


def test_the_two_cut_examples_check():
    for name in ("asi.seq", "ci.seq"):
        script = parse_sequent_script((DATA_DIR / "sequents" / name).read_text())
        assert check_sequent_proof(script).accepted, name


def test_cut_needs_the_cut_formula_in_the_second_premise_set():
    script = parse_sequent_script(
        """
        1: ==> i(S,S) ; luk Ii
        2: a(S,P), i(P,P) ==> i(S,P) ; cpl
        3: a(S,P) ==> i(S,P) ; cut 1 2
        """
    )
    report = check_sequent_proof(script)
    assert not report.accepted
    assert report.failure_line in (2, 3)


def test_axiom_sequent_with_more_premises_than_the_pattern_is_refused_unmatched(monkeypatch):
    calls = []
    match_atoms = sequent_module.match_atoms
    monkeypatch.setattr(sequent_module, "match_atoms", lambda pairs: calls.append(pairs) or match_atoms(pairs))
    wide = ", ".join(f"a(S{k},P)" for k in range(400))
    report = check_sequent_proof(parse_sequent_script(f"1: {wide} ==> a(S,P) ; luk Barbara"))
    assert (report.accepted, report.reason) == (False, "not an instance of the Barbara sequent")
    assert calls == []
    # A substitution may collapse the two premises of Barbara into one.
    assert check_sequent_proof(parse_sequent_script("1: a(S,S) ==> a(S,S) ; luk Barbara")).accepted
    assert calls


def test_deduction_rule_moves_one_premise():
    script = parse_sequent_script(
        """
        1: a(S,P), i(S,S) ==> i(S,P) ; luk Datisi [M:=S]
        2: i(S,S) ==> a(S,P) -> i(S,P) ; ded 1
        3: ==> i(S,S) -> (a(S,P) -> i(S,P)) ; ded 2
        """
    )
    assert check_sequent_proof(script).accepted


def test_every_derived_rule_macro_is_exercised_and_rechecked():
    script = parse_sequent_script((DATA_DIR / "sequents/derived-rules.seq").read_text())
    report = check_sequent_proof(script)
    assert report.accepted
    used = {
        line.justification.rule
        for line in script.lines
        if type(line.justification).__name__ == "DerivedRule"
    }
    assert used == set(DERIVED_RULES)
    # every expansion really is made of primitive steps that re-check
    by_index = {line.index: line for line in script.lines}
    proved = {line.index: line.sequent for line in script.lines}
    for index, steps in report.expansions:
        line = by_index[index]
        cited = [proved[c] for c in line.justification.cites]
        assert check_expansion(cited, list(steps), line.sequent) is None
        assert all(isinstance(step.justification, (CplConsequenceAxiom, Cut, Deduction)) for step in steps)


def test_macro_with_wrong_result_is_rejected():
    script = parse_sequent_script(
        """
        1: a(M,P), a(S,M) ==> a(S,P) ; luk Barbara
        2: ==> a(M,P) & a(S,M) -> a(M,M) ; rule bridge-to-implication 1
        """
    )
    report = check_sequent_proof(script)
    assert not report.accepted
    assert report.failure_line == 2


def test_sequent_soundness_over_the_corpus_files():
    for path in sorted((DATA_DIR / "sequents").glob("*.seq")):
        script = parse_sequent_script(path.read_text())
        report = check_sequent_proof(script)
        assert report.accepted, path.name
        for line in script.lines:
            formula = implication(line.sequent.premises, line.sequent.conclusion)
            assert isinstance(decide(formula, ModelClass.TRADITIONAL), Valid), (
                path.name,
                line.index,
            )


def test_bridge_pairs_close_on_the_same_formula():
    from namecalc.parser import format_formula

    for mood in ("barbara", "datisi", "darii", "celarent", "barbari"):
        seq = parse_sequent_script((DATA_DIR / f"sequents/{mood}-bridge.seq").read_text())
        assert check_sequent_proof(seq).accepted
        bridged = seq.lines[-1].sequent
        assert not bridged.premises
        from namecalc.parser import parse_proof_script

        hilbert = parse_proof_script((DATA_DIR / f"scripts/{mood}.proof").read_text())
        assert check_proof(system("LUK"), hilbert).accepted
        assert format_formula(hilbert.conclusion) == format_formula(bridged.conclusion)


def test_contradictory():
    a = Atom(Functor.A, "S", "P")
    o = Atom(Functor.O, "S", "P")
    e = Atom(Functor.E, "S", "P")
    i = Atom(Functor.I, "S", "P")
    assert contradictory(a) == o and contradictory(o) == a
    assert contradictory(e) == i and contradictory(i) == e
    for atom in (a, i, e, o):
        assert contradictory(contradictory(atom)) == atom
    with pytest.raises(ValueError):
        contradictory(Atom(Functor.KA, "S", "P"))


def test_smiley_barbara_and_reductio_deductions():
    for name in ("barbara.ded", "darapti.ded", "baroco.ded"):
        script = parse_deduction_script((DATA_DIR / "deductions" / name).read_text())
        report = check_smiley_deduction(script)
        assert report.accepted, name
        for line in script.lines:
            formula = implication(line.claim.premises, line.claim.conclusion)
            assert isinstance(decide(formula, ModelClass.TRADITIONAL), Valid)


def test_reductio_with_mismatched_pair_is_rejected():
    script = parse_deduction_script(
        """
        1: a(S,P), a(P,M) |- a(S,M) ; triv
        2: o(S,M) |- o(S,M) ; triv
        3: a(P,M), o(S,M) |- o(S,P) ; red 1 2
        """
    )
    report = check_smiley_deduction(script)
    assert not report.accepted
    assert report.failure_line in (1, 3)


def test_trivial_deduction_shape():
    script = parse_deduction_script("1: a(S,P), a(P,M) |- a(S,P) ; triv")
    assert not check_smiley_deduction(script).accepted


def test_rule_match_uses_cited_order():
    script = parse_deduction_script(
        """
        1: a(M,P) |- a(M,P) ; triv
        2: a(S,M) |- a(S,M) ; triv
        3: a(S,M), a(M,P) |- a(S,P) ; cut 1 2 r1
        """
    )
    # r1 wants first conclusion a(x,y), second a(y,z); cited in the wrong order
    assert not check_smiley_deduction(script).accepted
    fixed = parse_deduction_script(
        """
        1: a(M,P) |- a(M,P) ; triv
        2: a(S,M) |- a(S,M) ; triv
        3: a(S,M), a(M,P) |- a(S,P) ; cut 2 1 r1
        """
    )
    assert check_smiley_deduction(fixed).accepted
