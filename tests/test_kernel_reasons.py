"""Every rejection reason of the three kernels, one minimal script each, with
its exact wording and failure line.  Scripts that only code can build (a
decreasing line number, a justification from another format, an empty
deduction premise set) are built from the parsed lines.  Derived-rule
reasons of the sequent kernel are pinned in test_sequent_rules."""

from dataclasses import replace

import pytest

from namecalc.parser import parse_deduction_script, parse_proof_script, parse_sequent_script
from namecalc.proof import check_proof
from namecalc.proofscript import CplTautology, DeductionClaim, Trivial
from namecalc.sequent import check_sequent_proof, check_smiley_deduction
from namecalc.systems import system

# 21 distinct atoms over three letters: one over the truth-table guard.
WIDE = [f"{f}({s},{p})" for f in "aieo" for s in "SPM" for p in "SPM"][:21]
GUARD = "21 distinct atoms exceed the truth-table guard"


def _descending(script):
    """The script with its first line renumbered past the second, which
    then fails."""
    first, second = script.lines[:2]
    return replace(script, lines=(replace(first, index=second.index + 1), *script.lines[1:]))


def _foreign(script, justification):
    """The script with its last line justified by another format's class."""
    return replace(script, lines=(*script.lines[:-1], replace(script.lines[-1], justification=justification)))


def _emptied(script):
    """The script with the premises of its last line's claim removed."""
    last = script.lines[-1]
    claim = DeductionClaim(frozenset(), last.claim.conclusion)
    return replace(script, lines=(*script.lines[:-1], replace(last, claim=claim)))


def proof(text, instances=False, edit=lambda script: script):
    return lambda: check_proof(system("LUK", not instances), edit(parse_proof_script(text)))


def sequent(text, edit=lambda script: script):
    return lambda: check_sequent_proof(edit(parse_sequent_script(text)))


def deduction(text, edit=lambda script: script):
    return lambda: check_smiley_deduction(edit(parse_deduction_script(text)))


IA = "1: a(S,S) ; ax Ia\n"
LUK_IA = "1: ==> a(S,S) ; luk Ia\n"
TRIV = "1: a(S,P) |- a(S,P) ; triv\n"

REASONS = {
    # check_proof
    "proof-descending": (proof(IA + "2: a(S,S) ; ax Ia", edit=_descending), 2,
                         "line numbers must increase"),
    "proof-axiom-unavailable": (proof("1: a(S,S) ; ax EpsA"), 1, "EpsA is not available in LUK"),
    "proof-definition-unavailable": (proof("1: a(S,S) ; def Barbara"), 1,
                                     "Barbara is not available in LUK"),
    "proof-not-an-instance": (proof("1: i(S,S) ; ax Ia"), 1, "not an instance of Ia"),
    "proof-substitution-miss": (proof("1: a(S,P) ; ax Ia [S:=P]"), 1,
                                "substitution does not send Ia to the stated formula"),
    "proof-not-a-tautology": (proof("1: a(S,P) ; cpl"), 1, "not a propositional tautology"),
    "proof-cpl-guard": (proof(f"1: {' | '.join(WIDE)} ; cpl"), 1, GUARD),
    "proof-detachment-missing": (proof(IA + "2: a(S,S) ; mp 1 3"), 2,
                                 "detachment cites a missing line"),
    "proof-detachment-mismatch": (proof(IA + "2: a(S,S) ; mp 1 1"), 2,
                                  "cited line is not the matching implication"),
    "proof-no-substitution-rule": (proof(IA + "2: a(P,P) ; sub 1 [S:=P]", instances=True), 2,
                                   "LUK (instance version) has no substitution rule"),
    "proof-no-substitution-rule-before-missing": (
        proof(IA + "2: a(P,P) ; sub 5 [S:=P]", instances=True), 2,
        "LUK (instance version) has no substitution rule"),
    "proof-substitution-missing": (proof(IA + "2: a(P,P) ; sub 5 [S:=P]"), 2,
                                   "substitution cites a missing line"),
    "proof-substitution-differs": (proof(IA + "2: a(P,S) ; sub 1 [S:=P]"), 2,
                                   "substitution result differs"),
    "proof-foreign-justification": (proof(IA + "2: a(S,S) ; ax Ia",
                                          edit=lambda s: _foreign(s, Trivial())), 2,
                                    "unknown justification Trivial()"),
    # check_sequent_proof, apart from derived rules
    "sequent-descending": (sequent(LUK_IA + "2: ==> a(S,S) ; luk Ia", edit=_descending), 2,
                           "line numbers must increase"),
    "sequent-unknown-axiom": (sequent("1: ==> a(S,S) ; luk Nope"), 1,
                              "unknown axiomatic sequent Nope"),
    "sequent-substitution-miss": (sequent("1: ==> a(S,P) ; luk Ia [S:=P]"), 1,
                                  "substitution does not send Ia to the stated sequent"),
    "sequent-not-an-instance": (sequent("1: ==> i(S,S) ; luk Ia"), 1,
                                "not an instance of the Ia sequent"),
    "sequent-not-a-consequence": (sequent("1: a(S,P) ==> i(S,P) ; cpl"), 1,
                                  "not a propositional consequence"),
    "sequent-cpl-guard": (sequent(f"1: {', '.join(WIDE[:-1])} ==> {WIDE[-1]} ; cpl"), 1, GUARD),
    "sequent-cut-missing": (sequent(LUK_IA + "2: ==> a(S,S) ; cut 1 3"), 2,
                            "cut cites a missing line"),
    "sequent-cut-formula-absent": (sequent(LUK_IA + "2: ==> i(S,S) ; luk Ii\n3: ==> i(S,S) ; cut 1 2"),
                                   3, "cut formula does not occur in the second premise set"),
    "sequent-cut-differs": (sequent(LUK_IA + "2: a(S,S) ==> a(S,S) ; cpl\n3: ==> i(S,S) ; cut 1 2"),
                            3, "cut result differs"),
    "sequent-deduction-missing": (sequent(LUK_IA + "2: ==> a(S,S) -> a(S,S) ; ded 5"), 2,
                                  "deduction cites a missing line"),
    "sequent-deduction-differs": (sequent("1: a(S,S) ==> a(S,S) ; cpl\n2: ==> a(S,S) ; ded 1"), 2,
                                  "deduction result differs"),
    "sequent-foreign-justification": (sequent(LUK_IA + "2: ==> a(S,S) ; luk Ia",
                                              edit=lambda s: _foreign(s, Trivial())), 2,
                                      "unknown justification Trivial()"),
    # check_smiley_deduction
    "deduction-descending": (deduction(TRIV + "2: a(S,P) |- a(S,P) ; triv", edit=_descending), 2,
                             "line numbers must increase"),
    "deduction-empty-premises": (deduction(TRIV + "2: a(S,S) |- a(S,S) ; triv", edit=_emptied), 2,
                                 "premise set must be nonempty"),
    "deduction-empty-premises-before-justification": (
        deduction(TRIV + "2: a(S,S) |- a(S,S) ; triv",
                  edit=lambda s: _emptied(_foreign(s, CplTautology()))), 2,
        "premise set must be nonempty"),
    "deduction-not-trivial": (deduction("1: a(S,P) |- a(S,M) ; triv"), 1,
                              "trivial deductions are {x} |- x"),
    "deduction-cut-missing": (deduction(TRIV + "2: a(S,P) |- i(P,S) ; cut 3 r4"), 2,
                              "cut cites a missing line"),
    "deduction-cut-no-match": (deduction(TRIV + "2: a(S,P) |- a(S,P) ; cut 1 1 r1"), 2,
                               "cited conclusions do not match rule 1"),
    "deduction-cut-differs": (deduction(TRIV + "2: a(S,P) |- a(P,S) ; cut 1 r4"), 2,
                              "cut result differs"),
    "deduction-reductio-missing": (deduction(TRIV + "2: a(S,P) |- i(S,S) ; red 1 3"), 2,
                                   "reductio cites a missing line"),
    "deduction-reductio-no-assumption": (
        deduction(TRIV + "2: o(S,P) |- o(S,P) ; triv\n3: o(S,P) |- i(S,S) ; red 1 2"), 3,
        "first cited line does not assume the contradictory"),
    "deduction-reductio-no-refutation": (
        deduction("1: o(S,P) |- o(S,P) ; triv\n2: i(S,P) |- i(S,P) ; triv\n"
                  "3: i(S,P) |- a(S,P) ; red 1 2"), 3,
        "second cited line does not prove the contradictory"),
    "deduction-reductio-premises-differ": (
        deduction("1: o(S,P) |- o(S,P) ; triv\n2: a(S,P) |- a(S,P) ; triv\n"
                  "3: i(S,S) |- a(S,P) ; red 1 2"), 3,
        "reductio premises differ"),
    "deduction-foreign-justification": (deduction(TRIV + "2: a(S,P) |- a(S,P) ; triv",
                                                  edit=lambda s: _foreign(s, CplTautology())), 2,
                                        "unknown justification CplTautology()"),
}


@pytest.mark.parametrize("case", sorted(REASONS))
def test_rejection_reason(case):
    check, line, reason = REASONS[case]
    report = check()
    assert (report.accepted, report.failure_line, report.reason) == (False, line, reason)


def test_every_reason_is_pinned():
    # 12 Hilbert, 12 sequent and 11 deduction reasons; three have a second
    # example: the definition pool, and the checks that come first in the
    # instance version and in the deduction format.
    assert len(REASONS) == 12 + 12 + 11 + 3
