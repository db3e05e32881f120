"""The derived-rule step plans against the hand-written expanders they
replaced (``sequent_reference``), the kernel's rejection reasons, and a
soundness fuzz of the sequent kernel over mutants of the corpus scripts."""

from dataclasses import replace
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import sequent_reference as reference
from namecalc.core import Atom, Bin, Functor, Neg, conj, iff, imp
from namecalc.corpus import DATA_DIR
from namecalc.decide import Valid, decide
from namecalc.parser import format_formula, parse_formula, parse_sequent_script
from namecalc.proof import CheckReport
from namecalc.proofscript import CplConsequenceAxiom, Cut, Deduction, DerivedRule, Sequent, SequentScript
from namecalc.semantics import ModelClass
from namecalc.sequent import (
    DERIVED_RULES,
    check_expansion,
    check_sequent_proof,
    expand,
    implication,
)

SEQ_SCRIPTS = {
    path.name: parse_sequent_script(path.read_text())
    for path in sorted((DATA_DIR / "sequents").glob("*.seq"))
}


# Per-rule differential: the plans replay to exactly the reference's steps.

_ATOMS = [Atom(f, s, p) for f in (Functor.A, Functor.I) for s in "SP" for p in "SP"]
_small = st.sampled_from(_ATOMS + [Neg(x) for x in _ATOMS[:4]])
_formulas = st.one_of(
    _small,
    _small.map(Neg),
    st.builds(Bin, st.sampled_from(["&", "|", "->", "<->"]), _small, _small),
)
_premise_sets = st.frozensets(_small, max_size=2)


def _shapes(a, b, c, x, y):
    """Per rule, cited lines and a stated sequent shaped the way the rule
    wants them, built from formulas a, b, c and premise sets x, y."""
    s = Sequent
    return {
        "and-intro-left": ([s(x | {a, b}, c)], s(y | {Bin("&", a, b)}, c)),
        "and-intro-right": ([s(x | {Bin("&", a, b)}, c)], s(x | {a, b}, c)),
        "and-combine": ([s(x, a), s(y, b)], s(x | y, Bin("&", a, b))),
        "imp-unpack": ([s(x, imp(a, b))], s(x | {a}, b)),
        "imp-apply": ([s(x, imp(a, b)), s(y, a)], s(x | y, b)),
        "biconditional-split": ([s(x, iff(a, b))], s(x | {b}, a)),
        "biconditional-join": ([s(x, imp(a, b)), s(y, imp(b, a))], s(x | y, iff(a, b))),
        "contraposition-1": ([s(x | {a}, b)], s(x | {Neg(b)}, Neg(a))),
        "contraposition-2": ([s(x | {Neg(a)}, Neg(b))], s(x | {b}, a)),
        "contraposition-3": ([s(x | {Neg(a)}, b)], s(x | {Neg(b)}, a)),
        "contraposition-4": ([s(x | {a}, Neg(b))], s(x | {b}, Neg(a))),
        "disjunction-left": ([s(x | {Bin("|", a, b)}, c)], s(x | {a}, c)),
        "disjunction-right": ([s(x | {Bin("|", a, b)}, c)], s(x | {b}, c)),
        "disjunction-join": ([s(x | {a}, c), s(y | {b}, c)], s(x | y | {Bin("|", a, b)}, c)),
        "bridge-to-implication": (
            [s(x | {a}, c)],
            s(frozenset(), imp(conj(*sorted(x | {a}, key=format_formula)), c)),
        ),
        "bridge-to-sequent": ([s(frozenset(), imp(conj(a, *x), c))], s(x | {a}, c)),
    }


class _Recorder:
    """A stated sequent that equals nothing and records every sequent an
    expansion compares with it: the results the rule can reach from the
    cited lines."""

    def __init__(self, hint: Sequent):
        self.premises, self.conclusion, self.seen = hint.premises, hint.conclusion, []

    def __eq__(self, other):
        self.seen.append(other)
        return False

    def __ne__(self, other):
        self.seen.append(other)
        return True

    __hash__ = None


@st.composite
def _perturbed(draw, sequent: Sequent) -> Sequent:
    how = draw(st.sampled_from(["keep", "add", "drop", "conclusion", "negate", "any"]))
    if how == "add":
        return replace(sequent, premises=sequent.premises | {draw(_formulas)})
    if how == "drop" and sequent.premises:
        dropped = draw(st.sampled_from(sorted(sequent.premises, key=format_formula)))
        return replace(sequent, premises=sequent.premises - {dropped})
    if how == "conclusion":
        return replace(sequent, conclusion=draw(_formulas))
    if how == "negate":
        return replace(sequent, conclusion=Neg(sequent.conclusion))
    if how == "any":
        return Sequent(draw(_premise_sets), draw(_formulas))
    return sequent


@st.composite
def _rule_case(draw, rule: str):
    """Cited lines shaped for the rule, sometimes perturbed to reach its
    guards, and a stated sequent: a result either expansion reaches, or the
    shaped one, perturbed or not."""
    a, b, c = draw(_formulas), draw(_formulas), draw(_formulas)
    cited, hint = _shapes(a, b, c, draw(_premise_sets), draw(_premise_sets))[rule]
    cited = [draw(_perturbed(line)) if draw(st.integers(0, 2)) == 0 else line for line in cited]
    recorder = _Recorder(hint)
    assert reference.DERIVED_RULES[rule][1](cited, recorder) is None
    assert expand(rule, cited, recorder) is None
    stated = draw(st.sampled_from([hint, *recorder.seen]))
    return cited, draw(_perturbed(stated)) if draw(st.booleans()) else stated


@pytest.mark.parametrize("rule", sorted(DERIVED_RULES))
def test_expand_matches_the_reference_expander(rule):
    accepted = []

    @settings(max_examples=200, deadline=None)
    @given(_rule_case(rule))
    def check(case):
        cited, stated = case
        steps = expand(rule, cited, stated)
        assert steps == reference.DERIVED_RULES[rule][1](cited, stated)
        accepted.append(steps is not None)

    check()
    assert any(accepted), f"{rule} never accepted"


def test_the_first_plan_in_canonical_order_wins():
    # Both conjunctions of the stated premises replay to it.
    alpha, beta, omega = parse_formula("a(S,P)"), parse_formula("i(S,P)"), parse_formula("e(S,S)")
    src = Sequent(frozenset([alpha, beta, Bin("&", alpha, beta), Bin("&", beta, alpha)]), omega)
    stated = Sequent(src.premises - {alpha, beta}, omega)
    steps = expand("and-intro-left", [src], stated)
    assert steps is not None
    assert steps == reference.DERIVED_RULES["and-intro-left"][1]([src], stated)


def test_the_rule_table_keeps_names_and_arities():
    assert {name: arity for name, (arity, _) in DERIVED_RULES.items()} == {
        name: arity for name, (arity, _) in reference.DERIVED_RULES.items()
    }


# Mutants of the corpus sequent scripts.

@st.composite
def sequent_mutants(draw) -> SequentScript:
    """A corpus sequent script with one to three mutations: a rule name
    swapped, cites re-targeted, a line's body swapped for another's, or a
    line dropped."""
    lines = list(SEQ_SCRIPTS[draw(st.sampled_from(sorted(SEQ_SCRIPTS)))].lines)
    cite = st.integers(1, lines[-1].index + 1)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        line, j = lines[k], lines[k].justification
        how = draw(st.sampled_from(["rule", "cites", "body", "drop"]))
        if how == "drop":
            del lines[k]
        elif how == "body":
            lines[k] = replace(line, sequent=draw(st.sampled_from(lines)).sequent)
        elif how == "rule":
            rule = draw(st.sampled_from(sorted(DERIVED_RULES)))
            cites = j.cites if isinstance(j, DerivedRule) else tuple(
                draw(cite) for _ in range(DERIVED_RULES[rule][0])
            )
            lines[k] = replace(line, justification=DerivedRule(rule, cites))
        elif isinstance(j, Cut):
            lines[k] = replace(line, justification=Cut(draw(cite), draw(cite)))
        elif isinstance(j, Deduction):
            lines[k] = replace(line, justification=Deduction(draw(cite)))
        elif isinstance(j, DerivedRule):
            retargeted = tuple(draw(cite) for _ in j.cites)
            lines[k] = replace(line, justification=DerivedRule(j.rule, retargeted))
    return SequentScript(tuple(lines))


@pytest.mark.parametrize("name", sorted(SEQ_SCRIPTS))
def test_reports_match_the_reference_on_the_corpus(name):
    report = check_sequent_proof(SEQ_SCRIPTS[name])
    assert report.accepted
    assert report == reference.check_sequent_proof(SEQ_SCRIPTS[name])


@settings(max_examples=800, deadline=None)
@given(sequent_mutants())
def test_reports_match_the_reference_on_mutants(mutant):
    assert check_sequent_proof(mutant) == reference.check_sequent_proof(mutant)


@lru_cache(maxsize=None)
def _traditionally_valid(formula) -> bool:
    return isinstance(decide(formula, ModelClass.TRADITIONAL), Valid)


@settings(max_examples=800, deadline=None)
@given(sequent_mutants())
def test_accepted_mutants_are_sound(mutant):
    if check_sequent_proof(mutant).accepted:
        for line in mutant.lines:
            formula = implication(line.sequent.premises, line.sequent.conclusion)
            assert _traditionally_valid(formula), line.index


# Rejection reasons of derived-rule lines.

def test_unknown_derived_rule():
    text = "1: ==> a(S,S) ; luk Ia\n2: ==> a(S,S) ; rule no-such-rule 1"
    report = check_sequent_proof(parse_sequent_script(text))
    assert report == CheckReport.failure(2, "unknown derived rule no-such-rule")


@pytest.mark.parametrize("line, rule, arity", [
    ("2: ==> a(S,S) ; rule imp-apply 1", "imp-apply", 2),
    ("2: ==> a(S,S) ; rule imp-unpack 1 1", "imp-unpack", 1),
    ("2: ==> a(S,S) ; rule imp-unpack 3", "imp-unpack", 1),  # no line 3
])
def test_wrong_cite_count_or_missing_cite(line, rule, arity):
    report = check_sequent_proof(parse_sequent_script("1: ==> a(S,S) ; luk Ia\n" + line))
    assert report == CheckReport.failure(2, f"{rule} cites {arity} line(s)")


DATISI = "1: a(S,P), i(S,S) ==> i(S,P) ; luk Datisi [M:=S]\n"
DFE_LR = "1: e(S,P) ==> ~i(S,P) ; luk dfE_lr\n"
MISAPPLIED = {
    "and-intro-left": DATISI + "2: a(S,P) & e(S,S) ==> i(S,P) ; rule and-intro-left 1",
    "and-intro-right": DATISI + "2: a(S,P) ==> i(S,P) ; rule and-intro-right 1",
    "and-combine": "1: ==> a(S,S) ; luk Ia\n2: ==> i(S,S) ; luk Ii\n"
                   "3: ==> a(S,S) | i(S,S) ; rule and-combine 1 2",
    "imp-unpack": DATISI + "2: a(S,P), i(S,S) ==> i(S,P) ; rule imp-unpack 1",
    "imp-apply": "1: a(S,P) ==> i(S,S) -> a(S,P) ; cpl\n2: ==> a(S,S) ; luk Ia\n"
                 "3: a(S,P) ==> a(S,P) ; rule imp-apply 1 2",
    "biconditional-split": DATISI + "2: a(S,P) ==> i(S,P) ; rule biconditional-split 1",
    "biconditional-join": "1: ==> a(S,P) -> a(S,P) | i(S,P) ; cpl\n2: ==> a(S,P) -> a(S,P) ; cpl\n"
                          "3: ==> a(S,P) <-> a(S,P) | i(S,P) ; rule biconditional-join 1 2",
    "contraposition-1": DATISI + "2: a(S,P), ~i(S,P) ==> i(S,S) ; rule contraposition-1 1",
    "contraposition-2": DATISI + "2: a(S,P), i(S,S) ==> i(S,P) ; rule contraposition-2 1",
    "contraposition-3": "1: ~i(S,P) ==> e(S,P) ; luk dfE_rl\n"
                        "2: e(S,P) ==> i(S,P) ; rule contraposition-3 1",
    "contraposition-4": DFE_LR + "2: i(S,P) ==> e(S,P) ; rule contraposition-4 1",
    "disjunction-left": "1: e(S,P) | i(S,P) ==> e(S,P) | i(S,P) ; cpl\n"
                        "2: i(S,P) ==> e(S,P) | i(S,P) ; rule disjunction-left 1",
    "disjunction-right": "1: e(S,P) | i(S,P) ==> e(S,P) | i(S,P) ; cpl\n"
                         "2: e(S,P) ==> e(S,P) | i(S,P) ; rule disjunction-right 1",
    "disjunction-join": DFE_LR + "2: ~i(S,P) ==> ~i(S,P) ; cpl\n"
                        "3: i(S,P) | ~i(S,P) ==> ~i(S,P) ; rule disjunction-join 1 2",
    "bridge-to-implication": "1: a(M,P), a(S,M) ==> a(S,P) ; luk Barbara\n"
                             "2: ==> a(M,P) & a(S,M) -> a(M,M) ; rule bridge-to-implication 1",
    "bridge-to-sequent": "1: ==> a(S,P) & i(S,S) -> a(S,P) ; cpl\n"
                         "2: a(S,P) ==> a(S,P) ; rule bridge-to-sequent 1",
}


def test_every_rule_has_a_misapplied_example():
    assert set(MISAPPLIED) == set(DERIVED_RULES)


@pytest.mark.parametrize("rule", sorted(MISAPPLIED))
def test_misapplied_rule_does_not_apply(rule):
    misapplied = parse_sequent_script(MISAPPLIED[rule])
    report = check_sequent_proof(misapplied)
    assert report == CheckReport.failure(misapplied.lines[-1].index, f"{rule} does not apply")


# Tampered expansions: every reason of check_expansion, live and reference.

def _recorded(kind: type):
    """From derived-rules.seq, a recorded expansion with a step justified by
    the kind: the cited lines, the steps, the stated sequent and the step's
    position."""
    showcase = SEQ_SCRIPTS["derived-rules.seq"]
    proved = {line.index: line for line in showcase.lines}
    for index, steps in check_sequent_proof(showcase).expansions:
        for k, step in enumerate(steps):
            if isinstance(step.justification, kind):
                line = proved[index]
                cited = [proved[c].sequent for c in line.justification.cites]
                return cited, list(steps), line.sequent, k
    raise AssertionError(kind)


def _rechecked(cited, steps, stated):
    """check_expansion's reason, which the reference's frozen loop must share."""
    reason = check_expansion(cited, steps, stated)
    assert reason == reference.check_expansion(cited, steps, stated)
    return reason


def _tampered(kind: type, **changes):
    cited, steps, stated, k = _recorded(kind)
    assert _rechecked(cited, steps, stated) is None
    steps[k] = replace(steps[k], **changes)
    return _rechecked(cited, steps, stated)


ELSEWHERE = Sequent(frozenset([parse_formula("a(S,P)")]), parse_formula("e(S,P)"))


def test_tampered_cpl_step():
    assert _tampered(CplConsequenceAxiom, sequent=ELSEWHERE) == "not a propositional consequence"


def test_tampered_cut_step():
    assert _tampered(Cut, sequent=ELSEWHERE) == "cut result differs"


def test_tampered_ded_step():
    assert _tampered(Deduction, sequent=ELSEWHERE) == "deduction result differs"


def test_expansion_ending_elsewhere():
    cited, steps, _, _ = _recorded(Cut)
    assert _rechecked(cited, steps, ELSEWHERE) == "expansion does not end at the stated sequent"


def test_expansion_steps_are_numbered_after_the_cited_lines():
    cited, steps, _, _ = _recorded(Cut)
    assert [step.index for step in steps] == list(range(len(cited) + 1, len(cited) + len(steps) + 1))


def test_expansion_cut_citing_a_missing_line():
    cited, steps, _, _ = _recorded(Cut)
    missing = len(cited) + len(steps) + 1
    assert _tampered(Cut, justification=Cut(missing, 1)) == "cut cites a missing line"


def test_expansion_step_numbered_among_the_cited_lines():
    cited, _, _, _ = _recorded(CplConsequenceAxiom)
    assert _tampered(CplConsequenceAxiom, index=len(cited)) == "line numbers must increase"


def test_cpl_step_over_the_truth_table_guard():
    atoms = [Atom(f, s, p) for f in (Functor.A, Functor.I, Functor.E) for s in "SPM" for p in "SPM"]
    wide = Sequent(frozenset(atoms[:21]), conj(*atoms[:21]))
    assert _tampered(CplConsequenceAxiom, sequent=wide) == "21 distinct atoms exceed the truth-table guard"
