"""The Hilbert and deduction kernels against their frozen references
(``kernel_reference``), and a soundness fuzz of both, over mutants of the
corpus ``.proof`` and ``.ded`` scripts.  Mutants only reuse the corpus's own
formulas and claims, so every line they state stays within the letter cap."""

from dataclasses import replace
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import kernel_reference as reference
from namecalc.corpus import DATA_DIR, corpus_entries
from namecalc.decide import Valid, decide
from namecalc.parser import parse_deduction_script, parse_proof_script
from namecalc.proof import check_proof
from namecalc.proofscript import (
    AxiomInstance,
    CutWithRule,
    DeductionScript,
    DefInstance,
    Detach,
    ProofScript,
    Reductio,
    Substitute,
)
from namecalc.semantics import ModelClass
from namecalc.sequent import check_smiley_deduction, implication
from namecalc.systems import SCHEMAS, SYSTEMS, system

# path -> (system id, substitution rule enabled, parsed script); five
# entries share a script, so the corpus's 79 proof checks cover 74 files.
PROOFS = {
    script.path: (script.system, script.substitution_rule,
                  parse_proof_script((DATA_DIR / script.path).read_text()))
    for entry in corpus_entries()
    for script in entry.scripts
    if script.path.endswith(".proof")
}
DEDUCTIONS = {
    path.name: parse_deduction_script(path.read_text())
    for path in sorted((DATA_DIR / "deductions").glob("*.ded"))
}
LETTERS = ("S", "P", "M", "Q")


def test_the_corpus_scripts_are_all_here():
    assert (len(PROOFS), len(DEDUCTIONS)) == (74, 3)


@st.composite
def _subst(draw, subst):
    """A substitution dropped, emptied, or with one target letter changed."""
    how = draw(st.sampled_from(["drop", "empty", "retarget"]))
    if how == "drop":
        return None
    if how == "empty" or not subst:
        return ()
    k = draw(st.integers(0, len(subst) - 1))
    pairs = list(subst)
    pairs[k] = (pairs[k][0], draw(st.sampled_from(LETTERS)))
    return tuple(pairs)


def _mutate_lines(draw, lines, mutate_justification, body):
    """One to three mutations of a script's lines: a line dropped, two lines'
    bodies and justifications swapped, a line's body replaced by another's,
    or its justification mutated by mutate_justification."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        k = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["drop", "swap", "body", "justification", "justification"]))
        if how == "drop":
            del lines[k]
        elif how == "swap":
            m = draw(st.integers(0, len(lines) - 1))
            k_index, m_index = lines[k].index, lines[m].index
            lines[k], lines[m] = replace(lines[m], index=k_index), replace(lines[k], index=m_index)
        elif how == "body":
            other = draw(st.sampled_from(lines))
            lines[k] = replace(lines[k], **{body: getattr(other, body)})
        else:
            cite = st.integers(1, lines[-1].index + 1)
            lines[k] = replace(lines[k], justification=mutate_justification(draw, lines[k].justification, cite))
    return tuple(lines)


def _mutate_proof_justification(draw, j, cite):
    """Re-target mp/sub citations, perturb or drop a substitution, or swap
    the cited schema."""
    if isinstance(j, Detach):
        return Detach(draw(cite), draw(cite))
    if isinstance(j, Substitute):
        if draw(st.booleans()):
            return Substitute(draw(cite), j.subst)
        return Substitute(j.source, draw(_subst(j.subst)) or ())
    if isinstance(j, (AxiomInstance, DefInstance)):
        if draw(st.booleans()):
            return type(j)(draw(st.sampled_from(sorted(SCHEMAS))), j.subst)
        return type(j)(j.schema, draw(_subst(j.subst)))
    return j


@st.composite
def proof_mutants(draw):
    """A corpus proof script with mutated lines, checked in its own system
    or, sometimes, in another system or the other version of its own."""
    system_id, substitution_rule, script = PROOFS[draw(st.sampled_from(sorted(PROOFS)))]
    if draw(st.integers(0, 3)) == 0:
        system_id = draw(st.sampled_from(sorted(SYSTEMS)))
        substitution_rule = draw(st.booleans())
    lines = _mutate_lines(draw, script.lines, _mutate_proof_justification, "formula")
    return system(system_id, substitution_rule), ProofScript(lines)


def _mutate_deduction_justification(draw, j, cite):
    """Re-target cut/red citations or swap the Smiley rule of a cut."""
    if isinstance(j, CutWithRule):
        if draw(st.booleans()):
            return CutWithRule(j.first, j.second, draw(st.integers(1, 4)))
        return CutWithRule(draw(cite), draw(st.one_of(st.none(), cite)), j.rule_id)
    if isinstance(j, Reductio):
        return Reductio(draw(cite), draw(cite))
    return j


@st.composite
def deduction_mutants(draw):
    script = DEDUCTIONS[draw(st.sampled_from(sorted(DEDUCTIONS)))]
    return DeductionScript(_mutate_lines(draw, script.lines, _mutate_deduction_justification, "claim"))


@lru_cache(maxsize=None)
def _valid(formula, cls) -> bool:
    return isinstance(decide(formula, cls), Valid)


@pytest.mark.parametrize("path", sorted(PROOFS))
def test_proof_reports_match_the_reference_on_the_corpus(path):
    system_id, substitution_rule, script = PROOFS[path]
    spec = system(system_id, substitution_rule)
    report = check_proof(spec, script)
    assert report.accepted
    assert report == reference.check_proof(spec, script)


@pytest.mark.parametrize("name", sorted(DEDUCTIONS))
def test_deduction_reports_match_the_reference_on_the_corpus(name):
    report = check_smiley_deduction(DEDUCTIONS[name])
    assert report.accepted
    assert report == reference.check_smiley_deduction(DEDUCTIONS[name])


@settings(max_examples=1000, deadline=None)
@given(proof_mutants())
def test_proof_mutants_match_the_reference_and_are_sound(mutant):
    spec, script = mutant
    report = check_proof(spec, script)
    assert report == reference.check_proof(spec, script)
    if report.accepted:
        for line in script.lines:
            assert _valid(line.formula, spec.model_class), line.index


@settings(max_examples=500, deadline=None)
@given(deduction_mutants())
def test_deduction_mutants_match_the_reference_and_are_sound(mutant):
    report = check_smiley_deduction(mutant)
    assert report == reference.check_smiley_deduction(mutant)
    if report.accepted:
        for line in mutant.lines:
            formula = implication(line.claim.premises, line.claim.conclusion)
            assert _valid(formula, ModelClass.TRADITIONAL), line.index
