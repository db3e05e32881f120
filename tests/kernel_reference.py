"""The Hilbert and deduction kernels as they were before the shared line loop
(``proof.check_lines``): each walks its script with its own loop and an
``isinstance`` chain over justifications, kept as the reference the kernels
are compared against, with the deduction kernel's rule matcher.  The report,
the CPL check, the rule table and contradictories come from the package, so
that reports from both compare equal."""

from typing import Optional

from namecalc.core import Atom, Bin, Formula, match_atoms, match_schema, substitute
from namecalc.proof import CheckReport, GuardExceeded, is_cpl_tautology
from namecalc.proofscript import (
    AxiomInstance,
    CplTautology,
    CutWithRule,
    DefInstance,
    DeductionClaim,
    DeductionScript,
    Detach,
    ProofScript,
    Reductio,
    Substitute,
    Trivial,
)
from namecalc.sequent import INFERENCE_RULES, contradictory
from namecalc.systems import AxiomSchema, SystemSpec


def _instance_ok(schema: AxiomSchema, subst, formula: Formula) -> Optional[str]:
    if subst is None:
        if match_schema(schema.pattern, formula) is None:
            return f"not an instance of {schema.name}"
        return None
    if substitute(schema.pattern, dict(subst)) != formula:
        return f"substitution does not send {schema.name} to the stated formula"
    return None


def _match_rule(rule_id: int, conclusions: list[Atom]) -> Optional[Atom]:
    patterns, target = INFERENCE_RULES[rule_id]
    if len(patterns) != len(conclusions):
        return None
    subst = match_atoms(list(zip(patterns, conclusions)))
    if subst is None:
        return None
    result = substitute(target, subst)
    assert isinstance(result, Atom)
    return result


def check_proof(system: SystemSpec, script: ProofScript) -> CheckReport:
    proved: dict[int, Formula] = {}
    previous = 0
    for line in script.lines:
        if line.index <= previous:
            return CheckReport.failure(line.index, "line numbers must increase")
        previous = line.index
        j = line.justification
        if isinstance(j, (AxiomInstance, DefInstance)):
            pool = (
                system.definitions + system.extension_definitions
                if isinstance(j, DefInstance)
                else system.axioms + system.definitions + system.extension_definitions
            )
            schema = next((s for s in pool if s.name == j.schema), None)
            if schema is None:
                return CheckReport.failure(line.index, f"{j.schema} is not available in {system.id}")
            problem = _instance_ok(schema, j.subst, line.formula)
            if problem:
                return CheckReport.failure(line.index, problem)
        elif isinstance(j, CplTautology):
            try:
                if not is_cpl_tautology(line.formula):
                    return CheckReport.failure(line.index, "not a propositional tautology")
            except GuardExceeded as err:
                return CheckReport.failure(line.index, str(err))
        elif isinstance(j, Detach):
            if j.antecedent not in proved or j.implication not in proved:
                return CheckReport.failure(line.index, "detachment cites a missing line")
            expected = Bin("->", proved[j.antecedent], line.formula)
            if proved[j.implication] != expected:
                return CheckReport.failure(
                    line.index, "cited line is not the matching implication"
                )
        elif isinstance(j, Substitute):
            if not system.substitution_rule_enabled:
                return CheckReport.failure(
                    line.index, f"{system.id} (instance version) has no substitution rule"
                )
            if j.source not in proved:
                return CheckReport.failure(line.index, "substitution cites a missing line")
            if substitute(proved[j.source], dict(j.subst or ())) != line.formula:
                return CheckReport.failure(line.index, "substitution result differs")
        else:
            return CheckReport.failure(line.index, f"unknown justification {j!r}")
        proved[line.index] = line.formula
    return CheckReport(True)


def check_smiley_deduction(script: DeductionScript) -> CheckReport:
    proved: dict[int, DeductionClaim] = {}
    previous = 0
    for line in script.lines:
        if line.index <= previous:
            return CheckReport.failure(line.index, "line numbers must increase")
        previous = line.index
        claim = line.claim
        if not claim.premises:
            return CheckReport.failure(line.index, "premise set must be nonempty")
        j = line.justification
        if isinstance(j, Trivial):
            if claim.premises != frozenset([claim.conclusion]):
                return CheckReport.failure(line.index, "trivial deductions are {x} |- x")
        elif isinstance(j, CutWithRule):
            cites = [j.first] if j.second is None else [j.first, j.second]
            if any(c not in proved for c in cites):
                return CheckReport.failure(line.index, "cut cites a missing line")
            sources = [proved[c] for c in cites]
            conclusion = _match_rule(j.rule_id, [s.conclusion for s in sources])
            if conclusion is None:
                return CheckReport.failure(
                    line.index, f"cited conclusions do not match rule {j.rule_id}"
                )
            premises = frozenset().union(*(s.premises for s in sources))
            if claim != DeductionClaim(premises, conclusion):
                return CheckReport.failure(line.index, "cut result differs")
        elif isinstance(j, Reductio):
            if j.source not in proved or j.refuter not in proved:
                return CheckReport.failure(line.index, "reductio cites a missing line")
            source, refuter = proved[j.source], proved[j.refuter]
            discharged = contradictory(claim.conclusion)
            if discharged not in source.premises:
                return CheckReport.failure(
                    line.index, "first cited line does not assume the contradictory"
                )
            if refuter.conclusion != contradictory(source.conclusion):
                return CheckReport.failure(
                    line.index, "second cited line does not prove the contradictory"
                )
            premises = (source.premises - {discharged}) | refuter.premises
            if claim.premises != premises:
                return CheckReport.failure(line.index, "reductio premises differ")
        else:
            return CheckReport.failure(line.index, f"unknown justification {j!r}")
        proved[line.index] = claim
    return CheckReport(True)
