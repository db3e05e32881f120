"""Sequent-calculus kernel and the deduction-style kernel over categorical atoms.

The sequent kernel has axiomatic sequents (the instances of the traditional
axiom set, with each definition split into two one-premise sequents),
CPL-consequence axioms, binary cut, and the deduction rule.  Everything else
ships as a derived-rule macro whose expansion into primitive steps is
re-checked on every use; no macro is trusted.

The deduction kernel works over a/i/e/o atoms with four inference rules,
trivial deductions, rule cuts, and reductio; premise sets must be nonempty
(tautology claims with an empty left side are not part of this format).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from .core import (
    Atom,
    Bin,
    Formula,
    Functor,
    Neg,
    conj,
    imp,
    match_atoms,
    substitute,
)
from .parser import format_formula
from .proof import CheckReport, GuardExceeded, is_cpl_tautology
from .proofscript import (
    CplConsequenceAxiom,
    Cut,
    CutWithRule,
    Deduction,
    DeductionClaim,
    DeductionScript,
    DerivedRule,
    LukAxiomSequent,
    Reductio,
    Sequent,
    SequentScript,
    Trivial,
)
from .systems import SCHEMAS, a, e, i


def implication(premises: Iterable[Formula], conclusion: Formula) -> Formula:
    """The implication from the conjunction of the premises, in canonical
    sorted order, to the conclusion; the bare conclusion when there are none."""
    parts = sorted(premises, key=format_formula)
    return imp(conj(*parts), conclusion) if parts else conclusion


def cpl_consequence(premises: Iterable[Formula], conclusion: Formula) -> bool:
    """Propositional consequence: every Boolean assignment to the distinct
    atoms making all premises true makes the conclusion true."""
    return is_cpl_tautology(implication(premises, conclusion))


def _definition_sequents(name: str) -> dict[str, Sequent]:
    pattern = SCHEMAS[name].pattern
    left, right = pattern.left, pattern.right
    return {
        f"{name}_lr": Sequent(frozenset([left]), right),
        f"{name}_rl": Sequent(frozenset([right]), left),
    }


def _axiom_sequent(name: str) -> Sequent:
    pattern = SCHEMAS[name].pattern
    if isinstance(pattern, Bin) and pattern.op == "->":
        premises = _flatten_conj(pattern.left)
        return Sequent(frozenset(premises), pattern.right)
    return Sequent(frozenset(), pattern)


def _flatten_conj(formula: Formula) -> list[Formula]:
    if isinstance(formula, Bin) and formula.op == "&":
        return _flatten_conj(formula.left) + _flatten_conj(formula.right)
    return [formula]


AXIOM_SEQUENTS: dict[str, Sequent] = {
    "Ia": _axiom_sequent("Ia"),
    "Ii": _axiom_sequent("Ii"),
    "Barbara": _axiom_sequent("Barbara"),
    "Datisi": _axiom_sequent("Datisi"),
    **_definition_sequents("dfE"),
    **_definition_sequents("dfO"),
}


def _apply_subst(sequent: Sequent, subst: dict[str, str]) -> Sequent:
    return Sequent(
        frozenset(substitute(p, subst) for p in sequent.premises),
        substitute(sequent.conclusion, subst),
    )


def _match_axiom_sequent(pattern: Sequent, stated: Sequent) -> Optional[dict[str, str]]:
    """Find a substitution sending the pattern sequent onto the stated one."""
    pattern_premises = sorted(pattern.premises, key=format_formula)
    for assignment in itertools.product(stated.premises, repeat=len(pattern_premises)):
        pairs = [(pattern.conclusion, stated.conclusion), *zip(pattern_premises, assignment)]
        subst = match_atoms(pairs)
        if subst is not None and _apply_subst(pattern, subst) == stated:
            return subst
    return None


def cut_sequents(left: Sequent, right: Sequent) -> Optional[Sequent]:
    """Cut the left line's conclusion out of the right line's premise set."""
    if left.conclusion not in right.premises:
        return None
    return Sequent(left.premises | (right.premises - {left.conclusion}), right.conclusion)


def deduction_matches(source: Sequent, stated: Sequent) -> bool:
    """stated must be P ==> x -> w obtained from source = P, x ==> w."""
    if not (isinstance(stated.conclusion, Bin) and stated.conclusion.op == "->"):
        return False
    moved = stated.conclusion.left
    return (
        source.conclusion == stated.conclusion.right
        and source.premises == stated.premises | {moved}
        and moved not in stated.premises
    )


# Derived-rule macros.  Each expansion step is a sequent plus a primitive
# justification referring to a context list that starts with the cited lines.

@dataclass(frozen=True)
class ExpStep:
    sequent: Sequent
    kind: str  # "cpl" | "cut" | "ded"
    cites: tuple[int, ...] = ()


@dataclass
class _Expansion:
    context: list[Sequent]
    steps: list[ExpStep] = field(default_factory=list)

    def cpl(self, premises: Iterable[Formula], conclusion: Formula) -> int:
        self.steps.append(ExpStep(Sequent(frozenset(premises), conclusion), "cpl"))
        self.context.append(self.steps[-1].sequent)
        return len(self.context) - 1

    def cut(self, left: int, right: int) -> Optional[int]:
        result = cut_sequents(self.context[left], self.context[right])
        if result is None:
            return None
        self.steps.append(ExpStep(result, "cut", (left, right)))
        self.context.append(result)
        return len(self.context) - 1

    def ded(self, source: int, moved: Formula) -> int:
        src = self.context[source]
        result = Sequent(src.premises - {moved}, imp(moved, src.conclusion))
        self.steps.append(ExpStep(result, "ded", (source,)))
        self.context.append(result)
        return len(self.context) - 1

    @property
    def last(self) -> Sequent:
        return self.context[-1]


Expander = Callable[[list[Sequent], Sequent], Optional[list[ExpStep]]]


def _sorted_candidates(premises: Iterable[Formula]) -> list[Formula]:
    return sorted(premises, key=format_formula)


def _expand_and_intro_left(cited: list[Sequent], stated: Sequent) -> Optional[list[ExpStep]]:
    (src,) = cited
    for candidate in _sorted_candidates(stated.premises):
        if not (isinstance(candidate, Bin) and candidate.op == "&"):
            continue
        alpha, beta = candidate.left, candidate.right
        if not {alpha, beta} <= src.premises:
            continue
        exp = _Expansion([src])
        first = exp.cpl([candidate], alpha)
        mid = exp.cut(first, 0)
        if mid is None:
            continue
        if exp.last != stated:
            second = exp.cpl([candidate], beta)
            if exp.cut(second, mid) is None:
                continue
        if exp.last == stated:
            return exp.steps
    return None


def _expand_and_intro_right(cited: list[Sequent], stated: Sequent) -> Optional[list[ExpStep]]:
    (src,) = cited
    for candidate in _sorted_candidates(src.premises):
        if not (isinstance(candidate, Bin) and candidate.op == "&"):
            continue
        exp = _Expansion([src])
        first = exp.cpl([candidate.left, candidate.right], candidate)
        if exp.cut(first, 0) is None:
            continue
        if exp.last == stated:
            return exp.steps
    return None


def _expand_and_combine(cited: list[Sequent], stated: Sequent) -> Optional[list[ExpStep]]:
    left, right = cited
    alpha, beta = left.conclusion, right.conclusion
    exp = _Expansion([left, right])
    first = exp.cpl([alpha, beta], Bin("&", alpha, beta))
    mid = exp.cut(0, first)
    if mid is None:
        return None
    if exp.last != stated and exp.cut(1, mid) is None:
        return None
    return exp.steps if exp.last == stated else None


def _expand_imp_unpack(cited: list[Sequent], stated: Sequent) -> Optional[list[ExpStep]]:
    (src,) = cited
    if not (isinstance(src.conclusion, Bin) and src.conclusion.op == "->"):
        return None
    alpha = src.conclusion.left
    exp = _Expansion([src])
    first = exp.cpl([alpha, src.conclusion], src.conclusion.right)
    if exp.cut(0, first) is None:
        return None
    return exp.steps if exp.last == stated else None


def _expand_imp_apply(cited: list[Sequent], stated: Sequent) -> Optional[list[ExpStep]]:
    left, right = cited
    if not (isinstance(left.conclusion, Bin) and left.conclusion.op == "->"):
        return None
    if left.conclusion.left != right.conclusion:
        return None
    exp = _Expansion([left, right])
    first = exp.cpl([right.conclusion, left.conclusion], left.conclusion.right)
    mid = exp.cut(0, first)
    if mid is None:
        return None
    if exp.last != stated and exp.cut(1, mid) is None:
        return None
    return exp.steps if exp.last == stated else None


def _expand_biconditional_split(cited: list[Sequent], stated: Sequent) -> Optional[list[ExpStep]]:
    (src,) = cited
    if not (isinstance(src.conclusion, Bin) and src.conclusion.op == "<->"):
        return None
    alpha, beta = src.conclusion.left, src.conclusion.right
    for premise, conclusion in ((alpha, beta), (beta, alpha)):
        exp = _Expansion([src])
        first = exp.cpl([src.conclusion, premise], conclusion)
        if exp.cut(0, first) is None:
            continue
        if exp.last == stated:
            return exp.steps
    return None


def _expand_biconditional_join(cited: list[Sequent], stated: Sequent) -> Optional[list[ExpStep]]:
    left, right = cited
    for node in (left.conclusion, right.conclusion):
        if not (isinstance(node, Bin) and node.op == "->"):
            return None
    alpha, beta = left.conclusion.left, left.conclusion.right
    if right.conclusion != imp(beta, alpha):
        return None
    exp = _Expansion([left, right])
    first = exp.cpl([left.conclusion, right.conclusion], Bin("<->", alpha, beta))
    mid = exp.cut(0, first)
    if mid is None:
        return None
    if exp.last != stated and exp.cut(1, mid) is None:
        return None
    return exp.steps if exp.last == stated else None


def _make_contraposition(wrap_alpha: bool, wrap_beta: bool) -> Expander:
    """The four contraposition rules: move a premise across the arrow with the
    matching negation pattern.  wrap_alpha: the moved premise appears negated
    in the source; wrap_beta: the source conclusion appears negated."""

    def expand(cited: list[Sequent], stated: Sequent) -> Optional[list[ExpStep]]:
        (src,) = cited
        beta = src.conclusion
        if wrap_beta:
            if not isinstance(beta, Neg):
                return None
            bare_beta = beta.operand
        else:
            bare_beta = Neg(beta)
        # premise of the result: bare_beta; conclusion: alpha moved across
        for moved in _sorted_candidates(src.premises):
            if wrap_alpha and not isinstance(moved, Neg):
                continue
            new_conclusion = moved.operand if wrap_alpha else Neg(moved)
            exp = _Expansion([src])
            step = exp.ded(0, moved)
            first = exp.cpl([exp.context[step].conclusion, bare_beta], new_conclusion)
            if exp.cut(step, first) is None:
                continue
            if exp.last == stated:
                return exp.steps
        return None

    return expand


def _expand_disjunction_side(index: int) -> Expander:
    def expand(cited: list[Sequent], stated: Sequent) -> Optional[list[ExpStep]]:
        (src,) = cited
        for candidate in _sorted_candidates(src.premises):
            if not (isinstance(candidate, Bin) and candidate.op == "|"):
                continue
            part = (candidate.left, candidate.right)[index]
            exp = _Expansion([src])
            first = exp.cpl([part], candidate)
            if exp.cut(first, 0) is None:
                continue
            if exp.last == stated:
                return exp.steps
        return None

    return expand


def _expand_disjunction_join(cited: list[Sequent], stated: Sequent) -> Optional[list[ExpStep]]:
    left, right = cited
    if left.conclusion != right.conclusion:
        return None
    omega = left.conclusion
    for candidate in _sorted_candidates(stated.premises):
        if not (isinstance(candidate, Bin) and candidate.op == "|"):
            continue
        alpha, beta = candidate.left, candidate.right
        if alpha not in left.premises or beta not in right.premises:
            continue
        exp = _Expansion([left, right])
        dl = exp.ded(0, alpha)
        dr = exp.ded(1, beta)
        first = exp.cpl(
            [exp.context[dl].conclusion, exp.context[dr].conclusion, candidate], omega
        )
        mid = exp.cut(dl, first)
        if mid is None:
            continue
        if exp.last != stated and exp.cut(dr, mid) is None:
            continue
        if exp.last == stated:
            return exp.steps
    return None


def _expand_bridge_to_implication(cited: list[Sequent], stated: Sequent) -> Optional[list[ExpStep]]:
    (src,) = cited
    if stated.premises or not (isinstance(stated.conclusion, Bin) and stated.conclusion.op == "->"):
        return None
    phi, omega = stated.conclusion.left, stated.conclusion.right
    if omega != src.conclusion or frozenset(_flatten_conj(phi)) != src.premises:
        return None
    exp = _Expansion([src])
    current = 0
    for premise in _sorted_candidates(src.premises):
        step = exp.cpl([phi], premise)
        current = exp.cut(step, current)
        if current is None:
            return None
    if exp.context[current] != Sequent(frozenset([phi]), omega):
        return None
    exp.ded(current, phi)
    return exp.steps if exp.last == stated else None


def _expand_bridge_to_sequent(cited: list[Sequent], stated: Sequent) -> Optional[list[ExpStep]]:
    (src,) = cited
    if src.premises or not (isinstance(src.conclusion, Bin) and src.conclusion.op == "->"):
        return None
    phi, omega = src.conclusion.left, src.conclusion.right
    if omega != stated.conclusion or frozenset(_flatten_conj(phi)) != stated.premises:
        return None
    exp = _Expansion([src])
    body = exp.cpl([phi, src.conclusion], omega)
    mid = exp.cut(0, body)
    if mid is None:
        return None
    collect = exp.cpl(stated.premises, phi)
    if exp.cut(collect, mid) is None:
        return None
    return exp.steps if exp.last == stated else None


DERIVED_RULES: dict[str, tuple[int, Expander]] = {
    "and-intro-left": (1, _expand_and_intro_left),
    "and-intro-right": (1, _expand_and_intro_right),
    "and-combine": (2, _expand_and_combine),
    "imp-unpack": (1, _expand_imp_unpack),
    "imp-apply": (2, _expand_imp_apply),
    "biconditional-split": (1, _expand_biconditional_split),
    "biconditional-join": (2, _expand_biconditional_join),
    "contraposition-1": (1, _make_contraposition(False, False)),
    "contraposition-2": (1, _make_contraposition(True, True)),
    "contraposition-3": (1, _make_contraposition(True, False)),
    "contraposition-4": (1, _make_contraposition(False, True)),
    "disjunction-left": (1, _expand_disjunction_side(0)),
    "disjunction-right": (1, _expand_disjunction_side(1)),
    "disjunction-join": (2, _expand_disjunction_join),
    "bridge-to-implication": (1, _expand_bridge_to_implication),
    "bridge-to-sequent": (1, _expand_bridge_to_sequent),
}


def check_expansion(cited: list[Sequent], steps: list[ExpStep], stated: Sequent) -> Optional[str]:
    """Re-verify an expansion with the primitive checkers only."""
    context = list(cited)
    for step in steps:
        if step.kind == "cpl":
            try:
                if not cpl_consequence(step.sequent.premises, step.sequent.conclusion):
                    return "expansion step is not a propositional consequence"
            except GuardExceeded as err:
                return str(err)
        elif step.kind == "cut":
            left, right = step.cites
            if cut_sequents(context[left], context[right]) != step.sequent:
                return "expansion cut does not produce the recorded sequent"
        elif step.kind == "ded":
            if not deduction_matches(context[step.cites[0]], step.sequent):
                return "expansion deduction step does not match"
        else:  # pragma: no cover
            return f"unknown expansion step {step.kind}"
        context.append(step.sequent)
    if context[-1] != stated:
        return "expansion does not end at the stated sequent"
    return None


@dataclass(frozen=True)
class SequentCheckReport:
    accepted: bool
    failure_line: Optional[int] = None
    reason: Optional[str] = None
    expansions: tuple[tuple[int, tuple[ExpStep, ...]], ...] = ()

    @staticmethod
    def failure(line: int, reason: str) -> "SequentCheckReport":
        return SequentCheckReport(False, line, reason)


def check_sequent_proof(script: SequentScript) -> SequentCheckReport:
    proved: dict[int, Sequent] = {}
    expansions: list[tuple[int, tuple[ExpStep, ...]]] = []
    previous = 0
    for line in script.lines:
        if line.index <= previous:
            return SequentCheckReport.failure(line.index, "line numbers must increase")
        previous = line.index
        j = line.justification
        if isinstance(j, LukAxiomSequent):
            pattern = AXIOM_SEQUENTS.get(j.schema)
            if pattern is None:
                return SequentCheckReport.failure(line.index, f"unknown axiomatic sequent {j.schema}")
            if j.subst is not None:
                if _apply_subst(pattern, dict(j.subst)) != line.sequent:
                    return SequentCheckReport.failure(
                        line.index, f"substitution does not send {j.schema} to the stated sequent"
                    )
            elif _match_axiom_sequent(pattern, line.sequent) is None:
                return SequentCheckReport.failure(
                    line.index, f"not an instance of the {j.schema} sequent"
                )
        elif isinstance(j, CplConsequenceAxiom):
            try:
                if not cpl_consequence(line.sequent.premises, line.sequent.conclusion):
                    return SequentCheckReport.failure(
                        line.index, "not a propositional consequence"
                    )
            except GuardExceeded as err:
                return SequentCheckReport.failure(line.index, str(err))
        elif isinstance(j, Cut):
            if j.left not in proved or j.right not in proved:
                return SequentCheckReport.failure(line.index, "cut cites a missing line")
            result = cut_sequents(proved[j.left], proved[j.right])
            if result is None:
                return SequentCheckReport.failure(
                    line.index, "cut formula does not occur in the second premise set"
                )
            if result != line.sequent:
                return SequentCheckReport.failure(line.index, "cut result differs")
        elif isinstance(j, Deduction):
            if j.source not in proved:
                return SequentCheckReport.failure(line.index, "deduction cites a missing line")
            if not deduction_matches(proved[j.source], line.sequent):
                return SequentCheckReport.failure(line.index, "deduction result differs")
        elif isinstance(j, DerivedRule):
            entry = DERIVED_RULES.get(j.rule)
            if entry is None:
                return SequentCheckReport.failure(line.index, f"unknown derived rule {j.rule}")
            arity, expander = entry
            if len(j.cites) != arity or any(c not in proved for c in j.cites):
                return SequentCheckReport.failure(line.index, f"{j.rule} cites {arity} line(s)")
            cited = [proved[c] for c in j.cites]
            steps = expander(cited, line.sequent)
            if steps is None:
                return SequentCheckReport.failure(line.index, f"{j.rule} does not apply")
            problem = check_expansion(cited, steps, line.sequent)
            if problem:
                return SequentCheckReport.failure(line.index, problem)
            expansions.append((line.index, tuple(steps)))
        else:  # pragma: no cover
            return SequentCheckReport.failure(line.index, f"unknown justification {j!r}")
        proved[line.index] = line.sequent
    return SequentCheckReport(True, expansions=tuple(expansions))


# Deduction kernel over categorical atoms.

_CONTRADICTORY = {
    Functor.A: Functor.O,
    Functor.O: Functor.A,
    Functor.I: Functor.E,
    Functor.E: Functor.I,
}


def contradictory(formula: Atom) -> Atom:
    """Swap a<->o and i<->e on the same letter pair."""
    if not isinstance(formula, Atom) or formula.functor not in _CONTRADICTORY:
        raise ValueError("contradictories are defined for a/i/e/o atoms only")
    return Atom(_CONTRADICTORY[formula.functor], formula.subject, formula.predicate)


INFERENCE_RULES: dict[int, tuple[tuple[Atom, ...], Atom]] = {
    1: ((a("S", "M"), a("M", "P")), a("S", "P")),
    2: ((a("S", "M"), e("M", "P")), e("S", "P")),
    3: ((e("P", "S"),), e("S", "P")),
    4: ((a("P", "S"),), i("S", "P")),
}


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
        else:  # pragma: no cover
            return CheckReport.failure(line.index, f"unknown justification {j!r}")
        proved[line.index] = claim
    return CheckReport(True)
