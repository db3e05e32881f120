"""The hand-written derived-rule expanders that ``sequent``'s step plans
replaced, kept as the reference ``expand`` and ``check_sequent_proof`` are
compared against: one expander per rule, each building its expansion step by
step on an ``_Expansion`` and comparing with the stated sequent itself, the
per-kind loop that re-checked expansions before they went through the
kernel's line loop, and the proof loop that calls them.  Expansion steps are
``SequentLine``s numbered after the cited lines, as in the live kernel.  Cut
and CPL consequence come from ``namecalc.sequent``, and the report from
``namecalc.proof``, so that reports from both compare equal."""

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from namecalc.core import Bin, Formula, Neg, imp
from namecalc.parser import format_formula
from namecalc.proof import CheckReport as SequentCheckReport
from namecalc.proof import GuardExceeded
from namecalc.proofscript import (
    CplConsequenceAxiom,
    Cut,
    Deduction,
    DerivedRule,
    LukAxiomSequent,
    Sequent,
    SequentLine,
    SequentScript,
)
from namecalc.sequent import (
    AXIOM_SEQUENTS,
    _apply_subst,
    _flatten_conj,
    _match_axiom_sequent,
    cpl_consequence,
    cut_sequents,
    deduction_matches,
)


@dataclass
class _Expansion:
    """The cited lines are lines 1..k of the context and each step the next
    line; the builders take and return context indices, the recorded steps
    cite line numbers (context index + 1)."""

    context: list[Sequent]
    steps: list[SequentLine] = field(default_factory=list)

    def _record(self, sequent: Sequent, justification) -> int:
        self.context.append(sequent)
        self.steps.append(SequentLine(len(self.context), sequent, justification))
        return len(self.context) - 1

    def cpl(self, premises: Iterable[Formula], conclusion: Formula) -> int:
        return self._record(Sequent(frozenset(premises), conclusion), CplConsequenceAxiom())

    def cut(self, left: int, right: int) -> Optional[int]:
        result = cut_sequents(self.context[left], self.context[right])
        if result is None:
            return None
        return self._record(result, Cut(left + 1, right + 1))

    def ded(self, source: int, moved: Formula) -> int:
        src = self.context[source]
        result = Sequent(src.premises - {moved}, imp(moved, src.conclusion))
        return self._record(result, Deduction(source + 1))

    @property
    def last(self) -> Sequent:
        return self.context[-1]


Expander = Callable[[list[Sequent], Sequent], Optional[list[SequentLine]]]


def _sorted_candidates(premises: Iterable[Formula]) -> list[Formula]:
    return sorted(premises, key=format_formula)


def _expand_and_intro_left(cited: list[Sequent], stated: Sequent) -> Optional[list[SequentLine]]:
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


def _expand_and_intro_right(cited: list[Sequent], stated: Sequent) -> Optional[list[SequentLine]]:
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


def _expand_and_combine(cited: list[Sequent], stated: Sequent) -> Optional[list[SequentLine]]:
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


def _expand_imp_unpack(cited: list[Sequent], stated: Sequent) -> Optional[list[SequentLine]]:
    (src,) = cited
    if not (isinstance(src.conclusion, Bin) and src.conclusion.op == "->"):
        return None
    alpha = src.conclusion.left
    exp = _Expansion([src])
    first = exp.cpl([alpha, src.conclusion], src.conclusion.right)
    if exp.cut(0, first) is None:
        return None
    return exp.steps if exp.last == stated else None


def _expand_imp_apply(cited: list[Sequent], stated: Sequent) -> Optional[list[SequentLine]]:
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


def _expand_biconditional_split(cited: list[Sequent], stated: Sequent) -> Optional[list[SequentLine]]:
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


def _expand_biconditional_join(cited: list[Sequent], stated: Sequent) -> Optional[list[SequentLine]]:
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

    def expand(cited: list[Sequent], stated: Sequent) -> Optional[list[SequentLine]]:
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
    def expand(cited: list[Sequent], stated: Sequent) -> Optional[list[SequentLine]]:
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


def _expand_disjunction_join(cited: list[Sequent], stated: Sequent) -> Optional[list[SequentLine]]:
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


def _expand_bridge_to_implication(cited: list[Sequent], stated: Sequent) -> Optional[list[SequentLine]]:
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


def _expand_bridge_to_sequent(cited: list[Sequent], stated: Sequent) -> Optional[list[SequentLine]]:
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


def check_expansion(cited: list[Sequent], steps: list[SequentLine], stated: Sequent) -> Optional[str]:
    """The per-kind re-check loop the kernel's line loop replaced, frozen: the
    cited lines are lines 1..k, each step is checked by the class of its
    justification with the primitive rows' reasons, and the last sequent must
    be the stated one."""
    proved = dict(enumerate(cited, 1))
    previous = len(cited)
    for step in steps:
        if step.index <= previous:
            return "line numbers must increase"
        previous = step.index
        j = step.justification
        if isinstance(j, CplConsequenceAxiom):
            try:
                if not cpl_consequence(step.sequent.premises, step.sequent.conclusion):
                    return "not a propositional consequence"
            except GuardExceeded as err:
                return str(err)
        elif isinstance(j, Cut):
            if j.left not in proved or j.right not in proved:
                return "cut cites a missing line"
            result = cut_sequents(proved[j.left], proved[j.right])
            if result is None:
                return "cut formula does not occur in the second premise set"
            if result != step.sequent:
                return "cut result differs"
        elif isinstance(j, Deduction):
            if j.source not in proved:
                return "deduction cites a missing line"
            if not deduction_matches(proved[j.source], step.sequent):
                return "deduction result differs"
        else:  # pragma: no cover
            return f"unknown expansion step {j!r}"
        proved[step.index] = step.sequent
    if [*cited, *(step.sequent for step in steps)][-1] != stated:
        return "expansion does not end at the stated sequent"
    return None


def check_sequent_proof(script: SequentScript) -> SequentCheckReport:
    proved: dict[int, Sequent] = {}
    expansions: list[tuple[int, tuple[SequentLine, ...]]] = []
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
