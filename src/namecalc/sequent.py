"""Sequent-calculus kernel and the deduction-style kernel over categorical atoms.

The sequent kernel has axiomatic sequents (the instances of the traditional
axiom set, with each definition split into two one-premise sequents),
CPL-consequence axioms, binary cut, and the deduction rule.  Everything else
ships as a derived-rule macro, and no macro is trusted: a rule only proposes
plans of primitive cpl/cut/ded steps, and one replay loop turns the first plan
that reaches the stated sequent into sequent lines numbered after the cited
lines.  `check_expansion` re-checks those lines on every use with the same
line loop and rule table as a script's own lines.

The deduction kernel works over a/i/e/o atoms with four inference rules,
trivial deductions, rule cuts, and reductio; premise sets must be nonempty
(tautology claims with an empty left side are not part of this format).
Both kernels are tables of rule checks walked by ``proof.check_lines``.
"""

from __future__ import annotations

import itertools
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Optional, Union

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
from .proof import CheckReport, check_lines, is_cpl_tautology
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
    SequentLine,
    SequentScript,
    Trivial,
)
from .systems import SYSTEMS, AxiomSchema, a, e, i


def implication(premises: Iterable[Formula], conclusion: Formula) -> Formula:
    """The implication from the conjunction of the premises, in canonical
    sorted order, to the conclusion; the bare conclusion when there are none."""
    parts = sorted(premises, key=format_formula)
    return imp(conj(*parts), conclusion) if parts else conclusion


def cpl_consequence(premises: Iterable[Formula], conclusion: Formula) -> bool:
    """Propositional consequence: every Boolean assignment to the distinct
    atoms making all premises true makes the conclusion true."""
    return is_cpl_tautology(implication(premises, conclusion))


def _is(formula: Formula, op: str) -> bool:
    return isinstance(formula, Bin) and formula.op == op


def _definition_sequents(schema: AxiomSchema) -> dict[str, Sequent]:
    left, right = schema.pattern.left, schema.pattern.right
    return {
        f"{schema.name}_lr": Sequent(frozenset([left]), right),
        f"{schema.name}_rl": Sequent(frozenset([right]), left),
    }


def _axiom_sequent(pattern: Formula) -> Sequent:
    if _is(pattern, "->"):
        premises = _flatten_conj(pattern.left)
        return Sequent(frozenset(premises), pattern.right)
    return Sequent(frozenset(), pattern)


def _flatten_conj(formula: Formula) -> list[Formula]:
    if _is(formula, "&"):
        return _flatten_conj(formula.left) + _flatten_conj(formula.right)
    return [formula]


# Łukasiewicz's axioms as sequents, then each definition as two sequents.
AXIOM_SEQUENTS: dict[str, Sequent] = {
    **{schema.name: _axiom_sequent(schema.pattern) for schema in SYSTEMS["LUK"].axioms},
    **{k: v for schema in SYSTEMS["LUK"].definitions for k, v in _definition_sequents(schema).items()},
}


def _apply_subst(sequent: Sequent, subst: dict[str, str]) -> Sequent:
    return Sequent(
        frozenset(substitute(p, subst) for p in sequent.premises),
        substitute(sequent.conclusion, subst),
    )


def _match_axiom_sequent(pattern: Sequent, stated: Sequent) -> Optional[dict[str, str]]:
    """Find a substitution sending the pattern sequent onto the stated one.
    A substitution never enlarges a premise set, so a stated sequent with more
    premises than the pattern is refused before any matching."""
    if len(stated.premises) > len(pattern.premises):
        return None
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
    if not _is(stated.conclusion, "->"):
        return False
    moved = stated.conclusion.left
    return (
        source.conclusion == stated.conclusion.right
        and source.premises == stated.premises | {moved}
        and moved not in stated.premises
    )


# Derived rules.  A rule checks the shapes it needs and yields candidate
# plans; the first plan that replays to the stated sequent is its expansion.
# A plan is a list of ("cpl", premises, conclusion), ("cut", i, j) and
# ("ded", i, moved) steps, citing the context (the cited lines, then the
# steps) by absolute or negative index; STOP ends the plan early if the last
# sequent is already the stated one.  The expansion numbers the cited lines
# 1..k and the steps after them, so context index c is line c + 1.

STOP = "stop"
Plan = list
Rule = Callable[[list[Sequent], Sequent], Iterator[Plan]]


def _replay(cited: list[Sequent], plan: Plan, stated: Sequent) -> Optional[list[SequentLine]]:
    """The expansion lines of a plan, or None if a cut fails or it does not
    end at the stated sequent."""
    context, steps = list(cited), []
    for step in plan:
        if step is STOP:
            if context[-1] == stated:
                break
            continue
        kind, first, second = step
        if kind == "cpl":
            sequent, j = Sequent(frozenset(first), second), CplConsequenceAxiom()
        elif kind == "cut":
            sequent = cut_sequents(context[first], context[second])
            j = Cut(first % len(context) + 1, second % len(context) + 1)
        else:
            source, j = context[first], Deduction(first % len(context) + 1)
            sequent = Sequent(source.premises - {second}, imp(second, source.conclusion))
        if sequent is None:
            return None
        context.append(sequent)
        steps.append(SequentLine(len(context), sequent, j))
    return steps if context[-1] == stated else None


def _of(premises: Iterable[Formula], op: str) -> list[Bin]:
    """The premises whose main connective is op, in canonical sorted order."""
    return sorted((p for p in premises if _is(p, op)), key=format_formula)


def _join(premises: list[Formula], conclusion: Formula) -> Plan:
    """Two cited lines to the premises of one cpl step, cutting the second
    only if the first cut does not already give the stated sequent."""
    return [("cpl", premises, conclusion), ("cut", 0, 2), STOP, ("cut", 1, 3)]


def _and_intro_left(cited: list[Sequent], stated: Sequent) -> Iterator[Plan]:
    (src,) = cited
    for c in _of(stated.premises, "&"):
        if {c.left, c.right} <= src.premises:
            yield [("cpl", [c], c.left), ("cut", 1, 0), STOP, ("cpl", [c], c.right), ("cut", 3, 2)]


def _and_intro_right(cited: list[Sequent], stated: Sequent) -> Iterator[Plan]:
    (src,) = cited
    for c in _of(src.premises, "&"):
        yield [("cpl", [c.left, c.right], c), ("cut", 1, 0)]


def _and_combine(cited: list[Sequent], stated: Sequent) -> Iterator[Plan]:
    alpha, beta = (line.conclusion for line in cited)
    yield _join([alpha, beta], Bin("&", alpha, beta))


def _imp_unpack(cited: list[Sequent], stated: Sequent) -> Iterator[Plan]:
    (src,) = cited
    if _is(src.conclusion, "->"):
        yield [("cpl", [src.conclusion.left, src.conclusion], src.conclusion.right), ("cut", 0, 1)]


def _imp_apply(cited: list[Sequent], stated: Sequent) -> Iterator[Plan]:
    arrow, alpha = (line.conclusion for line in cited)
    if _is(arrow, "->") and arrow.left == alpha:
        yield _join([alpha, arrow], arrow.right)


def _biconditional_split(cited: list[Sequent], stated: Sequent) -> Iterator[Plan]:
    (src,) = cited
    both = src.conclusion
    if _is(both, "<->"):
        for premise, conclusion in ((both.left, both.right), (both.right, both.left)):
            yield [("cpl", [both, premise], conclusion), ("cut", 0, 1)]


def _biconditional_join(cited: list[Sequent], stated: Sequent) -> Iterator[Plan]:
    forth, back = (line.conclusion for line in cited)
    if _is(forth, "->") and back == imp(forth.right, forth.left):
        yield _join([forth, back], Bin("<->", forth.left, forth.right))


def _contraposition(wrap_alpha: bool, wrap_beta: bool) -> Rule:
    """The four contraposition rules: move a premise across the arrow with the
    matching negation pattern.  wrap_alpha: the moved premise appears negated
    in the source; wrap_beta: the source conclusion appears negated."""

    def rule(cited: list[Sequent], stated: Sequent) -> Iterator[Plan]:
        (src,) = cited
        beta = src.conclusion
        if wrap_beta and not isinstance(beta, Neg):
            return
        bare_beta = beta.operand if wrap_beta else Neg(beta)
        for moved in sorted(src.premises, key=format_formula):
            if wrap_alpha and not isinstance(moved, Neg):
                continue
            new_conclusion = moved.operand if wrap_alpha else Neg(moved)
            yield [("ded", 0, moved), ("cpl", [imp(moved, beta), bare_beta], new_conclusion),
                   ("cut", 1, 2)]

    return rule


def _disjunction_side(index: int) -> Rule:
    def rule(cited: list[Sequent], stated: Sequent) -> Iterator[Plan]:
        (src,) = cited
        for c in _of(src.premises, "|"):
            yield [("cpl", [(c.left, c.right)[index]], c), ("cut", 1, 0)]

    return rule


def _disjunction_join(cited: list[Sequent], stated: Sequent) -> Iterator[Plan]:
    left, right = cited
    omega = left.conclusion
    if omega != right.conclusion:
        return
    for c in _of(stated.premises, "|"):
        if c.left in left.premises and c.right in right.premises:
            yield [("ded", 0, c.left), ("ded", 1, c.right),
                   ("cpl", [imp(c.left, omega), imp(c.right, omega), c], omega),
                   ("cut", 2, 4), STOP, ("cut", 3, 5)]


def _bridge_to_implication(cited: list[Sequent], stated: Sequent) -> Iterator[Plan]:
    """Replace the premises one at a time by their conjunction, then move it
    across the arrow."""
    (src,) = cited
    whole = stated.conclusion
    if stated.premises or not _is(whole, "->") or whole.right != src.conclusion:
        return
    if frozenset(_flatten_conj(whole.left)) == src.premises:
        phi = whole.left
        yield [step for premise in sorted(src.premises, key=format_formula)
               for step in (("cpl", [phi], premise), ("cut", -1, -2))] + [("ded", -1, phi)]


def _bridge_to_sequent(cited: list[Sequent], stated: Sequent) -> Iterator[Plan]:
    (src,) = cited
    whole = src.conclusion
    if src.premises or not _is(whole, "->") or whole.right != stated.conclusion:
        return
    if frozenset(_flatten_conj(whole.left)) == stated.premises:
        yield [("cpl", [whole.left, whole], whole.right), ("cut", 0, 1),
               ("cpl", stated.premises, whole.left), ("cut", 3, 2)]


DERIVED_RULES: dict[str, tuple[int, Rule]] = {
    "and-intro-left": (1, _and_intro_left),
    "and-intro-right": (1, _and_intro_right),
    "and-combine": (2, _and_combine),
    "imp-unpack": (1, _imp_unpack),
    "imp-apply": (2, _imp_apply),
    "biconditional-split": (1, _biconditional_split),
    "biconditional-join": (2, _biconditional_join),
    "contraposition-1": (1, _contraposition(False, False)),
    "contraposition-2": (1, _contraposition(True, True)),
    "contraposition-3": (1, _contraposition(True, False)),
    "contraposition-4": (1, _contraposition(False, True)),
    "disjunction-left": (1, _disjunction_side(0)),
    "disjunction-right": (1, _disjunction_side(1)),
    "disjunction-join": (2, _disjunction_join),
    "bridge-to-implication": (1, _bridge_to_implication),
    "bridge-to-sequent": (1, _bridge_to_sequent),
}


def expand(rule: str, cited: list[Sequent], stated: Sequent) -> Optional[list[SequentLine]]:
    """The expansion of the first plan of the rule that replays to the stated
    sequent, or None if none does."""
    for plan in DERIVED_RULES[rule][1](cited, stated):
        steps = _replay(cited, plan, stated)
        if steps is not None:
            return steps
    return None


def check_expansion(cited: list[Sequent], steps: list[SequentLine], stated: Sequent) -> Optional[str]:
    """Re-check an expansion as sequent lines after the cited lines 1..k."""
    report = check_lines(steps, attrgetter("sequent"), _SEQUENT_RULES, given=tuple(cited))
    if not report.accepted:
        return report.reason
    if steps[-1].sequent != stated:
        return "expansion does not end at the stated sequent"
    return None


def _axiom_sequent_instance(j: LukAxiomSequent, sequent: Sequent, proved) -> Optional[str]:
    pattern = AXIOM_SEQUENTS.get(j.schema)
    if pattern is None:
        return f"unknown axiomatic sequent {j.schema}"
    if j.subst is not None:
        if _apply_subst(pattern, dict(j.subst)) != sequent:
            return f"substitution does not send {j.schema} to the stated sequent"
    elif _match_axiom_sequent(pattern, sequent) is None:
        return f"not an instance of the {j.schema} sequent"
    return None


def _consequence(j: CplConsequenceAxiom, sequent: Sequent, proved) -> Optional[str]:
    if not cpl_consequence(sequent.premises, sequent.conclusion):
        return "not a propositional consequence"
    return None


def _cut(j: Cut, sequent: Sequent, proved) -> Optional[str]:
    result = cut_sequents(proved[j.left], proved[j.right])
    if result is None:
        return "cut formula does not occur in the second premise set"
    if result != sequent:
        return "cut result differs"
    return None


def _deduction(j: Deduction, sequent: Sequent, proved) -> Optional[str]:
    return None if deduction_matches(proved[j.source], sequent) else "deduction result differs"


def _derived(j: DerivedRule, sequent: Sequent, proved) -> Union[str, tuple[SequentLine, ...]]:
    """A derived-rule line is accepted with its re-checked expansion."""
    entry = DERIVED_RULES.get(j.rule)
    if entry is None:
        return f"unknown derived rule {j.rule}"
    arity = entry[0]
    if len(j.cites) != arity or any(c not in proved for c in j.cites):
        return f"{j.rule} cites {arity} line(s)"
    cited = [proved[c] for c in j.cites]
    steps = expand(j.rule, cited, sequent)
    if steps is None:
        return f"{j.rule} does not apply"
    return check_expansion(cited, steps, sequent) or tuple(steps)


_SEQUENT_RULES = {
    LukAxiomSequent: (None, _axiom_sequent_instance),
    CplConsequenceAxiom: (None, _consequence),
    Cut: ("cut", _cut),
    Deduction: ("deduction", _deduction),
    DerivedRule: (None, _derived),
}


def check_sequent_proof(script: SequentScript) -> CheckReport:
    return check_lines(script.lines, attrgetter("sequent"), _SEQUENT_RULES)


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


def _trivial(j: Trivial, claim: DeductionClaim, proved) -> Optional[str]:
    return None if claim.premises == {claim.conclusion} else "trivial deductions are {x} |- x"


def _rule_cut(j: CutWithRule, claim: DeductionClaim, proved) -> Optional[str]:
    """The cited conclusions, in order, instantiate the premises of rule
    j.rule_id; the claim pools their premise sets under its conclusion."""
    sources = [proved[c] for c in (j.first, j.second) if c is not None]
    patterns, target = INFERENCE_RULES[j.rule_id]
    pairs = list(zip(patterns, [s.conclusion for s in sources]))
    subst = match_atoms(pairs) if len(patterns) == len(sources) else None
    if subst is None:
        return f"cited conclusions do not match rule {j.rule_id}"
    premises = frozenset().union(*(s.premises for s in sources))
    if claim != DeductionClaim(premises, substitute(target, subst)):
        return "cut result differs"
    return None


def _reductio(j: Reductio, claim: DeductionClaim, proved) -> Optional[str]:
    source, refuter = proved[j.source], proved[j.refuter]
    discharged = contradictory(claim.conclusion)
    if discharged not in source.premises:
        return "first cited line does not assume the contradictory"
    if refuter.conclusion != contradictory(source.conclusion):
        return "second cited line does not prove the contradictory"
    if claim.premises != (source.premises - {discharged}) | refuter.premises:
        return "reductio premises differ"
    return None


_DEDUCTION_RULES = {
    Trivial: (None, _trivial),
    CutWithRule: ("cut", _rule_cut),
    Reductio: ("reductio", _reductio),
}


def check_smiley_deduction(script: DeductionScript) -> CheckReport:
    return check_lines(script.lines, attrgetter("claim"), _DEDUCTION_RULES,
                       lambda claim: None if claim.premises else "premise set must be nonempty")
