"""Hilbert-style proof checking, CPL tautology recognition, and the
definitional rewriter between functor bases.

The Hilbert kernel has two rules, detachment and uniform letter substitution,
plus axiom/definition instances and a single `cpl` tag that admits any
substitution instance of a propositional tautology (checked by truth table
over the distinct atoms).  Like the sequent and deduction kernels, it is a
table of rule checks walked by ``check_lines``, the one line loop of all
three.  The rewriter translates through the registered ``df*`` definition
schemas.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import partial
from operator import attrgetter
from typing import Callable, Iterable, Optional

from .core import (
    Atom,
    Bin,
    Formula,
    Functor,
    Neg,
    digit_columns,
    distinct_atoms,
    match_schema,
    substitute,
    truth,
)
from .proofscript import (
    AxiomInstance,
    CplTautology,
    DefInstance,
    Detach,
    ProofScript,
    Substitute,
)
from .systems import SCHEMAS, AxiomSchema, SystemSpec

CPL_ATOM_LIMIT = 20


class GuardExceeded(ValueError):
    pass


def is_cpl_tautology(formula: Formula) -> bool:
    """True when the formula holds under every Boolean assignment to its
    distinct atoms (each atomic name-formula counts as one propositional letter)."""
    atoms = distinct_atoms(formula)
    if len(atoms) > CPL_ATOM_LIMIT:
        raise GuardExceeded(f"{len(atoms)} distinct atoms exceed the truth-table guard")
    columns = digit_columns(2, len(atoms))
    column = {atom: columns[k][0] for k, atom in enumerate(atoms)}
    full = (1 << (1 << len(atoms))) - 1
    return truth(formula, column.__getitem__, full) == full


@dataclass(frozen=True)
class CheckReport:
    accepted: bool
    failure_line: Optional[int] = None
    reason: Optional[str] = None
    # (line, steps) per derived-rule line of a sequent proof; the steps are
    # sequent lines numbered after the cited ones, re-checked by check_lines.
    expansions: tuple = ()

    @staticmethod
    def failure(line: int, reason: str) -> "CheckReport":
        return CheckReport(False, line, reason)


class _Missing(LookupError):
    pass


class _Proved(dict):
    def __missing__(self, index: int):
        raise _Missing


def check_lines(lines: Iterable, claim_of: Callable, rules: dict, admit: Callable = lambda claim: None,
                given: tuple = ()) -> CheckReport:
    """The line loop of the three kernels and of derived-rule expansions.
    The given claims count as proved lines 1..k before the first line.  Line
    numbers must increase, admit may refuse a claim outright, and the
    justification's class picks a (noun, check) from rules.  check(j, claim,
    proved) returns a reason to reject the line, None to accept it, or a tuple
    to accept it and record (line, tuple) in the expansions.  Citing a line
    that is not proved rejects with "{noun} cites a missing line", a tripped
    guard with its message."""
    proved, expansions, previous = _Proved(enumerate(given, 1)), [], len(given)
    for line in lines:
        if line.index <= previous:
            return CheckReport.failure(line.index, "line numbers must increase")
        previous = line.index
        j, claim = line.justification, claim_of(line)
        noun, check = rules.get(type(j), (None, None))
        try:
            outcome = admit(claim) or (check(j, claim, proved) if check else f"unknown justification {j!r}")
        except _Missing:
            outcome = f"{noun} cites a missing line"
        except GuardExceeded as err:
            outcome = str(err)
        if isinstance(outcome, str):
            return CheckReport.failure(line.index, outcome)
        if outcome is not None:
            expansions.append((line.index, outcome))
        proved[line.index] = claim
    return CheckReport(True, expansions=tuple(expansions))


def _instance(system: SystemSpec, pool, j: AxiomInstance, formula: Formula, proved) -> Optional[str]:
    schema = next((s for s in pool if s.name == j.schema), None)
    if schema is None:
        return f"{j.schema} is not available in {system.id}"
    if j.subst is None:
        if match_schema(schema.pattern, formula) is None:
            return f"not an instance of {schema.name}"
    elif substitute(schema.pattern, dict(j.subst)) != formula:
        return f"substitution does not send {schema.name} to the stated formula"
    return None


def _tautology(j: CplTautology, formula: Formula, proved) -> Optional[str]:
    return None if is_cpl_tautology(formula) else "not a propositional tautology"


def _detach(j: Detach, formula: Formula, proved) -> Optional[str]:
    if proved[j.implication] != Bin("->", proved[j.antecedent], formula):
        return "cited line is not the matching implication"
    return None


def _substitution(system: SystemSpec, j: Substitute, formula: Formula, proved) -> Optional[str]:
    if not system.substitution_rule_enabled:
        return f"{system.id} (instance version) has no substitution rule"
    if substitute(proved[j.source], dict(j.subst or ())) != formula:
        return "substitution result differs"
    return None


def check_proof(system: SystemSpec, script: ProofScript) -> CheckReport:
    """Check a script line by line; the report carries the first failure."""
    definitions = system.definitions + system.extension_definitions
    return check_lines(script.lines, attrgetter("formula"), {
        AxiomInstance: (None, partial(_instance, system, system.axioms + definitions)),
        DefInstance: (None, partial(_instance, system, definitions)),
        CplTautology: (None, _tautology),
        Detach: ("detachment", _detach),
        Substitute: ("substitution", partial(_substitution, system)),
    })


class Basis(Enum):
    AI = "ai"          # target atoms: a, i (eps family untouched)
    KAI = "kai"        # target atoms: ka, i (eps family untouched)
    AIEO_FULL = "full" # target atoms: a, i, e, o (eps family untouched)


_BASIS_FUNCTORS = {
    Basis.AI: {Functor.A, Functor.I},
    Basis.KAI: {Functor.KA, Functor.I},
    Basis.AIEO_FULL: {Functor.A, Functor.I, Functor.E, Functor.O},
}

# Each derived functor is the left side of exactly one definition schema;
# i and eps are primitive and have none.
_DEFINITIONS = {
    schema.pattern.left.functor: schema.pattern
    for name, schema in SCHEMAS.items()
    if name.startswith("df")
}


def expand_definitions(formula: Formula, basis: Basis) -> Formula:
    """Rewrite every atom outside the target basis by the definition schema
    of its functor, repeatedly.  Idempotent on formulas already in the basis;
    eps atoms survive untouched."""
    if isinstance(formula, Atom):
        definition = _DEFINITIONS.get(formula.functor)
        if definition is None or formula.functor in _BASIS_FUNCTORS[basis]:
            return formula
        subst = match_schema(definition.left, formula)
        return expand_definitions(substitute(definition.right, subst), basis)
    if isinstance(formula, Neg):
        return Neg(expand_definitions(formula.operand, basis))
    return Bin(
        formula.op,
        expand_definitions(formula.left, basis),
        expand_definitions(formula.right, basis),
    )


def axioms_of(system: SystemSpec) -> list[AxiomSchema]:
    """The tabulated schema set of a system: proper axioms plus its counted
    definitions (definitional-extension equivalences are not part of it)."""
    return list(system.axioms + system.definitions)
