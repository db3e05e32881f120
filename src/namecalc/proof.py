"""Hilbert-style proof checking, CPL tautology recognition, and the
definitional rewriter between functor bases.

The kernel has two rules, detachment and uniform letter substitution, plus
axiom/definition instances and a single `cpl` tag that admits any
substitution instance of a propositional tautology (checked by truth table
over the distinct atoms).  The rewriter translates through the registered
``df*`` definition schemas.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

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

    @staticmethod
    def failure(line: int, reason: str) -> "CheckReport":
        return CheckReport(False, line, reason)


OK = CheckReport(True)


def _instance_ok(schema: AxiomSchema, subst, formula: Formula) -> Optional[str]:
    if subst is None:
        if match_schema(schema.pattern, formula) is None:
            return f"not an instance of {schema.name}"
        return None
    if substitute(schema.pattern, dict(subst)) != formula:
        return f"substitution does not send {schema.name} to the stated formula"
    return None


def check_proof(system: SystemSpec, script: ProofScript) -> CheckReport:
    """Check a script line by line; the report carries the first failure."""
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
        else:  # pragma: no cover
            return CheckReport.failure(line.index, f"unknown justification {j!r}")
        proved[line.index] = line.formula
    return OK


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
