"""Registry of axiom schemas and axiom systems.

Schema patterns are written over the reserved letters S, P, M, Q.  An axiom
instance is any letter-for-letter substitution of a pattern.  Every system
carries its proper axioms, the definition equivalences counted as part of
its axiomatisation, and further definitional-extension equivalences that
proof scripts may cite but that do not belong to the tabulated axiom set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

from .core import Atom, Formula, Functor, conj, disj, iff, imp, neg
from .semantics import ModelClass


@dataclass(frozen=True)
class AxiomSchema:
    name: str
    pattern: Formula


a = partial(Atom, Functor.A)
i = partial(Atom, Functor.I)
e = partial(Atom, Functor.E)
o = partial(Atom, Functor.O)
ka = partial(Atom, Functor.KA)
ke = partial(Atom, Functor.KE)
kke = partial(Atom, Functor.KKE)
ceq = partial(Atom, Functor.CEQ)
deq = partial(Atom, Functor.DEQ)
ot = partial(Atom, Functor.OT)
eps = partial(Atom, Functor.EPS)
neps = partial(Atom, Functor.NEPS)
ideq = partial(Atom, Functor.IDEQ)
ex = partial(Atom, Functor.EX)


_SCHEMA_TABLE: list[AxiomSchema] = [
    # Traditional core.
    AxiomSchema("Ia", a("S", "S")),
    AxiomSchema("Ii", i("S", "S")),
    AxiomSchema("Barbara", imp(conj(a("M", "P"), a("S", "M")), a("S", "P"))),
    AxiomSchema("Datisi", imp(conj(a("M", "P"), i("M", "S")), i("S", "P"))),
    # Weak-identity replacements for Ii in the empty-name calculus.
    AxiomSchema("SubjEx", imp(i("S", "P"), i("S", "S"))),
    AxiomSchema("EmptySubjA", imp(neg(i("S", "S")), a("S", "P"))),
    # Conversion and subordination, axiomatic in the strong-functor systems.
    AxiomSchema("Ci", imp(i("P", "S"), i("S", "P"))),
    AxiomSchema("kaSi", imp(ka("S", "P"), i("S", "P"))),
    AxiomSchema("kaBarbara", imp(conj(ka("M", "P"), ka("S", "M")), ka("S", "P"))),
    AxiomSchema("kaDarii", imp(conj(ka("M", "P"), i("S", "M")), i("S", "P"))),
    AxiomSchema("kaDatisi", imp(conj(ka("M", "P"), i("M", "S")), i("S", "P"))),
    # The two completion axioms for the strong-functor systems.
    AxiomSchema("IKaRefl", imp(i("S", "P"), ka("S", "S"))),
    AxiomSchema("KaSubjEx", imp(ka("S", "P"), i("S", "S"))),
    # Singular-copula axioms.
    AxiomSchema("Ish1", imp(eps("S", "P"), eps("S", "S"))),
    AxiomSchema("Ish2", imp(conj(eps("M", "P"), eps("S", "M")), eps("S", "P"))),
    AxiomSchema("Ish3", imp(conj(eps("P", "S"), eps("S", "M")), eps("S", "P"))),
    AxiomSchema("EpsA", imp(eps("S", "P"), a("S", "P"))),
    AxiomSchema("EpsEx", imp(eps("S", "S"), i("S", "S"))),
    AxiomSchema("EpsLift", imp(conj(a("S", "M"), eps("M", "M"), i("S", "P")), eps("S", "P"))),
    AxiomSchema("EpsMono", imp(conj(eps("S", "S"), a("S", "P")), eps("S", "P"))),
    AxiomSchema("EpsToA", imp(conj(eps("S", "S"), i("S", "P")), a("S", "P"))),
    AxiomSchema("EpsDown", imp(conj(a("S", "P"), i("S", "S"), eps("P", "P")), eps("S", "S"))),
    AxiomSchema("EpsFromI", imp(conj(i("S", "P"), eps("S", "S")), eps("S", "P"))),
    AxiomSchema("EpsConv", imp(conj(a("S", "P"), eps("P", "S")), eps("S", "S"))),
    AxiomSchema("KaEpsA", imp(eps("S", "P"), ka("S", "P"))),
    AxiomSchema("KaEpsLift", imp(conj(ka("S", "M"), eps("M", "M"), i("S", "P")), eps("S", "P"))),
    # Definitions, as biconditional schemas.
    AxiomSchema("dfE", iff(e("S", "P"), neg(i("S", "P")))),
    AxiomSchema("dfO", iff(o("S", "P"), neg(a("S", "P")))),
    AxiomSchema("dfOt", iff(ot("S", "P"), neg(ka("S", "P")))),
    AxiomSchema("dfEx", iff(ex("S"), i("S", "S"))),
    AxiomSchema("dfKa", iff(ka("S", "P"), conj(ex("S"), a("S", "P")))),
    AxiomSchema("dfCeq", iff(ceq("S", "P"), conj(a("S", "P"), a("P", "S")))),
    AxiomSchema("dfDeq", iff(deq("S", "P"), conj(ka("S", "P"), ka("P", "S")))),
    AxiomSchema("dfKe", iff(ke("S", "P"), conj(ex("S"), e("S", "P")))),
    AxiomSchema("dfKke", iff(kke("S", "P"), conj(ex("S"), ex("P"), e("S", "P")))),
    AxiomSchema("dfA", iff(a("S", "P"), disj(neg(ka("S", "S")), ka("S", "P")))),
    AxiomSchema("dfNeps", iff(neps("S", "P"), conj(eps("S", "S"), neg(eps("S", "P"))))),
    AxiomSchema("dfIdeq", iff(ideq("S", "P"), conj(eps("S", "P"), eps("P", "S")))),
]

SCHEMAS: dict[str, AxiomSchema] = {s.name: s for s in _SCHEMA_TABLE}


@dataclass(frozen=True)
class SystemSpec:
    """A named axiom system: proper axioms, counted definitions, and the
    definitional-extension equivalences its proof scripts may additionally cite.
    model_classes lists the semantics the system is sound and complete for,
    primary class first."""

    id: str
    axioms: tuple[AxiomSchema, ...]
    definitions: tuple[AxiomSchema, ...]
    extension_definitions: tuple[AxiomSchema, ...]
    model_classes: tuple[ModelClass, ...]
    substitution_rule_enabled: bool = True

    @property
    def model_class(self) -> ModelClass:
        return self.model_classes[0]


def _schemas(*names: str) -> tuple[AxiomSchema, ...]:
    return tuple(SCHEMAS[n] for n in names)


_SH_EXTENSIONS = _schemas("dfEx", "dfKa", "dfCeq", "dfDeq", "dfKe", "dfKke")
_SLU_EXTENSIONS = _schemas("dfA", "dfO", "dfEx", "dfCeq", "dfDeq", "dfKe", "dfKke")
_EPS_EXTENSIONS = _schemas("dfNeps", "dfIdeq")


def _system(
    id: str,
    axioms: tuple[str, ...],
    definitions: tuple[str, ...],
    extensions: tuple[AxiomSchema, ...],
    classes: tuple[ModelClass, ...],
) -> SystemSpec:
    return SystemSpec(
        id=id,
        axioms=_schemas(*axioms),
        definitions=_schemas(*definitions),
        extension_definitions=extensions,
        model_classes=classes,
    )


_ALL = (ModelClass.ALL,)
_SLU_AXIOMS = {
    "SLU": ("Ci", "kaSi", "kaBarbara", "kaDarii"),
    "SLU_A": ("Ci", "kaSi", "kaBarbara", "kaDarii", "IKaRefl"),
    "SLU_B": ("Ci", "kaBarbara", "kaDarii", "IKaRefl", "KaSubjEx"),
    "SLU_C": ("kaSi", "kaBarbara", "IKaRefl", "kaDatisi"),
    "SLU_D": ("kaBarbara", "kaDatisi", "IKaRefl", "KaSubjEx"),
}

_SH_AXIOMS = ("Ia", "Barbara", "Datisi", "SubjEx", "EmptySubjA")
_SHIS_GROUPS = {
    "SHIS_I": ("Ish1", "EpsA", "EpsEx", "EpsLift"),
    "SHIS_II": ("Ish1", "EpsA", "EpsEx", "EpsMono", "EpsToA", "EpsDown"),
    "SHIS_III": ("Ish1", "EpsA", "EpsEx", "EpsDown", "EpsFromI"),
    "SHIS_IV": ("Ish1", "EpsA", "EpsEx", "EpsFromI", "EpsConv"),
}


def _build_registry() -> dict[str, SystemSpec]:
    systems: dict[str, SystemSpec] = {}
    systems["LUK"] = _system(
        "LUK",
        ("Ia", "Ii", "Barbara", "Datisi"),
        ("dfE", "dfO"),
        (),
        (ModelClass.TRADITIONAL, ModelClass.POLYREFERENTIAL),
    )
    systems["SH"] = _system(
        "SH",
        _SH_AXIOMS,
        ("dfE", "dfO"),
        _SH_EXTENSIONS,
        (ModelClass.ALL, ModelClass.NON_MONOREFERENTIAL),
    )
    for sid, axioms in _SLU_AXIOMS.items():
        systems[sid] = _system(sid, axioms, ("dfE", "dfOt"), _SLU_EXTENSIONS, _ALL)
    systems["ONTO"] = _system("ONTO", ("Ish1", "Ish2", "Ish3"), (), _EPS_EXTENSIONS, _ALL)
    for sid, extra in _SHIS_GROUPS.items():
        systems[sid] = _system(
            sid, _SH_AXIOMS + extra, ("dfE", "dfO"), _SH_EXTENSIONS + _EPS_EXTENSIONS, _ALL
        )
    for letter in "ABCD":
        base = _SLU_AXIOMS[f"SLU_{letter}"]
        systems[f"KAIS_{letter}"] = _system(
            f"KAIS_{letter}",
            base + ("Ish1", "KaEpsA", "KaEpsLift"),
            ("dfE", "dfOt"),
            _SLU_EXTENSIONS + _EPS_EXTENSIONS,
            _ALL,
        )
    return systems


SYSTEMS: dict[str, SystemSpec] = _build_registry()
SYSTEM_IDS = tuple(SYSTEMS)


def system(id: str, substitution_rule_enabled: bool = True) -> SystemSpec:
    """Look up a system, optionally as the all-instances-as-axioms version."""
    spec = SYSTEMS[id]
    if substitution_rule_enabled:
        return spec
    return replace(spec, substitution_rule_enabled=False)
