#!/usr/bin/env python3
"""Regenerate the pinned corpus under src/namecalc/data/.

Every Hilbert derivation is built here, checked against its proof kernel,
decided for soundness in its system's model classes, and written out with
the manifest.  The sequent and deduction scripts are written by hand in the
data tree; they are checked and pinned in place, never rewritten.  Every
pinned formula is decided in all model classes and cross-checked against the
brute-force oracle where the letter count allows it.  This script exists so
the catalogue can be rebuilt after a format change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from namecalc.core import Formula, conj, disj, imp, letters, neg, substitute
from namecalc.corpus import check_script_text
from namecalc.decide import Valid, decide, oracle_decide
from namecalc.parser import format_formula, format_proof_script
from namecalc.proof import is_cpl_tautology
from namecalc.proofscript import AxiomInstance, CplTautology, DefInstance, Detach, ProofLine, ProofScript
from namecalc.proofscript import ProofJustification, Substitute
from namecalc.semantics import ModelClass
from namecalc.systems import SCHEMAS, a, e, eps, ex, i, ka, ke, kke, o, system

DATA = Path(__file__).resolve().parent.parent / "src" / "namecalc" / "data"


def require(holds: bool, message: str) -> None:
    """Stop with the message unless the check holds; unlike assert, this
    still runs under python -O, so no unchecked file is written."""
    if not holds:
        raise SystemExit(message)


class Script:
    """Accumulates proof lines; prop() discharges a propositional step as one
    curried tautology plus detachments."""

    def __init__(self, system_id: str, substitution_rule: bool = True, header: list[str] | None = None):
        self.system_id = system_id
        self.substitution_rule = substitution_rule
        self.header = header or []
        self.lines: list[ProofLine] = []

    def emit(self, formula: Formula, justification: ProofJustification) -> int:
        self.lines.append(ProofLine(len(self.lines) + 1, formula, justification))
        return len(self.lines)

    def formula(self, index: int) -> Formula:
        return self.lines[index - 1].formula

    def _instance(self, kind: type, name: str, kw: dict[str, str]) -> int:
        pattern = SCHEMAS[name].pattern
        moved = tuple((k, v) for k, v in sorted(kw.items()) if k != v and k in letters(pattern))
        return self.emit(substitute(pattern, kw), kind(name, moved or None))

    def ax(self, name: str, **kw: str) -> int:
        return self._instance(AxiomInstance, name, kw)

    def df(self, name: str, **kw: str) -> int:
        return self._instance(DefInstance, name, kw)

    def sub(self, source: int, **kw: str) -> int:
        return self.emit(substitute(self.formula(source), kw), Substitute(source, tuple(sorted(kw.items()))))

    def prop(self, goal: Formula, facts: list[int]) -> int:
        curried = goal
        for fact in reversed(facts):
            curried = imp(self.formula(fact), curried)
        require(is_cpl_tautology(curried), f"non-tautological step toward {format_formula(goal)}")
        line = self.emit(curried, CplTautology())
        for fact in facts:
            line = self.emit(self.formula(line).right, Detach(fact, line))
        require(self.formula(line) == goal, f"detachments do not end at {format_formula(goal)}")
        return line

    def text(self) -> str:
        head = "".join(f"# {row}\n" for row in self.header)
        return head + format_proof_script(ProofScript(tuple(self.lines)))


def finish(script: Script, path: str, expect: Formula) -> str:
    """Validate a finished script against the kernel and write it out."""
    text = script.text()
    report, formula = check_script_text(path, text, script.system_id, script.substitution_rule)
    require(report.accepted, f"{path}: rejected at {report.failure_line}: {report.reason}")
    require(formula == expect, f"{path}: wrong conclusion")
    (DATA / path).write_text(text)
    return format_formula(expect)


# Parameterized derivation idioms.

def conv(b: Script, x: str, y: str) -> int:
    """i(x,y) -> i(y,x), from the reflexive-a axiom and the shared-middle syllogism."""
    base = b.ax("Ia", S=x)
    dat = b.ax("Datisi", M=x, P=x, S=y)
    return b.prop(imp(i(x, y), i(y, x)), [base, dat])


def asi(b: Script, x: str, y: str) -> int:
    """a(x,y) -> i(x,y); needs the reflexive-i axiom."""
    base = b.ax("Ii", S=x)
    dat = b.ax("Datisi", M=x, P=y, S=x)
    return b.prop(imp(a(x, y), i(x, y)), [base, dat])


def eso(b: Script, x: str, y: str) -> int:
    sub = asi(b, x, y)
    dfe = b.df("dfE", S=x, P=y)
    dfo = b.df("dfO", S=x, P=y)
    return b.prop(imp(e(x, y), o(x, y)), [sub, dfe, dfo])


# Mood formulas: (premises, conclusion) with middle m, major p, minor s.

def mood_formula(name: str, m: str = "M", p: str = "P", s: str = "S") -> Formula:
    forms = {
        "Barbara": (conj(a(m, p), a(s, m)), a(s, p)),
        "Celarent": (conj(e(m, p), a(s, m)), e(s, p)),
        "Darii": (conj(a(m, p), i(s, m)), i(s, p)),
        "Ferio": (conj(e(m, p), i(s, m)), o(s, p)),
        "Cesare": (conj(e(p, m), a(s, m)), e(s, p)),
        "Camestres": (conj(a(p, m), e(s, m)), e(s, p)),
        "Festino": (conj(e(p, m), i(s, m)), o(s, p)),
        "Baroco": (conj(a(p, m), o(s, m)), o(s, p)),
        "Darapti": (conj(a(m, p), a(m, s)), i(s, p)),
        "Disamis": (conj(i(m, p), a(m, s)), i(s, p)),
        "Datisi": (conj(a(m, p), i(m, s)), i(s, p)),
        "Felapton": (conj(e(m, p), a(m, s)), o(s, p)),
        "Bocardo": (conj(o(m, p), a(m, s)), o(s, p)),
        "Ferison": (conj(e(m, p), i(m, s)), o(s, p)),
        "Bamalip": (conj(a(p, m), a(m, s)), i(s, p)),
        "Calemes": (conj(a(p, m), e(m, s)), e(s, p)),
        "Dimatis": (conj(i(p, m), a(m, s)), i(s, p)),
        "Fesapo": (conj(e(p, m), a(m, s)), o(s, p)),
        "Fresison": (conj(e(p, m), i(m, s)), o(s, p)),
        "Barbari": (conj(a(m, p), a(s, m)), i(s, p)),
        "Celaront": (conj(e(m, p), a(s, m)), o(s, p)),
        "Cesaro": (conj(e(p, m), a(s, m)), o(s, p)),
        "Camestros": (conj(a(p, m), e(s, m)), o(s, p)),
        "Calemos": (conj(a(p, m), e(m, s)), o(s, p)),
    }
    premises, conclusion = forms[name]
    return imp(premises, conclusion)


NON_EXISTENTIAL = (
    "Barbara", "Celarent", "Darii", "Ferio", "Cesare", "Camestres", "Festino",
    "Baroco", "Disamis", "Datisi", "Bocardo", "Ferison", "Calemes", "Dimatis",
    "Fresison",
)
EXISTENTIAL = (
    "Barbari", "Celaront", "Cesaro", "Camestros", "Calemos", "Darapti",
    "Felapton", "Fesapo", "Bamalip",
)


def build_mood(b: Script, name: str, m: str = "M", p: str = "P", s: str = "S") -> int:
    """Derivation of a mood; the non-existential ones never use the
    reflexive-i axiom."""
    goal = mood_formula(name, m, p, s)
    if name == "Barbara":
        return b.ax("Barbara", M=m, P=p, S=s)
    if name == "Datisi":
        return b.ax("Datisi", M=m, P=p, S=s)
    if name == "Darii":
        facts = [b.ax("Datisi", M=m, P=p, S=s), b.ax("Ia", S=s), b.ax("Datisi", M=s, P=s, S=m)]
    elif name == "Ferio":
        facts = [b.ax("Datisi", M=s, P=p, S=m), b.df("dfE", S=m, P=p), b.df("dfO", S=s, P=p)]
    elif name == "Celarent":
        facts = [
            b.ax("Datisi", M=s, P=m, S=p), b.ax("Ia", S=p), b.ax("Datisi", M=p, P=p, S=m),
            b.df("dfE", S=m, P=p), b.df("dfE", S=s, P=p),
        ]
    elif name == "Cesare":
        facts = [b.ax("Datisi", M=s, P=m, S=p), b.df("dfE", S=p, P=m), b.df("dfE", S=s, P=p)]
    elif name == "Camestres":
        facts = [
            b.ax("Datisi", M=p, P=m, S=s), b.ax("Ia", S=s), b.ax("Datisi", M=s, P=s, S=p),
            b.df("dfE", S=s, P=m), b.df("dfE", S=s, P=p),
        ]
    elif name == "Festino":
        facts = [
            b.ax("Datisi", M=s, P=p, S=m), b.ax("Ia", S=m), b.ax("Datisi", M=m, P=m, S=p),
            b.df("dfE", S=p, P=m), b.df("dfO", S=s, P=p),
        ]
    elif name == "Baroco":
        facts = [b.ax("Barbara", M=p, P=m, S=s), b.df("dfO", S=s, P=m), b.df("dfO", S=s, P=p)]
    elif name == "Disamis":
        facts = [b.ax("Datisi", M=m, P=s, S=p), b.ax("Ia", S=p), b.ax("Datisi", M=p, P=p, S=s)]
    elif name == "Bocardo":
        facts = [b.ax("Barbara", M=s, P=p, S=m), b.df("dfO", S=m, P=p), b.df("dfO", S=s, P=p)]
    elif name == "Ferison":
        facts = [
            b.ax("Ia", S=m), b.ax("Datisi", M=m, P=m, S=s), b.ax("Datisi", M=s, P=p, S=m),
            b.df("dfE", S=m, P=p), b.df("dfO", S=s, P=p),
        ]
    elif name == "Calemes":
        facts = [
            b.ax("Ia", S=s), b.ax("Datisi", M=s, P=s, S=p), b.ax("Datisi", M=p, P=m, S=s),
            b.ax("Datisi", M=s, P=s, S=m), b.df("dfE", S=m, P=s), b.df("dfE", S=s, P=p),
        ]
    elif name == "Dimatis":
        facts = [
            b.ax("Ia", S=p), b.ax("Datisi", M=p, P=p, S=m), b.ax("Datisi", M=m, P=s, S=p),
            b.ax("Datisi", M=p, P=p, S=s),
        ]
    elif name == "Fresison":
        facts = [
            b.ax("Ia", S=m), b.ax("Datisi", M=m, P=m, S=s), b.ax("Datisi", M=s, P=p, S=m),
            b.ax("Datisi", M=m, P=m, S=p), b.df("dfE", S=p, P=m), b.df("dfO", S=s, P=p),
        ]
    elif name == "Barbari":
        facts = [b.ax("Barbara", M=m, P=p, S=s), asi(b, s, p)]
    elif name == "Darapti":
        facts = [asi(b, m, s), b.ax("Datisi", M=m, P=p, S=s)]
    elif name == "Bamalip":
        facts = [b.ax("Barbara", M=m, P=s, S=p), asi(b, p, s), conv(b, p, s)]
    elif name == "Camestros":
        facts = [b.ax("Barbara", M=p, P=m, S=s), asi(b, s, m), b.df("dfE", S=s, P=m), b.df("dfO", S=s, P=p)]
    elif name == "Calemos":
        facts = [
            b.ax("Barbara", M=p, P=m, S=s), asi(b, s, m), conv(b, s, m),
            b.df("dfE", S=m, P=s), b.df("dfO", S=s, P=p),
        ]
    elif name == "Felapton":
        facts = [b.ax("Barbara", M=s, P=p, S=m), asi(b, m, p), b.df("dfE", S=m, P=p), b.df("dfO", S=s, P=p)]
    elif name == "Fesapo":
        facts = [
            b.ax("Barbara", M=s, P=p, S=m), asi(b, m, p), conv(b, m, p),
            b.df("dfE", S=p, P=m), b.df("dfO", S=s, P=p),
        ]
    elif name == "Celaront":
        facts = [asi(b, s, m), b.ax("Datisi", M=s, P=p, S=m), b.df("dfE", S=m, P=p), b.df("dfO", S=s, P=p)]
    elif name == "Cesaro":
        facts = [
            asi(b, s, m), b.ax("Datisi", M=s, P=p, S=m), conv(b, m, p),
            b.df("dfE", S=p, P=m), b.df("dfO", S=s, P=p),
        ]
    else:  # pragma: no cover
        raise AssertionError(name)
    return b.prop(goal, facts)


MOOD_HINTS = {
    "Barbari": "via Barbara and the subordination a->i",
    "Darapti": "via Datisi and the subordination a->i",
    "Bamalip": "via Barbara, subordination and conversion of i",
    "Camestros": "via the Barbari chain with dfE and dfO",
    "Calemos": "via the Camestros chain and conversion",
    "Felapton": "via Barbara, subordination, dfE and dfO",
    "Fesapo": "via the Felapton chain and conversion",
    "Celaront": "via the Darapti chain with dfE and dfO",
    "Cesaro": "via the Celaront chain and conversion",
}


# Entry assembly.

ENTRIES: list[dict] = []


def verdicts_for(formula: Formula) -> dict[str, str]:
    out = {}
    for cls in ModelClass:
        out[cls.value] = "valid" if isinstance(decide(formula, cls), Valid) else "invalid"
    if len(letters(formula)) <= 3:
        for cls in ModelClass:
            oracle = oracle_decide(formula, cls, 6)
            agreed = ("valid" if isinstance(oracle, Valid) else "invalid") == out[cls.value]
            require(agreed, f"oracle disagrees on {format_formula(formula)} in {cls.value}")
    return out


def add_entry(name, group, kind, formula_text, verdicts, scripts=(), flags=(), notes=""):
    entry = {
        "name": name,
        "group": group,
        "kind": kind,
        "formula": formula_text,
        "verdicts": verdicts,
    }
    if scripts:
        entry["scripts"] = [
            {"system": s[0], "path": s[1], **({"substitution_rule": False} if len(s) > 2 and not s[2] else {})}
            for s in scripts
        ]
    if flags:
        entry["flags"] = list(flags)
    if notes:
        entry["notes"] = notes
    ENTRIES.append(entry)


def hilbert_entry(name, group, system_id, goal, build, flags=(), notes="", header_extra=(), path=None):
    path = path or f"scripts/{name}.proof"
    b = Script(system_id, header=[f"{name}: {format_formula(goal)}", *header_extra])
    build(b)
    text = finish(b, path, goal)
    add_entry(name, group, "formula", text, verdicts_for(goal), [(system_id, path)], flags, notes)
    check_soundness(system_id, goal)
    return path


def check_soundness(system_id: str, goal: Formula) -> None:
    for cls in system(system_id).model_classes:
        require(isinstance(decide(goal, cls), Valid), f"{format_formula(goal)} not valid in {cls}")


def gen_moods() -> None:
    for name in NON_EXISTENTIAL + EXISTENTIAL:
        existential = name in EXISTENTIAL
        goal = mood_formula(name)
        flags = ["existential"] if existential else ["non-existential"]
        notes = ""
        if name in ("Camestros", "Calemos"):
            flags.append("printed-i-conclusion-read-as-o")
            notes = (
                "The conclusion is the particular denial; a variant printing with a "
                "particular affirmative conclusion is a known typo for this mood."
            )
        header = [MOOD_HINTS[name]] if name in MOOD_HINTS else []
        if not existential:
            header.append("derived without the reflexive-i axiom")
        lower = name.lower()
        b = Script("LUK", header=[f"{name}: {format_formula(goal)}", *header])
        build_mood(b, name)
        text = finish(b, f"scripts/{lower}.proof", goal)
        add_entry(lower, "moods", "formula", text, verdicts_for(goal), [("LUK", f"scripts/{lower}.proof")], flags, notes)
        for cls in (ModelClass.TRADITIONAL, ModelClass.POLYREFERENTIAL):
            require(isinstance(decide(goal, cls), Valid), f"{format_formula(goal)} not valid in {cls}")
        if not existential:
            body = (DATA / f"scripts/{lower}.proof").read_text()
            require("ax Ii" not in body, f"{name} must avoid the reflexive-i axiom")


def gen_square() -> None:
    hilbert_entry("ci", "square", "LUK", imp(i("P", "S"), i("S", "P")), lambda b: conv(b, "P", "S"),
                  header_extra=["conversion, via Ia and Datisi"])
    hilbert_entry("asi", "square", "LUK", imp(a("S", "P"), i("S", "P")), lambda b: asi(b, "S", "P"),
                  header_extra=["subalternation, via Ii and Datisi"])

    def ce(b):
        cv = conv(b, "S", "P")
        d1 = b.df("dfE", S="P", P="S")
        d2 = b.df("dfE")
        return b.prop(imp(e("P", "S"), e("S", "P")), [cv, d1, d2])

    hilbert_entry("ce", "square", "LUK", imp(e("P", "S"), e("S", "P")), ce,
                  header_extra=["conversion of e, via Ci and dfE"])

    def conv_acc_a(b):
        sub = asi(b, "S", "P")
        cv = conv(b, "S", "P")
        return b.prop(imp(a("S", "P"), i("P", "S")), [sub, cv])

    hilbert_entry("conv-acc-a", "square", "LUK", imp(a("S", "P"), i("P", "S")), conv_acc_a,
                  header_extra=["conversion per accidens, via aSi and Ci"])
    hilbert_entry("eso", "square", "LUK", imp(e("S", "P"), o("S", "P")), lambda b: eso(b, "S", "P"),
                  header_extra=["subalternation of denials, via aSi, dfE and dfO"])

    def conv_acc_e(b):
        cv = conv(b, "P", "S")
        d1 = b.df("dfE")
        d2 = b.df("dfE", S="P", P="S")
        sub = asi(b, "P", "S")
        d3 = b.df("dfO", S="P", P="S")
        return b.prop(imp(e("S", "P"), o("P", "S")), [cv, d1, d2, sub, d3])

    hilbert_entry("conv-acc-e", "square", "LUK", imp(e("S", "P"), o("P", "S")), conv_acc_e,
                  header_extra=["conversion per accidens of denials, via eSo and Ce"])

    def contrariety(b):
        sub = asi(b, "S", "P")
        d = b.df("dfE")
        return b.prop(imp(a("S", "P"), neg(e("S", "P"))), [sub, d])

    hilbert_entry("contrariety", "square", "LUK", imp(a("S", "P"), neg(e("S", "P"))), contrariety,
                  header_extra=["contrariety, via aSi and dfE"])

    def subcontrariety(b):
        sub = asi(b, "S", "P")
        d = b.df("dfO")
        return b.prop(imp(neg(i("S", "P")), o("S", "P")), [sub, d])

    hilbert_entry("subcontrariety", "square", "LUK", imp(neg(i("S", "P")), o("S", "P")), subcontrariety,
                  header_extra=["subcontrariety, via aSi and dfO"])
    hilbert_entry("some-s-is-s", "square", "LUK", i("S", "S"), lambda b: b.ax("Ii"),
                  notes="Generally true over nonempty names; fails once empty names are admitted.")


def gen_shepherdson() -> None:
    sid = "SH"

    def i_ex(b):
        st = b.ax("SubjEx")
        cv = conv(b, "S", "P")
        st2 = b.ax("SubjEx", S="P", P="S")
        d1, d2 = b.df("dfEx"), b.df("dfEx", S="P")
        return b.prop(imp(i("S", "P"), conj(ex("S"), ex("P"))), [st, cv, st2, d1, d2])

    hilbert_entry("shep-i-ex", "shepherdson", sid, imp(i("S", "P"), conj(ex("S"), ex("P"))), i_ex)

    hilbert_entry(
        "shep-empty-a", "shepherdson", sid, imp(neg(ex("S")), a("S", "P")),
        lambda b: b.prop(imp(neg(ex("S")), a("S", "P")), [b.ax("EmptySubjA"), b.df("dfEx")]),
    )
    hilbert_entry(
        "shep-a-ex-i", "shepherdson", sid, imp(conj(a("S", "P"), ex("S")), i("S", "P")),
        lambda b: b.prop(
            imp(conj(a("S", "P"), ex("S")), i("S", "P")), [b.ax("Datisi", M="S"), b.df("dfEx")]
        ),
    )

    def a_ex_p(b):
        dat = b.ax("Datisi", M="S")
        cv = conv(b, "S", "P")
        st2 = b.ax("SubjEx", S="P", P="S")
        d1, d2 = b.df("dfEx"), b.df("dfEx", S="P")
        return b.prop(imp(conj(a("S", "P"), ex("S")), ex("P")), [dat, cv, st2, d1, d2])

    hilbert_entry("shep-a-ex-p", "shepherdson", sid, imp(conj(a("S", "P"), ex("S")), ex("P")), a_ex_p)

    def empty_e(b):
        st = b.ax("SubjEx")
        cv = conv(b, "S", "P")
        st2 = b.ax("SubjEx", S="P", P="S")
        d1, d2, de = b.df("dfEx"), b.df("dfEx", S="P"), b.df("dfE")
        return b.prop(imp(disj(neg(ex("S")), neg(ex("P"))), e("S", "P")), [st, cv, st2, d1, d2, de])

    hilbert_entry("shep-empty-e", "shepherdson", sid,
                  imp(disj(neg(ex("S")), neg(ex("P"))), e("S", "P")), empty_e)

    hilbert_entry(
        "shep-o-ex", "shepherdson", sid, imp(o("S", "P"), ex("S")),
        lambda b: b.prop(imp(o("S", "P"), ex("S")), [b.ax("EmptySubjA"), b.df("dfO"), b.df("dfEx")]),
    )
    hilbert_entry(
        "shep-e-ex-o", "shepherdson", sid, imp(conj(e("S", "P"), ex("S")), o("S", "P")),
        lambda b: b.prop(
            imp(conj(e("S", "P"), ex("S")), o("S", "P")),
            [b.ax("Datisi", M="S"), b.df("dfEx"), b.df("dfE"), b.df("dfO")],
        ),
    )

    def e_exp_o(b):
        dat = b.ax("Datisi", M="P", P="S", S="P")
        cv = conv(b, "P", "S")
        d2 = b.df("dfEx", S="P")
        de = b.df("dfE")
        do = b.df("dfO", S="P", P="S")
        return b.prop(imp(conj(e("S", "P"), ex("P")), o("P", "S")), [dat, cv, d2, de, do])

    hilbert_entry("shep-e-exp-o", "shepherdson", sid,
                  imp(conj(e("S", "P"), ex("P")), o("P", "S")), e_exp_o)

    def ex_nonex_o(b):
        dat = b.ax("Datisi", M="S")
        cv = conv(b, "S", "P")
        st2 = b.ax("SubjEx", S="P", P="S")
        d1, d2, do = b.df("dfEx"), b.df("dfEx", S="P"), b.df("dfO")
        return b.prop(imp(conj(ex("S"), neg(ex("P"))), o("S", "P")), [dat, cv, st2, d1, d2, do])

    hilbert_entry("shep-ex-nonex-o", "shepherdson", sid,
                  imp(conj(ex("S"), neg(ex("P"))), o("S", "P")), ex_nonex_o)

    hilbert_entry(
        "shep-ka-i", "shepherdson", sid, imp(ka("S", "P"), i("S", "P")),
        lambda b: b.prop(
            imp(ka("S", "P"), i("S", "P")), [b.df("dfKa"), b.df("dfEx"), b.ax("Datisi", M="S")]
        ),
        header_extra=["subordination for the strong universal affirmative"],
    )

    def ka_ex(b):
        dk, d1, d2 = b.df("dfKa"), b.df("dfEx"), b.df("dfEx", S="P")
        dat = b.ax("Datisi", M="S")
        cv = conv(b, "S", "P")
        st2 = b.ax("SubjEx", S="P", P="S")
        return b.prop(imp(ka("S", "P"), conj(ex("S"), ex("P"))), [dk, d1, d2, dat, cv, st2])

    hilbert_entry("shep-ka-ex", "shepherdson", sid,
                  imp(ka("S", "P"), conj(ex("S"), ex("P"))), ka_ex)

    hilbert_entry(
        "shep-ke-o", "shepherdson", sid, imp(ke("S", "P"), o("S", "P")),
        lambda b: b.prop(
            imp(ke("S", "P"), o("S", "P")),
            [b.df("dfKe"), b.df("dfEx"), b.df("dfE"), b.df("dfO"), b.ax("Datisi", M="S")],
        ),
    )

    def kke_oo(b):
        dk = b.df("dfKke")
        d1, d2 = b.df("dfEx"), b.df("dfEx", S="P")
        de = b.df("dfE")
        do1, do2 = b.df("dfO"), b.df("dfO", S="P", P="S")
        dat1 = b.ax("Datisi", M="S")
        dat2 = b.ax("Datisi", M="P", P="S", S="P")
        cv = conv(b, "P", "S")
        goal = imp(kke("S", "P"), conj(o("S", "P"), o("P", "S")))
        return b.prop(goal, [dk, d1, d2, de, do1, do2, dat1, dat2, cv])

    hilbert_entry("shep-kke-oo", "shepherdson", sid,
                  imp(kke("S", "P"), conj(o("S", "P"), o("P", "S"))), kke_oo)

    def datisi_plus(b):
        f1 = b.ax("Datisi", S="Q")
        f2 = b.ax("Datisi", M="Q", P="S", S="P")
        cv = conv(b, "P", "S")
        goal = imp(conj(i("M", "Q"), a("M", "P"), a("Q", "S")), i("S", "P"))
        return b.prop(goal, [f1, f2, cv])

    hilbert_entry("datisi-plus", "shepherdson", sid,
                  imp(conj(i("M", "Q"), a("M", "P"), a("Q", "S")), i("S", "P")), datisi_plus,
                  header_extra=["polysyllogism, from Datisi alone"])

    def darapti_plus(b):
        f1 = b.ax("Datisi", S="M")
        f2 = b.ax("Datisi", P="S", S="P")
        cv = conv(b, "P", "S")
        goal = imp(conj(i("M", "M"), a("M", "P"), a("M", "S")), i("S", "P"))
        return b.prop(goal, [f1, f2, cv])

    hilbert_entry("darapti-plus", "shepherdson", sid,
                  imp(conj(i("M", "M"), a("M", "P"), a("M", "S")), i("S", "P")), darapti_plus,
                  header_extra=["polysyllogism, from Datisi alone"])


def gen_slupecki() -> None:
    dagger = imp(i("S", "P"), ka("S", "S"))
    ddagger = imp(ka("S", "P"), i("S", "S"))

    def percent(b):
        k = b.ax("kaSi", S="P", P="S")
        cv = b.ax("Ci")
        dar = b.ax("kaDarii", M="P", P="S", S="S")
        return b.prop(imp(ka("P", "S"), i("S", "S")), [k, cv, dar])

    hilbert_entry("slu-percent", "slupecki", "SLU", imp(ka("P", "S"), i("S", "S")), percent,
                  header_extra=["via kaDarii, Ci and kaSi"])

    add_entry("slu-gap-subj-ex", "slupecki", "formula", format_formula(imp(i("S", "P"), i("S", "S"))),
              verdicts_for(imp(i("S", "P"), i("S", "S"))), flags=("slu-underivable-documented",),
              notes="Valid everywhere, yet not derivable in the base strong-functor system; "
                    "non-derivability is documented, not machine-checked.")
    for name, formula in (
        ("slu-gap-i-kaself", imp(i("S", "S"), ka("S", "S"))),
        ("slu-gap-ka-kaself", imp(ka("S", "P"), ka("S", "S"))),
        ("slu-gap-ka-kapred", imp(ka("S", "P"), ka("P", "P"))),
    ):
        add_entry(name, "slupecki", "formula", format_formula(formula), verdicts_for(formula),
                  flags=("slu-underivable-documented",))

    hilbert_entry("dagger-slu-a", "slupecki", "SLU_A", dagger, lambda b: b.ax("IKaRefl"),
                  path="scripts/dagger-slu-a.proof",
                  flags=("slu-underivable-documented",),
                  notes="Axiomatic in this completion; underivable in the base system.")

    def ddagger_chain(b):
        k1 = b.ax("kaSi")
        dg = b.ax("IKaRefl")
        k2 = b.ax("kaSi", P="S")
        return b.prop(ddagger, [k1, dg, k2])

    hilbert_entry("ddagger-slu-a", "slupecki", "SLU_A", ddagger, ddagger_chain,
                  path="scripts/ddagger-slu-a.proof",
                  header_extra=["derived: kaSi, then IKaRefl, then kaSi again"])
    hilbert_entry("dagger-slu-b", "slupecki", "SLU_B", dagger, lambda b: b.ax("IKaRefl"),
                  path="scripts/dagger-slu-b.proof")
    hilbert_entry("ddagger-slu-b", "slupecki", "SLU_B", ddagger, lambda b: b.ax("KaSubjEx"),
                  path="scripts/ddagger-slu-b.proof")
    hilbert_entry("ddagger-slu-c", "slupecki", "SLU_C", ddagger, ddagger_chain,
                  path="scripts/ddagger-slu-c.proof")

    def ci_slu_c(b):
        dg = b.ax("IKaRefl", S="P", P="S")
        dat = b.ax("kaDatisi", M="P", P="P", S="S")
        return b.prop(imp(i("P", "S"), i("S", "P")), [dg, dat])

    hilbert_entry("ci-slu-c", "slupecki", "SLU_C", imp(i("P", "S"), i("S", "P")), ci_slu_c,
                  path="scripts/ci-slu-c.proof",
                  header_extra=["conversion recovered inside the completion"])

    def kasi_slu_d(b):
        dd = b.ax("KaSubjEx")
        dat = b.ax("kaDatisi", M="S")
        return b.prop(imp(ka("S", "P"), i("S", "P")), [dd, dat])

    hilbert_entry("kasi-slu-d", "slupecki", "SLU_D", imp(ka("S", "P"), i("S", "P")), kasi_slu_d,
                  path="scripts/kasi-slu-d.proof")


def gen_ontology() -> None:
    for name, schema in (("ish1-onto", "Ish1"), ("ish2-onto", "Ish2"), ("ish3-onto", "Ish3")):
        goal = SCHEMAS[schema].pattern
        hilbert_entry(name, "ontology", "ONTO", goal, lambda b, s=schema: b.ax(s))

    def ish2(b):
        isa_sm = b.ax("EpsA", P="M")
        isa_mp = b.ax("EpsA", S="M")
        barb = b.ax("Barbara")
        ish1_sm = b.ax("Ish1", P="M")
        issi = b.ax("EpsEx")
        ish1_mp = b.ax("Ish1", S="M")
        dat = b.ax("Datisi", M="S")
        lift = b.ax("EpsLift")
        goal = imp(conj(eps("M", "P"), eps("S", "M")), eps("S", "P"))
        return b.prop(goal, [isa_sm, isa_mp, barb, ish1_sm, issi, ish1_mp, dat, lift])

    hilbert_entry("ish2-shis1", "ontology", "SHIS_I",
                  imp(conj(eps("M", "P"), eps("S", "M")), eps("S", "P")), ish2,
                  header_extra=["transitivity of the copula, recovered from the lift axiom"])

    def ish3p_facts(b):
        ia_s = b.ax("Ia")
        lift_s = b.ax("EpsLift", M="S")
        ish1_ps = b.ax("Ish1", S="P", P="S")
        issi_p = b.ax("EpsEx", S="P")
        isa_ps = b.ax("EpsA", S="P", P="S")
        dat_p = b.ax("Datisi", M="P", P="S", S="P")
        cv = conv(b, "P", "S")
        return [ia_s, lift_s, ish1_ps, issi_p, isa_ps, dat_p, cv]

    def ish3p(b):
        goal = imp(conj(eps("P", "S"), eps("S", "S")), eps("S", "P"))
        return b.prop(goal, ish3p_facts(b))

    hilbert_entry("ish3p-shis1", "ontology", "SHIS_I",
                  imp(conj(eps("P", "S"), eps("S", "S")), eps("S", "P")), ish3p)

    def ish3(b):
        facts = ish3p_facts(b)
        facts.append(b.ax("Ish1", P="M"))
        goal = imp(conj(eps("P", "S"), eps("S", "M")), eps("S", "P"))
        return b.prop(goal, facts)

    hilbert_entry("ish3-shis1", "ontology", "SHIS_I",
                  imp(conj(eps("P", "S"), eps("S", "M")), eps("S", "P")), ish3)

    def thesis8(b):
        ish1_sm = b.ax("Ish1", P="M")
        isa_sm = b.ax("EpsA", P="M")
        barb = b.ax("Barbara")
        mono = b.ax("EpsMono")
        goal = imp(conj(eps("S", "M"), a("M", "P")), eps("S", "P"))
        return b.prop(goal, [ish1_sm, isa_sm, barb, mono])

    hilbert_entry("eps-chain-a", "ontology", "SHIS_II",
                  imp(conj(eps("S", "M"), a("M", "P")), eps("S", "P")), thesis8)

    def thesis9(b):
        ish1_mp = b.ax("Ish1", S="M")
        down = b.ax("EpsDown", P="M")
        isa_mp = b.ax("EpsA", S="M")
        barb = b.ax("Barbara")
        mono = b.ax("EpsMono")
        goal = imp(conj(i("S", "S"), a("S", "M"), eps("M", "P")), eps("S", "P"))
        return b.prop(goal, [ish1_mp, down, isa_mp, barb, mono])

    hilbert_entry("eps-target", "ontology", "SHIS_II",
                  imp(conj(i("S", "S"), a("S", "M"), eps("M", "P")), eps("S", "P")), thesis9)

    boundary = imp(eps("S", "S"), eps("M", "M"))
    add_entry("eps-class-boundary", "ontology", "formula", format_formula(boundary),
              verdicts_for(boundary), flags=("not-a-shis-thesis",),
              notes="Holds whenever no denotation is a singleton, so the singular-copula "
                    "systems cannot use the non-monoreferential semantics.")


def gen_variants() -> None:
    cases = [
        ("ci", imp(i("X", "Y"), i("Y", "X")), {"P": "X", "S": "Y"},
         lambda b: conv(b, "P", "S"), lambda b: conv(b, "X", "Y")),
        ("asi", imp(a("X", "Y"), i("X", "Y")), {"S": "X", "P": "Y"},
         lambda b: asi(b, "S", "P"), lambda b: asi(b, "X", "Y")),
        ("eso", imp(e("X", "Y"), o("X", "Y")), {"S": "X", "P": "Y"},
         lambda b: eso(b, "S", "P"), lambda b: eso(b, "X", "Y")),
        ("barbari", mood_formula("Barbari", "Y", "Z", "X"), {"M": "Y", "P": "Z", "S": "X"},
         lambda b: build_mood(b, "Barbari"), lambda b: build_mood(b, "Barbari", "Y", "Z", "X")),
        ("darapti", mood_formula("Darapti", "Y", "Z", "X"), {"M": "Y", "P": "Z", "S": "X"},
         lambda b: build_mood(b, "Darapti"), lambda b: build_mood(b, "Darapti", "Y", "Z", "X")),
    ]
    for name, goal, rename, build_schema, build_direct in cases:
        sub_path = f"scripts/variant-{name}-sub.proof"
        b = Script("LUK", header=[f"{name} at fresh letters, closing with the substitution rule"])
        line = build_schema(b)
        b.sub(line, **rename)
        finish(b, sub_path, goal)

        inst_path = f"scripts/variant-{name}-inst.proof"
        b2 = Script("LUK", substitution_rule=False,
                    header=[f"{name} at fresh letters, from instance axioms only"])
        build_direct(b2)
        finish(b2, inst_path, goal)
        add_entry(
            f"variant-{name}", "variants", "formula", format_formula(goal), verdicts_for(goal),
            [("LUK", sub_path), ("LUK", inst_path, False)],
            notes="Two derivations of one thesis: with the substitution rule, and in the "
                  "all-instances-as-axioms version of the same system.",
        )


def hand_written_entry(name, group, kind, paths, notes=""):
    """Pin an entry on a hand-written script in the data tree, checked in
    place and never rewritten: its formula is the one the first path proves."""
    report, formula = check_script_text(paths[0], (DATA / paths[0]).read_text())
    require(report.accepted, f"{paths[0]}: {report.failure_line} {report.reason}")
    add_entry(name, group, kind, format_formula(formula), verdicts_for(formula),
              [("LUK", path) for path in paths], notes=notes)


def gen_sequent_and_deduction() -> None:
    hand_written_entry("asi-seq", "sequent", "sequent", ["sequents/asi.seq"],
                       notes="First cut example: the subordination sequent.")
    hand_written_entry("ci-seq", "sequent", "sequent", ["sequents/ci.seq"],
                       notes="Second cut example: the conversion sequent.")
    for mood in ("barbara", "datisi", "darii", "celarent", "barbari"):
        hand_written_entry(f"{mood}-bridge", "sequent", "sequent",
                           [f"sequents/{mood}-bridge.seq", f"scripts/{mood}.proof"],
                           notes="Bridge pair: the sequent derivation and the Hilbert derivation "
                                 "close on the same implication.")
    hand_written_entry("derived-rules", "sequent", "sequent", ["sequents/derived-rules.seq"])
    for name in ("barbara", "darapti", "baroco"):
        hand_written_entry(f"{name}-ded", "smiley", "deduction", [f"deductions/{name}.ded"])


def main() -> None:
    (DATA / "scripts").mkdir(parents=True, exist_ok=True)
    gen_moods()
    gen_square()
    gen_shepherdson()
    gen_slupecki()
    gen_ontology()
    gen_variants()
    gen_sequent_and_deduction()
    manifest = {"entries": ENTRIES}
    (DATA / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n")
    hilbert = sum(
        1 for entry in ENTRIES for s in entry.get("scripts", ()) if s["path"].endswith(".proof")
    )
    print(f"{len(ENTRIES)} entries, {hilbert} Hilbert script references")


if __name__ == "__main__":
    main()
