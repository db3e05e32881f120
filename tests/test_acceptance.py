"""Acceptance suite: ten criteria, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print; every criterion also asserts, so a plain pytest run fails loudly.
"""

import itertools
import time

from namecalc.core import Atom, Functor, Neg, conj, imp
from namecalc.corpus import DATA_DIR, corpus_entries
from namecalc.decide import Countermodel, Valid, decide, oracle_decide
from namecalc.parser import (
    parse_deduction_script,
    parse_formula,
    parse_proof_script,
    parse_sequent_script,
)
from namecalc.proof import Basis, check_proof, expand_definitions
from namecalc.representation import (
    atomic_agreement,
    canonical_model,
    represent,
    structure_from_model,
    verify_structure,
)
from namecalc.semantics import ModelClass, random_model
from namecalc.sequent import (
    DERIVED_RULES,
    check_expansion,
    check_sequent_proof,
    check_smiley_deduction,
    implication,
)
from namecalc.proofscript import DerivedRule, Reductio
from namecalc.systems import SYSTEMS, system


def criterion(number, description, failures, detail=""):
    status = "PASS" if not failures else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} ({description}): {status}{tail}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def is_valid(verdict):
    return isinstance(verdict, Valid)


def test_criterion_1_moods():
    start = time.monotonic()
    failures = []
    moods = [e for e in corpus_entries() if e.group == "moods"]
    if len(moods) != 24:
        failures.append(f"{len(moods)} mood entries")
    all_valid = 0
    for entry in moods:
        formula = parse_formula(entry.formula)
        if not is_valid(decide(formula, ModelClass.TRADITIONAL)):
            failures.append(f"{entry.name} not traditional-valid")
        if not is_valid(decide(formula, ModelClass.POLYREFERENTIAL)):
            failures.append(f"{entry.name} not polyreferential-valid")
        verdict = decide(formula, ModelClass.ALL)
        if is_valid(verdict):
            all_valid += 1
        elif "existential" in entry.flags:
            if not any(not v for v in verdict.model.denotation.values()):
                failures.append(f"{entry.name} countermodel has no empty name")
        else:
            failures.append(f"{entry.name} unexpectedly invalid in the unrestricted class")
    if all_valid != 15:
        failures.append(f"{all_valid} moods valid over all models, expected 15")
    elapsed = time.monotonic() - start
    if elapsed >= 10:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    criterion(1, "24 moods, 15 survive empty names", failures, f"{elapsed:.2f}s")


def test_criterion_2_axiom_soundness():
    failures = []
    checked = 0
    for sid, spec in sorted(SYSTEMS.items()):
        expand = sid.startswith(("SLU", "KAIS"))
        for schema in spec.axioms + spec.definitions + spec.extension_definitions:
            target = expand_definitions(schema.pattern, Basis.AI) if expand else schema.pattern
            for cls in spec.model_classes:
                checked += 1
                if not is_valid(decide(target, cls)):
                    failures.append(f"{sid}:{schema.name} invalid in {cls.value}")
    criterion(2, "every axiom of every system is sound", failures, f"{checked} checks")


def test_criterion_3_decide_vs_oracle():
    start = time.monotonic()
    atoms = []
    for functor in Functor:
        if functor.arity == 1:
            atoms.extend([Atom(functor, "S"), Atom(functor, "P")])
        else:
            atoms.extend([Atom(functor, "S", "P"), Atom(functor, "P", "S")])
    shapes = list(atoms)
    shapes += [Neg(atom) for atom in atoms]
    shapes += [imp(x, y) for x, y in itertools.product(atoms, repeat=2)]
    shapes += [imp(conj(x, y), z) for x, y, z in itertools.product(atoms, repeat=3)]
    failures = []
    cases = 0
    for formula in shapes:
        for cls in ModelClass:
            cases += 1
            fast = is_valid(decide(formula, cls))
            brute = is_valid(oracle_decide(formula, cls, 8))
            if fast != brute:
                failures.append(f"{formula} in {cls.value}: decide={fast} oracle={brute}")
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5min")
    criterion(3, "decide agrees with the brute-force oracle", failures,
              f"{cases} cases, {elapsed:.1f}s")


def test_criterion_4_derivation_scripts():
    failures = []
    proofs = 0
    for entry in corpus_entries():
        for script in entry.scripts:
            if not script.path.endswith(".proof"):
                continue
            proofs += 1
            parsed = parse_proof_script((DATA_DIR / script.path).read_text())
            spec = system(script.system, substitution_rule_enabled=script.substitution_rule)
            report = check_proof(spec, parsed)
            if not report.accepted:
                failures.append(f"{script.path}: line {report.failure_line} {report.reason}")
                continue
            if not is_valid(decide(parsed.conclusion, spec.model_class)):
                failures.append(f"{script.path}: conclusion invalid in {spec.model_class.value}")
    if proofs < 30:
        failures.append(f"only {proofs} Hilbert scripts")
    names = {e.name for e in corpus_entries()}
    required = {
        "ci", "ce", "asi", "conv-acc-a", "eso", "conv-acc-e", "contrariety", "subcontrariety",
        "barbari", "celaront", "cesaro", "camestros", "calemos", "darapti", "felapton",
        "fesapo", "bamalip",
        "shep-i-ex", "shep-empty-a", "shep-a-ex-i", "shep-a-ex-p", "shep-empty-e",
        "shep-o-ex", "shep-e-ex-o", "shep-e-exp-o", "shep-ex-nonex-o",
        "ish2-shis1", "ish3-shis1", "eps-chain-a", "eps-target", "slu-percent",
    }
    missing = required - names
    if missing:
        failures.append(f"missing entries: {sorted(missing)}")
    criterion(4, "derivation chains all check", failures, f"{proofs} scripts")


def test_criterion_5_sequent_kernel():
    failures = []
    for name in ("asi.seq", "ci.seq"):
        script = parse_sequent_script((DATA_DIR / "sequents" / name).read_text())
        if not check_sequent_proof(script).accepted:
            failures.append(f"{name} rejected")
    showcase = parse_sequent_script((DATA_DIR / "sequents/derived-rules.seq").read_text())
    report = check_sequent_proof(showcase)
    if not report.accepted:
        failures.append(f"derived-rules.seq rejected at {report.failure_line}")
    else:
        used = {
            line.justification.rule
            for line in showcase.lines
            if isinstance(line.justification, DerivedRule)
        }
        if used != set(DERIVED_RULES):
            failures.append(f"macros not exercised: {sorted(set(DERIVED_RULES) - used)}")
        proved = {line.index: line.sequent for line in showcase.lines}
        lines = {line.index: line for line in showcase.lines}
        for index, steps in report.expansions:
            cited = [proved[c] for c in lines[index].justification.cites]
            problem = check_expansion(cited, list(steps), lines[index].sequent)
            if problem:
                failures.append(f"line {index} expansion: {problem}")
    bridges = 0
    for entry in corpus_entries():
        if not entry.name.endswith("-bridge"):
            continue
        bridges += 1
        paths = [s.path for s in entry.scripts]
        if not any(p.endswith(".seq") for p in paths) or not any(p.endswith(".proof") for p in paths):
            failures.append(f"{entry.name} is not a paired bridge entry")
    if bridges < 5:
        failures.append(f"only {bridges} bridge pairs")
    criterion(5, "sequent kernel, macros and bridge pairs", failures)


def test_criterion_6_smiley_kernel():
    failures = []
    reductio_seen = False
    barbara_seen = False
    for entry in corpus_entries():
        if entry.group != "smiley":
            continue
        path = entry.scripts[0].path
        script = parse_deduction_script((DATA_DIR / path).read_text())
        report = check_smiley_deduction(script)
        if not report.accepted:
            failures.append(f"{path} rejected at {report.failure_line}")
            continue
        if entry.name == "barbara-ded":
            barbara_seen = True
        if any(isinstance(line.justification, Reductio) for line in script.lines):
            reductio_seen = True
        for line in script.lines:
            formula = implication(line.claim.premises, line.claim.conclusion)
            if not is_valid(decide(formula, ModelClass.TRADITIONAL)):
                failures.append(f"{path}:{line.index} not traditional-valid")
    if not barbara_seen:
        failures.append("no plain chain deduction")
    if not reductio_seen:
        failures.append("no reductio deduction")
    criterion(6, "deduction kernel with reductio", failures)


def test_criterion_7_canonical_models():
    start = time.monotonic()
    failures = []
    constructions = 0
    vocab_pool = ("S", "P", "M")
    for seed in range(500):
        vocab = list(vocab_pool[: 1 + seed % 3])
        for sid, cls in (
            ("SH", ModelClass.ALL),
            ("LUK", ModelClass.TRADITIONAL),
            ("SHIS", ModelClass.ALL),
        ):
            model = random_model(seed, vocab, cls, 4)
            for method in ("filters", "pairs"):
                constructions += 1
                built = canonical_model(model, sid, method, vocab)
                mismatches = atomic_agreement(model, built, vocab, sid == "SHIS")
                if mismatches:
                    failures.append(f"seed {seed} {sid}/{method}: {mismatches[:2]}")
    elapsed = time.monotonic() - start
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 2min")
    criterion(7, "canonical models preserve atomic truth", failures,
              f"{constructions} constructions, {elapsed:.1f}s")


def test_criterion_8_representation():
    failures = []
    for seed in range(50):
        model = random_model(seed, ("S", "P", "M"), ModelClass.ALL, 4)
        structure = structure_from_model(model, ("S", "P", "M"))
        if verify_structure(structure, "C"):
            failures.append(f"C seed {seed}: conditions violated")
            continue
        _, report = represent(structure, "C")
        if not report.ok:
            failures.append(f"C seed {seed}: {report.failures[:2]}")
    for seed in range(50):
        model = random_model(seed, ("S", "P", "M"), ModelClass.TRADITIONAL, 4)
        structure = structure_from_model(model, ("S", "P", "M"), with_eps=False)
        if verify_structure(structure, "B3"):
            failures.append(f"B3 seed {seed}: conditions violated")
            continue
        e_map, report = represent(structure, "B3")
        if not report.ok:
            failures.append(f"B3 seed {seed}: {report.failures[:2]}")
        if not all(e_map[x] for x in structure.carrier):
            failures.append(f"B3 seed {seed}: empty image")
    criterion(8, "representation maps exchange the relations", failures, "50 C + 50 B3")


def test_criterion_9_slupecki_gap():
    failures = []
    gap_formulas = [
        "i(S,P) -> i(S,S)",          # the rejected subject-existence law
        "i(S,S) -> ka(S,S)",
        "i(S,P) -> ka(S,S)",         # completion axiom one
        "ka(S,P) -> i(S,S)",         # completion axiom two
        "ka(S,P) -> ka(S,S)",
        "ka(S,P) -> ka(P,P)",
    ]
    for text in gap_formulas:
        expanded = expand_definitions(parse_formula(text), Basis.AI)
        if not is_valid(decide(expanded, ModelClass.ALL)):
            failures.append(f"{text} not valid after expansion")
    script = parse_proof_script((DATA_DIR / "scripts/slu-percent.proof").read_text())
    if not check_proof(system("SLU"), script).accepted:
        failures.append("the reflexive-consequent thesis fails to check in SLU")
    criterion(9, "strong-functor tautology gap is pinned", failures)


def test_criterion_10_singular_class_boundary():
    failures = []
    formula = parse_formula("eps(S,S) -> eps(M,M)")
    if not is_valid(decide(formula, ModelClass.NON_MONOREFERENTIAL)):
        failures.append("not valid over non-monoreferential models")
    verdict = decide(formula, ModelClass.ALL)
    if not isinstance(verdict, Countermodel):
        failures.append("unexpectedly valid over all models")
    entries = {e.name: e for e in corpus_entries()}
    boundary = entries.get("eps-class-boundary")
    if boundary is None or boundary.scripts:
        failures.append("boundary formula is missing or wrongly claimed as a thesis")
    for entry in corpus_entries():
        if entry.scripts and entry.formula == "eps(S,S) -> eps(M,M)":
            failures.append(f"{entry.name} claims a derivation for the boundary formula")
    criterion(10, "singular copula blocks the non-mono semantics", failures)
