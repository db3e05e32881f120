"""The pinned catalogue: named formulas with expected verdicts per model
class, plus machine-checked derivation scripts in the systems that prove them.

Entries live in data/manifest.json; scripts live in the data tree in the
script formats defined by the parser.  ``run_corpus`` re-derives every pinned
verdict with the decision procedure and re-checks every script through
``check_script_text``, the one per-format check, reporting mismatches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Optional

from .core import letters
from .decide import Valid, decide
from .parser import (
    ParseError,
    format_formula,
    parse_deduction_script,
    parse_formula,
    parse_proof_script,
    parse_sequent_script,
)
from .proof import check_proof
from .semantics import ModelClass, evaluate, in_class
from .sequent import check_sequent_proof, check_smiley_deduction, implication
from .systems import system

DATA_DIR = Path(__file__).parent / "data"

GROUPS = ("moods", "square", "shepherdson", "slupecki", "ontology", "variants", "sequent", "smiley")


@dataclass(frozen=True)
class CorpusScript:
    system: str
    path: str
    substitution_rule: bool = True


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    group: str
    kind: str  # "formula" | "sequent" | "deduction"
    formula: str
    verdicts: dict[str, str]  # model-class value -> "valid" | "invalid"
    scripts: tuple[CorpusScript, ...] = ()
    flags: tuple[str, ...] = ()
    notes: str = ""


@lru_cache(maxsize=1)
def _manifest(path: Path, mtime_ns: int, size: int) -> dict:
    """The decoded manifest at ``path``, for the version of the file that
    has this modification time and size.  Only the last one read is kept,
    and no caller gets it: ``corpus_entries`` builds entries from it."""
    return json.loads(path.read_text())


def corpus_entries(data_dir: Optional[Path] = None, selection: Optional[str] = None) -> list[CorpusEntry]:
    """The manifest's entries in order; a selection keeps one group's, and
    only those are built.  The manifest is decoded once per version of the
    file, which its path, modification time and size name, so an edit is
    read by the next call; an edit within one tick of the file system's
    clock that keeps the size is not.  The entries are new on every call,
    so no two callers share one or its ``verdicts``."""
    path = (data_dir or DATA_DIR) / "manifest.json"
    stat = path.stat()
    payload = _manifest(path, stat.st_mtime_ns, stat.st_size)
    entries = []
    for item in payload["entries"]:
        if selection is not None and item["group"] != selection:
            continue
        entries.append(
            CorpusEntry(
                name=item["name"],
                group=item["group"],
                kind=item["kind"],
                formula=item["formula"],
                verdicts=dict(item.get("verdicts", {})),
                scripts=tuple(
                    CorpusScript(s["system"], s["path"], s.get("substitution_rule", True))
                    for s in item.get("scripts", ())
                ),
                flags=tuple(item.get("flags", ())),
                notes=item.get("notes", ""),
            )
        )
    return entries


@dataclass
class CorpusReport:
    entries_run: int = 0
    verdict_checks: int = 0
    script_checks: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _check_verdicts(entry: CorpusEntry, report: CorpusReport) -> None:
    formula = parse_formula(entry.formula)
    if format_formula(formula) != entry.formula:
        report.mismatches.append(f"{entry.name}: formula text is not canonical")
    for class_value, expected in sorted(entry.verdicts.items()):
        cls = ModelClass(class_value)
        verdict = decide(formula, cls)
        report.verdict_checks += 1
        got = "valid" if isinstance(verdict, Valid) else "invalid"
        if got != expected:
            report.mismatches.append(
                f"{entry.name}: decided {got} in {class_value}, expected {expected}"
            )
            continue
        if got == "invalid":
            model = verdict.model
            if evaluate(model, formula) or not in_class(model, cls, letters(formula)):
                report.mismatches.append(f"{entry.name}: countermodel fails to re-check")


def check_script_text(path: str, text: str, system_id: str = "LUK", substitution_rule: bool = True):
    """The kernel's report on a script, by its format, and the formula it
    proves; None for an unknown format, ParseError if the text does not parse."""
    if path.endswith(".proof"):
        parsed = parse_proof_script(text)
        return check_proof(system(system_id, substitution_rule), parsed), parsed.conclusion
    if path.endswith(".seq"):
        parsed = parse_sequent_script(text)
        result, last = check_sequent_proof(parsed), parsed.lines[-1].sequent
    elif path.endswith(".ded"):
        parsed = parse_deduction_script(text)
        result, last = check_smiley_deduction(parsed), parsed.lines[-1].claim
    else:
        return None
    return result, implication(last.premises, last.conclusion)


def _check_script(entry: CorpusEntry, script: CorpusScript, data_dir: Path, report: CorpusReport) -> None:
    report.script_checks += 1
    try:
        text = (data_dir / script.path).read_text()
    except OSError as error:
        report.mismatches.append(f"{entry.name}: {script.path} cannot be read: {error.strerror}")
        return
    try:
        checked = check_script_text(script.path, text, script.system, script.substitution_rule)
    except ParseError as error:
        report.mismatches.append(f"{entry.name}: {script.path} does not parse: {error}")
        return
    if checked is None:
        report.mismatches.append(f"{entry.name}: unknown script format {script.path}")
        return
    result, formula = checked
    if not result.accepted:
        report.mismatches.append(
            f"{entry.name}: {script.path} rejected at line {result.failure_line}: {result.reason}"
        )
    elif (conclusion := format_formula(formula)) != entry.formula:
        report.mismatches.append(
            f"{entry.name}: {script.path} concludes {conclusion!r}, entry pins {entry.formula!r}"
        )


def run_corpus(selection: Optional[str] = None, data_dir: Optional[Path] = None) -> CorpusReport:
    """Re-decide every pinned verdict and re-check every script; a selection
    restricts the run to one group."""
    data_dir = data_dir or DATA_DIR
    report = CorpusReport()
    for entry in corpus_entries(data_dir, selection):
        report.entries_run += 1
        _check_verdicts(entry, report)
        for script in entry.scripts:
            _check_script(entry, script, data_dir, report)
    return report
