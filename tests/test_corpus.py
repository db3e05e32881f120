import os
import shutil

import pytest

from namecalc.corpus import DATA_DIR, GROUPS, corpus_entries, run_corpus
from namecalc.decide import Countermodel, decide
from namecalc.parser import format_formula, parse_formula
from namecalc.semantics import ModelClass


def test_full_run_has_zero_mismatches():
    report = run_corpus()
    assert report.ok, report.mismatches
    assert report.entries_run == len(corpus_entries())
    assert report.script_checks >= 30


def test_mood_counts():
    moods = [e for e in corpus_entries() if e.group == "moods"]
    assert len(moods) == 24
    assert sum(1 for e in moods if e.verdicts["all"] == "valid") == 15
    assert all(e.verdicts["traditional"] == "valid" for e in moods)
    assert all(e.verdicts["polyreferential"] == "valid" for e in moods)
    existential = [e for e in moods if "existential" in e.flags]
    assert len(existential) == 9


def test_existential_moods_fail_through_an_empty_name():
    for entry in corpus_entries():
        if entry.group != "moods" or "existential" not in entry.flags:
            continue
        verdict = decide(parse_formula(entry.formula), ModelClass.ALL)
        assert isinstance(verdict, Countermodel)
        assert any(not v for v in verdict.model.denotation.values()), entry.name


def test_script_conclusions_match_entry_formulas_byte_for_byte():
    from namecalc.parser import (
        parse_deduction_script,
        parse_proof_script,
        parse_sequent_script,
    )
    from namecalc.sequent import implication

    for entry in corpus_entries():
        assert format_formula(parse_formula(entry.formula)) == entry.formula
        for script in entry.scripts:
            text = (DATA_DIR / script.path).read_text()
            if script.path.endswith(".proof"):
                conclusion = parse_proof_script(text).conclusion
            elif script.path.endswith(".seq"):
                last = parse_sequent_script(text).lines[-1].sequent
                conclusion = implication(last.premises, last.conclusion)
            else:
                last = parse_deduction_script(text).lines[-1].claim
                conclusion = implication(last.premises, last.conclusion)
            assert format_formula(conclusion) == entry.formula, (entry.name, script.path)


def test_group_selection_sizes_match_the_manifest():
    entries = corpus_entries()
    for group in GROUPS:
        expected = sum(1 for e in entries if e.group == group)
        report = run_corpus(group)
        assert report.entries_run == expected
        assert report.ok


@pytest.mark.parametrize(
    "old, new, complaint",
    [("ax Datisi", "ax Barbara", "rejected at line"), (" ; mp 1 4", ") ; mp 1 4", "does not parse"),
     (None, None, "scripts/ferio.proof cannot be read: No such file or directory")],
    ids=["rejected", "unparsable", "missing"],
)
def test_corrupted_script_yields_exactly_one_mismatch(tmp_path, old, new, complaint):
    clone = tmp_path / "data"
    shutil.copytree(DATA_DIR, clone)
    # ferio.proof is referenced by exactly one entry
    target = clone / "scripts/ferio.proof"
    if old is None:
        target.unlink()
    else:
        original = target.read_text()
        corrupted = original.replace(old, new, 1)
        assert corrupted != original
        target.write_text(corrupted)
    report = run_corpus(data_dir=clone)
    assert len(report.mismatches) == 1
    assert "ferio" in report.mismatches[0]
    assert complaint in report.mismatches[0]
    assert report.entries_run == len(corpus_entries())
    assert report.script_checks == run_corpus().script_checks


def test_an_edited_manifest_is_read_by_the_next_run(tmp_path):
    clone = tmp_path / "data"
    shutil.copytree(DATA_DIR, clone)
    manifest = clone / "manifest.json"
    assert run_corpus("moods", data_dir=clone).ok
    original = manifest.read_text()
    stamp = manifest.stat().st_mtime_ns + 10**9
    # Barbara's verdict in the class of all models comes first.  The first
    # edit keeps the size and moves the modification time; the second
    # changes the size and keeps the modification time.
    for verdict in ("Valid", "invalid"):
        manifest.write_text(original.replace('"all": "valid"', f'"all": "{verdict}"', 1))
        os.utime(manifest, ns=(stamp, stamp))
        report = run_corpus("moods", data_dir=clone)
        assert report.mismatches == [f"barbara: decided valid in all, expected {verdict}"]


def test_entries_are_new_on_every_call():
    first, second = corpus_entries(), corpus_entries()
    assert first == second
    assert all(a is not b and a.verdicts is not b.verdicts for a, b in zip(first, second))
    first[0].verdicts["all"] = "invalid"
    assert corpus_entries()[0].verdicts["all"] == "valid"


def test_every_script_file_is_referenced_and_every_reference_exists():
    files = {
        path.relative_to(DATA_DIR).as_posix()
        for folder in ("scripts", "sequents", "deductions")
        for path in (DATA_DIR / folder).iterdir()
    }
    referenced = {script.path for entry in corpus_entries() for script in entry.scripts}
    assert files == referenced


def test_slupecki_gap_entries_are_pinned_valid_but_flagged():
    entries = {e.name: e for e in corpus_entries()}
    for name in (
        "slu-gap-subj-ex",
        "slu-gap-i-kaself",
        "slu-gap-ka-kaself",
        "slu-gap-ka-kapred",
        "dagger-slu-a",
    ):
        entry = entries[name]
        assert entry.verdicts["all"] == "valid"
        assert "slu-underivable-documented" in entry.flags
        assert not any(s.system == "SLU" for s in entry.scripts)


def test_boundary_entry_is_not_claimed_as_a_shis_thesis():
    entries = {e.name: e for e in corpus_entries()}
    boundary = entries["eps-class-boundary"]
    assert boundary.verdicts["nonmonoreferential"] == "valid"
    assert boundary.verdicts["all"] == "invalid"
    assert not boundary.scripts
    assert "not-a-shis-thesis" in boundary.flags
    # and no other entry pins that formula as a derivable thesis anywhere
    for entry in corpus_entries():
        if entry.name != "eps-class-boundary":
            assert entry.formula != boundary.formula


def test_mood_conclusion_discrepancy_is_annotated():
    entries = {e.name: e for e in corpus_entries()}
    for name in ("camestros", "calemos"):
        assert "printed-i-conclusion-read-as-o" in entries[name].flags
        assert entries[name].notes
