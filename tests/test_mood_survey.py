"""scripts/mood_survey.py, run as README documents it, against the claims of
its docstring."""

import subprocess
import sys
from pathlib import Path

import pytest

SURVEY = Path(__file__).resolve().parent.parent / "scripts" / "mood_survey.py"
EXISTENTIAL = {"bamalip", "barbari", "calemos", "camestros", "celaront", "cesaro",
               "darapti", "felapton", "fesapo"}


def survey(*flags: str) -> dict[str, dict[str, str]]:
    """The survey's table: mood -> class label -> "valid" or "-"."""
    result = subprocess.run([sys.executable, str(SURVEY), *flags], capture_output=True,
                            text=True, timeout=120, check=True)
    header, *rows = (line.split() for line in result.stdout.splitlines())
    assert header[0] == "mood" and header[1:] == ["all", "trad", "poly", "nonmono"]
    return {row[0]: dict(zip(header[1:], row[1:])) for row in rows}


def not_valid_in_all(table: dict[str, dict[str, str]]) -> set[str]:
    return {mood for mood, verdicts in table.items() if verdicts["all"] != "valid"}


def test_plain_survey_loses_the_existential_moods_over_unrestricted_models():
    table = survey()
    assert len(table) == 24
    assert not_valid_in_all(table) == EXISTENTIAL
    assert {mood for mood, v in table.items() if v["nonmono"] != "valid"} == EXISTENTIAL
    assert all(v["trad"] == v["poly"] == "valid" for v in table.values())


@pytest.mark.parametrize("flag, left_out", [("--strong", {"calemos"}), ("--superstrong", set())])
def test_strengthened_premises_rescue_the_existential_moods(flag, left_out):
    table = survey(flag)
    assert len(table) == 24
    assert not_valid_in_all(table) == left_out
