import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import NESTED_SHAPES
from namecalc import cli
from namecalc.cli import build_parser, main, run
from namecalc.parser import MAX_NESTING, format_formula, format_model, parse_formula, parse_model
from namecalc.representation import I_SET_CARRIER_LIMIT, format_structure, structure_from_model
from namecalc.semantics import ModelClass, random_model


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_decide_countermodel_and_exit_code(capsys):
    code, out, _ = invoke(capsys, "decide", "i(S,S)", "--class", "all")
    assert code == 1
    assert out.strip() == 'COUNTERMODEL {"universe":[],"denotation":{"S":[]}}'


def test_decide_valid(capsys):
    code, out, _ = invoke(capsys, "decide", "a(S,S)", "--class", "all")
    assert code == 0
    assert out.strip() == "VALID"


def test_decide_parse_error_exits_2(capsys):
    code, _, err = invoke(capsys, "decide", "a(S,", "--class", "all")
    assert code == 2
    assert "parse error" in err


def test_decide_guard_exits_2(capsys):
    code, _, err = invoke(capsys, "decide", "eps(A,B) & eps(C,D) -> eps(E,E)", "--class", "all")
    assert code == 2
    assert "guard" in err


def test_decide_oracle_flag(capsys):
    code, out, _ = invoke(capsys, "decide", "a(S,P) -> i(S,P)", "--class", "trad", "--oracle", "6")
    assert code == 0 and out.strip() == "VALID"


@pytest.mark.parametrize("universe", ["-1", "9"])
def test_oracle_universe_out_of_range_exits_2(capsys, universe):
    code, out, err = invoke(capsys, "decide", "a(S,P)", "--class", "all", "--oracle", universe)
    assert (code, out, err) == (2, "", f"guard: oracle universe must be 0 to 8, not {universe}\n")


@pytest.mark.parametrize(
    "formula", ["~" * 3000 + "a(S,S)", "(" * 2000 + "a(S,S)" + ")" * 2000]
)
def test_deep_nesting_exits_2(capsys, monkeypatch, formula):
    refusal = (2, "", "guard: formula nests too deeply\n")
    assert invoke(capsys, "decide", formula, "--class", "all") == refusal
    monkeypatch.setattr(sys, "argv", ["namecalc", "decide", formula, "--class", "all"])
    with pytest.raises(SystemExit) as exit_info:
        main()
    captured = capsys.readouterr()
    assert (exit_info.value.code, captured.out, captured.err) == refusal


def _nesting_commands(tmp_path, formula):
    """decide, eval, translate and check, each on ``formula``."""
    model = tmp_path / "m.json"
    model.write_text('{"universe":["u0"],"denotation":{"S":["u0"]}}')
    proof = tmp_path / "deep.proof"
    proof.write_text(f"1: {formula} ; cpl\n")
    return {
        "decide": ["decide", formula, "--class", "all"],
        "eval": ["eval", formula, "--model", str(model)],
        "translate": ["translate", formula, "--to", "ai"],
        "check": ["check", str(proof), "--system", "luk"],
    }


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_commands_at_the_nesting_limit(capsys, tmp_path, shape):
    formula = NESTED_SHAPES[shape](MAX_NESTING)
    commands = _nesting_commands(tmp_path, formula)
    assert invoke(capsys, *commands["decide"]) == (0, "VALID\n", "")
    assert invoke(capsys, *commands["eval"]) == (0, "true\n", "")
    translated = format_formula(parse_formula(formula)) + "\n"
    assert invoke(capsys, *commands["translate"]) == (0, translated, "")
    # Only the implication chain is a propositional tautology.
    checked = (0, "ACCEPTED\n", "") if shape == "implications" else \
        (1, "REJECTED line 1: not a propositional tautology\n", "")
    assert invoke(capsys, *commands["check"]) == checked


@pytest.mark.parametrize("shape", sorted(NESTED_SHAPES))
def test_commands_past_the_nesting_limit_exit_2(capsys, tmp_path, shape):
    for argv in _nesting_commands(tmp_path, NESTED_SHAPES[shape](MAX_NESTING + 1)).values():
        assert invoke(capsys, *argv) == (2, "", "guard: formula nests too deeply\n"), argv[0]


def test_json_outputs_are_stable(capsys):
    first = invoke(capsys, "decide", "ka(S,P) -> ka(P,S)", "--class", "poly", "--json")
    second = invoke(capsys, "decide", "ka(S,P) -> ka(P,S)", "--class", "poly", "--json")
    assert first == second
    payload = json.loads(first[1])
    assert payload["version"] == 1
    assert payload["verdict"] == "countermodel"


def test_eval_and_formula_from_file(tmp_path, capsys):
    model_file = tmp_path / "m.json"
    model_file.write_text('{"universe":["u0"],"denotation":{"S":["u0"],"P":[]}}')
    formula_file = tmp_path / "f.txt"
    formula_file.write_text("a(S,P)\n")
    code, out, _ = invoke(capsys, "eval", f"@{formula_file}", "--model", str(model_file))
    assert code == 1 and out.strip() == "false"
    code, out, _ = invoke(capsys, "eval", "i(S,S)", "--model", str(model_file))
    assert code == 0 and out.strip() == "true"


def test_check_subcommand(tmp_path, capsys):
    good = tmp_path / "good.proof"
    good.write_text("1: a(Q,Q) ; ax Ia [S:=Q]\n")
    code, out, _ = invoke(capsys, "check", str(good), "--system", "luk")
    assert code == 0 and out.strip() == "ACCEPTED"
    bad = tmp_path / "bad.proof"
    bad.write_text("1: a(Q,P) ; ax Ia [S:=Q]\n")
    code, out, _ = invoke(capsys, "check", str(bad), "--system", "luk")
    assert code == 1 and out.startswith("REJECTED line 1")


def test_sequent_and_smiley_check(tmp_path, capsys):
    seq = tmp_path / "conv.seq"
    seq.write_text(
        "1: ==> a(P,P) ; luk Ia [S:=P]\n"
        "2: a(P,P), i(P,S) ==> i(S,P) ; luk Datisi [M:=P]\n"
        "3: i(P,S) ==> i(S,P) ; cut 1 2\n"
    )
    code, out, _ = invoke(capsys, "sequent-check", str(seq))
    assert code == 0 and out.strip() == "ACCEPTED"
    ded = tmp_path / "b.ded"
    ded.write_text(
        "1: a(S,M) |- a(S,M) ; triv\n"
        "2: a(M,P) |- a(M,P) ; triv\n"
        "3: a(S,M), a(M,P) |- a(S,P) ; cut 1 2 r1\n"
    )
    code, out, _ = invoke(capsys, "smiley-check", str(ded))
    assert code == 0 and out.strip() == "ACCEPTED"


@pytest.mark.parametrize(
    "command", [["check", "--system", "luk"], ["sequent-check"], ["smiley-check"]]
)
def test_empty_script_exits_2(tmp_path, capsys, command):
    path = tmp_path / "empty.txt"
    path.write_text("# no lines\n\n")
    code, out, err = invoke(capsys, *command, str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


def test_canonical_subcommand(tmp_path, capsys):
    model = random_model(5, ["S", "P"], ModelClass.ALL, 3)
    path = tmp_path / "m.json"
    path.write_text(format_model(model))
    code, out, _ = invoke(capsys, "canonical", "--system", "sh", "--method", "pairs", "--model", str(path))
    assert code == 0
    rebuilt = parse_model(out.strip())
    assert set(rebuilt.denotation) == {"S", "P"}


def test_represent_subcommand(tmp_path, capsys):
    model = random_model(2, ["S", "P", "M"], ModelClass.ALL, 3)
    structure = structure_from_model(model, ["S", "P", "M"])
    path = tmp_path / "s.json"
    path.write_text(format_structure(structure))
    code, out, _ = invoke(capsys, "represent", "--kind", "c", "--structure", str(path))
    assert code == 0 and out.startswith("OK")


def test_represent_reports_every_violation(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_text('{"carrier":["x","y"],"A":[["x","x"]],"I":[["x","y"]]}')
    assert invoke(capsys, "represent", "--kind", "b1", "--structure", str(path)) == (
        1, "VIOLATION B1 at (y)\n", "")
    code, out, err = invoke(capsys, "represent", "--kind", "b1", "--structure", str(path), "--json")
    assert (code, err) == (1, "")
    assert out == (
        '{"ok": false, "version": 1, "violations": [["B1", ["y"]], ["B3", ["x", "x", "y"]], '
        '["B4", ["x", "y"]], ["B5", ["x", "y"]], ["B5", ["y", "x"]], ["B5", ["y", "y"]]]}\n')


@pytest.mark.parametrize("size", [I_SET_CARRIER_LIMIT, I_SET_CARRIER_LIMIT + 1])
def test_i_set_enumeration_is_capped(tmp_path, capsys, size):
    # The worst case: every nonempty subset of the carrier is an I-set.
    carrier = [f"x{k}" for k in range(size)]
    structure = tmp_path / "s.json"
    structure.write_text(json.dumps({"carrier": carrier, "A": [[x, x] for x in carrier],
                                     "I": [[x, y] for x in carrier for y in carrier]}))
    # Each letter denotes all but one element, so its diagram is that structure.
    model = tmp_path / "m.json"
    model.write_text(json.dumps({"universe": carrier, "denotation": {
        f"L{k}": carrier[:k] + carrier[k + 1:] for k in range(size)}}))
    represented = invoke(capsys, "represent", "--kind", "b1", "--structure", str(structure), "--json")
    rebuilt = invoke(capsys, "canonical", "--system", "sh", "--method", "filters", "--model", str(model))
    if size > I_SET_CARRIER_LIMIT:
        guard = f"guard: {size} carrier elements exceed the I-set cap ({I_SET_CARRIER_LIMIT})\n"
        assert represented == rebuilt == (2, "", guard)
        return
    assert represented[0] == rebuilt[0] == 0
    assert len(json.loads(represented[1])["e"]["x0"]) == 1 << size - 1
    assert len(parse_model(rebuilt[1].strip()).universe) == (1 << size) - 1


@pytest.mark.parametrize("text", ['["x"]', '{"carrier": ["x"], "A": 5, "I": []}'])
def test_malformed_structure_exits_2(tmp_path, capsys, text):
    path = tmp_path / "s.json"
    path.write_text(text)
    code, out, err = invoke(capsys, "represent", "--kind", "b1", "--structure", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


def test_translate_subcommand(capsys):
    code, out, _ = invoke(capsys, "translate", "a(S,P)", "--to", "kai")
    assert code == 0 and out.strip() == "~ka(S,S) | ka(S,P)"
    code, out, _ = invoke(capsys, "translate", "e(S,P)", "--to", "ai")
    assert code == 0 and out.strip() == "~i(S,P)"


def test_corpus_run_summary(capsys):
    code, out, _ = invoke(capsys, "corpus", "run")
    assert code == 0
    assert "mismatches 0" in out


def test_corpus_run_json_stable(capsys):
    first = invoke(capsys, "corpus", "run", "--section", "smiley", "--json")
    second = invoke(capsys, "corpus", "run", "--section", "smiley", "--json")
    assert first == second and first[0] == 0


def test_usage_error_exits_2(capsys):
    code, _, _ = invoke(capsys, "decide", "a(S,S)", "--class", "nope")
    assert code == 2


def test_one_parser_serves_successive_calls(capsys):
    assert build_parser() is build_parser()
    assert invoke(capsys, "decide", "a(S,S)", "--class", "all", "--json") == \
        (0, '{"verdict": "valid", "version": 1}\n', "")
    assert invoke(capsys, "translate", "e(S,P)", "--to", "ai") == (0, "~i(S,P)\n", "")
    assert invoke(capsys, "decide", "i(S,S)", "--class", "all") == \
        (1, 'COUNTERMODEL {"universe":[],"denotation":{"S":[]}}\n', "")
    code, out, err = invoke(capsys, "translate", "e(S,P)")
    assert code == 2 and out == "" and "--to" in err
    code, out, _ = invoke(capsys, "decide", "--help")
    assert code == 0 and "--oracle" in out


@pytest.mark.parametrize("error", [AssertionError("lost a case"), TypeError("bad operand")])
def test_internal_error_exits_2(capsys, monkeypatch, error):
    def fail(formula, cls):
        raise error

    monkeypatch.setattr(cli, "decide", fail)
    assert invoke(capsys, "decide", "a(S,S)", "--class", "all") == \
        (2, "", f"internal error: {type(error).__name__}: {error}\n")


def test_interrupt_is_not_an_internal_error(monkeypatch):
    def interrupt(formula, cls):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "decide", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run(["decide", "a(S,S)", "--class", "all"])


_UNCHECKED_PROBE = """
import importlib, io, contextlib, sys
from namecalc.cli import run

decide_module = importlib.import_module("namecalc.decide")
print(sys.flags.optimize)


def invoke(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(list(argv))
    print(code, err.getvalue().strip())


decide_module.evaluate = lambda model, formula: True  # every countermodel fails its re-check
invoke("decide", "ex(M) & a(P,S) -> ex(S)", "--class", "all", "--oracle", "8")
decide_module.in_class = lambda model, cls, vocab: False  # no labeling is realized
invoke("decide", "i(S,S)", "--class", "all")
"""


def test_result_checks_survive_optimized_mode():
    # Under -O, assert statements are dropped; the re-checks of the oracle's
    # countermodel and of decide's realized labeling must still refuse.
    src = Path(__file__).resolve().parents[1] / "src"
    probe = f"import sys; sys.path[:0] = [{str(src)!r}]\n" + _UNCHECKED_PROBE
    result = subprocess.run([sys.executable, "-O", "-c", probe], capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "1",
        "2 internal error: RuntimeError: the oracle countermodel fails its re-check in all",
        "2 internal error: RuntimeError: the first falsifying labeling is not realized in all",
    ]
