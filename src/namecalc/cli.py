"""Command-line surface: decide, eval, proof checking, canonical models,
representation checks, basis translation, and the corpus runner.

Exit status: 0 for valid/accepted, 1 for invalid/rejected, 2 for usage,
parse, guard or internal errors.  Formulas are taken inline or from a file via
``@path``.  JSON output is versioned and deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .corpus import GROUPS, run_corpus
from .decide import CapExceeded, Valid, decide, oracle_decide
from .parser import (
    ParseError,
    format_formula,
    format_model,
    parse_deduction_script,
    parse_formula,
    parse_model,
    parse_proof_script,
    parse_sequent_script,
)
from .proof import Basis, CheckReport, GuardExceeded, check_proof, expand_definitions
from .representation import StructureViolation, canonical_model, parse_structure, represent
from .semantics import ModelClass, evaluate
from .sequent import check_sequent_proof, check_smiley_deduction
from .systems import system

JSON_VERSION = 1

OK, REJECTED, USAGE = 0, 1, 2

_CLASSES = {
    "all": ModelClass.ALL,
    "trad": ModelClass.TRADITIONAL,
    "poly": ModelClass.POLYREFERENTIAL,
    "nonmono": ModelClass.NON_MONOREFERENTIAL,
}

_SYSTEMS = {
    "luk": "LUK",
    "sh": "SH",
    "shis1": "SHIS_I",
    "shis2": "SHIS_II",
    "shis3": "SHIS_III",
    "shis4": "SHIS_IV",
    "slu": "SLU",
    "slu-a": "SLU_A",
    "slu-b": "SLU_B",
    "slu-c": "SLU_C",
    "slu-d": "SLU_D",
    "onto": "ONTO",
    "kais-a": "KAIS_A",
    "kais-b": "KAIS_B",
    "kais-c": "KAIS_C",
    "kais-d": "KAIS_D",
}


class CliError(Exception):
    pass


def _read_formula(text: str):
    if text.startswith("@"):
        try:
            text = Path(text[1:]).read_text()
        except OSError as err:
            raise CliError(f"cannot read formula file: {err}") from None
    return parse_formula(text)


def _emit(payload: dict, as_json: bool, plain: str) -> None:
    if as_json:
        payload = {"version": JSON_VERSION, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(plain)


def _cmd_decide(args) -> int:
    formula = _read_formula(args.formula)
    cls = _CLASSES[args.cls]
    if args.oracle is not None:
        verdict = oracle_decide(formula, cls, args.oracle)
    else:
        verdict = decide(formula, cls)
    if isinstance(verdict, Valid):
        _emit({"verdict": "valid"}, args.json, "VALID")
        return OK
    model_text = format_model(verdict.model)
    _emit(
        {"verdict": "countermodel", "model": json.loads(model_text)},
        args.json,
        f"COUNTERMODEL {model_text}",
    )
    return REJECTED


def _cmd_eval(args) -> int:
    model = parse_model(Path(args.model).read_text())
    formula = _read_formula(args.formula)
    value = evaluate(model, formula)
    _emit({"value": value}, args.json, "true" if value else "false")
    return OK if value else REJECTED


def _report_exit(report: CheckReport, as_json: bool) -> int:
    if report.accepted:
        _emit({"accepted": True}, as_json, "ACCEPTED")
        return OK
    _emit(
        {"accepted": False, "line": report.failure_line, "reason": report.reason},
        as_json,
        f"REJECTED line {report.failure_line}: {report.reason}",
    )
    return REJECTED


def _cmd_check(args) -> int:
    script = parse_proof_script(Path(args.file).read_text())
    spec = system(_SYSTEMS[args.system], substitution_rule_enabled=not args.instances)
    return _report_exit(check_proof(spec, script), args.json)


def _cmd_sequent_check(args) -> int:
    script = parse_sequent_script(Path(args.file).read_text())
    return _report_exit(check_sequent_proof(script), args.json)


def _cmd_smiley_check(args) -> int:
    script = parse_deduction_script(Path(args.file).read_text())
    return _report_exit(check_smiley_deduction(script), args.json)


def _cmd_canonical(args) -> int:
    model = parse_model(Path(args.model).read_text())
    built = canonical_model(model, args.system.upper(), args.method)
    print(format_model(built))
    return OK


def _cmd_represent(args) -> int:
    structure = parse_structure(Path(args.structure).read_text())
    try:
        e_map, report = represent(structure, args.kind.upper())
    except StructureViolation as err:
        name, witness = err.violations[0]
        _emit(
            {"ok": False, "violations": [[n, list(w)] for n, w in err.violations]},
            args.json,
            f"VIOLATION {name} at ({','.join(witness)})",
        )
        return REJECTED
    image = {x: sorted(_point_name(p) for p in points) for x, points in sorted(e_map.items())}
    if report.ok:
        _emit({"ok": True, "e": image}, args.json, "OK " + json.dumps(image, sort_keys=True))
        return OK
    _emit({"ok": False, "failures": list(report.failures)}, args.json,
          "FAILED " + "; ".join(report.failures))
    return REJECTED


def _point_name(point) -> str:
    tag, value = point
    if tag == "iset":
        return "{" + ",".join(sorted(value)) + "}"
    return str(value)


def _cmd_translate(args) -> int:
    formula = _read_formula(args.formula)
    print(format_formula(expand_definitions(formula, Basis(args.to))))
    return OK


def _cmd_corpus(args) -> int:
    report = run_corpus(args.section)
    payload = {
        "entries": report.entries_run,
        "verdict_checks": report.verdict_checks,
        "script_checks": report.script_checks,
        "mismatches": report.mismatches,
    }
    plain = (
        f"entries {report.entries_run}  verdicts {report.verdict_checks}  "
        f"scripts {report.script_checks}  mismatches {len(report.mismatches)}"
    )
    if report.mismatches:
        plain += "\n" + "\n".join(report.mismatches)
    _emit(payload, args.json, plain)
    return OK if report.ok else REJECTED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="namecalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide validity over a model class")
    p.add_argument("formula")
    p.add_argument("--class", dest="cls", choices=sorted(_CLASSES), required=True)
    p.add_argument("--oracle", type=int, default=None, metavar="N",
                   help="use the brute-force oracle with universe size N")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("eval", help="evaluate a formula in a model")
    p.add_argument("formula")
    p.add_argument("--model", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="check a Hilbert-style proof script")
    p.add_argument("file")
    p.add_argument("--system", choices=sorted(_SYSTEMS), required=True)
    p.add_argument("--instances", action="store_true",
                   help="check against the all-instances-as-axioms version (no substitution rule)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sequent-check", help="check a sequent script")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sequent_check)

    p = sub.add_parser("smiley-check", help="check a deduction script")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_smiley_check)

    p = sub.add_parser("canonical", help="build a canonical model from a model's diagram")
    p.add_argument("--system", choices=["sh", "luk", "shis"], required=True)
    p.add_argument("--method", choices=["filters", "pairs"], required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_canonical)

    p = sub.add_parser("represent", help="verify a structure and its set representation")
    p.add_argument("--kind", choices=["b1", "b3", "c"], required=True)
    p.add_argument("--structure", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_represent)

    p = sub.add_parser("translate", help="rewrite a formula into a functor basis")
    p.add_argument("formula")
    p.add_argument("--to", choices=[basis.value for basis in Basis], required=True)
    p.set_defaults(func=_cmd_translate)

    p = sub.add_parser("corpus", help="run the pinned catalogue")
    corpus_sub = p.add_subparsers(dest="corpus_command", required=True)
    q = corpus_sub.add_parser("run")
    q.add_argument("--section", choices=GROUPS, default=None)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_corpus)

    return parser


def run(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as err:
        return USAGE if err.code else OK
    try:
        return args.func(args)
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return USAGE
    except (CapExceeded, GuardExceeded) as err:
        print(f"guard: {err}", file=sys.stderr)
        return USAGE
    except RecursionError:
        print("guard: formula nests too deeply", file=sys.stderr)
        return USAGE
    except (CliError, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE
    except Exception as err:  # a fault of namecalc itself, never exit 1
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
