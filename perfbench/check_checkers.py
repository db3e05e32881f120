"""Show that every workload's checks reject wrong outputs.

    python3 perfbench/check_checkers.py

Runs a few real operations of each workload, then hands the checks outputs
corrupted on purpose (a flipped verdict, a countermodel with one element
moved, an accepted mutant, a changed image, wrong counts) and exits 1 if any
corruption passes.  The genuine outputs must pass.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import workloads  # noqa: E402
from namecalc.decide import Countermodel, Valid  # noqa: E402
from namecalc.proof import CheckReport  # noqa: E402
from namecalc.semantics import Model  # noqa: E402


def _fresh(name, seed=7):
    workload = workloads.make(gen.make_inputs(name, seed, ROOT))
    workload.setup()
    return workload


def _first(workload, predicate):
    return next(i for i, op in enumerate(workload.ops) if predicate(op))


def _moved(model: Model) -> Model:
    """The model with one element moved into or out of one letter."""
    letter = sorted(model.denotation)[0]
    extent = set(model.denotation[letter])
    outside = sorted(model.universe - extent)
    if outside:
        extent.add(outside[0])
    else:
        extent.discard(sorted(extent)[0])
    return Model(model.universe, {**model.denotation, letter: frozenset(extent)})


def _toggled(model: Model) -> Model:
    """The model with its first letter emptied, or given one element if empty:
    that flips i(X,X), so a check of atomic truth must notice."""
    letter = sorted(model.denotation)[0]
    extent = frozenset() if model.denotation[letter] else frozenset({"zz"})
    return Model(model.universe | extent, {**model.denotation, letter: extent})


def _verdict(workload, i, result):
    """Run the checks of operation i on result; True when they object."""
    before = len(workload.problems)
    workload.check_once(i, result)
    return len(workload.problems) > before


def search_cases():
    w = _fresh("search")
    invalid = _first(w, lambda op: op["expect"] == "invalid" and op["first"] and op["kind"] == "random")
    valid = _first(w, lambda op: op["kind"] == "chain4")
    real = w.run(invalid)
    yield "search genuine countermodel", False, _verdict(w, invalid, real)
    yield "search Valid for an invalid formula", True, _verdict(w, invalid, Valid())
    yield "search countermodel with one element moved", True, _verdict(w, invalid, Countermodel(_moved(real.model)))
    yield "search countermodel for a valid formula", True, _verdict(w, valid, real)


def cli_cases():
    w = _fresh("cli")
    region = _first(w, lambda op: op["kind"] == "decide" and op["oracle"] is None and op["expect"] == "invalid")
    oracle = _first(w, lambda op: op["kind"] == "decide" and op["oracle"] is not None
                    and op["text"] == w.ops[region]["text"])
    code, out, err = w.run(region)
    yield "cli genuine countermodel", False, _verdict(w, region, (code, out, err))
    yield "cli flipped verdict", True, _verdict(w, region, (0, json.dumps({"verdict": "valid", "version": 1}), ""))
    yield "cli exit code disagrees", True, _verdict(w, region, (0, out, err))
    payload = json.loads(out)
    model = Model(frozenset(payload["model"]["universe"]),
                  {k: frozenset(v) for k, v in payload["model"]["denotation"].items()})
    moved = _moved(model)
    payload["model"] = {"universe": sorted(moved.universe),
                        "denotation": {k: sorted(v) for k, v in moved.denotation.items()}}
    yield "cli countermodel with one element moved", True, _verdict(w, region, (1, json.dumps(payload), ""))
    # An oracle Valid at a universe that holds decide's countermodel is a contradiction.
    w.pairs.clear()
    w.check_once(region, (code, out, err))
    before = len(w.problems)
    big = dict(w.ops[oracle], oracle=len(model.universe) + 4)
    w.ops[oracle] = big
    w.check_once(oracle, (0, json.dumps({"verdict": "valid", "version": 1}), ""))
    w.finish()
    yield "cli oracle Valid beside a small decide countermodel", True, len(w.problems) > before
    deep = _first(w, lambda op: op["kind"] == "deep-nesting")
    yield "cli deep nesting answered invalid", True, _verdict(w, deep, (1, "", ""))


def kernels_cases():
    w = _fresh("kernels")
    mutant = _first(w, lambda op: op["kind"] == "mutant")
    script = _first(w, lambda op: op["kind"] == "script-proof")
    nontaut = _first(w, lambda op: op["kind"] == "cpl-line" and not op["tautology"])
    taut = _first(w, lambda op: op["kind"] == "cpl-sequent" and op["tautology"])
    canon = _first(w, lambda op: op["kind"] == "canonical")
    rep = _first(w, lambda op: op["kind"] == "represent")
    parsed, report = w.run(mutant)
    yield "kernels genuine mutant rejection", False, _verdict(w, mutant, (parsed, report))
    yield "kernels accepted mutant", True, _verdict(w, mutant, (parsed, CheckReport(True)))
    yield "kernels accepted non-tautology", True, _verdict(w, nontaut, (None, CheckReport(True)))
    yield "kernels rejected tautology", True, _verdict(w, taut, (None, CheckReport(False, 1, "x")))
    parsed, report = w.run(script)
    wrong_end = dataclasses.replace(parsed, lines=parsed.lines[:-1] + (
        dataclasses.replace(parsed.lines[-1], formula=parsed.lines[0].formula),))
    yield "kernels genuine script", False, _verdict(w, script, (parsed, report))
    yield "kernels script concluding something else", True, _verdict(w, script, (wrong_end, report))
    built = w.run(canon)
    yield "kernels genuine canonical model", False, _verdict(w, canon, built)
    yield "kernels canonical model with one letter emptied or filled", True, _verdict(w, canon, _toggled(built))
    e_map, rep_report = w.run(rep)
    yield "kernels genuine representation", False, _verdict(w, rep, (e_map, rep_report))
    x = sorted(e_map)[0]
    changed = {**e_map, x: frozenset() if e_map[x] else frozenset({("el", "zz")})}
    yield "kernels representation with one image changed", True, _verdict(w, rep, (changed, rep_report))


def corpus_cases():
    w = _fresh("corpus")
    report = w.run(0)
    yield "corpus genuine group", False, _verdict(w, 0, report)
    short = dataclasses.replace(report, verdict_checks=report.verdict_checks - 1)
    yield "corpus group with a verdict check missing", True, _verdict(w, 0, short)
    broken = dataclasses.replace(report, mismatches=["x: decided valid, expected invalid"])
    yield "corpus group with a mismatch", True, _verdict(w, 0, broken)


def main() -> int:
    bad = 0
    for cases in (search_cases, cli_cases, kernels_cases, corpus_cases):
        for name, should_object, objected in cases():
            ok = should_object == objected
            bad += not ok
            print(f"{'ok  ' if ok else 'FAIL'} {name}: checks {'object' if objected else 'accept'}")
    print(f"{bad} checker case(s) failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
