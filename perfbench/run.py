"""namecalc benchmark: one workload per invocation, from the checkout root.

    python3 perfbench/run.py --workload {corpus,search,kernels,cli} \
        --seed N --seconds S --trace {0,1}

The inputs are generated here from the seed; the workload then runs in a fresh
interpreter (``worker.py``) while this process only waits.  With ``--trace 0``
the end-to-end metrics are printed; set-up time is the median over several
fresh interpreters.  Times are calibrated against a reference loop timed
beside them (see worker.py); the uncalibrated figures are printed as well.  With ``--trace 1`` an untraced and a traced run are made
on the same inputs and the per-layer metrics are printed, with the tracing
overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from worker import REFERENCE_NOMINAL_S  # noqa: E402

WORKLOADS = ("corpus", "search", "kernels", "cli")
SETUP_PROBES = 5          # extra fresh interpreters timed for setup_s
RUN_LIMIT_S = 170.0       # every child is stopped before this much wall time
P90_MIN_SAMPLES = 100

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_ms_p50": "ms",
                    "op_ms_p90": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    # Premise sets are frozensets: fix their iteration order, which decides how
    # soon the propositional kernels short-circuit, so runs are comparable.
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _worker(inputs, seconds, *, trace=False, setup_only=False, wall_limit=120.0, deadline):
    argv = [sys.executable, str(HERE / "worker.py"), str(inputs), "--seconds", str(seconds),
            "--wall-limit", str(wall_limit)]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    spawned = time.monotonic()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise BenchError("worker did not finish in time") from None
    if done.returncode != 0:
        raise BenchError(f"worker exited {done.returncode}: {done.stderr.strip()[-2000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed nothing: {done.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _op_times(result, key="op_times"):
    """Each operation's median time over the run's rounds."""
    medians = [statistics.median(times) for times in result[key] if times]
    if not medians:
        raise BenchError("no operation succeeded")
    return medians


def _end_to_end(result, setups, key="op_times"):
    per_op = _op_times(result, key)
    p90 = statistics.quantiles(per_op, n=10)[8] if len(per_op) >= 2 else per_op[0]
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_ms_p50": statistics.median(per_op) * 1000,
        "op_ms_p90": p90 * 1000,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: _metric(v, END_TO_END_UNITS[name]) for name, v in values.items()}


def _report(workload, result, extra_lines):
    distinct = sum(1 for times in result["op_times"] if times)
    print(f"workload {workload}: {result['rounds']} rounds of {len(result['op_times'])} operations, "
          f"{result['attempted']} attempted, {result['failed']} failed; percentiles over the "
          f"{distinct} successful operations' median times")
    for reason, count in sorted(result["failures"].items()):
        print(f"  failed x{count}: {reason}")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    if distinct < P90_MIN_SAMPLES:
        print(f"  op_ms_p90 rests on {distinct} samples (< {P90_MIN_SAMPLES}): "
              f"read it as the slowest operations' time, not as a tail")
    for line in extra_lines:
        print("  " + line)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "namecalc" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    work_dir = ROOT / ".perfbench"
    work_dir.mkdir(exist_ok=True)
    inputs = work_dir / f"inputs-{args.workload}-seed{args.seed}.json"
    inputs.write_text(json.dumps(gen.make_inputs(args.workload, args.seed, ROOT)))

    # Compile the package's bytecode once, so no timed set-up pays for it.
    subprocess.run([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); import namecalc"],
                   cwd=ROOT, env=_child_env(), check=True, timeout=60)

    try:
        if args.trace:
            plain = _worker(inputs, args.seconds, wall_limit=55.0, deadline=deadline)
            traced = _worker(inputs, args.seconds, trace=True, wall_limit=55.0, deadline=deadline)
            layers = {name: tuple(pair) for name, pair in traced["layers"].items()}
            plain_ops, traced_ops = _op_times(plain), _op_times(traced)
            plain_rate = len(plain_ops) / sum(plain_ops)
            traced_rate = len(traced_ops) / sum(traced_ops)
            layers["trace.overhead_pct"] = ((plain_rate / traced_rate - 1) * 100, "%")
            metrics = {name: _metric(*pair) for name, pair in sorted(layers.items())}
            notes = traced["notes"]
            extra = [f"spans recorded: {notes['spans']}"]
            if notes["slowest_entry"][0]:
                extra.append("slowest corpus entry (verdict phase): %s %.3f s" % tuple(notes["slowest_entry"]))
            if notes["slowest_decide"][0]:
                tag, spent = notes["slowest_decide"]
                extra.append(f"slowest decide call: {tag['letters']} letters, "
                             f"{'three' if tag['three'] else 'two'}-label, "
                             f"{'valid' if tag['valid'] else 'countermodel'}, {tag['class']}: {spent:.3f} s")
            _report(args.workload, traced, extra)
            result = traced
            correct = plain["problem_count"] == 0 and traced["problem_count"] == 0
        else:
            probes = [_worker(inputs, args.seconds, setup_only=True, deadline=deadline)
                      for _ in range(SETUP_PROBES)]
            result = _worker(inputs, args.seconds, deadline=deadline)
            probes.append(result)
            metrics = _end_to_end(result, [p["setup_s"] * p["setup_scale"] for p in probes])
            raw = _end_to_end(result, [p["setup_s"] for p in probes], key="raw_op_times")
            refs = result["reference_ms"]
            _report(args.workload, result, [
                "uncalibrated: " + ", ".join(f"{name} {m['value']:.6g} {m['unit']}"
                                             for name, m in raw.items()),
                f"reference loops: {len(refs)} samples, median {statistics.median(refs):.3f} ms"
                + (f", memory loop median {statistics.median(result['memory_reference_ms']):.3f} ms"
                   if result["memory_reference_ms"] else "")
                + f" (nominal {1000 * REFERENCE_NOMINAL_S:g} ms)"])
            correct = result["problem_count"] == 0
    except BenchError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
