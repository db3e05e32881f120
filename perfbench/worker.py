"""One workload in a fresh interpreter.

    python3 perfbench/worker.py INPUTS.json --seconds S [--trace] [--setup-only]

Imports the package from ``src/`` of the checkout, loads the generated inputs
through the package's own loaders, makes the warm-up calls, and prints the
``time.monotonic()`` at which the first timed operation is ready, with the
calibration scale measured just after.  Unless
``--setup-only``, it then runs whole rounds of the workload's operations until
``S`` seconds of operation time have passed, checks every output, and prints
one JSON line with every operation's times (calibrated and raw) and the counts.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Calibration.  A shared 2-core virtual machine can change speed by up to 2x
# over minutes (other tenants share the cores), which moves every raw time
# alike.  A fixed reference loop is timed beside the operations and each time
# is scaled by REFERENCE_NOMINAL_S / (reference time nearby): the result is
# the time on a machine where the loop takes 4 ms.  Interpreter-bound
# operations use a pure-Python loop; the oracle's numpy calls over large
# tables slow down differently (memory, page faults), so they use a loop that
# allocates and sums a fresh 16 MB array.  Raw times are reported too.
REFERENCE_NOMINAL_S = 0.004
REFERENCE_EVERY_S = 0.25   # operation time between two reference samples
REFERENCE_WINDOW = 2       # samples on each side of an operation to take the median of


def _reference_work() -> int:
    table = {}
    hits = 0
    for k in range(3000):
        key = (k & 63, k % 7)
        table[key] = table.get(key, 0) + 1
        hits += any(x > 5 for x in key)
    return hits


def _memory_work() -> int:
    import numpy

    return int(numpy.ones(2_000_000, dtype=numpy.int64).sum())


def reference_time(work=_reference_work) -> float:
    """The faster of two runs of a reference loop, in seconds."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def _scales(refs):
    """Per reference position k, the scale for operations timed after sample
    k and before sample k+1: nominal over the median of nearby samples."""
    out = []
    for k in range(len(refs) - 1):
        nearby = refs[max(0, k - REFERENCE_WINDOW + 1):k + REFERENCE_WINDOW + 1]
        out.append(REFERENCE_NOMINAL_S / statistics.median(nearby))
    return out


def _import_package(traced: bool):
    """Import namecalc from this checkout; return (import_s, numpy_import_s)."""
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    numpy_s = 0.0
    if traced:
        import numpy  # noqa: F401  -- timed alone, before the package pulls it in
        numpy_s = time.perf_counter() - start
    import namecalc
    import_s = time.perf_counter() - start
    where = Path(namecalc.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"namecalc was imported from {where}, not from this checkout")
    return import_s, numpy_s


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("inputs")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--wall-limit", type=float, default=120.0,
                        help="start no round after this many seconds, so a much slower "
                             "package still ends the run in time")
    args = parser.parse_args()

    import_s, numpy_s = _import_package(args.trace)
    import workloads
    from spans import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    doc = json.loads(Path(args.inputs).read_text())
    workload = workloads.make(doc)
    workload.setup()
    ready = time.monotonic()
    # Measured after `ready`, so set-up time does not include it.
    setup_scale = REFERENCE_NOMINAL_S / statistics.median(reference_time() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale}))
        return 0

    samples = []  # (operation, seconds, index of the last reference sample before it)
    memory = any(workload.memory_bound(i) for i in range(len(workload.ops)))
    refs, memory_refs = [], []

    def sample_references():
        refs.append(reference_time())
        if memory:
            memory_refs.append(reference_time(_memory_work))

    sample_references()
    since_ref = 0.0
    failed, attempted, rounds = 0, 0, 0
    failures = {}
    started = time.monotonic()
    spent = 0.0
    while spent < args.seconds and time.monotonic() - started < args.wall_limit:
        for i in range(len(workload.ops)):
            if since_ref >= REFERENCE_EVERY_S:
                sample_references()
                since_ref = 0.0
            attempted += 1
            if tracer:
                tracer.phase = "timed"
                tracer.active = True
                tracer.begin_op()
            t0 = time.perf_counter()
            try:
                result = workload.run(i)
            except workloads.OpFailed as err:
                failed += 1
                failures[str(err)] = failures.get(str(err), 0) + 1
                if tracer:
                    tracer.discard_op()
                continue
            except Exception as err:  # an output the checks cannot accept
                failed += 1
                workload.problems.append(f"op {i} raised {type(err).__name__}: {err}")
                continue
            finally:
                elapsed = time.perf_counter() - t0
                since_ref += elapsed
                if tracer:
                    tracer.active = False
            samples.append((i, elapsed, len(refs) - 1))
            spent += elapsed
            workload.check(i, result)
        rounds += 1
    sample_references()
    workload.finish()

    scales = _scales(refs)
    memory_scales = _scales(memory_refs)
    op_times = [[] for _ in workload.ops]
    raw_times = [[] for _ in workload.ops]
    for i, elapsed, k in samples:
        scale = memory_scales[k] if workload.memory_bound(i) else scales[k]
        op_times[i].append(elapsed * scale)
        raw_times[i].append(elapsed)

    out = {
        "ready": ready,
        "op_times": op_times,
        "raw_op_times": raw_times,
        "setup_scale": setup_scale,
        "reference_ms": [r * 1000 for r in refs],
        "memory_reference_ms": [r * 1000 for r in memory_refs],
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "rounds": rounds,
        "problems": workload.problems[:20],
        "problem_count": len(workload.problems),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        tracer.write(trace_dir / f"trace-{doc['workload']}-seed{doc['seed']}.json")
        layers, notes = tracer.layer_metrics(rounds)
        layers["package.import_s"] = (import_s, "s")
        layers["package.numpy_import_s"] = (numpy_s, "s")
        out["layers"] = layers
        out["notes"] = notes
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
