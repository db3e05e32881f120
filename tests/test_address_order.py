"""Output does not depend on where formulas sit in memory.

Formula nodes are interned, so they hash by identity and a set of formulas
iterates in an order set by memory addresses, not by ``PYTHONHASHSEED``.  A
process that allocated other formulas and objects first puts the same nodes
at other addresses.  Each probe below pre-allocates a seeded, shuffled mix of
both, then runs the commands whose stdout must stay byte-stable; every probe
must print what a probe without the pre-allocation prints.  Model classes
hash by identity too, so the probes include ``decide`` countermodels in each
class.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "namecalc" / "data"

_PROBE = """
import contextlib, io, random, sys
from pathlib import Path
from namecalc.cli import run
from namecalc.core import Atom, Bin, Functor, Neg, PRECEDENCE

seed, data = int(sys.argv[1]), Path(sys.argv[2])
kept = []
if seed >= 0:
    rng = random.Random(seed)
    names = ("S", "P", "M", "Q", "R")
    pool = [Atom(f, s, None if f.arity == 1 else p) for f in Functor for s in names for p in names]
    rng.shuffle(pool)
    for _ in range(rng.randrange(2000, 20000)):
        if rng.random() < 0.3:
            pool.append(Neg(rng.choice(pool)))
        else:
            pool.append(Bin(rng.choice(list(PRECEDENCE)), rng.choice(pool), rng.choice(pool)))
        kept.append([object() for _ in range(rng.randrange(1, 4))])
    kept += pool
    rng.shuffle(kept)

commands = [
    ["corpus", "run", "--json"],
    ["decide", "ex(M) & a(P,S) -> ex(S)", "--class", "all", "--oracle", "8", "--json"],
    # Table-path countermodels, two-label and three-label, in each class.
    *(["decide", formula, "--class", cls, "--json"]
      for formula in ("i(S,P) & i(P,M) -> i(S,M)", "eps(S,P) | ~i(S,M) -> a(M,P)")
      for cls in ("all", "trad", "poly", "nonmono")),
    *(["sequent-check", str(path), "--json"] for path in sorted(data.glob("sequents/*.seq"))),
    *(["smiley-check", str(path), "--json"] for path in sorted(data.glob("deductions/*.ded"))),
]
for argv in commands:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    print("$", *argv, code)
    print(out.getvalue(), end="")
"""


def _probe(seed: int) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    return subprocess.Popen([sys.executable, "-c", _PROBE, str(seed), str(DATA)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_output_does_not_follow_memory_addresses():
    seeds = (0, 1)
    probes = [_probe(seed) for seed in (-1, *seeds)]
    outputs = []
    for probe in probes:
        out, err = probe.communicate(timeout=300)
        assert probe.returncode == 0, err
        outputs.append(out)
    plain = outputs[0]
    assert plain.count("\n$ ") == 1 + 8 + 8 + 3, plain
    for seed, shuffled in zip(seeds, outputs[1:]):
        assert shuffled == plain, f"pre-allocation seed {seed} changes the output"
