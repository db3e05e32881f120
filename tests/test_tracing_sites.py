"""The tracing contract of the benchmark (``perfbench/spans.py``): each layer
function is wrapped in the modules that call it, so the kernels, the corpus
runner and the CLI must reach those functions through module globals at call
time.  A rule table that bound one at import time would bypass its wrapper,
and ``--trace 1`` would miss those calls."""

import contextlib
import importlib.util
import io
import sys
from collections import Counter
from pathlib import Path

from namecalc.cli import run
from namecalc.corpus import run_corpus

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _sites(modules) -> list[tuple[str, str]]:
    """(module, function) for every traced call site in the given modules."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [
        (module, function)
        for function, calling, _ in spans.SITES.values()
        for module in calling
        if module in modules
    ]


def _calls(monkeypatch, sites, action) -> tuple[Counter, Counter]:
    """Run action with every site wrapped: the calls each wrapper saw, and the
    calls that reached a traced function without its wrapper."""
    wrapped, bypassed = Counter(), Counter()

    def counting(site, original):
        def wrapper(*args, **kwargs):
            wrapped[site] += 1
            return original(*args, **kwargs)
        return wrapper

    names = {}
    for site in sites:
        module, function = sys.modules[site[0]], site[1]
        original = getattr(module, function)
        names[original.__code__] = function
        monkeypatch.setattr(module, function, counting(site, original))

    def profile(frame, event, arg):
        # A call of a traced function straight from one of its traced
        # modules has skipped the wrapper (whose frame would be the caller).
        if event == "call" and frame.f_code in names:
            site = (frame.f_back.f_globals.get("__name__"), names[frame.f_code])
            if site in sites:
                bypassed[site] += 1

    sys.setprofile(profile)
    try:
        action()
    finally:
        sys.setprofile(None)
    return wrapped, bypassed


def test_every_traced_site_is_called_through_its_wrapper(monkeypatch):
    sites = _sites(("namecalc.corpus", "namecalc.proof", "namecalc.sequent"))
    assert {("namecalc.proof", "is_cpl_tautology"), ("namecalc.sequent", "cpl_consequence"),
            ("namecalc.corpus", "check_proof")} <= set(sites)
    results = []
    wrapped, bypassed = _calls(monkeypatch, sites, lambda: results.append(run_corpus().ok))
    assert results == [True]
    assert [site for site in sites if not wrapped[site]] == []
    assert bypassed == Counter()


DECIDE_SITES = {("namecalc.cli", "parse_formula"), ("namecalc.cli", "decide"),
                ("namecalc.cli", "oracle_decide"), ("namecalc.cli", "format_model"),
                ("namecalc.decide", "evaluate")}


def test_decide_command_calls_its_traced_sites_through_their_wrappers(monkeypatch):
    sites = _sites(("namecalc.cli", "namecalc.decide"))
    assert DECIDE_SITES <= set(sites)
    codes = []

    def decide_commands():
        for text in ("a(S,P) & a(P,M) -> a(S,M)", "ex(M) & a(P,S) -> ex(S)"):
            for cls in ("all", "nonmono"):
                for oracle in ([], ["--oracle", "8"]):
                    with contextlib.redirect_stdout(io.StringIO()):
                        codes.append(run(["decide", text, "--class", cls, "--json", *oracle]))

    wrapped, bypassed = _calls(monkeypatch, sites, decide_commands)
    assert codes == [0] * 4 + [1] * 4
    assert {site for site in sites if wrapped[site]} == DECIDE_SITES
    assert bypassed == Counter()
