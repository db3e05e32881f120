"""The tracing contract of the benchmark (``perfbench/spans.py``): each layer
function is wrapped in the modules that call it, so the kernels and the
corpus runner must reach those functions through module globals at call
time.  A rule table that bound one at import time would bypass its wrapper,
and ``--trace 1`` would miss those calls."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

from namecalc.corpus import run_corpus

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = ("namecalc.corpus", "namecalc.proof", "namecalc.sequent")


def _sites() -> list[tuple[str, str]]:
    """(module, function) for every traced call site in the three modules."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [
        (module, function)
        for function, modules, _ in spans.SITES.values()
        for module in modules
        if module in MODULES
    ]


def test_every_traced_site_is_called_through_its_wrapper(monkeypatch):
    sites = _sites()
    assert {("namecalc.proof", "is_cpl_tautology"), ("namecalc.sequent", "cpl_consequence"),
            ("namecalc.corpus", "check_proof")} <= set(sites)
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
        ok = run_corpus().ok
    finally:
        sys.setprofile(None)
    assert ok
    assert [site for site in sites if not wrapped[site]] == []
    assert bypassed == Counter()
