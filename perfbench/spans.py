"""Spans around the package's layer boundaries, recorded from the benchmark's
side only: each layer function is replaced, in the modules that call it, by a
wrapper that records (name, start, end, parent, phase, tag).  No file of the
package changes.

Spans stay in memory and are written when the run ends.  Calls too frequent
to keep one record each (``evaluate``, ``format_formula``) are folded: their
count and time are added to a per-name total and to the parent span's
covered time, so self times stay exact.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

# span name -> (function name, calling modules, options)
SITES = {
    "parser.formula": ("parse_formula", ("namecalc.cli", "namecalc.corpus", "workloads"), {}),
    "parser.script.proof": ("parse_proof_script", ("namecalc.cli", "namecalc.corpus", "workloads"), {}),
    "parser.script.sequent": ("parse_sequent_script", ("namecalc.cli", "namecalc.corpus", "workloads"), {}),
    "parser.script.deduction": ("parse_deduction_script", ("namecalc.cli", "namecalc.corpus", "workloads"), {}),
    "parser.format.formula": ("format_formula", ("namecalc.corpus", "namecalc.sequent"), {"fold": True}),
    "parser.format.model": ("format_model", ("namecalc.cli",), {}),
    "semantics.evaluate": ("evaluate", ("namecalc.corpus", "namecalc.representation",
                                        "namecalc.decide", "namecalc.cli"), {"fold": True}),
    "decide": ("decide", ("namecalc.corpus", "namecalc.cli", "workloads"), {"tag": "decide"}),
    "oracle": ("oracle_decide", ("namecalc.cli", "workloads"), {"rss": True}),
    "proof.check": ("check_proof", ("namecalc.corpus", "namecalc.cli", "workloads"), {}),
    "proof.cpl": ("is_cpl_tautology", ("namecalc.proof",), {}),
    "sequent.check": ("check_sequent_proof", ("namecalc.corpus", "namecalc.cli", "workloads"), {}),
    "sequent.cpl_consequence": ("cpl_consequence", ("namecalc.sequent",), {}),
    "sequent.deduction": ("check_smiley_deduction", ("namecalc.corpus", "namecalc.cli", "workloads"), {}),
    "representation.canonical": ("canonical_model", ("namecalc.cli", "workloads"), {}),
    "representation.represent": ("represent", ("namecalc.cli", "workloads"), {}),
    "corpus.run": ("run_corpus", ("namecalc.cli", "workloads"), {}),
    "corpus.verdict_phase": ("_check_verdicts", ("namecalc.corpus",), {"tag": "entry"}),
    "corpus.script_phase": ("_check_script", ("namecalc.corpus",), {}),
    "cli.run": ("cli_run", ("workloads",), {}),
}


def _layer(span_name: str) -> str:
    """Spans named ``parser.script.proof`` and the like add up under
    ``parser.script``."""
    return span_name.rsplit(".", 1)[0] if span_name.count(".") > 1 else span_name


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _tag_decide(args, result):
    from namecalc.core import letters
    from namecalc.decide import Valid, needs_three_labels

    formula, cls = args[0], args[1]
    return {"three": needs_three_labels(formula), "valid": isinstance(result, Valid),
            "letters": len(letters(formula)), "class": cls.value}


def _tag_entry(args, result):
    return {"entry": args[0].name}


_TAGGERS = {"decide": _tag_decide, "entry": _tag_entry}


class Tracer:
    def __init__(self):
        self.spans = []       # (name, start, end, parent, phase, tag)
        self.covered = []     # time covered by child spans, per span
        self.folded = {}      # (name, phase) -> [calls, seconds]
        self.stack = []
        self.phase = "setup"
        self.active = True
        self.rss_growth_kb = 0
        self._op_start = 0

    def install(self):
        for span_name, (attr, modules, options) in SITES.items():
            for module_name in modules:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                setattr(module, attr, self._wrap(span_name, original, **options))

    def _wrap(self, name, fn, fold=False, tag=None, rss=False):
        tracer = self
        tagger = _TAGGERS.get(tag)

        if fold:
            def folded(*args, **kwargs):
                if not tracer.active:
                    return fn(*args, **kwargs)
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    spent = perf_counter() - start
                    total = tracer.folded.setdefault((name, tracer.phase), [0, 0.0])
                    total[0] += 1
                    total[1] += spent
                    if tracer.stack:
                        tracer.covered[tracer.stack[-1]] += spent
            return folded

        def wrapped(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            index = len(tracer.spans)
            tracer.spans.append(None)
            tracer.covered.append(0.0)
            tracer.stack.append(index)
            rss_before = _maxrss_kb() if rss else 0
            result, returned = None, False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = perf_counter()
                tracer.stack.pop()
                if rss:
                    tracer.rss_growth_kb += _maxrss_kb() - rss_before
                label = tagger(args, result) if tagger and returned else None
                tracer.spans[index] = (name, start, end, parent, tracer.phase, label)
                if parent >= 0:
                    tracer.covered[parent] += end - start
        return wrapped

    def begin_op(self):
        self._op_start = len(self.spans)

    def discard_op(self):
        """Move the spans of a failed operation out of the timed phase.  The
        failing inputs reach no folded call, so the folded totals need no
        correction."""
        for k in range(self._op_start, len(self.spans)):
            self.spans[k] = self.spans[k][:4] + ("failed",) + self.spans[k][5:]

    def self_time(self, index) -> float:
        _, start, end, *_ = self.spans[index]
        return end - start - self.covered[index]

    def write(self, path):
        payload = {
            "spans": [list(s) for s in self.spans],
            "self": [self.self_time(k) for k in range(len(self.spans))],
            "folded": [[name, phase, calls, seconds]
                       for (name, phase), (calls, seconds) in sorted(self.folded.items())],
        }
        path.write_text(json.dumps(payload))

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer figures as name -> (value, unit): per-round totals of the
        timed phase, the longest single calls, and the set-up oracle calls."""
        per_round = {}
        calls = {}
        longest = {}
        cold = 0.0
        slowest_entry = ("", 0.0)
        slowest_decide = (None, 0.0)
        for k, (name, start, end, parent, phase, tag) in enumerate(self.spans):
            spent = end - start
            if name == "oracle" and phase == "setup":
                cold += spent
            if phase != "timed":
                continue
            keys = [_layer(name)]
            if name == "decide" and tag is not None:
                keys.append("decide.three_label" if tag["three"] else "decide.two_label")
                keys.append("decide.valid" if tag["valid"] else "decide.countermodel")
                if spent > slowest_decide[1]:
                    slowest_decide = (tag, spent)
            if name == "corpus.verdict_phase" and tag and spent > slowest_entry[1]:
                slowest_entry = (tag["entry"], spent)
            if name == "cli.run":
                per_round["cli.run_self"] = per_round.get("cli.run_self", 0.0) + self.self_time(k)
            for key in keys:
                per_round[key] = per_round.get(key, 0.0) + spent
                calls[key] = calls.get(key, 0) + 1
            longest[name] = max(longest.get(name, 0.0), spent)
        for (name, phase), (count, seconds) in self.folded.items():
            if phase != "timed":
                continue
            key = _layer(name)
            per_round[key] = per_round.get(key, 0.0) + seconds
            calls[key] = calls.get(key, 0) + count

        def s(key):
            return per_round.get(key, 0.0) / rounds

        def n(key):
            return calls.get(key, 0) / rounds

        round_s, calls_per_round, seconds = "s/round", "calls/round", "s"
        metrics = {
            "parser.formula_s": (s("parser.formula"), round_s),
            "parser.script_s": (s("parser.script"), round_s),
            "parser.format_s": (s("parser.format"), round_s),
            "semantics.evaluate_calls": (n("semantics.evaluate"), calls_per_round),
            "semantics.evaluate_s": (s("semantics.evaluate"), round_s),
            "decide.calls": (n("decide"), calls_per_round),
            "decide.s": (s("decide"), round_s),
            "decide.two_label_s": (s("decide.two_label"), round_s),
            "decide.three_label_s": (s("decide.three_label"), round_s),
            "decide.valid_s": (s("decide.valid"), round_s),
            "decide.countermodel_s": (s("decide.countermodel"), round_s),
            "decide.max_call_s": (longest.get("decide", 0.0), seconds),
            "oracle.calls": (n("oracle"), calls_per_round),
            "oracle.s": (s("oracle"), round_s),
            "oracle.cold_call_s": (cold, seconds),
            "oracle.rss_growth_mb": (self.rss_growth_kb / 1024, "MB"),
            "proof.check_s": (s("proof.check"), round_s),
            "proof.cpl_calls": (n("proof.cpl"), calls_per_round),
            "proof.cpl_s": (s("proof.cpl"), round_s),
            "proof.cpl_max_call_s": (longest.get("proof.cpl", 0.0), seconds),
            "sequent.check_s": (s("sequent.check"), round_s),
            "sequent.cpl_consequence_s": (s("sequent.cpl_consequence"), round_s),
            "sequent.deduction_s": (s("sequent.deduction"), round_s),
            "representation.canonical_s": (s("representation.canonical"), round_s),
            "representation.represent_s": (s("representation.represent"), round_s),
            "corpus.verdict_phase_s": (s("corpus.verdict_phase"), round_s),
            "corpus.script_phase_s": (s("corpus.script_phase"), round_s),
            "cli.run_self_s": (s("cli.run_self"), round_s),
        }
        notes = {"slowest_decide": slowest_decide, "slowest_entry": slowest_entry,
                 "spans": len(self.spans)}
        return metrics, notes
