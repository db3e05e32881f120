"""The four workloads: set-up from generated inputs, one operation at a time,
and the checks of every output against the benchmark's own computations.

Program functions are imported into this module's namespace so that the
traced run can wrap them here, where the benchmark calls them.
"""

from __future__ import annotations

import contextlib
import io
import json
import signal

from logic import (
    check_countermodel,
    letters as tree_letters,
    model_signature,
    parse as parse_tree,
    prop_value,
)
from namecalc.cli import run as cli_run
from namecalc.core import Atom, Bin, Neg
from namecalc.corpus import run_corpus
from namecalc.decide import CapExceeded, Valid, decide, oracle_decide
from namecalc.parser import (
    parse_deduction_script,
    parse_formula,
    parse_model,
    parse_proof_script,
    parse_sequent_script,
)
from namecalc.proof import check_proof
from namecalc.representation import atomic_agreement, canonical_model, parse_structure, represent
from namecalc.semantics import Model, ModelClass, evaluate, in_class
from namecalc.sequent import check_sequent_proof, check_smiley_deduction
from namecalc.systems import system

# Per-operation budget for the decide-cap inputs.  A guard that bounds the work
# either refuses them at once or lets them finish well inside a second.
CAP_FAULT_BUDGET_S = 1.0


class OpFailed(Exception):
    """A known-fault input did not come to a correct outcome; counted in
    ``failed`` and kept out of the timings."""


class _Budget(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Budget()


def to_tree(formula):
    """The package's formula object as a benchmark tree."""
    if isinstance(formula, Atom):
        return ["atom", formula.functor.value, formula.subject, formula.predicate]
    if isinstance(formula, Neg):
        return ["~", to_tree(formula.operand)]
    assert isinstance(formula, Bin)
    return [formula.op, to_tree(formula.left), to_tree(formula.right)]


def _model_parts(model: Model):
    return sorted(model.universe), {k: sorted(v) for k, v in model.denotation.items()}


def _check_model(problems, where, tree, formula, cls_name, model: Model):
    """A countermodel must re-evaluate to false, by the package's semantics and
    by the benchmark's own truth, and lie in the class."""
    cls = ModelClass(cls_name)
    if evaluate(model, formula):
        problems.append(f"{where}: countermodel satisfies the formula (semantics.evaluate)")
    if not in_class(model, cls, tree_letters(tree)):
        problems.append(f"{where}: countermodel is not {cls_name} (semantics.in_class)")
    universe, denotation = _model_parts(model)
    problems.extend(f"{where}: {p}" for p in check_countermodel(tree, cls_name, universe, denotation))


def _split_conjunction(node, parts):
    """Undo the left-nested conjunction of ``parts`` conjuncts."""
    out = []
    for _ in range(parts - 1):
        if node[0] != "&":
            return None
        out.append(node[2])
        node = node[1]
    out.append(node)
    return out


def _same_claim(pinned_text, premises, conclusion) -> bool:
    """Does the pinned formula state premises => conclusion (premises as a set)?"""
    pinned = parse_tree(pinned_text)
    conclusion = to_tree(conclusion)
    if not premises:
        return pinned == conclusion
    if pinned[0] != "->" or pinned[2] != conclusion:
        return False
    parts = _split_conjunction(pinned[1], len(premises))
    want = sorted(json.dumps(to_tree(p)) for p in premises)
    return parts is not None and sorted(json.dumps(p) for p in parts) == want


class Workload:
    """Inputs already generated; ``setup`` loads them through the package's own
    loaders, ``run(i)`` is one operation and ``check(i, result)`` its checks."""

    def __init__(self, doc):
        self.doc = doc
        self.ops = doc["ops"]
        self.problems = []
        self._checked = set()

    def setup(self):
        pass

    def run(self, i):
        raise NotImplementedError

    def check(self, i, result):
        key = (i, self.fingerprint(i, result))
        if key in self._checked:
            return
        self._checked.add(key)
        self.check_once(i, result)

    def fingerprint(self, i, result):
        """A hashable digest of an output; equal digests need one check."""
        raise NotImplementedError

    def check_once(self, i, result):
        raise NotImplementedError

    def finish(self):
        """Checks that pair operations; runs once after the timed part."""

    def memory_bound(self, i) -> bool:
        """Is operation i timed against the memory reference loop?"""
        return False


class Corpus(Workload):
    def run(self, i):
        return run_corpus(selection=self.ops[i]["group"])

    def fingerprint(self, i, report):
        return (report.entries_run, report.verdict_checks, report.script_checks,
                tuple(report.mismatches))

    def check_once(self, i, report):
        op = self.ops[i]
        got = {"entries": report.entries_run, "verdict_checks": report.verdict_checks,
               "script_checks": report.script_checks}
        want = {k: op[k] for k in got}
        if got != want:
            self.problems.append(f"corpus {op['group']}: counts {got}, manifest gives {want}")
        if not report.ok:
            self.problems.append(f"corpus {op['group']}: {report.mismatches[:3]}")


class Search(Workload):
    def setup(self):
        self.formulas = {}
        for op in self.ops:
            if op["text"] not in self.formulas:
                self.formulas[op["text"]] = parse_formula(op["text"])
        signal.signal(signal.SIGALRM, _on_alarm)

    def run(self, i):
        op = self.ops[i]
        formula, cls = self.formulas[op["text"]], ModelClass(op["cls"])
        if op["kind"] != "cap-fault":
            return decide(formula, cls)
        signal.setitimer(signal.ITIMER_REAL, CAP_FAULT_BUDGET_S)
        try:
            return decide(formula, cls)
        except CapExceeded:
            return "refused"
        except _Budget:
            raise OpFailed(f"decide ran past {CAP_FAULT_BUDGET_S} s on {op['text']}") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def fingerprint(self, i, verdict):
        if verdict == "refused" or isinstance(verdict, Valid):
            return str(verdict)
        return json.dumps(_model_parts(verdict.model))

    def check_once(self, i, verdict):
        op = self.ops[i]
        where = f"search {op['text']} in {op['cls']}"
        if verdict == "refused":
            return  # the guard refused in time: an honest outcome for a cap input
        if isinstance(verdict, Valid):
            if op["expect"] != "valid":
                self.problems.append(f"{where}: Valid, but the enumerator finds a countermodel")
            return
        if op["expect"] == "valid":
            self.problems.append(f"{where}: countermodel for a formula valid by construction")
        _check_model(self.problems, where, op["tree"], self.formulas[op["text"]], op["cls"],
                     verdict.model)
        if op["first"] is not None:
            universe, denotation = _model_parts(verdict.model)
            got = model_signature(universe, denotation, tree_letters(op["tree"]))
            if list(got) != op["first"]:
                self.problems.append(f"{where}: not the first countermodel in labeling order "
                                     f"(regions {list(got)}, expected {op['first']})")


class Kernels(Workload):
    def setup(self):
        self.models = {}
        self.structures = {}
        for i, op in enumerate(self.ops):
            if op["kind"] == "canonical":
                self.models[i] = parse_model(json.dumps(op["model"]))
            elif op["kind"] == "represent":
                self.structures[i] = parse_structure(json.dumps(op["structure"]))

    def run(self, i):
        op = self.ops[i]
        kind = op["kind"]
        if kind in ("script-proof", "mutant", "cpl-line"):
            script = parse_proof_script(op["text"])
            return script, check_proof(system(op["system"], op["substitution_rule"]), script)
        if kind in ("script-seq", "cpl-sequent"):
            script = parse_sequent_script(op["text"])
            return script, check_sequent_proof(script)
        if kind == "script-ded":
            script = parse_deduction_script(op["text"])
            return script, check_smiley_deduction(script)
        if kind == "canonical":
            return canonical_model(self.models[i], op["system"], op["method"], op["vocab"])
        return represent(self.structures[i], op["rep_kind"])

    def fingerprint(self, i, result):
        kind = self.ops[i]["kind"]
        if kind == "canonical":
            return json.dumps(_model_parts(result))
        if kind == "represent":
            e_map, report = result
            return repr((sorted((k, sorted(map(repr, v))) for k, v in e_map.items()),
                         report.failures))
        report = result[1]
        return (report.accepted, report.failure_line, report.reason)

    def check_once(self, i, result):
        op = self.ops[i]
        kind = op["kind"]
        if kind == "canonical":
            self._check_canonical(op, self.models[i], result)
        elif kind == "represent":
            self._check_represent(op, result)
        elif kind == "mutant":
            report = result[1]
            if report.accepted or report.failure_line != op["failure_line"]:
                self.problems.append(f"mutant of {op['path']}: accepted={report.accepted} at "
                                     f"{report.failure_line}, expected rejection at {op['failure_line']}")
        elif kind in ("cpl-line", "cpl-sequent"):
            report = result[1]
            if op["tautology"]:
                if not report.accepted:
                    self.problems.append(f"{kind} width {op['width']}: tautology rejected")
            elif report.accepted or report.failure_line != 1:
                self.problems.append(f"{kind} width {op['width']}: non-tautology accepted")
            elif prop_value(op["tree"], set(op["falsifier"])):
                self.problems.append(f"{kind} width {op['width']}: stored falsifier does not falsify")
        else:
            script, report = result
            if not report.accepted:
                self.problems.append(f"{op['path']}: rejected at line {report.failure_line}: {report.reason}")
                return
            last = script.lines[-1]
            if kind == "script-proof":
                same = _same_claim(op["pinned"], (), last.formula)
            elif kind == "script-seq":
                same = _same_claim(op["pinned"], last.sequent.premises, last.sequent.conclusion)
            else:
                same = _same_claim(op["pinned"], last.claim.premises, last.claim.conclusion)
            if not same:
                self.problems.append(f"{op['path']}: conclusion differs from the pinned formula")

    def _check_canonical(self, op, model, built):
        where = f"canonical {op['system']}/{op['method']} on {len(op['vocab'])} letters"
        with_eps = op["system"] == "SHIS"
        if atomic_agreement(model, built, op["vocab"], with_eps):
            self.problems.append(f"{where}: atomic_agreement reports disagreements")
        before = {k: set(v) for k, v in op["model"]["denotation"].items()}
        after = {k: set(built.of(k)) for k in op["vocab"]}
        for x in op["vocab"]:
            for y in op["vocab"]:
                facts = [
                    (before[x] <= before[y], after[x] <= after[y], "a"),
                    (bool(before[x] & before[y]), bool(after[x] & after[y]), "i"),
                ]
                if with_eps:
                    facts.append((len(before[x]) == 1 and before[x] <= before[y],
                                  len(after[x]) == 1 and after[x] <= after[y], "eps"))
                for was, now, name in facts:
                    if was != now:
                        self.problems.append(f"{where}: {name}({x},{y}) changes")

    def _check_represent(self, op, result):
        e_map, report = result
        kind = op["rep_kind"]
        where = f"represent {kind} on {len(op['structure']['carrier'])} letters"
        if not report.ok:
            self.problems.append(f"{where}: {report.failures[:2]}")
        s = op["structure"]
        rel = {name: {tuple(p) for p in s.get(name) or ()} for name in ("A", "I", "eps")}
        for x in s["carrier"]:
            if kind == "B3" and not e_map[x]:
                self.problems.append(f"{where}: empty image of {x}")
            for y in s["carrier"]:
                ex, ey = set(e_map[x]), set(e_map[y])
                if ((x, y) in rel["A"]) != (ex <= ey):
                    self.problems.append(f"{where}: A({x},{y}) is not inclusion of images")
                if ((x, y) in rel["I"]) != bool(ex & ey):
                    self.problems.append(f"{where}: I({x},{y}) is not overlap of images")
                if kind == "C" and ((x, y) in rel["eps"]) != (len(ex) == 1 and ex <= ey):
                    self.problems.append(f"{where}: eps({x},{y}) is not singleton inclusion")


class Cli(Workload):
    def setup(self):
        self.args = []
        for op in self.ops:
            argv = ["decide", op["text"], "--class", op["cli_class"], "--json"]
            if op["oracle"] is not None:
                argv += ["--oracle", str(op["oracle"])]
            self.args.append(argv)
        # One warm-up call per oracle table the workload uses.
        for n, universe in self.doc["warm_keys"]:
            vocab = "SPM"[:n]
            text = " & ".join(f"a({v},{v})" for v in vocab)
            oracle_decide(parse_formula(text), ModelClass.ALL, universe)
        self.pairs = {}

    def run(self, i):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_run(self.args[i])
        except RecursionError:
            if self.ops[i]["kind"] != "deep-nesting":
                raise
            raise OpFailed("RecursionError escaped cli.run") from None
        return code, out.getvalue(), err.getvalue()

    def fingerprint(self, i, result):
        return result

    def memory_bound(self, i) -> bool:
        return self.ops[i]["oracle"] is not None

    def check_once(self, i, result):
        op = self.ops[i]
        code, out, err = result
        if op["kind"] == "deep-nesting":
            one_line = err.strip() and "\n" not in err.strip()
            if code == 0 and out.strip() and json.loads(out)["verdict"] == "valid":
                return
            if code == 2 and one_line and not out.strip():
                return
            self.problems.append(f"deep nesting: exit {code}, stdout {out[:60]!r}, stderr {err[:60]!r}")
            return
        where = f"cli {' '.join(self.args[i][2:])} on {op['text']}"
        try:
            payload = json.loads(out)
        except ValueError:
            self.problems.append(f"{where}: exit {code}, stdout is not JSON: {out[:80]!r} {err[:80]!r}")
            return
        verdict = payload.get("verdict")
        if (code, verdict) not in ((0, "valid"), (1, "countermodel")):
            self.problems.append(f"{where}: exit {code} with verdict {verdict}")
            return
        model = None
        if verdict == "countermodel":
            model = Model(frozenset(payload["model"]["universe"]),
                          {k: frozenset(v) for k, v in payload["model"]["denotation"].items()})
            _check_model(self.problems, where, op["tree"], parse_formula(op["text"]), op["cls"], model)
            if op["oracle"] is not None and len(model.universe) != op["oracle"]:
                self.problems.append(f"{where}: oracle countermodel has {len(model.universe)} elements")
            if op["oracle"] is None and op["first"] is not None:
                universe, denotation = _model_parts(model)
                got = model_signature(universe, denotation, tree_letters(op["tree"]))
                if list(got) != op["first"]:
                    self.problems.append(f"{where}: not the first countermodel in labeling order")
        if op["expect"] == "valid" and verdict != "valid":
            self.problems.append(f"{where}: countermodel for a formula valid by construction")
        if op["oracle"] is None and op["expect"] == "invalid" and verdict == "valid":
            self.problems.append(f"{where}: Valid, but the enumerator finds a countermodel")
        self.pairs.setdefault((op["text"], op["cls"]), {})[op["oracle"]] = model

    def finish(self):
        for (text, cls), found in self.pairs.items():
            region = found.get(None, "missing")
            for universe, oracle_model in found.items():
                if universe is None or region == "missing":
                    continue
                where = f"cli oracle {universe} vs decide on {text} in {cls}"
                if oracle_model is None and region is not None and len(region.universe) <= universe:
                    self.problems.append(f"{where}: oracle Valid, decide has a "
                                         f"{len(region.universe)}-element countermodel")
                if oracle_model is not None and region is None:
                    self.problems.append(f"{where}: oracle countermodel, decide Valid")


WORKLOADS = {"corpus": Corpus, "search": Search, "kernels": Kernels, "cli": Cli}


def make(doc) -> Workload:
    return WORKLOADS[doc["workload"]](doc)
