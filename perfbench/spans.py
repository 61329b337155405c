"""Per-layer spans recorded from outside the package.

The tracer wraps every public function of every ``marginsparse`` module,
plus ``SamplingOperator.apply`` and ``.matrix``, on each name under which a
module bound it at import time (``marginsparse.pipelines.solve_dual`` as
well as ``marginsparse.svm.solve_dual``), so calls nest into spans whatever
module they come from.  Nothing under ``src/`` is edited; ``uninstall``
puts every original back.

A span's self time is its duration minus the time of its direct child
spans.  Counters are read from values the public functions already return.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import marginsparse
from marginsparse.operators import SamplingOperator

# Validation predicates run inside nearly every call; a span for each would
# mostly measure the tracer, so their time stays with the caller.
UNTRACED = {"is_sparse", "check_matrix"}
TRACED_METHODS = (("operators", SamplingOperator, ("apply", "matrix")),)


@dataclass
class Span:
    op: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


def _package_modules():
    prefix = marginsparse.__name__ + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == marginsparse.__name__ or name.startswith(prefix))]


class Tracer:
    """Install wrappers, collect spans and counters, restore on uninstall."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters = defaultdict(float)
        self.op = 0
        self._stack: list[int] = []
        self._pass_start = 0
        self._patches = []  # (owner, attribute, original)

    # -- installation -------------------------------------------------

    def install(self):
        modules = _package_modules()
        wrapped = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in UNTRACED):
                    wrapped[fn] = self._wrap(fn, f"{layer}.{attr}")
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._patch(mod, attr, wrapped[value])
        for layer, cls, names in TRACED_METHODS:
            for attr in names:
                if attr in vars(cls):
                    self._patch(cls, attr, self._wrap(vars(cls)[attr], f"{layer}.{attr}"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name):
        observe = OBSERVERS.get(name)
        force_diagnostics = "return_diagnostics" in inspect.signature(fn).parameters
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(self.op, name, parent, time.perf_counter())
            spans.append(span)
            stack.append(len(spans) - 1)
            wanted = kwargs.get("return_diagnostics", False)
            if force_diagnostics:
                kwargs["return_diagnostics"] = True
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    spans[parent].child_s += span.end - span.start
            if force_diagnostics:
                op, diagnostics = result
                observe(self, args, diagnostics)
                return result if wanted else op
            if observe:
                observe(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def inside(self, name) -> bool:
        return any(self.spans[i].name == name for i in self._stack)

    # -- aggregation --------------------------------------------------

    def start_pass(self):
        self._pass_start = len(self.spans)
        self.counters.clear()

    def layer_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since start_pass."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        layer_self = defaultdict(float)
        for s in self.spans[self._pass_start:]:
            calls[s.name] += 1
            self_s[s.name] += s.self_s
            layer_self[s.name.partition(".")[0]] += s.self_s
        c = self.counters
        solves = calls["svm.solve_dual"]
        cells = c["pipelines.cells"]
        return {
            "svm.solve_dual.calls": solves,
            "svm.solve_dual.self_s": self_s["svm.solve_dual"],
            "svm.solve_dual.unconverged": c["svm.unconverged"],
            "svm.converged_ratio": (solves - c["svm.unconverged"]) / solves if solves else 1.0,
            "svm.solve_dual.kkt_gap_max": c["svm.kkt_gap_max"],
            "pipelines.self_s": layer_self["pipelines"],
            "pipelines.solves_per_cell": solves / cells if cells else 0.0,
            "pipelines.svds_per_cell": calls["linalg.thin_svd"] / cells if cells else 0.0,
            "pipelines.rfe_select.self_s": self_s["pipelines.rfe_select"],
            "pipelines.rrqr_select.self_s": self_s["pipelines.rrqr_select"],
            "pipelines.verify_margin_bound.self_s": self_s["pipelines.verify_margin_bound"],
            "bss.bss_select.calls": calls["bss.bss_select"],
            "bss.bss_select.self_s": self_s["bss.bss_select"],
            "bss.rows_scored": c["bss.rows_scored"],
            "bss.eig_count": c["bss.eig_count"],
            "bss.reselections": c["bss.reselections"],
            "linalg.thin_svd.calls": calls["linalg.thin_svd"],
            "linalg.thin_svd.self_s": self_s["linalg.thin_svd"],
            "linalg.spectral_norm.self_s": self_s["linalg.spectral_norm"],
            "linalg.to_dense.sparse_bytes": c["linalg.to_dense.sparse_bytes"],
            "operators.matrix.bytes": c["operators.matrix.bytes"],
            "operators.matrix.self_s": self_s["operators.matrix"],
            "operators.apply.self_s": self_s["operators.apply"],
            "leverage.leverage_select.self_s": self_s["leverage.leverage_select"],
            "sketch.gaussian_sketch.self_s": self_s["sketch.gaussian_sketch"],
            "sketch.approx_bss_select.self_s": self_s["sketch.approx_bss_select"],
            "geometry.meb_radius.calls": calls["geometry.meb_radius"],
            "geometry.meb_radius.self_s": self_s["geometry.meb_radius"],
            "geometry.meb_radius.iterations": c["geometry.meb_radius.iterations"],
            "geometry.meb_radius.uncertified": c["geometry.meb_radius.uncertified"],
            "data.parse_svmlight.self_s": self_s["data.parse_svmlight"],
            "data.parse_svmlight.bytes": c["data.parse_svmlight.bytes"],
            "data.apply_fold.self_s": self_s["data.apply_fold"],
            "cli.self_s": layer_self["cli"],
        }

    def dump(self, path):
        """Write the recorded spans, one JSON object per line."""
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "op": s.op, "name": s.name,
                                    "parent": s.parent, "start": s.start,
                                    "end": s.end, "self_s": s.self_s}) + "\n")


# -- counters read from return values ---------------------------------

def _solve(tr, args, model):
    if not getattr(model, "converged", True):
        tr.counters["svm.unconverged"] += 1
    gap = float(getattr(model, "kkt_gap", 0.0))
    tr.counters["svm.kkt_gap_max"] = max(tr.counters["svm.kkt_gap_max"], gap)


def _bss(tr, args, diag):
    tr.counters["bss.rows_scored"] += diag.score_evaluations
    tr.counters["bss.eig_count"] += diag.eig_count
    tr.counters["bss.reselections"] += diag.reselections


def _to_dense(tr, args, dense):
    if marginsparse.linalg.is_sparse(args[0]):
        tr.counters["linalg.to_dense.sparse_bytes"] += dense.nbytes


def _matrix(tr, args, R):
    tr.counters["operators.matrix.bytes"] += R.nbytes


def _meb(tr, args, ball):
    tr.counters["geometry.meb_radius.iterations"] += ball.iterations
    if not ball.certified:
        tr.counters["geometry.meb_radius.uncertified"] += 1


def _parse(tr, args, data):
    tr.counters["data.parse_svmlight.bytes"] += len(args[0])


def _cv(tr, args, cells):
    tr.counters["pipelines.cells"] += len(cells)


def _select(tr, args, report):
    if not tr.inside("pipelines.cv_experiment"):
        tr.counters["pipelines.cells"] += 1


OBSERVERS = {
    "svm.solve_dual": _solve,
    "bss.bss_select": _bss,
    "linalg.to_dense": _to_dense,
    "operators.matrix": _matrix,
    "geometry.meb_radius": _meb,
    "data.parse_svmlight": _parse,
    "pipelines.cv_experiment": _cv,
    "pipelines.supervised_select": _select,
    "pipelines.unsupervised_select": _select,
}
