"""Per-layer tracing from outside the program.

``Tracer.installed()`` replaces every public function of the layer modules
with a wrapper that records a span, in the defining module and in every
clusterlab module that imported the name, plus the four methods in
``METHODS``; leaving the block puts the originals back. Spans and counters
stay in memory; ``write`` stores them once the run is over.

A span is (name, start, end, parent index, job id). The job's root span,
named ``cli.main``, has parent -1. Counters are derived from a wrapped
call's arguments and result after its span has closed, so they add no time
to the span.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("dataset", "distances", "tendency", "kmeans", "kmedoids",
          "validation", "projection", "report", "svgplot")
METHODS = (("kmeans", "KMeans", "fit"), ("kmedoids", "KMedoids", "fit"),
           ("projection", "PCA2D", "fit"), ("distances", "DistanceMatrix", "square"))
ROOT = "cli.main"


def _nbytes(data) -> int:
    if isinstance(data, str):
        return len(data.encode("utf-8"))
    return len(data) if isinstance(data, (bytes, bytearray)) else 0


#: span name -> function(args, kwargs, result) -> {counter: increment}
COUNTERS = {
    "kmeans.KMeans.fit": lambda a, kw, r: {
        "kmeans.restarts": r.n_init, "kmeans.best_iters": r.n_iter_},
    "kmedoids.KMedoids.fit": lambda a, kw, r: {"kmedoids.swaps": r.n_swaps_},
    "tendency.hopkins_statistic": lambda a, kw, r: {
        "tendency.queries": 0 if r.degenerate else 2 * r.m * r.trials,
        "tendency.dist_evals": 0 if r.degenerate else 2 * r.m * r.trials * len(a[0])},
    "distances.pairwise_distances": lambda a, kw, r: {
        "distances.pairwise_distances.evals": r.n * (r.n - 1) // 2},
    "distances.DistanceMatrix.square": lambda a, kw, r: {
        "distances.square.bytes": r.nbytes},
    "dataset.parse_csv": lambda a, kw, r: {"dataset.parse_csv.bytes": _nbytes(a[0])},
    "dataset.write_arff": lambda a, kw, r: {"dataset.write_arff.bytes": len(r)},
    "report.emit_report": lambda a, kw, r: {"report.emit_report.bytes": len(r)},
    "svgplot.scatter_svg": lambda a, kw, r: {"svgplot.bytes": _nbytes(r)},
    "svgplot.silhouette_svg": lambda a, kw, r: {"svgplot.bytes": _nbytes(r)},
    "svgplot.sweep_svg": lambda a, kw, r: {"svgplot.bytes": _nbytes(r)},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(lambda: defaultdict(int))
        self._stack = [-1]
        self._job = None

    def _wrap(self, name, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._job)
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counters[self._job][key] += int(value)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the layers' public names for the duration of the block."""
        package = [m for name, m in sys.modules.items()
                   if name == "clusterlab" or name.startswith("clusterlab.")]
        wrappers = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"clusterlab.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
        restore = []
        for module in package:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    restore.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)])
        for layer, cls_name, method in METHODS:
            cls = getattr(sys.modules[f"clusterlab.{layer}"], cls_name)
            original = cls.__dict__[method]
            restore.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{layer}.{cls_name}.{method}", original))
        try:
            yield self
        finally:
            for owner, name, original in reversed(restore):
                setattr(owner, name, original)

    @contextmanager
    def job(self, job_id):
        """Install the wrappers and open the root span of one job; wrapped
        calls made inside the block nest under it."""
        self._job = job_id
        with self.installed():
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                yield
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (ROOT, start, end, -1, job_id)
        self._job = None

    def write(self, path) -> None:
        doc = {"spans": self.spans,
               "counters": {str(job): dict(c) for job, c in self.counters.items()}}
        path.write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def job_metrics(spans, counters) -> dict:
    """Per-layer metrics of one job from its spans and counters."""
    durations = defaultdict(float)  # span name -> summed time
    calls = defaultdict(int)
    child_time = defaultdict(float)  # span index -> time of its direct children
    layer_busy = defaultdict(float)  # layer -> time in its outermost spans
    by_index = {}
    for index, (name, start, end, parent, _) in spans:
        by_index[index] = name
    for index, (name, start, end, parent, _) in spans:
        dt = end - start
        calls[name] += 1
        durations[name] += dt
        if parent != -1:
            child_time[parent] += dt
        layer = name.split(".")[0]
        if parent == -1 or by_index[parent].split(".")[0] != layer:
            layer_busy[layer] += dt

    def self_time(span_name):
        return sum(end - start - child_time[index]
                   for index, (name, start, end, _, _) in spans if name == span_name)

    def mb_per_s(nbytes, seconds):
        return nbytes / 1e6 / seconds if seconds > 0 else 0.0

    c = counters
    return {
        "kmeans.fit.calls": calls["kmeans.KMeans.fit"],
        "kmeans.fit.busy_s": durations["kmeans.KMeans.fit"],
        "kmeans.restarts": c.get("kmeans.restarts", 0),
        "kmeans.best_iters": c.get("kmeans.best_iters", 0),
        "tendency.hopkins_statistic.busy_s": durations["tendency.hopkins_statistic"],
        "tendency.queries": c.get("tendency.queries", 0),
        "tendency.dist_evals": c.get("tendency.dist_evals", 0),
        "kmedoids.fit.calls": calls["kmedoids.KMedoids.fit"],
        "kmedoids.fit.busy_s": durations["kmedoids.KMedoids.fit"],
        "kmedoids.swaps": c.get("kmedoids.swaps", 0),
        "distances.pairwise_distances.calls": calls["distances.pairwise_distances"],
        "distances.pairwise_distances.busy_s": durations["distances.pairwise_distances"],
        "distances.pairwise_distances.evals": c.get("distances.pairwise_distances.evals", 0),
        "distances.square.calls": calls["distances.DistanceMatrix.square"],
        "distances.square.busy_s": durations["distances.DistanceMatrix.square"],
        "distances.square.bytes": c.get("distances.square.bytes", 0),
        "distances.nearest_neighbor.calls": calls["distances.nearest_neighbor"],
        "validation.silhouette_report.calls": calls["validation.silhouette_report"],
        "validation.silhouette_report.busy_s": durations["validation.silhouette_report"],
        "validation.sweep_k.self_s": self_time("validation.sweep_k"),
        "dataset.parse_csv.busy_s": durations["dataset.parse_csv"],
        "dataset.parse_csv.mb_per_s": mb_per_s(c.get("dataset.parse_csv.bytes", 0),
                                               durations["dataset.parse_csv"]),
        "dataset.parse_arff.busy_s": durations["dataset.parse_arff"],
        "dataset.preprocess.busy_s": durations["dataset.preprocess"],
        "dataset.write_arff.busy_s": durations["dataset.write_arff"],
        "dataset.write_arff.mb_per_s": mb_per_s(c.get("dataset.write_arff.bytes", 0),
                                                durations["dataset.write_arff"]),
        "projection.PCA2D.fit.busy_s": durations["projection.PCA2D.fit"],
        "report.emit_report.calls": calls["report.emit_report"],
        "report.emit_report.busy_s": durations["report.emit_report"],
        "report.emit_report.bytes": c.get("report.emit_report.bytes", 0),
        "svgplot.busy_s": layer_busy["svgplot"],
        "svgplot.bytes": c.get("svgplot.bytes", 0),
        "cli.self_s": self_time(ROOT),
    }


def unit_of(metric: str) -> str:
    if metric.endswith("mb_per_s"):
        return "MB/s"
    if metric.endswith("_s"):
        return "s"
    return "bytes" if metric.endswith("bytes") else "count"


def layer_metrics(tracer: Tracer) -> dict:
    """Median over the traced jobs of each per-job layer metric; counts are
    the same in every job, so they keep their integer value."""
    per_job = defaultdict(list)
    for index, span in enumerate(tracer.spans):
        per_job[span[4]].append((index, span))
    rows = [job_metrics(spans, tracer.counters.get(job, {}))
            for job, spans in per_job.items()]
    return {key: (statistics.median if unit_of(key) == "s" else statistics.median_low)(
                row[key] for row in rows)
            for key in rows[0]}
