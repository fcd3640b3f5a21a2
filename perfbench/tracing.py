"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps public library functions at the module bindings their
callers look up at call time (``objective.evaluate_with_grad`` calls
``build_graph`` through the ``objective`` module globals, ``prediction``
calls ``cholesky_jitter`` through its own imported name, and so on). Each
call records one span: id, name, start, end, parent span and run id. Spans
stay in memory until the benchmark ends, when ``write`` stores them as JSON
lines; ``layer_metrics`` derives self times, counts and ratios from them.
No file under ``src/`` is edited.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

from hiermogp import autodiff, data, metrics, objective, prediction, training

import workloads

STEP = "training.grad_elbo"  # one span per Adam iteration
PASS = "bench.predict_pass"  # one span per prediction pass over all held-out blocks
COUNT_NODES = "trace.count_nodes"

# (module, attribute, span name); the attribute is the binding the caller looks up
BINDINGS = (
    (training, "fit", "training.fit"),
    (training, "grad_elbo", STEP),
    (training, "adam_step", "training.adam_step"),
    (objective, "evaluate_with_grad", "objective.evaluate_with_grad"),
    (objective, "build_graph", "objective.build_graph"),
    (objective, "choose_jitter", "kron.choose_jitter"),
    (autodiff, "grad", "autodiff.grad"),
    (prediction, "predict_marginal", "prediction.predict_marginal"),
    (prediction, "latent_cov", "kernels.latent_cov"),
    (prediction, "hier_block_cov", "kernels.hier_block_cov"),
    (prediction, "hier_cross_cov", "kernels.hier_cross_cov"),
    (prediction, "cholesky_jitter", "kron.cholesky_jitter"),
    (data, "generate_synthetic", "data.generate_synthetic"),
    (data, "split", "data.split"),
    # the shared-regime workload holds out alternate grid points itself
    (workloads, "holdout_alternate", "data.split"),
    (metrics, "evaluate", "metrics.evaluate"),
)

# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "objective.build_graph.ms_per_step": "ms",
    "objective.tape_nodes_per_step": "count",
    "objective.evaluate_with_grad.self_ms_per_step": "ms",
    "autodiff.grad.ms_per_step": "ms",
    "autodiff.us_per_node": "us",
    "kron.choose_jitter.ms_per_step": "ms",
    "training.adam_step.ms_per_step": "ms",
    "training.grad_elbo.self_ms_per_step": "ms",
    "training.fit.self_ms": "ms",
    "training.jitter_events_per_step": "count",
    "prediction.predict_marginal.self_ms_per_block": "ms",
    "kernels.latent_cov.calls_per_pass": "count",
    "kernels.latent_cov.ms_per_pass": "ms",
    "kernels.hier_block_cov.calls_per_pass": "count",
    "kernels.hier_block_cov.ms_per_pass": "ms",
    "kernels.hier_cross_cov.ms_per_pass": "ms",
    "kron.cholesky_jitter.calls_per_pass": "count",
    "kron.cholesky_jitter.ms_per_pass": "ms",
    "prediction.factorisation_useful_ratio": "ratio",
    "data.generate_synthetic.ms": "ms",
    "data.split.ms": "ms",
    "metrics.evaluate.ms": "ms",
    "process.cpu_per_wall": "ratio",
    "trace.overhead_pct": "%",
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


def count_nodes(root: autodiff.Node) -> int:
    """Distinct nodes reachable from ``root`` through ``Node.parents``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent, _ in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.tape_nodes: dict[int, int] = {}  # build_graph span id -> nodes
        self.run = "setup"
        self._next_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id, parent, start = self._open()
        try:
            yield span_id
        finally:
            self._close(name, span_id, parent, start)

    def _open(self):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _close(self, name, span_id, parent, start):
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append(Span(span_id, name, start, end, parent, self.run))

    def _traced(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, span_id, parent, start)
            if name == "objective.build_graph":
                # its own span, so the caller's self time leaves it out
                with self.span(COUNT_NODES):
                    self.tape_nodes[span_id] = count_nodes(result[0].total)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding in ``BINDINGS`` for the duration of the block."""
        saved = []
        try:
            for module, attr, name in BINDINGS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._traced(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                row = asdict(span)
                if span.id in self.tape_nodes:
                    row["tape_nodes"] = self.tape_nodes[span.id]
                handle.write(json.dumps(row) + "\n")


def _run_metrics(spans: list[Span], tape_nodes: dict, exp, iterations: int) -> dict:
    """Per-layer values of one traced experiment."""
    by_id = {s.id: s for s in spans}
    child_seconds = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_seconds[s.parent] += s.seconds

    def self_seconds(s):
        return s.seconds - child_seconds[s.id]

    def under(s, ancestor):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == ancestor:
                return True
        return False

    def named(name, ancestor=None):
        return [s for s in spans if s.name == name and (ancestor is None or under(s, ancestor))]

    def total_ms(name, ancestor=None):
        return 1e3 * sum(s.seconds for s in named(name, ancestor))

    steps = len(named(STEP))
    passes = len(named(PASS))
    blocks = len(named("prediction.predict_marginal", PASS))
    graphs = named("objective.build_graph", STEP)
    nodes = sum(tape_nodes[s.id] for s in graphs)
    (fit,) = named("training.fit")
    cholesky_calls = len(named("kron.cholesky_jitter", PASS)) / passes
    return {
        "objective.build_graph.ms_per_step": total_ms("objective.build_graph", STEP) / steps,
        "objective.tape_nodes_per_step": nodes / steps,
        "objective.evaluate_with_grad.self_ms_per_step": 1e3
        * sum(self_seconds(s) for s in named("objective.evaluate_with_grad", STEP))
        / steps,
        "autodiff.grad.ms_per_step": total_ms("autodiff.grad", STEP) / steps,
        "autodiff.us_per_node": 1e3
        * (total_ms("objective.build_graph", STEP) + total_ms("autodiff.grad", STEP))
        / nodes,
        "kron.choose_jitter.ms_per_step": total_ms("kron.choose_jitter", STEP) / steps,
        "training.adam_step.ms_per_step": total_ms("training.adam_step") / steps,
        "training.grad_elbo.self_ms_per_step": 1e3 * sum(self_seconds(s) for s in named(STEP)) / steps,
        "training.fit.self_ms": 1e3 * self_seconds(fit),
        "training.jitter_events_per_step": exp.jitter_events / iterations,
        "prediction.predict_marginal.self_ms_per_block": 1e3
        * sum(self_seconds(s) for s in named("prediction.predict_marginal", PASS))
        / blocks,
        "kernels.latent_cov.calls_per_pass": len(named("kernels.latent_cov", PASS)) / passes,
        "kernels.latent_cov.ms_per_pass": total_ms("kernels.latent_cov", PASS) / passes,
        "kernels.hier_block_cov.calls_per_pass": len(named("kernels.hier_block_cov", PASS)) / passes,
        "kernels.hier_block_cov.ms_per_pass": total_ms("kernels.hier_block_cov", PASS) / passes,
        "kernels.hier_cross_cov.ms_per_pass": total_ms("kernels.hier_cross_cov", PASS) / passes,
        "kron.cholesky_jitter.calls_per_pass": cholesky_calls,
        "kron.cholesky_jitter.ms_per_pass": total_ms("kron.cholesky_jitter", PASS) / passes,
        # two distinct Grams (Kuu_x, Kuu_h) per fitted state need factoring
        "prediction.factorisation_useful_ratio": 2.0 / cholesky_calls,
        "metrics.evaluate.ms": total_ms("metrics.evaluate"),
        "process.cpu_per_wall": exp.fit_cpu_s / exp.fit_s,
    }


def layer_metrics(tracer: Tracer, traced: dict, iterations: int, overhead_pct: float) -> dict:
    """Median over the traced experiments ``{run id: Experiment}`` of each
    per-layer value, plus the set-up spans and the tracing overhead.

    Raises ``ValueError`` when the tape node count differs between
    experiments, which repeat identical work.
    """
    spans_by_run = defaultdict(list)
    for s in tracer.spans:
        spans_by_run[s.run].append(s)
    per_run = [
        _run_metrics(spans_by_run[run], tracer.tape_nodes, exp, iterations)
        for run, exp in traced.items()
    ]
    node_counts = {m["objective.tape_nodes_per_step"] for m in per_run}
    if len(node_counts) != 1:
        raise ValueError(f"tape nodes per step differ between identical fits: {sorted(node_counts)}")
    values = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    setup = spans_by_run["setup"]
    for name in ("data.generate_synthetic", "data.split"):
        values[f"{name}.ms"] = 1e3 * sum(s.seconds for s in setup if s.name == name)
    values["trace.overhead_pct"] = overhead_pct
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
