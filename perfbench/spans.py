"""Tracing for the per-layer run, done entirely from benchmark code.

``install`` replaces each layer's public functions at the names their
callers bind (``bellsim.cli.run_scenario``, ``bellsim.simplex.tableau_pivot``
and so on) with wrappers that record a span (name, start, end, parent)
and, at a few boundaries, counts.  Spans are kept in memory and written
out when the benchmark ends.  A layer's self time is its spans' duration
minus the part their child spans cover.  ``restore`` puts the original
functions back, so traced and untraced passes can alternate.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from typing import Any, Callable

import numpy as np

# (module, attribute the caller binds, span name); a span name of None
# counts calls without recording spans (the function is called ~10^5
# times per qm search).
TARGETS = (
    ("bellsim.cli", "load_scenario", "scenario.load"),
    ("bellsim.cli", "render_document", "scenario.render"),
    ("bellsim.cli", "run_scenario", "report.run_scenario"),
    ("bellsim.cli", "enumerate_bound_doc", "report.enumerate_bound_doc"),
    ("bellsim.cli", "qm_chsh_doc", "report.qm_chsh_doc"),
    ("bellsim.cli", "qm_search_doc", "report.qm_search_doc"),
    ("bellsim.report", "_family_from_mode", "feasibility.family"),
    ("bellsim.report", "check_joint_existence", "feasibility.check_joint_existence"),
    ("bellsim.report", "verify_certificate", "feasibility.verify_certificate"),
    ("bellsim.report", "exact_report", "correlation.exact_report"),
    ("bellsim.report", "monte_carlo_report", "correlation.monte_carlo_report"),
    ("bellsim.report", "enumerate_bound", "correlation.enumerate_bound"),
    ("bellsim.report", "max_violation_search", "qm.max_violation_search"),
    ("bellsim.report", "singlet_probabilities", None),
    ("bellsim.feasibility", "constraint_matrix", "feasibility.constraint_matrix"),
    ("bellsim.feasibility", "solve_equality_feasibility", "simplex.solve"),
    ("bellsim.simplex", "tableau_pivot", "kernels.tableau_pivot"),
    ("bellsim.correlation", "mc_outcome_counts", "kernels.mc_outcome_counts"),
    ("bellsim.correlation", "outcome_cell_sums", "kernels.outcome_cell_sums"),
    ("bellsim.correlation", "response_product_sum", "kernels.response_product_sum"),
    ("bellsim.correlation", "chsh_strategy_max", "kernels.chsh_strategy_max"),
    ("bellsim.models", "response_product_sum", "kernels.response_product_sum"),
    ("bellsim.qm", "singlet_probabilities", None),
)

#: Per-layer metrics in report order: name -> unit.
PER_LAYER = {
    "scenario.load_s": "s",
    "scenario.render_s": "s",
    "report.run_scenario_s": "s",
    "report.self_s": "s",
    "correlation.exact_report_s": "s",
    "correlation.monte_carlo_report_s": "s",
    "correlation.mc_samples": "count",
    "correlation.enumerate_bound_s": "s",
    "feasibility.family_s": "s",
    "feasibility.constraint_matrix_s": "s",
    "feasibility.constraint_bytes": "B",
    "feasibility.check_joint_existence_s": "s",
    "feasibility.self_s": "s",
    "feasibility.verify_certificate_s": "s",
    "simplex.solve_s": "s",
    "simplex.self_s": "s",
    "simplex.iterations": "count",
    "simplex.rows": "count",
    "simplex.cols": "count",
    "simplex.degenerate_pivots": "count",
    "simplex.degenerate_share": "share",
    "simplex.tableau_bytes": "B",
    "simplex.max_abs_tableau": "1",
    "kernels.tableau_pivot_s": "s",
    "kernels.tableau_pivot_calls": "count",
    "kernels.mc_outcome_counts_s": "s",
    "kernels.outcome_cell_sums_s": "s",
    "kernels.response_product_sum_s": "s",
    "kernels.chsh_strategy_max_s": "s",
    "qm.max_violation_search_s": "s",
    "qm.singlet_probabilities_calls": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

OP_SPAN = "cli.main"
PROBE_SPAN = "trace.probe"


class Tracer:
    """Spans and counts of one traced pass.

    ``spans`` holds [name id, start, end, parent index] lists, parent -1
    for an op's root span.  ``counts`` holds summed counters and
    ``maxima`` the largest value seen of each size measure.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, float] = {}
        self.pivot_tol = 0.0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, 0.0), value)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        record = [self._id(name), perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def wrap(self, name: str | None, fn: Callable,
             before: Callable | None = None,
             after: Callable | None = None) -> Callable:
        """``fn`` with a span, a ``before(args)`` hook outside it and an
        ``after(args, result)`` hook in a span of its own, so that probe
        work is not billed to the caller's self time."""
        if name is None:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.count(fn.__name__ + "_calls")
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                self.call(PROBE_SPAN, after, args, result)
            return result
        return traced

    # -- hooks -------------------------------------------------------------

    def _pivot_before(self, args) -> None:
        T, row = args[0], args[1]
        self.count("pivots")
        # a degenerate pivot leaves the objective where it was: its
        # leaving row's right-hand side is already at zero
        if T[row, -1] <= self.pivot_tol:
            self.count("degenerate")

    def _pivot_after(self, args, result) -> None:
        self.peak("max_abs_tableau", float(np.max(np.abs(args[0]))))

    def _solve_after(self, args, result) -> None:
        m, n = np.shape(args[0])
        self.count("iterations", int(result.iterations))
        self.peak("rows", m)
        self.peak("cols", n)
        self.peak("tableau_bytes", (m + 1) * (n + m + 1) * 8)

    def _matrix_after(self, args, result) -> None:
        m, n = result[0].shape
        self.peak("constraint_bytes", m * n * 8)

    def _mc_before(self, args) -> None:
        self.count("mc_samples", int(np.size(args[2])))


def install(tracer: Tracer) -> list[tuple[Any, str, Callable]]:
    """Wrap every target that exists; returns what ``restore`` needs."""
    from bellsim.simplex import PIVOT_TOL
    tracer.pivot_tol = PIVOT_TOL
    hooks = {
        "kernels.tableau_pivot": (tracer._pivot_before, tracer._pivot_after),
        "simplex.solve": (None, tracer._solve_after),
        "feasibility.constraint_matrix": (None, tracer._matrix_after),
        "kernels.mc_outcome_counts": (tracer._mc_before, None),
    }
    saved = []
    for module_name, attr, name in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            print(f"perfbench: {module_name}.{attr} not found; its spans read 0",
                  file=sys.stderr)
            continue
        before, after = hooks.get(name, (None, None))
        setattr(module, attr, tracer.wrap(name, original, before, after))
        saved.append((module, attr, original))
    return saved


def restore(saved: list[tuple[Any, str, Callable]]) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def layer_times(names: list[str], spans: list[list]) -> dict[str, tuple[float, float]]:
    """Total and self seconds per span name.  Self time is a span's
    duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    totals: dict[str, list[float]] = {}
    for k, (name_id, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(names[name_id], [0.0, 0.0])
        entry[0] += end - start
        entry[1] += end - start - child[k]
    return {name: (t[0], t[1]) for name, t in totals.items()}


def per_layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced pass (all but trace.overhead_s)."""
    times = layer_times(tracer.names, tracer.spans)

    def total(name: str) -> float:
        return times.get(name, (0.0, 0.0))[0]

    def self_of(prefix: str) -> float:
        return sum(s for name, (_, s) in times.items() if name.startswith(prefix))

    c, mx = tracer.counts, tracer.maxima
    pivots = c.get("pivots", 0)
    return {
        "scenario.load_s": total("scenario.load"),
        "scenario.render_s": total("scenario.render"),
        "report.run_scenario_s": total("report.run_scenario"),
        "report.self_s": self_of("report."),
        "correlation.exact_report_s": total("correlation.exact_report"),
        "correlation.monte_carlo_report_s": total("correlation.monte_carlo_report"),
        "correlation.mc_samples": c.get("mc_samples", 0),
        "correlation.enumerate_bound_s": total("correlation.enumerate_bound"),
        "feasibility.family_s": total("feasibility.family"),
        "feasibility.constraint_matrix_s": total("feasibility.constraint_matrix"),
        "feasibility.constraint_bytes": mx.get("constraint_bytes", 0),
        "feasibility.check_joint_existence_s": total("feasibility.check_joint_existence"),
        "feasibility.self_s": self_of("feasibility."),
        "feasibility.verify_certificate_s": total("feasibility.verify_certificate"),
        "simplex.solve_s": total("simplex.solve"),
        "simplex.self_s": self_of("simplex."),
        "simplex.iterations": c.get("iterations", 0),
        "simplex.rows": mx.get("rows", 0),
        "simplex.cols": mx.get("cols", 0),
        "simplex.degenerate_pivots": c.get("degenerate", 0),
        "simplex.degenerate_share": c.get("degenerate", 0) / pivots if pivots else 0.0,
        "simplex.tableau_bytes": mx.get("tableau_bytes", 0),
        "simplex.max_abs_tableau": mx.get("max_abs_tableau", 0.0),
        "kernels.tableau_pivot_s": total("kernels.tableau_pivot"),
        "kernels.tableau_pivot_calls": pivots,
        "kernels.mc_outcome_counts_s": total("kernels.mc_outcome_counts"),
        "kernels.outcome_cell_sums_s": total("kernels.outcome_cell_sums"),
        "kernels.response_product_sum_s": total("kernels.response_product_sum"),
        "kernels.chsh_strategy_max_s": total("kernels.chsh_strategy_max"),
        "qm.max_violation_search_s": total("qm.max_violation_search"),
        "qm.singlet_probabilities_calls": c.get("singlet_probabilities_calls", 0),
        "cli.self_s": self_of(OP_SPAN),
    }
