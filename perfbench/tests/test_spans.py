"""Tracing attributes time to the right layers and leaves no wrapper behind."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

import run
import spans
import workloads
from bellsim import cli, simplex

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_subtracts_direct_children():
    names = ["outer", "inner", "leaf"]
    recorded = [[0, 0.0, 10.0, -1], [1, 1.0, 5.0, 0], [2, 2.0, 3.0, 1],
                [1, 6.0, 7.0, 0]]
    times = spans.layer_times(names, recorded)
    assert times["outer"] == (10.0, 5.0)
    assert times["inner"] == (5.0, 4.0)
    assert times["leaf"] == (1.0, 1.0)


def test_traced_op_fills_the_lp_layers_and_restores(tmp_path):
    doc = workloads.local_scenario("joint-composite", (2, 2, 2, 2, 2),
                                   np.random.default_rng(3), 1)
    path = tmp_path / "s.scenario"
    path.write_text(json.dumps(doc), encoding="utf-8")
    original = simplex.tableau_pivot
    tracer = spans.Tracer()
    saved = spans.install(tracer)
    try:
        rc = tracer.call(spans.OP_SPAN, cli.main,
                         ["run", str(path), "-o", str(tmp_path / "out.json")])
    finally:
        spans.restore(saved)
    assert rc == 0
    assert simplex.tableau_pivot is original
    metrics = spans.per_layer_metrics(tracer)
    assert set(metrics) | {"trace.overhead_s"} == set(spans.PER_LAYER)
    assert metrics["simplex.iterations"] == metrics["kernels.tableau_pivot_calls"] > 0
    assert metrics["simplex.rows"] == 4 * 2 * 2 * 2
    assert metrics["simplex.cols"] == 2 ** 5
    assert metrics["feasibility.constraint_bytes"] == 32 * 32 * 8
    assert (metrics["report.run_scenario_s"] >= metrics["simplex.solve_s"]
            >= metrics["kernels.tableau_pivot_s"] > 0)
    assert metrics["qm.singlet_probabilities_calls"] == 0


def test_benchmark_json_names_what_the_benchmark_prints():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == spans.PER_LAYER
