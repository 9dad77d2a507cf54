"""End-to-end command-line behavior, including the bundled scenarios."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import setting_dependent_copy

from bellsim import cli, correlation, feasibility, report
from bellsim.cli import main
from bellsim.correlation import MAX_SAMPLES
from bellsim.errors import BellsimError, CorrelationError
from bellsim.scenario import load_scenario
from bellsim.spaces import SETTING_PAIRS, Distribution

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
BUNDLED = sorted(SCENARIOS.glob("*.scenario"))

TSIRELSON = ["0", "1.5707963267948966", "0.7853981633974483",
             "-0.7853981633974483"]


def _child_env() -> dict[str, str]:
    """The environment of a child Python that imports this ``bellsim``."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_bundled_files_exist(self):
        names = {p.name for p in BUNDLED}
        assert names == {"factorized.scenario", "joint-composite.scenario",
                         "singlet-witness.scenario",
                         "stochastic-equivalent.scenario"}

    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
    def test_bundled_scenarios_run_clean(self, capsys, path):
        code, out, err = run_cli(capsys, "run", str(path))
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["scenario_digest"].startswith("sha256:")
        assert "chsh" in doc["analyses"]

    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
    def test_reports_byte_identical(self, capsys, path):
        _, once, _ = run_cli(capsys, "run", str(path))
        _, again, _ = run_cli(capsys, "run", str(path))
        assert once == again

    def test_factorized_report_content(self, capsys):
        code, out, _ = run_cli(capsys, "run",
                               str(SCENARIOS / "factorized.scenario"))
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["analyses"]["chsh"]["s"]) <= 2.0 + 1e-9
        assert doc["analyses"]["bell-check"]["verdict"] == "Satisfied"
        assert doc["analyses"]["feasibility"]["status"] == "Feasible"

    def test_witness_report_content(self, capsys):
        code, out, _ = run_cli(capsys, "run",
                               str(SCENARIOS / "singlet-witness.scenario"))
        assert code == 0
        doc = json.loads(out)
        assert doc["analyses"]["chsh"]["s"] == pytest.approx(-2 * math.sqrt(2),
                                                             abs=1e-9)
        assert doc["analyses"]["bell-check"]["verdict"] == "Violated"
        feas = doc["analyses"]["feasibility"]
        assert feas["status"] == "Infeasible"
        assert feas["classification"] == "Nonlocal"
        assert feas["certificate_check"]["y_transpose_b"] > 1e-9
        assert feas["certificate_check"]["max_y_transpose_A"] <= 1e-7

    def test_stochastic_equivalent_report_content(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", str(SCENARIOS / "stochastic-equivalent.scenario"))
        assert code == 0
        emu = json.loads(out)["analyses"]["emulation"]
        assert emu["comparison_kind"] == "StochasticSource"
        assert emu["max_effective_response_gap"] <= 1e-12
        assert all(p["gap"] <= 1e-12 for p in emu["pairs"])

    def test_output_flag_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "run",
                               str(SCENARIOS / "factorized.scenario"),
                               "-o", str(out_path))
        assert code == 0
        assert out == ""
        json.loads(out_path.read_text(encoding="utf-8"))

    def test_output_dir_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BELLSIM_OUTPUT_DIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "run",
                             str(SCENARIOS / "factorized.scenario"),
                             "-o", "nested/report.json")
        assert code == 0
        assert (tmp_path / "nested" / "report.json").is_file()

    def test_absolute_output_ignores_env_var(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BELLSIM_OUTPUT_DIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.json"
        code, _, _ = run_cli(capsys, "run",
                             str(SCENARIOS / "factorized.scenario"),
                             "-o", str(target))
        assert code == 0
        assert target.is_file()

    def test_seed_override_changes_stream(self, capsys):
        path = str(SCENARIOS / "joint-composite.scenario")
        _, base, _ = run_cli(capsys, "run", path)
        _, overridden, _ = run_cli(capsys, "run", path, "--seed", "99")
        assert base != overridden
        assert json.loads(overridden)["analyses"]["correlations"][
            "estimator"]["seed"] == 99
        _, overridden_again, _ = run_cli(capsys, "run", path, "--seed", "99")
        assert overridden == overridden_again

    def test_negative_seed_override_refused(self, capsys):
        code, out, err = run_cli(capsys, "run",
                                 str(SCENARIOS / "joint-composite.scenario"),
                                 "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == ("bellsim: error: [correlation-engine] seed must be "
                       "nonnegative, got -1\n")

    def test_exact_run_ignores_a_negative_seed(self, capsys):
        path = str(SCENARIOS / "factorized.scenario")
        _, base, _ = run_cli(capsys, "run", path)
        code, overridden, _ = run_cli(capsys, "run", path, "--seed", "-1")
        assert code == 0
        assert overridden == base

    def test_negative_weight_exit_and_message(self, capsys, tmp_path):
        doc = json.loads((SCENARIOS / "singlet-witness.scenario").read_text())
        doc["distributions"]["marginals"]["a|b"]["weights"][0] = -0.25
        bad = tmp_path / "bad.scenario"
        bad.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(capsys, "run", str(bad))
        assert code == 1
        assert out == ""
        assert err.startswith("bellsim: error: [hv-core] weight at flat index")

    def test_missing_file_exit(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", str(tmp_path / "nope.scenario"))
        assert code == 1
        assert "cannot read" in err

    def test_work_limit_exit(self, capsys):
        code, _, err = run_cli(capsys, "run",
                               str(SCENARIOS / "factorized.scenario"),
                               "--work-limit", "4")
        assert code == 1
        assert "work limit" in err.lower() or "limit" in err.lower()

    def test_work_limit_exit_builds_no_witness(self, capsys, monkeypatch):
        # the refusal comes before the full-size product joint is allocated
        def unbuildable(dists):
            raise AssertionError("witness built before the work limit")

        monkeypatch.setattr(correlation.FactorizedApparatus, "witness",
                            property(unbuildable))
        code, out, err = run_cli(capsys, "run",
                                 str(SCENARIOS / "factorized.scenario"),
                                 "--work-limit", "4")
        assert code == 1
        assert out == ""
        assert "limit is 4" in err

    def test_work_limit_applies_before_any_analysis(self, capsys, tmp_path,
                                                    monkeypatch):
        # one pair's (lambda, lambda_a, lambda_b) weights would be 9e6 cells
        def unbuildable(parts):
            raise AssertionError("pair weights built before the work limit")

        monkeypatch.setattr(correlation, "product_distribution", unbuildable)
        code, out, err = run_cli(capsys, "run", _edited(
            tmp_path, "factorized.scenario", _wide_apparatus))
        assert (code, out) == (1, "")
        assert err == ("bellsim: error: [feasibility] requires 9000000 units "
                       "of work, limit is 65536\n")

    def test_work_limit_exit_joint_composite(self, capsys):
        code, out, err = run_cli(capsys, "run",
                                 str(SCENARIOS / "joint-composite.scenario"),
                                 "--work-limit", "4")
        assert code == 1
        assert out == ""
        assert "limit is 4" in err


    def test_samples_above_the_cap_exit(self, capsys, tmp_path):
        path = _edited(tmp_path, "joint-composite.scenario", _too_many_samples)
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, "run", path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (1, "")
        assert err == ("bellsim: error: [cli-harness] run.estimator.samples: "
                       f"must be at most {MAX_SAMPLES}\n")
        assert peak < 2 * 2**20  # a whole draw would be 8 GB

    def test_samples_above_the_cap_run_scenario(self):
        """A scenario built in memory past the parser's cap is refused by
        the estimator before any draw."""
        scenario = load_scenario(SCENARIOS / "joint-composite.scenario")
        estimator = dataclasses.replace(scenario.run.estimator, samples=MAX_SAMPLES + 1)
        scenario = dataclasses.replace(
            scenario, run=dataclasses.replace(scenario.run, estimator=estimator))
        tracemalloc.start()
        try:
            with pytest.raises(CorrelationError,
                               match=f"^requires {MAX_SAMPLES + 1} units of work") as exc:
                report.run_scenario(scenario)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert exc.value.module == "correlation-engine"
        assert peak < 2 * 2**20

    def test_joint_composite_5_cards_bounded_time(self, capsys, tmp_path):
        scenario = tmp_path / "joint5.scenario"
        report = tmp_path / "joint5.json"
        code, _, _ = run_cli(capsys, "generate", "joint-composite",
                             "--cards", "5,5,5,5,5", "--seed", "1",
                             "-o", str(scenario))
        assert code == 0
        start = time.monotonic()
        code, _, _ = run_cli(capsys, "run", str(scenario), "-o", str(report))
        assert time.monotonic() - start < 5.0
        assert code == 0
        feas = json.loads(report.read_text())["analyses"]["feasibility"]
        assert feas["status"] == "Feasible"
        # the reported joint and the scenario's joint share every marginal
        source = json.loads(scenario.read_text())["distributions"]["joint"]
        expected = np.array(source["weights"]).reshape((5,) * 5)
        got = np.array(feas["joint"]["weights"]).reshape((5,) * 5)
        assert got.min() >= 0.0
        for drop in ((2, 4), (2, 3), (1, 4), (1, 3)):
            assert np.max(np.abs(got.sum(axis=drop)
                                 - expected.sum(axis=drop))) <= 1e-9
        assert feas["residual"] <= 1e-9

    def test_unchecked_verdict_exit_names_feasibility(self, capsys,
                                                      monkeypatch, tmp_path):
        # a SettingDependent Local scenario: its verdict comes from the LP
        real = feasibility.solve_block

        def off_by_a_little(shape, b, rows):
            result = real(shape, b, rows)
            x = result.x.copy()
            x[0] += 1e-6
            return dataclasses.replace(result, x=x)

        monkeypatch.setattr(feasibility, "solve_block", off_by_a_little)
        copy = tmp_path / "copy.scenario"
        setting_dependent_copy(SCENARIOS / "factorized.scenario", copy)
        code, out, err = run_cli(capsys, "run", str(copy))
        assert code == 1
        assert out == ""
        assert err.startswith("bellsim: error: [feasibility] ")

    @pytest.mark.parametrize("cards, rows", [((1, 16, 16, 16, 16), 1024),
                                             ((1, 2, 128, 2, 128), 16900)],
                             ids=["1x16^4", "1x2x128x2x128"])
    def test_oversized_lp_block_exits_before_it_is_built(
            self, capsys, monkeypatch, tmp_path, cards, rows):
        # uniform marginals, read out by all-(+1) tables: S = 2, so no
        # closed-form certificate, and the LP block is refused unbuilt
        def unsolvable(shape, b, rows):
            raise AssertionError("LP block solved past the cell limit")

        monkeypatch.setattr(feasibility, "solve_block", unsolvable)
        path = _edited(tmp_path, "singlet-witness.scenario",
                       functools.partial(_uniform_on, cards))
        code, out, err = run_cli(capsys, "run", path)
        assert (code, out) == (1, "")
        assert err.startswith("bellsim: error: [feasibility] requires ")
        assert f"an LP block of {rows} rows and 65536 columns" in err

    def test_too_many_lp_blocks_exit_within_a_second(self, capsys, monkeypatch,
                                                     tmp_path):
        # 152 blocks of 862 rows and 430 columns, each under the block
        # limit, are refused together before any is solved
        def unsolvable(shape, b, rows):
            raise AssertionError("LP block solved past the summed cell limit")

        monkeypatch.setattr(feasibility, "solve_block", unsolvable)
        path = _edited(tmp_path, "singlet-witness.scenario",
                       functools.partial(_uniform_on, (152, 1, 1, 1, 430)))
        start = time.monotonic()
        code, out, err = run_cli(capsys, "run", path)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (1, "")
        assert err == ("bellsim: error: [feasibility] requires 169610568 "
                       "tableau cells for 152 LP blocks of 862 rows and 430 "
                       f"columns, limit is {feasibility.LP_TOTAL_CELL_LIMIT}\n")

    def test_one_oversized_lp_block_exits_within_a_second(self, capsys,
                                                          monkeypatch,
                                                          tmp_path):
        # 1 x 16^4 is one block of 1024 rows and 65536 columns, refused
        # by the summed cap alone
        def unsolvable(shape, b, rows):
            raise AssertionError("LP block solved past the summed cell limit")

        monkeypatch.setattr(feasibility, "solve_block", unsolvable)
        path = _edited(tmp_path, "singlet-witness.scenario",
                       functools.partial(_uniform_on, (1, 16, 16, 16, 16)))
        start = time.monotonic()
        code, out, err = run_cli(capsys, "run", path)
        assert time.monotonic() - start < 1.0
        assert (code, out) == (1, "")
        assert err == ("bellsim: error: [feasibility] requires 68225025 "
                       "tableau cells for an LP block of 1024 rows and 65536 "
                       f"columns, limit is {feasibility.LP_TOTAL_CELL_LIMIT}\n")

    def test_unchecked_witness_exit_names_feasibility(self, capsys,
                                                      monkeypatch):
        real = correlation.FactorizedApparatus.witness

        def off_by_a_little(dists):
            joint = real.fget(dists)
            weights = joint.weights.copy()
            weights.flat[0] += 1e-6
            return Distribution(joint.domain, weights)

        monkeypatch.setattr(correlation.FactorizedApparatus, "witness",
                            property(off_by_a_little))
        code, out, err = run_cli(capsys, "run",
                                 str(SCENARIOS / "factorized.scenario"))
        assert code == 1
        assert out == ""
        assert err.startswith("bellsim: error: [feasibility] ")

    def test_factorized_run_builds_each_product_once(self, monkeypatch):
        # the correlations and the feasibility analysis read one family
        built = []
        real = correlation.product_distribution

        def counted(parts):
            built.append(tuple(s.label for part in parts for s in part.domain))
            return real(parts)

        monkeypatch.setattr(correlation, "product_distribution", counted)
        report.run_scenario(load_scenario(SCENARIOS / "factorized.scenario"))
        assert built == [("lambda", f"lambda_{p}", f"lambda_{q}")
                         for p, q in SETTING_PAIRS] + [(
                             "lambda", "lambda_a", "lambda_a_prime", "lambda_b",
                             "lambda_b_prime")]
        assert not hasattr(feasibility, "product_distribution")
        assert not hasattr(feasibility, "_pair_marginal")

    @pytest.mark.parametrize("seed", range(8))
    def test_monte_carlo_reads_a_local_template_satisfied(self, capsys, tmp_path, seed):
        # most of these models sit on the bound, |S| = 2, so a sampled
        # |S| past 2 is noise, well inside the margin at 10^4 samples
        scenario = tmp_path / "local.scenario"
        assert run_cli(capsys, "generate", "factorized", "--cards", "2,1,1,1,1",
                       "--estimator", "monte-carlo", "--samples", "10000",
                       "--seed", str(seed), "-o", str(scenario))[0] == 0
        code, out, _ = run_cli(capsys, "run", str(scenario))
        assert code == 0
        assert json.loads(out)["analyses"]["bell-check"]["verdict"] == "Satisfied"

    def test_factorized_joint_is_the_product_witness(self, capsys, tmp_path):
        scenario = tmp_path / "factorized.scenario"
        assert run_cli(capsys, "generate", "factorized", "--cards",
                       "3,4,2,4,3", "--seed", "2", "-o", str(scenario))[0] == 0
        code, out, _ = run_cli(capsys, "run", str(scenario))
        assert code == 0
        feas = json.loads(out)["analyses"]["feasibility"]
        dists = json.loads(scenario.read_text())["distributions"]
        factors = [dists["rho"]] + [dists["apparatus"][name] for name in
                                    ("a", "a_prime", "b", "b_prime")]
        product = functools.reduce(np.multiply.outer,
                                   [np.array(f["weights"]) for f in factors])
        assert feas["joint"]["domain"] == [f["domain"][0] for f in factors]
        assert feas["joint"]["weights"] == product.reshape(-1).tolist()

    def test_factorized_parts_at_the_normalization_tolerance(self, capsys,
                                                             tmp_path):
        """rho and the four apparatus vectors each total 1 + 0.9e-12,
        inside the normalization tolerance, so their pair products total
        more than it; the witness is checked against those products, which
        are not validated again."""
        scenario = tmp_path / "factorized.scenario"
        assert run_cli(capsys, "generate", "factorized", "--seed", "1",
                       "-o", str(scenario))[0] == 0
        doc = json.loads(scenario.read_text())
        dists = doc["distributions"]
        for part in [dists["rho"], *dists["apparatus"].values()]:
            part["weights"][-1] += 0.9e-12
            assert 1.0 + 0.8e-12 < math.fsum(part["weights"]) < 1.0 + 1e-12
        scenario.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "run", str(scenario))
        assert (code, err) == (0, "")
        feas = json.loads(out)["analyses"]["feasibility"]
        assert feas["status"] == "Feasible"
        assert feas["residual"] <= 1e-9

    def test_joint_composite_joint_is_the_scenario_joint(self, capsys):
        path = SCENARIOS / "joint-composite.scenario"
        code, out, _ = run_cli(capsys, "run", str(path))
        assert code == 0
        feas = json.loads(out)["analyses"]["feasibility"]
        source = json.loads(path.read_text())["distributions"]["joint"]
        weights = np.array(source["weights"])
        assert feas["joint"]["domain"] == source["domain"]
        assert (feas["joint"]["weights"]
                == (weights / float(np.sum(weights))).tolist())

    @pytest.mark.parametrize("template", ["factorized", "joint-composite"])
    def test_8_cards_bounded_time(self, capsys, tmp_path, template):
        scenario = tmp_path / "big.scenario"
        assert run_cli(capsys, "generate", template, "--cards", "8,8,8,8,8",
                       "--seed", "1", "-o", str(scenario))[0] == 0
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "run", str(scenario))
        assert time.monotonic() - start < 2.0
        assert code == 0
        feas = json.loads(out)["analyses"]["feasibility"]
        assert feas["status"] == "Feasible"
        assert feas["residual"] <= 1e-9


def _edited(tmp_path, name: str, edit) -> str:
    """A copy of a bundled scenario with ``edit`` applied to its document."""
    doc = json.loads((SCENARIOS / name).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _uniform_on(cards, doc):
    """Uniform marginals and all-(+1) tables on spaces of ``cards``."""
    for space, c in zip(doc["spaces"], cards):
        space["values"] = [str(k) for k in range(c)]
    card = {space["label"]: c for space, c in zip(doc["spaces"], cards)}
    model = doc["model"]
    for name in model["tables"]:
        model["tables"][name] = np.ones(
            (cards[0], card[model["spaces"][name]])).tolist()
    for marginal in doc["distributions"]["marginals"].values():
        size = math.prod(card[label] for label in marginal["domain"])
        marginal["weights"] = [1.0 / size] * size


def _too_many_samples(doc):
    doc["run"]["estimator"]["samples"] = MAX_SAMPLES + 1


def _swap_ab_apparatus(doc):
    marginal = doc["distributions"]["marginals"]["a|b"]
    lam, lam_a, lam_b = marginal["domain"]
    marginal["domain"] = [lam, lam_b, lam_a]


def _b_on_lambda_a(doc):
    """Setting b's apparatus space is lambda_a, the space of setting a."""
    doc["model"]["spaces"]["b"] = "lambda_a"
    marginals = doc["distributions"]["marginals"]
    marginals["a|b"]["domain"] = ["lambda", "lambda_a", "lambda_a"]
    marginals["a_prime|b"]["domain"] = ["lambda", "lambda_a_prime", "lambda_a"]


def _negative_weight(doc):
    doc["distributions"]["marginals"]["a|b"]["weights"][0] = -0.25


def _half_sign(doc):
    doc["model"]["tables"]["a"][0][0] = 0.5


def _nan_source_weight(doc):
    doc["distributions"]["rho"]["weights"][0] = math.nan


def _nan_source_weight_monte_carlo(doc):
    _nan_source_weight(doc)
    doc["run"]["estimator"] = {"method": "monte-carlo", "samples": 1000,
                               "seed": 1}


def _nan_comparison_table(doc):
    doc["comparison_model"]["tables"]["a"][0] = math.nan


def _nan_angle(doc):
    doc["settings"]["a"] = math.nan


def _infinite_angle(doc):
    doc["settings"]["b_prime"] = math.inf


def _huge_integer_angle(doc):
    doc["settings"]["b"] = 10 ** 400


def _table_x(doc):
    doc["model"]["tables"]["x"] = [[0.5]]


def _apparatus_c(doc):
    apparatus = doc["distributions"]["apparatus"]
    apparatus["c"] = apparatus["a"]


def _exact_samples(doc):
    doc["run"]["estimator"]["samples"] = 1000


def _bogus_top_level(doc):
    doc["bogus"] = 1


def _joint_beside_factorized(doc):
    doc["distributions"]["joint"] = doc["distributions"]["rho"]


def _both_pair_orders(doc):
    marginals = doc["distributions"]["marginals"]
    marginals["b|a"] = marginals["a|b"]


def _nested_rho_weights(doc):
    rho = doc["distributions"]["rho"]
    rho["weights"] = [[w] for w in rho["weights"]]


def _moved(label, *keys):
    """An edit that puts the distribution at ``keys`` under
    ``distributions`` on the space ``label``; every space of the bundled
    files has two values."""
    def edit(doc):
        dist = doc["distributions"]
        for key in keys:
            dist = dist[key]
        dist["domain"] = [label]
    return edit


def _wide_apparatus(doc):
    """Correlations only, on 3000-value lambda_a and lambda_b spaces and
    singleton lambda, lambda_a' and lambda_b'."""
    wide = [str(v) for v in range(3000)]
    point = [1.0] + [0.0] * 2999
    for space in doc["spaces"]:
        space["values"] = wide if space["label"] in ("lambda_a", "lambda_b") else ["0"]
    doc["model"]["tables"] = {"a": [[1.0] * 3000], "a_prime": [[1.0]],
                              "b": [[-1.0] * 3000], "b_prime": [[1.0]]}
    dists = doc["distributions"]
    dists["rho"]["weights"] = [1.0]
    for name, dist in dists["apparatus"].items():
        dist["weights"] = point if name in ("a", "b") else [1.0]
    doc["run"]["analyses"] = ["correlations"]


def _set(*keys, value):
    """An edit that sets the field at ``keys`` to ``value``."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        doc[keys[-1]] = value
    return edit


def _drop(*keys):
    """An edit that deletes the field at ``keys``."""
    def edit(doc):
        for key in keys[:-1]:
            doc = doc[key]
        del doc[keys[-1]]
    return edit


_LABELS = ["lambda", "lambda_a", "lambda_a_prime", "lambda_b",
           "lambda_b_prime"]
_MONTE_CARLO = {"method": "monte-carlo", "samples": 1000, "seed": 1}


def _apparatus_under_source_only(doc):
    doc["distributions"] = {"mode": "SourceOnly",
                            "rho": doc["distributions"]["rho"]}
    doc["run"]["analyses"] = ["correlations"]


def _deeply_nested(tmp_path) -> str:
    path = tmp_path / "deep.scenario"
    path.write_text("[" * 5000 + "]" * 5000, encoding="utf-8")
    return str(path)


def _repeated_key(tmp_path) -> str:
    """A copy of the factorized scenario whose distributions object
    states its mode twice."""
    text = (SCENARIOS / "factorized.scenario").read_text(encoding="utf-8")
    mode = '"mode": "FactorizedApparatus"'
    assert text.count(mode) == 1
    path = tmp_path / "factorized.scenario"
    path.write_text(text.replace(mode, f"{mode}, {mode}"), encoding="utf-8")
    return str(path)


MODULE_TAGS = ("hv-core", "response-models", "correlation-engine",
               "feasibility", "simplex", "qm-reference", "cli-harness")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class TestErrorTags:
    def test_every_error_class_names_a_module(self):
        tags = {getattr(c, "module", None) for c in _subclasses(BellsimError)}
        assert tags == set(MODULE_TAGS)

    @pytest.mark.parametrize("argv, prefix", [
        (lambda _: ["qm", "search", "--grid-step", "2"], "[qm-reference] grid step"),
        (lambda _: ["enumerate-bound", "532"],
         "[correlation-engine] source cardinality must be at most 531, got 532\n"),
        (lambda _: ["enumerate-bound", "0"], "[correlation-engine] source"),
        (lambda _: ["run", str(SCENARIOS / "factorized.scenario"),
                    "--work-limit", "4"], "[feasibility] requires 32 units"),
        (lambda _: ["generate", "foo"], "[cli-harness] unknown template"),
        (lambda p: ["run", str(p / "absent.scenario")],
         "[cli-harness] cannot read"),
        (lambda p: ["run", _edited(p, "singlet-witness.scenario",
                                   _swap_ab_apparatus)],
         "[correlation-engine] "),
        (lambda p: ["run", _edited(p, "singlet-witness.scenario",
                                   _negative_weight)],
         "[hv-core] weight at flat index 0 is negative"),
        (lambda p: ["run", _edited(p, "factorized.scenario", _half_sign)],
         "[response-models] table for 'a' must contain only +1/-1"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _nan_source_weight)],
         "[hv-core] weights sum to nan"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _nan_source_weight_monte_carlo)],
         "[hv-core] weights sum to nan"),
        (lambda p: ["run", _edited(p, "stochastic-equivalent.scenario",
                                   _nan_comparison_table)],
         "[response-models] table for 'a' must lie in [0, 1]"),
        (lambda p: ["run", _edited(p, "factorized.scenario", _nan_angle)],
         "[cli-harness] settings.a: expected a finite number, got nan"),
        (lambda p: ["run", _edited(p, "factorized.scenario", _infinite_angle)],
         "[cli-harness] settings.b_prime: expected a finite number, got inf"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _huge_integer_angle)],
         "[cli-harness] settings.b: expected a finite number, got 1000"),
        (lambda p: ["run", _edited(p, "factorized.scenario", _table_x)],
         "[cli-harness] model.tables.x: unknown table"),
        (lambda p: ["run", _edited(p, "factorized.scenario", _apparatus_c)],
         "[cli-harness] distributions.apparatus.c: unknown setting name"),
        (lambda p: ["run", _edited(p, "factorized.scenario", _exact_samples)],
         "[cli-harness] run.estimator.samples: unknown field"),
        (lambda p: ["run", _edited(p, "factorized.scenario", _bogus_top_level)],
         "[cli-harness] scenario.bogus: unknown field"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _joint_beside_factorized)],
         "[cli-harness] distributions.joint: unknown field"),
        (lambda p: ["run", _edited(p, "singlet-witness.scenario",
                                   _both_pair_orders)],
         "[cli-harness] distributions.marginals.b|a: a second key for the "
         "setting pair ('a', 'b')"),
        (lambda p: ["run", _repeated_key(p)],
         "[cli-harness] mode: field repeated within one JSON object"),
        (lambda p: ["qm", "chsh", "0", "1", "2", "3", "-o", str(p)],
         "[cli-harness] cannot write "),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _nested_rho_weights)],
         "[cli-harness] distributions.rho.weights: expected a flat array"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _moved("lambda_a", "rho"))],
         "[correlation-engine] FactorizedApparatus distributions live on "
         "('lambda_a:2', 'lambda_a:2', 'lambda_a_prime:2', 'lambda_b:2', "
         "'lambda_b_prime:2'), expected ('lambda:2', 'lambda_a:2', "
         "'lambda_a_prime:2', 'lambda_b:2', 'lambda_b_prime:2')\n"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _moved("lambda_b_prime", "rho"))],
         "[correlation-engine] FactorizedApparatus distributions live on "
         "('lambda_b_prime:2', 'lambda_a:2', 'lambda_a_prime:2', 'lambda_b:2', "
         "'lambda_b_prime:2'), expected "),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _moved("lambda_b", "apparatus", "a"))],
         "[correlation-engine] FactorizedApparatus distributions live on "
         "('lambda:2', 'lambda_b:2', 'lambda_a_prime:2', 'lambda_b:2', "
         "'lambda_b_prime:2'), expected "),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _moved("lambda", "apparatus", "a"))],
         "[correlation-engine] FactorizedApparatus distributions live on "
         "('lambda:2', 'lambda:2', 'lambda_a_prime:2', 'lambda_b:2', "
         "'lambda_b_prime:2'), expected "),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _moved("lambda_b", "apparatus", "a_prime"))],
         "[correlation-engine] FactorizedApparatus distributions live on "
         "('lambda:2', 'lambda_a:2', 'lambda_b:2', 'lambda_b:2', "
         "'lambda_b_prime:2'), expected "),
        (lambda _: ["qm", "table", "1e308", "-1e308"],
         "[qm-reference] angles must be finite, got a - b = inf"),
        (lambda _: ["qm", "chsh", "1e308", "0", "-1e308", "0"],
         "[qm-reference] angles must be finite, got a - b = inf"),
        (lambda _: ["generate", "setting-dependent-witness",
                    "--angles", "1e308,0,-1e308,0"],
         "[cli-harness] parameter 'angles': angles must be finite, "
         "got a - b = inf"),
        (lambda p: ["run", _deeply_nested(p)],
         "[cli-harness] deep.scenario: invalid JSON (maximum recursion"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("schema_version", value="1"))],
         "[cli-harness] schema_version: expected an integer"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("distributions", "rho", "weights",
                                        value=1.0))],
         "[cli-harness] distributions.rho.weights: expected an array"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("spaces", value={}))],
         "[cli-harness] spaces: expected an array of declarations"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("spaces", 0, "label", value=7))],
         "[cli-harness] spaces[0]: label must be a string"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("spaces", 0, "values", value=[0, 1]))],
         "[cli-harness] spaces[0]: values must be an array of strings"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("distributions", "rho", "domain",
                                        value=[0]))],
         "[cli-harness] distributions.rho.domain: space reference must be a "
         "string label"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("distributions", "rho", "domain",
                                        value=[]))],
         "[cli-harness] distributions.rho: domain must be a nonempty array"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("run", "estimator",
                                        value={**_MONTE_CARLO, "samples": 0}))],
         "[cli-harness] run.estimator.samples: must be at least 1"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("run", "estimator",
                                        value={**_MONTE_CARLO, "seed": -1}))],
         "[cli-harness] run.estimator.seed: must be nonnegative"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("run", "estimator",
                                        value={**_MONTE_CARLO, "samples": 2 * 10**9}))],
         "[cli-harness] run.estimator.samples: must be at most 1000000000\n"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("run", "analyses", value=[]))],
         "[cli-harness] run.analyses: expected a nonempty array"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("description", value=3))],
         "[cli-harness] description: expected a string"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _apparatus_under_source_only)],
         "[cli-harness] model kind ApparatusDeterministic cannot run under "
         "mode SourceOnly"),
        (lambda p: ["run", _edited(p, "stochastic-equivalent.scenario",
                                   _drop("comparison_model"))],
         "[cli-harness] emulation analysis requires comparison_model"),
        (lambda p: ["run", _edited(p, "stochastic-equivalent.scenario",
                                   _set("distributions", value={
                                       "mode": "JointComposite",
                                       "joint": {"domain": _LABELS,
                                                 "weights": [1 / 32] * 32}}))],
         "[cli-harness] emulation analysis requires mode FactorizedApparatus"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("model", "tables", "a", value=[[1.0]]))],
         "[response-models] table for 'a' has shape (1, 1), expected (2, 2)"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _drop("model", "tables", "b"))],
         "[response-models] missing response table for setting 'b'"),
        (lambda p: ["run", _edited(p, "stochastic-equivalent.scenario",
                                   _drop("comparison_model", "tables", "a"))],
         "[response-models] missing probability table for setting 'a'"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _drop("distributions", "apparatus",
                                         "b_prime"))],
         "[correlation-engine] missing apparatus distribution for 'b_prime'"),
        (lambda p: ["run", _edited(p, "joint-composite.scenario",
                                   _set("distributions", "joint", value={
                                       "domain": _LABELS[:4],
                                       "weights": [1 / 16] * 16}))],
         "[correlation-engine] composite joint needs a five-space domain"),
        (lambda p: ["run", _edited(p, "joint-composite.scenario",
                                   _set("distributions", "joint", "domain", 1,
                                        value="lambda"))],
         "[correlation-engine] composite joint needs five distinct space "
         "labels, got ('lambda', 'lambda', 'lambda_a_prime', 'lambda_b', "
         "'lambda_b_prime')\n"),
        (lambda p: ["run", _edited(p, "singlet-witness.scenario", _b_on_lambda_a)],
         "[correlation-engine] setting-pair marginals need five distinct space "
         "labels, got ('lambda', 'lambda_a', 'lambda_a_prime', 'lambda_a', "
         "'lambda_b_prime')\n"),
        (lambda _: ["generate", "factorized", "--estimator", "monte-carlo",
                    "--mc-seed", "-1"],
         "[cli-harness] parameter 'mc_seed': must be nonnegative"),
        (lambda _: ["enumerate-bound", "3572"],
         "[correlation-engine] source cardinality must be at most 531, got 3572\n"),
        (lambda _: ["enumerate-bound", "1000000"],
         "[correlation-engine] source cardinality must be at most 531, got 1000000\n"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("distributions", "rho", "weights", 0,
                                        value=10 ** 400))],
         "[cli-harness] distributions.rho.weights: not a numeric array"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("model", "tables", "a", 0, 0,
                                        value=10 ** 400))],
         "[cli-harness] model.tables.a: not a numeric array"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("model", "kind",
                                        value=["ApparatusDeterministic"]))],
         "[cli-harness] model: unknown model kind ['ApparatusDeterministic']; "
         "expected one of "),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("distributions", "mode", value={"x": 1}))],
         "[cli-harness] distributions: unknown mode {'x': 1}; expected one of "),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("distributions", "rho", "weights",
                                        value=["0.5", "0.5"]))],
         "[cli-harness] distributions.rho.weights: expected an array of "
         "numbers, got str\n"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("model", "tables", "a", 0,
                                        value=[True, -1.0]))],
         "[cli-harness] model.tables.a: expected an array of numbers, got bool\n"),
        (lambda p: ["run", _edited(p, "factorized.scenario",
                                   _set("distributions", "rho", "weights", 0,
                                        value=None))],
         "[cli-harness] distributions.rho.weights: expected an array of "
         "numbers, got NoneType\n"),
    ], ids=["qm-search-step", "enumerate-bound-532", "enumerate-bound-0",
            "work-limit", "unknown-template", "missing-file",
            "swapped-domain", "negative-weight", "half-sign", "nan-weight",
            "nan-weight-monte-carlo", "nan-comparison-table", "nan-angle",
            "infinite-angle", "huge-integer-angle", "unknown-table",
            "unknown-apparatus-setting", "exact-estimator-samples",
            "unknown-top-level-field", "joint-beside-factorized",
            "both-pair-orders", "repeated-key", "output-is-directory",
            "nested-weights", "rho-on-lambda-a", "rho-on-lambda-b-prime",
            "apparatus-a-on-lambda-b", "apparatus-a-on-lambda",
            "apparatus-a-prime-on-lambda-b",
            "qm-table-overflowing-difference", "qm-chsh-overflowing-difference",
            "witness-overflowing-difference", "deeply-nested-json",
            "string-schema-version", "scalar-weights", "spaces-object",
            "integer-space-label", "integer-space-values", "integer-domain-label",
            "empty-domain", "zero-samples", "negative-mc-seed", "too-many-samples",
            "no-analyses", "integer-description", "apparatus-under-source-only",
            "emulation-without-comparison", "emulation-under-joint-composite",
            "one-by-one-table", "missing-model-table",
            "missing-comparison-table", "missing-apparatus-distribution",
            "four-space-joint", "joint-lambda-twice", "marginals-b-on-lambda-a",
            "generate-negative-mc-seed",
            "enumerate-bound-3572", "enumerate-bound-1000000",
            "huge-integer-weight", "huge-integer-table-entry",
            "list-model-kind", "object-distribution-mode", "string-weights",
            "boolean-table", "null-weight"])
    def test_stderr_names_the_module(self, capsys, monkeypatch, tmp_path, argv,
                                     prefix):
        raised = []
        init = BellsimError.__init__

        def recorded(self, detail):
            init(self, detail)
            raised.append(self)

        monkeypatch.setattr(BellsimError, "__init__", recorded)
        code, out, err = run_cli(capsys, *argv(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith("bellsim: error: " + prefix)
        assert err.count("\n") == 1 and err.endswith("\n")
        # the detail of every error is its message, and the last one is printed
        assert [exc.detail for exc in raised] == [str(exc) for exc in raised]
        assert err == f"bellsim: error: [{raised[-1].module}] {raised[-1].detail}\n"


class TestGenerate:
    def test_generate_then_run(self, capsys, tmp_path):
        out = tmp_path / "gen.scenario"
        code, _, _ = run_cli(capsys, "generate", "factorized",
                             "--seed", "5", "-o", str(out))
        assert code == 0
        code, text, _ = run_cli(capsys, "run", str(out))
        assert code == 0
        assert json.loads(text)["analyses"]["feasibility"]["status"] == "Feasible"

    def test_generate_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "setting-dependent-witness")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["distributions"]["mode"] == "SettingDependent"

    def test_generate_with_flags(self, capsys, tmp_path):
        out = tmp_path / "mc.scenario"
        code, _, _ = run_cli(capsys, "generate", "joint-composite",
                             "--seed", "3", "--cards", "2,2,2,2,2",
                             "--estimator", "monte-carlo", "--samples", "1000",
                             "--mc-seed", "12", "-o", str(out))
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["run"]["estimator"] == {"method": "monte-carlo",
                                           "samples": 1000, "seed": 12}

    @pytest.mark.parametrize("flags", [("--samples", "0", "--mc-seed", "-3"),
                                       ("--samples", "1000"),
                                       ("--mc-seed", "3")])
    def test_exact_estimator_refuses_monte_carlo_flags(self, capsys, flags):
        code, out, err = run_cli(capsys, "generate", "factorized", *flags)
        assert (code, out) == (1, "")
        name = "samples" if flags[0] == "--samples" else "mc_seed"
        assert err == (f"bellsim: error: [cli-harness] parameter {name!r}: "
                       "applies only to the monte-carlo estimator\n")

    def test_monte_carlo_defaults(self, capsys):
        code, out, _ = run_cli(capsys, "generate", "factorized",
                               "--estimator", "monte-carlo")
        assert code == 0
        assert json.loads(out)["run"]["estimator"] == {
            "method": "monte-carlo", "samples": 100_000, "seed": 0}

    def test_samples_above_the_cap_refused(self, capsys):
        code, out, err = run_cli(capsys, "generate", "factorized",
                                 "--estimator", "monte-carlo",
                                 "--samples", str(MAX_SAMPLES + 1))
        assert (code, out) == (1, "")
        assert err.startswith("bellsim: error: [cli-harness] parameter 'samples': ")
        code, out, _ = run_cli(capsys, "generate", "factorized",
                               "--estimator", "monte-carlo",
                               "--samples", str(MAX_SAMPLES))
        assert code == 0
        assert json.loads(out)["run"]["estimator"]["samples"] == MAX_SAMPLES

    def test_unknown_template_exit(self, capsys):
        code, _, err = run_cli(capsys, "generate", "foo")
        assert code == 1
        assert "unknown template" in err

    def test_witness_refuses_other_cards_exit(self, capsys):
        code, out, err = run_cli(capsys, "generate", "setting-dependent-witness",
                                 "--cards", "8,8,8,8,8")
        assert (code, out) == (1, "")
        assert err.startswith("bellsim: error: [cli-harness] parameter 'cards': ")

    def test_bad_angles_exit(self, capsys):
        code, _, err = run_cli(capsys, "generate", "setting-dependent-witness",
                               "--angles", "0,1.5707963267948966,0,1.5707963267948966")
        assert code == 1
        assert "angles" in err

    @pytest.mark.parametrize("first", ["-0.5", "-1e-3", "-.25", "-2.5E-1"])
    def test_negative_angles_any_spelling(self, capsys, first):
        code, out, err = run_cli(capsys, "generate", "factorized",
                                 "--angles", f"{first},0,0,-1e-3")
        assert (code, err) == (0, "")
        assert json.loads(out)["settings"] == {
            "a": float(first), "a_prime": 0.0, "b": 0.0, "b_prime": -1e-3}

    @pytest.mark.parametrize("flag, value, kind", [("--cards", "2,x", "integer"),
                                                   ("--angles", "0,x", "number")])
    def test_malformed_list_exits_2(self, capsys, flag, value, kind):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "factorized", flag, value])
        assert exc.value.code == 2
        assert (f"argument {flag}: not a comma-separated {kind} list: "
                f"{value!r}") in capsys.readouterr().err

    def test_negative_infinite_angle_exit(self, capsys):
        code, out, err = run_cli(capsys, "generate", "factorized",
                                 "--angles", "-inf,0,0,0")
        assert (code, out) == (1, "")
        assert "angles must be finite" in err


class TestEnumerateBound:
    def test_small_cardinality(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate-bound", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["max_abs_s"] == 2.0
        assert doc["strategies"] == 2 ** 8
        assert "vertex" in doc["reduction_note"]

    def test_work_limit_exit(self, capsys):
        code, out, err = run_cli(capsys, "enumerate-bound", "532")
        assert (code, out) == (1, "")
        assert err == ("bellsim: error: [correlation-engine] source cardinality "
                       "must be at most 531, got 532\n")

    def test_seven_points_under_a_raised_limit_end_within_a_second(self, capsys):
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "enumerate-bound", "7")
        assert time.monotonic() - start < 1.0
        assert code == 0
        doc = json.loads(out)
        assert (doc["max_abs_s"], doc["strategies"]) == (2.0, 2 ** 28)

    def test_sixteen_points_under_a_64_bit_limit_end_within_a_second(self, capsys):
        start = time.monotonic()
        code, out, _ = run_cli(capsys, "enumerate-bound", "16")
        assert time.monotonic() - start < 1.0
        assert code == 0
        doc = json.loads(out)
        assert (doc["max_abs_s"], doc["strategies"]) == (2.0, 2 ** 64)

    def test_531_points_print_under_the_lowest_digit_limit(self):
        # in a child process, so that the interpreter starts with the
        # lowest int-to-str limit it accepts, and a hang fails the timeout
        child = ("import sys, time\n"
                 "from bellsim.cli import main\n"
                 "start = time.monotonic()\n"
                 "code = main(['enumerate-bound', '531'])\n"
                 "print(code, time.monotonic() - start, file=sys.stderr)\n")
        env = _child_env() | {"PYTHONINTMAXSTRDIGITS": "640"}
        done = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=30, check=True)
        code, seconds = done.stderr.split()
        assert code == "0" and float(seconds) < 1.0
        doc = json.loads(done.stdout)
        assert (doc["max_abs_s"], doc["strategies"]) == (2.0, 2 ** 2124)

    def test_help_names_no_work_limit(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate-bound", "--help"])
        assert exc.value.code == 0
        assert "--work-limit" not in capsys.readouterr().out


class TestQm:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "qm", "table", "0", TSIRELSON[2])
        assert code == 0
        doc = json.loads(out)
        assert doc["correlation"] == pytest.approx(-math.cos(math.pi / 4),
                                                   abs=1e-12)
        assert sum(doc["probabilities"].values()) == pytest.approx(1.0, abs=1e-12)

    def test_chsh_at_tsirelson(self, capsys):
        code, out, _ = run_cli(capsys, "qm", "chsh", *TSIRELSON)
        assert code == 0
        doc = json.loads(out)
        assert doc["s"] == pytest.approx(-2 * math.sqrt(2), abs=1e-9)
        assert doc["bell_check"]["verdict"] == "Violated"
        assert len(doc["pairs"]) == 4

    def test_search(self, capsys):
        code, out, _ = run_cli(capsys, "qm", "search",
                               "--grid-step", str(math.pi / 8),
                               "--refine-rounds", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["abs_s"] >= 2.8274
        assert set(doc["angles"]) == {"a", "a_prime", "b", "b_prime"}

    def test_search_bad_step_exit(self, capsys):
        for step in ("2.0", "0.001"):
            code, _, err = run_cli(capsys, "qm", "search", "--grid-step", step)
            assert code == 1
            assert "step" in err.lower()
            assert "[2*pi/1024, pi/4]" in err

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("position", [0, 1])
    def test_table_non_finite_angle_exit(self, capsys, bad, position):
        angles = ["0.3", "0.3"]
        angles[position] = bad
        # "--" lets argparse take "-inf" as a positional value
        code, out, err = run_cli(capsys, "qm", "table", "--", *angles)
        assert code == 1
        assert out == ""
        assert err.startswith("bellsim: error: [qm-reference] angles must be finite")
        assert f"got {('a', 'b')[position]} = {float(bad)!r}" in err

    @pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("position", [0, 3])
    def test_chsh_non_finite_angle_exit(self, capsys, bad, position):
        angles = list(TSIRELSON)
        angles[position] = bad
        code, out, err = run_cli(capsys, "qm", "chsh", "--", *angles)
        assert code == 1
        assert out == ""
        assert err.startswith("bellsim: error: [qm-reference] angles must be finite")
        name = ("a", "a_prime", "b", "b_prime")[position]
        assert f"got {name} = {float(bad)!r}" in err

    @pytest.mark.parametrize("angle", ["-1e-3", "-2.5e-1", "-.5", "-1E+0", "-0.5"])
    def test_negative_angles_any_spelling(self, capsys, angle):
        code, out, err = run_cli(capsys, "qm", "table", "0", angle)
        assert (code, err) == (0, "")
        assert json.loads(out)["angles"] == {"a": 0.0, "b": float(angle)}
        code, out, err = run_cli(capsys, "qm", "chsh", angle, "0", "0", angle)
        assert (code, err) == (0, "")
        angles = json.loads(out)["angles"]
        assert angles["a"] == angles["b_prime"] == float(angle)

    @pytest.mark.parametrize("bad", ["-inf", "-Infinity", "-nan"])
    def test_negative_non_finite_angle_without_separator_exit(self, capsys, bad):
        for argv in (["table", "0", bad], ["chsh", "0", "0", "0", bad]):
            code, out, err = run_cli(capsys, "qm", *argv)
            assert (code, out) == (1, "")
            assert err.startswith(
                "bellsim: error: [qm-reference] angles must be finite")
            assert f"= {float(bad)!r}" in err

    def test_unknown_dash_token_is_still_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["qm", "table", "0", "-x"])
        assert exc.value.code == 2
        assert "required: angle_b" in capsys.readouterr().err

    def test_search_negative_rounds_exit(self, capsys):
        code, _, err = run_cli(capsys, "qm", "search", "--refine-rounds", "-1")
        assert code == 1
        assert "refine rounds -1" in err
        assert "grid step" not in err


def _parser_exit_text(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return f"{exc.value.code}\n{captured.out}\n{captured.err}"


class TestParserReuse:
    """One parser serves every ``main`` call of a process."""

    def test_valid_call_after_a_usage_error(self, capsys):
        cli._build_parser.cache_clear()
        first = run_cli(capsys, "qm", "chsh", *TSIRELSON)
        cli._build_parser.cache_clear()
        assert _parser_exit_text(capsys, "run").startswith("2\n")
        assert run_cli(capsys, "qm", "chsh", *TSIRELSON) == first
        assert cli._build_parser.cache_info().currsize == 1

    @pytest.mark.parametrize("argv", [["--help"], ["qm", "chsh", "--help"],
                                      ["run"], ["qm", "chsh", "1"], ["bogus"],
                                      ["generate", "x", "--cards", "a"]],
                             ids=" ".join)
    def test_help_and_usage_errors_repeat(self, capsys, argv):
        cli._build_parser.cache_clear()
        texts = [_parser_exit_text(capsys, *argv) for _ in range(3)]
        assert texts[0] == texts[2]
        assert cli._build_parser.cache_info().hits == 2

    def test_import_builds_no_parser(self):
        child = ("import argparse\n"
                 "built = []\n"
                 "init = argparse.ArgumentParser.__init__\n"
                 "argparse.ArgumentParser.__init__ = "
                 "lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
                 "import bellsim.cli\n"
                 "print(len(built), bellsim.cli._build_parser.cache_info().currsize)\n")
        done = subprocess.run([sys.executable, "-c", child], env=_child_env(),
                              capture_output=True, text=True, timeout=120, check=True)
        assert done.stdout == "0 0\n"


_PINNED_GENERATE = ("--seed", "2", "--cards", "3,2,4,2,3",
                    "--angles", "0.3,1.1,-2,4",
                    "--description", "pinned generate bytes")
_PINNED_EXACT = ("generate", "stochastic-equivalent", "--seed", "2",
                 "--cards", "3,2,4,2,3", "--estimator", "exact")

#: case -> (commands, run in order with {tmp} replaced by a scratch file
#: path; sha256 of the last command's standard output).  These pin the
#: generated documents of every template, the exact emulation report and
#: the qm chsh document, which the report digests do not cover.
PINNED_OUTPUT = {
    "generate-factorized": (
        [("generate", "factorized", *_PINNED_GENERATE)],
        "bf9bedebbe12ee90357a77993f0af7c5be13fb4f955e90b1344340d2ac8bc9c6"),
    "generate-joint-composite": (
        [("generate", "joint-composite", *_PINNED_GENERATE)],
        "46761a60a766603c4410fc3a59bb146ec4eb83a87cd440626db97bbbd49a15d3"),
    "generate-witness": (
        [("generate", "setting-dependent-witness", "--angles",
          "0.1,1.7,0.8,-0.7", "--description", "pinned generate bytes")],
        "93960d02640443b6d1ed6bdd69c25526bcf7b3cd8158e1a2e1dcb7c79c6b3e99"),
    "generate-stochastic-equivalent": (
        [("generate", "stochastic-equivalent", *_PINNED_GENERATE)],
        "164a0fde25751b282e0459e65b4669ee99d2a0dc7f62ee2e5e9ec581ed663dce"),
    "generate-stochastic-equivalent-exact": (
        [_PINNED_EXACT],
        "d6138195d925f56897ccf26bb0aaf80aa6156d7f4fd4f984d2a38bc43a500dac"),
    "run-stochastic-equivalent-exact": (
        [(*_PINNED_EXACT, "-o", "{tmp}"), ("run", "{tmp}")],
        "5ce2d78c709206ded7533b5c6945367af3041774f27397f47e0af77ff8724382"),
    "qm-chsh-tsirelson": (
        [("qm", "chsh", *TSIRELSON)],
        "cb6bcfbf53014025a5303c9ff2240d318b5e75b5c9320acbe796d24a0b46cf21"),
    "qm-chsh-other": (
        [("qm", "chsh", "0.3", "1.1", "-2", "4")],
        "44662d92bb3d307c238da97368067c442277b323111322d2b435bc79dd69d89b"),
}


@pytest.mark.parametrize("case", sorted(PINNED_OUTPUT))
def test_output_bytes_pinned(capsys, tmp_path, case):
    commands, digest = PINNED_OUTPUT[case]
    tmp = str(tmp_path / "pinned.scenario")
    for argv in commands:
        code, out, err = run_cli(capsys, *(a.replace("{tmp}", tmp) for a in argv))
        assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
