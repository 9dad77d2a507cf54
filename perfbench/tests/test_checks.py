"""The benchmark's own checks flag wrong outputs, and its generators hold."""

from __future__ import annotations

import copy
import itertools
import json
import math

import numpy as np
import pytest

import checks
import workloads
from bellsim import cli
from bellsim.feasibility import CERTIFICATE_SLACK, MARGINAL_TOL


def _run(tmp_path, doc, name="s"):
    scenario = tmp_path / f"{name}.scenario"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / f"{name}.report.json"
    assert cli.main(["run", str(scenario), "-o", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def _cards(doc):
    return tuple(len(s["values"]) for s in doc["spaces"])


@pytest.fixture(scope="module")
def local_case(tmp_path_factory):
    doc = workloads.local_scenario("joint-composite", (2, 2, 2, 2, 2),
                                   np.random.default_rng(7), 1)
    report = _run(tmp_path_factory.mktemp("local"), doc)
    return report, workloads.family_of(doc), _cards(doc)


@pytest.fixture(scope="module")
def nonlocal_case(tmp_path_factory):
    doc = workloads.nonlocal_scenario((2, 2, 2, 2, 2), np.random.default_rng(7),
                                      np.random.default_rng(1))
    report = _run(tmp_path_factory.mktemp("nonlocal"), doc)
    return report, workloads.family_of(doc), _cards(doc)


def test_tolerances_mirror_the_program():
    assert checks.MARGINAL_TOL == MARGINAL_TOL
    assert checks.CERTIFICATE_SLACK == CERTIFICATE_SLACK


def test_correct_reports_pass(local_case, nonlocal_case):
    assert checks.check_feasible(*local_case) == []
    assert checks.check_infeasible(*nonlocal_case) == []


def test_wrong_verdict_is_flagged(local_case, nonlocal_case):
    report, family, cards = local_case
    wrong = copy.deepcopy(report)
    wrong["analyses"]["feasibility"]["status"] = "Infeasible"
    assert checks.check_feasible(wrong, family, cards)
    # a correct Feasible report checked where Infeasible is expected
    assert checks.check_infeasible(report, family, cards)
    report, family, cards = nonlocal_case
    assert checks.check_feasible(report, family, cards)


def test_joint_with_residual_above_tolerance_is_flagged(local_case):
    report, family, cards = local_case
    bad = copy.deepcopy(report)
    weights = np.asarray(bad["analyses"]["feasibility"]["joint"]["weights"])
    weights = weights.reshape(cards)
    src = np.unravel_index(np.argmax(weights), cards)
    dst = list(src)
    dst[1] = 1 - dst[1]  # another lambda_a value: moves the (a, .) marginals
    shift = 100 * MARGINAL_TOL
    weights[src] -= shift
    weights[tuple(dst)] += shift
    bad["analyses"]["feasibility"]["joint"]["weights"] = weights.ravel().tolist()
    problems = checks.check_feasible(bad, family, cards)
    assert problems and "residual" in problems[0]


def _column_values(certificate, family, cards):
    y, start = {}, 0
    for pair in checks.PAIRS:
        size = family[pair].size
        y[pair] = np.asarray(certificate[start:start + size]).reshape(family[pair].shape)
        start += size
    values = {}
    for lam in range(cards[0]):
        for va, vap, vb, vbp in itertools.product(*(range(c) for c in cards[1:])):
            values[(lam, va, vap, vb, vbp)] = (
                y[("a", "b")][lam, va, vb] + y[("a", "b_prime")][lam, va, vbp]
                + y[("a_prime", "b")][lam, vap, vb]
                + y[("a_prime", "b_prime")][lam, vap, vbp])
    return values


def test_certificate_with_one_entry_perturbed_is_flagged(nonlocal_case):
    report, family, cards = nonlocal_case
    certificate = report["analyses"]["feasibility"]["certificate"]
    values = _column_values(certificate, family, cards)
    lam, va, _, vb, _ = max(values, key=values.get)
    # the (a, b) row of a column where y^T A attains its maximum
    row = np.ravel_multi_index((lam, va, vb), family[("a", "b")].shape)
    bad = copy.deepcopy(report)
    bad["analyses"]["feasibility"]["certificate"][row] += 1e-3
    problems = checks.check_infeasible(bad, family, cards)
    assert problems and "does not separate" in problems[0]


def test_certificate_check_is_exact(nonlocal_case):
    report, family, cards = nonlocal_case
    max_yta, ytb = checks.certificate_values(
        report["analyses"]["feasibility"]["certificate"], family, cards)
    assert max_yta <= checks.CERTIFICATE_SLACK
    assert ytb == pytest.approx(4 * (math.sqrt(2) - 1), abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("cards", [(1, 2, 2, 2, 2), (2, 3, 2, 4, 2), (3, 3, 3, 3, 3)])
def test_nonlocal_generator_is_infeasible_for_every_seed(tmp_path, seed, cards):
    doc = workloads.nonlocal_scenario(cards, np.random.default_rng(seed),
                                      np.random.default_rng(seed + 100))
    assert workloads.exact_s(doc) == pytest.approx(-2 * math.sqrt(2), abs=1e-12)
    report = _run(tmp_path, doc)
    assert checks.check_infeasible(report, workloads.family_of(doc), cards) == []


def _mc_report(corr, samples=10_000):
    return {"analyses": {"correlations": {
        "estimator": {"method": "monte-carlo", "samples": samples, "seed": 0},
        "pairs": [{"pair": list(pq), "correlation": corr[pq]}
                  for pq in checks.PAIRS]}}}


def test_monte_carlo_check_flags_an_estimate_far_from_exact():
    corr = {pq: 0.5 for pq in checks.PAIRS}
    exact = checks.chsh(corr)
    assert checks.check_monte_carlo(_mc_report(corr), exact, 10_000) == []
    assert checks.check_monte_carlo(_mc_report(corr), exact + 0.2, 10_000)
    assert checks.check_monte_carlo(_mc_report(corr), exact, 20_000)


def test_oracle_checks_flag_wrong_values():
    assert checks.check_enumerate_bound(
        {"strategies": 2 ** 24, "max_abs_s": 2.0}, 6) == []
    assert checks.check_enumerate_bound(
        {"strategies": 2 ** 24, "max_abs_s": 2.0000001}, 6)
    angles = workloads.tsirelson_angles(0.3)
    search = {"abs_s": abs(checks.singlet_s(angles)), "angles": angles}
    assert checks.check_qm_search(search) == []
    assert checks.check_qm_search(dict(search, abs_s=2.82))
    assert checks.check_qm_search(dict(search, angles=dict(angles, a=0.0)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(tmp_path, workload):
    def inputs(seed, name):
        workdir = tmp_path / name
        workdir.mkdir()
        ops = workloads.build_ops(workload, seed, workdir)
        argvs = [[arg.replace(str(workdir), "") for arg in op.argv] for op in ops]
        files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
        return argvs, files

    first = inputs(5, "first")
    assert inputs(5, "again") == first
    assert inputs(6, "other") != first
