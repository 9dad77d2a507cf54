"""The acceptance gate: one test per criterion, pinned tolerances.

Each test carries a ``criterion`` marker; the conftest hook prints one
pass/fail line per criterion after the run.  The whole file targets well
under two minutes.
"""

from __future__ import annotations

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    FOUR_SETTINGS,
    chsh_symmetrization_max,
    random_apparatus,
    random_apparatus_dists,
    random_distribution,
    uniform_marginal_family,
)

from bellsim.cli import main
from bellsim.correlation import (
    BELL_BOUND_TOL,
    FactorizedApparatus,
    JointComposite,
    SourceOnly,
    bell_check,
    enumerate_bound,
    exact_report,
    monte_carlo_report,
)
from bellsim.feasibility import (
    CERTIFICATE_SLACK,
    check_joint_existence,
    classify,
    construct_factorized_family,
    construct_nonlocal_witness,
    verify_certificate,
)
from bellsim.models import (
    Setting,
    effective_responses,
    flatten_joint,
    lift_to_composite,
    stochastic_from_apparatus,
)
from bellsim.qm import max_violation_search, singlet_correlation
from bellsim.spaces import SETTING_NAMES, SETTING_PAIRS, marginalize

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)


@pytest.mark.criterion(1, "exhaustive enumeration returns exactly 2 for "
                          "source cardinalities 1-4 in under 5 s")
def test_criterion_1_bell_bound_enumeration():
    start = time.monotonic()
    for n in range(1, 5):
        result = enumerate_bound(n)
        assert result.max_abs_s == 2.0
        assert result.strategies == 2 ** (4 * n)
    assert time.monotonic() - start < 5.0


@pytest.mark.criterion(2, "500 randomized factorized-apparatus scenarios "
                          "all satisfy |S| <= 2 + 1e-9")
def test_criterion_2_factorized_recovery():
    rng = np.random.default_rng(101)
    for _ in range(500):
        cards = tuple(int(c) for c in rng.integers(1, 4, size=5))
        model = random_apparatus(rng, cards)
        rho = random_distribution(rng, (model.spaces.lam,))
        apparatus = random_apparatus_dists(rng, model.spaces)
        report = exact_report(model, FactorizedApparatus(rho, apparatus),
                              FOUR_SETTINGS)
        assert abs(report.s) <= 2.0 + BELL_BOUND_TOL


@pytest.mark.criterion(3, "500 randomized composite joints: direct and "
                          "lifted paths agree to 1e-12 and |S| <= 2 + 1e-9")
def test_criterion_3_joint_composite_recovery():
    rng = np.random.default_rng(102)
    for _ in range(500):
        cards = tuple(int(c) for c in rng.integers(1, 4, size=5))
        model = random_apparatus(rng, cards)
        joint = random_distribution(rng, tuple(model.spaces))
        direct = exact_report(model, JointComposite(joint), FOUR_SETTINGS)
        lifted = exact_report(lift_to_composite(model),
                              SourceOnly(flatten_joint(joint)), FOUR_SETTINGS)
        assert abs(direct.s - lifted.s) <= 1e-12
        for dp, lp in zip(direct.pairs, lifted.pairs):
            assert abs(dp.correlation - lp.correlation) <= 1e-12
        assert abs(direct.s) <= 2.0 + BELL_BOUND_TOL


@pytest.mark.criterion(4, "200 randomized factorized families are Feasible "
                          "and the recovered joint reproduces all marginals "
                          "to 1e-9")
def test_criterion_4_containment():
    rng = np.random.default_rng(103)
    for _ in range(200):
        cards = tuple(int(c) for c in rng.integers(1, 4, size=5))
        model = random_apparatus(rng, cards)
        rho = random_distribution(rng, (model.spaces.lam,))
        apparatus = random_apparatus_dists(rng, model.spaces)
        family = construct_factorized_family(rho, apparatus)
        verdict = check_joint_existence(family)
        assert verdict.feasible
        for pair in SETTING_PAIRS:
            expected = family.marginals[pair]
            got = marginalize(verdict.joint, expected.domain)
            assert np.max(np.abs(got.flat - expected.flat)) <= 1e-9


@pytest.mark.criterion(5, "singlet witness: exact S = -2*sqrt(2) +- 1e-9, "
                          "Monte Carlo at 1e6 within 4 SE, Infeasible with a "
                          "verifiable certificate")
def test_criterion_5_nonlocal_witness():
    family, model = construct_nonlocal_witness(FOUR_SETTINGS)
    exact = exact_report(model, family, FOUR_SETTINGS)
    assert exact.s == pytest.approx(-TWO_ROOT_TWO, abs=1e-9)

    mc = monte_carlo_report(model, family, FOUR_SETTINGS, samples=10 ** 6,
                            seed=20250825)
    s_se = math.sqrt(sum(pc.standard_error ** 2 for pc in mc.pairs))
    assert abs(mc.s - (-TWO_ROOT_TWO)) <= 4.0 * s_se

    verdict = check_joint_existence(family)
    assert verdict.status == "Infeasible"
    max_yta, ytb = verify_certificate(family, verdict.certificate)
    assert max_yta <= CERTIFICATE_SLACK
    assert ytb > 1e-9


@pytest.mark.criterion(6, "200 randomized witness-shaped families: classify "
                          "agrees with bell_check in every case")
def test_criterion_6_classification_crosscheck():
    # correlations with signs (+, +, +, -) make the canonical CHSH
    # combination the largest of the eight symmetrizations, so for these
    # uniform-marginal families the joint exists exactly when |S| <= 2;
    # trials within 1e-6 of the boundary are redrawn
    rng = np.random.default_rng(104)
    trials = 0
    locals_seen = nonlocals_seen = 0
    while trials < 200:
        e = {("a", "b"): rng.uniform(0, 1),
             ("a", "b_prime"): rng.uniform(0, 1),
             ("a_prime", "b"): rng.uniform(0, 1),
             ("a_prime", "b_prime"): -rng.uniform(0, 1)}
        s = (e[("a", "b")] + e[("a", "b_prime")] + e[("a_prime", "b")]
             - e[("a_prime", "b_prime")])
        if abs(abs(s) - 2.0) < 1e-6:
            continue
        assert chsh_symmetrization_max(e) == pytest.approx(abs(s), abs=1e-12)
        trials += 1
        family, model = uniform_marginal_family(e)
        report = exact_report(model, family, FOUR_SETTINGS)
        verdict = classify(family)
        if verdict == "Local":
            locals_seen += 1
            assert bell_check(report.s).satisfied
        else:
            nonlocals_seen += 1
            assert not bell_check(report.s).satisfied
    assert locals_seen > 20 and nonlocals_seen > 20


@pytest.mark.criterion(7, "200 random apparatus models: the collapsed "
                          "stochastic model matches effective responses and "
                          "correlations to 1e-12")
def test_criterion_7_stochastic_emulation():
    rng = np.random.default_rng(105)
    for _ in range(200):
        cards = tuple(int(c) for c in rng.integers(1, 4, size=5))
        model = random_apparatus(rng, cards)
        rho = random_distribution(rng, (model.spaces.lam,))
        apparatus = random_apparatus_dists(rng, model.spaces)
        stochastic = stochastic_from_apparatus(model, apparatus)
        averaged = effective_responses(model, apparatus)
        for name in SETTING_NAMES:
            collapsed = 2.0 * stochastic.tables[name] - 1.0
            assert np.all(np.abs(averaged[name] - collapsed) <= 1e-12)
        via_apparatus = exact_report(model, FactorizedApparatus(rho, apparatus),
                                     FOUR_SETTINGS)
        via_stochastic = exact_report(stochastic, SourceOnly(rho), FOUR_SETTINGS)
        for ap, sp in zip(via_apparatus.pairs, via_stochastic.pairs):
            assert abs(ap.correlation - sp.correlation) <= 1e-12


@pytest.mark.criterion(8, "QM oracle: E = -cos(angle) to 1e-12 on a 1-degree "
                          "grid; pi/8 search with 3 refinements reaches "
                          "|S| >= 2.8274")
def test_criterion_8_qm_self_consistency():
    a = Setting("A", "a", 0.0)
    for degrees in range(361):
        theta = math.radians(degrees)
        b = Setting("B", "b", theta)
        assert abs(singlet_correlation(a, b) - (-math.cos(theta))) <= 1e-12
    _, best = max_violation_search(math.pi / 8, 3)
    assert best >= 2.8274


@pytest.mark.criterion(9, "two runs of every bundled scenario produce "
                          "byte-identical reports")
def test_criterion_9_reproducibility(tmp_path, capsys):
    bundled = sorted(SCENARIOS.glob("*.scenario"))
    assert len(bundled) == 4
    for k, path in enumerate(bundled):
        first = tmp_path / f"{k}_first.json"
        second = tmp_path / f"{k}_second.json"
        assert main(["run", str(path), "-o", str(first)]) == 0
        assert main(["run", str(path), "-o", str(second)]) == 0
        blob = first.read_bytes()
        assert blob == second.read_bytes()
        json.loads(blob)  # reports stay valid JSON
