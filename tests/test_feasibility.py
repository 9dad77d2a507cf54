"""Joint-distribution existence, classification, witness constructions."""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
import pytest
from helpers import (
    FOUR_SETTINGS,
    chsh_symmetrization_max,
    five_spaces,
    random_apparatus_dists,
    random_distribution,
    uniform_marginal_family,
)

from bellsim import feasibility
from bellsim.correlation import (
    FactorizedApparatus,
    JointComposite,
    SettingDependent,
    SourceOnly,
    bell_check,
    exact_report,
)
from bellsim.errors import (
    DomainMismatch,
    NonViolatingAngles,
    NumericalFailure,
    WorkLimitExceeded,
)
from bellsim.feasibility import (
    CERTIFICATE_SLACK,
    MARGINAL_TOL,
    check_joint_existence,
    classify,
    construct_factorized_family,
    construct_nonlocal_witness,
    factorized_joint,
    family_from_joint,
    marginal_residual,
    verify_certificate,
)
from bellsim.models import standard_settings
from bellsim.qm import singlet_chsh, singlet_probabilities
from bellsim.simplex import solve_equality_feasibility
from bellsim.spaces import (
    SETTING_PAIRS,
    Distribution,
    FiveSpaces,
    HiddenSpace,
    marginalize,
)

TSIRELSON_ANGLES = FOUR_SETTINGS
TSIRELSON = 2.0 * math.sqrt(2.0)


def assert_marginals_reproduced(family, verdict):
    assert verdict.feasible
    assert verdict.residual <= MARGINAL_TOL
    for p, q in SETTING_PAIRS:
        keep = tuple(s.label for s in family.marginal(p, q).domain)
        got = marginalize(verdict.joint, keep)
        np.testing.assert_allclose(got.flat, family.marginal(p, q).flat,
                                   atol=MARGINAL_TOL)


class TestFactorizedFamilies:
    def test_uniform_inputs_give_uniform_marginals(self):
        spaces = five_spaces((2, 2, 2, 2, 2))
        rho = Distribution.uniform((spaces.lam,))
        apparatus = {n: Distribution.uniform((spaces.for_setting(n),))
                     for n in ("a", "a_prime", "b", "b_prime")}
        family = construct_factorized_family(rho, apparatus)
        for p, q in SETTING_PAIRS:
            np.testing.assert_allclose(family.marginal(p, q).flat, 1.0 / 8,
                                       atol=1e-12)

    def test_point_mass_source_freezes_lambda(self):
        rng = np.random.default_rng(41)
        spaces = five_spaces((3, 2, 2, 2, 2))
        rho = Distribution.point_mass((spaces.lam,), 1)
        apparatus = random_apparatus_dists(rng, spaces)
        family = construct_factorized_family(rho, apparatus)
        m = family.marginal("a", "b")
        assert np.all(m.weights[0] == 0.0) and np.all(m.weights[2] == 0.0)

    def test_always_feasible(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            cards = tuple(int(c) for c in rng.integers(1, 4, size=5))
            spaces = five_spaces(cards)
            rho = random_distribution(rng, (spaces.lam,))
            apparatus = random_apparatus_dists(rng, spaces)
            family = construct_factorized_family(rho, apparatus)
            verdict = check_joint_existence(family)
            assert_marginals_reproduced(family, verdict)
            assert classify(family) == "Local"

    def test_product_joint_is_a_witness(self):
        rng = np.random.default_rng(43)
        spaces = five_spaces((2, 2, 2, 2, 2))
        rho = random_distribution(rng, (spaces.lam,))
        apparatus = random_apparatus_dists(rng, spaces)
        joint = factorized_joint(rho, apparatus)
        family = construct_factorized_family(rho, apparatus)
        for p, q in SETTING_PAIRS:
            keep = tuple(s.label for s in family.marginal(p, q).domain)
            np.testing.assert_allclose(marginalize(joint, keep).flat,
                                       family.marginal(p, q).flat, atol=1e-12)


class TestRandomJointFamilies:
    def test_marginals_of_any_joint_are_local(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            cards = tuple(int(c) for c in rng.integers(1, 3, size=5))
            spaces = five_spaces(cards)
            joint = random_distribution(rng, tuple(spaces))
            family = family_from_joint(joint)
            verdict = check_joint_existence(family)
            assert_marginals_reproduced(family, verdict)


class TestNonlocalWitness:
    def test_tsirelson_family_reaches_quantum_chsh(self):
        family, model = construct_nonlocal_witness(TSIRELSON_ANGLES)
        report = exact_report(model, family, TSIRELSON_ANGLES)
        assert report.s == pytest.approx(-TSIRELSON, abs=1e-9)
        assert not report.bound.satisfied

    def test_tsirelson_family_is_infeasible_with_valid_certificate(self):
        family, _ = construct_nonlocal_witness(TSIRELSON_ANGLES)
        verdict = check_joint_existence(family)
        assert verdict.status == "Infeasible"
        assert verdict.joint is None
        max_ya, yb = verify_certificate(family, verdict.certificate)
        assert max_ya <= 1e-7
        assert yb > 1e-9
        assert verdict.violation == pytest.approx(yb, abs=1e-12)
        # the verdict carries the check it made, bit for bit
        assert (verdict.max_yta, verdict.violation) == (max_ya, yb)
        assert classify(family) == "Nonlocal"

    def test_non_violating_angles_rejected(self):
        flat = standard_settings(0.0, math.pi / 2, 0.0, math.pi / 2)
        with pytest.raises(NonViolatingAngles) as exc:
            construct_nonlocal_witness(flat)
        assert abs(exc.value.s) <= 2.0
        equal = standard_settings(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(NonViolatingAngles) as exc:
            construct_nonlocal_witness(equal)
        assert exc.value.s == pytest.approx(-2.0, abs=1e-12)

    def test_witness_family_is_setting_dependent(self):
        family, _ = construct_nonlocal_witness(TSIRELSON_ANGLES)
        lam_a = family.spaces.lam_a.label
        m1 = marginalize(family.marginal("a", "b"), (lam_a,))
        m2 = marginalize(family.marginal("a", "b_prime"), (lam_a,))
        # single-side marginals agree (no-signaling), yet no joint exists
        np.testing.assert_allclose(m1.flat, m2.flat, atol=1e-12)

    def test_determinism(self):
        family, _ = construct_nonlocal_witness(TSIRELSON_ANGLES)
        v1 = check_joint_existence(family)
        v2 = check_joint_existence(family)
        assert v1.status == v2.status == "Infeasible"
        assert np.array_equal(v1.certificate, v2.certificate)


class TestEquivalenceWithChsh:
    def test_signed_generator_agrees_with_bell_check(self):
        # E(a,b), E(a,b'), E(a',b) >= 0 and E(a',b') <= 0 make the canonical
        # CHSH combination the largest of the eight symmetrizations, so with
        # uniform single-side marginals the joint exists exactly when the
        # canonical |S| stays within the bound.
        rng = np.random.default_rng(45)
        trials = 0
        locals_seen = nonlocals_seen = 0
        while trials < 60:
            e = {("a", "b"): rng.uniform(0, 1),
                 ("a", "b_prime"): rng.uniform(0, 1),
                 ("a_prime", "b"): rng.uniform(0, 1),
                 ("a_prime", "b_prime"): -rng.uniform(0, 1)}
            s = (e[("a", "b")] + e[("a", "b_prime")] + e[("a_prime", "b")]
                 - e[("a_prime", "b_prime")])
            if abs(abs(s) - 2.0) < 1e-6:
                continue
            trials += 1
            family, model = uniform_marginal_family(e)
            report = exact_report(model, family, FOUR_SETTINGS)
            assert report.s == pytest.approx(s, abs=1e-12)
            verdict = classify(family)
            if verdict == "Local":
                locals_seen += 1
                assert bell_check(report.s).satisfied
            else:
                nonlocals_seen += 1
                assert not bell_check(report.s).satisfied
        assert locals_seen > 5 and nonlocals_seen > 5

    def test_free_signs_agree_with_symmetrization_maximum(self):
        # without the sign constraint the binding inequality may be another
        # symmetrization; feasibility must track the max of all eight
        rng = np.random.default_rng(46)
        trials = 0
        while trials < 40:
            e = {pair: rng.uniform(-1, 1) for pair in SETTING_PAIRS}
            worst = chsh_symmetrization_max(e)
            if abs(worst - 2.0) < 1e-6:
                continue
            trials += 1
            family, _ = uniform_marginal_family(e)
            assert classify(family) == ("Local" if worst <= 2.0 else "Nonlocal")


class TestInconsistentFamilies:
    def test_disagreeing_lambda_marginals_are_infeasible(self):
        lam = HiddenSpace.of_size("lambda", 2)
        spaces = FiveSpaces.binary_apparatus(lam)
        marginals = {}
        for p, q in SETTING_PAIRS:
            dom = (lam, spaces.for_setting(p), spaces.for_setting(q))
            if (p, q) == ("a", "b"):
                w = np.array([0.9, 0.0, 0.0, 0.0, 0.1, 0.0, 0.0, 0.0])
            else:
                w = np.array([0.5, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0])
            marginals[(p, q)] = Distribution(dom, w)
        family = SettingDependent(marginals)
        verdict = check_joint_existence(family)
        assert verdict.status == "Infeasible"
        max_ya, yb = verify_certificate(family, verdict.certificate)
        assert max_ya <= 1e-7 and yb > 1e-9


class TestWorkLimit:
    def test_oversized_product_rejected(self):
        spaces = five_spaces((16, 16, 16, 16, 4))
        marginals = {}
        for p, q in SETTING_PAIRS:
            dom = (spaces.lam, spaces.for_setting(p), spaces.for_setting(q))
            marginals[(p, q)] = Distribution.uniform(dom)
        family = SettingDependent(marginals)
        with pytest.raises(WorkLimitExceeded) as exc:
            check_joint_existence(family)
        assert exc.value.required == 16 ** 4 * 4
        assert exc.value.limit == 65536

    def test_lowered_limit(self):
        spaces = five_spaces((2, 2, 2, 2, 2))
        marginals = {}
        for p, q in SETTING_PAIRS:
            dom = (spaces.lam, spaces.for_setting(p), spaces.for_setting(q))
            marginals[(p, q)] = Distribution.uniform(dom)
        family = SettingDependent(marginals)
        with pytest.raises(WorkLimitExceeded):
            check_joint_existence(family, work_limit=16)


def uniform_factorized(cards) -> FactorizedApparatus:
    spaces = five_spaces(cards)
    return FactorizedApparatus(
        Distribution.uniform((spaces.lam,)),
        {n: Distribution.uniform((spaces.for_setting(n),))
         for n in ("a", "a_prime", "b", "b_prime")})


class TestConstructionWitness:
    def test_factorized_witness_is_the_renormalized_product(self):
        rng = np.random.default_rng(51)
        spaces = five_spaces((3, 2, 4, 2, 3))
        rho = random_distribution(rng, (spaces.lam,))
        apparatus = random_apparatus_dists(rng, spaces)
        family = construct_factorized_family(rho, apparatus)
        joint = factorized_joint(rho, apparatus)
        verdict = check_joint_existence(FactorizedApparatus(rho, apparatus))
        assert_marginals_reproduced(family, verdict)
        np.testing.assert_array_equal(
            verdict.joint.weights, joint.weights / float(np.sum(joint.flat)))
        assert verdict.residual == marginal_residual(family, verdict.joint)

    def test_joint_composite_witness_agrees_with_the_lp(self):
        rng = np.random.default_rng(52)
        joint = random_distribution(rng, tuple(five_spaces((2, 3, 2, 3, 2))))
        family = family_from_joint(joint)
        verdict = check_joint_existence(JointComposite(joint))
        assert_marginals_reproduced(family, verdict)
        assert verdict.status == check_joint_existence(family).status

    def test_perturbed_witness_is_refused(self, monkeypatch):
        real = feasibility.factorized_joint

        def off_by_a_little(rho, apparatus):
            joint = real(rho, apparatus)
            weights = joint.weights.copy()
            weights.flat[0] += 1e-6
            return Distribution(joint.domain, weights)

        monkeypatch.setattr(feasibility, "factorized_joint", off_by_a_little)
        with pytest.raises(NumericalFailure) as exc:
            check_joint_existence(uniform_factorized((2, 2, 2, 2, 2)))
        assert exc.value.module == "feasibility"

    def test_work_limit_applies(self):
        joint = Distribution.uniform(tuple(five_spaces((2, 2, 2, 2, 2))))
        dists = JointComposite(joint)
        assert check_joint_existence(dists, work_limit=32).feasible
        with pytest.raises(WorkLimitExceeded) as exc:
            check_joint_existence(dists, work_limit=31)
        assert exc.value.required == 32

    def test_refused_family_builds_no_witness(self, monkeypatch):
        def unbuildable(rho, apparatus):
            raise AssertionError("witness built before the work limit")

        monkeypatch.setattr(feasibility, "factorized_joint", unbuildable)
        with pytest.raises(WorkLimitExceeded):
            check_joint_existence(uniform_factorized((2, 2, 2, 2, 2)),
                                  work_limit=31)

    def test_source_only_mode_is_refused(self):
        rho = Distribution.uniform((five_spaces((2, 2, 2, 2, 2)).lam,))
        with pytest.raises(DomainMismatch) as exc:
            check_joint_existence(SourceOnly(rho))
        assert exc.value.module == "feasibility"
        assert str(exc.value) == ("no setting-pair marginal family for mode "
                                  "SourceOnly")


_AXES = {"a": 1, "a_prime": 2, "b": 3, "b_prime": 4}


def full_system(family):
    """The whole marginal system, one row per marginal cell in the order
    the certificate uses, built point by point from its definition."""
    shape = tuple(s.cardinality for s in family.spaces)
    points = list(itertools.product(*(range(c) for c in shape)))
    rows, rhs = [], []
    for p, q in SETTING_PAIRS:
        weights = family.marginal(p, q).weights
        for cell in itertools.product(*(range(c) for c in weights.shape)):
            rows.append([float((pt[0], pt[_AXES[p]], pt[_AXES[q]]) == cell)
                         for pt in points])
            rhs.append(weights[cell])
    return np.array(rows), np.array(rhs)


def random_family(rng, cards):
    """A factorized, joint-derived or per-pair-independent family; the
    last kind is usually Infeasible."""
    spaces = five_spaces(cards)
    kind = int(rng.integers(3))
    if kind == 0:
        return construct_factorized_family(
            random_distribution(rng, (spaces.lam,)),
            random_apparatus_dists(rng, spaces))
    if kind == 1:
        return family_from_joint(random_distribution(rng, tuple(spaces)))
    marginals = {}
    for p, q in SETTING_PAIRS:
        dom = (spaces.lam, spaces.for_setting(p), spaces.for_setting(q))
        marginals[(p, q)] = random_distribution(rng, dom)
    return SettingDependent(marginals)


def assert_agrees_with_full_system(family):
    """Block-split verdict equals the verdict of one solve of the stacked
    system, with a witness checked against that system."""
    A, b = full_system(family)
    reference = solve_equality_feasibility(A, b)
    verdict = check_joint_existence(family)
    assert verdict.feasible == reference.feasible
    if verdict.feasible:
        assert_marginals_reproduced(family, verdict)
        residual = float(np.max(np.abs(A @ verdict.joint.flat - b)))
        assert residual <= MARGINAL_TOL
        assert marginal_residual(family, verdict.joint) == pytest.approx(
            residual, abs=1e-15)
    else:
        y = verdict.certificate
        assert y.shape == b.shape
        assert float(np.max(y @ A)) <= CERTIFICATE_SLACK
        assert float(y @ b) > 1e-9
        max_yta, ytb = verify_certificate(family, y)
        assert max_yta == pytest.approx(float(np.max(y @ A)), abs=1e-12)
        assert ytb == pytest.approx(float(y @ b), abs=1e-12)
        assert verdict.violation == ytb
    return verdict


def singlet_block(angles, mass):
    """The singlet outcome table of every pair, scaled to total ``mass``."""
    by_name = {s.name: s for s in angles}
    return {(p, q): mass * np.array(singlet_probabilities(
                by_name[p], by_name[q]).probabilities).reshape(2, 2)
            for p, q in SETTING_PAIRS}


class TestBlockSplit:
    def test_random_families_match_full_system(self):
        rng = np.random.default_rng(47)
        seen = {True: 0, False: 0}
        for _ in range(40):
            cards = tuple(int(c) for c in rng.integers(1, 4, size=5))
            verdict = assert_agrees_with_full_system(random_family(rng, cards))
            seen[verdict.feasible] += 1
        assert seen[True] > 5 and seen[False] > 5

    def test_point_mass_source_leaves_other_blocks_empty(self, monkeypatch):
        rng = np.random.default_rng(48)
        spaces = five_spaces((3, 2, 3, 2, 2))
        family = construct_factorized_family(
            Distribution.point_mass((spaces.lam,), 1),
            random_apparatus_dists(rng, spaces))
        iterations = []

        def counted(A, b):
            result = solve_equality_feasibility(A, b)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(feasibility, "solve_equality_feasibility", counted)
        verdict = assert_agrees_with_full_system(family)
        assert verdict.feasible
        # blocks with b = 0 start at a zero objective and take no pivot
        assert iterations[0] == iterations[2] == 0 and iterations[1] > 0
        assert np.all(verdict.joint.weights[[0, 2]] == 0.0)

    def test_single_inconsistent_block(self):
        rng = np.random.default_rng(49)
        spaces = five_spaces((3, 2, 2, 2, 2))
        joint = random_distribution(rng, tuple(spaces))
        mass = float(joint.weights[1].sum())
        singlet = singlet_block(TSIRELSON_ANGLES, mass)
        marginals = {}
        for pair, marginal in family_from_joint(joint).marginals.items():
            weights = marginal.weights.copy()
            weights[1] = singlet[pair]
            marginals[pair] = Distribution(marginal.domain, weights)
        family = SettingDependent(marginals)
        verdict = assert_agrees_with_full_system(family)
        assert verdict.status == "Infeasible"
        # only the rows of block 1 carry weight: per pair, rows run
        # lambda-major over four cells
        for k in range(4):
            group = verdict.certificate[12 * k:12 * (k + 1)].reshape(3, 4)
            assert np.all(group[[0, 2]] == 0.0)
            assert np.any(group[1] != 0.0)
        # y^T b is the inconsistent block's phase-1 optimum
        A, B = feasibility.constraint_matrix(family)
        block = solve_equality_feasibility(A, B[1])
        assert not block.feasible
        assert verdict.violation == pytest.approx(block.objective, abs=1e-12)


class TestSelfCheckedVerdicts:
    def test_perturbed_joint_is_refused(self, monkeypatch):
        rng = np.random.default_rng(50)
        family = family_from_joint(random_distribution(
            rng, tuple(five_spaces((2, 2, 2, 2, 2)))))

        def perturbed(A, b):
            result = solve_equality_feasibility(A, b)
            x = result.x.copy()
            x[0] += 1e-6
            return dataclasses.replace(result, x=x)

        monkeypatch.setattr(feasibility, "solve_equality_feasibility", perturbed)
        with pytest.raises(NumericalFailure) as exc:
            check_joint_existence(family)
        assert exc.value.module == "feasibility"

    @pytest.mark.parametrize("perturb", [
        lambda y: y + np.eye(y.size)[0] * 0.5,   # some column's y^T A > 0
        lambda y: y * 0.0,                       # y^T b no longer positive
    ], ids=["max_yta", "ytb"])
    def test_perturbed_certificate_is_refused(self, monkeypatch, perturb):
        family, _ = construct_nonlocal_witness(TSIRELSON_ANGLES)

        def perturbed(A, b):
            result = solve_equality_feasibility(A, b)
            return dataclasses.replace(result,
                                       certificate=perturb(result.certificate))

        monkeypatch.setattr(feasibility, "solve_equality_feasibility", perturbed)
        with pytest.raises(NumericalFailure) as exc:
            check_joint_existence(family)
        assert exc.value.module == "feasibility"

    @pytest.mark.parametrize("excess, status", [
        (1e-6, "Infeasible"), (1e-8, None), (-1e-8, "Feasible")])
    def test_band_between_tolerances_is_refused(self, excess, status):
        # CHSH value 2 + excess gives a phase-1 optimum of 2 * excess; in
        # (FEASIBILITY_TOL, CERTIFICATE_SLACK] it is too large for a joint
        # within MARGINAL_TOL and too small for a certificate that separates
        e = {("a", "b"): 0.5, ("a", "b_prime"): 0.5, ("a_prime", "b"): 0.5,
             ("a_prime", "b_prime"): -(0.5 + excess)}
        family, _ = uniform_marginal_family(e)
        if status is None:
            with pytest.raises(NumericalFailure) as exc:
                check_joint_existence(family)
            assert exc.value.module == "feasibility"
        else:
            assert check_joint_existence(family).status == status
