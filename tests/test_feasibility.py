"""Joint-distribution existence, classification, witness constructions."""

from __future__ import annotations

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest
from dense_lp import constraint_matrix, solve_equality_feasibility
from helpers import (
    FOUR_SETTINGS,
    chsh_symmetrization_max,
    exact_separation,
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
from bellsim.errors import FeasibilityError
from bellsim.feasibility import (
    CERTIFICATE_SLACK,
    LP_CELL_LIMIT,
    LP_TOTAL_CELL_LIMIT,
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
from bellsim.models import ApparatusDeterministic, standard_settings
from bellsim.qm import singlet_chsh, singlet_probabilities
from bellsim.simplex import pair_rows, solve_block
from bellsim.spaces import (
    SETTING_PAIRS,
    Distribution,
    FiveSpaces,
    HiddenSpace,
    marginalize,
)

TSIRELSON_ANGLES = FOUR_SETTINGS
TSIRELSON = 2.0 * math.sqrt(2.0)
#: The starts of the refusals of an unchecked Feasible and Infeasible verdict.
JOINT_REFUSED = "^joint misses the marginals by "
CERTIFICATE_REFUSED = r"^certificate does not separate: max y\^T A = "


def _non_violating(settings) -> str:
    """The refusal of witness angles, naming their singlet CHSH value."""
    return (f"^singlet CHSH value {re.escape(repr(singlet_chsh(*settings)))} "
            "does not violate the bound")


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
        with pytest.raises(FeasibilityError, match=_non_violating(flat)):
            construct_nonlocal_witness(flat)
        equal = standard_settings(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(FeasibilityError, match=_non_violating(equal)):
            construct_nonlocal_witness(equal)

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
        with pytest.raises(FeasibilityError, match=f"^requires {16 ** 4 * 4} units "
                           "of work, limit is 65536$"):
            check_joint_existence(family)

    def test_lowered_limit(self):
        spaces = five_spaces((2, 2, 2, 2, 2))
        marginals = {}
        for p, q in SETTING_PAIRS:
            dom = (spaces.lam, spaces.for_setting(p), spaces.for_setting(q))
            marginals[(p, q)] = Distribution.uniform(dom)
        family = SettingDependent(marginals)
        with pytest.raises(FeasibilityError,
                           match="^requires 32 units of work, limit is 16$"):
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
        assert verdict.residual == marginal_residual(family.marginals,
                                                     verdict.joint)

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
        with pytest.raises(FeasibilityError, match=JOINT_REFUSED) as exc:
            check_joint_existence(uniform_factorized((2, 2, 2, 2, 2)))
        assert exc.value.module == "feasibility"

    def test_work_limit_applies(self):
        joint = Distribution.uniform(tuple(five_spaces((2, 2, 2, 2, 2))))
        dists = JointComposite(joint)
        assert check_joint_existence(dists, work_limit=32).feasible
        with pytest.raises(FeasibilityError,
                           match="^requires 32 units of work, limit is 31$"):
            check_joint_existence(dists, work_limit=31)

    def test_refused_family_builds_no_witness(self, monkeypatch):
        def unbuildable(rho, apparatus):
            raise AssertionError("witness built before the work limit")

        monkeypatch.setattr(feasibility, "factorized_joint", unbuildable)
        with pytest.raises(FeasibilityError,
                           match="^requires 32 units of work, limit is 31$"):
            check_joint_existence(uniform_factorized((2, 2, 2, 2, 2)),
                                  work_limit=31)

    @pytest.mark.parametrize("mode", ["factorized", "joint-composite"])
    def test_refused_mode_builds_no_family(self, monkeypatch, mode):
        if mode == "factorized":
            dists = uniform_factorized((2, 2, 2, 2, 2))
        else:
            dists = JointComposite(Distribution.uniform(tuple(five_spaces((2,) * 5))))

        def unbuildable(*args):
            raise AssertionError("family built before the work limit")

        monkeypatch.setattr(feasibility, "product_distribution", unbuildable)
        monkeypatch.setattr(feasibility, "marginalize", unbuildable)
        with pytest.raises(FeasibilityError,
                           match="^requires 32 units of work, limit is 31$"):
            check_joint_existence(dists, work_limit=31)

    def test_factorized_part_on_two_spaces_is_refused(self):
        dists = uniform_factorized((2, 2, 2, 2, 2))
        spaces = five_spaces((2, 2, 2, 2, 2))
        dists = FactorizedApparatus(
            Distribution.uniform((spaces.lam, spaces.lam_a)), dists.apparatus)
        with pytest.raises(FeasibilityError, match="^FactorizedApparatus distributions "
                           "need one space each, got ") as exc:
            check_joint_existence(dists)
        assert exc.value.module == "feasibility"

    def test_source_only_mode_is_refused(self):
        rho = Distribution.uniform((five_spaces((2, 2, 2, 2, 2)).lam,))
        with pytest.raises(FeasibilityError) as exc:
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
        assert marginal_residual(family.marginals, verdict.joint) == pytest.approx(
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

        def counted(shape, b, rows):
            result = solve_block(shape, b, rows)
            iterations.append(result.iterations)
            return result

        monkeypatch.setattr(feasibility, "solve_block", counted)
        verdict = assert_agrees_with_full_system(family)
        assert verdict.feasible
        # blocks with b = 0 start at a zero objective and take no pivot
        assert iterations[0] == iterations[2] == 0 and iterations[1] > 0
        assert np.all(verdict.joint.weights[[0, 2]] == 0.0)

    def test_blocks_share_one_pair_rows_index(self, monkeypatch):
        rng = np.random.default_rng(51)
        family = random_family(rng, (4, 2, 3, 2, 2))
        seen = []

        def recorded(shape, b, rows):
            seen.append(rows)
            return solve_block(shape, b, rows)

        monkeypatch.setattr(feasibility, "solve_block", recorded)
        assert_agrees_with_full_system(family)
        assert len(seen) == 4 and all(rows is seen[0] for rows in seen)
        np.testing.assert_array_equal(seen[0], pair_rows((1, 2, 3, 2, 2)))

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
        _, B = constraint_matrix(family)
        block = solve_block((2, 2, 2, 2), B[1])
        assert not block.feasible
        assert verdict.violation == pytest.approx(block.objective, abs=1e-12)


class TestSelfCheckedVerdicts:
    def test_perturbed_joint_is_refused(self, monkeypatch):
        rng = np.random.default_rng(50)
        family = family_from_joint(random_distribution(
            rng, tuple(five_spaces((2, 2, 2, 2, 2)))))

        def perturbed(shape, b, rows):
            result = solve_block(shape, b, rows)
            x = result.x.copy()
            x[0] += 1e-6
            return dataclasses.replace(result, x=x)

        monkeypatch.setattr(feasibility, "solve_block", perturbed)
        with pytest.raises(FeasibilityError, match=JOINT_REFUSED) as exc:
            check_joint_existence(family)
        assert exc.value.module == "feasibility"

    @pytest.mark.parametrize("perturb", [
        lambda y: y + np.eye(y.size)[0] * 0.5,   # some column's y^T A > 0
        lambda y: y * 0.0,                       # y^T b no longer positive
    ], ids=["max_yta", "ytb"])
    def test_perturbed_certificate_is_refused(self, monkeypatch, perturb):
        family, _ = construct_nonlocal_witness(TSIRELSON_ANGLES)

        def perturbed(shape, b, rows):
            result = solve_block(shape, b, rows)
            return dataclasses.replace(result,
                                       certificate=perturb(result.certificate))

        monkeypatch.setattr(feasibility, "solve_block", perturbed)
        with pytest.raises(FeasibilityError, match=CERTIFICATE_REFUSED) as exc:
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
            with pytest.raises(FeasibilityError, match=CERTIFICATE_REFUSED) as exc:
                check_joint_existence(family)
            assert exc.value.module == "feasibility"
        else:
            assert check_joint_existence(family).status == status


def singlet_spread(rng, cards, side_a_sign=1.0):
    """Singlet marginals spread over random apparatus values, read out by
    random sign tables, with the Tsirelson angles turned by a random offset.

    Each row of a sign table holds both signs, and a value v of setting p
    carries the weight rho(lambda) P_pq(s_p(v), s_q(v')) w_p(v) w_q(v'),
    with w_p a probability vector inside each sign class.  So the tables
    read out the singlet correlations, |S| = 2 sqrt(2), in every block.
    ``side_a_sign`` = -1 negates both side-A tables, which flips the sign
    of S.  Returns the family, the model and the settings.
    """
    spaces = five_spaces(cards)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    settings = standard_settings(*(s.angle + theta for s in TSIRELSON_ANGLES))
    by_name = {s.name: s for s in settings}
    rho = rng.dirichlet(np.ones(cards[0]))
    signs, spread = {}, {}
    for name, c in zip(("a", "a_prime", "b", "b_prime"), cards[1:]):
        base = np.where(np.arange(c) < (c + 1) // 2, 1.0, -1.0)
        signs[name] = np.array([rng.permutation(base)
                                for _ in range(cards[0])])
        spread[name] = np.zeros_like(signs[name])
        for lam in range(cards[0]):
            for sign in (1.0, -1.0):
                cls = np.flatnonzero(signs[name][lam] == sign)
                spread[name][lam, cls] = rng.dirichlet(np.ones(cls.size))
    marginals = {}
    for p, q in SETTING_PAIRS:
        cells = np.array(singlet_probabilities(by_name[p],
                                               by_name[q]).probabilities)
        # cell index of (s_p, s_q): ++, +-, -+, --
        code = (1.0 - signs[p][:, :, None]) + (1.0 - signs[q][:, None, :]) / 2
        weights = (rho[:, None, None] * cells[code.astype(int)]
                   * spread[p][:, :, None] * spread[q][:, None, :])
        dom = (spaces.lam, spaces.for_setting(p), spaces.for_setting(q))
        marginals[(p, q)] = Distribution(dom, weights)
    tables = {name: signs[name] * (side_a_sign if name in ("a", "a_prime")
                                   else 1.0) for name in signs}
    return (SettingDependent(marginals), ApparatusDeterministic(spaces, tables),
            settings)


def no_lp(shape, b, rows):
    raise AssertionError("the LP ran")


class TestChshCertificate:
    @pytest.mark.parametrize("cards", [(2, 2, 2, 2, 2), (3, 4, 4, 4, 4),
                                       (1, 16, 16, 16, 16)],
                             ids=lambda c: "x".join(map(str, c)))
    @pytest.mark.parametrize("side_a_sign", [1.0, -1.0], ids=["S<0", "S>0"])
    def test_violating_family_is_certified_without_the_lp(
            self, monkeypatch, cards, side_a_sign):
        rng = np.random.default_rng(53)
        family, model, settings = singlet_spread(rng, cards, side_a_sign)
        bell = exact_report(model, family, settings).bound
        assert bell.s * side_a_sign < -2.8
        monkeypatch.setattr(feasibility, "solve_block", no_lp)
        verdict = check_joint_existence(family, model=model)
        assert verdict.status == "Infeasible"
        assert verdict.max_yta == 0.0
        assert verdict.violation == pytest.approx(bell.excess, abs=1e-12)
        assert (verdict.max_yta, verdict.violation) == verify_certificate(
            family, verdict.certificate)
        max_yta, ytb = exact_separation(family, verdict.certificate)
        assert max_yta == 0 and ytb > 0

    def test_witness_certificate_is_half_the_lp_certificate(self):
        # on the binary witness the LP's phase-1 dual is 2 y
        family, model = construct_nonlocal_witness(TSIRELSON_ANGLES)
        closed = check_joint_existence(family, model=model)
        lp = check_joint_existence(family)
        np.testing.assert_array_equal(2.0 * closed.certificate, lp.certificate)
        assert closed.violation == pytest.approx(TSIRELSON - 2.0, abs=1e-12)

    def test_bell_satisfying_nonlocal_family_reaches_the_lp(self, monkeypatch):
        # all-(+1) tables read S = 2 off the witness marginals, which no
        # joint returns; only the LP can say so
        family, witness_model = construct_nonlocal_witness(TSIRELSON_ANGLES)
        model = ApparatusDeterministic(
            witness_model.spaces,
            {name: np.ones((1, 2)) for name in witness_model.tables})
        calls = []

        def counted(shape, b, rows):
            calls.append(b)
            return solve_block(shape, b, rows)

        monkeypatch.setattr(feasibility, "solve_block", counted)
        verdict = check_joint_existence(family, model=model)
        reference = check_joint_existence(family)
        assert len(calls) == 2
        assert verdict.status == "Infeasible"
        np.testing.assert_array_equal(verdict.certificate, reference.certificate)
        assert (verdict.violation, verdict.max_yta) == (reference.violation,
                                                        reference.max_yta)

    @pytest.mark.parametrize("excess", [8e-8, 1e-8])
    def test_excess_within_the_slack_reaches_the_lp(self, monkeypatch, excess):
        # the closed form gives y^T b = excess <= CERTIFICATE_SLACK and
        # declines; the LP's optimum is 2 * excess: Infeasible at 8e-8,
        # inside the band between the tolerances at 1e-8
        e = {("a", "b"): 0.5, ("a", "b_prime"): 0.5, ("a_prime", "b"): 0.5,
             ("a_prime", "b_prime"): -(0.5 + excess)}
        family, model = uniform_marginal_family(e)
        y = feasibility._chsh_certificate(family, model)
        assert 0.0 < verify_certificate(family, y)[1] <= CERTIFICATE_SLACK
        calls = []

        def counted(shape, b, rows):
            calls.append(b)
            return solve_block(shape, b, rows)

        monkeypatch.setattr(feasibility, "solve_block", counted)
        if excess < 5e-8:
            with pytest.raises(FeasibilityError, match=CERTIFICATE_REFUSED) as exc:
                check_joint_existence(family, model=model)
            assert exc.value.module == "feasibility"
        else:
            verdict = check_joint_existence(family, model=model)
            assert verdict.status == "Infeasible"
            assert verdict.violation == pytest.approx(2.0 * excess, rel=1e-6)
        assert len(calls) == 1

    @pytest.mark.parametrize("cards", [(2, 2, 2, 2, 2), (1, 2, 2, 3, 2)])
    def test_model_on_other_spaces_is_refused(self, cards):
        family, _ = construct_nonlocal_witness(TSIRELSON_ANGLES)
        spaces = five_spaces(cards)
        model = ApparatusDeterministic(spaces, {
            name: np.ones((cards[0], spaces.for_setting(name).cardinality))
            for name in ("a", "a_prime", "b", "b_prime")})
        with pytest.raises(FeasibilityError, match="differ from the family's") as exc:
            check_joint_existence(family, model=model)
        assert exc.value.module == "feasibility"


def uniform_family(cards) -> SettingDependent:
    spaces = five_spaces(cards)
    return SettingDependent({(p, q): Distribution.uniform(
        (spaces.lam, spaces.for_setting(p), spaces.for_setting(q)))
        for p, q in SETTING_PAIRS})


class ReachedTheLp(Exception):
    pass


class TestLpCellLimit:
    def test_limit_is_the_eight_valued_block(self):
        m, n = 4 * 8 ** 2, 8 ** 4
        assert LP_CELL_LIMIT == (m + 1) * (n + m + 1) == 257 * 4353

    @pytest.mark.parametrize("cards", [(8, 8, 8, 8, 8), (1, 8, 8, 8, 8),
                                       (16, 8, 8, 8, 8), (1, 1, 1, 64, 64)],
                             ids=lambda c: "x".join(map(str, c)))
    def test_admitted_shapes_reach_the_lp(self, monkeypatch, cards):
        def reached(shape, b, rows):
            raise ReachedTheLp

        monkeypatch.setattr(feasibility, "solve_block", reached)
        with pytest.raises(ReachedTheLp):
            check_joint_existence(uniform_family(cards))

    @pytest.mark.parametrize("cards, rows, cols", [
        ((1, 16, 16, 16, 16), 1024, 65536),
        ((1, 2, 128, 2, 128), 16900, 65536),
        ((1, 8, 8, 8, 9), 272, 4608),
    ], ids=lambda c: "x".join(map(str, c)) if isinstance(c, tuple) else None)
    def test_oversized_block_is_refused_before_it_is_built(
            self, monkeypatch, cards, rows, cols):
        monkeypatch.setattr(feasibility, "solve_block", no_lp)
        with pytest.raises(FeasibilityError) as exc:
            check_joint_existence(uniform_family(cards))
        cells = (rows + 1) * (cols + rows + 1)
        assert str(exc.value) == (
            f"requires {cells} tableau cells for an LP block of {rows} rows "
            f"and {cols} columns, limit is {LP_CELL_LIMIT}")

    @pytest.mark.parametrize("cards, rows, cols", [
        ((152, 1, 1, 1, 430), 862, 430),
        ((1395, 1, 1, 1, 45), 92, 45),
    ], ids=lambda c: "x".join(map(str, c)) if isinstance(c, tuple) else None)
    def test_too_many_blocks_are_refused_before_any_is_solved(
            self, monkeypatch, cards, rows, cols):
        monkeypatch.setattr(feasibility, "solve_block", no_lp)
        with pytest.raises(FeasibilityError) as exc:
            check_joint_existence(uniform_family(cards))
        cells = cards[0] * (rows + 1) * (cols + rows + 1)
        assert str(exc.value) == (
            f"requires {cells} tableau cells for {cards[0]} LP blocks of "
            f"{rows} rows and {cols} columns, limit is {LP_TOTAL_CELL_LIMIT}")

    def test_blocks_up_to_the_summed_limit_reach_the_lp(self, monkeypatch):
        """1394 blocks of 92 x 45 hold 17,890,596 cells, just under the
        summed limit, which is that of sixteen 8^4 blocks."""
        assert LP_TOTAL_CELL_LIMIT == 16 * LP_CELL_LIMIT

        def reached(shape, b, rows):
            raise ReachedTheLp

        monkeypatch.setattr(feasibility, "solve_block", reached)
        with pytest.raises(ReachedTheLp):
            check_joint_existence(uniform_family((1394, 1, 1, 1, 45)))

    def test_certificate_comes_before_the_limit(self, monkeypatch):
        rng = np.random.default_rng(54)
        family, model, _ = singlet_spread(rng, (1, 2, 128, 2, 128))
        monkeypatch.setattr(feasibility, "solve_block", no_lp)
        assert check_joint_existence(family, model=model).max_yta == 0.0
        with pytest.raises(FeasibilityError, match="^requires "):
            check_joint_existence(family)
