"""Correlation engine: exact sums, CHSH, Monte Carlo, bound enumeration."""

from __future__ import annotations

import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from helpers import (
    FOUR_SETTINGS,
    five_spaces,
    random_apparatus,
    random_apparatus_dists,
    random_contextual,
    random_deterministic,
    random_distribution,
    random_stochastic,
    random_weights,
)

from bellsim.correlation import (
    BELL_BOUND_TOL,
    DEFAULT_ENUM_WORK_LIMIT,
    MAX_SAMPLES,
    FactorizedApparatus,
    JointComposite,
    SettingDependent,
    SourceOnly,
    bell_check,
    chsh,
    correlation_from_probabilities,
    enumerate_bound,
    exact_report,
    monte_carlo_report,
)
from bellsim.errors import CorrelationError, IncompatibleModeModel, NotNormalized
from bellsim.feasibility import check_joint_existence
from bellsim.models import (
    SETTING_NAMES,
    ApparatusDeterministic,
    Contextual,
    DeterministicSource,
    StochasticSource,
    effective_responses,
    flatten_joint,
    lift_to_composite,
    standard_settings,
)
from bellsim.qm import singlet_probabilities
from bellsim.report import run_scenario
from bellsim.scenario import generate_scenario, parse_scenario
from bellsim.spaces import SETTING_PAIRS, Distribution, HiddenSpace

A, A2, B, B2 = FOUR_SETTINGS
TOL = 1e-12
TSIRELSON = 2.0 * math.sqrt(2.0)
#: The start of the refusal of marginals that do not share five spaces.
SPACES_REFUSED = r"^setting-pair marginals need domains \(lambda, lambda_p, lambda_q\)"


def constant_deterministic(value_a: float, value_b: float, lam_card: int = 2):
    lam = HiddenSpace.of_size("lambda", lam_card)
    tables = {n: np.full(lam_card, value_a if n in ("a", "a_prime") else value_b)
              for n in SETTING_NAMES}
    return DeterministicSource(lam, tables)


def shared_coin():
    """lambda in {+1,-1} uniform; every response echoes lambda."""
    lam = HiddenSpace.binary("lambda")
    tables = {n: np.array([1.0, -1.0]) for n in SETTING_NAMES}
    model = DeterministicSource(lam, tables)
    return model, SourceOnly(Distribution.uniform((lam,)))


#: Each model kind under each distribution mode it accepts.
REFERENCE_CASES = [(kind, mode) for kind in (DeterministicSource, Contextual,
                                             StochasticSource)
                   for mode in (SourceOnly, SettingDependent)] + [
    (ApparatusDeterministic, mode)
    for mode in (FactorizedApparatus, JointComposite, SettingDependent)]


def _reference_case(rng, kind, mode):
    """A random model of ``kind`` and distributions of ``mode`` for it."""
    if kind is ApparatusDeterministic:
        model = random_apparatus(rng, rng.integers(1, 4, size=5))
        spaces = model.spaces
        if mode is FactorizedApparatus:
            return model, FactorizedApparatus(
                random_distribution(rng, (spaces.lam,)),
                random_apparatus_dists(rng, spaces))
        if mode is JointComposite:
            return model, JointComposite(random_distribution(rng, tuple(spaces)))
        return model, SettingDependent({
            (p, q): random_distribution(
                rng, (spaces.lam, spaces.for_setting(p), spaces.for_setting(q)))
            for p, q in SETTING_PAIRS})
    card = int(rng.integers(1, 5))
    model = {DeterministicSource: random_deterministic, Contextual: random_contextual,
             StochasticSource: random_stochastic}[kind](rng, card)
    if mode is SourceOnly:
        return model, SourceOnly(random_distribution(rng, (model.lam,)))
    return model, SettingDependent({pair: random_distribution(rng, (model.lam,))
                                    for pair in SETTING_PAIRS})


def _reference_sum(model, dists, p: str, q: str) -> float:
    """E(p, q) written out from the tables, independently of the outcome
    cells: sum w f g over lambda for the source kinds (f = 2 p(+1) - 1 for
    StochasticSource), Bell's sum of rho times the apparatus-averaged
    responses for FactorizedApparatus, and a direct sum over the joint or
    the (lambda, lambda_p, lambda_q) marginal for the other apparatus
    modes."""
    if isinstance(model, ApparatusDeterministic):
        f, g = model.tables[p], model.tables[q]
        if isinstance(dists, FactorizedApparatus):
            averaged = effective_responses(model, dists.apparatus)
            return sum(w * averaged[p][i] * averaged[q][i]
                       for i, w in enumerate(dists.rho.flat))
        if isinstance(dists, JointComposite):
            axis = {name: 1 + k for k, name in enumerate(SETTING_NAMES)}
            joint = dists.joint.weights
            return sum(joint[idx] * f[idx[0], idx[axis[p]]] * g[idx[0], idx[axis[q]]]
                       for idx in np.ndindex(joint.shape))
        marginal = dists.marginals[(p, q)].weights
        return sum(w * f[i, j] * g[i, k] for (i, j, k), w in np.ndenumerate(marginal))
    w = (dists.rho if isinstance(dists, SourceOnly) else dists.marginals[(p, q)]).flat
    if isinstance(model, Contextual):
        f, g = model.tables[(p, q)], model.tables[(q, p)]
    elif isinstance(model, StochasticSource):
        f, g = 2.0 * model.tables[p] - 1.0, 2.0 * model.tables[q] - 1.0
    else:
        f, g = model.tables[p], model.tables[q]
    return float(np.sum(w * f * g))


class TestCorrelationFromProbabilities:
    def test_perfect_correlation(self):
        assert correlation_from_probabilities(0.5, 0.0, 0.0, 0.5) == 1.0

    def test_perfect_anticorrelation(self):
        assert correlation_from_probabilities(0.0, 0.5, 0.5, 0.0) == -1.0

    def test_independence(self):
        assert correlation_from_probabilities(0.25, 0.25, 0.25, 0.25) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(CorrelationError, match="^negative probability -0.1$"):
            correlation_from_probabilities(-0.1, 0.5, 0.3, 0.3)

    def test_bad_sum_rejected(self):
        with pytest.raises(CorrelationError, match="^probabilities sum to 2.0, expected 1$"):
            correlation_from_probabilities(0.5, 0.5, 0.5, 0.5)


class TestChsh:
    def test_saturating(self):
        assert chsh(1.0, 1.0, 1.0, 1.0) == 2.0

    def test_null(self):
        assert chsh(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_tsirelson_combination(self):
        r = math.sqrt(2.0) / 2.0
        assert chsh(-r, -r, -r, r) == pytest.approx(-TSIRELSON, abs=TOL)

    def test_out_of_range(self):
        with pytest.raises(CorrelationError,
                           match=r"^correlation 1.5 lies outside \[-1, 1\]$"):
            chsh(1.5, 0.0, 0.0, 0.0)


class TestBellCheck:
    def test_boundary_satisfied(self):
        v = bell_check(2.0)
        assert v.satisfied and v.excess == 0.0 and v.label == "Satisfied"

    def test_violation_carries_excess(self):
        v = bell_check(2.8284)
        assert not v.satisfied
        assert v.excess == pytest.approx(0.8284, abs=TOL)
        assert v.label == "Violated"

    def test_interior_satisfied(self):
        assert bell_check(-1.5).satisfied

    def test_tolerance_band(self):
        assert bell_check(2.0 + 0.9e-9).satisfied
        assert not bell_check(-(2.0 + 1.1e-9)).satisfied


def exact_e(model, dists, pair) -> float:
    """E(p, q) as the exact report gives it."""
    p, q = pair
    return exact_report(model, dists, FOUR_SETTINGS).pair(p.name, q.name).correlation


class TestExactCorrelation:
    def test_constant_responders(self):
        model = constant_deterministic(1.0, -1.0, lam_card=3)
        rho = SourceOnly(random_distribution(np.random.default_rng(0),
                                             (model.lam,)))
        assert exact_e(model, rho, (A, B)) == pytest.approx(-1.0, abs=TOL)

    def test_shared_coin(self):
        model, dists = shared_coin()
        assert exact_e(model, dists, (A, B)) == pytest.approx(1.0, abs=TOL)

    def test_factorized_equals_composite_lift(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            model = random_apparatus(rng, rng.integers(1, 4, size=5))
            app = random_apparatus_dists(rng, model.spaces)
            rho = random_distribution(rng, (model.spaces.lam,))
            factorized = FactorizedApparatus(rho, app)
            parts = [rho] + [app[n] for n in SETTING_NAMES]
            from bellsim.spaces import product_distribution
            joint = JointComposite(product_distribution(parts))
            lifted = lift_to_composite(model)
            flat = SourceOnly(flatten_joint(joint.joint))
            for pair in ((A, B), (A, B2), (A2, B), (A2, B2)):
                e_fact = exact_e(model, factorized, pair)
                e_joint = exact_e(model, joint, pair)
                e_lift = exact_e(lifted, flat, pair)
                assert abs(e_fact - e_joint) <= TOL
                assert abs(e_joint - e_lift) <= TOL

    def test_contextual_reduction_matches_deterministic(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            det = random_deterministic(rng, int(rng.integers(1, 5)))
            ctx = Contextual.from_deterministic(det)
            dists = SourceOnly(random_distribution(rng, (det.lam,)))
            for pair in ((A, B), (A, B2), (A2, B), (A2, B2)):
                assert abs(exact_e(det, dists, pair) - exact_e(ctx, dists, pair)) <= TOL

    def test_incompatible_mode(self):
        det = random_deterministic(np.random.default_rng(3), 2)
        app = random_apparatus(np.random.default_rng(4), (2, 2, 2, 2, 2))
        factorized = FactorizedApparatus(
            random_distribution(np.random.default_rng(5), (app.spaces.lam,)),
            random_apparatus_dists(np.random.default_rng(6), app.spaces))
        with pytest.raises(IncompatibleModeModel, match="'FactorizedApparatus' is "
                           "incompatible with model kind 'DeterministicSource'"):
            exact_report(det, factorized, FOUR_SETTINGS)
        rho = SourceOnly(random_distribution(np.random.default_rng(7), (det.lam,)))
        with pytest.raises(IncompatibleModeModel, match="'SourceOnly' is "
                           "incompatible with model kind 'ApparatusDeterministic'"):
            exact_report(app, rho, FOUR_SETTINGS)

    def test_domain_mismatch(self):
        det = random_deterministic(np.random.default_rng(8), 2)
        other = SourceOnly(Distribution.uniform((HiddenSpace.of_size("lambda", 3),)))
        with pytest.raises(CorrelationError,
                           match="does not match the model's source space 'lambda'"):
            exact_report(det, other, FOUR_SETTINGS)


class TestBoundRecovery:
    def test_source_only_models_respect_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            kind = rng.integers(0, 3)
            card = int(rng.integers(1, 5))
            if kind == 0:
                model = random_deterministic(rng, card)
            elif kind == 1:
                model = random_stochastic(rng, card)
            else:
                model = Contextual.from_deterministic(random_deterministic(rng, card))
            dists = SourceOnly(random_distribution(rng, (model.lam,)))
            report = exact_report(model, dists, FOUR_SETTINGS)
            assert abs(report.s) <= 2.0 + BELL_BOUND_TOL
            assert report.bound.satisfied

    def test_factorized_respects_bound(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            model = random_apparatus(rng, rng.integers(1, 4, size=5))
            dists = FactorizedApparatus(
                random_distribution(rng, (model.spaces.lam,)),
                random_apparatus_dists(rng, model.spaces))
            assert abs(exact_report(model, dists, FOUR_SETTINGS).s) <= 2.0 + BELL_BOUND_TOL

    def test_joint_composite_respects_bound(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            model = random_apparatus(rng, (2, 2, 2, 2, 2))
            joint = JointComposite(random_distribution(rng, tuple(model.spaces)))
            assert abs(exact_report(model, joint, FOUR_SETTINGS).s) <= 2.0 + BELL_BOUND_TOL


class TestSettingDependentEscape:
    def test_source_level_marginals_can_break_the_bound(self):
        # A deterministic model plus per-pair source distributions: put the
        # (a', b') mass where the product response flips sign and every
        # other pair's mass where it does not.
        lam = HiddenSpace.of_size("lambda", 2)
        tables = {"a": np.array([1.0, 1.0]), "a_prime": np.array([1.0, 1.0]),
                  "b": np.array([1.0, 1.0]), "b_prime": np.array([1.0, -1.0])}
        model = DeterministicSource(lam, tables)
        mass0 = Distribution((lam,), [1.0, 0.0])
        mass1 = Distribution((lam,), [0.0, 1.0])
        dists = SettingDependent({
            ("a", "b"): mass0, ("a", "b_prime"): mass0,
            ("a_prime", "b"): mass0, ("a_prime", "b_prime"): mass1,
        })
        report = exact_report(model, dists, FOUR_SETTINGS)
        assert report.s == pytest.approx(4.0, abs=TOL)
        assert not report.bound.satisfied

    def test_singlet_shaped_marginals_reach_tsirelson(self):
        # Singleton source, binary apparatus spaces carrying the outcomes,
        # passthrough responses; each pair's marginal is the singlet
        # outcome table at the canonical angles.
        spaces = five_spaces((1, 2, 2, 2, 2))
        tables = {n: np.array([[1.0, -1.0]]) for n in SETTING_NAMES}
        model = ApparatusDeterministic(spaces, tables)
        settings = {s.name: s for s in FOUR_SETTINGS}
        marginals = {}
        for p, q in SETTING_PAIRS:
            probs = singlet_probabilities(settings[p], settings[q]).probabilities
            dom = (spaces.lam, spaces.for_setting(p), spaces.for_setting(q))
            marginals[(p, q)] = Distribution(dom, np.array(probs))
        dists = SettingDependent(marginals)
        report = exact_report(model, dists, FOUR_SETTINGS)
        assert report.s == pytest.approx(-TSIRELSON, abs=1e-9)
        assert not report.bound.satisfied
        for p, q in SETTING_PAIRS:
            want = singlet_probabilities(settings[p], settings[q]).correlation
            assert report.pair(p, q).correlation == pytest.approx(want, abs=TOL)


class TestSettingDependentFamily:
    def make_family(self):
        spaces = five_spaces((2, 2, 2, 2, 2))
        return SettingDependent({
            (p, q): Distribution.uniform(
                (spaces.lam, spaces.for_setting(p), spaces.for_setting(q)))
            for p, q in SETTING_PAIRS}), spaces

    def test_valid_family_accepts(self):
        family, spaces = self.make_family()
        assert family.spaces == spaces

    def test_marginal_lookup_symmetric(self):
        family, _ = self.make_family()
        assert family.marginal("a", "b") is family.marginal("b", "a")
        assert family.marginal("b_prime", "a_prime") is family.marginals[
            ("a_prime", "b_prime")]

    def test_missing_pair_rejected(self):
        family, _ = self.make_family()
        broken = dict(family.marginals)
        del broken[("a", "b")]
        with pytest.raises(CorrelationError, match="^need one marginal per setting pair"):
            SettingDependent(broken)

    def test_wrong_domain_rejected(self):
        family, spaces = self.make_family()
        broken = dict(family.marginals)
        broken[("a", "b")] = Distribution.uniform((spaces.lam,))
        with pytest.raises(CorrelationError, match=SPACES_REFUSED):
            SettingDependent(broken).spaces

    def test_source_only_marginals_have_no_spaces(self):
        lam = HiddenSpace.of_size("lambda", 2)
        family = SettingDependent({pair: Distribution.uniform((lam,))
                                   for pair in SETTING_PAIRS})
        with pytest.raises(CorrelationError, match=SPACES_REFUSED):
            family.spaces
        with pytest.raises(CorrelationError, match=SPACES_REFUSED):
            check_joint_existence(family)

    def test_inconsistent_spaces_rejected(self):
        # (a, b') names a lambda_a of three values, (a, b) one of two
        family, spaces = self.make_family()
        other = HiddenSpace.of_size("lambda_a", 3)
        broken = dict(family.marginals)
        broken[("a", "b_prime")] = Distribution.uniform(
            (spaces.lam, other, spaces.lam_b_prime))
        with pytest.raises(CorrelationError, match=SPACES_REFUSED) as exc:
            SettingDependent(broken).spaces
        assert exc.value.module == "correlation-engine"

    def test_swapped_axes_rejected(self):
        family, spaces = self.make_family()
        broken = dict(family.marginals)
        broken[("a_prime", "b")] = Distribution.uniform(
            (spaces.lam, spaces.lam_b, spaces.lam_a_prime))
        with pytest.raises(CorrelationError, match=SPACES_REFUSED):
            SettingDependent(broken).spaces

    def test_invalid_marginal_rejected(self):
        family, _ = self.make_family()
        broken = dict(family.marginals)
        m = broken[("a", "b")]
        broken[("a", "b")] = Distribution(m.domain, np.full(m.size, 0.5))
        with pytest.raises(NotNormalized, match="^weights sum to 4.0, "):
            SettingDependent(broken)


    def test_both_orders_of_one_pair_rejected(self):
        family, _ = self.make_family()
        both = {**family.marginals, ("b", "a"): family.marginals["a", "b"]}
        with pytest.raises(CorrelationError, match="^two marginals for one "
                           "setting pair, got "):
            SettingDependent(both)


def _on_spaces(mode: str, spaces):
    """A ``mode`` distribution of uniform weights on five ``spaces``."""
    if mode == "FactorizedApparatus":
        return FactorizedApparatus(
            Distribution.uniform((spaces.lam,)),
            {name: Distribution.uniform((spaces.for_setting(name),))
             for name in SETTING_NAMES})
    if mode == "SettingDependent":
        return SettingDependent({
            (p, q): Distribution.uniform(
                (spaces.lam, spaces.for_setting(p), spaces.for_setting(q)))
            for p, q in SETTING_PAIRS})
    return JointComposite(Distribution.uniform(tuple(spaces)))


class TestApparatusModes:
    @pytest.mark.parametrize("mode", ["FactorizedApparatus", "SettingDependent",
                                      "JointComposite"])
    def test_model_on_other_spaces_refused_before_any_family(self, monkeypatch,
                                                             mode):
        # lambda_b of the mode is a two-valued space of another label
        model = random_apparatus(np.random.default_rng(40), (2, 2, 2, 2, 2))
        dists = _on_spaces(mode, model.spaces._replace(
            lam_b=HiddenSpace.of_size("lambda_x", 2)))
        built = []
        monkeypatch.setattr("bellsim.correlation.product_distribution",
                            lambda *args: built.append(args))
        monkeypatch.setattr("bellsim.correlation.marginalize",
                            lambda *args: built.append(args))
        message = re.escape(
            f"{mode} distributions live on ('lambda:2', 'lambda_a:2', "
            "'lambda_a_prime:2', 'lambda_x:2', 'lambda_b_prime:2'), expected "
            "('lambda:2', 'lambda_a:2', 'lambda_a_prime:2', 'lambda_b:2', "
            "'lambda_b_prime:2')")
        with pytest.raises(CorrelationError, match=f"^{message}$") as exc:
            exact_report(model, dists, FOUR_SETTINGS)
        assert exc.value.module == "correlation-engine"
        with pytest.raises(CorrelationError, match=f"^{message}$"):
            monte_carlo_report(model, dists, FOUR_SETTINGS, 100, 1)
        assert built == []

    @pytest.mark.parametrize("mode", ["FactorizedApparatus", "SettingDependent",
                                      "JointComposite"])
    def test_model_on_spaces_of_other_sizes_names_the_sizes(self, mode):
        # the mode's lambda has the model's label and three values, not two
        model = random_apparatus(np.random.default_rng(41), (2, 2, 2, 2, 2))
        dists = _on_spaces(mode, five_spaces((3, 2, 2, 2, 2)))
        message = re.escape(
            f"{mode} distributions live on ('lambda:3', 'lambda_a:2', "
            "'lambda_a_prime:2', 'lambda_b:2', 'lambda_b_prime:2'), expected "
            "('lambda:2', 'lambda_a:2', 'lambda_a_prime:2', 'lambda_b:2', "
            "'lambda_b_prime:2')")
        for report in (lambda: exact_report(model, dists, FOUR_SETTINGS),
                       lambda: monte_carlo_report(model, dists, FOUR_SETTINGS, 100, 1)):
            with pytest.raises(CorrelationError, match=f"^{message}$"):
                report()

    def test_unknown_apparatus_setting_rejected(self):
        dists = _on_spaces("FactorizedApparatus", five_spaces((2, 2, 2, 2, 2)))
        apparatus = {**dists.apparatus, "c": dists.apparatus["a"]}
        with pytest.raises(CorrelationError, match=r"^apparatus distributions "
                           r"for unknown settings \['c'\]$"):
            FactorizedApparatus(dists.rho, apparatus)


class TestReports:
    def test_report_internal_consistency(self):
        rng = np.random.default_rng(12)
        model = random_stochastic(rng, 3)
        dists = SourceOnly(random_distribution(rng, (model.lam,)))
        report = exact_report(model, dists, FOUR_SETTINGS)
        for pc in report.pairs:
            p_pp, p_pm, p_mp, p_mm = pc.probabilities
            assert min(pc.probabilities) >= -1e-9
            assert sum(pc.probabilities) == pytest.approx(1.0, abs=1e-9)
            assert pc.correlation == pytest.approx(
                p_pp + p_mm - p_pm - p_mp, abs=TOL)
        e = [report.pair(p, q).correlation for p, q in SETTING_PAIRS]
        assert report.s == pytest.approx(e[0] + e[1] + e[2] - e[3], abs=TOL)

    @pytest.mark.parametrize("kind, mode", REFERENCE_CASES,
                             ids=[f"{k.__name__}-{m.__name__}"
                                  for k, m in REFERENCE_CASES])
    def test_exact_report_matches_an_independent_sum(self, kind, mode):
        rng = np.random.default_rng(13)
        for _ in range(10):
            model, dists = _reference_case(rng, kind, mode)
            report = exact_report(model, dists, FOUR_SETTINGS)
            for p, q in SETTING_PAIRS:
                assert report.pair(p, q).correlation == pytest.approx(
                    _reference_sum(model, dists, p, q), abs=TOL)

    def test_pair_order_is_canonical(self):
        model, dists = shared_coin()
        report = exact_report(model, dists, FOUR_SETTINGS)
        assert tuple(pc.pair for pc in report.pairs) == SETTING_PAIRS


class TestMonteCarlo:
    def test_constant_model_is_exact(self):
        model = constant_deterministic(1.0, 1.0)
        dists = SourceOnly(Distribution.uniform((model.lam,)))
        report = monte_carlo_report(model, dists, FOUR_SETTINGS, 1000, seed=42)
        for pc in report.pairs:
            assert pc.correlation == 1.0
            assert pc.standard_error == 0.0

    def test_shared_coin_converges(self):
        model, dists = shared_coin()
        report = monte_carlo_report(model, dists, FOUR_SETTINGS, 100_000, seed=7)
        for pc in report.pairs:
            assert pc.correlation == 1.0

    def test_estimator_metadata(self):
        model, dists = shared_coin()
        report = monte_carlo_report(model, dists, FOUR_SETTINGS, 10, seed=3)
        assert report.estimator.method == "monte-carlo"
        assert report.estimator.samples == 10
        assert report.estimator.seed == 3
        exact = exact_report(model, dists, FOUR_SETTINGS)
        assert exact.estimator.method == "exact"
        assert exact.estimator.samples is None

    def test_bit_identical_repetition(self):
        rng = np.random.default_rng(14)
        model = random_stochastic(rng, 3)
        dists = SourceOnly(random_distribution(rng, (model.lam,)))
        r1 = monte_carlo_report(model, dists, FOUR_SETTINGS, 5000, seed=123)
        r2 = monte_carlo_report(model, dists, FOUR_SETTINGS, 5000, seed=123)
        assert r1 == r2

    def test_seed_changes_estimates(self):
        rng = np.random.default_rng(15)
        model = random_stochastic(rng, 3)
        dists = SourceOnly(random_distribution(rng, (model.lam,)))
        r1 = monte_carlo_report(model, dists, FOUR_SETTINGS, 5000, seed=1)
        r2 = monte_carlo_report(model, dists, FOUR_SETTINGS, 5000, seed=2)
        assert r1 != r2

    def test_zero_samples_rejected(self):
        model, dists = shared_coin()
        with pytest.raises(CorrelationError, match="^sample count must be at least 1$"):
            monte_carlo_report(model, dists, FOUR_SETTINGS, 0, seed=0)

    def test_memory_bounded_by_the_chunk(self):
        """numpy reports its buffers to tracemalloc.  At 2e8 samples a pair,
        the first split alone reads 2e8 raw bits, 25 MB if drawn whole;
        the counter draws at most ``MC_CHUNK_WORDS`` words (512 KiB) at a
        time, whatever the machine."""
        rng = np.random.default_rng(17)
        model = random_stochastic(rng, 3)
        dists = SourceOnly(random_distribution(rng, (model.lam,)))
        tracemalloc.start()
        try:
            monte_carlo_report(model, dists, FOUR_SETTINGS, 200_000_000, seed=5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_negative_seed_refused_before_any_stream(self, monkeypatch):
        def unbuildable(*args, **kwargs):
            raise AssertionError("stream built for a negative seed")

        monkeypatch.setattr(np.random, "SeedSequence", unbuildable)
        model, dists = shared_coin()
        with pytest.raises(CorrelationError,
                           match="^seed must be nonnegative, got -1$") as exc:
            monte_carlo_report(model, dists, FOUR_SETTINGS, 10, seed=-1)
        assert exc.value.module == "correlation-engine"

    def test_samples_above_the_cap_refused(self):
        model, dists = shared_coin()
        with pytest.raises(CorrelationError, match=f"^requires {MAX_SAMPLES + 1} "
                           f"units of work, limit is {MAX_SAMPLES}$") as exc:
            monte_carlo_report(model, dists, FOUR_SETTINGS, MAX_SAMPLES + 1, seed=0)
        assert exc.value.module == "correlation-engine"

    @pytest.mark.parametrize("cards", [(1, 2, 2, 2, 2), (3,) * 5, (8,) * 5])
    def test_emulation_comparison_equals_a_standalone_report(self, cards):
        """An emulation reports its comparison model on the scenario's
        seed: the emulation block of ``run_scenario`` is byte-equal to
        Monte Carlo reports of the scenario model and of the comparison
        model, each alone, with that seed."""
        doc = generate_scenario("stochastic-equivalent",
                                {"cards": cards, "estimator": "monte-carlo",
                                 "samples": 150_000, "mc_seed": 8})
        scenario = parse_scenario(doc)
        primary = monte_carlo_report(scenario.model, scenario.distributions,
                                     scenario.settings, 150_000, seed=8)
        alone = monte_carlo_report(scenario.comparison_model,
                                   SourceOnly(scenario.distributions.rho),
                                   scenario.settings, 150_000, seed=8)
        emulation = run_scenario(scenario)["analyses"]["emulation"]
        for key, report in (("correlation", primary), ("comparison_correlation", alone)):
            block = json.dumps([pair[key] for pair in emulation["pairs"]])
            assert block == json.dumps([pc.correlation for pc in report.pairs])
        assert (emulation["s"], emulation["comparison_s"]) == (primary.s, alone.s)

    def test_convergence_within_five_standard_errors(self):
        rng = np.random.default_rng(16)
        trials = 250
        hits = 0
        checks = 0
        for t in range(trials):
            model = random_stochastic(rng, int(rng.integers(1, 4)))
            dists = SourceOnly(random_distribution(rng, (model.lam,)))
            exact = exact_report(model, dists, FOUR_SETTINGS)
            mc = monte_carlo_report(model, dists, FOUR_SETTINGS, 2000, seed=1000 + t)
            for p, q in SETTING_PAIRS:
                e_mc = mc.pair(p, q)
                e_ex = exact.pair(p, q).correlation
                checks += 1
                se = max(e_mc.standard_error, 1e-6)
                if abs(e_mc.correlation - e_ex) <= 5.0 * se:
                    hits += 1
        assert hits / checks >= 0.99


class TestEnumerateBound:
    @pytest.mark.parametrize("card", [1, 2, 3, 4])
    def test_bound_is_exactly_two(self, card):
        result = enumerate_bound(card)
        assert result.max_abs_s == 2.0
        assert result.strategies == 2 ** (4 * card)
        assert "vertex" in result.reduction_note

    def test_work_limit(self):
        with pytest.raises(CorrelationError, match=f"^requires {2 ** 28} units of "
                           f"work, limit is {DEFAULT_ENUM_WORK_LIMIT}$"):
            enumerate_bound(7)
        with pytest.raises(CorrelationError, match=f"^requires {2 ** 12} units of "
                           f"work, limit is {2 ** 10}$"):
            enumerate_bound(3, work_limit=2 ** 10)

    def test_refused_count_is_never_formed(self):
        with pytest.raises(CorrelationError, match=r"^requires 2\*\*4000000000 units"):
            enumerate_bound(10 ** 9)
        with pytest.raises(CorrelationError, match="^requires 16 units of work, limit is -1$"):
            enumerate_bound(1, work_limit=-1)
        assert enumerate_bound(6, work_limit=2 ** 24).strategies == 2 ** 24

    def test_respects_raised_limit(self):
        result = enumerate_bound(5, work_limit=2 ** 20)
        assert result.max_abs_s == 2.0
