"""Response models: outcomes, effective responses, reductions."""

from __future__ import annotations

import numpy as np
import pytest
from helpers import (
    five_spaces,
    random_apparatus,
    random_apparatus_dists,
    random_deterministic,
)

from bellsim.errors import (
    DomainMismatch,
    KindMismatch,
    MissingRemoteSetting,
    PointDimensionMismatch,
    RemoteDependenceForbidden,
    SideMismatch,
)
from bellsim.models import (
    SETTING_NAMES,
    ApparatusDeterministic,
    Contextual,
    DeterministicSource,
    Setting,
    StochasticSource,
    composite_space,
    effective_response_apparatus,
    effective_response_stochastic,
    lift_to_composite,
    outcome,
    standard_settings,
    stochastic_from_apparatus,
)
from bellsim.spaces import Distribution, HiddenSpace

A, A2, B, B2 = standard_settings(0.0, np.pi / 2, np.pi / 4, -np.pi / 4)
TOL = 1e-12


def binary_spaces():
    return five_spaces((2, 2, 2, 2, 2))


def passthrough_apparatus(spaces=None) -> ApparatusDeterministic:
    """f(setting, lam, lam_s) = value of lam_s (+1 at index 0, -1 at index 1)."""
    spaces = spaces or binary_spaces()
    tables = {}
    for name in SETTING_NAMES:
        n_s = spaces.for_setting(name).cardinality
        col = np.where(np.arange(n_s) == 0, 1.0, -1.0)
        tables[name] = np.tile(col, (spaces.lam.cardinality, 1))
    return ApparatusDeterministic(spaces, tables)


class TestSetting:
    def test_sides_enforced(self):
        with pytest.raises(SideMismatch):
            Setting("A", "b", 0.0)
        with pytest.raises(SideMismatch):
            Setting("B", "a_prime", 0.0)
        with pytest.raises(SideMismatch):
            Setting("C", "a", 0.0)

    def test_standard_layout(self):
        assert (A.name, A2.name, B.name, B2.name) == ("a", "a_prime", "b", "b_prime")
        assert A.is_side_a and A2.is_side_a
        assert not B.is_side_a


class TestOutcome:
    def test_constant_responder(self):
        lam = HiddenSpace.of_size("lambda", 3)
        model = DeterministicSource(lam, {n: np.ones(3) for n in SETTING_NAMES})
        assert outcome(model, A, 0) == 1
        assert outcome(model, B2, 2) == 1

    def test_apparatus_passthrough(self):
        model = passthrough_apparatus()
        # lambda_a value "-1" sits at index 1
        assert outcome(model, A, (0, 1)) == -1
        assert outcome(model, A, (0, 0)) == 1

    def test_contextual_remote_flip(self):
        lam = HiddenSpace.of_size("lambda", 1)
        tables = {}
        for own in ("a", "a_prime"):
            tables[(own, "b")] = np.array([1.0])
            tables[(own, "b_prime")] = np.array([-1.0])
        for own in ("b", "b_prime"):
            tables[(own, "a")] = np.array([1.0])
            tables[(own, "a_prime")] = np.array([1.0])
        model = Contextual(lam, tables)
        assert outcome(model, A, 0, remote=B) == 1
        assert outcome(model, A, 0, remote=B2) == -1

    def test_stochastic_rejected(self):
        lam = HiddenSpace.of_size("lambda", 2)
        model = StochasticSource(lam, {n: np.full(2, 0.5) for n in SETTING_NAMES})
        with pytest.raises(KindMismatch):
            outcome(model, A, 0)

    def test_missing_remote(self):
        lam = HiddenSpace.of_size("lambda", 1)
        model = Contextual.from_deterministic(
            DeterministicSource(lam, {n: np.ones(1) for n in SETTING_NAMES}),
            separated=False)
        with pytest.raises(MissingRemoteSetting):
            outcome(model, A, 0)

    def test_point_dimension(self):
        model = passthrough_apparatus()
        with pytest.raises(PointDimensionMismatch) as exc:
            outcome(model, A, 0)
        assert (exc.value.expected, exc.value.actual) == (2, 1)
        det = random_deterministic(np.random.default_rng(0), 2)
        with pytest.raises(PointDimensionMismatch):
            outcome(det, A, (0, 1))

    def test_remote_same_side_rejected(self):
        lam = HiddenSpace.of_size("lambda", 1)
        model = Contextual.from_deterministic(
            DeterministicSource(lam, {n: np.ones(1) for n in SETTING_NAMES}))
        with pytest.raises(SideMismatch):
            outcome(model, A, 0, remote=A2)


class TestSeparatedFlag:
    def test_remote_dependence_rejected_when_separated(self):
        lam = HiddenSpace.of_size("lambda", 1)
        tables = {}
        for own in ("a", "a_prime"):
            tables[(own, "b")] = np.array([1.0])
            tables[(own, "b_prime")] = np.array([-1.0])
        for own in ("b", "b_prime"):
            tables[(own, "a")] = np.array([1.0])
            tables[(own, "a_prime")] = np.array([1.0])
        Contextual(lam, tables, separated=False)
        with pytest.raises(RemoteDependenceForbidden) as exc:
            Contextual(lam, tables, separated=True)
        assert exc.value.own == "a"

    def test_round_trip_through_deterministic(self):
        det = random_deterministic(np.random.default_rng(5), 3)
        back = Contextual.from_deterministic(det).to_deterministic()
        for name in SETTING_NAMES:
            np.testing.assert_array_equal(back.tables[name], det.tables[name])


class TestEffectiveResponseStochastic:
    @pytest.mark.parametrize("p,expected", [(1.0, 1.0), (0.5, 0.0), (0.8, 0.6)])
    def test_values(self, p, expected):
        lam = HiddenSpace.of_size("lambda", 1)
        model = StochasticSource(lam, {n: np.array([p]) for n in SETTING_NAMES})
        assert effective_response_stochastic(model, A, 0) == pytest.approx(expected, abs=TOL)

    def test_kind_mismatch(self):
        det = random_deterministic(np.random.default_rng(1), 2)
        with pytest.raises(KindMismatch):
            effective_response_stochastic(det, A, 0)

    def test_range(self):
        rng = np.random.default_rng(2)
        lam = HiddenSpace.of_size("lambda", 4)
        model = StochasticSource(lam, {n: rng.random(4) for n in SETTING_NAMES})
        for i in range(4):
            for s in (A, A2, B, B2):
                assert -1.0 <= effective_response_stochastic(model, s, i) <= 1.0


class TestEffectiveResponseApparatus:
    def test_symmetric_average(self):
        model = passthrough_apparatus()
        rho = Distribution.uniform((model.spaces.lam_a,))
        assert effective_response_apparatus(model, A, 0, rho) == pytest.approx(0.0, abs=TOL)

    def test_apparatus_independent_limit(self):
        spaces = binary_spaces()
        tables = {n: np.full((2, spaces.for_setting(n).cardinality), -1.0)
                  for n in SETTING_NAMES}
        model = ApparatusDeterministic(spaces, tables)
        rho = Distribution((spaces.lam_b,), [0.3, 0.7])
        assert effective_response_apparatus(model, B, 1, rho) == pytest.approx(-1.0, abs=TOL)

    def test_biased_average(self):
        model = passthrough_apparatus()
        rho = Distribution((model.spaces.lam_a,), [0.75, 0.25])
        assert effective_response_apparatus(model, A, 0, rho) == pytest.approx(0.5, abs=TOL)

    def test_domain_mismatch(self):
        model = passthrough_apparatus()
        rho_wrong = Distribution.uniform((model.spaces.lam_b,))
        with pytest.raises(DomainMismatch):
            effective_response_apparatus(model, A, 0, rho_wrong)

    def test_range_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = random_apparatus(rng, rng.integers(1, 4, size=5))
            dists = random_apparatus_dists(rng, model.spaces)
            for s in (A, A2, B, B2):
                for i in range(model.spaces.lam.cardinality):
                    val = effective_response_apparatus(model, s, i, dists[s.name])
                    assert -1.0 - TOL <= val <= 1.0 + TOL


class TestLiftToComposite:
    def test_passthrough_lifts_to_projection(self):
        model = passthrough_apparatus()
        lifted = lift_to_composite(model)
        tilde = lifted.lam
        assert tilde.cardinality == 32
        for flat, idx in enumerate(np.ndindex(2, 2, 2, 2, 2)):
            want = 1.0 if idx[1] == 0 else -1.0  # lambda_a component
            assert lifted.tables["a"][flat] == want

    def test_constant_lifts_to_constant(self):
        spaces = binary_spaces()
        tables = {n: np.ones((2, 2)) for n in SETTING_NAMES}
        lifted = lift_to_composite(ApparatusDeterministic(spaces, tables))
        for name in SETTING_NAMES:
            assert np.all(lifted.tables[name] == 1.0)

    def test_faithful_exhaustively_on_binary_spaces(self):
        rng = np.random.default_rng(4)
        model = random_apparatus(rng, (2, 2, 2, 2, 2))
        lifted = lift_to_composite(model)
        axis = {"a": 1, "a_prime": 2, "b": 3, "b_prime": 4}
        for setting in (A, A2, B, B2):
            for flat, idx in enumerate(np.ndindex(2, 2, 2, 2, 2)):
                got = outcome(lifted, setting, flat)
                want = outcome(model, setting, (idx[0], idx[axis[setting.name]]))
                assert got == want

    def test_composite_value_labels_row_major(self):
        spaces = five_spaces((1, 2, 1, 1, 1))
        tilde = composite_space(spaces)
        assert tilde.values == ("0|0|0|0|0", "0|1|0|0|0")


class TestStochasticFromApparatus:
    def test_symmetric_apparatus(self):
        model = passthrough_apparatus()
        dists = {n: Distribution.uniform((model.spaces.for_setting(n),))
                 for n in SETTING_NAMES}
        st = stochastic_from_apparatus(model, dists)
        for name in SETTING_NAMES:
            np.testing.assert_allclose(st.tables[name], 0.5, atol=TOL)

    def test_deterministic_limit(self):
        spaces = binary_spaces()
        tables = {n: np.tile([[1.0, 1.0], [-1.0, -1.0]], (1, 1)) for n in SETTING_NAMES}
        model = ApparatusDeterministic(spaces, tables)
        dists = random_apparatus_dists(np.random.default_rng(6), spaces)
        st = stochastic_from_apparatus(model, dists)
        for name in SETTING_NAMES:
            np.testing.assert_allclose(st.tables[name], [1.0, 0.0], atol=TOL)

    def test_emulation_on_random_grid(self):
        rng = np.random.default_rng(7)
        model = random_apparatus(rng, (2, 2, 2, 2, 2))
        dists = random_apparatus_dists(rng, model.spaces)
        st = stochastic_from_apparatus(model, dists)
        for setting in (A, A2, B, B2):
            for i in range(2):
                got = effective_response_stochastic(st, setting, i)
                want = effective_response_apparatus(model, setting, i,
                                                    dists[setting.name])
                assert got == pytest.approx(want, abs=TOL)

    def test_emulation_property_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            model = random_apparatus(rng, rng.integers(1, 4, size=5))
            dists = random_apparatus_dists(rng, model.spaces)
            st = stochastic_from_apparatus(model, dists)
            for setting in (A, A2, B, B2):
                for i in range(model.spaces.lam.cardinality):
                    got = effective_response_stochastic(st, setting, i)
                    want = effective_response_apparatus(model, setting, i,
                                                        dists[setting.name])
                    assert abs(got - want) <= TOL

    def test_missing_distribution(self):
        model = passthrough_apparatus()
        dists = random_apparatus_dists(np.random.default_rng(9), model.spaces)
        del dists["b_prime"]
        with pytest.raises(DomainMismatch):
            stochastic_from_apparatus(model, dists)


class TestTableValidation:
    def test_non_sign_entry_rejected(self):
        lam = HiddenSpace.of_size("lambda", 2)
        tables = {n: np.array([1.0, 0.5]) for n in SETTING_NAMES}
        with pytest.raises(DomainMismatch):
            DeterministicSource(lam, tables)

    def test_probability_out_of_range_rejected(self):
        lam = HiddenSpace.of_size("lambda", 2)
        tables = {n: np.array([0.5, 1.2]) for n in SETTING_NAMES}
        with pytest.raises(DomainMismatch):
            StochasticSource(lam, tables)

    def test_missing_setting_rejected(self):
        lam = HiddenSpace.of_size("lambda", 2)
        tables = {n: np.ones(2) for n in SETTING_NAMES if n != "b"}
        with pytest.raises(DomainMismatch):
            DeterministicSource(lam, tables)
