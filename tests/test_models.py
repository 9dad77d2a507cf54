"""Response models: tables, effective responses, reductions."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from helpers import (
    five_spaces,
    random_apparatus,
    random_apparatus_dists,
    random_deterministic,
)

from bellsim.errors import RemoteDependenceForbidden, ResponseModelError
from bellsim.models import (
    SETTING_NAMES,
    ApparatusDeterministic,
    Contextual,
    DeterministicSource,
    Setting,
    StochasticSource,
    composite_space,
    effective_responses,
    lift_to_composite,
    standard_settings,
    stochastic_from_apparatus,
)
from bellsim.spaces import SETTING_PAIRS, Distribution, HiddenSpace

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
        # the name fixes the side, so only the four canonical names exist
        assert [Setting(name, 0.0).is_side_a for name in SETTING_NAMES] == [
            True, True, False, False]
        for name in ("c", "A", "a|b"):
            with pytest.raises(ResponseModelError, match="^" + re.escape(
                    f"unknown setting name {name!r}; expected one of "
                    "('a', 'a_prime', 'b', 'b_prime')") + "$"):
                Setting(name, 0.0)

    def test_standard_layout(self):
        assert (A.name, A2.name, B.name, B2.name) == ("a", "a_prime", "b", "b_prime")
        assert A.is_side_a and A2.is_side_a
        assert not B.is_side_a


class TestOutcome:
    """Outcomes are read off the response tables."""

    def test_constant_responder(self):
        lam = HiddenSpace.of_size("lambda", 3)
        model = DeterministicSource(lam, {n: np.ones(3) for n in SETTING_NAMES})
        assert model.tables["a"][0] == 1
        assert model.tables["b_prime"][2] == 1

    def test_apparatus_passthrough(self):
        model = passthrough_apparatus()
        # lambda_a value "-1" sits at index 1
        assert model.tables["a"][0, 1] == -1
        assert model.tables["a"][0, 0] == 1

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
        assert model.response_vector(A, B)[0] == 1
        assert model.response_vector(A, B2)[0] == -1

    def test_remote_same_side_rejected(self):
        lam = HiddenSpace.of_size("lambda", 1)
        model = Contextual.from_deterministic(
            DeterministicSource(lam, {n: np.ones(1) for n in SETTING_NAMES}))
        with pytest.raises(ResponseModelError, match="is on the same side as"):
            model.response_vector(A, A2)


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
        with pytest.raises(RemoteDependenceForbidden,
                           match="^tables for own setting 'a' depend on"):
            Contextual(lam, tables, separated=True)

    def test_round_trip_through_deterministic(self):
        det = random_deterministic(np.random.default_rng(5), 3)
        back = Contextual.from_deterministic(det).to_deterministic()
        for name in SETTING_NAMES:
            np.testing.assert_array_equal(back.tables[name], det.tables[name])


def _left_to_right(model, dists, name):
    """Scalar reference for one setting of ``effective_responses``: per
    lambda, sum f * rho_s over lambda_s left to right from 0.0."""
    out = []
    for row in model.tables[name].tolist():
        acc = 0.0
        for f, w in zip(row, dists[name].flat.tolist()):
            acc += f * w
        out.append(acc)
    return out


def _biased_dists(spaces, p):
    """Every apparatus distribution at (p, 1 - p) on a binary space."""
    return {n: Distribution((spaces.for_setting(n),), [p, 1.0 - p])
            for n in SETTING_NAMES}


class TestEffectiveResponseStochastic:
    """The collapsed stochastic model's expectation 2 p(+1) - 1 against
    the apparatus average it emulates."""

    @pytest.mark.parametrize("p,expected", [(1.0, 1.0), (0.5, 0.0), (0.8, 0.6)])
    def test_values(self, p, expected):
        model = passthrough_apparatus()
        dists = _biased_dists(model.spaces, p)
        st = stochastic_from_apparatus(model, dists)
        averaged = effective_responses(model, dists)
        for name in SETTING_NAMES:
            np.testing.assert_allclose(2.0 * st.tables[name] - 1.0, expected, atol=TOL)
            np.testing.assert_allclose(averaged[name], expected, atol=TOL)

    def test_kind_mismatch(self):
        dists = random_apparatus_dists(np.random.default_rng(1), binary_spaces())
        det = random_deterministic(np.random.default_rng(1), 2)
        stochastic = StochasticSource(det.lam, {n: np.full(2, 0.5) for n in SETTING_NAMES})
        for model in (det, stochastic):
            with pytest.raises(ResponseModelError,
                               match=f"expects a ApparatusDeterministic model, got {model.kind}$"):
                effective_responses(model, dists)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            model = random_apparatus(rng, rng.integers(1, 4, size=5))
            st = stochastic_from_apparatus(model, random_apparatus_dists(rng, model.spaces))
            for name in SETTING_NAMES:
                collapsed = 2.0 * st.tables[name] - 1.0
                assert np.all((-1.0 <= collapsed) & (collapsed <= 1.0))


class TestEffectiveResponseApparatus:
    def test_symmetric_average(self):
        model = passthrough_apparatus()
        averaged = effective_responses(model, _biased_dists(model.spaces, 0.5))
        np.testing.assert_allclose(averaged["a"], 0.0, atol=TOL)

    def test_apparatus_independent_limit(self):
        spaces = binary_spaces()
        tables = {n: np.full((2, spaces.for_setting(n).cardinality), -1.0)
                  for n in SETTING_NAMES}
        model = ApparatusDeterministic(spaces, tables)
        averaged = effective_responses(model, _biased_dists(spaces, 0.3))
        np.testing.assert_allclose(averaged["b"], -1.0, atol=TOL)

    def test_biased_average(self):
        model = passthrough_apparatus()
        averaged = effective_responses(model, _biased_dists(model.spaces, 0.75))
        np.testing.assert_allclose(averaged["a"], 0.5, atol=TOL)

    def test_domain_mismatch(self):
        model = passthrough_apparatus()
        dists = _biased_dists(model.spaces, 0.5)
        dists["a"] = Distribution.uniform((model.spaces.lam_b,))
        with pytest.raises(ResponseModelError,
                           match="apparatus distribution for 'a' has domain"):
            effective_responses(model, dists)
        del dists["a"]
        with pytest.raises(ResponseModelError,
                           match="missing apparatus distribution for setting 'a'"):
            effective_responses(model, dists)

    def test_range_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            model = random_apparatus(rng, rng.integers(1, 4, size=5))
            averaged = effective_responses(model, random_apparatus_dists(rng, model.spaces))
            for name in SETTING_NAMES:
                assert averaged[name].shape == (model.spaces.lam.cardinality,)
                assert np.all(np.abs(averaged[name]) <= 1.0 + TOL)

    def test_matches_scalar_left_to_right_reference(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            # up to 12 apparatus values: past numpy's 8-way unrolled sums
            model = random_apparatus(rng, rng.integers(1, 13, size=5))
            dists = {}
            for n in SETTING_NAMES:
                space = model.spaces.for_setting(n)
                w = rng.random(space.cardinality) * (rng.random(space.cardinality) < 0.7)
                w[rng.integers(space.cardinality)] += 1.0  # keep one weight nonzero
                dists[n] = Distribution((space,), w / w.sum())
            averaged = effective_responses(model, dists)
            for n in SETTING_NAMES:
                assert averaged[n].tolist() == _left_to_right(model, dists, n)

    def test_sums_left_to_right_not_exactly_rounded(self):
        # (0.1 + 0.7) - 0.2 rounds to 0.5999999999999999; the exactly
        # rounded sum of the same three doubles is 0.6
        spaces = five_spaces((1, 3, 3, 3, 3))
        model = ApparatusDeterministic(spaces, {n: [[1.0, 1.0, -1.0]] for n in SETTING_NAMES})
        dists = {n: Distribution((spaces.for_setting(n),), [0.1, 0.7, 0.2])
                 for n in SETTING_NAMES}
        averaged = effective_responses(model, dists)
        assert averaged["a"][0] == 0.5999999999999999
        assert math.fsum([0.1, 0.7, -0.2]) == 0.6


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
        for name in SETTING_NAMES:
            for flat, idx in enumerate(np.ndindex(2, 2, 2, 2, 2)):
                got = lifted.tables[name][flat]
                want = model.tables[name][idx[0], idx[axis[name]]]
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
        averaged = effective_responses(model, dists)
        for name in SETTING_NAMES:
            np.testing.assert_allclose(2.0 * st.tables[name] - 1.0, averaged[name],
                                       rtol=0.0, atol=TOL)

    def test_emulation_property_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            model = random_apparatus(rng, rng.integers(1, 4, size=5))
            dists = random_apparatus_dists(rng, model.spaces)
            st = stochastic_from_apparatus(model, dists)
            averaged = effective_responses(model, dists)
            for name in SETTING_NAMES:
                assert np.all(np.abs(2.0 * st.tables[name] - 1.0 - averaged[name]) <= TOL)

    def test_missing_distribution(self):
        model = passthrough_apparatus()
        dists = random_apparatus_dists(np.random.default_rng(9), model.spaces)
        del dists["b_prime"]
        with pytest.raises(ResponseModelError,
                           match="missing apparatus distribution for setting 'b_prime'"):
            stochastic_from_apparatus(model, dists)


class TestTableValidation:
    def test_non_sign_entry_rejected(self):
        lam = HiddenSpace.of_size("lambda", 2)
        tables = {n: np.array([1.0, 0.5]) for n in SETTING_NAMES}
        with pytest.raises(ResponseModelError, match=r"must contain only \+1/-1 entries"):
            DeterministicSource(lam, tables)

    def test_probability_out_of_range_rejected(self):
        lam = HiddenSpace.of_size("lambda", 2)
        tables = {n: np.array([0.5, 1.2]) for n in SETTING_NAMES}
        with pytest.raises(ResponseModelError, match=r"must lie in \[0, 1\]"):
            StochasticSource(lam, tables)

    def test_missing_setting_rejected(self):
        lam = HiddenSpace.of_size("lambda", 2)
        tables = {n: np.ones(2) for n in SETTING_NAMES if n != "b"}
        with pytest.raises(ResponseModelError,
                           match="missing response table for setting 'b'"):
            DeterministicSource(lam, tables)


_LAM = HiddenSpace.of_size("lambda", 2)
_OWN_REMOTE = [(own, remote) for p, q in SETTING_PAIRS
               for own, remote in ((p, q), (q, p))]

#: Per model kind: the constructor, a valid table per key, the key whose
#: table is then removed or replaced, a table of the wrong shape, a table
#: of a bad entry, and the three messages, in that order.
_TABLE_CASES = {
    "DeterministicSource": (
        lambda tables: DeterministicSource(_LAM, tables),
        dict.fromkeys(SETTING_NAMES, [1.0, -1.0]), "b", [1.0, 1.0, 1.0], [1.0, 0.5],
        ("missing response table for setting 'b'",
         "table for 'b' has shape (3,), expected (2,)",
         "table for 'b' must contain only +1/-1 entries")),
    "StochasticSource": (
        lambda tables: StochasticSource(_LAM, tables),
        dict.fromkeys(SETTING_NAMES, [0.5, 1.0]), "b", [[0.5, 0.5]], [0.5, 1.5],
        ("missing probability table for setting 'b'",
         "table for 'b' has shape (1, 2), expected (2,)",
         "table for 'b' must lie in [0, 1]")),
    "Contextual": (
        lambda tables: Contextual(_LAM, tables),
        dict.fromkeys(_OWN_REMOTE, [-1.0, 1.0]), ("b", "a"), [1.0], [1.0, 0.0],
        ("missing table for (own, remote) = ('b', 'a')",
         "table for ('b', 'a') has shape (1,), expected (2,)",
         "table for ('b', 'a') must contain only +1/-1 entries")),
    "ApparatusDeterministic": (
        lambda tables: ApparatusDeterministic(five_spaces((2, 2, 2, 3, 2)), tables),
        {name: np.ones((2, 3 if name == "b" else 2)) for name in SETTING_NAMES},
        "b", np.ones((2, 2)), [[1.0, 1.0, 1.0], [1.0, -2.0, 1.0]],
        ("missing response table for setting 'b'",
         "table for 'b' has shape (2, 2), expected (2, 3)",
         "table for 'b' must contain only +1/-1 entries")),
}


@pytest.mark.parametrize("kind", sorted(_TABLE_CASES))
def test_table_refusals_name_the_key(kind):
    build, tables, key, wrong_shape, bad_entry, messages = _TABLE_CASES[kind]
    assert type(build(tables)).__name__ == kind
    missing = {k: v for k, v in tables.items() if k != key}
    for broken, message in zip((missing, {**tables, key: wrong_shape},
                                {**tables, key: bad_entry}), messages):
        with pytest.raises(ResponseModelError) as exc:
            build(broken)
        assert str(exc.value) == message
