"""Hidden-variable spaces: validation, products, marginals."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.errors import HvCoreError, NotNormalized
from bellsim.spaces import (
    APPARATUS_LABELS,
    Distribution,
    HiddenSpace,
    marginalize,
    product_distribution,
    validate_distribution,
)

TOL = 1e-12


def space(label: str, n: int) -> HiddenSpace:
    return HiddenSpace.of_size(label, n)


class TestHiddenSpace:
    def test_cardinality(self):
        assert space("lambda", 4).cardinality == 4

    def test_binary_values(self):
        s = HiddenSpace.binary("lambda_a")
        assert s.values == ("+1", "-1")

    def test_empty_rejected(self):
        with pytest.raises(HvCoreError, match="must have at least one value"):
            HiddenSpace("lambda", ())

    def test_duplicate_values_rejected(self):
        with pytest.raises(HvCoreError, match="has duplicate value labels"):
            HiddenSpace("lambda", ("x", "x"))


class TestValidateDistribution:
    def test_uniform_four_point_accepts(self):
        d = Distribution((space("lambda", 4),), [0.25, 0.25, 0.25, 0.25])
        validate_distribution(d)

    def test_sum_exceeds_one(self):
        d = Distribution((space("lambda", 2),), [0.5, 0.6])
        with pytest.raises(NotNormalized, match=r"^weights sum to 1\.1, "):
            validate_distribution(d)

    def test_negative_weight_indexed(self):
        d = Distribution((space("lambda", 2),), [1.2, -0.2])
        with pytest.raises(HvCoreError, match="^weight at flat index 1 is negative"):
            validate_distribution(d)

    def test_shape_mismatch(self):
        d = Distribution((space("lambda", 3),), [0.5, 0.5])
        with pytest.raises(HvCoreError, match="^expected 3 weights for the domain, got 2$"):
            validate_distribution(d)

    def test_tolerance_boundary(self):
        d = Distribution((space("lambda", 2),), [0.5, 0.5 + 0.9e-12])
        validate_distribution(d)
        d = Distribution((space("lambda", 2),), [0.5, 0.5 + 1.1e-11])
        with pytest.raises(NotNormalized, match="^weights sum to "):
            validate_distribution(d)


class TestDistributionHash:
    def test_signed_zeros_hash_alike(self):
        lam = space("lambda", 2)
        plus, minus = (Distribution((lam,), [zero, 1.0]) for zero in (0.0, -0.0))
        assert plus == minus and hash(plus) == hash(minus)
        assert len({plus, minus}) == 1


class TestProductDistribution:
    def test_product_of_uniforms(self):
        parts = [Distribution((space("lambda", 2),), [0.5, 0.5]),
                 Distribution((space("lambda_a", 2),), [0.5, 0.5])]
        d = product_distribution(parts)
        np.testing.assert_allclose(d.flat, [0.25] * 4, atol=TOL)
        assert d.labels == ("lambda", "lambda_a")

    def test_degenerate_factor(self):
        parts = [Distribution((space("lambda", 2),), [1.0, 0.0]),
                 Distribution((space("lambda_a", 2),), [0.3, 0.7])]
        d = product_distribution(parts)
        np.testing.assert_allclose(d.flat, [0.3, 0.7, 0.0, 0.0], atol=TOL)

    def test_five_uniform_binary_parts(self):
        labels = ("lambda",) + tuple(APPARATUS_LABELS[s] for s in
                                     ("a", "a_prime", "b", "b_prime"))
        parts = [Distribution((space(lab, 2),), [0.5, 0.5]) for lab in labels]
        d = product_distribution(parts)
        assert d.size == 32
        np.testing.assert_allclose(d.flat, [1.0 / 32] * 32, atol=TOL)
        validate_distribution(d)

    def test_overlapping_domains(self):
        parts = [Distribution((space("lambda", 2),), [0.5, 0.5]),
                 Distribution((space("lambda", 2),), [0.5, 0.5])]
        with pytest.raises(HvCoreError,
                           match="^space 'lambda' appears in more than one factor$"):
            product_distribution(parts)

    def test_invalid_part_indexed(self):
        parts = [Distribution((space("lambda", 2),), [0.5, 0.5]),
                 Distribution((space("lambda_a", 2),), [0.5, 0.6])]
        with pytest.raises(HvCoreError, match="^factor 1 is invalid: ") as exc:
            product_distribution(parts)
        assert isinstance(exc.value.__cause__, NotNormalized)

    def test_no_parts(self):
        with pytest.raises(HvCoreError, match="^a product needs at least one factor$"):
            product_distribution([])


class TestMarginalize:
    def test_marginal_of_uniform(self):
        d = Distribution.uniform((space("lambda", 2), space("lambda_a", 2),
                                  space("lambda_b", 2)))
        m = marginalize(d, ("lambda", "lambda_a"))
        assert m.labels == ("lambda", "lambda_a")
        np.testing.assert_allclose(m.flat, [0.25] * 4, atol=TOL)

    def test_product_marginal_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            w1 = rng.dirichlet(np.ones(3))
            w2 = rng.dirichlet(np.ones(2))
            parts = [Distribution((space("lambda", 3),), w1),
                     Distribution((space("lambda_a", 2),), w2)]
            d = product_distribution(parts)
            np.testing.assert_allclose(
                marginalize(d, ("lambda",)).flat, w1, atol=TOL)
            np.testing.assert_allclose(
                marginalize(d, ("lambda_a",)).flat, w2, atol=TOL)

    def test_full_domain_is_identity(self):
        rng = np.random.default_rng(11)
        d = Distribution((space("lambda", 2), space("lambda_b", 3)),
                         rng.dirichlet(np.ones(6)))
        m = marginalize(d, d.labels)
        assert m == d

    def test_keep_order_is_domain_order(self):
        d = Distribution.uniform((space("lambda", 2), space("lambda_a", 3)))
        m = marginalize(d, ("lambda_a", "lambda"))
        assert m.labels == ("lambda", "lambda_a")

    def test_empty_keep_set(self):
        d = Distribution.uniform((space("lambda", 2),))
        with pytest.raises(HvCoreError, match="^the set of spaces to keep is empty$"):
            marginalize(d, ())

    def test_weights_off_the_domain_refused(self):
        d = Distribution((space("lambda", 2), space("lambda_a", 2)), np.full(3, 1 / 3))
        with pytest.raises(HvCoreError, match="^expected 4 weights for the domain, got 3$"):
            marginalize(d, ("lambda",))

    def test_unknown_space(self):
        d = Distribution.uniform((space("lambda", 2),))
        with pytest.raises(HvCoreError, match="^space 'lambda_b' is not in the domain$"):
            marginalize(d, ("lambda_b",))

    def test_product_joint_marginal_recovers_three_factor_product(self):
        # Build the five-factor product joint, marginalize to the source
        # space plus one apparatus space per side, and compare against the
        # direct three-factor product.
        rng = np.random.default_rng(13)
        labels = ("lambda", "lambda_a", "lambda_a_prime", "lambda_b",
                  "lambda_b_prime")
        parts = [Distribution((space(lab, 2),), rng.dirichlet(np.ones(2)))
                 for lab in labels]
        joint = product_distribution(parts)
        got = marginalize(joint, ("lambda", "lambda_a", "lambda_b"))
        want = product_distribution([parts[0], parts[1], parts[3]])
        np.testing.assert_allclose(got.flat, want.flat, atol=TOL)


# Hypothesis strategies: random domains of up to three smallish spaces with
# distinct labels, plus a valid distribution over each.

@st.composite
def domains(draw):
    n_spaces = draw(st.integers(1, 3))
    cards = draw(st.lists(st.integers(1, 4), min_size=n_spaces, max_size=n_spaces))
    return tuple(HiddenSpace.of_size(f"s{i}", c) for i, c in enumerate(cards))


@st.composite
def valid_distributions(draw):
    domain = draw(domains())
    n = math.prod(s.cardinality for s in domain)
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    total = sum(raw)
    if total <= 0:
        weights = np.full(n, 1.0 / n)
    else:
        weights = np.array(raw) / total
    return Distribution(domain, weights)


@given(valid_distributions(), st.data())
@settings(max_examples=60, deadline=None)
def test_marginal_round_trip_is_normalized(d, data):
    keep = data.draw(st.sets(st.sampled_from(d.labels), min_size=1))
    m = marginalize(d, keep)
    # relaxed by a few ulps: the sum over dropped axes re-associates terms
    assert abs(float(np.sum(m.flat)) - 1.0) <= 1e-11
    assert np.all(m.flat >= 0.0)


@given(valid_distributions(), st.data())
@settings(max_examples=60, deadline=None)
def test_two_step_marginalization_commutes(d, data):
    if len(d.domain) < 2:
        return
    keep_final = data.draw(st.sets(st.sampled_from(d.labels), min_size=1,
                                   max_size=len(d.domain) - 1))
    intermediate = data.draw(st.sets(st.sampled_from(d.labels), min_size=1))
    intermediate |= set(keep_final)
    one_step = marginalize(d, keep_final)
    two_step = marginalize(marginalize(d, intermediate), keep_final)
    assert one_step.labels == two_step.labels
    np.testing.assert_allclose(one_step.flat, two_step.flat, atol=TOL)


@given(st.lists(st.integers(1, 3), min_size=2, max_size=3), st.integers(0, 2**31))
@settings(max_examples=40, deadline=None)
def test_product_marginalizes_back_to_factors(cards, seed):
    rng = np.random.default_rng(seed)
    parts = [Distribution((HiddenSpace.of_size(f"s{i}", c),),
                          rng.dirichlet(np.ones(c)) if c > 1 else np.ones(1))
             for i, c in enumerate(cards)]
    d = product_distribution(parts)
    validate_distribution(d)
    for part in parts:
        back = marginalize(d, part.labels)
        np.testing.assert_allclose(back.flat, part.flat, atol=TOL)
