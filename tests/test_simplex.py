"""Phase-1 simplex on one four-cycle block: feasibility decisions and
Farkas certificates."""

from __future__ import annotations

import math

import numpy as np
import pytest
from dense_lp import block_matrix, solve_equality_feasibility

from bellsim import simplex
from bellsim.errors import DomainMismatch, TableauGrowth
from bellsim.simplex import FEASIBILITY_TOL, column_sums, pair_rows, solve_block


def block_rhs(shape, x):
    """The right-hand side A x of the block of ``shape``."""
    return block_matrix(shape) @ x


def assert_valid_solution(shape, b, result, tol=1e-9):
    assert result.feasible
    assert np.all(result.x >= 0.0)
    assert np.max(np.abs(block_matrix(shape) @ result.x - b)) <= tol


def assert_valid_certificate(shape, b, result, slack=1e-7):
    assert not result.feasible
    y = result.certificate
    assert float(np.max(y @ block_matrix(shape))) <= slack
    assert float(y @ b) > FEASIBILITY_TOL


def random_shape(rng):
    return tuple(int(d) for d in rng.integers(1, 5, size=4))


def pair_tables(rng, shape):
    """A right-hand side with each pair group drawn on its own, with unit
    mass: usually no joint returns it."""
    groups = [shape[0] * shape[2], shape[0] * shape[3],
              shape[1] * shape[2], shape[1] * shape[3]]
    return np.concatenate([rng.dirichlet(np.ones(g)) for g in groups])


def test_column_sums_equal_the_product_with_the_block_matrix():
    rng = np.random.default_rng(30)
    for _ in range(20):
        shape = random_shape(rng)
        A = block_matrix(shape)
        y = rng.normal(size=A.shape[0])
        np.testing.assert_allclose(column_sums(y, pair_rows((1,) + shape)),
                                   y @ A, rtol=0, atol=1e-12)


class TestElementary:
    def test_conflicting_equalities(self):
        # the (a, b) group carries mass 1/2, the other three mass 1
        shape = (2, 2, 2, 2)
        b = np.full(16, 0.25)
        b[:4] = 0.125
        result = solve_block(shape, b)
        assert_valid_certificate(shape, b, result)
        assert result.objective == pytest.approx(1.5, abs=1e-12)

    def test_single_infeasible_row(self):
        shape = (2, 3, 2, 2)
        b = block_rhs(shape, np.full(24, 1.0 / 24))
        b[5] += 0.1
        assert_valid_certificate(shape, b, solve_block(shape, b))

    def test_redundant_rows_accepted(self):
        # every group has the same total and the groups share their
        # one-sided marginals, so the rows are linearly dependent
        shape = (3, 2, 2, 3)
        b = block_rhs(shape, np.random.default_rng(34).random(36))
        assert_valid_solution(shape, b, solve_block(shape, b))

    def test_zero_rhs(self):
        shape = (2, 2, 3, 2)
        b = np.zeros(20)
        result = solve_block(shape, b)
        assert_valid_solution(shape, b, result)
        assert result.objective == 0.0
        assert result.iterations == 0
        assert np.all(result.x == 0.0)

    def test_rhs_of_the_wrong_shape_refused(self):
        with pytest.raises(DomainMismatch) as exc:
            solve_block((2, 2, 2, 2), np.ones(15))
        assert exc.value.module == "simplex"
        assert str(exc.value) == "b has shape (15,), expected (16,)"

    @pytest.mark.parametrize("entry", [-1e-300, -0.5, math.nan])
    def test_negative_rhs_refused(self, entry):
        b = np.full(16, 0.25)
        b[3] = entry
        with pytest.raises(DomainMismatch) as exc:
            solve_block((2, 2, 2, 2), b)
        assert exc.value.module == "simplex"
        assert str(exc.value) == (
            f"b has an entry {float(np.min(b))!r}, expected none below 0")


class TestRandomized:
    def test_constructed_feasible_systems(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            shape = random_shape(rng)
            x0 = rng.random(math.prod(shape))
            x0[rng.random(x0.size) < 0.5] = 0.0
            b = block_rhs(shape, x0)
            assert_valid_solution(shape, b, solve_block(shape, b))

    def test_certificates_always_verify(self):
        rng = np.random.default_rng(32)
        infeasible_seen = 0
        for _ in range(60):
            shape = random_shape(rng)
            b = pair_tables(rng, shape)
            result = solve_block(shape, b)
            if result.feasible:
                assert_valid_solution(shape, b, result)
            else:
                infeasible_seen += 1
                assert_valid_certificate(shape, b, result)
        assert infeasible_seen > 0

    def test_verdicts_match_the_dense_solver(self):
        rng = np.random.default_rng(35)
        for _ in range(60):
            shape = random_shape(rng)
            if rng.random() < 0.5:
                b = block_rhs(shape, rng.random(math.prod(shape)))
            else:
                b = pair_tables(rng, shape)
            result = solve_block(shape, b)
            reference = solve_equality_feasibility(block_matrix(shape), b)
            assert result.feasible == reference.feasible
            # artificials never re-enter, so an infeasible block may stop
            # above the phase-1 optimum, never below it
            assert result.objective >= reference.objective - 1e-12

    def test_deterministic(self):
        rng = np.random.default_rng(33)
        shape = (3, 2, 4, 3)
        for b in (block_rhs(shape, rng.random(72)), pair_tables(rng, shape)):
            r1 = solve_block(shape, b)
            r2 = solve_block(shape, b)
            assert r1.feasible == r2.feasible
            assert r1.iterations == r2.iterations > 0
            if r1.feasible:
                assert r1.x.tobytes() == r2.x.tobytes()
            else:
                assert r1.certificate.tobytes() == r2.certificate.tobytes()


class TestDegenerate:
    def test_highly_degenerate_vertex(self):
        # a point mass: all but four rows are zero, so most ratio tests tie
        shape = (4, 4, 4, 4)
        x0 = np.zeros(256)
        x0[37] = 1.0
        b = block_rhs(shape, x0)
        result = solve_block(shape, b)
        assert_valid_solution(shape, b, result)
        np.testing.assert_array_equal(result.x, x0)

    def test_degenerate_run_ends_under_bland_fallback(self, monkeypatch):
        # BLAND_AFTER = 0 hands every pivot to Bland's rule
        monkeypatch.setattr(simplex, "BLAND_AFTER", 0)
        rng = np.random.default_rng(36)
        seen = {True: 0, False: 0}
        for _ in range(30):
            shape = random_shape(rng)
            if rng.random() < 0.5:
                b = block_rhs(shape, rng.random(math.prod(shape)))
            else:
                b = pair_tables(rng, shape)
            result = solve_block(shape, b)
            assert result.bland_pivots == result.iterations > 0
            if result.feasible:
                assert_valid_solution(shape, b, result)
            else:
                assert_valid_certificate(shape, b, result)
            reference = solve_equality_feasibility(block_matrix(shape), b)
            assert result.feasible == reference.feasible
            seen[result.feasible] += 1
        assert seen[True] > 5 and seen[False] > 5


class TestGrowthGuard:
    def test_growth_past_the_limit_raises(self, monkeypatch):
        # the first scaled pivot row holds entries of 1 against the
        # starting tableau's 4, a growth of 1/4
        monkeypatch.setattr(simplex, "GROWTH_LIMIT", 0.1)
        b = np.full(16, 0.25)
        with pytest.raises(TableauGrowth) as exc:
            solve_block((2, 2, 2, 2), b)
        assert exc.value.module == "simplex"
        assert exc.value.growth == 0.25
        assert exc.value.limit == 0.1
