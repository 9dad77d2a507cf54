"""Phase-1 simplex: feasibility decisions and Farkas certificates."""

from __future__ import annotations

import numpy as np
import pytest

from bellsim import simplex
from bellsim.errors import DomainMismatch, TableauGrowth
from bellsim.simplex import (FEASIBILITY_TOL, GROWTH_LIMIT,
                             solve_equality_feasibility)


def assert_valid_solution(A, b, result, tol=1e-9):
    assert result.feasible
    assert np.all(result.x >= 0.0)
    assert np.max(np.abs(A @ result.x - b)) <= tol


def assert_valid_certificate(A, b, result, slack=1e-7):
    assert not result.feasible
    y = result.certificate
    assert float(np.max(y @ A)) <= slack
    assert float(y @ b) > FEASIBILITY_TOL


class TestElementary:
    def test_identity_system(self):
        A = np.eye(3)
        b = np.array([0.2, 0.3, 0.5])
        assert_valid_solution(A, b, solve_equality_feasibility(A, b))

    def test_single_infeasible_row(self):
        # x1 + x2 = -1 has no nonnegative solution
        A = np.array([[1.0, 1.0]])
        b = np.array([-1.0])
        result = solve_equality_feasibility(A, b)
        assert_valid_certificate(A, b, result)

    def test_conflicting_equalities(self):
        A = np.array([[1.0, 0.0], [1.0, 0.0]])
        b = np.array([1.0, 2.0])
        result = solve_equality_feasibility(A, b)
        assert_valid_certificate(A, b, result)

    def test_redundant_rows_accepted(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        b = np.array([1.0, 1.0, 0.25])
        assert_valid_solution(A, b, solve_equality_feasibility(A, b))

    def test_zero_rhs(self):
        A = np.array([[1.0, -1.0], [2.0, 1.0]])
        b = np.zeros(2)
        result = solve_equality_feasibility(A, b)
        assert_valid_solution(A, b, result)
        assert result.objective <= FEASIBILITY_TOL

    def test_rhs_of_the_wrong_shape_refused(self):
        with pytest.raises(DomainMismatch) as exc:
            solve_equality_feasibility(np.eye(3), np.ones(2))
        assert exc.value.module == "simplex"
        assert str(exc.value) == "b has shape (2,), expected (3,)"

    def test_negative_rhs_handled_by_row_flip(self):
        A = np.array([[-1.0, 0.0], [0.0, 1.0]])
        b = np.array([-0.7, 0.3])
        result = solve_equality_feasibility(A, b)
        assert_valid_solution(A, b, result)
        np.testing.assert_allclose(result.x, [0.7, 0.3], atol=1e-9)


class TestRandomized:
    def test_constructed_feasible_systems(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            m = int(rng.integers(1, 8))
            n = int(rng.integers(m, 14))
            A = rng.normal(size=(m, n))
            x0 = rng.random(n)
            b = A @ x0
            result = solve_equality_feasibility(A, b)
            assert_valid_solution(A, b, result, tol=1e-7)

    def test_certificates_always_verify(self):
        rng = np.random.default_rng(32)
        infeasible_seen = 0
        for _ in range(60):
            m = int(rng.integers(2, 7))
            n = int(rng.integers(1, 6))
            A = rng.normal(size=(m, n))
            b = rng.normal(size=m)
            result = solve_equality_feasibility(A, b)
            if result.feasible:
                assert_valid_solution(A, b, result, tol=1e-7)
            else:
                infeasible_seen += 1
                assert_valid_certificate(A, b, result)
        assert infeasible_seen > 0

    def test_deterministic(self):
        rng = np.random.default_rng(33)
        A = rng.normal(size=(4, 6))
        b = rng.normal(size=4)
        r1 = solve_equality_feasibility(A, b)
        r2 = solve_equality_feasibility(A, b)
        assert r1.feasible == r2.feasible
        assert r1.iterations == r2.iterations
        if r1.feasible:
            assert np.array_equal(r1.x, r2.x)
        else:
            assert np.array_equal(r1.certificate, r2.certificate)


class TestDegenerate:
    def test_highly_degenerate_vertex(self):
        # many ties in the ratio test; Bland's rule must still terminate
        A = np.array([
            [1.0, 1.0, 1.0, 1.0],
            [1.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 1.0],
        ])
        b = np.array([1.0, 0.5, 0.5])
        result = solve_equality_feasibility(A, b)
        assert_valid_solution(A, b, result)

    def test_all_zero_column(self):
        A = np.array([[0.0, 1.0], [0.0, 1.0]])
        b = np.array([0.5, 0.5])
        assert_valid_solution(A, b, solve_equality_feasibility(A, b))

    def test_degenerate_run_ends_under_bland_fallback(self, monkeypatch):
        # 12x12 transportation problem whose row margins carry mass 1 and
        # column margins mass 2: infeasible, and all but three margins are
        # zero, so the optimum is reached through a run of 11 degenerate
        # pivots; a threshold below that hands the run to Bland's rule
        n = 12
        A = np.zeros((2 * n, n * n))
        for i in range(n):
            A[i, i * n:(i + 1) * n] = 1.0
            A[n + i, i::n] = 1.0
        b = np.zeros(2 * n)
        b[[n - 1, 2 * n - 2, 2 * n - 1]] = 1.0
        assert solve_equality_feasibility(A, b).bland_pivots == 0
        monkeypatch.setattr(simplex, "BLAND_AFTER", 5)
        result = solve_equality_feasibility(A, b)
        assert_valid_certificate(A, b, result)
        assert result.objective == pytest.approx(1.0, abs=1e-12)
        assert result.bland_pivots > 0


class TestGrowthGuard:
    def test_tiny_forced_pivot_raises(self):
        # the only pivot is 1e-11, so the scaled pivot row grows by 1e11
        A = np.array([[1e-11]])
        b = np.array([1.0])
        with pytest.raises(TableauGrowth) as exc:
            solve_equality_feasibility(A, b)
        assert exc.value.module == "simplex"
        assert exc.value.growth > GROWTH_LIMIT
        assert exc.value.limit == GROWTH_LIMIT


def test_tableau_starts_on_a_64_byte_boundary(monkeypatch):
    """Every pivot of a solve works on a tableau whose data starts on a
    ``TABLEAU_ALIGN``-byte boundary, wherever the heap puts the buffer."""
    addresses = []
    real = simplex.tableau_pivot

    def pivot(T, pr, pc):
        addresses.append(T.ctypes.data)
        real(T, pr, pc)

    monkeypatch.setattr(simplex, "tableau_pivot", pivot)
    rng = np.random.default_rng(3)
    for m, n in ((1, 2), (3, 5), (7, 11), (20, 40)):
        A = rng.random((m, n))
        b = A @ rng.random(n)
        assert_valid_solution(A, b, solve_equality_feasibility(A, b))
    assert addresses
    assert all(address % simplex.TABLEAU_ALIGN == 0 for address in addresses)
