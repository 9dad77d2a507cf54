"""The dense phase-1 simplex and the stored 0/1 block matrix, kept as the
reference the revised block solver's verdicts must match.

``solve_equality_feasibility`` keeps the whole (m + 1) x (n + m + 1)
tableau [A | I | b] and its phase-1 reduced-cost row, prices every
column, artificials included, by steepest edge with the edge lengths read
off the tableau, and shares the ratio test, the Bland fallback, the
growth guard and the pivot with ``bellsim.simplex``.  It needs b >= 0, as
every marginal is.
"""

from __future__ import annotations

import math

import numpy as np

from bellsim import simplex
from bellsim._kernels import tableau_pivot
from bellsim.errors import (SimplexDomainMismatch, SimplexNumericalFailure,
                            SimplexWorkLimitExceeded, TableauGrowth)
from bellsim.simplex import PIVOT_TOL, SimplexResult, _leaving_row
from bellsim.spaces import SETTING_AXIS, SETTING_PAIRS


def block_matrix(shape) -> np.ndarray:
    """The 0/1 matrix of the block of ``shape`` = (d_a, d_a', d_b, d_b'):
    columns are apparatus points in row-major order, rows the pair cells
    grouped by pair in canonical order and row-major over (v_p, v_q)."""
    n = math.prod(shape)
    grids = np.indices(shape).reshape(4, n)
    blocks = []
    for p, q in SETTING_PAIRS:
        ax_p, ax_q = SETTING_AXIS[p] - 1, SETTING_AXIS[q] - 1
        rows = grids[ax_p] * shape[ax_q] + grids[ax_q]
        block = np.zeros((shape[ax_p] * shape[ax_q], n))
        block[rows, np.arange(n)] = 1.0
        blocks.append(block)
    return np.vstack(blocks)


def constraint_matrix(family) -> tuple[np.ndarray, np.ndarray]:
    """``(A, B)``: block lambda of the family's system is A x = B[lambda]."""
    cards = [s.cardinality for s in family.spaces]
    rhs = [family.marginal(p, q).weights.reshape(cards[0], -1)
           for p, q in SETTING_PAIRS]
    return block_matrix(cards[1:]), np.hstack(rhs)


def solve_equality_feasibility(A: np.ndarray, b: np.ndarray) -> SimplexResult:
    """Find x >= 0 with A x = b, or a certificate that none exists."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = A.shape
    if b.shape != (m,):
        raise SimplexDomainMismatch(f"b has shape {b.shape}, expected ({m},)")

    T = np.zeros((m + 1, n + m + 1))
    T[:m, :n] = A
    T[:m, n:n + m] = np.eye(m)
    T[:m, -1] = b
    T[m, :n] = -A.sum(axis=0)
    T[m, -1] = -b.sum()
    basis = np.arange(n, n + m)
    cost = T[m, :n + m]
    rhs = T[:m, -1]
    start_scale = float(np.abs(T).max(initial=1.0))

    iterations = bland_pivots = degenerate_run = 0
    max_iterations = 10 * (m + n) + 1000
    while -T[m, -1] > PIVOT_TOL:
        improving = np.flatnonzero(cost < -PIVOT_TOL)
        if improving.size == 0:
            break
        bland = degenerate_run >= simplex.BLAND_AFTER
        if bland:
            entering = int(improving[0])
        else:
            V = T[:m, :n + m]
            edge = np.sqrt(1.0 + np.einsum("ij,ij->j", V, V))
            entering = int(improving[np.argmin(cost[improving] / edge[improving])])
        leaving = _leaving_row(T[:m, entering], rhs, basis, bland)
        if leaving < 0:
            raise SimplexNumericalFailure(
                f"improving column {entering} has no pivot entry")
        rhs[leaving] = max(rhs[leaving], 0.0)
        degenerate_run = degenerate_run + 1 if rhs[leaving] <= PIVOT_TOL else 0
        tableau_pivot(T, leaving, entering)
        basis[leaving] = entering
        iterations += 1
        bland_pivots += bland
        growth = float(np.abs(T[leaving]).max()) / start_scale
        if growth > simplex.GROWTH_LIMIT:
            raise TableauGrowth(growth, simplex.GROWTH_LIMIT)
        if iterations > max_iterations:
            raise SimplexWorkLimitExceeded(iterations, max_iterations)

    objective = -T[m, -1]
    if objective <= simplex.FEASIBILITY_TOL:
        x = np.zeros(n)
        structural = basis < n
        x[basis[structural]] = rhs[structural]
        np.maximum(x, 0.0, out=x)
        return SimplexResult(feasible=True, x=x, certificate=None,
                             objective=float(objective), iterations=iterations,
                             bland_pivots=bland_pivots)
    y = 1.0 - T[m, n:n + m]
    return SimplexResult(feasible=False, x=None, certificate=y,
                         objective=float(objective), iterations=iterations,
                         bland_pivots=bland_pivots)
