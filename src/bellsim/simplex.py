"""Self-contained phase-1 simplex for equality-constrained feasibility.

Decides whether {x >= 0 : A x = b} is nonempty by minimizing the sum of
artificial variables with a dense-tableau simplex.  Each iteration is a
few vectorised numpy steps around one pivot (``_kernels.tableau_pivot``).
The pivot is row-sparse: it updates only the rows whose pivot-column
entry is nonzero, which skips exactly the updates that subtract zero.
On the 8^5 blocks of the joint-existence LP the pivot column is on
average 2% nonzero for factorized families and 64% for joint-composite
ones, so this saves much of a dense pivot's work, and the tableau
differs from a dense pivot's at most in the sign of a zero, which
nothing below tells apart.  The other steps:

* pricing takes the column whose reduced cost per unit length of its
  edge is most negative (steepest edge, Goldfarb and Reid 1977); the edge
  of column j has length sqrt(1 + |T[:, j]|^2), read off the tableau
  column.  On the blocks of factorized marginal families the most
  negative reduced cost alone (Dantzig's rule) takes up to 20 times more
  pivots: 5170 against 225 on one 8^5 block;
* the leaving row comes from a two-pass ratio test (Harris 1973).  Pass
  one finds the largest step that keeps every basic variable above
  ``-HARRIS_TOL``; pass two takes, among the rows whose own ratio is
  within that step, the largest pivot entry, so near-ties never force a
  tiny pivot.  Entries below ``PIVOT_REL_TOL`` times the column's largest
  entry are never pivots, and exact ties go to the lowest basis index, so
  the pivot path is deterministic;
* after ``BLAND_AFTER`` consecutive degenerate pivots both choices switch
  to Bland's lowest-index rules (Bland 1977) until a pivot lowers the
  objective again, which rules out cycling;
* after every pivot the scaled pivot row, through which every other row
  changes, is checked against the largest entry of the starting tableau:
  growth past ``GROWTH_LIMIT`` raises :class:`TableauGrowth` instead of
  returning numbers from a tableau that has lost its precision.

Redundant rows are harmless: their artificials simply stay basic at zero.
A solve stops as soon as the objective reaches zero, since any basis with
no artificial weight left is a solution.  Otherwise it runs to optimality
and, when the optimum exceeds the feasibility threshold, the phase-1 dual
vector is returned as a Farkas certificate y with y^T A <= 0 (up to
roundoff) and y^T b equal to the positive optimum, which no nonnegative x
can satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import tableau_pivot
from .errors import (SimplexNumericalFailure, SimplexWorkLimitExceeded,
                     TableauGrowth)

#: Phase-1 objective at or below this counts as feasible.
FEASIBILITY_TOL = 1e-9

#: Reduced-cost threshold, absolute floor on pivot entries, and the
#: objective (or basic value) counted as zero.
PIVOT_TOL = 1e-12

#: Pivot entries must exceed this fraction of their column's largest entry.
PIVOT_REL_TOL = 1e-9

#: How far below zero the ratio test lets a basic variable go.
HARRIS_TOL = 1e-12

#: Consecutive degenerate pivots before Bland's rule takes over.
BLAND_AFTER = 200

#: Largest allowed scaled pivot row, relative to the starting tableau.
GROWTH_LIMIT = 1e10


@dataclass(frozen=True)
class SimplexResult:
    """Feasibility outcome of the phase-1 solve.

    ``x`` is a nonnegative solution when feasible; ``certificate`` is the
    Farkas dual vector when infeasible; ``objective`` is the final sum of
    artificials in both cases.  ``bland_pivots`` counts the pivots taken
    under the anti-cycling fallback.
    """

    feasible: bool
    x: np.ndarray | None
    certificate: np.ndarray | None
    objective: float
    iterations: int
    bland_pivots: int = 0


def _leaving_row(col: np.ndarray, rhs: np.ndarray, basis: np.ndarray,
                 bland: bool) -> int:
    """Row of the ratio test for entering column ``col``, or -1 if none.

    Negative basic values (at most ``HARRIS_TOL`` below zero) count as
    zero, so no step is negative.
    """
    rows = np.flatnonzero(col > max(PIVOT_TOL, PIVOT_REL_TOL * np.abs(col).max()))
    if rows.size == 0:
        return -1
    pivots = col[rows]
    values = np.maximum(rhs[rows], 0.0)
    ratios = values / pivots
    if bland:
        rows = rows[ratios <= ratios.min() + PIVOT_TOL]
    else:
        near = ratios <= np.min((values + HARRIS_TOL) / pivots)
        rows, pivots = rows[near], pivots[near]
        rows = rows[pivots == pivots.max()]
    return int(rows[np.argmin(basis[rows])])


def solve_equality_feasibility(A: np.ndarray, b: np.ndarray,
                               tol: float = FEASIBILITY_TOL) -> SimplexResult:
    """Find x >= 0 with A x = b, or a certificate that none exists."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")

    # orient rows so the artificial start basis is feasible (b >= 0)
    flips = np.where(b < 0.0, -1.0, 1.0)
    A = A * flips[:, None]
    b = b * flips

    # tableau rows 0..m-1: [A | I | b]; row m: phase-1 reduced costs.
    # With the artificial basis, the reduced cost of original column j is
    # -sum_i A[i, j] and the objective cell holds -sum(b).
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
        bland = degenerate_run >= BLAND_AFTER
        if bland:
            entering = int(improving[0])
        else:
            # reduced cost per unit length of the edge the column moves
            # along; einsum sums the squares row by row, as a sum over
            # axis 0 would, without a tableau-sized temporary
            V = T[:m, :n + m]
            edge = np.sqrt(1.0 + np.einsum("ij,ij->j", V, V))
            entering = int(improving[np.argmin(cost[improving] / edge[improving])])
        leaving = _leaving_row(T[:m, entering], rhs, basis, bland)
        if leaving < 0:
            # the phase-1 objective is bounded below by 0, so an improving
            # column always has a pivot in exact arithmetic
            raise SimplexNumericalFailure(
                f"improving column {entering} has no pivot entry")
        rhs[leaving] = max(rhs[leaving], 0.0)
        degenerate_run = degenerate_run + 1 if rhs[leaving] <= PIVOT_TOL else 0
        tableau_pivot(T, leaving, entering)
        basis[leaving] = entering
        iterations += 1
        bland_pivots += bland
        growth = float(np.abs(T[leaving]).max()) / start_scale
        if growth > GROWTH_LIMIT:
            raise TableauGrowth(growth, GROWTH_LIMIT)
        if iterations > max_iterations:
            raise SimplexWorkLimitExceeded(iterations, max_iterations)

    objective = -T[m, -1]
    if objective <= tol:
        x = np.zeros(n)
        structural = basis < n
        x[basis[structural]] = rhs[structural]
        np.maximum(x, 0.0, out=x)
        return SimplexResult(feasible=True, x=x, certificate=None,
                             objective=float(objective), iterations=iterations,
                             bland_pivots=bland_pivots)

    # y_i = 1 - (reduced cost of artificial i); undo the row orientation
    y = (1.0 - T[m, n:n + m]) * flips
    return SimplexResult(feasible=False, x=None, certificate=y,
                         objective=float(objective), iterations=iterations,
                         bland_pivots=bland_pivots)
