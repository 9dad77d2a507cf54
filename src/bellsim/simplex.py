"""Self-contained phase-1 simplex for one lambda block of the
joint-existence LP, in revised form.

A block asks whether {x >= 0 : A x = b} is nonempty.  The columns of A
are the apparatus points (v_a, v_a', v_b, v_b') of ``shape``, row-major;
its rows are the cells of the four pair marginals, grouped by setting
pair in canonical order and row-major over (v_p, v_q) inside a group.
Each column has a one in the row of each pair's cell (v_p, v_q) and
zeros elsewhere, so A is never stored: y^T A is a sum of four entries of
y per column (``column_sums`` over ``pair_rows``), and B^{-1} a_j a sum
of four columns of B^{-1}.

The state is one (m + 1) x (m + 2) array [B^{-1} | entering column |
x_B], starting from the artificial basis; row m holds the artificials'
reduced costs and, last, minus the objective, the sum of the
artificials.  The n structural reduced costs start at -4 and are updated
with the pivot row.  Each iteration is a few vectorised numpy steps
around one row-sparse pivot of the state (``_kernels.tableau_pivot``),
which updates only the rows with a nonzero entering-column entry: on
average 2% of them on the blocks of the SettingDependent copy of an 8^5
factorized family (its pair marginals in SettingDependent mode, since
factorized and joint-composite families skip the LP) and 64% for a
joint-composite one.  The other steps:

* pricing by steepest edge (Goldfarb and Reid 1977) takes the improving
  column with the most negative reduced cost per unit edge length
  sqrt(gamma_j), gamma_j = 1 + |B^{-1} a_j|^2.  The gammas start at 5 and
  follow their recurrence through w = B^{-T} B^{-1} a_q, summed row by
  row over the nonzero entries of the entering column, so no BLAS
  product is involved.  Dantzig's rule took up to 20 times more pivots:
  5170 against 225 on one block of an 8^5 factorized copy.  Artificials
  never re-enter;
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
* after every pivot the scaled pivot row, over the structural columns
  and the state, is checked against 4, the largest entry of the starting
  tableau: growth past ``GROWTH_LIMIT`` raises :class:`TableauGrowth`
  instead of returning numbers that have lost their precision.

Redundant rows are harmless: their artificials stay basic at zero.  A
solve stops as soon as the objective reaches zero.  Otherwise it runs
until no structural column improves and, when the objective exceeds
``FEASIBILITY_TOL``, returns y = 1 - (the artificials' reduced costs) as
a Farkas certificate: y^T A <= 0 up to roundoff, and y^T b is the final
objective, which no nonnegative x can match.  As artificials never
re-enter, that objective may exceed the phase-1 optimum.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ._kernels import tableau_pivot
from .errors import (SimplexDomainMismatch, SimplexNumericalFailure,
                     SimplexWorkLimitExceeded, TableauGrowth)
from .spaces import SETTING_AXIS, SETTING_PAIRS

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


def pair_rows(cards: Sequence[int]) -> np.ndarray:
    """The rows where the column of each composite point has its ones.

    ``cards`` are the cardinalities of (lambda, lambda_a, lambda_a',
    lambda_b, lambda_b'); points run row-major over them.  Rows are the
    marginal cells, grouped by setting pair in canonical order and
    row-major over (lambda, v_p, v_q) inside a group.  Returns a (4, N)
    integer array for the N points: line k holds each point's row in the
    group of pair k.
    """
    point = np.indices(cards).reshape(5, -1)
    rows = []
    start = 0
    for pair in SETTING_PAIRS:
        p, q = (SETTING_AXIS[name] for name in pair)
        rows.append(start + (point[0] * cards[p] + point[p]) * cards[q] + point[q])
        start += cards[0] * cards[p] * cards[q]
    return np.array(rows)


def column_sums(y: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """y^T A for every point of ``rows = pair_rows(cards)``: the four-term
    sum y_ab + y_ab' + y_a'b + y_a'b', added in that order."""
    return y[rows[0]] + y[rows[1]] + y[rows[2]] + y[rows[3]]


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


def solve_block(shape: Sequence[int], b: np.ndarray,
                rows: np.ndarray | None = None) -> SimplexResult:
    """Find x >= 0 with A x = b for the four-cycle block of ``shape`` =
    (d_a, d_a', d_b, d_b'), or a certificate that none exists.

    ``b`` holds the block's marginal cells in row order and must be
    nonnegative, as marginals are; otherwise, or when its length is not
    the block's row count, raises :class:`SimplexDomainMismatch`.
    ``rows`` is ``pair_rows((1, *shape))``, built here if not given, so
    that the blocks of one family can share it.
    """
    if rows is None:
        rows = pair_rows((1, *shape))
    n = math.prod(shape)
    m = sum(shape[SETTING_AXIS[p] - 1] * shape[SETTING_AXIS[q] - 1]
            for p, q in SETTING_PAIRS)
    b = np.asarray(b, dtype=np.float64)
    if b.shape != (m,):
        raise SimplexDomainMismatch(f"b has shape {b.shape}, expected ({m},)")
    if not np.all(b >= 0.0):
        raise SimplexDomainMismatch(
            f"b has an entry {float(np.min(b))!r}, expected none below 0")

    # state rows 0..m-1: [B^-1 | entering column | x_B]; row m: the
    # artificials' reduced costs, the entering column's and -objective
    S = np.zeros((m + 1, m + 2))
    S[:m, :m] = np.eye(m)
    S[:m, -1] = b
    S[m, -1] = -b.sum()
    col = S[:, m]
    rhs = S[:m, -1]
    basis = np.arange(n, n + m)
    cost = np.full(n, -4.0)
    gamma = np.full(n, 5.0)

    iterations = bland_pivots = degenerate_run = 0
    max_iterations = 10 * (m + n) + 1000
    while -S[m, -1] > PIVOT_TOL:
        improving = np.flatnonzero(cost < -PIVOT_TOL)
        if improving.size == 0:
            break
        bland = degenerate_run >= BLAND_AFTER
        if bland:
            entering = int(improving[0])
        else:
            ratio = cost[improving] / np.sqrt(gamma[improving])
            entering = int(improving[np.argmin(ratio)])
        r0, r1, r2, r3 = rows[:, entering]
        col[:m] = S[:m, r0] + S[:m, r1] + S[:m, r2] + S[:m, r3]
        col[m] = cost[entering]
        leaving = _leaving_row(col[:m], rhs, basis, bland)
        if leaving < 0:
            # the phase-1 objective is bounded below by 0, so an improving
            # column always has a pivot in exact arithmetic
            raise SimplexNumericalFailure(
                f"improving column {entering} has no pivot entry")
        rhs[leaving] = max(rhs[leaving], 0.0)
        degenerate_run = degenerate_run + 1 if rhs[leaving] <= PIVOT_TOL else 0

        pivot = col[leaving]
        alpha = column_sums(S[leaving, :m], rows) / pivot
        nonzero = np.flatnonzero(col[:m])
        entries = col[nonzero]
        gamma_q = 1.0 + np.sum(entries * entries)
        # w = B^-T (B^-1 a_q); a sum over axis 0 adds the rows in order
        w = (S[nonzero, :m] * entries[:, None]).sum(axis=0)
        gamma += alpha * (alpha * gamma_q - 2.0 * column_sums(w, rows))
        np.maximum(gamma, 1.0 + alpha * alpha, out=gamma)
        cost -= col[m] * alpha
        cost[entering] = 0.0

        tableau_pivot(S, leaving, m)
        if basis[leaving] < n:
            gamma[basis[leaving]] = gamma_q / (pivot * pivot)
        basis[leaving] = entering
        iterations += 1
        bland_pivots += bland
        # relative to the starting tableau's largest entry, the costs of -4
        growth = max(float(np.abs(alpha).max()),
                     float(np.abs(S[leaving]).max())) / 4.0
        if growth > GROWTH_LIMIT:
            raise TableauGrowth(growth, GROWTH_LIMIT)
        if iterations > max_iterations:
            raise SimplexWorkLimitExceeded(iterations, max_iterations)

    objective = -S[m, -1]
    if objective <= FEASIBILITY_TOL:
        x = np.zeros(n)
        structural = basis < n
        x[basis[structural]] = rhs[structural]
        np.maximum(x, 0.0, out=x)
        return SimplexResult(feasible=True, x=x, certificate=None,
                             objective=float(objective), iterations=iterations,
                             bland_pivots=bland_pivots)

    # y_i = 1 - (reduced cost of artificial i)
    y = 1.0 - S[m, :m]
    return SimplexResult(feasible=False, x=None, certificate=y,
                         objective=float(objective), iterations=iterations,
                         bland_pivots=bland_pivots)
