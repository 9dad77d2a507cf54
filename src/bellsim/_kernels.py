"""The numeric kernels of the report path, in numpy.

Report bytes depend on the floating-point evaluation order of these
kernels, not just on their formulas:

* sums accumulate sequentially left to right (no pairwise or SIMD
  reassociation), so scalar accumulations are written as Python loops over
  IEEE-754 doubles; a pairwise sum would round differently and change the
  correlations a report prints;
* elementwise array operations (one rounding per element) use numpy;
* integer results (sample counts, strategy maxima over small integers) are
  exact by construction.

Callers bind each kernel by name (``from ._kernels import ...``).
``BACKEND`` names this implementation in environment records.
"""

from __future__ import annotations

import numpy as np

BACKEND = "pure"

#: Cells of the tableau that ``tableau_pivot`` updates per step (256 KiB
#: of doubles), so that each step's gathered rows and update fit in cache.
PIVOT_CHUNK_CELLS = 1 << 15


def response_product_sum(f: np.ndarray, g: np.ndarray, w: np.ndarray) -> float:
    """Return sum_i f[i]*g[i]*w[i], accumulated sequentially."""
    acc = 0.0
    for fi, gi, wi in zip(f.tolist(), g.tolist(), w.tolist()):
        acc += fi * gi * wi
    return acc


def outcome_cell_sums(weights: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per-outcome weight totals.

    ``codes`` holds one entry in {0,1,2,3} per cell (the joint outcome
    ++, +-, -+, -- in that order); returns the four accumulated weights.
    Each bin accumulates in input order, matching bincount.
    """
    return np.bincount(codes, weights=weights, minlength=4).astype(np.float64)


def mc_outcome_counts(cum: np.ndarray, codes: np.ndarray,
                      uniforms: np.ndarray) -> np.ndarray:
    """Tally sampled outcomes against the cell edges of the weight CDF.

    ``cum`` is the inclusive cumulative sum of the cell weights.  Inverse-CDF
    lookup sends each uniform u to the first cell with cum > u, clamped to
    the last cell against roundoff at the top, so cell i receives exactly
    the draws with cum[i-1] <= u < cum[i] and the last cell every draw with
    u >= cum[-2].  Rather than look up each draw, the draws are sorted once
    and each edge cum[i] is located among them: the number of draws below
    cum[i], differenced, is the size of that same partition.  Counts are
    integers, so the result equals the per-draw lookup exactly.  Returns
    int64 counts per outcome.
    """
    u = np.sort(uniforms)
    below = np.searchsorted(u, cum[:-1], side="left")
    per_cell = np.diff(below, prepend=0, append=u.shape[0])
    return np.bincount(codes, weights=per_cell, minlength=4).astype(np.int64)


def tableau_pivot(T: np.ndarray, pr: int, pc: int) -> None:
    """One simplex pivot on (pr, pc), in place, touching only the rows
    it changes.

    Scales the pivot row by the pivot, subtracts the pivot-column entry
    times the pivot row from every other row whose pivot-column entry is
    nonzero (one rounding per multiply and per subtract), then writes the
    exact unit column.  Those rows are updated a few at a time, about
    ``PIVOT_CHUNK_CELLS`` cells per step: on a 257 x 4353 tableau (an 8^5
    joint-composite block) this runs a pivot in 1.4 ms instead of 2.2 ms
    for all rows at once, whose temporaries do not fit in cache.  Each
    cell gets the same two roundings either way.

    A row with a zero pivot-column entry is skipped: the dense update
    would compute x - 0*y there, which returns x except that it turns a
    -0.0 into +0.0 when 0*y is -0.0.  So only the sign of a zero can
    differ from a dense pivot, and none reaches a report: no test in the
    simplex tells -0.0 from +0.0, the joint is clipped with
    ``np.maximum(x, 0.0)``, which gives +0.0, and certificates are built
    from ``1 - entry``, which is 1.0 for either zero.  With positive
    pivots, the only ones the simplex takes, on a tableau without -0.0,
    no -0.0 arises short of underflow, and the result is the dense pivot
    byte for byte.
    """
    T[pr, :] /= T[pr, pc]
    rows = np.flatnonzero(T[:, pc])
    rows = rows[rows != pr]
    step = max(1, PIVOT_CHUNK_CELLS // T.shape[1])
    for start in range(0, rows.size, step):
        chunk = rows[start:start + step]
        T[chunk] -= T[chunk, pc][:, None] * T[pr]
    T[:, pc] = 0.0
    T[pr, pc] = 1.0


def chsh_strategy_max(n: int) -> float:
    """Exhaustive CHSH maximum over deterministic strategies on n points.

    Enumerates all 2^(4n) assignments of the four response tables
    (two per side) over an n-point hidden space and all point-mass
    distributions, returning max |S|.  Every partial sum lies in
    {-4..4}, so the arithmetic is done exactly in ``int8``.
    """
    m = 1 << n
    signs = np.where(
        (np.arange(m)[:, None] >> np.arange(n)[None, :]) & 1, -1, 1
    ).astype(np.int8)
    best = 0.0
    for ib in range(m):
        u = signs[ib][None, :] + signs          # g_b + g_b' per candidate g_b'
        v = signs[ib][None, :] - signs          # g_b - g_b'
        s = np.abs(signs[:, None, None, :] * u[None, None, :, :]
                   + signs[None, :, None, :] * v[None, None, :, :])
        best = max(best, float(s.max()))
    return best
