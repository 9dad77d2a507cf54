"""Pure-Python/numpy reference implementations of the hot kernels.

Contract: every function here must produce bit-identical results to its
compiled twin in ``_fast``.  That pins down not just the formulas but the
floating-point evaluation order:

* sums accumulate sequentially left to right (no pairwise or SIMD
  reassociation), so scalar accumulations are written as Python loops over
  IEEE-754 doubles, which round exactly like a C loop compiled without
  fused multiply-adds;
* elementwise array operations (one rounding per element) may use numpy,
  since per-element semantics match a per-cell C loop;
* integer results (sample counts, strategy maxima over small integers) are
  exact in both backends by construction.
"""

from __future__ import annotations

import numpy as np


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
    """One dense simplex pivot on (pr, pc), in place.

    Scales the pivot row by the pivot, eliminates the pivot column from
    every other row with a single multiply and subtract per cell, then
    writes the exact unit column.  Rows other than the pivot row are
    updated with one rounding per operation, matching the compiled loop.
    """
    T[pr, :] /= T[pr, pc]
    col = T[:, pc].copy()
    mask = np.arange(T.shape[0]) != pr
    T[mask, :] -= col[mask, None] * T[pr, :]
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
