"""Backend-independent kernel checks, run against the pure backend.

These always run; ``test_kernels.py`` holds the two-backend parity checks,
which need the compiled extension.
"""

from __future__ import annotations

import bisect

import numpy as np
import pytest

from bellsim._kernels import _pure


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chsh_strategy_max_is_exactly_two(n):
    assert _pure.chsh_strategy_max(n) == 2.0


def test_mc_outcome_counts_top_edge_clamped():
    cum = np.array([0.5, 1.0 - 1e-12])
    codes = np.array([0, 3], dtype=np.uint8)
    u = np.array([1.0 - 1e-13])  # beyond the last cumulative value
    assert _pure.mc_outcome_counts(cum, codes, u)[3] == 1


def test_mc_outcome_counts_zero_weight_cells_never_sampled():
    cum = np.array([0.5, 0.5, 1.0])  # middle cell has zero mass
    codes = np.array([0, 1, 2], dtype=np.uint8)
    u = np.linspace(0.0, 0.999, 1001)
    assert _pure.mc_outcome_counts(cum, codes, u)[1] == 0


def _scalar_mc_counts(cum, codes, uniforms):
    """Reference tally: one inverse-CDF lookup per draw, clamped to the
    last cell."""
    cum = cum.tolist()
    counts = [0, 0, 0, 0]
    for u in uniforms.tolist():
        cell = min(bisect.bisect_right(cum, u), len(cum) - 1)
        counts[int(codes[cell])] += 1
    return counts


def _edge_heavy_draws(rng, cum, n):
    """Uniform draws plus every cumulative value, 0.0 and values above
    cum[-1], shuffled."""
    special = np.concatenate([cum, [0.0, 0.0, np.nextafter(cum[-1], 2.0)],
                              rng.choice(cum, size=20)])
    above = cum[-1] + (1.0 - cum[-1]) * rng.random(5) if cum[-1] < 1.0 else []
    u = np.concatenate([rng.random(n), special, above])
    rng.shuffle(u)
    return u


def _check_mc_counts(cum, codes, u):
    counts = _pure.mc_outcome_counts(cum, codes, u)
    assert counts.dtype == np.int64
    assert counts.tolist() == _scalar_mc_counts(cum, codes, u)
    assert int(counts.sum()) == u.shape[0]


@pytest.mark.parametrize("seed", range(40))
def test_mc_outcome_counts_equal_scalar_lookup(seed):
    """Random CDFs with leading, interior and trailing zero-weight runs."""
    rng = np.random.default_rng(seed)
    cells = int(rng.integers(2, 300))
    weights = rng.random(cells)
    weights[rng.random(cells) < 0.2] = 0.0
    lead, trail = rng.integers(0, 4, size=2)
    weights[:lead] = 0.0
    weights[cells - trail:] = 0.0
    if weights.sum() == 0.0:
        weights[cells // 2] = 1.0
    cum = np.cumsum(weights / weights.sum())
    codes = rng.integers(0, 4, size=cells).astype(np.uint8)
    _check_mc_counts(cum, codes, _edge_heavy_draws(rng, cum, 2000))


def test_mc_outcome_counts_single_cell():
    rng = np.random.default_rng(7)
    cum = np.array([1.0])
    for code in range(4):
        codes = np.array([code], dtype=np.uint8)
        u = _edge_heavy_draws(rng, cum, 500)
        _check_mc_counts(cum, codes, u)
        assert _pure.mc_outcome_counts(cum, codes, u)[code] == u.shape[0]


def test_mc_outcome_counts_top_below_and_above_one():
    rng = np.random.default_rng(8)
    codes = np.array([2, 0, 3, 1], dtype=np.uint8)
    for top in (1.0 - 1e-12, 1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52, 1.0 + 1e-12):
        cum = np.array([0.25, 0.5, 0.75, top])
        u = _edge_heavy_draws(rng, cum, 1000)
        _check_mc_counts(cum, codes, np.concatenate([u, [top, 1.0 - 2.0 ** -53]]))


def test_mc_outcome_counts_draws_on_every_edge():
    """Draws exactly on cum entries go to the next nonempty cell."""
    cum = np.array([0.0, 0.25, 0.25, 0.5, 1.0])
    codes = np.array([0, 1, 2, 3, 0], dtype=np.uint8)
    u = np.array([0.0, 0.25, 0.5, 0.9999])
    assert _pure.mc_outcome_counts(cum, codes, u).tolist() == [2, 1, 0, 1]
    _check_mc_counts(cum, codes, u)


def test_tableau_pivot_column_is_exact_unit():
    rng = np.random.default_rng(55)
    T = rng.normal(size=(6, 9))
    T[3, 4] = 2.5
    _pure.tableau_pivot(T, 3, 4)
    col = T[:, 4]
    assert col[3] == 1.0
    assert np.all(col[np.arange(6) != 3] == 0.0)
