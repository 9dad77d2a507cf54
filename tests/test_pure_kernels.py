"""Checks on the numeric kernels in ``bellsim._kernels``, the one, pure
numpy, implementation (``BACKEND == "pure"``)."""

from __future__ import annotations

import bisect

import numpy as np
import pytest

from bellsim import _kernels


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chsh_strategy_max_is_exactly_two(n):
    assert _kernels.chsh_strategy_max(n) == 2.0


def test_mc_outcome_counts_top_edge_clamped():
    cum = np.array([0.5, 1.0 - 1e-12])
    codes = np.array([0, 3], dtype=np.uint8)
    u = np.array([1.0 - 1e-13])  # beyond the last cumulative value
    assert _kernels.mc_outcome_counts(cum, codes, u)[3] == 1


def test_mc_outcome_counts_zero_weight_cells_never_sampled():
    cum = np.array([0.5, 0.5, 1.0])  # middle cell has zero mass
    codes = np.array([0, 1, 2], dtype=np.uint8)
    u = np.linspace(0.0, 0.999, 1001)
    assert _kernels.mc_outcome_counts(cum, codes, u)[1] == 0


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
    counts = _kernels.mc_outcome_counts(cum, codes, u)
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
        assert _kernels.mc_outcome_counts(cum, codes, u)[code] == u.shape[0]


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
    assert _kernels.mc_outcome_counts(cum, codes, u).tolist() == [2, 1, 0, 1]
    _check_mc_counts(cum, codes, u)


def test_tableau_pivot_column_is_exact_unit():
    rng = np.random.default_rng(55)
    T = rng.normal(size=(6, 9))
    T[3, 4] = 2.5
    _kernels.tableau_pivot(T, 3, 4)
    col = T[:, 4]
    assert col[3] == 1.0
    assert np.all(col[np.arange(6) != 3] == 0.0)


def test_response_product_sum_accumulates_sequentially():
    # left to right gives 1.0; a pairwise sum gives 0.0, an exact one 2.0
    ones = np.ones(4)
    w = np.array([1e16, 1.0, -1e16, 1.0])
    assert _kernels.response_product_sum(ones, ones, w) == 1.0


def _dense_pivot(T, pr, pc):
    """Reference: the dense pivot, which updates every row but the pivot
    row whatever its pivot-column entry."""
    T[pr, :] /= T[pr, pc]
    col = T[:, pc].copy()
    mask = np.arange(T.shape[0]) != pr
    T[mask, :] -= col[mask, None] * T[pr, :]
    T[:, pc] = 0.0
    T[pr, pc] = 1.0


def _plant_zeros(rng, T, pr, pc, share):
    """Set about ``share`` of the pivot column and the pivot row, other
    than the pivot itself, to +0.0."""
    m, n = T.shape
    rows = np.flatnonzero(rng.random(m) < share)
    cols = np.flatnonzero(rng.random(n) < share)
    T[rows[rows != pr], pc] = 0.0
    T[pr, cols[cols != pc]] = 0.0


def _pivot_both(T, R, pr, pc):
    _kernels.tableau_pivot(T, pr, pc)
    _dense_pivot(R, pr, pc)


def _positive_pivot(rng, T):
    """A random (row, column) whose entry is positive and not tiny, as
    the ratio test requires, or None."""
    cols = np.flatnonzero((T > 1e-3).any(axis=0))
    if cols.size == 0:
        return None
    pc = int(rng.choice(cols))
    return int(rng.choice(np.flatnonzero(T[:, pc] > 1e-3))), pc


@pytest.fixture(params=[None, 1, 100], ids=["chunk-default", "chunk-1", "chunk-100"])
def chunk_cells(request, monkeypatch):
    """Runs a test with the default pivot chunk and with chunks of one row
    and of a few rows."""
    if request.param is not None:
        monkeypatch.setattr(_kernels, "PIVOT_CHUNK_CELLS", request.param)


@pytest.mark.parametrize("seed", range(20))
def test_tableau_pivot_equals_dense_pivot(seed, chunk_cells):
    """Single pivots with +0.0 planted in the pivot column and row."""
    rng = np.random.default_rng(seed)
    for share in (0.0, 0.3, 0.7, 1.0):
        m, n = (int(k) for k in rng.integers(2, 40, size=2))
        T = rng.normal(size=(m, n))
        pr, pc = int(rng.integers(m)), int(rng.integers(n))
        T[pr, pc] = 0.5 + rng.random()
        _plant_zeros(rng, T, pr, pc, share)
        R = T.copy()
        _pivot_both(T, R, pr, pc)
        assert T.tobytes() == R.tobytes()


def test_tableau_pivot_equals_dense_pivot_on_a_joint_block_shape():
    """257 x 4353 is the tableau of an 8^5 joint-composite block; the
    default chunk then updates a few rows per step."""
    rng = np.random.default_rng(99)
    T = rng.normal(size=(257, 4353))
    pr, pc = 100, 2000
    T[rng.random(257) >= 0.3, pc] = 0.0
    T[pr, pc] = 3.0
    _plant_zeros(rng, T, pr, pc, 0.5)
    R = T.copy()
    _pivot_both(T, R, pr, pc)
    assert T.tobytes() == R.tobytes()


@pytest.mark.parametrize("seed", range(10))
def test_tableau_pivot_sequence_equals_dense_pivots(seed, chunk_cells):
    """Pivot sequences on a tableau with many +0.0 entries, planting more
    in each pivot's column and row, compared after every pivot."""
    rng = np.random.default_rng(100 + seed)
    m, n = int(rng.integers(4, 30)), int(rng.integers(8, 60))
    T = rng.normal(size=(m, n))
    T[rng.random((m, n)) < 0.6] = 0.0
    R = T.copy()
    for _ in range(30):
        pivot = _positive_pivot(rng, T)
        if pivot is None:
            break
        _plant_zeros(rng, T, *pivot, 0.3)
        R[...] = T
        _pivot_both(T, R, *pivot)
        assert T.tobytes() == R.tobytes()


def test_tableau_pivot_differs_from_dense_only_in_the_sign_of_zeros(chunk_cells):
    """Pivots of either sign on a tableau holding -0.0 entries."""
    rng = np.random.default_rng(61)
    for _ in range(20):
        m, n = int(rng.integers(4, 30)), int(rng.integers(8, 60))
        T = rng.normal(size=(m, n))
        T[rng.random((m, n)) < 0.4] = 0.0
        T[rng.random((m, n)) < 0.2] = -0.0
        R = T.copy()
        for _ in range(10):
            nonzero = np.argwhere(np.abs(T) > 1e-3)
            if nonzero.size == 0:
                break
            pr, pc = (int(k) for k in nonzero[rng.integers(len(nonzero))])
            _pivot_both(T, R, pr, pc)
            assert np.array_equal(T, R)
            assert T[R != 0.0].tobytes() == R[R != 0.0].tobytes()
