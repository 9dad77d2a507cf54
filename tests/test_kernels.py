"""Backend parity: the compiled kernels must match the pure ones bit for bit.

The pure backend's own checks live in ``test_pure_kernels.py``, which
runs without the compiled extension."""

from __future__ import annotations

import numpy as np
import pytest

from bellsim import _kernels
from bellsim._kernels import _pure

_fast = pytest.importorskip(
    "bellsim._kernels._fast", reason="compiled kernel extension not built")


def test_backend_label():
    assert _kernels.BACKEND in ("fast", "pure")
    assert _kernels.BACKEND == "fast"  # extension importable in this session


class TestResponseProductSum:
    def test_random_inputs_bit_equal(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            n = int(rng.integers(0, 200))
            f = rng.choice([-1.0, 1.0], size=n)
            g = rng.normal(size=n)
            w = rng.random(n)
            a = _fast.response_product_sum(f, g, w)
            b = _pure.response_product_sum(f, g, w)
            assert np.float64(a).tobytes() == np.float64(b).tobytes()

    def test_accumulation_order_is_sequential(self):
        # a case where pairwise summation would differ from sequential
        w = np.array([1e16, 1.0, -1e16, 1.0])
        ones = np.ones(4)
        assert _fast.response_product_sum(ones, ones, w) == \
            _pure.response_product_sum(ones, ones, w)


class TestOutcomeCellSums:
    def test_random_inputs_bit_equal(self):
        rng = np.random.default_rng(52)
        for _ in range(200):
            n = int(rng.integers(1, 300))
            w = rng.random(n)
            codes = rng.integers(0, 4, size=n).astype(np.uint8)
            a = _fast.outcome_cell_sums(w, codes)
            b = _pure.outcome_cell_sums(w, codes)
            assert a.tobytes() == b.tobytes()


class TestMcOutcomeCounts:
    def test_random_inputs_equal(self):
        rng = np.random.default_rng(53)
        for _ in range(100):
            n = int(rng.integers(1, 50))
            weights = rng.dirichlet(np.ones(n))
            # sprinkle exact zeros to create cumulative ties
            weights[rng.random(n) < 0.3] = 0.0
            total = weights.sum()
            if total == 0.0:
                continue
            weights /= total
            cum = np.cumsum(weights)
            codes = rng.integers(0, 4, size=n).astype(np.uint8)
            u = rng.random(int(rng.integers(1, 500)))
            a = _fast.mc_outcome_counts(cum, codes, u)
            b = _pure.mc_outcome_counts(cum, codes, u)
            assert np.array_equal(a, b)
            assert a.sum() == u.shape[0]

    def test_top_edge_clamped(self):
        cum = np.array([0.5, 1.0 - 1e-12])
        codes = np.array([0, 3], dtype=np.uint8)
        u = np.array([1.0 - 1e-13])  # beyond the last cumulative value
        a = _fast.mc_outcome_counts(cum, codes, u)
        b = _pure.mc_outcome_counts(cum, codes, u)
        assert np.array_equal(a, b)
        assert a[3] == 1

    def test_zero_weight_cells_never_sampled(self):
        cum = np.array([0.5, 0.5, 1.0])  # middle cell has zero mass
        codes = np.array([0, 1, 2], dtype=np.uint8)
        u = np.linspace(0.0, 0.999, 1001)
        assert _fast.mc_outcome_counts(cum, codes, u)[1] == 0


class TestTableauPivot:
    def test_random_pivots_bit_equal(self):
        rng = np.random.default_rng(54)
        for _ in range(100):
            m = int(rng.integers(2, 12))
            n = int(rng.integers(2, 12))
            T = rng.normal(size=(m, n))
            pr = int(rng.integers(0, m))
            pc = int(rng.integers(0, n))
            if abs(T[pr, pc]) < 1e-3:
                T[pr, pc] = 1.0 + rng.random()
            Tf, Tp = T.copy(), T.copy()
            _fast.tableau_pivot(Tf, pr, pc)
            _pure.tableau_pivot(Tp, pr, pc)
            assert Tf.tobytes() == Tp.tobytes()

    def test_pivot_column_is_exact_unit(self):
        rng = np.random.default_rng(55)
        T = rng.normal(size=(6, 9))
        T[3, 4] = 2.5
        _fast.tableau_pivot(T, 3, 4)
        col = T[:, 4]
        assert col[3] == 1.0
        assert np.all(col[np.arange(6) != 3] == 0.0)

    def test_sequence_of_pivots_bit_equal(self):
        rng = np.random.default_rng(56)
        T = rng.normal(size=(10, 16))
        Tf, Tp = T.copy(), T.copy()
        for pr, pc in [(0, 0), (4, 7), (9, 15), (2, 3)]:
            if abs(Tf[pr, pc]) < 1e-6:
                continue
            _fast.tableau_pivot(Tf, pr, pc)
            _pure.tableau_pivot(Tp, pr, pc)
        assert Tf.tobytes() == Tp.tobytes()


class TestChshStrategyMax:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equal_and_exactly_two(self, n):
        a = _fast.chsh_strategy_max(n)
        b = _pure.chsh_strategy_max(n)
        assert a == b == 2.0
