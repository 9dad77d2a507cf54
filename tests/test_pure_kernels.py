"""Backend-independent kernel checks, run against the pure backend.

These always run; ``test_kernels.py`` holds the two-backend parity checks,
which need the compiled extension.
"""

from __future__ import annotations

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


def test_tableau_pivot_column_is_exact_unit():
    rng = np.random.default_rng(55)
    T = rng.normal(size=(6, 9))
    T[3, 4] = 2.5
    _pure.tableau_pivot(T, 3, 4)
    col = T[:, 4]
    assert col[3] == 1.0
    assert np.all(col[np.arange(6) != 3] == 0.0)
