"""Numeric kernel backends.

The compiled extension (``_fast``, Cython) is preferred; if it is missing
or fails to import, the pure-Python implementations in ``_pure`` are used.
Both backends produce bit-identical results, so the choice only affects
speed.  ``BACKEND`` names the active one ("fast" or "pure").

``mc_outcome_counts`` is the pure implementation on both backends: it
sorts the draws once and locates each cell edge among them, which outruns
the compiled per-draw binary search from a few cells up.
"""

from __future__ import annotations

from . import _pure

try:
    from . import _fast as _impl

    BACKEND = "fast"
except ImportError:
    _impl = _pure
    BACKEND = "pure"

response_product_sum = _impl.response_product_sum
outcome_cell_sums = _impl.outcome_cell_sums
mc_outcome_counts = _pure.mc_outcome_counts
tableau_pivot = _impl.tableau_pivot
chsh_strategy_max = _impl.chsh_strategy_max

__all__ = [
    "BACKEND",
    "response_product_sum",
    "outcome_cell_sums",
    "mc_outcome_counts",
    "tableau_pivot",
    "chsh_strategy_max",
]
