"""Brute-force CHSH strategy maxima, kept as the references that
``correlation.enumerate_bound`` must match.  It reads the 16 sign choices
of one point, and these visit every strategy on every point.

``int8_strategy_max`` enumerates all 2^(4n) assignments of the four
response tables in ``int8``, Alice's two tables included, one table g_b
at a time against every (f_a, f_a', g_b') triple, so its temporaries are
(2^n)^3 * n.  ``loop_strategy_max`` forms every one of the 2^(4n) * n
point sums f_a g_b + f_a g_b' + f_a' g_b - f_a' g_b' in Python; it is
meant for n <= 2.
"""

from __future__ import annotations

import itertools

import numpy as np


def int8_strategy_max(n: int) -> float:
    """max |S| over every table assignment and point, by enumeration."""
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


def loop_strategy_max(n: int) -> float:
    """max |S| over every table assignment and point, one sum at a time."""
    tables = list(itertools.product((1, -1), repeat=n))
    best = 0
    for f_a, f_a2, g_b, g_b2 in itertools.product(tables, repeat=4):
        for k in range(n):
            s = (f_a[k] * g_b[k] + f_a[k] * g_b2[k]
                 + f_a2[k] * g_b[k] - f_a2[k] * g_b2[k])
            best = max(best, abs(s))
    return float(best)
