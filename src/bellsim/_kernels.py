"""The numeric kernels of the report path, in numpy.

Report bytes depend on the floating-point evaluation order of these
kernels, not just on their formulas:

* weight totals accumulate in input order (``np.bincount``), never by a
  pairwise or SIMD-reassociated sum, which would round differently and
  change the correlations a report prints;
* elementwise array operations (one rounding per element) use numpy;
* integer results (sample counts, strategy maxima over small integers) are
  exact by construction: once their edges are rounded to the 2^-53 grid
  of a uniform, the Monte Carlo counts use integer arithmetic only, so
  they cannot depend on BLAS, libm or the CPU.

Callers bind each kernel by name (``from ._kernels import ...``).
``BACKEND`` names this implementation; it stays because the benchmark
harness (``perfbench/run.py``) reads it into its environment record.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

BACKEND = "pure"

#: Raw 64-bit words that ``mc_outcome_counts`` draws and counts per step
#: (512 KiB), so that a count's memory does not grow with its samples.
MC_CHUNK_WORDS = 1 << 16

#: A uniform of ``Generator.random`` is k / 2^53 for a uniform integer k
#: in [0, 2^53).
_GRID = 1 << 53

#: Splits of up to this many draws count their raw bits as one Python
#: int, which is faster than numpy's popcount on a few words.
_INT_BITS = 2048


@dataclass(frozen=True)
class StreamDraws:
    """``samples`` draws for each seed sequence of ``seeds``, each counted
    as from a fresh PCG64 of that seed sequence.  A seed sequence may
    recur: the rows on one stream replay one split path
    (``mc_outcome_counts``).

    ``np.size`` of the draws is their total count over all the seeds, as
    for an array of the draws, which is how the benchmark's tracer counts
    the samples of a call.
    """

    seeds: Sequence[np.random.SeedSequence]
    samples: int

    @property
    def size(self) -> int:
        return len(self.seeds) * self.samples


def outcome_cell_sums(weights: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per-outcome weight totals.

    ``codes`` holds one entry in {0,1,2,3} per cell (the joint outcome
    ++, +-, -+, -- in that order); returns the four accumulated weights.
    Each bin accumulates in input order, matching bincount.
    """
    return np.bincount(codes, weights=weights, minlength=4).astype(np.float64)


def mc_outcome_counts(weights: Sequence[np.ndarray], codes: Sequence[np.ndarray],
                      draws: StreamDraws) -> np.ndarray:
    """Outcome counts of ``draws.samples`` inverse-CDF draws from each of
    several weighted cell lists.

    Row r has the cell weights ``weights[r]`` with outcome codes
    ``codes[r]``, and is counted as from a fresh PCG64 of
    ``draws.seeds[r]``.  The count of each code over N inverse-CDF draws
    is Multinomial(N, p), with p the code masses (``outcome_cell_sums``),
    whatever the order of the cells, so each row is counted from its four
    masses alone (``_code_counts``).  Rows with equal masses and seeds
    get equal counts.

    Rows whose streams start in one state, such as the two models of an
    emulation on one pair's seed sequence, replay one split path: the
    first such row records its splits, and a later one takes each split
    it shares with them, in order, without drawing (``_code_counts``).
    So every row gets the counts of a call of that row alone.  The paths
    live for this call only.  Returns int64 counts, one row of four per
    row of the input.
    """
    paths: dict[tuple[int, int], list] = {}
    rows = []
    for w, c, seed in zip(weights, codes, draws.seeds):
        bitgen = np.random.PCG64(seed)
        start = bitgen.state["state"]
        rows.append(_code_counts(bitgen, outcome_cell_sums(w, c).tolist(), draws.samples,
                                 paths.setdefault((start["state"], start["inc"]), [])))
    return np.array(rows, dtype=np.int64).reshape(-1, 4)


def _code_counts(bitgen: Any, masses: list[float], samples: int,
                 path: list | None = None) -> list[int]:
    """The code counts of ``samples`` inverse-CDF draws against the four
    code ``masses``, drawn from the raw bits of ``bitgen`` by dyadic
    splitting, without drawing the uniforms.

    The edges are the cumulative masses in code order, up to the last
    code of positive mass, which also takes every draw at or above its
    lower edge (the clamp against roundoff at the top).  So a code of zero
    mass gets no draw, and neither does a code past an edge at or above
    1.  A uniform u = k / 2^53 falls below an edge e exactly when
    k < ceil(e * 2^53), so the counts are those of ``samples`` uniform
    integers in [0, 2^53) in the bins that these integer edges cut.  A
    dyadic interval [lo, lo + 2^b) holding n of the integers gives
    Binomial(n, 1/2) of them to its lower half (``_ones``) and the rest to
    its upper half.  From [0, 2^53), intervals are split depth first,
    lower half first, while they hold any integer and an edge lies
    strictly inside; any other interval's count goes whole to the code of
    its first integer.  Past the rounding of the edges, the arithmetic is
    on integers only.

    ``path`` lists the splits ((lo, width, n), left) of a row counted
    before on a fresh copy of ``bitgen``'s stream, and an empty list
    takes this row's splits.  While this row's i-th split is the path's
    i-th, it has read the same raw words, so it takes that split's left
    count without drawing.  At the first split that differs, ``bitgen``,
    which must then be fresh, is advanced past the words of the splits
    taken, and the row draws from there: its counts are those it gets
    without a path.
    """
    last = max((k for k, m in enumerate(masses) if m > 0.0), default=3)
    edges = [min(math.ceil(e * _GRID), _GRID) for e in itertools.accumulate(masses[:last])]
    replay, record = (path, None) if path else ((), path)
    taken = skipped = 0  # splits of ``replay`` taken, and the raw words they read
    counts = [0] * 4
    stack = [(0, _GRID, samples)]
    while stack:
        lo, width, n = stack.pop()
        # the first edge above lo: inside the interval, or else lo's code
        code = bisect.bisect_right(edges, lo)
        if n and code < last and edges[code] < lo + width:
            split = (lo, width, n)
            if taken < len(replay) and replay[taken][0] == split:
                left = replay[taken][1]
                taken += 1
                skipped += -(-n // 64)
            else:
                if skipped:
                    bitgen.advance(skipped)
                replay, skipped = (), 0
                left = _ones(bitgen, n)
                if record is not None:
                    record.append((split, left))
            width //= 2
            stack += [(lo + width, width, n - left), (lo, width, left)]
        else:
            counts[code] += n
    return counts


def _ones(bitgen: Any, n: int) -> int:
    """Binomial(n, 1/2): the set bits among the next n raw bits of
    ``bitgen``, that is, of ceil(n / 64) words, the last one's low n % 64
    bits if n % 64.  Below 64 bits one word is drawn, up to
    ``_INT_BITS`` the words are read as one little-endian Python int,
    and above it n // 64 whole words are counted ``MC_CHUNK_WORDS`` at a
    time, then the low n % 64 bits of one more word."""
    if n < 64:
        return (bitgen.random_raw() & ((1 << n) - 1)).bit_count()
    if n <= _INT_BITS:
        words = bitgen.random_raw(-(-n // 64)).astype("<u8", copy=False)
        return (int.from_bytes(words.tobytes(), "little") & ((1 << n) - 1)).bit_count()
    words, rest = divmod(n, 64)
    ones = 0
    for start in range(0, words, MC_CHUNK_WORDS):
        chunk = bitgen.random_raw(min(MC_CHUNK_WORDS, words - start))
        # a chunk of 2^16 words has at most 2^22 set bits: uint32 sums them exactly
        ones += int(np.bitwise_count(chunk).sum(dtype=np.uint32))
    if rest:
        ones += (bitgen.random_raw() & ((1 << rest) - 1)).bit_count()
    return ones


def tableau_pivot(T: np.ndarray, pr: int, pc: int) -> None:
    """One simplex pivot on (pr, pc), in place, touching only the rows
    it changes.

    Scales the pivot row by the pivot, subtracts the pivot-column entry
    times the pivot row from every other row whose pivot-column entry is
    nonzero (one rounding per multiply and per subtract), then writes the
    exact unit column.

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
    T[rows] -= T[rows, pc][:, None] * T[pr]
    T[:, pc] = 0.0
    T[pr, pc] = 1.0


def chsh_strategy_max(n: int) -> float:
    """Exact CHSH maximum over deterministic strategies on n points.

    Covers all 2^(4n) assignments of the four response tables (two per
    side) over an n-point hidden space and all point-mass distributions,
    returning max |S|.  For Bob's tables (g_b, g_b'), let u = g_b + g_b'
    and v = g_b - g_b'; at point k, S = f_a,k u_k + f_a',k v_k, and Alice's
    tables f_a, f_a' maximise its magnitude in closed form at
    |u_k| + |v_k|.  So only Bob's 4^n table pairs are visited, one row of
    g_b against the (2^n, n) block of every g_b' at a time.  Every sum
    lies in {-4..4}, so the arithmetic is done exactly in ``int8``.
    """
    m = 1 << n
    signs = np.where(
        (np.arange(m)[:, None] >> np.arange(n)[None, :]) & 1, -1, 1
    ).astype(np.int8)
    best = 0
    for g_b in signs:
        s = np.abs(g_b + signs)                 # |u| per candidate g_b'
        s += np.abs(g_b - signs)                # + |v|
        best = max(best, int(s.max()))
    return float(best)
