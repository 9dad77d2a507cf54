"""The numeric kernels of the report path, in numpy.

Report bytes depend on the floating-point evaluation order of these
kernels, not just on their formulas:

* weight totals accumulate in input order (``np.bincount``), never by a
  pairwise or SIMD-reassociated sum, which would round differently and
  change the correlations a report prints;
* elementwise array operations (one rounding per element) use numpy;
* integer results (sample counts, strategy maxima over small integers) are
  exact by construction.

Callers bind each kernel by name (``from ._kernels import ...``).
``BACKEND`` names this implementation; it stays because the benchmark
harness (``perfbench/run.py``) reads it into its environment record.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

BACKEND = "pure"

#: Uniforms that ``mc_outcome_counts`` draws and counts per step (512 KiB
#: of doubles), so that a count's memory does not grow with its samples.
MC_CHUNK_DRAWS = 1 << 16

#: Most segments ``mc_outcome_counts`` cuts one pair's draws into.  The
#: CPU count it reads is the affinity mask, which ignores a CPU quota, so
#: a process may get more segments than CPUs to run them.  Forced on a
#: 2-CPU machine, the ``monte-carlo`` benchmark pass took 0.39 s in one
#: segment, 0.25 s in 2, 0.29 s in 4, 0.32 s in 8, 0.43 s in 16 and
#: 0.49 s in 32, and each segment holds one more chunk buffer.
MC_MAX_SEGMENTS = 4

#: Most cell edges, summed over its CDFs, that ``mc_outcome_counts``
#: counts with one comparison pass per edge and chunk rather than by
#: sorting the chunk.  On one core of a 2-vCPU x86-64 container, sorting a
#: 2^16-draw chunk took 0.42 ms and one ``np.count_nonzero(chunk < e)``
#: pass 0.019 ms (drawing the chunk: 0.28 ms), so the passes win below
#: about 22 edges; 16 stays below that break-even with a margin for
#: machines where a pass costs relatively more.
MC_COMPARE_EDGES = 16


@dataclass(frozen=True)
class UniformDraws:
    """``size`` uniforms on [0, 1), taken in order from ``rng`` (a numpy
    ``Generator``, or anything with a ``random(out=...)`` method).

    ``mc_outcome_counts`` draws the stream once, whatever the number of
    CDFs it counts it against, and may count it in contiguous segments,
    one per available CPU, each drawn from a copy of a PCG64 ``rng``'s bit
    generator jumped ahead to its first draw; the draws, and every draw
    ``rng`` gives afterwards, are those of one whole draw.

    ``np.size`` of the stream is its sample count, as for an array of the
    draws, which is how the benchmark's tracer counts the samples of a call.
    """

    rng: Any
    size: int


def outcome_cell_sums(weights: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per-outcome weight totals.

    ``codes`` holds one entry in {0,1,2,3} per cell (the joint outcome
    ++, +-, -+, -- in that order); returns the four accumulated weights.
    Each bin accumulates in input order, matching bincount.
    """
    return np.bincount(codes, weights=weights, minlength=4).astype(np.float64)


def mc_outcome_counts(cums: Sequence[np.ndarray], codes: Sequence[np.ndarray],
                      draws: UniformDraws) -> np.ndarray:
    """Tally one stream of sampled outcomes against each of several CDFs.

    ``cums[r]`` is the inclusive cumulative sum of the cell weights of
    CDF r and ``codes[r]`` the outcome code of each of its cells.
    Inverse-CDF lookup sends each uniform u to the first cell with
    cum > u, clamped to the last cell against roundoff at the top, so
    cell i receives exactly the draws with cum[i-1] <= u < cum[i] and the
    last cell every draw with u >= cum[-2].  Rather than look up each
    draw, the number of draws below each edge cum[i] is counted, summed
    over the draws and differenced, which is the size of that same
    partition.  An edge between two cells of the same code is dropped
    first: the differences of the edges on either side of it telescope,
    so the run of cells between two kept edges gets the sum of their
    counts.  Counts are integers and add up over any split of the draws,
    so the result equals the per-draw lookup exactly.

    The draws are taken ``MC_CHUNK_DRAWS`` at a time into a reused buffer,
    once for all the CDFs.  With at most ``MC_COMPARE_EDGES`` kept edges
    in all, each chunk is counted with one comparison pass per edge;
    with more, the chunk is sorted in place and every edge is located
    among it with one binary search.

    The ``draws.size`` draws are cut into one contiguous segment of whole
    chunks per available CPU (at most one per chunk, and at most
    ``MC_MAX_SEGMENTS``).  Segment w draws from a copy of the stream's bit
    generator jumped ahead to the segment's first draw with ``advance``,
    so every draw is the one the whole stream would give at that
    position.  The calling thread counts segment 0 from ``draws.rng``
    itself and one thread per further segment counts the rest; every
    generator and buffer is made before any thread starts, and the
    threads call only numpy.  ``draws.rng`` ends advanced by
    ``draws.size``, as after one whole draw.  A source without a PCG64
    ``bit_generator`` is counted in one segment (Philox's ``advance``,
    for one, does not count draws), and so is a PCG64 that holds the
    unused half of a 64-bit output from a 32-bit draw, which ``advance``
    would drop.  If the call is abandoned (an error in any thread, or an
    interrupt while the caller counts or waits), every thread stops at
    its next chunk and is joined before the error is raised.  Memory is
    one 512 KiB chunk buffer per segment, whatever ``draws.size``.
    Returns int64 counts per outcome, one row of four per CDF.
    """
    kept = [np.flatnonzero(c[1:] != c[:-1]) for c in codes]
    edges = np.concatenate([cum[k] for cum, k in zip(cums, kept)])
    chunks = -(-draws.size // MC_CHUNK_DRAWS)
    bit_generator = getattr(draws.rng, "bit_generator", None)
    parts = 1
    if (isinstance(bit_generator, np.random.PCG64)
            and not bit_generator.state["has_uint32"]):
        parts = max(1, min(_available_cpus(), MC_MAX_SEGMENTS, chunks))
    bounds = [min(draws.size, (w * chunks // parts) * MC_CHUNK_DRAWS)
              for w in range(parts + 1)]
    rngs = [draws.rng] + [_jumped(bit_generator, start) for start in bounds[1:-1]]
    bufs = [np.empty(min(end - start, MC_CHUNK_DRAWS))
            for start, end in zip(bounds, bounds[1:])]
    below = np.zeros((parts, edges.shape[0]), dtype=np.int64)
    stop = threading.Event()
    errors: list[BaseException] = []

    def count(w: int) -> None:
        try:
            _count_segment(rngs[w], bufs[w], edges, bounds[w + 1] - bounds[w],
                           below[w], stop)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    threads = []
    try:
        for w in range(1, parts):
            thread = threading.Thread(target=count, args=(w,))
            thread.start()
            threads.append(thread)
        _count_segment(rngs[0], bufs[0], edges, bounds[1], below[0], stop)
        for thread in threads:
            thread.join()
    except BaseException:
        stop.set()
        for thread in threads:
            thread.join()
        raise
    if errors:
        raise errors[0]
    if parts > 1:
        bit_generator.advance(draws.size - bounds[1])
    totals = np.split(below.sum(axis=0), np.cumsum([k.size for k in kept])[:-1])
    out = np.empty((len(kept), 4), dtype=np.int64)
    for row, (c, k, total) in enumerate(zip(codes, kept, totals)):
        per_run = np.diff(total, prepend=0, append=draws.size)
        out[row] = np.bincount(c[np.append(0, k + 1)], weights=per_run, minlength=4)
    return out


def _count_segment(rng: Any, buf: np.ndarray, edges: np.ndarray, size: int,
                   below: np.ndarray, stop: threading.Event) -> None:
    """Add to ``below`` the draws under each edge among the next ``size``
    draws of ``rng``, one chunk of ``buf`` at a time, until done or
    ``stop`` is set."""
    compare = edges.tolist() if edges.shape[0] <= MC_COMPARE_EDGES else None
    for start in range(0, size, MC_CHUNK_DRAWS):
        if stop.is_set():
            return
        chunk = buf[:min(MC_CHUNK_DRAWS, size - start)]
        rng.random(out=chunk)
        if compare is None:
            chunk.sort()
            below += np.searchsorted(chunk, edges, side="left")
        else:
            for j, edge in enumerate(compare):
                below[j] += np.count_nonzero(chunk < edge)


def _jumped(bit_generator: Any, delta: int) -> np.random.Generator:
    """A generator on a copy of ``bit_generator`` advanced by ``delta``
    draws."""
    copy = type(bit_generator)()
    copy.state = bit_generator.state
    copy.advance(delta)
    return np.random.Generator(copy)


def _available_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


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
