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

#: Most cell edges, summed over its CDFs, that ``mc_outcome_counts``
#: counts with one comparison pass per edge and chunk rather than by
#: sorting the chunk.  On one core of a 2-vCPU x86-64 container, sorting a
#: 2^16-draw chunk took 0.42 ms and one ``np.count_nonzero(chunk < e)``
#: pass 0.019 ms (drawing the chunk: 0.28 ms), so the passes win below
#: about 22 edges; 16 stays below that break-even with a margin for
#: machines where a pass costs relatively more.
MC_COMPARE_EDGES = 16


@dataclass(frozen=True)
class StreamDraws:
    """``samples`` uniforms on [0, 1) from each generator of ``rngs`` (numpy
    ``Generator``s, or anything with a ``random(out=...)`` method), taken
    in order from where each generator stands.

    ``np.size`` of the draws is their total sample count over all the
    streams, as for an array of the draws, which is how the benchmark's
    tracer counts the samples of a call.
    """

    rngs: Sequence[Any]
    samples: int

    @property
    def size(self) -> int:
        return len(self.rngs) * self.samples


def outcome_cell_sums(weights: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Per-outcome weight totals.

    ``codes`` holds one entry in {0,1,2,3} per cell (the joint outcome
    ++, +-, -+, -- in that order); returns the four accumulated weights.
    Each bin accumulates in input order, matching bincount.
    """
    return np.bincount(codes, weights=weights, minlength=4).astype(np.float64)


def mc_outcome_counts(cums: Sequence[Sequence[np.ndarray]],
                      codes: Sequence[Sequence[np.ndarray]],
                      draws: StreamDraws) -> list[np.ndarray]:
    """Tally each of several streams of sampled outcomes against each of
    its CDFs.

    ``cums[s][r]`` is the inclusive cumulative sum of the cell weights of
    CDF r of stream s, and ``codes[s][r]`` the outcome code of each of its
    cells.  Inverse-CDF lookup sends each uniform u to the first cell with
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

    Stream s draws its ``draws.samples`` uniforms from ``draws.rngs[s]``
    ``MC_CHUNK_DRAWS`` at a time into a reused buffer, once for all its
    CDFs.  With at most ``MC_COMPARE_EDGES`` kept edges in all, each chunk
    is counted with one comparison pass per edge; with more, the chunk is
    sorted in place and every edge is located among it with one binary
    search.

    Each stream is counted whole and in order by one of
    min(available CPUs, streams) threads, the streams dealt out to them in
    turn; the calling thread counts the first share, and each thread
    reuses one 512 KiB chunk buffer and calls only numpy.  Every draw is
    therefore the one a whole draw of its stream gives, and every
    generator ends advanced by ``draws.samples``.  If the call is
    abandoned (an error in any thread, or an interrupt while the caller
    counts or waits), every thread stops at its next chunk and is joined
    before the error is raised.  Returns, per stream, int64 counts per
    outcome, one row of four per CDF.
    """
    streams = len(draws.rngs)
    parts = max(1, min(_available_cpus(), streams))
    out: list[Any] = [None] * streams
    stop = threading.Event()
    errors: list[BaseException] = []

    def count(w: int) -> None:
        try:
            buf = np.empty(min(draws.samples, MC_CHUNK_DRAWS))
            for s in range(w, streams, parts):
                out[s] = _count_stream(draws.rngs[s], buf, cums[s], codes[s],
                                       draws.samples, stop)
        except BaseException as exc:
            errors.append(exc)
            stop.set()

    threads = []
    try:
        for w in range(1, parts):
            thread = threading.Thread(target=count, args=(w,))
            thread.start()
            threads.append(thread)
        count(0)
        for thread in threads:
            thread.join()
    except BaseException:
        stop.set()
        for thread in threads:
            thread.join()
        raise
    if errors:
        raise errors[0]
    return out


def _count_stream(rng: Any, buf: np.ndarray, cums: Sequence[np.ndarray],
                  codes: Sequence[np.ndarray], size: int,
                  stop: threading.Event) -> np.ndarray:
    """The counts of the next ``size`` draws of ``rng`` against each CDF,
    drawn one chunk of ``buf`` at a time, until done or ``stop`` is set."""
    kept = [np.flatnonzero(c[1:] != c[:-1]) for c in codes]
    edges = np.concatenate([cum[k] for cum, k in zip(cums, kept)])
    below = np.zeros(edges.shape[0], dtype=np.int64)
    compare = edges.tolist() if edges.shape[0] <= MC_COMPARE_EDGES else None
    for start in range(0, size, MC_CHUNK_DRAWS):
        if stop.is_set():
            break
        chunk = buf[:min(MC_CHUNK_DRAWS, size - start)]
        rng.random(out=chunk)
        if compare is None:
            chunk.sort()
            below += np.searchsorted(chunk, edges, side="left")
        else:
            for j, edge in enumerate(compare):
                below[j] += np.count_nonzero(chunk < edge)
    totals = np.split(below, np.cumsum([k.size for k in kept])[:-1])
    out = np.empty((len(kept), 4), dtype=np.int64)
    for row, (c, k, total) in enumerate(zip(codes, kept, totals)):
        per_run = np.diff(total, prepend=0, append=size)
        out[row] = np.bincount(c[np.append(0, k + 1)], weights=per_run, minlength=4)
    return out


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
