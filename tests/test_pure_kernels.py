"""Checks on the numeric kernels in ``bellsim._kernels``, the one, pure
numpy, implementation (``BACKEND == "pure"``)."""

from __future__ import annotations

import bisect
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bellsim import _kernels, correlation, report
from bellsim.cli import main
from bellsim.scenario import generate_scenario, load_scenario, parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chsh_strategy_max_is_exactly_two(n):
    assert _kernels.chsh_strategy_max(n) == 2.0


class _Replay:
    """A draw source that hands out fixed uniforms in order, as a
    Generator's ``random(out=...)`` hands out its stream."""

    def __init__(self, uniforms):
        self._u = np.asarray(uniforms, dtype=np.float64)
        self._pos = 0

    def random(self, out):
        n = out.shape[0]
        assert self._pos + n <= self._u.shape[0], "more draws than replayed"
        out[...] = self._u[self._pos:self._pos + n]
        self._pos += n


def _counts(cum, codes, u):
    """``mc_outcome_counts`` on the fixed draws ``u``, one stream of one
    CDF."""
    u = np.asarray(u, dtype=np.float64)
    return _kernels.mc_outcome_counts(
        [[cum]], [[codes]], _kernels.StreamDraws([_Replay(u)], u.shape[0]))[0][0]


def _one_stream(cums, codes, rng, samples):
    """``mc_outcome_counts`` of one stream against the CDFs ``cums``."""
    return _kernels.mc_outcome_counts([cums], [codes],
                                      _kernels.StreamDraws([rng], samples))[0]


def test_mc_outcome_counts_top_edge_clamped():
    cum = np.array([0.5, 1.0 - 1e-12])
    codes = np.array([0, 3], dtype=np.uint8)
    u = np.array([1.0 - 1e-13])  # beyond the last cumulative value
    assert _counts(cum, codes, u)[3] == 1


def test_mc_outcome_counts_zero_weight_cells_never_sampled():
    cum = np.array([0.5, 0.5, 1.0])  # middle cell has zero mass
    codes = np.array([0, 1, 2], dtype=np.uint8)
    u = np.linspace(0.0, 0.999, 1001)
    assert _counts(cum, codes, u)[1] == 0


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
    counts = _counts(cum, codes, u)
    assert counts.dtype == np.int64
    assert counts.tolist() == _scalar_mc_counts(cum, codes, u)
    assert int(counts.sum()) == u.shape[0]


def _random_cdf(rng):
    """A random CDF with leading, interior and trailing zero-weight runs,
    and outcome codes for its cells."""
    cells = int(rng.integers(2, 300))
    weights = rng.random(cells)
    weights[rng.random(cells) < 0.2] = 0.0
    lead, trail = rng.integers(0, 4, size=2)
    weights[:lead] = 0.0
    weights[cells - trail:] = 0.0
    if weights.sum() == 0.0:
        weights[cells // 2] = 1.0
    cum = np.cumsum(weights / weights.sum())
    return cum, rng.integers(0, 4, size=cells).astype(np.uint8)


@pytest.mark.parametrize("seed", range(40))
def test_mc_outcome_counts_equal_scalar_lookup(seed):
    """Random CDFs with leading, interior and trailing zero-weight runs."""
    rng = np.random.default_rng(seed)
    cum, codes = _random_cdf(rng)
    _check_mc_counts(cum, codes, _edge_heavy_draws(rng, cum, 2000))


def test_mc_outcome_counts_single_cell():
    rng = np.random.default_rng(7)
    cum = np.array([1.0])
    for code in range(4):
        codes = np.array([code], dtype=np.uint8)
        u = _edge_heavy_draws(rng, cum, 500)
        _check_mc_counts(cum, codes, u)
        assert _counts(cum, codes, u)[code] == u.shape[0]


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
    assert _counts(cum, codes, u).tolist() == [2, 1, 0, 1]
    _check_mc_counts(cum, codes, u)


@pytest.mark.parametrize("chunk", [1, 3])
def test_mc_outcome_counts_fixed_draws_in_small_chunks(chunk, monkeypatch):
    """Edge-heavy fixed draws split into chunks of one and of three draws,
    so that draws on the edges straddle many chunk boundaries."""
    monkeypatch.setattr(_kernels, "MC_CHUNK_DRAWS", chunk)
    rng = np.random.default_rng(9)
    for _ in range(5):
        cum, codes = _random_cdf(rng)
        _check_mc_counts(cum, codes, _edge_heavy_draws(rng, cum, 300))
    for top in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
        cum = np.array([0.0, 0.25, 0.25, 0.5, top, top])
        codes = np.array([0, 1, 2, 3, 0, 2], dtype=np.uint8)
        _check_mc_counts(cum, codes, np.concatenate(
            [_edge_heavy_draws(rng, cum, 100), [top, 1.0 - 2.0 ** -53]]))


def _stream(seed, k):
    """The generator of setting pair k under Monte Carlo seed ``seed``."""
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(k,))))


_C = _kernels.MC_CHUNK_DRAWS


@pytest.mark.parametrize("samples", [1, _C - 1, _C, _C + 1, 3 * _C + 7])
@pytest.mark.parametrize("top", [1.0 - 1e-12, 1.0 + 2.0 ** -52])
def test_mc_outcome_counts_chunked_stream_equals_whole_draw(samples, top):
    """Chunked draws from a pair's stream count the same as one whole-array
    draw from the same seed looked up per draw, across chunk boundaries,
    on a CDF with leading and trailing zero-weight cells."""
    rng = np.random.default_rng(samples)
    weights = np.concatenate([[0.0, 0.0], rng.random(37), [0.0, 0.0, 0.0]])
    weights[rng.random(weights.size) < 0.2] = 0.0
    cum = np.minimum(np.cumsum(weights / weights.sum()), top)
    cum[-3:] = top  # the trailing zero-weight cells end at the top edge
    codes = rng.integers(0, 4, size=cum.size).astype(np.uint8)
    for k in range(4):
        counts = _one_stream([cum], [codes], _stream(11, k), samples)[0]
        u = _stream(11, k).random(samples)
        cells = np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)
        want = np.bincount(codes[cells], minlength=4)
        assert counts.tolist() == want.tolist()


def _segment_cdf():
    """A CDF with leading and trailing zero-weight cells, its top edge at
    1 - 1e-12, and outcome codes for its cells."""
    rng = np.random.default_rng(12)
    weights = np.concatenate([[0.0], rng.random(29), [0.0, 0.0]])
    cum = np.minimum(np.cumsum(weights / weights.sum()), 1.0 - 1e-12)
    cum[-3:] = 1.0 - 1e-12
    return cum, rng.integers(0, 4, size=cum.size).astype(np.uint8)


def _stream_counts(cum, codes, rngs, samples):
    """``mc_outcome_counts`` of the streams ``rngs``, each against the one
    CDF ``cum``, as rows of four counts."""
    counts = _kernels.mc_outcome_counts([[cum]] * len(rngs), [[codes]] * len(rngs),
                                        _kernels.StreamDraws(rngs, samples))
    return [row[0].tolist() for row in counts]


def _counting_threads(monkeypatch):
    """Make ``mc_outcome_counts`` record each thread it starts."""
    started = []

    class Thread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(_kernels, "threading",
                        SimpleNamespace(Event=threading.Event, Thread=Thread))
    return started


@pytest.mark.parametrize("samples",
                         [0, 1, _C - 1, _C, _C + 1, 3 * _C + 7, 7 * _C, 8 * _C + 3])
@pytest.mark.parametrize("cpus", [1, 2, 3, 5, 8])
def test_mc_outcome_counts_segments_equal_whole_draw(samples, cpus, monkeypatch):
    """The four pair streams of one call, each a segment of the call's
    draws counted whole on one of min(CPUs, 4) threads, give the counts of
    a whole draw of each stream, and leave every generator where one
    whole draw would."""
    monkeypatch.setattr(_kernels, "_available_cpus", lambda: cpus)
    started = _counting_threads(monkeypatch)
    cum, codes = _segment_cdf()
    rngs = [_stream(13, k) for k in range(4)]
    counts = _stream_counts(cum, codes, rngs, samples)
    for k, (rng, row) in enumerate(zip(rngs, counts)):
        reference = _stream(13, k)
        u = reference.random(samples)
        cells = np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)
        assert row == np.bincount(codes[cells], minlength=4).tolist()
        assert rng.random() == reference.random()
    assert len(started) == min(cpus, 4) - 1


def test_mc_outcome_counts_many_streams_under_fast_thread_switches(monkeypatch):
    """Twelve streams on twelve threads, more than there are cores, with
    the interpreter switching threads every few microseconds: every
    stream still gets its own whole draw's counts."""
    monkeypatch.setattr(_kernels, "_available_cpus", lambda: 12)
    started = _counting_threads(monkeypatch)
    cum, codes = _segment_cdf()
    samples = 2 * _C + 5
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        counts = _stream_counts(cum, codes, [_stream(23, k) for k in range(12)],
                                samples)
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 11 and threading.active_count() == before
    for k, row in enumerate(counts):
        assert row == _whole_draw_counts(cum, codes, _stream(23, k).random(samples))


def test_mc_outcome_counts_buffered_half_draw_keeps_one_segment(monkeypatch):
    """A PCG64 that holds the unused half of a 64-bit output, after a
    32-bit draw, is counted from where it stands: its doubles are those of
    a whole draw, and the next 32-bit draw is the held half."""
    monkeypatch.setattr(_kernels, "_available_cpus", lambda: 3)
    cum, codes = _segment_cdf()
    rngs, references = ([_stream(5, k) for k in range(4)] for _ in range(2))
    for gen in rngs + references:
        gen.integers(2**32, dtype=np.uint32)
    counts = _stream_counts(cum, codes, rngs, 3 * _C)
    for rng, reference, row in zip(rngs, references, counts):
        u = reference.random(3 * _C)
        cells = np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)
        assert row == np.bincount(codes[cells], minlength=4).tolist()
        assert (rng.integers(2**32, dtype=np.uint32)
                == reference.integers(2**32, dtype=np.uint32))


class _FailingRng:
    """Draws from ``gen`` and raises ``exc`` on its call number ``after``
    of ``random`` (never, for 0), counting its calls."""

    def __init__(self, gen, after, exc):
        self._gen, self._after, self._exc = gen, after, exc
        self.calls = 0

    def random(self, out):
        self.calls += 1
        if self.calls == self._after:
            raise self._exc("failed draw")
        self._gen.random(out=out)


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_mc_outcome_counts_worker_error_reaches_the_caller(exc, monkeypatch):
    """A draw that fails partway through stream 1, on a worker thread, is
    raised in the caller once every thread is joined."""
    monkeypatch.setattr(_kernels, "_available_cpus", lambda: 3)
    failing = _FailingRng(_stream(3, 1), 2, exc)
    rngs = [_stream(3, 0), failing, _stream(3, 2), _stream(3, 3)]
    cum, codes = _segment_cdf()
    before = threading.active_count()
    with pytest.raises(exc, match="failed draw"):
        _stream_counts(cum, codes, rngs, 9 * _C)
    assert failing.calls == 2
    assert threading.active_count() == before


@pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
def test_mc_outcome_counts_caller_error_stops_the_workers(exc, monkeypatch):
    """A draw that fails partway through stream 0, in the calling thread,
    stops the other streams at their next chunk and is raised once every
    thread is joined; the caller's second stream is never drawn."""
    monkeypatch.setattr(_kernels, "_available_cpus", lambda: 3)
    rngs = ([_FailingRng(_stream(3, 0), 2, exc)]
            + [_FailingRng(_stream(3, k), 0, exc) for k in (1, 2, 3)])
    cum, codes = _segment_cdf()
    before = threading.active_count()
    with pytest.raises(exc, match="failed draw"):
        _stream_counts(cum, codes, rngs, 64 * _C)
    assert threading.active_count() == before
    assert all(rng.calls < 64 for rng in rngs[1:3])
    assert rngs[3].calls == 0


class _HeldRng:
    """Draws from ``gen``, holding its second call of ``random`` until the
    first event in ``stops`` is set."""

    def __init__(self, gen, stops):
        self._gen, self._stops = gen, stops
        self.calls = 0

    def random(self, out):
        self.calls += 1
        if self.calls == 2:
            self._stops[0].wait(10)
        self._gen.random(out=out)


def test_mc_outcome_counts_interrupt_while_joining_stops_the_workers(
        monkeypatch):
    """An interrupt that reaches the caller while it waits for the other
    streams (a signal handler raising inside ``join``) stops them at their
    next chunk and is raised once every thread is joined."""
    monkeypatch.setattr(_kernels, "_available_cpus", lambda: 3)
    stops, interrupted = [], []

    class Event(threading.Event):
        def __init__(self):
            super().__init__()
            stops.append(self)

    class Thread(threading.Thread):
        def join(self, timeout=None):
            if not interrupted:
                interrupted.append(self)
                raise KeyboardInterrupt("interrupted join")
            super().join(timeout)

    monkeypatch.setattr(_kernels, "threading",
                        SimpleNamespace(Event=Event, Thread=Thread))
    workers = [_HeldRng(_stream(3, k), stops) for k in (1, 2)]
    rngs = [_stream(3, 0), *workers, _stream(3, 3)]
    cum, codes = _segment_cdf()
    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt, match="interrupted join"):
        _stream_counts(cum, codes, rngs, 12 * _C)
    assert threading.active_count() == before
    assert all(worker.calls <= 2 for worker in workers)


def _whole_draw_counts(cum, codes, u):
    """Counts of a per-draw lookup of the draws ``u``, clamped to the
    last cell."""
    cells = np.minimum(np.searchsorted(cum, u, side="right"), cum.size - 1)
    return np.bincount(codes[cells], minlength=4).tolist()


def _run_cdf(rng, edges, top):
    """A CDF whose cells form ``edges + 1`` runs of one to three cells of
    the same code, neighbouring runs differing, so ``edges`` edges are left
    once same-code edges are dropped.  When there are at least two runs
    the first has no weight (its edge is at 0), and with three or more so
    has one interior run (two equal edges).  The top edge is ``top``."""
    run_codes = [int(rng.integers(4))]
    for _ in range(edges):
        run_codes.append((run_codes[-1] + int(rng.integers(1, 4))) % 4)
    sizes = rng.integers(1, 4, size=edges + 1)
    weights = np.split(rng.random(int(sizes.sum())), np.cumsum(sizes)[:-1])
    if edges >= 1:
        weights[0][:] = 0.0
    if edges >= 2:
        weights[edges // 2 + 1][:] = 0.0
    weights = np.concatenate(weights)
    cum = np.minimum(np.cumsum(weights / weights.sum()), top)
    cum[-1] = top
    return cum, np.repeat(run_codes, sizes).astype(np.uint8)


def _kept_edges(codes):
    return int(np.count_nonzero(codes[1:] != codes[:-1]))


class _Recording:
    """Draws from ``gen``, keeping the last buffer it filled."""

    def __init__(self, gen):
        self._gen = gen
        self.out = None

    def random(self, out):
        self._gen.random(out=out)
        self.out = out


@pytest.mark.parametrize("cpus", [1, 2, 5])
@pytest.mark.parametrize("extra", [0, 1], ids=["compare-edges", "compare-edges-plus-one"])
def test_mc_outcome_counts_paths_agree_at_the_threshold(extra, cpus, monkeypatch):
    """At exactly ``MC_COMPARE_EDGES`` kept edges a chunk is counted by
    comparison passes and left in draw order, at one more it is sorted;
    either path, forced on the same CDFs, gives each stream the whole
    draw's counts, on one thread and on several."""
    monkeypatch.setattr(_kernels, "_available_cpus", lambda: cpus)
    edges = _kernels.MC_COMPARE_EDGES + extra
    rng = np.random.default_rng(20 + extra)
    samples = 3 * _C + 7
    cdfs = [_run_cdf(rng, edges, top) for top in (1.0 - 1e-12, 1.0 + 2.0 ** -52)]
    cums, codes = [[cum] for cum, _ in cdfs], [[c] for _, c in cdfs]
    assert all(_kept_edges(c) == edges for _, c in cdfs)
    want = [[_whole_draw_counts(cum, c, _stream(17, k).random(samples))]
            for k, (cum, c) in enumerate(cdfs)]
    sources = [_Recording(_stream(17, k)) for k in range(2)]
    counts = _kernels.mc_outcome_counts(cums, codes,
                                        _kernels.StreamDraws(sources, samples))
    assert [row.tolist() for row in counts] == want
    for source in sources:
        assert bool(np.all(source.out[1:] >= source.out[:-1])) == (extra == 1)
    for threshold in (edges - 1, edges):
        monkeypatch.setattr(_kernels, "MC_COMPARE_EDGES", threshold)
        rngs, references = ([_stream(17, k) for k in range(2)] for _ in range(2))
        counts = _kernels.mc_outcome_counts(cums, codes,
                                            _kernels.StreamDraws(rngs, samples))
        assert [row.tolist() for row in counts] == want
        for rng_k, reference in zip(rngs, references):
            reference.random(samples)
            assert rng_k.random() == reference.random()


def _edge_case_cdfs(rng):
    """CDFs with merged same-code runs, zero-weight cells, an edge at 0,
    top edges below, at and above 1, all cells of one code, and a single
    cell."""
    cdfs = [_run_cdf(rng, edges, top)
            for edges in (1, 2, 5, 12)
            for top in (1.0 - 1e-12, 1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52,
                        1.0 + 1e-12)]
    cdfs.append((np.array([0.0, 0.2, 0.2, 0.5, 1.0]),
                 np.array([2, 2, 2, 2, 2], dtype=np.uint8)))
    cdfs += [(np.array([top]), np.array([code], dtype=np.uint8))
             for code, top in enumerate((1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0))]
    return cdfs


@pytest.mark.parametrize("threshold", [-1, 10**6], ids=["sort", "compare"])
def test_mc_outcome_counts_edge_case_cdfs_on_either_path(threshold, monkeypatch):
    """Edge-heavy fixed draws, including draws on every edge, counted on
    the forced sort path and the forced comparison path."""
    monkeypatch.setattr(_kernels, "MC_COMPARE_EDGES", threshold)
    rng = np.random.default_rng(21)
    for cum, codes in _edge_case_cdfs(rng):
        u = _edge_heavy_draws(rng, cum, 300)
        _check_mc_counts(cum, codes, np.concatenate([u, [1.0 - 2.0 ** -53]]))


@pytest.mark.parametrize("cpus", [1, 2, 5])
@pytest.mark.parametrize("sizes", [(3, 5), (1, 4, 9), (3, 40), (0, 2, 30)],
                         ids=lambda sizes: "-".join(map(str, sizes)))
def test_mc_outcome_counts_of_several_cdfs_equal_separate_counts(sizes, cpus,
                                                                 monkeypatch):
    """Two or three CDFs counted from each of two streams, on the
    comparison path (at most ``MC_COMPARE_EDGES`` edges in all) or the
    sort path, give each CDF the counts of its stream counted alone, and
    leave every generator where one whole draw would."""
    monkeypatch.setattr(_kernels, "_available_cpus", lambda: cpus)
    rng = np.random.default_rng(22)
    cdfs = [_run_cdf(rng, edges, top)
            for edges, top in zip(sizes, (1.0 - 1e-12, 1.0, 1.0 + 2.0 ** -52))]
    cums, codes = [cum for cum, _ in cdfs], [c for _, c in cdfs]
    samples = 3 * _C + 7
    rngs, references = ([_stream(19, k) for k in range(2)] for _ in range(2))
    together = _kernels.mc_outcome_counts([cums] * 2, [codes] * 2,
                                          _kernels.StreamDraws(rngs, samples))
    for k, (rows, rng_k, reference) in enumerate(zip(together, rngs, references)):
        assert rows.dtype == np.int64 and rows.shape == (len(cdfs), 4)
        u = reference.random(samples)
        for row, (cum, c) in zip(rows, cdfs):
            alone = _one_stream([cum], [c], _stream(19, k), samples)[0]
            assert row.tolist() == alone.tolist() == _whole_draw_counts(cum, c, u)
        assert rng_k.random() == reference.random()


def test_monte_carlo_report_calls_the_kernel_once_per_report_from_the_caller(
        monkeypatch):
    """A tracer that wraps ``correlation.mc_outcome_counts`` sees one call
    per report, made from the calling thread, with the four pairs' sample
    count as ``np.size`` of its draws, also for an emulation report, which
    counts the comparison model from the same call."""
    calls = []
    real = correlation.mc_outcome_counts

    def traced(cum, codes, draws):
        calls.append((threading.current_thread(), int(np.size(draws))))
        return real(cum, codes, draws)

    monkeypatch.setattr(correlation, "mc_outcome_counts", traced)
    scenario = load_scenario(SCENARIOS / "joint-composite.scenario")
    samples = 3 * _C + 7
    correlation.monte_carlo_report(scenario.model, scenario.distributions,
                                   scenario.settings, samples, seed=5)
    assert calls == [(threading.main_thread(), 4 * samples)]
    # an emulation run draws each pair's stream once for both models
    calls.clear()
    doc = generate_scenario("stochastic-equivalent",
                            {"cards": (8,) * 5, "estimator": "monte-carlo",
                             "samples": samples, "mc_seed": 5})
    report.run_scenario(parse_scenario(doc))
    assert calls == [(threading.main_thread(), 4 * samples)]


def test_monte_carlo_report_bytes_do_not_depend_on_the_cpu_count(
        monkeypatch, capsys, tmp_path):
    """The bundled joint-composite scenario and a generated 8^5 emulation
    give byte-identical reports whether their four pair streams are
    counted on one thread or spread over up to four."""
    emulation = tmp_path / "emulation.scenario"
    assert main(["generate", "stochastic-equivalent", "--cards", "8,8,8,8,8",
                 "--seed", "3", "--estimator", "monte-carlo",
                 "--samples", str(3 * _C + 7), "-o", str(emulation)]) == 0
    for path in (SCENARIOS / "joint-composite.scenario", emulation):
        reports = set()
        for cpus in (1, 2, 3, 4, 8):
            monkeypatch.setattr(_kernels, "_available_cpus", lambda: cpus)
            assert main(["run", str(path)]) == 0
            reports.add(capsys.readouterr().out)
        assert len(reports) == 1


def test_tableau_pivot_column_is_exact_unit():
    rng = np.random.default_rng(55)
    T = rng.normal(size=(6, 9))
    T[3, 4] = 2.5
    _kernels.tableau_pivot(T, 3, 4)
    col = T[:, 4]
    assert col[3] == 1.0
    assert np.all(col[np.arange(6) != 3] == 0.0)


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
def chunk_cells(request):
    """Kept from when the pivot updated its rows in chunks of this many
    cells, so that the tests keep their ids.  The pivot now updates all
    its rows in one step, so every id runs the same pivot."""


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
    """257 x 258 is the simplex state of a block of an 8^5 family, whose
    entering column, the pivot column, is column 256."""
    rng = np.random.default_rng(99)
    T = rng.normal(size=(257, 258))
    pr, pc = 100, 256
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
