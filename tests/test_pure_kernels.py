"""Checks on the numeric kernels in ``bellsim._kernels``, the one, pure
numpy, implementation (``BACKEND == "pure"``)."""

from __future__ import annotations

import ast
import bisect
import itertools
import math
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategy_reference import int8_strategy_max, loop_strategy_max

from bellsim import _kernels, correlation, report
from bellsim.scenario import generate_scenario, load_scenario, parse_scenario

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chsh_strategy_max_is_exactly_two(n):
    assert _kernels.chsh_strategy_max(n) == 2.0


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_chsh_strategy_max_matches_the_int8_enumeration(n):
    assert _kernels.chsh_strategy_max(n) == int8_strategy_max(n)


@pytest.mark.parametrize("n", [1, 2])
def test_chsh_strategy_max_matches_every_point_sum(n):
    assert _kernels.chsh_strategy_max(n) == loop_strategy_max(n)


def _stream(seed, k):
    """The seed sequence of setting pair k under Monte Carlo seed ``seed``."""
    return np.random.SeedSequence(entropy=seed, spawn_key=(k,))


def _counts(weights, codes, seed, samples):
    """``mc_outcome_counts`` of one row."""
    return _kernels.mc_outcome_counts(
        [np.asarray(weights, dtype=np.float64)], [np.asarray(codes, dtype=np.uint8)],
        _kernels.StreamDraws([seed], samples))[0].tolist()


def _reference_counts(weights, codes, seed, samples):
    """Scalar reference for one row.  The code masses are summed cell by
    cell in input order.  A dyadic block of integers k in [0, 2^53) is
    split, by the popcount of its next raw bits, exactly when an
    inverse-CDF lookup of u = k / 2^53 (the first code whose cumulative
    mass exceeds u, clamped to the last code of positive mass) sends its
    first and last integer to different codes; an unsplit block's count
    goes to the code of its first integer.  Each block's words are drawn
    whole, and counted one Python int at a time."""
    masses = [0.0] * 4
    for w, c in zip(np.asarray(weights).tolist(), np.asarray(codes).tolist()):
        masses[c] += w
    cum = list(itertools.accumulate(masses))
    last = max((c for c in range(4) if masses[c] > 0.0), default=3)
    bitgen = np.random.PCG64(seed)
    counts = [0] * 4

    def lookup(k):
        return min(bisect.bisect_right(cum, k * 2.0 ** -53), last)

    def visit(lo, bits, n):
        if n and lookup(lo) != lookup(lo + (1 << bits) - 1):
            left = sum(w.bit_count() for w in bitgen.random_raw(n // 64).tolist())
            if n % 64:
                left += (bitgen.random_raw() % (1 << n % 64)).bit_count()
            visit(lo, bits - 1, left)
            visit(lo + (1 << (bits - 1)), bits - 1, n - left)
        else:
            counts[lookup(lo)] += n

    visit(0, 53, samples)
    return counts


class _Bits:
    """A bit source whose every raw word is ``word``: 0 sends every draw
    to the upper half of each split, to the top integer 2^53 - 1, and
    2^64 - 1 sends every draw to the lower half, to 0."""

    def __init__(self, word):
        self._word = word

    def random_raw(self, size=None):
        if size is None:
            return self._word
        return np.full(size, self._word, dtype=np.uint64)


_TOP, _BOTTOM = _Bits(0), _Bits(2**64 - 1)


def _random_cdf(rng):
    """Random cell weights with leading, interior and trailing zero-weight
    runs, normalised, and outcome codes for the cells."""
    cells = int(rng.integers(2, 300))
    weights = rng.random(cells)
    weights[rng.random(cells) < 0.2] = 0.0
    lead, trail = rng.integers(0, 4, size=2)
    weights[:lead] = 0.0
    weights[cells - trail:] = 0.0
    if weights.sum() == 0.0:
        weights[cells // 2] = 1.0
    return weights / weights.sum(), rng.integers(0, 4, size=cells).astype(np.uint8)


def test_mc_outcome_counts_top_edge_clamped():
    """Draws at the top integer, above masses that sum to 1 - 1e-12, go
    to the last code of positive mass, and a code past an edge at or
    above 1 gets none, whatever its mass."""
    n = 1001
    assert _kernels._code_counts(_TOP, [0.5, 0.0, 0.0, 0.5 - 1e-12], n) == [0, 0, 0, n]
    assert _kernels._code_counts(_TOP, [0.5, 0.5 - 1e-12, 0.0, 0.0], n) == [0, n, 0, 0]
    assert _kernels._code_counts(_TOP, [0.5, 0.5 + 1e-12, 0.25, 0.0], n) == [0, n, 0, 0]
    assert _kernels._code_counts(_TOP, [1.0, 0.0, 0.0, 1e-3], n) == [n, 0, 0, 0]
    counts = _counts([0.5, 0.5 + 1e-12, 0.25], [0, 1, 2], _stream(1, 0), n)
    assert counts[2] == counts[3] == 0 and sum(counts) == n


def test_mc_outcome_counts_zero_weight_cells_never_sampled():
    weights, codes = [0.5, 0.0, 0.5, 0.0], [0, 1, 2, 3]  # codes 1 and 3 have no mass
    for bits in (_TOP, _BOTTOM):
        counts = _kernels._code_counts(bits, [0.5, 0.0, 0.5, 0.0], 1001)
        assert counts[1] == counts[3] == 0
    for k in range(20):
        counts = _counts(weights, codes, _stream(2, k), 1001)
        assert counts[1] == counts[3] == 0 and sum(counts) == 1001


@pytest.mark.parametrize("seed", range(40))
def test_mc_outcome_counts_equal_scalar_lookup(seed):
    """Random cells with leading, interior and trailing zero-weight runs
    count as the scalar reference does."""
    rng = np.random.default_rng(seed)
    weights, codes = _random_cdf(rng)
    samples = int(rng.integers(1, 5000))
    want = _reference_counts(weights, codes, _stream(seed, 0), samples)
    assert _counts(weights, codes, _stream(seed, 0), samples) == want
    assert sum(want) == samples


def test_mc_outcome_counts_single_cell():
    for code in range(4):
        for top in (1.0 - 1e-12, 1.0, 1.0 + 1e-12):
            for bits in (_TOP, _BOTTOM):
                masses = [0.0] * 4
                masses[code] = top
                assert _kernels._code_counts(bits, masses, 500)[code] == 500
            assert _counts([top], [code], _stream(3, code), 500)[code] == 500


def test_mc_outcome_counts_top_below_and_above_one():
    """Masses that sum to just below, at and just above 1 count as the
    scalar reference does, every draw counted once."""
    codes = [2, 0, 3, 1]
    for k, top in enumerate((1.0 - 1e-12, 1.0 - 2.0 ** -53, 1.0, 1.0 + 2.0 ** -52,
                             1.0 + 1e-12)):
        weights = [0.25, 0.25, 0.25, top - 0.75]
        want = _reference_counts(weights, codes, _stream(8, k), 3001)
        assert _counts(weights, codes, _stream(8, k), 3001) == want
        assert sum(want) == 3001


class _Path:
    """A bit source for single draws: word i sends the draw to the lower
    half of the i-th split when bit i of ``path`` (from the top) is 0."""

    def __init__(self, path, depth):
        self._bits = [1 - (path >> (depth - 1 - i) & 1) for i in range(depth)]

    def random_raw(self, size=None):
        assert size is None
        return self._bits.pop(0) if self._bits else 1


def test_mc_outcome_counts_draws_on_every_edge():
    """A single draw steered into each eighth of [0, 1), with edges at 0
    and twice at 5/8, goes to the code of positive mass whose cumulative
    mass first exceeds the eighth's first point: a draw on an edge goes
    to the next code of positive mass."""
    masses = [0.0, 0.625, 0.0, 0.375]
    cum = list(itertools.accumulate(masses))
    for eighth in range(8):
        want = [0] * 4
        want[min(bisect.bisect_right(cum, eighth / 8), 3)] = 1
        assert _kernels._code_counts(_Path(eighth, 3), masses, 1) == want


class _Exhausted(Exception):
    """A scripted bit source has no word left."""


class _Script:
    """A bit source that hands out the words of ``words`` in order."""

    def __init__(self, words):
        self._words = list(words)

    def random_raw(self, size=None):
        assert size is None, "a few draws take single words"
        if not self._words:
            raise _Exhausted
        return self._words.pop(0)


def _enumerated_law(masses, n):
    """The law of ``_code_counts`` of n <= 3 draws, from every script of
    words whose low n bits, the only ones a split of at most n draws
    reads, take each of their 2^n values."""
    law = {}
    scripts = [()]
    while scripts:
        script = scripts.pop()
        try:
            counts = _kernels._code_counts(_Script(script), masses, n)
        except _Exhausted:
            scripts += [script + (w,) for w in range(2 ** n)]
            continue
        key = tuple(counts)
        law[key] = law.get(key, 0) + Fraction(1, 2 ** (n * len(script)))
    return law


def _multinomial_law(masses, n):
    law = {}
    for draws in itertools.product(range(4), repeat=n):
        key = tuple(draws.count(c) for c in range(4))
        p = Fraction(1)
        for c in draws:
            p *= Fraction(masses[c])
        law[key] = law.get(key, 0) + p
    return {key: p for key, p in law.items() if p}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("masses", [(0.125, 0.375, 0.0, 0.5),
                                    (0.0, 0.25, 0.625, 0.125),
                                    (0.25, 0.25, 0.25, 0.25),
                                    (0.0, 0.0, 0.0, 1.0)],
                         ids=lambda m: "-".join(str(int(x * 8)) for x in m))
def test_mc_outcome_counts_law_is_exact_for_few_draws(masses, n):
    """For masses on a grid of eighths, the counts of n draws follow
    Multinomial(n, masses) exactly, by enumeration of the bits."""
    assert _enumerated_law(list(masses), n) == _multinomial_law(masses, n)


def test_mc_outcome_counts_chi_square_over_many_seeds():
    """2000 rows of 1000 draws against fixed masses: the chi-square
    statistic of each row against Multinomial(1000, p), 3 degrees of
    freedom, averages 3 within 5.5 of its standard errors (6 / 2000 per
    row squared), exceeds its 95% point 7.815 in 5% +- 2% of rows, and
    the pooled counts pass at the 0.1% level (16.27)."""
    rows, n = 2000, 1000
    weights = np.array([0.07, 0.2, 0.03, 0.31, 0.39])
    codes = np.array([0, 1, 0, 2, 3], dtype=np.uint8)
    p = _kernels.outcome_cell_sums(weights, codes)
    counts = _kernels.mc_outcome_counts([weights] * rows, [codes] * rows,
                                        _kernels.StreamDraws(
                                            [_stream(31, k) for k in range(rows)], n))
    assert (counts.sum(axis=1) == n).all()
    stats = ((counts - n * p) ** 2 / (n * p)).sum(axis=1)
    assert abs(stats.mean() - 3.0) < 5.5 * math.sqrt(6.0 / rows)
    assert 0.03 < np.mean(stats > 7.815) < 0.07
    pooled = counts.sum(axis=0)
    assert ((pooled - rows * n * p) ** 2 / (rows * n * p)).sum() < 16.27


_mass = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))


@settings(max_examples=150, deadline=None)
@given(masses=st.lists(_mass, min_size=4, max_size=4).filter(lambda m: sum(m) > 0.0),
       scale=st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12, 1.0 - 2.0 ** -53, 1.5]),
       samples=st.integers(0, 20_000), seed=st.integers(0, 2**63))
def test_mc_outcome_counts_sum_to_n_and_skip_empty_codes(masses, scale, samples, seed):
    """Counts sum to N; a code of zero mass gets none, and so does a code
    past an edge at or above 1; the top draw and the bottom draw go to
    the codes the lookup clamps them to; and the counts are those of the
    scalar reference."""
    total = math.fsum(masses)
    masses = [m / total * scale for m in masses]
    seed = np.random.SeedSequence(seed)
    counts = _counts(masses, range(4), seed, samples)
    assert sum(counts) == samples
    assert counts == _reference_counts(masses, np.arange(4), seed, samples)
    cum = list(itertools.accumulate(masses))
    for c in range(4):
        if masses[c] == 0.0 or (c and cum[c - 1] >= 1.0):
            assert counts[c] == 0
    last = max(c for c in range(4) if masses[c] > 0.0)
    for bits, u in ((_TOP, 1.0 - 2.0 ** -53), (_BOTTOM, 0.0)):
        want = [0] * 4
        want[min(bisect.bisect_right(cum, u), last)] = samples
        assert _kernels._code_counts(bits, masses, samples) == want


def test_mc_outcome_counts_depend_on_the_code_masses_alone():
    """Cells in any order and split any way, with the same code masses,
    get the same counts from the same seed."""
    coarse = ([0.25, 0.125, 0.5, 0.125], [0, 1, 2, 3])
    fine = ([0.0625, 0.5, 0.125, 0.125, 0.125, 0.0625], [3, 2, 0, 0, 1, 3])
    for k in range(4):
        assert (_counts(*coarse, _stream(9, k), 10**6)
                == _counts(*fine, _stream(9, k), 10**6))


_C = _kernels.MC_CHUNK_WORDS


@pytest.mark.parametrize("chunk", [1, 3])
def test_mc_outcome_counts_fixed_draws_in_small_chunks(chunk, monkeypatch):
    """Raw words drawn one and three at a time count as whole draws do."""
    monkeypatch.setattr(_kernels, "MC_CHUNK_WORDS", chunk)
    rng = np.random.default_rng(9)
    for k in range(5):
        weights, codes = _random_cdf(rng)
        want = _reference_counts(weights, codes, _stream(9, k), 64 * 40 + 13)
        assert _counts(weights, codes, _stream(9, k), 64 * 40 + 13) == want


def _edge_cells(top):
    """Cells with leading and trailing zero-weight cells whose masses sum
    to ``top``, and outcome codes for them."""
    rng = np.random.default_rng(12)
    weights = np.concatenate([[0.0], rng.random(29), [0.0, 0.0]])
    weights[rng.random(weights.size) < 0.2] = 0.0
    return weights / weights.sum() * top, rng.integers(0, 4, size=weights.size).astype(np.uint8)


@pytest.mark.parametrize("samples", [1, _C - 1, _C, _C + 1, 3 * _C + 7])
@pytest.mark.parametrize("top", [1.0 - 1e-12, 1.0 + 2.0 ** -52])
def test_mc_outcome_counts_chunked_stream_equals_whole_draw(samples, top, monkeypatch):
    """Draws just below, at and just above a whole number of words
    (65535, 65536 and 65537 bits are 1023 words and 63 bits, 1024 words,
    and 1024 words and 1 bit), their words drawn seven at a time so that
    the large splits straddle many chunks, count as the reference drawing
    each split's words whole does, with masses summing below or above 1."""
    monkeypatch.setattr(_kernels, "MC_CHUNK_WORDS", 7)
    weights, codes = _edge_cells(top)
    for k in range(4):
        assert (_counts(weights, codes, _stream(11, k), samples)
                == _reference_counts(weights, codes, _stream(11, k), samples))


@pytest.mark.parametrize("samples",
                         [0, 1, _C - 1, _C, _C + 1, 3 * _C + 7, 7 * _C, 8 * _C + 3])
@pytest.mark.parametrize("streams", [1, 2, 3, 5, 8])
def test_mc_outcome_counts_segments_equal_whole_draw(samples, streams):
    """A call over the rows of several pair streams gives each row, its
    segment of the result, the counts of a call of that row alone and of
    the scalar reference: every row draws from a fresh copy of its own
    stream."""
    weights, codes = _edge_cells(1.0 - 1e-12)
    seeds = [_stream(13, k) for k in range(streams)]
    counts = _kernels.mc_outcome_counts([weights] * streams, [codes] * streams,
                                        _kernels.StreamDraws(seeds, samples))
    assert counts.dtype == np.int64 and counts.shape == (streams, 4)
    for row, seed in zip(counts.tolist(), seeds):
        assert row == _counts(weights, codes, seed, samples)
        assert row == _reference_counts(weights, codes, seed, samples)


def test_mc_outcome_counts_many_streams_under_fast_thread_switches():
    """The counter keeps no state between calls: twelve streams counted
    in calls from four threads at once, with the interpreter switching
    threads every few microseconds, get the counts of one serial call."""
    weights, codes = _edge_cells(1.0)
    seeds = [_stream(23, k) for k in range(12)]
    samples = 2 * 64 * _C + 5

    def call(part):
        return _kernels.mc_outcome_counts([weights] * len(part), [codes] * len(part),
                                          _kernels.StreamDraws(part, samples))

    serial = call(seeds).tolist()
    parts = [seeds[i::4] for i in range(4)]
    results = [None] * 4

    def work(i):
        results[i] = call(parts[i]).tolist()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i in range(4):
        assert results[i] == serial[i::4]


@pytest.mark.parametrize("streams", [1, 2, 5])
@pytest.mark.parametrize("sizes", [(3, 5), (1, 4, 9), (3, 40), (0, 2, 30)],
                         ids=lambda sizes: "-".join(map(str, sizes)))
def test_mc_outcome_counts_of_several_cdfs_equal_separate_counts(sizes, streams):
    """Two or three cell lists of 1-40 cells, each counted from each of
    several pair streams in one call, get the counts of each counted
    alone (a size of 0 stands for a single cell)."""
    rng = np.random.default_rng(22)
    cells = []
    for size, top in zip(sizes, (1.0 - 1e-12, 1.0, 1.0 + 2.0 ** -52)):
        weights = rng.random(max(size, 1))
        cells.append((weights / weights.sum() * top,
                      rng.integers(0, 4, size=weights.size).astype(np.uint8)))
    rows = [(w, c, _stream(19, k)) for k in range(streams) for w, c in cells]
    together = _kernels.mc_outcome_counts(
        [w for w, _, _ in rows], [c for _, c, _ in rows],
        _kernels.StreamDraws([s for _, _, s in rows], 3 * _C + 7))
    assert together.shape == (len(rows), 4)
    for row, (w, c, seed) in zip(together.tolist(), rows):
        assert row == _counts(w, c, seed, 3 * _C + 7)
        assert row == _reference_counts(w, c, seed, 3 * _C + 7)


def _other_masses(masses, kind, code, ulps, unrelated):
    """Masses for a second row on the stream of a row with ``masses``:
    the same, ``ulps`` ulps off at ``code``, with ``code`` emptied, or
    ``unrelated``."""
    other = list(masses)
    if kind == "ulps":
        for _ in range(abs(ulps)):
            other[code] = math.nextafter(other[code], math.copysign(math.inf, ulps))
    elif kind == "zero-code":
        other[code] = 0.0
    elif kind == "unrelated":
        other = unrelated
    return other


@settings(max_examples=150, deadline=None)
@given(masses=st.lists(_mass, min_size=4, max_size=4).filter(lambda m: sum(m) > 0.0),
       kind=st.sampled_from(["same", "ulps", "zero-code", "unrelated"]),
       code=st.integers(0, 3), ulps=st.integers(-4, 4).filter(bool),
       unrelated=st.lists(_mass, min_size=4, max_size=4),
       samples=st.integers(1, 100_000), seed=st.integers(0, 2**63))
def test_mc_outcome_counts_rows_on_one_stream_equal_separate_counts(
        masses, kind, code, ulps, unrelated, samples, seed):
    """Two rows on one seed sequence, the second of the same masses, of
    masses a few ulps off, with a code emptied or of unrelated masses,
    so that their split paths part at the root, deeper down or never,
    get the counts of each row counted alone."""
    total = math.fsum(masses)
    masses = [m / total for m in masses]
    other = _other_masses(masses, kind, code, ulps, unrelated)
    seed = np.random.SeedSequence(seed)
    codes = np.arange(4, dtype=np.uint8)
    together = _kernels.mc_outcome_counts(
        [np.array(masses), np.array(other)], [codes, codes],
        _kernels.StreamDraws([seed, seed], samples))
    assert together.tolist() == [_counts(masses, codes, seed, samples),
                                 _counts(other, codes, seed, samples)]


class _CountingPCG64(np.random.PCG64):
    """A PCG64 that adds the raw words drawn from it to ``words[0]``."""

    words = [0]

    def random_raw(self, size=None):
        self.words[0] += 1 if size is None else size
        return super().random_raw(size)


@pytest.fixture
def raw_words(monkeypatch):
    """The count of raw words the Monte Carlo counter draws, from zero."""
    words = [0]
    monkeypatch.setattr(_CountingPCG64, "words", words)
    monkeypatch.setattr(np.random, "PCG64", _CountingPCG64)
    return words


def test_mc_outcome_counts_rows_on_one_stream_read_its_words_once(raw_words):
    """On one stream, a second row of the same masses draws no word, and
    one whose second edge is 2^-50 off, dyadic no longer, draws only the
    words of its splits from the third on, where its path parts from the
    first row's."""
    masses = [0.25] * 4
    near = [0.25 + 2.0 ** -50, 0.25 - 2.0 ** -50, 0.25, 0.25]
    seed, samples = _stream(29, 0), 10**5
    words = {}
    for name, m in (("masses", masses), ("near", near)):
        raw_words[0] = 0
        words[name] = (_counts(m, range(4), seed, samples), raw_words[0])
    codes = np.arange(4, dtype=np.uint8)
    for second, lo, hi in ((masses, 0, 0), (near, 1, words["near"][1] - 1)):
        raw_words[0] = 0
        counts = _kernels.mc_outcome_counts(
            [np.array(masses), np.array(second)], [codes, codes],
            _kernels.StreamDraws([seed, seed], samples))
        assert lo <= raw_words[0] - words["masses"][1] <= hi
        assert counts.tolist() == [words["masses"][0], _counts(second, codes, seed, samples)]


def test_emulation_reads_the_same_words_on_every_run(raw_words):
    """Two equal emulation runs in one process draw the same raw words:
    no split path outlives its call."""
    doc = generate_scenario("stochastic-equivalent",
                            {"cards": (8,) * 5, "estimator": "monte-carlo",
                             "samples": 3 * _C + 7, "mc_seed": 5})
    runs = []
    for _ in range(2):
        raw_words[0] = 0
        runs.append((report.run_scenario(parse_scenario(doc)), raw_words[0]))
    assert runs[0] == runs[1]
    assert runs[0][1] > 0


def test_monte_carlo_report_calls_the_kernel_once_per_report_from_the_caller(
        monkeypatch):
    """A tracer that wraps ``correlation.mc_outcome_counts`` sees one call
    per report, made from the calling thread, with the draws it counts as
    ``np.size`` of its third argument: the four pairs' samples.  An
    emulation makes one call for both models, eight rows on the four
    pair streams."""
    calls = []
    real = correlation.mc_outcome_counts

    def traced(weights, codes, draws):
        calls.append((threading.current_thread(), int(np.size(draws))))
        return real(weights, codes, draws)

    monkeypatch.setattr(correlation, "mc_outcome_counts", traced)
    scenario = load_scenario(SCENARIOS / "joint-composite.scenario")
    samples = 3 * _C + 7
    correlation.monte_carlo_report(scenario.model, scenario.distributions,
                                   scenario.settings, samples, seed=5)
    assert calls == [(threading.main_thread(), 4 * samples)]
    calls.clear()
    doc = generate_scenario("stochastic-equivalent",
                            {"cards": (8,) * 5, "estimator": "monte-carlo",
                             "samples": samples, "mc_seed": 5})
    report.run_scenario(parse_scenario(doc))
    assert calls == [(threading.main_thread(), 8 * samples)]


def test_monte_carlo_report_bytes_do_not_depend_on_the_cpu_count():
    """No bellsim module starts a thread or a process, or reads the CPU
    count, so nothing in a report can depend on it
    (``tests/test_cross_blas.py`` compares the bytes on one pinned CPU)."""
    package = Path(report.__file__).parent
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {alias.name.split(".")[0] for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names}
        modules |= {node.module.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.module}
        assert not modules & {"threading", "multiprocessing", "concurrent"}, path
        attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not attrs & {"sched_getaffinity", "cpu_count"}, path


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
