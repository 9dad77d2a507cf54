"""Timings of the numeric kernels in ``bellsim._kernels``.

Run as a script:

    python3 benchmarks/bench_kernels.py

Each kernel runs on one fixed input, ``mc_outcome_counts`` on two (one
model's pairs, and an emulation's two models); the best of several
repeats is printed in milliseconds.
"""

from __future__ import annotations

import timeit

import numpy as np

from bellsim import _kernels


def _time(fn, repeats: int, setup=lambda: None) -> float:
    return min(timeit.repeat(fn, setup, number=1, repeat=repeats))


def bench_outcome_cell_sums(rng):
    n = 200_000
    w = rng.random(n)
    codes = rng.integers(0, 4, size=n).astype(np.uint8)
    return _time(lambda: _kernels.outcome_cell_sums(w, codes), 20)


def bench_mc_outcome_counts(rng):
    """Counting 10^6 draws as four fresh PCG64 streams of 2.5 * 10^5, one
    per setting pair, each against 512 cells (an 8^3 apparatus triple) of
    random codes: their three edges between codes."""
    weights = rng.dirichlet(np.ones(512))
    codes = rng.integers(0, 4, size=512).astype(np.uint8)
    seeds = [np.random.SeedSequence(7, spawn_key=(k,)) for k in range(4)]
    return _time(lambda: _kernels.mc_outcome_counts(
        [weights] * 4, [codes] * 4, _kernels.StreamDraws(seeds, 250_000)), 10)


def bench_mc_outcome_counts_emulation(rng):
    """An emulation's call: the rows of ``bench_mc_outcome_counts``, then
    four more on the same four streams whose weights are three ulps above
    them, as a comparison model's code masses sit a few ulps off the
    model's.  The later rows replay the split paths of the earlier ones
    up to where they part."""
    weights = rng.dirichlet(np.ones(512))
    near = weights
    for _ in range(3):
        near = np.nextafter(near, 1.0)
    codes = rng.integers(0, 4, size=512).astype(np.uint8)
    seeds = [np.random.SeedSequence(7, spawn_key=(k,)) for k in range(4)]
    return _time(lambda: _kernels.mc_outcome_counts(
        [weights] * 4 + [near] * 4, [codes] * 8,
        _kernels.StreamDraws(seeds * 2, 250_000)), 10)


def bench_tableau_pivot(rng):
    """One pivot on the simplex state of an LP block of four eight-valued
    apparatus spaces, as in the SettingDependent copy of an 8^5
    joint-composite family, that is, its four pair marginals in
    SettingDependent mode: B^-1 (256 x 256), the entering column and the
    right-hand side, plus the cost row, with about 30% nonzeros in the
    entering column, the pivot column.  The pivot updates only the rows
    with a nonzero pivot-column entry, so its cost follows that density.
    The copy the pivot works on is made outside the timing."""
    T = rng.normal(size=(257, 258))
    pr, pc = 100, 256
    T[rng.random(257) >= 0.3, pc] = 0.0
    T[pr, pc] = 3.0
    work = {}

    def setup():
        work["T"] = T.copy()

    return _time(lambda: _kernels.tableau_pivot(work["T"], pr, pc), 20, setup)


def bench_chsh_strategy_max(_rng):
    """n = 6, the largest source cardinality the default enumerate work
    limit of 2^24 strategies admits."""
    return _time(lambda: _kernels.chsh_strategy_max(6), 20)


BENCHES = [
    ("outcome_cell_sums   (n=2e5)", bench_outcome_cell_sums),
    ("mc_outcome_counts   (512 cells, 1e6)", bench_mc_outcome_counts),
    ("mc_outcome_counts   (emulation, 2e6)", bench_mc_outcome_counts_emulation),
    ("tableau_pivot       (257x258)", bench_tableau_pivot),
    ("chsh_strategy_max   (n=6)", bench_chsh_strategy_max),
]


def main() -> None:
    rng = np.random.default_rng(2024)
    header = f"{'kernel':<38} {'time [ms]':>10}"
    print(header)
    print("-" * len(header))
    for name, bench in BENCHES:
        print(f"{name:<38} {bench(rng) * 1e3:>10.3f}")


if __name__ == "__main__":
    main()
