"""Timings of the numeric kernels in ``bellsim._kernels``.

Run as a script:

    python3 benchmarks/bench_kernels.py

Each kernel runs on one fixed input, ``mc_outcome_counts`` on one for each
of its two counting paths; the best of several repeats is printed in
milliseconds.
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


def _bench_mc_outcome_counts(cum, codes):
    """Drawing and counting 10^6 uniforms as four fresh PCG64 streams of
    2.5 * 10^5, one per setting pair, on one thread per CPU the process
    may run on, up to four."""
    def run():
        rngs = [np.random.default_rng([7, k]) for k in range(4)]
        _kernels.mc_outcome_counts([[cum]] * 4, [[codes]] * 4,
                                   _kernels.StreamDraws(rngs, 250_000))

    return _time(run, 10)


def bench_mc_outcome_counts_compare(rng):
    """Four cells of four codes: three edges, counted by comparison passes."""
    cum = np.cumsum(rng.dirichlet(np.ones(4)))
    return _bench_mc_outcome_counts(cum, np.arange(4, dtype=np.uint8))


def bench_mc_outcome_counts_sort(rng):
    """512 cells (an 8^3 apparatus triple) of random codes: hundreds of
    edges, counted by sorting each chunk."""
    cum = np.cumsum(rng.dirichlet(np.ones(512)))
    return _bench_mc_outcome_counts(cum, rng.integers(0, 4, size=512).astype(np.uint8))


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
    ("mc_outcome_counts   (4 cells, 1e6)", bench_mc_outcome_counts_compare),
    ("mc_outcome_counts   (512 cells, 1e6)", bench_mc_outcome_counts_sort),
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
