"""Timing comparison between the compiled and pure-Python kernel backends.

Run as a script:

    python3 benchmarks/bench_kernels.py

Both backends are exercised on identical inputs.  When the compiled
backend is built, outputs are checked for bit-identity as a side effect,
so a benchmark run doubles as a coarse parity check on larger inputs than
the test suite uses.  Without it, only the pure column is timed and the
fast column reads "—".
"""

from __future__ import annotations

import timeit

import numpy as np

from bellsim._kernels import _pure

try:
    from bellsim._kernels import _fast
except ImportError:
    _fast = None


def _time(fn, repeats: int) -> float:
    return min(timeit.repeat(fn, number=1, repeat=repeats))


def _compare(call, fast_repeats: int, pure_repeats: int):
    """Time ``call(backend)`` on each backend present, after requiring the
    compiled and pure results to be equal byte for byte."""
    t_pure = _time(lambda: call(_pure), pure_repeats)
    if _fast is None:
        return None, t_pure
    out_f, out_p = np.asarray(call(_fast)), np.asarray(call(_pure))
    assert out_f.dtype == out_p.dtype and out_f.tobytes() == out_p.tobytes()
    return _time(lambda: call(_fast), fast_repeats), t_pure


def bench_response_product_sum(rng):
    n = 200_000
    f = rng.choice([-1.0, 1.0], size=n)
    g = rng.choice([-1.0, 1.0], size=n)
    w = rng.dirichlet(np.ones(n))
    return _compare(lambda impl: impl.response_product_sum(f, g, w), 20, 5)


def bench_outcome_cell_sums(rng):
    n = 200_000
    w = rng.random(n)
    codes = rng.integers(0, 4, size=n).astype(np.uint8)
    return _compare(lambda impl: impl.outcome_cell_sums(w, codes), 20, 20)


def bench_mc_outcome_counts(rng):
    cells = 64
    weights = rng.dirichlet(np.ones(cells))
    cum = np.cumsum(weights)
    codes = rng.integers(0, 4, size=cells).astype(np.uint8)
    u = rng.random(1_000_000)
    return _compare(lambda impl: impl.mc_outcome_counts(cum, codes, u), 10, 10)


def bench_tableau_pivot(rng):
    T = rng.normal(size=(400, 800))
    T[150, 300] = 3.0

    def run(impl):
        W = T.copy()
        impl.tableau_pivot(W, 150, 300)
        return W

    return _compare(run, 20, 20)


def bench_chsh_strategy_max(_rng):
    return _compare(lambda impl: impl.chsh_strategy_max(5), 5, 3)


BENCHES = [
    ("response_product_sum (n=2e5)", bench_response_product_sum),
    ("outcome_cell_sums   (n=2e5)", bench_outcome_cell_sums),
    ("mc_outcome_counts   (1e6 draws)", bench_mc_outcome_counts),
    ("tableau_pivot       (400x800)", bench_tableau_pivot),
    ("chsh_strategy_max   (n=5)", bench_chsh_strategy_max),
]


def main() -> None:
    rng = np.random.default_rng(2024)
    header = f"{'kernel':<34} {'fast [ms]':>10} {'pure [ms]':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, bench in BENCHES:
        t_fast, t_pure = bench(rng)
        if t_fast is None:
            fast, speedup = "—", "—"
        else:
            fast = f"{t_fast * 1e3:.3f}"
            speedup = f"{t_pure / t_fast:.1f}x" if t_fast > 0 else "inf"
        print(f"{name:<34} {fast:>10} {t_pure * 1e3:>10.3f} {speedup:>8}")
    if _fast is None:
        print("\ncompiled backend is not built: pure timings only")
    else:
        print("\nall outputs bit-identical across backends")


if __name__ == "__main__":
    main()
