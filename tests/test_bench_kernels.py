"""The kernel timing script runs and times every kernel."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from pathlib import Path

from bellsim import _kernels

ROOT = Path(__file__).resolve().parents[1]


def _kernel_names() -> list[str]:
    return [name for name, obj in vars(_kernels).items()
            if inspect.isfunction(obj) and obj.__module__ == _kernels.__name__
            and not name.startswith("_")]


def test_bench_kernels_prints_one_row_per_kernel():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "bench_kernels.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["kernel", "time", "[ms]"]
    rows = [line.split() for line in lines[2:]]
    # mc_outcome_counts has two rows, one model's call and an emulation's
    assert sorted(row[0] for row in rows) == sorted(_kernel_names() + ["mc_outcome_counts"])
    for row in rows:
        assert float(row[-1]) > 0.0
