"""Report bytes do not depend on the BLAS kernel or its thread count.

Every report-producing command runs in two child processes: one with
OpenBLAS choosing its kernel and thread count for this CPU, and one forced
to the generic Prescott kernel on one thread.  Any report arithmetic that
went through BLAS would round differently in the two and change bytes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bellsim
from bellsim.scenario import TEMPLATES

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

COMMANDS = (
    [["run", str(path)] for path in sorted(SCENARIOS.glob("*.scenario"))]
    + [["qm", "table", "0.1", "1.3"],
       ["qm", "chsh", "0.1", "1.3", "0.7", "-0.9"],
       ["qm", "search"],
       ["qm", "search", "--grid-step", "0.2"],
       ["enumerate-bound", "3"]]
    + [["generate", template, "--seed", str(seed)]
       for template in TEMPLATES for seed in (1, 2, 3)]
    + [["generate", "stochastic-equivalent", "--seed", "1",
        "--cards", "8,8,8,8,8"]]
)

# Runs each argv list from argv[1] (JSON) through the CLI and prints a JSON
# object mapping the joined command to its report text.
CHILD = """
import contextlib, io, json, sys
from bellsim.cli import main
reports = {}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    reports[" ".join(argv)] = out.getvalue()
print(json.dumps(reports))
"""


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy < 1.26 keeps the distutils-era build info
        info = getattr(np.__config__, "blas_opt_info", {})
        return " ".join(info.get("libraries", []))


def _reports(blas_env: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS")}
    src = str(Path(bellsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(blas_env)
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(COMMANDS)],
                          env=env, capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(done.stdout)


@pytest.mark.skipif("openblas" not in _blas_name().lower(),
                    reason="numpy is not built on OpenBLAS")
def test_report_bytes_identical_across_blas_kernels():
    native = _reports({})
    forced = _reports({"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"})
    assert list(native) == [" ".join(argv) for argv in COMMANDS]
    changed = [cmd for cmd in native if native[cmd] != forced[cmd]]
    assert changed == []
