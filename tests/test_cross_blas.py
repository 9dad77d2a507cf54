"""Report bytes do not depend on the BLAS kernel, its thread count,
numpy's SIMD dispatch or the number of CPUs.

Every report-producing command runs in child processes: a native one, with
OpenBLAS and numpy choosing their kernels for this CPU; one with OpenBLAS
forced to the generic Prescott kernel on one thread; and one with numpy's
AVX2 and AVX-512 loops disabled, as on an x86-64-v2 CPU.  Any report
arithmetic that went through BLAS, or that rounded differently in a wider
SIMD loop, would change bytes.  No bundled scenario reaches the LP, so
two more runs do: the SettingDependent copy of the bundled factorized
scenario (Feasible) and the generated witness read out by all-(+1) tables
(Infeasible).  The bundled joint-composite scenario uses Monte Carlo, so
one more run is an exact joint-composite report, whose probabilities are
sums of the pair marginals that ``marginalize`` sums out of the joint.
Monte Carlo reports are also compared between a native child and a child
pinned to one CPU.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from helpers import plus_one_witness, setting_dependent_copy

import bellsim
from bellsim.cli import main
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

#: numpy's dispatch then runs no loop wider than its x86-64-v2 baseline.
NO_AVX = ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3")

# Runs each argv list from argv[1] (JSON) through the CLI and prints a JSON
# object with "reports", mapping the joined command to its report text, and
# "simd_found", the SIMD extensions np.show_runtime() lists as found.  An
# argv[2], when given, is the one CPU the child pins itself to first.
CHILD = r"""
import contextlib, io, json, os, re, sys
if len(sys.argv) > 2:
    os.sched_setaffinity(0, {int(sys.argv[2])})
import numpy as np
from bellsim.cli import main
runtime = io.StringIO()
with contextlib.redirect_stdout(runtime):
    np.show_runtime()
found = re.search(r"'found': \[([^\]]*)\]", runtime.getvalue())
reports = {}
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    reports[" ".join(argv)] = out.getvalue()
print(json.dumps({"reports": reports,
                  "simd_found": re.findall(r"'(\w+)'", found[1] if found else "")}))
"""


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except TypeError:  # numpy < 1.26 keeps the distutils-era build info
        info = getattr(np.__config__, "blas_opt_info", {})
        return " ".join(info.get("libraries", []))


def _child(child_env: dict[str, str], commands=COMMANDS,
           cpu: int | None = None) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "OPENBLAS_NUM_THREADS",
                        "NPY_DISABLE_CPU_FEATURES")}
    src = str(Path(bellsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.update(child_env)
    pin = [] if cpu is None else [str(cpu)]
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(commands)] + pin,
                          env=env, capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(done.stdout)


@pytest.fixture(scope="module")
def commands(tmp_path_factory) -> list[list[str]]:
    """``COMMANDS`` plus two runs that reach the LP and one exact
    joint-composite run, written to a temporary directory."""
    root = tmp_path_factory.mktemp("lp")
    copy = root / "factorized-copy.scenario"
    setting_dependent_copy(SCENARIOS / "factorized.scenario", copy)
    witness = root / "witness-plus-one.scenario"
    plus_one_witness(witness)
    joint = root / "joint-composite-exact.scenario"
    assert main(["generate", "joint-composite", "--cards", "3,2,4,2,3",
                 "--estimator", "exact", "-o", str(joint)]) == 0
    return COMMANDS + [["run", str(copy)], ["run", str(witness)],
                       ["run", str(joint)]]


@pytest.fixture(scope="module")
def native(commands) -> dict:
    return _child({}, commands)


def _changed(native: dict, other: dict, commands=COMMANDS) -> list[str]:
    reports, others = native["reports"], other["reports"]
    assert list(reports) == [" ".join(argv) for argv in commands]
    return [cmd for cmd in reports if reports[cmd] != others[cmd]]


@pytest.mark.skipif("openblas" not in _blas_name().lower(),
                    reason="numpy is not built on OpenBLAS")
def test_report_bytes_identical_across_blas_kernels(native, commands):
    forced = _child({"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"},
                    commands)
    assert _changed(native, forced, commands) == []


def test_report_bytes_identical_without_avx(native, commands):
    if not set(NO_AVX) & set(native["simd_found"]):
        pytest.skip(f"this CPU has none of {', '.join(NO_AVX)}")
    reduced = _child({"NPY_DISABLE_CPU_FEATURES": ",".join(NO_AVX)}, commands)
    still_found = set(NO_AVX) & set(reduced["simd_found"])
    if still_found:
        pytest.skip(f"numpy did not disable {', '.join(sorted(still_found))}")
    assert _changed(native, reduced, commands) == []


def test_monte_carlo_bytes_identical_on_one_cpu(tmp_path):
    """Monte Carlo reports are the same in a child pinned to one CPU: the
    bundled joint-composite scenario, the witness, whose masses put few
    edges inside [0, 1), and the 8^5 emulation, whose comparison model
    replays the split paths of the primary model on one stream per
    pair."""
    if not hasattr(os, "sched_setaffinity"):
        pytest.skip("os.sched_setaffinity is not available")
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        pytest.skip("only one CPU is available, so no child uses threads")
    witness = tmp_path / "witness.scenario"
    assert main(["generate", "setting-dependent-witness", "--estimator",
                 "monte-carlo", "--samples", "200000", "-o", str(witness)]) == 0
    emulation = tmp_path / "emulation.scenario"
    assert main(["generate", "stochastic-equivalent", "--cards", "8,8,8,8,8",
                 "--estimator", "monte-carlo", "--samples", "200000",
                 "-o", str(emulation)]) == 0
    commands = [["run", str(SCENARIOS / "joint-composite.scenario")],
                ["run", str(witness)],
                ["run", str(emulation)]]
    native = _child({}, commands)
    pinned = _child({}, commands, cpu=cpus[0])
    assert _changed(native, pinned, commands) == []
