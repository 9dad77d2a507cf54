"""Monte Carlo report bytes are pinned.

Each case below runs a Monte Carlo report through the CLI and compares the
sha256 of its text with a digest recorded from the per-draw inverse-CDF
lookup (one binary search per uniform).  Counting the draws by any other
method must give the same partition of the draws into cells, so any change
to the sampling path (streams, draws, cell counting) that moves an
estimate by one count changes a digest.  The generated cases also pin the
generated scenario, whose sha256 every report carries.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from bellsim.cli import main

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

#: (template, extra generate flags, generation seed and Monte Carlo seed,
#: samples) -> sha256 of the `bellsim run` report of the generated file.
GENERATED = {
    ("stochastic-equivalent", ("--cards", "8,8,8,8,8"), 4, 200_000):
        "cc5c0cdb61c601f2cebfcffdecc7b4538509a4c5545fac6e7d2d8e8739c3ea82",
    ("stochastic-equivalent", ("--cards", "8,8,8,8,8"), 5, 200_000):
        "c1a6607cd629ba1adfd6a16f7d0ff99d9bca29251763cecf15c84df40aeae239",
    ("setting-dependent-witness", (), 4, 200_000):
        "5e191f082fec867b32fecee56d25ee7d1509e02a4ab18ba61b5d5a05ee44db60",
    ("setting-dependent-witness", (), 5, 200_000):
        "5944d018251fe0e251128008725f104c003271eb2dfefa4babdcc688858906e7",
}

#: sha256 of `bellsim run scenarios/joint-composite.scenario` (Monte Carlo,
#: 1e5 samples).  Its feasibility section carries the scenario's own joint,
#: the construction witness; every other field is as the per-draw lookup
#: gave it.
JOINT_COMPOSITE = (
    "10b6591fef2c986b6e480a0bfc526ea96470574753f64f707439c475b60a44de")


def _report_digest(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_bundled_joint_composite_report_pinned(capsys):
    path = SCENARIOS / "joint-composite.scenario"
    assert '"monte-carlo"' in path.read_text(encoding="utf-8")
    assert _report_digest(capsys, "run", str(path)) == JOINT_COMPOSITE


@pytest.mark.parametrize("case", sorted(GENERATED), ids=lambda c: f"{c[0]}-seed{c[2]}")
def test_generated_monte_carlo_report_pinned(capsys, tmp_path, case):
    template, flags, seed, samples = case
    scenario = tmp_path / "generated.scenario"
    assert main(["generate", template, *flags, "--seed", str(seed),
                 "--estimator", "monte-carlo", "--samples", str(samples),
                 "--mc-seed", str(seed), "-o", str(scenario)]) == 0
    assert _report_digest(capsys, "run", str(scenario)) == GENERATED[case]
