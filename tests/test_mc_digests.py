"""Monte Carlo report bytes are pinned.

Each case below runs a Monte Carlo report through the CLI and compares the
sha256 of its text with a digest recorded from the dyadic-splitting
counter: each pair's four code counts drawn from the popcounts of raw bits
of a fresh copy of its PCG64 stream.  Any change to the sampling path
(streams, bits, splits, the edges of the code masses) that moves an
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
        "81b4584a2ba7ea1eb1f235373bda8b3efcb3bb654f97822385c7178f5d71752a",
    ("stochastic-equivalent", ("--cards", "8,8,8,8,8"), 5, 200_000):
        "b8880ee0e743152196580259869812850263ee49292ad0e7e03fdaf777d965b0",
    ("setting-dependent-witness", (), 4, 200_000):
        "8f3acd8b1a3dc2fe99f792081c23d80bcac7a67d1535e87a321d7af94d184646",
    ("setting-dependent-witness", (), 5, 200_000):
        "8ba3c19013e6ce3102e9c539c38238aa3a108a3c145894278ad7750a4f9fbf6e",
}

#: sha256 of `bellsim run scenarios/joint-composite.scenario` (Monte Carlo,
#: 1e5 samples).  Its feasibility section carries the scenario's own joint,
#: the construction witness, whose weights total exactly 1, so its residual
#: against the pair marginals ``marginalize`` sums out of it is 0.0; every
#: other field is as the dyadic-splitting counter gave it.
JOINT_COMPOSITE = (
    "aeb5e4e1bc03f511417c2b00038ac5f19285b644fa0fd7314489570ae7babd08")


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
