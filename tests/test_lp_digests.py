"""Exact report bytes, and so the joint-existence LP, are pinned.

Each case generates a scenario with the exact estimator, runs it through
the CLI and compares the sha256 of the report text with a digest recorded
with the dense simplex pivot, which updates every tableau row.  The
digests pin the Feasible joint weights of factorized and joint-composite
families and the Farkas certificate of a setting-dependent witness, so
any change to the pivot path (pricing, ratio test, pivot arithmetic) that
moves one bit of a joint or a certificate changes a digest.  They also pin
the generated scenario, whose sha256 every report carries.
"""

from __future__ import annotations

import hashlib

import pytest

from bellsim.cli import main

#: (template, cardinalities, generation seed) -> sha256 of the
#: `bellsim run` report of the generated file.
GENERATED = {
    ("factorized", "4,4,4,4,4", 1):
        "9791d6cf4cbed574e0ebaa328eaaa547e1e9f513df23cd0606db3a484ac29810",
    ("factorized", "2,4,4,4,4", 1):
        "adf2fcb84542a1b9eea8d3a9e60a6ad5c4f64a2eab855966eba7e334df8783cb",
    ("joint-composite", "4,4,4,4,4", 1):
        "e0e7eff6311f53f1cfafd724553915704f509bde27b66b8b82c788787463c1c1",
    ("joint-composite", "2,4,4,4,4", 1):
        "78e73c87c72e25981e102f013711cd7b8ed530723ab54071765ac15c93303cb2",
    ("setting-dependent-witness", "4,4,4,4,4", 1):
        "74c2413a2921a53a10fde60249b594bf2bf239c76bda2450fc72eedccb20ca71",
}


@pytest.mark.parametrize("case", sorted(GENERATED),
                         ids=lambda c: f"{c[0]}-{c[1]}-seed{c[2]}")
def test_generated_exact_report_pinned(capsys, tmp_path, case):
    template, cards, seed = case
    scenario = tmp_path / "generated.scenario"
    assert main(["generate", template, "--cards", cards, "--seed", str(seed),
                 "--estimator", "exact", "-o", str(scenario)]) == 0
    capsys.readouterr()
    assert main(["run", str(scenario)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GENERATED[case]
