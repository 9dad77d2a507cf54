"""Exact report bytes are pinned: the construction witnesses and the
joint-existence LP.

Each case generates a scenario with the exact estimator, runs it through
the CLI and compares the sha256 of the report text with a recorded
digest.  Every digest also pins the generated scenario, whose sha256
every report carries.

- Factorized and joint-composite families are Local by construction, so
  their reports carry the construction witness ``mode.witness`` (the
  product joint or the scenario's own joint, unscaled) and never reach
  the LP.  Their digests pin that witness and its residual.  The
  correlations of both read the family's pair marginals, so the
  joint-composite digests also pin the order in which ``marginalize``
  sums the joint into them: one slice at a time, last axis first, the
  order in which the witness is checked against them, so its residual
  is 0.0.
- The setting-dependent witness breaks the Bell bound, so its report
  carries the closed-form CHSH certificate of its response tables, and
  its digest pins that certificate.  The same witness marginals read out
  by all-(+1) tables have S = 2, so that certificate declines them and
  they reach the LP; the digest of that report's feasibility section pins
  the Farkas certificate of the LP, which never sees the tables.
- SettingDependent copies of the factorized and joint-composite families
  (``SettingDependent(mode.marginals)``, the same four pair marginals
  under mode SettingDependent) send those families through the LP's
  Feasible path, and their digests pin the solver's joint bit for bit,
  as it is reported unscaled.  The block solver's entering column is a
  sum of four columns of B^-1 rather than a column of a dense tableau, so
  it rounds differently from a dense-tableau LP and, on the 2,4,4,4,4
  joint-composite copy, ends at another vertex.  So any change to the
  pivot path (pricing, ratio test, reduced-cost update, pivot
  arithmetic) that moves one bit of a joint or a certificate changes a
  digest.  The LP's cap counts dense-tableau cells only as a size
  measure (the solver's state is (m + 1)(m + 2) per block), and no case
  here comes near it.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from helpers import plus_one_witness, setting_dependent_copy

from bellsim.cli import main

#: (template, cardinalities, generation seed) -> sha256 of the
#: `bellsim run` report of the generated file.
GENERATED = {
    ("factorized", "4,4,4,4,4", 1):
        "3c3fe47cc4c409ec665f3d77d9e57b8768e43466ff75babb98695a5c58d06478",
    ("factorized", "2,4,4,4,4", 1):
        "ec6c5632a65af65531f8adaef41d6579f51e7397895e2f93f1ce6d39d8942d0c",
    ("joint-composite", "4,4,4,4,4", 1):
        "ca0e10d1aea47285327e5ff63c23b676be0072adc50768f1a0a04bb3fd0bb6a9",
    ("joint-composite", "2,4,4,4,4", 1):
        "1169e990254d270e3b32f1a0a8a4fa4143a4b89fc2bfd07b84f78daa26ae3537",
    ("setting-dependent-witness", "1,2,2,2,2", 1):
        "a0444c8a2dda692cffa02b5152391d8e08f937734c4eff3a6c3d5777654b601a",
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


#: sha256 of the feasibility section, dumped with ``indent=2``, of the
#: report of the generated setting-dependent witness (cards 1,2,2,2,2,
#: seed 1) with every response table set to +1.  It equals that of the
#: witness's own report while the witness still went through the LP.
WITNESS_LP_FEASIBILITY = (
    "f7235d01f68ba6a919abc1ffeeeee96ad954b3c6ded0f24850e51ab467653988")


def test_witness_lp_certificate_pinned(capsys, tmp_path):
    scenario = tmp_path / "witness.scenario"
    plus_one_witness(scenario)
    capsys.readouterr()
    assert main(["run", str(scenario)]) == 0
    analyses = json.loads(capsys.readouterr().out)["analyses"]
    assert analyses["chsh"]["s"] == pytest.approx(2.0, abs=1e-12)
    assert analyses["bell-check"]["verdict"] == "Satisfied"
    section = json.dumps(analyses["feasibility"], indent=2)
    assert (hashlib.sha256(section.encode("utf-8")).hexdigest()
            == WITNESS_LP_FEASIBILITY)


#: (template, cardinalities, generation seed) -> sha256 of the
#: `bellsim run` report of the generated file with its distributions
#: replaced by the four pair marginals of its family (mode
#: SettingDependent), which sends the family through the LP.
SETTING_DEPENDENT_COPIES = {
    ("factorized", "4,4,4,4,4", 1):
        "1f45205637fa473b344e16637fc2e888b2820b249d802a7d378bce17a4f102d0",
    ("factorized", "2,4,4,4,4", 1):
        "a83f86b52213094f648f89bf6efe0b42e929e94ae178dea4281aded13d007367",
    ("joint-composite", "4,4,4,4,4", 1):
        "b846d6c262c92896a34a48130cfd14a51142a45de9926da2a6ff238b7624a41a",
    ("joint-composite", "2,4,4,4,4", 1):
        "8ee5613b29cbddac2942d3edec466a3cb15bc4292e345c63082e3c08fe5e37be",
}


@pytest.mark.parametrize("case", sorted(SETTING_DEPENDENT_COPIES),
                         ids=lambda c: f"{c[0]}-{c[1]}-seed{c[2]}")
def test_setting_dependent_copy_report_pinned(capsys, tmp_path, case):
    template, cards, seed = case
    scenario = tmp_path / "generated.scenario"
    copy = tmp_path / "copy.scenario"
    assert main(["generate", template, "--cards", cards, "--seed", str(seed),
                 "--estimator", "exact", "-o", str(scenario)]) == 0
    setting_dependent_copy(scenario, copy)
    capsys.readouterr()
    assert main(["run", str(copy)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["distribution_mode"] == "SettingDependent"
    assert (hashlib.sha256(out.encode("utf-8")).hexdigest()
            == SETTING_DEPENDENT_COPIES[case])
