"""Report building: executes a scenario's analyses and renders documents.

Reports are JSON with a fixed key layout and no volatile fields (no
timestamps, hostnames, or backend tags), so a given scenario plus CLI
flags always produces byte-identical text.  Analyses always execute and
appear in the canonical order correlations, chsh, bell-check,
feasibility, emulation, whatever order the scenario requested them in.

The feasibility analysis renders one ``check_joint_existence`` verdict on
the scenario's distribution mode and model: the checked construction
witness of a FactorizedApparatus or JointComposite scenario, and for a
SettingDependent one the closed-form CHSH certificate when the model reads
a Bell violation off the marginals, else the LP's joint or checked
certificate.  The work limit applies to an apparatus scenario before any
analysis runs.
"""

from __future__ import annotations

from typing import Any

from .correlation import (BellVerdict, CorrelationReport, SourceOnly,
                          _monte_carlo_reports, bell_check, enumerate_bound,
                          exact_report)
from .feasibility import DEFAULT_WORK_LIMIT, admit, check_joint_existence
from .models import (ApparatusDeterministic, Setting, effective_responses,
                     standard_settings)
from .qm import max_violation_search, singlet_chsh, singlet_probabilities
from .scenario import ANALYSES, SCHEMA_VERSION, Scenario, dist_doc, estimator_doc
from .spaces import CHSH_SIGNS, SETTING_NAMES, SETTING_PAIRS

_CELL_LABELS = ("++", "+-", "-+", "--")


def _probabilities_doc(probs) -> dict[str, float]:
    return {label: float(p) for label, p in zip(_CELL_LABELS, probs)}


def _pairs_doc(report: CorrelationReport) -> list[dict[str, Any]]:
    out = []
    for pc in report.pairs:
        entry: dict[str, Any] = {
            "pair": list(pc.pair),
            "probabilities": _probabilities_doc(pc.probabilities),
            "correlation": pc.correlation,
        }
        if pc.standard_error is not None:
            entry["standard_error"] = pc.standard_error
        out.append(entry)
    return out


def _bell_doc(verdict: BellVerdict) -> dict[str, Any]:
    return {"s": verdict.s, "verdict": verdict.label, "excess": verdict.excess}


def _feasibility_doc(scenario: Scenario, work_limit: int) -> dict[str, Any]:
    verdict = check_joint_existence(scenario.distributions, work_limit,
                                    scenario.model)
    if verdict.feasible:
        return {"status": verdict.status,
                "classification": "Local",
                "residual": verdict.residual,
                "joint": dist_doc(verdict.joint)}
    return {"status": verdict.status,
            "classification": "Nonlocal",
            "violation": verdict.violation,
            "certificate": [float(y) for y in verdict.certificate],
            "certificate_check": {"max_y_transpose_A": verdict.max_yta,
                                  "y_transpose_b": verdict.violation}}


def _emulation_doc(scenario: Scenario, primary: CorrelationReport,
                   comparison_report: CorrelationReport) -> dict[str, Any]:
    comparison = scenario.comparison_model
    averaged = effective_responses(scenario.model,
                                   scenario.distributions.apparatus)
    gap = max(float(abs(averaged[name] - (2.0 * comparison.tables[name] - 1.0)).max())
              for name in SETTING_NAMES)
    pairs = []
    for pc, cc in zip(primary.pairs, comparison_report.pairs):
        pairs.append({"pair": list(pc.pair),
                      "correlation": pc.correlation,
                      "comparison_correlation": cc.correlation,
                      "gap": abs(pc.correlation - cc.correlation)})
    return {"comparison_kind": comparison.kind,
            "max_effective_response_gap": gap,
            "pairs": pairs,
            "s": primary.s,
            "comparison_s": comparison_report.s}


def run_scenario(scenario: Scenario, seed_override: int | None = None,
                 work_limit: int = DEFAULT_WORK_LIMIT) -> dict[str, Any]:
    """Execute the scenario's analyses and assemble the report document.

    ``seed_override`` replaces the scenario's monte-carlo seed (ignored for
    the exact estimator); ``work_limit`` caps the composite points of an
    ApparatusDeterministic scenario, checked before any analysis runs.
    Verdicts are report content, never errors; errors mean the scenario
    could not be executed at all, and each propagates as raised, tagged
    with the module that raised it.
    """
    if isinstance(scenario.model, ApparatusDeterministic):
        admit(scenario.model.spaces, work_limit)
    requested = tuple(a for a in ANALYSES if a in scenario.run.analyses)
    doc: dict[str, Any] = {
        "report_version": SCHEMA_VERSION,
        "scenario_digest": scenario.digest or None,
        "description": scenario.description,
        "settings": {s.name: s.angle for s in scenario.settings},
        "model_kind": scenario.model.kind,
        "distribution_mode": scenario.distributions.mode,
        "analyses": {},
    }
    models = [(scenario.model, scenario.distributions)]
    if "emulation" in requested:
        models.append((scenario.comparison_model,
                       SourceOnly(scenario.distributions.rho)))
    estimator = scenario.run.estimator
    if estimator.method == "exact":
        primary, *comparison = [exact_report(model, dists, scenario.settings)
                                for model, dists in models]
    else:
        seed = estimator.seed if seed_override is None else seed_override
        primary, *comparison = _monte_carlo_reports(
            models, scenario.settings, estimator.samples, seed)
    for name in requested:
        if name == "correlations":
            doc["analyses"][name] = {
                "estimator": estimator_doc(primary.estimator),
                "pairs": _pairs_doc(primary),
            }
        elif name == "chsh":
            doc["analyses"][name] = {
                "s": primary.s,
                "terms": [{"pair": list(pc.pair), "sign": sign,
                           "correlation": pc.correlation}
                          for pc, sign in zip(primary.pairs, CHSH_SIGNS)],
            }
        elif name == "bell-check":
            doc["analyses"][name] = _bell_doc(primary.bound)
        elif name == "feasibility":
            doc["analyses"][name] = _feasibility_doc(scenario, work_limit)
        else:
            doc["analyses"][name] = _emulation_doc(scenario, primary, *comparison)
    return doc


# ---------------------------------------------------------------------------
# Documents for the non-scenario subcommands
# ---------------------------------------------------------------------------


def enumerate_bound_doc(lambda_cardinality: int) -> dict[str, Any]:
    result = enumerate_bound(lambda_cardinality)
    return {
        "report_version": SCHEMA_VERSION,
        "command": "enumerate-bound",
        "lambda_cardinality": result.lambda_cardinality,
        "strategies": result.strategies,
        "max_abs_s": result.max_abs_s,
        "reduction_note": result.reduction_note,
    }


def _qm_pair_doc(a: Setting, b: Setting) -> dict[str, Any]:
    pred = singlet_probabilities(a, b)
    return {"pair": [a.name, b.name],
            "relative_angle": pred.relative_angle,
            "probabilities": _probabilities_doc(pred.probabilities),
            "correlation": pred.correlation}


def qm_table_doc(angle_a: float, angle_b: float) -> dict[str, Any]:
    a = Setting("A", "a", angle_a)
    b = Setting("B", "b", angle_b)
    doc = {"report_version": SCHEMA_VERSION, "command": "qm-table",
           "angles": {"a": angle_a, "b": angle_b}}
    doc.update(_qm_pair_doc(a, b))
    del doc["pair"]
    return doc


def qm_chsh_doc(angles: tuple[float, float, float, float]) -> dict[str, Any]:
    settings = standard_settings(*angles)
    by_name = {s.name: s for s in settings}
    s = singlet_chsh(*settings)
    return {
        "report_version": SCHEMA_VERSION,
        "command": "qm-chsh",
        "angles": {name: float(x) for name, x in zip(SETTING_NAMES, angles)},
        "pairs": [_qm_pair_doc(by_name[p], by_name[q]) for p, q in SETTING_PAIRS],
        "s": s,
        "bell_check": _bell_doc(bell_check(s)),
    }


def qm_search_doc(grid_step: float, refine_rounds: int) -> dict[str, Any]:
    angles, best = max_violation_search(grid_step, refine_rounds)
    return {
        "report_version": SCHEMA_VERSION,
        "command": "qm-search",
        "grid_step": grid_step,
        "refine_rounds": refine_rounds,
        "angles": {name: angle for name, angle in zip(SETTING_NAMES, angles)},
        "abs_s": best,
    }
