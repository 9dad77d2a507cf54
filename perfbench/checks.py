"""Output checks that do not trust the program.

Each check reads a report document and returns a list of problems, empty
when the report is correct.  Nothing here calls bellsim: marginals come
from the scenario weights the benchmark wrote, certificates are checked
in exact rational arithmetic, and singlet values come from the closed
form -cos(a - b).

Conventions taken from bellsim's documented formats: the setting pairs in
canonical order, joint weights row-major over (lambda, lambda_a,
lambda_a', lambda_b, lambda_b'), and certificate entries ordered like the
constraint rows, grouped by pair and row-major over (lambda, lambda_p,
lambda_q) inside a group.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Any, Mapping

import numpy as np

NAMES = ("a", "a_prime", "b", "b_prime")
PAIRS = (("a", "b"), ("a", "b_prime"), ("a_prime", "b"), ("a_prime", "b_prime"))

#: Marginal-reproduction tolerance for a Feasible joint (bellsim's MARGINAL_TOL).
MARGINAL_TOL = 1e-9

#: Slack on the y^T A <= 0 side of a certificate (bellsim's CERTIFICATE_SLACK).
CERTIFICATE_SLACK = 1e-7

#: The smallest |S| a successful maximal-violation search may report.
QM_SEARCH_MIN_S = 2.8274

#: Monte Carlo S must lie within this many standard errors of the exact S.
MC_SIGMAS = 5.0

TSIRELSON_S = 2.0 * math.sqrt(2.0)

Family = Mapping[tuple[str, str], np.ndarray]


def chsh(corr: Mapping[tuple[str, str], float]) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    return (corr[("a", "b")] + corr[("a", "b_prime")] + corr[("a_prime", "b")]
            - corr[("a_prime", "b_prime")])


def singlet_s(angles: Mapping[str, float]) -> float:
    """The singlet's S at four analyzer angles, from E = -cos(a - b)."""
    return chsh({(p, q): -math.cos(angles[p] - angles[q]) for p, q in PAIRS})


def _feasibility(report: dict[str, Any], status: str) -> tuple[dict, list[str]]:
    section = report.get("analyses", {}).get("feasibility")
    if section is None:
        return {}, ["report has no feasibility analysis"]
    if section.get("status") != status:
        return section, [f"verdict {section.get('status')!r}, expected {status!r}"]
    return section, []


def check_feasible(report: dict[str, Any], family: Family,
                   cards: tuple[int, ...]) -> list[str]:
    """A Feasible verdict whose joint reproduces every family marginal
    within MARGINAL_TOL.  Any vertex of the feasible set passes."""
    section, problems = _feasibility(report, "Feasible")
    if problems:
        return problems
    joint = section["joint"]
    weights = np.asarray(joint["weights"], dtype=np.float64)
    if weights.size != math.prod(cards):
        return [f"joint has {weights.size} weights, expected {math.prod(cards)}"]
    weights = weights.reshape(cards)
    if weights.min() < 0.0:
        return [f"joint has a negative weight {weights.min()!r}"]
    residual = 0.0
    for (p, q), marginal in family.items():
        ip, iq = NAMES.index(p), NAMES.index(q)
        drop = tuple(1 + k for k in range(4) if k not in (ip, iq))
        residual = max(residual,
                       float(np.max(np.abs(weights.sum(axis=drop) - marginal))))
    if not residual <= MARGINAL_TOL:
        return [f"marginal residual {residual!r} exceeds {MARGINAL_TOL}"]
    return []


def certificate_values(certificate, family: Family, cards: tuple[int, ...]
                       ) -> tuple[Fraction, Fraction]:
    """(max over composite points of y^T A, y^T b), exactly.

    Column (lambda, v_a, v_a', v_b, v_b') of A has a one in the row of
    each pair's cell (lambda, v_p, v_q), so its y^T A is a sum of four
    certificate entries.
    """
    y: dict[tuple[str, str], np.ndarray] = {}
    ytb = Fraction(0)
    start = 0
    for p, q in PAIRS:
        marginal = family[(p, q)]
        block = [Fraction(float(v)) for v in certificate[start:start + marginal.size]]
        start += marginal.size
        ytb += sum(yi * Fraction(float(bi))
                   for yi, bi in zip(block, marginal.ravel()))
        y[(p, q)] = np.array(block, dtype=object).reshape(marginal.shape)
    best = None
    for lam in range(cards[0]):
        ab, abp = y[("a", "b")][lam], y[("a", "b_prime")][lam]
        apb, apbp = y[("a_prime", "b")][lam], y[("a_prime", "b_prime")][lam]
        for va, vap, vb, vbp in itertools.product(*(range(c) for c in cards[1:])):
            col = ab[va, vb] + abp[va, vbp] + apb[vap, vb] + apbp[vap, vbp]
            if best is None or col > best:
                best = col
    return best, ytb


def check_infeasible(report: dict[str, Any], family: Family,
                     cards: tuple[int, ...]) -> list[str]:
    """An Infeasible verdict whose certificate separates:
    max y^T A <= CERTIFICATE_SLACK < y^T b, in exact arithmetic."""
    section, problems = _feasibility(report, "Infeasible")
    if problems:
        return problems
    certificate = section["certificate"]
    rows = sum(m.size for m in family.values())
    if len(certificate) != rows:
        return [f"certificate has {len(certificate)} entries, expected {rows}"]
    max_yta, ytb = certificate_values(certificate, family, cards)
    slack = Fraction(CERTIFICATE_SLACK)
    if not max_yta <= slack < ytb:
        return [f"certificate does not separate: max y^T A = {float(max_yta)!r}, "
                f"y^T b = {float(ytb)!r}"]
    return []


def _correlations(pairs: list[dict[str, Any]], key: str
                  ) -> dict[tuple[str, str], float]:
    return {tuple(entry["pair"]): float(entry[key]) for entry in pairs}


def _mc_problem(what: str, corr: Mapping[tuple[str, str], float],
                want: float, samples: int) -> list[str]:
    # plug-in binomial standard error per pair; pairs are sampled independently
    se = math.sqrt(sum(max(0.0, 1.0 - e * e) for e in corr.values()) / samples)
    got = chsh(corr)
    if not abs(got - want) <= MC_SIGMAS * se:
        return [f"{what} S = {got!r} is {abs(got - want) / se:.1f} standard "
                f"errors from the exact {want!r}"]
    return []


def check_monte_carlo(report: dict[str, Any], want_s: float, samples: int,
                      want_comparison_s: float | None = None) -> list[str]:
    """Monte Carlo S (and, for an emulation, the comparison model's S)
    within MC_SIGMAS standard errors of the exact value."""
    analyses = report.get("analyses", {})
    section = analyses.get("correlations", {})
    estimator = section.get("estimator", {})
    if estimator.get("method") != "monte-carlo" or estimator.get("samples") != samples:
        return [f"estimator {estimator!r}, expected monte-carlo with {samples} samples"]
    problems = _mc_problem("sampled", _correlations(section["pairs"], "correlation"),
                           want_s, samples)
    if want_comparison_s is not None:
        emulation = analyses.get("emulation")
        if emulation is None:
            return problems + ["report has no emulation analysis"]
        problems += _mc_problem(
            "comparison", _correlations(emulation["pairs"], "comparison_correlation"),
            want_comparison_s, samples)
    return problems


def check_qm_search(report: dict[str, Any]) -> list[str]:
    """|S| >= QM_SEARCH_MIN_S, and the singlet S at the reported angles
    equals it."""
    got = float(report["abs_s"])
    if not got >= QM_SEARCH_MIN_S:
        return [f"search found |S| = {got!r} < {QM_SEARCH_MIN_S}"]
    at_angles = abs(singlet_s(report["angles"]))
    if not math.isclose(got, at_angles, rel_tol=1e-12):
        return [f"search reports |S| = {got!r} but the angles give {at_angles!r}"]
    return []


def check_enumerate_bound(report: dict[str, Any], cardinality: int) -> list[str]:
    """max |S| over deterministic strategies is exactly the Bell bound 2."""
    problems = []
    if report.get("strategies") != 2 ** (4 * cardinality):
        problems.append(f"strategies {report.get('strategies')!r}, "
                        f"expected {2 ** (4 * cardinality)}")
    if report.get("max_abs_s") != 2.0:
        problems.append(f"max_abs_s {report.get('max_abs_s')!r}, expected 2.0")
    return problems


def check_qm_chsh(report: dict[str, Any], angles: Mapping[str, float]) -> list[str]:
    """The singlet at (rotated) Tsirelson angles: every E = -cos(a - b),
    every probability table sums to 1, and |S| = 2 sqrt(2)."""
    problems = []
    for entry in report["pairs"]:
        p, q = entry["pair"]
        want = -math.cos(angles[p] - angles[q])
        if not abs(entry["correlation"] - want) <= 1e-12:
            problems.append(f"E({p},{q}) = {entry['correlation']!r}, expected {want!r}")
        if not abs(sum(entry["probabilities"].values()) - 1.0) <= 1e-12:
            problems.append(f"probabilities of ({p},{q}) do not sum to 1")
    if not abs(abs(report["s"]) - TSIRELSON_S) <= 1e-12:
        problems.append(f"|S| = {abs(report['s'])!r}, expected {TSIRELSON_S!r}")
    return problems
