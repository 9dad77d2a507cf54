"""Workload inputs for the bellsim benchmark.

A workload is a fixed list of ops.  An op is one call of the public entry
point ``bellsim.cli.main(argv)`` that writes its report to a file, plus a
check of that report that does not rely on bellsim's own checks (see
``checks.py``).  Every input is drawn from the workload seed; the program
only ever sees the scenario files and arguments built here.

Why the LP instances are built the way they are.  The dense phase-1
simplex with Bland's rule takes a pivot path that is chaotic in the values
inside each lambda block: a fresh ``factorized`` 4^5 draw takes anywhere
from 416 to 1412 pivots (1.3 s to 4.7 s), so one such op alone would
spread a run's wall time by ~25% from seed to seed.  The path is,
however, unchanged when a block is scaled by a positive factor.  So each
LP op draws its within-block structure (apparatus distributions,
conditional joints, sign tables and spreading weights) from a fixed
per-op structure seed, and the workload seed draws everything that
leaves the pivot path alone: the source distribution rho(lambda), which
scales the blocks, the response tables and the analyzer-angle offset.
Different seeds therefore give different scenario files and reports
with the same LP work, and the run-to-run spread measures the program
rather than the draw.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from bellsim.scenario import generate_scenario

import checks

LABELS = ("lambda", "lambda_a", "lambda_a_prime", "lambda_b", "lambda_b_prime")
NAMES = checks.NAMES

#: Monte Carlo samples per setting pair.
MC_SAMPLES = 2_000_000

WORKLOADS = ("lp-local", "lp-nonlocal", "monte-carlo", "oracle")


@dataclass(frozen=True)
class Op:
    """One timed call: ``bellsim.cli.main(argv + ["-o", out])``, then
    ``check(report)`` returns the problems found (empty when correct)."""

    label: str
    argv: tuple[str, ...]
    check: Callable[[dict[str, Any]], list[str]]


def tsirelson_angles(theta: float) -> dict[str, float]:
    """The Tsirelson configuration turned by ``theta``, reduced to [0, 2pi).

    The singlet correlations depend only on angle differences, so every
    rotation keeps |S| = 2 sqrt(2).
    """
    base = {"a": 0.0, "a_prime": math.pi / 2, "b": math.pi / 4,
            "b_prime": -math.pi / 4}
    return {k: math.fmod(v + theta + 2.0 * math.pi, 2.0 * math.pi)
            for k, v in base.items()}


def _write(path: Path, doc: dict[str, Any]) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _random_tables(rng: np.random.Generator, cards) -> dict[str, list]:
    return {name: rng.choice([-1.0, 1.0], size=(cards[0], c)).tolist()
            for name, c in zip(NAMES, cards[1:])}


def _weights(dist: dict[str, Any], shape) -> np.ndarray:
    return np.asarray(dist["weights"], dtype=np.float64).reshape(shape)


def local_scenario(template: str, cards: tuple[int, ...],
                   rng: np.random.Generator, structure_seed: int) -> dict[str, Any]:
    """A ``factorized`` or ``joint-composite`` template scenario whose
    block structure comes from ``structure_seed`` and whose rho(lambda)
    and response tables come from ``rng``.  Always Local."""
    doc = generate_scenario(template, {"seed": structure_seed, "cards": cards})
    rho = rng.dirichlet(np.ones(cards[0]))
    doc["model"]["tables"] = _random_tables(rng, cards)
    dists = doc["distributions"]
    if template == "factorized":
        dists["rho"]["weights"] = rho.tolist()
    else:
        joint = _weights(dists["joint"], (cards[0], -1))
        joint = joint / joint.sum(axis=1, keepdims=True) * rho[:, None]
        dists["joint"]["weights"] = joint.ravel().tolist()
    return doc


def nonlocal_scenario(cards: tuple[int, ...], rng: np.random.Generator,
                      structure: np.random.Generator) -> dict[str, Any]:
    """A ``SettingDependent`` scenario that is Infeasible for every draw.

    Construction.  Take the singlet's outcome probabilities at the
    Tsirelson angles turned by a random offset, P_pq(o, o') with
    P(same) = sin^2(d/2)/2 and P(different) = cos^2(d/2)/2 for the angle
    difference d.  Every apparatus value v of setting p carries a sign
    s_p(lambda, v), the entry of its response table; each row holds both
    signs.  Within each sign class, weights w_p(lambda, v) form a
    probability vector.  The marginals are

        rho_pq(lambda, v, v') = rho(lambda) P_pq(s_p(lambda, v), s_q(lambda, v'))
                                w_p(lambda, v) w_q(lambda, v').

    Summing out v' leaves rho(lambda) w_p(lambda, v) / 2 whichever q is
    paired with p, so the family is consistent, and each lambda block
    reproduces the singlet correlations: the response tables read out
    E_pq = -cos(d) and S = -2 sqrt(2).

    Why Infeasible for every seed.  If a joint over (lambda, v_a, v_a',
    v_b, v_b') returned these marginals, replacing each value by its sign
    would give, in any block with rho(lambda) > 0, a joint over the four
    binary outcomes whose pair marginals are the singlet's.  Four +-1
    variables on one probability space satisfy |S| <= 2 (Fine's theorem),
    but the singlet has |S| = 2 sqrt(2).  rho is a Dirichlet draw, so
    every block has positive weight.  The LP certificate of this gap has
    y^T b = 4 (sqrt(2) - 1) = 1.657.

    ``structure`` draws the signs and spreading weights, ``rng`` draws
    rho(lambda) and the angle offset.  Needs each apparatus cardinality
    to be at least 2.
    """
    if min(cards[1:]) < 2:
        raise ValueError("apparatus spaces need at least two values")
    angles = tsirelson_angles(rng.uniform(0.0, 2.0 * math.pi))
    rho = rng.dirichlet(np.ones(cards[0]))
    signs, spread = {}, {}
    for name, c in zip(NAMES, cards[1:]):
        base = np.where(np.arange(c) < (c + 1) // 2, 1.0, -1.0)
        s = np.array([structure.permutation(base) for _ in range(cards[0])])
        w = np.zeros_like(s)
        for i in range(cards[0]):
            for sign in (1.0, -1.0):
                cls = np.flatnonzero(s[i] == sign)
                w[i, cls] = structure.dirichlet(np.ones(cls.size))
        signs[name], spread[name] = s, w
    marginals = {}
    for p, q in checks.PAIRS:
        d = angles[p] - angles[q]
        same, diff = math.sin(d / 2) ** 2 / 2, math.cos(d / 2) ** 2 / 2
        prob = np.where(signs[p][:, :, None] == signs[q][:, None, :], same, diff)
        m = (rho[:, None, None] * prob * spread[p][:, :, None]
             * spread[q][:, None, :])
        marginals[f"{p}|{q}"] = {
            "domain": ["lambda", f"lambda_{p}", f"lambda_{q}"],
            "weights": m.ravel().tolist()}
    return {
        "schema_version": 1,
        "description": "singlet-witness marginals spread over random "
                       "apparatus values; admits no joint distribution",
        "spaces": [{"label": lbl, "values": [str(k) for k in range(c)]}
                   for lbl, c in zip(LABELS, cards)],
        "settings": angles,
        "model": {"kind": "ApparatusDeterministic",
                  "spaces": dict(zip(("source",) + NAMES, LABELS)),
                  "tables": {name: signs[name].tolist() for name in NAMES}},
        "distributions": {"mode": "SettingDependent", "marginals": marginals},
        "run": {"estimator": {"method": "exact"},
                "analyses": ["correlations", "chsh", "bell-check",
                             "feasibility"]},
    }


def family_of(doc: dict[str, Any]) -> dict[tuple[str, str], np.ndarray]:
    """The setting-pair marginals a scenario document defines, computed
    here from its weights: arrays (lambda, lambda_p, lambda_q)."""
    cards = tuple(len(s["values"]) for s in doc["spaces"])
    dists = doc["distributions"]
    mode = dists["mode"]
    family = {}
    for p, q in checks.PAIRS:
        ip, iq = NAMES.index(p), NAMES.index(q)
        if mode == "SettingDependent":
            family[(p, q)] = _weights(dists["marginals"][f"{p}|{q}"],
                                      (cards[0], cards[1 + ip], cards[1 + iq]))
        elif mode == "FactorizedApparatus":
            rho = np.asarray(dists["rho"]["weights"])
            ap = np.asarray(dists["apparatus"][p]["weights"])
            aq = np.asarray(dists["apparatus"][q]["weights"])
            family[(p, q)] = rho[:, None, None] * ap[None, :, None] * aq[None, None, :]
        else:
            joint = _weights(dists["joint"], cards)
            drop = tuple(1 + k for k in range(4) if k not in (ip, iq))
            family[(p, q)] = joint.sum(axis=drop)
    return family


def exact_s(doc: dict[str, Any], comparison: bool = False) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b') of a scenario, summed
    here from its tables and weights (``comparison`` selects the
    stochastic comparison model of an emulation scenario)."""
    dists = doc["distributions"]
    if comparison:
        rho = np.asarray(dists["rho"]["weights"])
        tables = doc["comparison_model"]["tables"]
        mean = {n: 2.0 * np.asarray(tables[n]) - 1.0 for n in NAMES}
        corr = {pq: float(np.sum(rho * mean[pq[0]] * mean[pq[1]]))
                for pq in checks.PAIRS}
        return checks.chsh(corr)
    tables = {n: np.asarray(t, dtype=np.float64)
              for n, t in doc["model"]["tables"].items()}
    corr = {}
    if dists["mode"] == "FactorizedApparatus":
        rho = np.asarray(dists["rho"]["weights"])
        mean = {n: tables[n] @ np.asarray(dists["apparatus"][n]["weights"])
                for n in NAMES}
        for p, q in checks.PAIRS:
            corr[(p, q)] = float(np.sum(rho * mean[p] * mean[q]))
    else:
        for (p, q), m in family_of(doc).items():
            corr[(p, q)] = float(np.sum(m * tables[p][:, :, None]
                                        * tables[q][:, None, :]))
    return checks.chsh(corr)


def _lp_op(label: str, path: str, doc: dict[str, Any], feasible: bool) -> Op:
    family = family_of(doc)
    cards = tuple(len(s["values"]) for s in doc["spaces"])
    if feasible:
        check = lambda rep: checks.check_feasible(rep, family, cards)
    else:
        check = lambda rep: checks.check_infeasible(rep, family, cards)
    return Op(label, ("run", path), check)


def _mc_op(label: str, path: str, doc: dict[str, Any]) -> Op:
    want = exact_s(doc)
    want_cmp = exact_s(doc, comparison=True) if "comparison_model" in doc else None
    return Op(label, ("run", path),
              lambda rep: checks.check_monte_carlo(rep, want, MC_SAMPLES, want_cmp))


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """Write the workload's scenario files under ``workdir`` and return
    its ops in pass order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    ops: list[Op] = []
    if workload == "lp-local":
        # largest rung first: once its big temporaries are freed, the
        # allocator serves the smaller ops from the heap, in every pass alike
        for cards in ((4,) * 5, (2, 4, 4, 4, 4), (3,) * 5):
            for template in ("factorized", "joint-composite"):
                label = f"run:{template}:{'x'.join(map(str, cards))}"
                doc = local_scenario(template, cards, rng, structure_seed=1)
                path = _write(workdir / f"{label.replace(':', '_')}.scenario", doc)
                ops.append(_lp_op(label, path, doc, feasible=True))
    elif workload == "lp-nonlocal":
        # two structure draws at the larger rungs; an odd op count keeps
        # the median op inside the 2x4^4 group
        for cards, structure_seeds in (((4,) * 5, (1, 2)),
                                       ((2, 4, 4, 4, 4), (1, 2)),
                                       ((3,) * 5, (1,))):
            for k in structure_seeds:
                label = f"run:nonlocal:{'x'.join(map(str, cards))}:{k}"
                doc = nonlocal_scenario(cards, rng, np.random.default_rng(k))
                path = _write(workdir / f"{label.replace(':', '_')}.scenario", doc)
                ops.append(_lp_op(label, path, doc, feasible=False))
    elif workload == "monte-carlo":
        # the witness template always builds a 1x2^4 family
        for template, cards in (("setting-dependent-witness", (1, 2, 2, 2, 2)),
                                ("factorized", (2,) * 5),
                                ("stochastic-equivalent", (8,) * 5)):
            params = {"seed": int(rng.integers(2**31)), "cards": cards,
                      "estimator": "monte-carlo", "samples": MC_SAMPLES,
                      "mc_seed": int(rng.integers(2**31))}
            if template == "setting-dependent-witness":
                params["angles"] = tuple(
                    tsirelson_angles(rng.uniform(0.0, 2.0 * math.pi)).values())
            doc = generate_scenario(template, params)
            label = f"run-mc:{template}:{'x'.join(map(str, cards))}"
            path = _write(workdir / f"{label.replace(':', '_')}.scenario", doc)
            ops.append(_mc_op(label, path, doc))
    elif workload == "oracle":
        angles = tsirelson_angles(rng.uniform(0.0, 2.0 * math.pi))
        ops.append(Op("qm-search:0.2:3",
                      ("qm", "search", "--grid-step", "0.2", "--refine-rounds", "3"),
                      checks.check_qm_search))
        ops.append(Op("enumerate-bound:6", ("enumerate-bound", "6"),
                      lambda rep: checks.check_enumerate_bound(rep, 6)))
        ops.append(Op("qm-chsh:tsirelson",
                      ("qm", "chsh", *(repr(angles[n]) for n in NAMES)),
                      lambda rep: checks.check_qm_chsh(rep, angles)))
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return ops
