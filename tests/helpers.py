"""Shared builders for randomized models and distributions."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from bellsim.cli import main
from bellsim.correlation import SettingDependent, SourceOnly
from bellsim.models import (
    SETTING_NAMES,
    ApparatusDeterministic,
    Contextual,
    DeterministicSource,
    StochasticSource,
    standard_settings,
)
from bellsim.qm import singlet_probabilities
from bellsim.scenario import parse_scenario, write_scenario
from bellsim.spaces import (
    SETTING_PAIRS,
    SIDE_A_NAMES,
    SIDE_B_NAMES,
    Distribution,
    FiveSpaces,
    HiddenSpace,
    on_five_axes,
)

FOUR_SETTINGS = standard_settings(0.0, np.pi / 2, np.pi / 4, -np.pi / 4)


def random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n)) if n > 1 else np.ones(1)


def random_distribution(rng, domain) -> Distribution:
    domain = tuple(domain)
    n = int(np.prod([s.cardinality for s in domain]))
    return Distribution(domain, random_weights(rng, n))


def random_signs(rng, shape) -> np.ndarray:
    return rng.choice([-1.0, 1.0], size=shape)


def random_deterministic(rng, lam_card: int) -> DeterministicSource:
    lam = HiddenSpace.of_size("lambda", lam_card)
    tables = {name: random_signs(rng, lam_card) for name in SETTING_NAMES}
    return DeterministicSource(lam, tables)


def random_stochastic(rng, lam_card: int) -> StochasticSource:
    lam = HiddenSpace.of_size("lambda", lam_card)
    tables = {name: rng.random(lam_card) for name in SETTING_NAMES}
    return StochasticSource(lam, tables)


def random_contextual(rng, lam_card: int) -> Contextual:
    lam = HiddenSpace.of_size("lambda", lam_card)
    tables = {}
    for own in SETTING_NAMES:
        remotes = SIDE_B_NAMES if own in SIDE_A_NAMES else SIDE_A_NAMES
        for remote in remotes:
            tables[(own, remote)] = random_signs(rng, lam_card)
    return Contextual(lam, tables)


def five_spaces(cards: tuple[int, int, int, int, int]) -> FiveSpaces:
    labels = ("lambda", "lambda_a", "lambda_a_prime", "lambda_b", "lambda_b_prime")
    return FiveSpaces(*(HiddenSpace.of_size(lab, c) for lab, c in zip(labels, cards)))


def random_apparatus(rng, cards) -> ApparatusDeterministic:
    spaces = five_spaces(tuple(cards))
    tables = {
        name: random_signs(
            rng, (spaces.lam.cardinality, spaces.for_setting(name).cardinality))
        for name in SETTING_NAMES
    }
    return ApparatusDeterministic(spaces, tables)


def random_apparatus_dists(rng, spaces: FiveSpaces) -> dict[str, Distribution]:
    return {
        name: random_distribution(rng, (spaces.for_setting(name),))
        for name in SETTING_NAMES
    }


def uniform_marginal_family(e_by_pair):
    """Witness-shaped family

    Singleton source, binary apparatus spaces, and per-pair outcome tables
    ((1+E)/4, (1-E)/4, (1-E)/4, (1+E)/4), so every single-side marginal is
    uniform and the pair correlation is exactly E.  Returns the family and
    the passthrough response model that realizes those correlations.
    """
    lam = HiddenSpace("lambda", ("0",))
    spaces = FiveSpaces.binary_apparatus(lam)
    tables = {name: np.array([[1.0, -1.0]]) for name in SETTING_NAMES}
    model = ApparatusDeterministic(spaces, tables)
    marginals = {}
    for p, q in SETTING_PAIRS:
        e = float(e_by_pair[(p, q)])
        probs = np.array([(1 + e) / 4, (1 - e) / 4, (1 - e) / 4, (1 + e) / 4])
        dom = (lam, spaces.for_setting(p), spaces.for_setting(q))
        marginals[(p, q)] = Distribution(dom, probs)
    return SettingDependent(marginals), model


def chsh_symmetrization_max(e_by_pair) -> float:
    """Max |S| over the eight one-sign-flip CHSH combinations."""
    e = np.array([e_by_pair[p] for p in
                  (("a", "b"), ("a", "b_prime"), ("a_prime", "b"),
                   ("a_prime", "b_prime"))])
    best = 0.0
    for flip in range(4):
        signs = np.ones(4)
        signs[flip] = -1.0
        best = max(best, abs(float(signs @ e)))
    return best


def plus_one_witness(target) -> None:
    """Write the generated setting-dependent witness (cards 1,2,2,2,2, seed
    1, exact estimator) to ``target`` with every response table set to +1.
    The tables then read S = 2 off marginals that no joint returns, so its
    feasibility analysis runs the LP and ends Infeasible."""
    assert main(["generate", "setting-dependent-witness", "--cards",
                 "1,2,2,2,2", "--seed", "1", "--estimator", "exact",
                 "-o", str(target)]) == 0
    doc = json.loads(target.read_text(encoding="utf-8"))
    doc["model"]["tables"] = {name: [[1.0, 1.0]]
                              for name in doc["model"]["tables"]}
    target.write_text(json.dumps(doc), encoding="utf-8")


def setting_dependent_copy(source, target) -> None:
    """Write the scenario file ``source`` to ``target`` with its
    distributions replaced by ``SettingDependent(mode.marginals)``, the
    four pair marginals of its mode, so that its feasibility analysis
    runs the LP."""
    doc = json.loads(source.read_text(encoding="utf-8"))
    marginals = parse_scenario(doc).distributions.marginals
    doc["distributions"] = {"mode": "SettingDependent", "marginals": {
        f"{p}|{q}": {"domain": list(marginals[p, q].labels),
                     "weights": [float(w) for w in marginals[p, q].flat]}
        for p, q in SETTING_PAIRS}}
    write_scenario(target, doc)


def bincount_masses(weights, codes) -> np.ndarray:
    """The four code masses of a cell list: ``np.bincount`` of the cell
    weights by their codes in {0,1,2,3} (++, +-, -+, --), each code's
    mass accumulated in cell order."""
    return np.bincount(np.asarray(codes, dtype=np.uint8),
                       weights=np.asarray(weights, dtype=np.float64), minlength=4)


def tiled_code_masses(model, dists, p, q) -> np.ndarray:
    """Reference for a setting pair's four code masses: a flat list of
    four outcome cells per grid point, in row-major order, each the
    point's weight times the pair's joint-outcome probability, with the
    tiled codes 0, 1, 2, 3, 0, 1, ..., summed by ``bincount_masses``."""
    names = (p.name, q.name)
    if isinstance(model, ApparatusDeterministic):
        w = dists.marginals[names].weights
        f, g = model.tables[p.name][:, :, None], model.tables[q.name][:, None, :]
    else:
        w = (dists.rho if isinstance(dists, SourceOnly) else dists.marginals[names]).flat
        f, g = ((model.response_vector(p, q), model.response_vector(q, p))
                if isinstance(model, Contextual) else (model.tables[n] for n in names))
    if not isinstance(model, StochasticSource):
        f, g = (f + 1.0) / 2.0, (g + 1.0) / 2.0
    cells = [w * (fp * gq) for fp in (f, 1.0 - f) for gq in (g, 1.0 - g)]
    weights = np.stack(np.broadcast_arrays(*cells), axis=-1).reshape(-1)
    return bincount_masses(weights, np.tile(np.arange(4), w.size))


def exact_separation(family, y):
    """(max y^T A, y^T b) of a certificate in exact rational arithmetic."""
    parts, start = [], 0
    for pair in SETTING_PAIRS:
        marginal = family.marginal(*pair)
        part = np.array([Fraction(float(v)) for v in y[start:start + marginal.size]],
                        dtype=object).reshape(marginal.shape)
        parts.append(on_five_axes(part, pair))
        start += marginal.size
    yta = parts[0] + parts[1] + parts[2] + parts[3]
    b = np.concatenate([family.marginal(p, q).flat for p, q in SETTING_PAIRS])
    return max(yta.flat), sum(Fraction(float(v)) * Fraction(float(w))
                              for v, w in zip(y, b))


def singlet_spread(rng, cards, side_a_sign=1.0):
    """Singlet marginals spread over random apparatus values, read out by
    random sign tables, with the Tsirelson angles turned by a random offset.

    Each row of a sign table holds both signs, and a value v of setting p
    carries the weight rho(lambda) P_pq(s_p(v), s_q(v')) w_p(v) w_q(v'),
    with w_p a probability vector inside each sign class.  So the tables
    read out the singlet correlations, |S| = 2 sqrt(2), in every block.
    ``side_a_sign`` = -1 negates both side-A tables, which flips the sign
    of S.  Returns the family, the model and the settings.
    """
    spaces = five_spaces(cards)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    settings = standard_settings(*(s.angle + theta for s in FOUR_SETTINGS))
    by_name = {s.name: s for s in settings}
    rho = rng.dirichlet(np.ones(cards[0]))
    signs, spread = {}, {}
    for name, c in zip(("a", "a_prime", "b", "b_prime"), cards[1:]):
        base = np.where(np.arange(c) < (c + 1) // 2, 1.0, -1.0)
        signs[name] = np.array([rng.permutation(base)
                                for _ in range(cards[0])])
        spread[name] = np.zeros_like(signs[name])
        for lam in range(cards[0]):
            for sign in (1.0, -1.0):
                cls = np.flatnonzero(signs[name][lam] == sign)
                spread[name][lam, cls] = rng.dirichlet(np.ones(cls.size))
    marginals = {}
    for p, q in SETTING_PAIRS:
        cells = np.array(singlet_probabilities(by_name[p],
                                               by_name[q]).probabilities)
        # cell index of (s_p, s_q): ++, +-, -+, --
        code = (1.0 - signs[p][:, :, None]) + (1.0 - signs[q][:, None, :]) / 2
        weights = (rho[:, None, None] * cells[code.astype(int)]
                   * spread[p][:, :, None] * spread[q][:, None, :])
        dom = (spaces.lam, spaces.for_setting(p), spaces.for_setting(q))
        marginals[(p, q)] = Distribution(dom, weights)
    tables = {name: signs[name] * (side_a_sign if name in ("a", "a_prime")
                                   else 1.0) for name in signs}
    return (SettingDependent(marginals), ApparatusDeterministic(spaces, tables),
            settings)
