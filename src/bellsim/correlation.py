"""Correlation functions, the CHSH combination, and both evaluation paths.

Every (model, distribution-mode, setting-pair) combination reduces to an
outcome decomposition: a flat list of cells, each carrying a nonnegative
weight and a joint-outcome code in {0,1,2,3} for (++, +-, -+, --).  Exact
probabilities are the per-code weight sums.  Monte Carlo estimation draws
the code counts of N inverse-CDF draws against the same four sums, which
follow Multinomial(N, p) whatever the cell order, by exact dyadic
splitting of [0, 1) on popcounts of raw PCG64 bits, without drawing the
uniforms (``_kernels.mc_outcome_counts``).  The cell order is the
row-major order of the underlying grid, which makes reports reproducible
bit for bit.

Supported combinations:

  SourceOnly           DeterministicSource, StochasticSource, Contextual
  SettingDependent     the source kinds (marginals over lambda) and
                       ApparatusDeterministic (marginals over
                       (lambda, lambda_p, lambda_q))
  FactorizedApparatus  ApparatusDeterministic
  JointComposite       ApparatusDeterministic

Randomness contract: Monte Carlo uses numpy's PCG64.  The generator for
setting pair k (in canonical pair order) is seeded with
SeedSequence(entropy=seed, spawn_key=(k,)), so per-pair streams are
independent of each other and of any future sharding, and identical
inputs give bit-identical reports on every platform and backend.  An
emulation counts both models in one kernel call, each model's pair k on
pair k's seed sequence, and the comparison rows replay the split paths
of the primary rows while they agree; each model gets the counts of a
report of it alone, so models with equal code masses get equal counts.

Each apparatus mode holds one setting-pair family, read by
``feasibility``: ``marginals`` rho_pq on five ``spaces``, and a
``witness`` joint (None on SettingDependent).  An ApparatusDeterministic
model is checked against ``spaces`` once a report, before any family is
built; the correlations then read ``marginals`` under SettingDependent
and FactorizedApparatus, and sum a JointComposite joint cell by cell.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import (
    StreamDraws,
    chsh_strategy_max,
    mc_outcome_counts,
    outcome_cell_sums,
)
from .errors import CorrelationError, IncompatibleModeModel, work_limit_detail
from .models import (
    ApparatusDeterministic,
    Contextual,
    DeterministicSource,
    ResponseModel,
    Setting,
    StochasticSource,
)
from .spaces import (
    SETTING_NAMES,
    SETTING_PAIRS,
    Distribution,
    FiveSpaces,
    marginalize,
    on_five_axes,
    pair_key,
    product_distribution,
    validate_distribution,
)

#: |S| may exceed 2 by at most this before counting as a violation.
BELL_BOUND_TOL = 1e-9

#: Slack for probability-vector and correlation range checks.
PROB_TOL = 1e-9
CORRELATION_RANGE_TOL = 1e-12

#: Exhaustive enumeration refuses above this many strategy combinations
#: (2^(4n) at source cardinality n, so n <= 6 by default).
DEFAULT_ENUM_WORK_LIMIT = 2**24

#: Monte Carlo refuses more samples per setting pair than this, so that a
#: report ends in bounded time.  Through the CLI on a 2-vCPU x86-64
#: container, 10^9 per pair took 0.49-0.52 s on a factorized 2^5
#: scenario, 0.86-0.87 s at 8^5, and 0.79-0.80 s for an 8^5 emulation,
#: whose comparison model replays the model's split paths.  Against three
#: edges the counter reads about 3.5 raw bits a draw, where drawing the
#: uniform would take 64.
MAX_SAMPLES = 10**9


# ---------------------------------------------------------------------------
# Scenario distribution modes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceOnly:
    """A single setting-independent source distribution over lambda."""

    rho: Distribution

    mode = "SourceOnly"

    def __post_init__(self) -> None:
        validate_distribution(self.rho)


@dataclass(frozen=True)
class SettingDependent:
    """One distribution per setting pair.

    For source-only model kinds the marginals live on (lambda,); for the
    apparatus kind they live on (lambda, lambda_p, lambda_q) and form the
    setting-pair marginal family of the feasibility analysis.  This is the
    escape hatch that a setting-independent source distribution closes:
    nothing here forces the four marginals to be consistent.
    """

    marginals: Mapping[tuple[str, str], Distribution]

    mode = "SettingDependent"
    witness = None

    def __post_init__(self) -> None:
        marginals = {pair_key(*k): v for k, v in self.marginals.items()}
        if len(marginals) < len(self.marginals):
            raise CorrelationError(
                f"two marginals for one setting pair, got {sorted(self.marginals)}")
        if set(marginals) != set(SETTING_PAIRS):
            raise CorrelationError(
                f"need one marginal per setting pair {SETTING_PAIRS}, "
                f"got {sorted(marginals)}")
        for dist in marginals.values():
            validate_distribution(dist)
        object.__setattr__(self, "marginals", marginals)

    def marginal(self, p: str, q: str) -> Distribution:
        return self.marginals[pair_key(p, q)]

    @property
    def spaces(self) -> FiveSpaces:
        """The five spaces of an apparatus-kind family, read off the
        (a, b), (a, b') and (a', b) marginals.  Raises
        CorrelationError unless every marginal lives on
        (lambda, lambda_p, lambda_q) of these spaces."""
        domains = [self.marginals[pair].domain for pair in SETTING_PAIRS]
        if all(len(d) == 3 for d in domains):
            (lam, a, b), (_, _, b_prime), (_, a_prime, _), _ = domains
            spaces = FiveSpaces(lam, a, a_prime, b, b_prime)
            if all(d == (lam, spaces.for_setting(p), spaces.for_setting(q))
                   for (p, q), d in zip(SETTING_PAIRS, domains)):
                return spaces
        raise CorrelationError(
            "setting-pair marginals need domains (lambda, lambda_p, lambda_q) "
            f"over one set of five spaces, got "
            f"{[self.marginals[pair].labels for pair in SETTING_PAIRS]}")


@dataclass(frozen=True)
class FactorizedApparatus:
    """Source distribution plus one independent apparatus distribution per
    setting: the factorized case."""

    rho: Distribution
    apparatus: Mapping[str, Distribution]

    mode = "FactorizedApparatus"

    def __post_init__(self) -> None:
        validate_distribution(self.rho)
        apparatus = dict(self.apparatus)
        for name in SETTING_NAMES:
            if name not in apparatus:
                raise CorrelationError(
                    f"missing apparatus distribution for {name!r}")
            validate_distribution(apparatus[name])
        if len(apparatus) > len(SETTING_NAMES):
            raise CorrelationError(
                f"apparatus distributions for unknown settings "
                f"{sorted(set(apparatus) - set(SETTING_NAMES))}")
        object.__setattr__(self, "apparatus", apparatus)

    @property
    def spaces(self) -> FiveSpaces:
        """The spaces of rho and the apparatus parts in setting order.
        Raises CorrelationError unless every part lives on one space."""
        parts = [self.rho] + [self.apparatus[name] for name in SETTING_NAMES]
        if all(len(part.domain) == 1 for part in parts):
            return FiveSpaces(*(part.domain[0] for part in parts))
        raise CorrelationError(
            "FactorizedApparatus distributions need one space each, got "
            f"{[part.labels for part in parts]}")

    @cached_property
    def marginals(self) -> dict[tuple[str, str], Distribution]:
        """The products rho(lambda) rho_p(lambda_p) rho_q(lambda_q) per
        pair, unvalidated: three parts each within the normalization
        tolerance of 1 may give a product that is not."""
        return {(p, q): product_distribution(
                    [self.rho, self.apparatus[p], self.apparatus[q]])
                for p, q in SETTING_PAIRS}

    @property
    def witness(self) -> Distribution:
        """The five-factor product joint."""
        return product_distribution(
            [self.rho] + [self.apparatus[name] for name in SETTING_NAMES])


@dataclass(frozen=True)
class JointComposite:
    """One joint distribution over all five spaces (the composite variable)."""

    joint: Distribution

    mode = "JointComposite"

    def __post_init__(self) -> None:
        validate_distribution(self.joint)
        if len(self.joint.domain) != 5:
            raise CorrelationError(
                f"composite joint needs a five-space domain, got {self.joint.labels}")

    @property
    def spaces(self) -> FiveSpaces:
        return FiveSpaces(*self.joint.domain)

    @cached_property
    def marginals(self) -> dict[tuple[str, str], Distribution]:
        """The four setting-pair marginals of the joint."""
        spaces = self.spaces
        return {(p, q): marginalize(self.joint, (spaces.lam, spaces.for_setting(p),
                                                 spaces.for_setting(q)))
                for p, q in SETTING_PAIRS}

    @property
    def witness(self) -> Distribution:
        return self.joint


ScenarioDistributions = SourceOnly | SettingDependent | FactorizedApparatus | JointComposite


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BellVerdict:
    """Outcome of the bound check on a CHSH value."""

    s: float
    satisfied: bool
    excess: float

    @property
    def label(self) -> str:
        return "Satisfied" if self.satisfied else "Violated"


@dataclass(frozen=True)
class PairCorrelation:
    """Probabilities and correlation for one setting pair."""

    pair: tuple[str, str]
    probabilities: tuple[float, float, float, float]
    correlation: float
    standard_error: float | None = None


@dataclass(frozen=True)
class EstimatorInfo:
    method: str
    samples: int | None = None
    seed: int | None = None


@dataclass(frozen=True)
class CorrelationReport:
    """Per-pair outcome probabilities, correlations, S, and the verdict."""

    pairs: tuple[PairCorrelation, ...]
    s: float
    bound: BellVerdict
    estimator: EstimatorInfo

    def pair(self, p: str, q: str) -> PairCorrelation:
        key = pair_key(p, q)
        for pc in self.pairs:
            if pc.pair == key:
                return pc
        raise CorrelationError(f"no pair ({p!r}, {q!r}) in report")


@dataclass(frozen=True)
class BoundEnumeration:
    """Result of the exhaustive deterministic-strategy search."""

    lambda_cardinality: int
    strategies: int
    max_abs_s: float
    reduction_note: str


# ---------------------------------------------------------------------------
# Elementary operations
# ---------------------------------------------------------------------------


def correlation_from_probabilities(p_pp: float, p_pm: float, p_mp: float,
                                   p_mm: float) -> float:
    """E = p_++ + p_-- - p_+- - p_-+ for one setting pair."""
    probs = (p_pp, p_pm, p_mp, p_mm)
    for value in probs:
        if value < -PROB_TOL:
            raise CorrelationError(f"negative probability {value!r}")
    total = math.fsum(probs)
    if abs(total - 1.0) > PROB_TOL:
        raise CorrelationError(f"probabilities sum to {total!r}, expected 1")
    return p_pp + p_mm - p_pm - p_mp


def chsh(e_ab: float, e_ab_prime: float, e_a_prime_b: float,
         e_a_prime_b_prime: float) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    for value in (e_ab, e_ab_prime, e_a_prime_b, e_a_prime_b_prime):
        if abs(value) > 1.0 + CORRELATION_RANGE_TOL:
            raise CorrelationError(f"correlation {float(value)!r} lies outside [-1, 1]")
    return e_ab + e_ab_prime + e_a_prime_b - e_a_prime_b_prime


def bell_check(s: float) -> BellVerdict:
    """Satisfied iff |s| <= 2 + 1e-9; excess is the overshoot when violated."""
    excess = abs(s) - 2.0
    if excess <= BELL_BOUND_TOL:
        return BellVerdict(s=s, satisfied=True, excess=0.0)
    return BellVerdict(s=s, satisfied=False, excess=excess)


# ---------------------------------------------------------------------------
# Outcome decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OutcomeDecomposition:
    """Flat cells with probability weights and joint-outcome codes."""

    weights: np.ndarray
    codes: np.ndarray


def _codes_from_signs(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    return ((f < 0.0).astype(np.uint8) << 1 | (g < 0.0).astype(np.uint8)).reshape(-1)


def _source_weights(model, dists, pair_names) -> np.ndarray:
    """The lambda distribution driving a source-only model."""
    if isinstance(dists, SourceOnly):
        rho = dists.rho
    elif isinstance(dists, SettingDependent):
        rho = dists.marginals[pair_names]
    else:
        raise IncompatibleModeModel(dists.mode, model.kind)
    if rho.domain != (model.lam,):
        raise CorrelationError(
            f"distribution domain {rho.labels} does not match the model's "
            f"source space {model.lam.label!r}")
    return rho.flat


def _outcome_decomposition(model: ResponseModel, dists: ScenarioDistributions,
                           p: Setting, q: Setting) -> OutcomeDecomposition:
    """Reduce (model, distributions, pair) to weighted outcome cells.  An
    apparatus model's mode must already share its five spaces."""
    pair_names = (p.name, q.name)

    if isinstance(model, DeterministicSource):
        w = _source_weights(model, dists, pair_names)
        f = model.tables[p.name]
        g = model.tables[q.name]
        return OutcomeDecomposition(w, _codes_from_signs(f, g))

    if isinstance(model, Contextual):
        w = _source_weights(model, dists, pair_names)
        f = model.response_vector(p, q)
        g = model.response_vector(q, p)
        return OutcomeDecomposition(w, _codes_from_signs(f, g))

    if isinstance(model, StochasticSource):
        rho = _source_weights(model, dists, pair_names)
        pf = model.tables[p.name]
        pg = model.tables[q.name]
        cells = np.stack([pf * pg, pf * (1.0 - pg), (1.0 - pf) * pg,
                          (1.0 - pf) * (1.0 - pg)], axis=1)
        weights = (rho[:, None] * cells).reshape(-1)
        codes = np.tile(np.arange(4, dtype=np.uint8), rho.shape[0])
        return OutcomeDecomposition(weights, codes)

    if isinstance(model, ApparatusDeterministic):
        if isinstance(dists, JointComposite):
            # cell by cell over the joint: summing its marginals instead
            # would add in another order and may change report bits
            f_grid, g_grid = (np.broadcast_to(on_five_axes(model.tables[s.name], (s.name,)),
                                              dists.joint.shape) for s in (p, q))
            return OutcomeDecomposition(dists.joint.flat,
                                        _codes_from_signs(f_grid, g_grid))
        f_grid, g_grid = np.broadcast_arrays(model.tables[p.name][:, :, None],
                                             model.tables[q.name][:, None, :])
        return OutcomeDecomposition(dists.marginals[pair_names].flat,
                                    _codes_from_signs(f_grid, g_grid))

    raise IncompatibleModeModel(dists.mode, getattr(model, "kind", type(model).__name__))


def _decompositions(model: ResponseModel, dists: ScenarioDistributions,
                    pairs) -> list[OutcomeDecomposition]:
    """Each pair's outcome decomposition.  An apparatus model is first
    checked against its mode once, by the five spaces they share, before
    any pair family is built."""
    if isinstance(model, ApparatusDeterministic):
        if not isinstance(dists, (SettingDependent, FactorizedApparatus,
                                  JointComposite)):
            raise IncompatibleModeModel(dists.mode, model.kind)
        if dists.spaces != model.spaces:
            mode_spaces, model_spaces = (
                tuple(f"{s.label}:{s.cardinality}" for s in spaces)
                for spaces in (dists.spaces, model.spaces))
            raise CorrelationError(
                f"{dists.mode} distributions live on {mode_spaces}, "
                f"expected {model_spaces}")
    return [_outcome_decomposition(model, dists, p, q) for p, q in pairs]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _ordered_pairs(settings) -> tuple[tuple[Setting, Setting], ...]:
    by_name = {s.name: s for s in settings}
    if sorted(s.name for s in settings) != sorted(SETTING_NAMES):
        raise CorrelationError(
            f"need the four canonical settings, got {sorted(by_name)}")
    return tuple((by_name[p], by_name[q]) for p, q in SETTING_PAIRS)


def _report_from_pair_probs(per_pair, estimator: EstimatorInfo) -> CorrelationReport:
    """The report of per-pair outcome probabilities.  A Monte Carlo
    estimator adds each pair's plug-in binomial standard error
    sqrt((1 - E^2)/samples)."""
    pairs = []
    correlations = []
    for (p, q), probs in per_pair:
        e = correlation_from_probabilities(*probs)
        se = (None if estimator.samples is None
              else math.sqrt(max(0.0, 1.0 - e * e) / estimator.samples))
        pairs.append(PairCorrelation(pair=(p.name, q.name), probabilities=probs,
                                     correlation=e, standard_error=se))
        correlations.append(e)
    s = chsh(*correlations)
    return CorrelationReport(pairs=tuple(pairs), s=s, bound=bell_check(s),
                             estimator=estimator)


def exact_report(model: ResponseModel, dists: ScenarioDistributions,
                 settings) -> CorrelationReport:
    """Exact probabilities and correlations for all four setting pairs."""
    pairs = _ordered_pairs(settings)
    per_pair = []
    for pair, dec in zip(pairs, _decompositions(model, dists, pairs)):
        sums = outcome_cell_sums(dec.weights, dec.codes)
        probs = (float(sums[0]), float(sums[1]), float(sums[2]), float(sums[3]))
        per_pair.append((pair, probs))
    return _report_from_pair_probs(per_pair, EstimatorInfo(method="exact"))


def monte_carlo_report(model: ResponseModel, dists: ScenarioDistributions,
                       settings, samples: int, seed: int) -> CorrelationReport:
    """Estimate the report by sampling outcome cells.

    Per pair k the stream is PCG64 seeded with SeedSequence(seed,
    spawn_key=(k,)).  The counts of ``samples`` inverse-CDF draws against
    the pair's four code masses are drawn from its raw bits by dyadic
    splitting (``mc_outcome_counts``), with integer arithmetic only, so
    report bytes do not depend on BLAS, libm or the CPU.  An emulation
    counts both models' pairs in one kernel call (``_monte_carlo_reports``),
    and gets this report of each model.

    Every pair's decomposition is built first, and the kernel is called
    once for all pairs.  Memory is bounded by the kernel's 512 KiB chunk,
    and time by ``MAX_SAMPLES`` per pair.  A negative seed is refused
    before any stream is built.
    """
    return _monte_carlo_reports([(model, dists)], settings, samples, seed)[0]


def _monte_carlo_reports(models: list[tuple[ResponseModel, ScenarioDistributions]],
                         settings, samples: int, seed: int) -> list[CorrelationReport]:
    """The ``monte_carlo_report`` of each (model, distributions) of
    ``models``, all counted in one ``mc_outcome_counts`` call: each model's
    pairs in turn, pair k on seed sequence k whatever the model, so rows
    of one pair replay one split path."""
    if samples < 1:
        raise CorrelationError("sample count must be at least 1")
    if samples > MAX_SAMPLES:
        raise CorrelationError(work_limit_detail(samples, MAX_SAMPLES))
    if seed < 0:
        raise CorrelationError(f"seed must be nonnegative, got {int(seed)}")
    pairs = _ordered_pairs(settings)
    decs = [dec for model, dists in models
            for dec in _decompositions(model, dists, pairs)]
    streams = [np.random.SeedSequence(entropy=seed, spawn_key=(k,))
               for k in range(len(pairs))]
    counts = mc_outcome_counts([dec.weights for dec in decs],
                               [dec.codes for dec in decs],
                               StreamDraws(streams * len(models), samples))
    estimator = EstimatorInfo(method="monte-carlo", samples=samples, seed=seed)
    return [_report_from_pair_probs(
                [(pair, tuple(float(c) / samples for c in row))
                 for pair, row in zip(pairs, rows)], estimator)
            for rows in counts.reshape(len(models), len(pairs), 4).tolist()]


# ---------------------------------------------------------------------------
# Exhaustive bound enumeration
# ---------------------------------------------------------------------------

_REDUCTION_NOTE = (
    "S is affine in the source distribution, so its maximum over the "
    "probability simplex is attained at a vertex; enumerating point-mass "
    "distributions is therefore exhaustive over all distributions."
)


def enumerate_bound(lambda_cardinality: int,
                    work_limit: int = DEFAULT_ENUM_WORK_LIMIT) -> BoundEnumeration:
    """Maximum |S| over every deterministic source-only strategy.

    Covers all 2^(4n) response-table assignments (two settings per side)
    on an n-point source space together with every point-mass source
    distribution: Bob's two tables are enumerated, and Alice's two are
    maximised in closed form at each point (``chsh_strategy_max``).
    ``work_limit`` caps the 2^(4n) strategies covered.
    """
    if lambda_cardinality < 1:
        raise CorrelationError("source cardinality must be at least 1")
    bits = 4 * lambda_cardinality
    # 2**bits > work_limit exactly when bits reaches the limit's bit length,
    # so a refused count is never formed, and printed only when it is short
    if bits >= max(work_limit, 0).bit_length():
        raise CorrelationError(work_limit_detail(
            2 ** bits if bits <= 64 else f"2**{bits}", work_limit))
    strategies = 2 ** bits
    max_abs_s = float(chsh_strategy_max(lambda_cardinality))
    return BoundEnumeration(
        lambda_cardinality=lambda_cardinality,
        strategies=strategies,
        max_abs_s=max_abs_s,
        reduction_note=_REDUCTION_NOTE,
    )
