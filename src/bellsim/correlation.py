"""Correlation functions, the CHSH combination, and both evaluation paths.

Every (model, distribution-mode, setting-pair) combination reduces to one
outcome decomposition, each side's p(+1) on its weight grid (a +-1
response has p(+1) in {0, 1}): the four masses of the joint-outcome
codes 0-3, (++, +-, -+, --).  Each mass accumulates grid point by grid
point in the grid's row-major order, which makes reports reproducible
bit for bit.  Exact probabilities are the four masses.  Monte Carlo
estimation draws the code counts of N inverse-CDF draws against them,
which follow Multinomial(N, p), by exact dyadic splitting of [0, 1) on
popcounts of raw PCG64 bits, without drawing the uniforms
(``_kernels.mc_code_counts``).

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
independent of each other, and identical inputs give bit-identical
reports on every platform and backend.  An emulation counts both models
in one kernel call, each model's pair k on pair k's seed sequence, and
the comparison rows replay the split paths of the primary rows while
they agree; each model gets the counts of a report of it alone, so
models with equal code masses get equal counts.

Each apparatus mode holds one setting-pair family, read by
``feasibility``: ``marginals`` rho_pq on five ``spaces``, and a
``witness`` joint (None on SettingDependent).  ``check_fit``, which the
reports, the scenario parser and ``check_joint_existence`` call, refuses
a model that does not fit its mode, by kind (the table above) or by
spaces, before any family is built.  The correlations then read
``marginals`` under every mode, so a JointComposite joint is summed into
its four pair marginals once, and correlations and feasibility both read
them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import StreamDraws, mc_code_counts
from .errors import CorrelationError, work_limit_detail
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
    pair_key,
    product_distribution,
    validate_distribution,
)

#: |S| may exceed 2 by at most this before counting as a violation.
BELL_BOUND_TOL = 1e-9

#: A Monte Carlo estimate reads Violated only past the margin at which a
#: model with |S| <= 2 gets there with probability at most this.
BELL_TEST_ALPHA = 1e-6

#: Slack for probability-vector and correlation range checks.
PROB_TOL = 1e-9
CORRELATION_RANGE_TOL = 1e-12

#: The largest source cardinality n that ``enumerate_bound`` takes: the
#: last whose 2^(4n) strategies have at most 640 decimal digits, the lowest
#: int-to-str limit CPython accepts (``sys.int_info.str_digits_check_threshold``),
#: so every report renders whatever limit the interpreter runs with.
MAX_ENUM_CARDINALITY = 531

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
        for k in self.marginals:
            if not (isinstance(k, tuple) and len(k) == 2 and set(k) <= set(SETTING_NAMES)):
                raise CorrelationError(f"marginal key {k!r} is not a pair of setting names")
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
        (lambda, lambda_p, lambda_q) of these spaces, five distinct labels."""
        domains = [self.marginals[pair].domain for pair in SETTING_PAIRS]
        if all(len(d) == 3 for d in domains):
            (lam, a, b), (_, _, b_prime), (_, a_prime, _), _ = domains
            spaces = FiveSpaces(lam, a, a_prime, b, b_prime)
            if all(d == (lam, spaces.for_setting(p), spaces.for_setting(q))
                   for (p, q), d in zip(SETTING_PAIRS, domains)):
                if len({s.label for s in spaces}) == 5:  # ``marginalize`` reads labels
                    return spaces
                raise CorrelationError("setting-pair marginals need five distinct space "
                                       f"labels, got {tuple(s.label for s in spaces)}")
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
        # ``marginalize`` finds a space by its label
        if len(set(self.joint.labels)) < 5:
            raise CorrelationError(
                f"composite joint needs five distinct space labels, got {self.joint.labels}")

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
    """The deterministic-strategy bound and the strategies it covers."""

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
    if not abs(total - 1.0) <= PROB_TOL:  # also refuses NaN
        raise CorrelationError(f"probabilities sum to {total!r}, expected 1")
    return p_pp + p_mm - p_pm - p_mp


def chsh(e_ab: float, e_ab_prime: float, e_a_prime_b: float,
         e_a_prime_b_prime: float) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b')."""
    for value in (e_ab, e_ab_prime, e_a_prime_b, e_a_prime_b_prime):
        if not abs(value) <= 1.0 + CORRELATION_RANGE_TOL:  # also refuses NaN
            raise CorrelationError(f"correlation {float(value)!r} lies outside [-1, 1]")
    return e_ab + e_ab_prime + e_a_prime_b - e_a_prime_b_prime


def bell_check(s: float, samples: int | None = None) -> BellVerdict:
    """Satisfied iff |s| - 2 <= 1e-9, or for a Monte Carlo s of ``samples``
    draws per pair, <= sqrt(8 ln(2/alpha)/samples), Hoeffding's margin at
    alpha = ``BELL_TEST_ALPHA``; excess is the overshoot when violated.
    A non-finite s is refused."""
    if not math.isfinite(s):
        raise CorrelationError(f"CHSH value must be finite, got {float(s)!r}")
    excess = abs(s) - 2.0
    margin = (BELL_BOUND_TOL if samples is None
              else math.sqrt(8.0 * math.log(2.0 / BELL_TEST_ALPHA) / samples))
    if excess <= margin:
        return BellVerdict(s=s, satisfied=True, excess=0.0)
    return BellVerdict(s=s, satisfied=False, excess=excess)


# ---------------------------------------------------------------------------
# Outcome decomposition
# ---------------------------------------------------------------------------

#: p * _SIGNS + _SHIFTS is (p, 1 - p), exactly.
_SIGNS, _SHIFTS = np.array([1.0, -1.0]), np.array([0.0, 1.0])


def _outcome_decomposition(model: ResponseModel, dists: ScenarioDistributions,
                           p: Setting, q: Setting) -> np.ndarray:
    """The four code masses (++, +-, -+, --) of (model, distributions,
    pair), reading a +-1 table f as p(+1) = (f + 1)/2.  The model must
    already pass ``check_fit``."""
    pair_names = (p.name, q.name)
    if isinstance(model, ApparatusDeterministic):
        w = dists.marginals[pair_names].weights  # over (lambda, v_p, v_q)
        f, g = model.tables[p.name][:, :, None], model.tables[q.name][:, None, :]
    else:
        w = (dists.rho if isinstance(dists, SourceOnly) else dists.marginals[pair_names]).flat
        f, g = ((model.response_vector(p, q), model.response_vector(q, p))
                if isinstance(model, Contextual) else (model.tables[n] for n in pair_names))
    if not isinstance(model, StochasticSource):
        f, g = (f + 1.0) / 2.0, (g + 1.0) / 2.0
    f, g = f[..., None] * _SIGNS + _SHIFTS, g[..., None] * _SIGNS + _SHIFTS
    cells = f[..., :, None] * g[..., None, :]  # ++, +-, -+, -- on the last two axes
    # each code's mass accumulates grid point by grid point in row-major order
    return (w[..., None, None] * cells).reshape(-1, 4).sum(axis=0)


#: The distribution modes each model kind runs under.
_MODES_OF = {
    **dict.fromkeys((DeterministicSource, StochasticSource, Contextual),
                    (SourceOnly, SettingDependent)),
    ApparatusDeterministic: (SettingDependent, FactorizedApparatus, JointComposite),
}


def check_fit(model: ResponseModel, dists: ScenarioDistributions) -> None:
    """Refuse a model whose kind does not run under the mode ``dists``,
    an ApparatusDeterministic model whose five spaces are not the mode's,
    and a source-kind model whose source space is not the domain of every
    distribution, pairs in canonical order.  Reads no weights."""
    if not isinstance(dists, _MODES_OF.get(type(model), ())):
        kind = getattr(model, "kind", type(model).__name__)
        raise CorrelationError(f"distribution mode {dists.mode!r} is incompatible "
                               f"with model kind {kind!r}")
    if isinstance(model, ApparatusDeterministic):
        if dists.spaces != model.spaces:
            mode_spaces, model_spaces = (
                tuple(f"{s.label}:{s.cardinality}" for s in spaces)
                for spaces in (dists.spaces, model.spaces))
            raise CorrelationError(
                f"{dists.mode} distributions live on {mode_spaces}, "
                f"expected {model_spaces}")
        return
    for rho in ((dists.rho,) if isinstance(dists, SourceOnly)
                else (dists.marginals[pair] for pair in SETTING_PAIRS)):
        if rho.domain != (model.lam,):
            raise CorrelationError(
                f"distribution domain {rho.labels} does not match the model's "
                f"source space {model.lam.label!r}")


def _decompositions(model: ResponseModel, dists: ScenarioDistributions,
                    pairs) -> list[np.ndarray]:
    """Each pair's four code masses, once ``check_fit`` passes."""
    check_fit(model, dists)
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
    return CorrelationReport(pairs=tuple(pairs), s=s, estimator=estimator,
                             bound=bell_check(s, estimator.samples))


def exact_report(model: ResponseModel, dists: ScenarioDistributions,
                 settings) -> CorrelationReport:
    """Exact probabilities and correlations for all four setting pairs."""
    pairs = _ordered_pairs(settings)
    per_pair = [(pair, tuple(masses.tolist()))
                for pair, masses in zip(pairs, _decompositions(model, dists, pairs))]
    return _report_from_pair_probs(per_pair, EstimatorInfo(method="exact"))


def monte_carlo_report(model: ResponseModel, dists: ScenarioDistributions,
                       settings, samples: int, seed: int) -> CorrelationReport:
    """Estimate the report by sampling the outcome codes.

    Per pair k the stream is PCG64 seeded with SeedSequence(seed,
    spawn_key=(k,)).  The counts of ``samples`` inverse-CDF draws against
    the pair's four code masses are drawn from its raw bits by dyadic
    splitting (``mc_code_counts``), with integer arithmetic only, so
    report bytes do not depend on BLAS, libm or the CPU.  An emulation
    counts both models' pairs in one kernel call (``_monte_carlo_reports``),
    and gets this report of each model.

    Every pair's decomposition is built first, and the kernel is called
    once for all pairs.  Memory is bounded by the kernel's 512 KiB chunk,
    and time by ``MAX_SAMPLES`` per pair.  A count or seed that is not an
    integer, or a negative seed, is refused before any stream is built.
    """
    return _monte_carlo_reports([(model, dists)], settings, samples, seed)[0]


def _monte_carlo_reports(models: list[tuple[ResponseModel, ScenarioDistributions]],
                         settings, samples: int, seed: int) -> list[CorrelationReport]:
    """The ``monte_carlo_report`` of each (model, distributions) of
    ``models``, all counted in one ``mc_code_counts`` call: each model's
    pairs in turn, pair k on seed sequence k whatever the model, so rows
    of one pair replay one split path."""
    for name, value in (("sample count", samples), ("seed", seed)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise CorrelationError(f"{name} must be an integer, got {value!r}")
    samples, seed = int(samples), int(seed)  # numpy integers overflow the kernel's shifts
    if samples < 1:
        raise CorrelationError("sample count must be at least 1")
    if samples > MAX_SAMPLES:
        raise CorrelationError(work_limit_detail(samples, MAX_SAMPLES))
    if seed < 0:
        raise CorrelationError(f"seed must be nonnegative, got {seed}")
    pairs = _ordered_pairs(settings)
    masses = [row for model, dists in models for row in _decompositions(model, dists, pairs)]
    streams = [np.random.SeedSequence(entropy=seed, spawn_key=(k,))
               for k in range(len(pairs))]
    counts = mc_code_counts(masses, StreamDraws(streams * len(models), samples))
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


def enumerate_bound(lambda_cardinality: int) -> BoundEnumeration:
    """Maximum |S| over every deterministic source-only strategy.

    Covers all 2^(4n) response-table assignments (two settings per side)
    on an n-point source space together with every point-mass source
    distribution.  Under the point mass at lambda_k, E(x, y) is
    f_x(lambda_k) g_y(lambda_k), so S reads only the four table values
    at lambda_k (Clauser, Horne, Shimony and Holt, 1969).  The 16 sign
    choices (f_a, f_a', g_b, g_b') of one point thus give every value S
    takes on any strategy and point, whatever n is, and ``max_abs_s`` is
    the largest |S| among them, from ``chsh``.  n is at most
    ``MAX_ENUM_CARDINALITY``, so that the 2^(4n) count renders under any
    int-to-str digit limit CPython accepts; a refusal names n below 2^64.
    """
    if isinstance(lambda_cardinality, bool) or not isinstance(lambda_cardinality, int):
        raise CorrelationError(f"source cardinality must be an integer, "
                               f"got {type(lambda_cardinality).__name__}")
    if lambda_cardinality < 1:
        raise CorrelationError("source cardinality must be at least 1")
    if lambda_cardinality > MAX_ENUM_CARDINALITY:
        got = (lambda_cardinality if lambda_cardinality < 2 ** 64
               else f"an integer of {lambda_cardinality.bit_length()} bits")
        raise CorrelationError(f"source cardinality must be at most "
                               f"{MAX_ENUM_CARDINALITY}, got {got}")
    max_abs_s = max(abs(chsh(f_a * g_b, f_a * g_b2, f_a2 * g_b, f_a2 * g_b2))
                    for f_a, f_a2, g_b, g_b2 in itertools.product((1.0, -1.0), repeat=4))
    return BoundEnumeration(
        lambda_cardinality=lambda_cardinality,
        strategies=2 ** (4 * lambda_cardinality),
        max_abs_s=max_abs_s,
        reduction_note=_REDUCTION_NOTE,
    )
