"""Joint-distribution existence for the apparatus distribution modes.

A family of four distributions rho_pq(lambda, lambda_p, lambda_q) has
*local correlations* when a single joint distribution over the composite
variable (lambda, lambda_a, lambda_a', lambda_b, lambda_b') returns every
rho_pq as a marginal, and *nonlocal correlations* otherwise.
``check_joint_existence`` decides this for the family a distribution mode
induces, ``mode.marginals``.  FactorizedApparatus and JointComposite
modes are Local by construction: ``mode.witness``, the product joint or
the mode's own joint, is checked, and no LP runs (the LP decides
``SettingDependent(mode.marginals)``).

A SettingDependent family read out by an ApparatusDeterministic model
whose S breaks the Bell bound needs no LP either: no joint exists (Fine,
PRL 48, 291 (1982)), and the response tables give the Farkas certificate
in closed form (see ``_chsh_certificate``).  It is checked like any other
certificate, and it is reported when y^T b = |S| - 2 exceeds
``CERTIFICATE_SLACK``; otherwise the family goes to the LP.  For the
other SettingDependent families, existence is decided exactly (up to the
stated tolerances) as a linear feasibility problem: one nonnegative
weight per composite point, one equality per marginal cell.  Total mass 1
is implied by any marginal's normalization, and the redundancy among the
four shared lambda-marginals is left to the solver; inconsistent
marginals simply come back Infeasible.

Every marginal cell fixes a lambda value, so the full system is block
diagonal: one block per lambda, all equal to the same implicit 0/1
matrix over the apparatus points (see ``simplex``) and differing only in
their right-hand sides, the weights rho_pq(lambda, ., .).  Each block is
solved on its own by ``simplex.solve_block``, all on one ``pair_rows``
index of that matrix, built once per family.  The joint is the
concatenation of the block solutions, and the family is Infeasible
exactly when some block is.  The certificate then holds, at the rows of
each infeasible block, that block's phase-1 dual, and zeros elsewhere
(the zero vector is a valid dual of a feasible block), laid out in the
full system's row order: grouped by setting pair in canonical order,
row-major over (lambda, lambda_p, lambda_q) inside a group.  So y^T b is
the sum of the infeasible blocks' final phase-1 objectives and
y^T A <= 0 still holds column by column.

``admit`` refuses every mode of more than ``MAX_COMPOSITE_POINTS``
composite points before any family or joint is built, and a family that
reaches the LP is refused, before any block is solved, when its blocks
together hold more than ``LP_TOTAL_CELL_LIMIT`` cells of a dense tableau,
a size measure (the solver's state is (m + 1) x (m + 2) per block).  Feasible
verdicts carry the joint as found, witness or LP solution, unscaled;
Infeasible verdicts carry the certificate, reported raw, and the two
numbers of its separation check, one step for either certificate.  Both
checks are computed in a fixed order, never by a matrix product (the
residual by ``marginalize``, which also builds a JointComposite family,
so a JointComposite residual is 0.0), and a verdict that fails its check
raises :class:`FeasibilityError` instead of being returned.  A family whose
final phase-1 objective, at least its distance from locality, lies
between the solver's ``FEASIBILITY_TOL`` and ``CERTIFICATE_SLACK`` gets
neither verdict from the LP: its joint misses the marginals by more than
``MARGINAL_TOL``, and its certificate is too weak to separate.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .correlation import (BELL_BOUND_TOL, FactorizedApparatus, JointComposite,
                          ScenarioDistributions, SettingDependent, SourceOnly,
                          check_fit)
from .errors import FeasibilityError, work_limit_detail
from .models import ApparatusDeterministic, Setting
from .qm import singlet_chsh, singlet_probabilities
from .simplex import block_size, column_sums, pair_rows, solve_block
from .spaces import (
    CHSH_SIGNS,
    SETTING_NAMES,
    SETTING_PAIRS,
    Distribution,
    FiveSpaces,
    HiddenSpace,
    marginalize,
)

#: Marginal-reproduction tolerance for returned joints.
MARGINAL_TOL = 1e-9

#: Verification slack on the certificate's y^T A <= 0 side.
CERTIFICATE_SLACK = 1e-7

#: Cap on a mode's composite points, above any template's 8^5.
MAX_COMPOSITE_POINTS = 65536

#: Cap on the dense-tableau cells, (m + 1)(n + m + 1) for a lambda block of
#: m marginal cells and n apparatus points, summed over a family's blocks:
#: sixteen blocks of four eight-valued apparatus spaces, whose Local 16 x 8^4
#: family took 3.5-5.2 s through ``bellsim run`` on a 2-vCPU x86-64
#: container, and the one Local block 1 x 16^3 x 6 5.0-6.1 s in-process.
LP_TOTAL_CELL_LIMIT = 16 * (4 * 8 ** 2 + 1) * (8 ** 4 + 4 * 8 ** 2 + 1)


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Outcome of the joint-existence decision.

    ``joint`` and ``residual`` are set when Feasible: the explicit joint
    over the five spaces and its worst marginal-cell error.  ``certificate``,
    ``violation`` and ``max_yta`` are set when Infeasible: the separating
    functional (ordered like the rows of the full system, see the module
    docstring), then y^T b, the amount by which the marginals break the
    certified bound, and the max of y^T A, from ``verify_certificate``.
    """

    status: Literal["Feasible", "Infeasible"]
    joint: Distribution | None = None
    residual: float | None = None
    certificate: np.ndarray | None = None
    violation: float | None = None
    max_yta: float | None = None

    @property
    def feasible(self) -> bool:
        return self.status == "Feasible"


def marginal_residual(marginals: Mapping[tuple[str, str], Distribution],
                      joint: Distribution) -> float:
    """Largest |marginal of the joint - rho_pq| over every cell of every
    pair of ``marginals`` (keyed like a family's), pairs in canonical
    order, each marginal of the joint summed by ``marginalize``."""
    return max(float(np.max(np.abs(marginalize(joint, rho.domain).weights
                                   - rho.weights)))
               for rho in (marginals[pair] for pair in SETTING_PAIRS))


def family_spaces(dists: ScenarioDistributions) -> FiveSpaces:
    """The five spaces of the setting-pair family the mode ``dists``
    induces.  Raises :class:`FeasibilityError` for SourceOnly, which has
    none, and the mode's error when it lies on no five spaces."""
    if isinstance(dists, SourceOnly):
        raise FeasibilityError(
            f"no setting-pair marginal family for mode {dists.mode}")
    return dists.spaces


def _pair_major(family: SettingDependent) -> np.ndarray:
    """b, the marginal cells in the row order of the full system."""
    return np.concatenate([family.marginals[pair].flat for pair in SETTING_PAIRS])


def admit(spaces: FiveSpaces) -> None:
    """Refuse five spaces of more than ``MAX_COMPOSITE_POINTS`` points."""
    n = math.prod(s.cardinality for s in spaces)
    if n > MAX_COMPOSITE_POINTS:
        raise FeasibilityError(work_limit_detail(n, MAX_COMPOSITE_POINTS))


def _admit_lp(family: SettingDependent) -> None:
    """Refuse a family whose LP blocks hold more than ``LP_TOTAL_CELL_LIMIT``
    dense-tableau cells together, a size measure (the solver's state is
    (m + 1)(m + 2) per block), before any block is solved."""
    cards = [s.cardinality for s in family.spaces]
    m, n = block_size(cards[1:])
    cells = cards[0] * (m + 1) * (n + m + 1)
    if cells > LP_TOTAL_CELL_LIMIT:
        blocks = "an LP block" if cards[0] == 1 else f"{cards[0]} LP blocks"
        raise FeasibilityError(work_limit_detail(
            cells, LP_TOTAL_CELL_LIMIT,
            f"tableau cells for {blocks} of {m} rows and {n} columns"))


def _feasible_verdict(marginals: Mapping[tuple[str, str], Distribution],
                      joint: Distribution) -> FeasibilityVerdict:
    """The Feasible verdict of a joint over the five spaces of the four
    pair ``marginals``, reporting the joint as found, unscaled.

    Raises :class:`FeasibilityError` when the joint misses a marginal by
    more than ``MARGINAL_TOL``.
    """
    residual = marginal_residual(marginals, joint)
    if not residual <= MARGINAL_TOL:
        raise FeasibilityError(f"joint misses the marginals by {residual!r}, "
                               f"tolerance is {MARGINAL_TOL!r}")
    return FeasibilityVerdict(status="Feasible", joint=joint,
                              residual=residual)


def _infeasible_verdict(family: SettingDependent,
                        certificate: np.ndarray) -> FeasibilityVerdict:
    """The Infeasible verdict of ``certificate``; raises
    :class:`FeasibilityError` unless ``verify_certificate`` finds that it
    separates, max y^T A <= ``CERTIFICATE_SLACK`` < y^T b."""
    max_yta, ytb = verify_certificate(family, certificate)
    if not max_yta <= CERTIFICATE_SLACK < ytb:
        raise FeasibilityError(f"certificate does not separate: max y^T A = "
                               f"{max_yta!r}, y^T b = {ytb!r}")
    return FeasibilityVerdict(status="Infeasible", certificate=certificate,
                              violation=ytb, max_yta=max_yta)


def _chsh_certificate(family: SettingDependent,
                      model: ApparatusDeterministic) -> np.ndarray:
    """The CHSH functional of the response tables as a certificate.

    y_pq(lambda, v_p, v_q) = g sigma_pq f_p(lambda, v_p) f_q(lambda, v_q)
    - 1/2, laid out like the rows of the full system, with sigma the CHSH
    signs and g the sign of S.  Every column's y^T A is g times the CHSH
    sum of four +-1 values, minus 2, so at most 0 exactly; y^T b is
    |S| - 2.  The model must share the family's five spaces.
    """
    t = np.concatenate([
        sign * (model.tables[p][:, :, None] * model.tables[q][:, None, :]).ravel()
        for sign, (p, q) in zip(CHSH_SIGNS, SETTING_PAIRS)])
    g = 1.0 if math.fsum(t * _pair_major(family)) >= 0.0 else -1.0
    return g * t - 0.5


def check_joint_existence(dists: SettingDependent | FactorizedApparatus
                          | JointComposite,
                          model: ApparatusDeterministic | None = None
                          ) -> FeasibilityVerdict:
    """Decide whether a joint over the composite variable returns every
    marginal of the family the mode ``dists`` induces, and produce the
    witness either way.

    A ``model`` must fit the mode (``correlation.check_fit``), and the
    mode must induce a family (``family_spaces``); then ``admit`` caps
    its ``spaces`` at ``MAX_COMPOSITE_POINTS`` composite points.  All
    three run before any family, joint or LP is built.  A
    FactorizedApparatus or JointComposite mode is Feasible by
    construction, with its ``witness``.  A SettingDependent family read
    out by an ApparatusDeterministic ``model`` is Infeasible, with the
    closed-form CHSH certificate, when that certificate separates; every
    other SettingDependent family goes to the LP, once its blocks fit
    ``LP_TOTAL_CELL_LIMIT`` dense-tableau cells, a size measure (the
    solver's state is (m + 1)(m + 2) per block).  A Feasible verdict
    carries its joint as found, unscaled.  Raises the fit checks' errors,
    and :class:`FeasibilityError` past either limit, and when the joint
    misses the marginals by more than ``MARGINAL_TOL`` or the LP's
    certificate does not separate.
    """
    if model is not None:
        check_fit(model, dists)
    admit(family_spaces(dists))
    marginals, witness = dists.marginals, dists.witness
    if witness is not None:
        return _feasible_verdict(marginals, witness)
    family = dists
    if isinstance(model, ApparatusDeterministic):
        y = _chsh_certificate(family, model)
        try:
            return _infeasible_verdict(family, y)
        except FeasibilityError:
            pass  # a certificate too weak to separate leaves it to the LP
    _admit_lp(family)
    cards = tuple(space.cardinality for space in family.spaces)
    # row lambda: block lambda's right-hand side, pairs in canonical order
    B = np.hstack([family.marginal(p, q).weights.reshape(cards[0], -1)
                   for p, q in SETTING_PAIRS])
    rows = pair_rows((1, *cards[1:]))
    results = [solve_block(cards[1:], b, rows) for b in B]
    if all(r.feasible for r in results):
        # tiny negatives were already clipped by the solver
        x = np.concatenate([r.x for r in results])
        return _feasible_verdict(family.marginals,
                                 Distribution(tuple(family.spaces), x))
    Y = np.zeros(B.shape)
    for lam, r in enumerate(results):
        if not r.feasible:
            Y[lam] = r.certificate
    # a pair's columns of Y, read lambda-major, are its row group
    ends = np.cumsum([family.marginal(p, q).size // len(B)
                      for p, q in SETTING_PAIRS])
    y = np.concatenate([part.reshape(-1)
                        for part in np.split(Y, ends[:-1], axis=1)])
    return _infeasible_verdict(family, y)


def verify_certificate(family: SettingDependent,
                       certificate: np.ndarray) -> tuple[float, float]:
    """Evaluate a separating functional against the family.

    Returns (max over variables of y^T A, y^T b).  A valid certificate has
    the first at most ~0 (no nonnegative x can beat it) and the second
    strictly positive, together proving A x = b, x >= 0 unsolvable.  The
    column of composite point (lambda, v_a, v_a', v_b, v_b') has a one in
    each pair's row (lambda, v_p, v_q), so its y^T A is a four-term sum
    (``simplex.column_sums``); y^T b is summed exactly rounded.  Raises
    :class:`FeasibilityError` unless the certificate is a vector with one
    entry per row.
    """
    y = np.asarray(certificate, dtype=np.float64)
    b = _pair_major(family)
    if y.shape != b.shape:
        entries = " x ".join(map(str, y.shape)) or "1"  # a 0-d array holds one
        raise FeasibilityError(f"certificate has {entries} entries, "
                               f"expected {b.size}")
    yta = column_sums(y, pair_rows([space.cardinality for space in family.spaces]))
    return float(np.max(yta)), math.fsum(y * b)


def classify(dists: SettingDependent | FactorizedApparatus | JointComposite
             ) -> Literal["Local", "Nonlocal"]:
    """Local iff a joint distribution returns every marginal of the family
    the mode ``dists`` induces (see :func:`check_joint_existence`)."""
    verdict = check_joint_existence(dists)
    return "Local" if verdict.feasible else "Nonlocal"


def construct_nonlocal_witness(angles: tuple[Setting, Setting, Setting, Setting]
                               ) -> tuple[SettingDependent,
                                          ApparatusDeterministic]:
    """A marginal family with no joint distribution, plus the response
    model that reads its correlations out.

    The source space is a singleton and each apparatus space is binary,
    carrying the local outcome; responses pass the apparatus value
    through; each rho_pq places the four (lambda_p, lambda_q) cells at the
    singlet outcome probabilities for that setting pair.  Requires angles
    where the singlet CHSH value exceeds the bound, otherwise the family
    would be Local and :class:`FeasibilityError` is raised instead.
    """
    a, a_prime, b, b_prime = angles
    s = singlet_chsh(a, a_prime, b, b_prime)
    if abs(s) <= 2.0 + BELL_BOUND_TOL:
        raise FeasibilityError(
            f"singlet CHSH value {float(s)!r} does not violate the bound; "
            "the witness construction needs |S| > 2")
    lam = HiddenSpace("lambda", ("0",))
    spaces = FiveSpaces.binary_apparatus(lam)
    tables = {name: np.array([[1.0, -1.0]]) for name in SETTING_NAMES}
    by_name = {s_.name: s_ for s_ in angles}
    family = SettingDependent({(p, q): Distribution(
        (lam, spaces.for_setting(p), spaces.for_setting(q)),
        np.array(singlet_probabilities(by_name[p], by_name[q]).probabilities))
        for p, q in SETTING_PAIRS})
    return family, ApparatusDeterministic(spaces, tables)
