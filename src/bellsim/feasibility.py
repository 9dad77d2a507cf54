"""Joint-distribution existence for the apparatus distribution modes.

A family of four distributions rho_pq(lambda, lambda_p, lambda_q) has
*local correlations* when a single joint distribution over the composite
variable (lambda, lambda_a, lambda_a', lambda_b, lambda_b') returns every
rho_pq as a marginal, and *nonlocal correlations* otherwise.
``check_joint_existence`` decides this for the family a distribution mode
induces.  FactorizedApparatus and JointComposite modes are Local by
construction: the product joint (``factorized_joint``) or the mode's own
joint is the witness, and no LP runs.  For a SettingDependent family,
existence is decided exactly (up to the stated tolerances) as a linear
feasibility problem: one nonnegative weight per composite point, one
equality per marginal cell.  Total mass 1 is implied by any marginal's
normalization, and the redundancy among the four shared lambda-marginals
is left to the solver; inconsistent marginals simply come back Infeasible.

Every marginal cell fixes a lambda value, so the full system is block
diagonal: one block per lambda, all equal to the same 0/1 matrix over the
apparatus points (see ``constraint_matrix``) and differing only in their
right-hand sides.  Each block is solved on its own.  The joint is the
concatenation of the block solutions, and the family is Infeasible
exactly when some block is.  The certificate then holds, at the rows of
each infeasible block, that block's phase-1 dual, and zeros elsewhere
(the zero vector is a valid dual of a feasible block), laid out in the
full system's row order: grouped by setting pair in canonical order,
row-major over (lambda, lambda_p, lambda_q) inside a group.  So y^T b is
the sum of the infeasible blocks' phase-1 optima and y^T A <= 0 still
holds column by column.

``admit`` refuses every mode with more composite points than the work
limit before any family or joint is built.  Feasible verdicts carry an explicit
joint, witness or LP solution, renormalized and then checked against the
marginals by the same step; Infeasible verdicts carry the certificate,
reported raw, and the two numbers of its separation check.  Both checks are computed from the marginal structure in a fixed order,
never by a matrix product, and a verdict that fails its check raises
:class:`NumericalFailure` instead of being returned.  A family whose
distance from locality (the phase-1 optimum) lies between the solver's
``FEASIBILITY_TOL`` and ``CERTIFICATE_SLACK`` gets neither verdict from
the LP: its joint misses the marginals by more than ``MARGINAL_TOL``,
and its certificate is too weak to separate.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import reduce
from typing import Literal

import numpy as np

from .correlation import (BELL_BOUND_TOL, FactorizedApparatus, JointComposite,
                          SettingDependent)
from .errors import (FeasibilityDomainMismatch, FeasibilityWorkLimitExceeded,
                     NonViolatingAngles, NumericalFailure)
from .models import ApparatusDeterministic, Setting
from .qm import singlet_chsh, singlet_probabilities
from .simplex import solve_equality_feasibility
from .spaces import (
    SETTING_AXIS,
    SETTING_NAMES,
    SETTING_PAIRS,
    Distribution,
    FiveSpaces,
    HiddenSpace,
    marginalize,
    on_five_axes,
    product_distribution,
    renormalize,
)

#: Marginal-reproduction tolerance for returned joints.
MARGINAL_TOL = 1e-9

#: Verification slack on the certificate's y^T A <= 0 side.
CERTIFICATE_SLACK = 1e-7

DEFAULT_WORK_LIMIT = 65536


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


def constraint_matrix(family: SettingDependent
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The lambda block of the marginal problem and every block's
    right-hand side.

    Returns ``(A, B)``: block lambda of the system is A x = B[lambda].
    Columns of A are apparatus points (lambda_a, lambda_a', lambda_b,
    lambda_b') in row-major order.  Rows are grouped by setting pair in
    canonical order, and inside a group run row-major over
    (lambda_p, lambda_q); column (v_a, v_a', v_b, v_b') has a one in the
    row of each pair's cell (v_p, v_q).  Row lambda of B holds the
    marginal weights rho_pq(lambda, ., .) in the same row order.
    """
    spaces = family.spaces
    shape = tuple(s.cardinality for s in spaces)[1:]
    n = math.prod(shape)
    grids = np.indices(shape).reshape(4, n)
    blocks = []
    for p, q in SETTING_PAIRS:
        ax_p, ax_q = SETTING_AXIS[p] - 1, SETTING_AXIS[q] - 1
        rows = grids[ax_p] * shape[ax_q] + grids[ax_q]
        block = np.zeros((shape[ax_p] * shape[ax_q], n))
        block[rows, np.arange(n)] = 1.0
        blocks.append(block)
    lam = spaces.lam.cardinality
    rhs = [family.marginal(p, q).weights.reshape(lam, -1)
           for p, q in SETTING_PAIRS]
    return np.vstack(blocks), np.hstack(rhs)


def _pair_marginal(weights: np.ndarray, p: str, q: str) -> np.ndarray:
    """The (lambda, lambda_p, lambda_q) marginal of a five-axis weight
    array, summed one slice at a time in index order."""
    for axis in (4, 3, 2, 1):
        if axis not in (SETTING_AXIS[p], SETTING_AXIS[q]):
            weights = reduce(np.add, np.moveaxis(weights, axis, 0))
    return weights


def marginal_residual(family: SettingDependent,
                      joint: Distribution) -> float:
    """Largest |marginal of the joint - rho_pq| over every cell of every
    pair, pairs in canonical order."""
    return max(float(np.max(np.abs(_pair_marginal(joint.weights, p, q)
                                   - family.marginal(p, q).weights)))
               for p, q in SETTING_PAIRS)


def admit(spaces: FiveSpaces, work_limit: int) -> None:
    """Refuse five spaces with more composite points than ``work_limit``."""
    n = math.prod(s.cardinality for s in spaces)
    if n > work_limit:
        raise FeasibilityWorkLimitExceeded(n, work_limit)


def _mode_spaces(dists: SettingDependent | FactorizedApparatus
                 | JointComposite) -> FiveSpaces:
    """The five spaces of the composite variable of a mode, read off its
    distributions before any family or joint is built."""
    if isinstance(dists, SettingDependent):
        return dists.spaces
    if isinstance(dists, JointComposite):
        return FiveSpaces(*dists.joint.domain)
    if isinstance(dists, FactorizedApparatus):
        parts = [dists.rho] + [dists.apparatus[name] for name in SETTING_NAMES]
        if all(len(part.domain) == 1 for part in parts):
            return FiveSpaces(*(part.domain[0] for part in parts))
        raise FeasibilityDomainMismatch(
            "FactorizedApparatus distributions need one space each, got "
            f"{[part.labels for part in parts]}")
    raise FeasibilityDomainMismatch(
        f"no setting-pair marginal family for mode {dists.mode}")


def _feasible_verdict(family: SettingDependent,
                     joint: Distribution) -> FeasibilityVerdict:
    """The Feasible verdict of a joint over the family's five spaces.

    The joint is rescaled to exact total mass 1, the one explicit
    renormalization in the pipeline, and checked against every marginal;
    raises :class:`NumericalFailure` when it misses one by more than
    ``MARGINAL_TOL``.
    """
    joint = renormalize(joint)
    residual = marginal_residual(family, joint)
    if not residual <= MARGINAL_TOL:
        raise NumericalFailure(f"joint misses the marginals by {residual!r}, "
                               f"tolerance is {MARGINAL_TOL!r}")
    return FeasibilityVerdict(status="Feasible", joint=joint,
                              residual=residual)


def check_joint_existence(dists: SettingDependent | FactorizedApparatus
                          | JointComposite,
                          work_limit: int = DEFAULT_WORK_LIMIT
                          ) -> FeasibilityVerdict:
    """Decide whether a joint over the composite variable returns every
    marginal of the family the mode ``dists`` induces, and produce the
    witness either way.

    ``work_limit``, the cap on composite points, applies to the mode's
    five spaces before any family, joint or LP is built.  A
    FactorizedApparatus or JointComposite mode is Feasible by
    construction, with its witness (the product joint or the mode's own
    joint).  A SettingDependent family goes to the LP.
    Raises :class:`FeasibilityDomainMismatch` for any other mode, and
    :class:`NumericalFailure` when the joint misses the marginals by more
    than ``MARGINAL_TOL`` or the certificate does not separate.
    """
    admit(_mode_spaces(dists), work_limit)
    if isinstance(dists, FactorizedApparatus):
        family = construct_factorized_family(dists.rho, dists.apparatus)
        return _feasible_verdict(family,
                                 factorized_joint(dists.rho, dists.apparatus))
    if isinstance(dists, JointComposite):
        return _feasible_verdict(family_from_joint(dists.joint), dists.joint)
    family = dists
    A, B = constraint_matrix(family)
    results = [solve_equality_feasibility(A, b) for b in B]
    if all(r.feasible for r in results):
        # tiny negatives were already clipped by the solver
        x = np.concatenate([r.x for r in results])
        return _feasible_verdict(family, Distribution(tuple(family.spaces), x))
    Y = np.zeros(B.shape)
    for lam, r in enumerate(results):
        if not r.feasible:
            Y[lam] = r.certificate
    # a pair's columns of Y, read lambda-major, are its row group
    ends = np.cumsum([family.marginal(p, q).size // len(B)
                      for p, q in SETTING_PAIRS])
    y = np.concatenate([part.reshape(-1)
                        for part in np.split(Y, ends[:-1], axis=1)])
    max_yta, ytb = verify_certificate(family, y)
    if not max_yta <= CERTIFICATE_SLACK < ytb:
        raise NumericalFailure(f"certificate does not separate: max y^T A = "
                               f"{max_yta!r}, y^T b = {ytb!r}")
    return FeasibilityVerdict(status="Infeasible", certificate=y,
                              violation=ytb, max_yta=max_yta)


def verify_certificate(family: SettingDependent,
                       certificate: np.ndarray) -> tuple[float, float]:
    """Evaluate a separating functional against the family.

    Returns (max over variables of y^T A, y^T b).  A valid certificate has
    the first at most ~0 (no nonnegative x can beat it) and the second
    strictly positive, together proving A x = b, x >= 0 unsolvable.  The
    column of composite point (lambda, v_a, v_a', v_b, v_b') has a one in
    each pair's row (lambda, v_p, v_q), so its y^T A is the four-term sum
    y_ab + y_ab' + y_a'b + y_a'b', added in that order; y^T b is summed
    exactly rounded.
    """
    y = np.asarray(certificate, dtype=np.float64)
    parts = []
    start = 0
    for pair in SETTING_PAIRS:
        marginal = family.marginal(*pair)
        part = y[start:start + marginal.size].reshape(marginal.shape)
        parts.append(on_five_axes(part, pair))
        start += marginal.size
    yta = reduce(np.add, parts)
    b = np.concatenate([family.marginal(p, q).flat for p, q in SETTING_PAIRS])
    return float(np.max(yta)), math.fsum(y * b)


def classify(dists: SettingDependent | FactorizedApparatus | JointComposite,
             work_limit: int = DEFAULT_WORK_LIMIT) -> Literal["Local", "Nonlocal"]:
    """Local iff a joint distribution returns every marginal of the family
    the mode ``dists`` induces (see :func:`check_joint_existence`)."""
    verdict = check_joint_existence(dists, work_limit)
    return "Local" if verdict.feasible else "Nonlocal"


def construct_factorized_family(rho: Distribution,
                                apparatus: Mapping[str, Distribution]
                                ) -> SettingDependent:
    """Family whose every marginal is the three-factor product
    rho(lambda) rho_p(lambda_p) rho_q(lambda_q); always Local."""
    return SettingDependent({(p, q): product_distribution(
        [rho, apparatus[p], apparatus[q]]) for p, q in SETTING_PAIRS})


def factorized_joint(rho: Distribution, apparatus: Mapping[str, Distribution]
                     ) -> Distribution:
    """The five-factor product joint witnessing construct_factorized_family."""
    return product_distribution([rho] + [apparatus[name] for name in SETTING_NAMES])


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
    would be Local and NonViolatingAngles is raised instead.
    """
    a, a_prime, b, b_prime = angles
    s = singlet_chsh(a, a_prime, b, b_prime)
    if abs(s) <= 2.0 + BELL_BOUND_TOL:
        raise NonViolatingAngles(s)
    lam = HiddenSpace("lambda", ("0",))
    spaces = FiveSpaces.binary_apparatus(lam)
    tables = {name: np.array([[1.0, -1.0]]) for name in SETTING_NAMES}
    by_name = {s_.name: s_ for s_ in angles}
    family = SettingDependent({(p, q): Distribution(
        (lam, spaces.for_setting(p), spaces.for_setting(q)),
        np.array(singlet_probabilities(by_name[p], by_name[q]).probabilities))
        for p, q in SETTING_PAIRS})
    return family, ApparatusDeterministic(spaces, tables)


def family_from_joint(joint: Distribution) -> SettingDependent:
    """The four setting-pair marginals of an explicit five-space joint."""
    spaces = FiveSpaces(*joint.domain)
    return SettingDependent({(p, q): marginalize(
        joint, (spaces.lam, spaces.for_setting(p), spaces.for_setting(q)))
        for p, q in SETTING_PAIRS})
