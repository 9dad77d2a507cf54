"""Joint-distribution existence for the apparatus distribution modes.

A family of four distributions rho_pq(lambda, lambda_p, lambda_q) has
*local correlations* when a single joint distribution over the composite
variable (lambda, lambda_a, lambda_a', lambda_b, lambda_b') returns every
rho_pq as a marginal, and *nonlocal correlations* otherwise.
``check_joint_existence`` decides this for the family a distribution mode
induces.  FactorizedApparatus and JointComposite modes are Local by
construction: the product joint (``factorized_joint``) or the mode's own
joint is the witness, and no LP runs.

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

``admit`` refuses every mode with more composite points than the work
limit before any family or joint is built, and a family that reaches the
LP is refused when one block, counted in the cells of a dense tableau,
exceeds ``LP_CELL_LIMIT``, or all its blocks together exceed
``LP_TOTAL_CELL_LIMIT``, before any block is solved.  Feasible verdicts
carry an explicit joint, witness or LP solution, renormalized and then
checked against the marginals by the same step; Infeasible verdicts
carry the certificate, reported raw, and the two numbers of its
separation check.  Both checks are computed from the marginal structure
in a fixed order, never by a matrix product, and a verdict that fails
its check raises :class:`FeasibilityError` instead of being returned.  A
family whose final phase-1 objective, at least its distance from
locality, lies between the solver's ``FEASIBILITY_TOL`` and
``CERTIFICATE_SLACK`` gets neither verdict from the LP: its joint misses
the marginals by more than ``MARGINAL_TOL``, and its certificate is too
weak to separate.
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
from .errors import FeasibilityError, work_limit_detail
from .models import ApparatusDeterministic, Setting
from .qm import singlet_chsh, singlet_probabilities
from .simplex import column_sums, pair_rows, solve_block
from .spaces import (
    CHSH_SIGNS,
    SETTING_AXIS,
    SETTING_NAMES,
    SETTING_PAIRS,
    Distribution,
    FiveSpaces,
    HiddenSpace,
    marginalize,
    product_distribution,
    renormalize,
)

#: Marginal-reproduction tolerance for returned joints.
MARGINAL_TOL = 1e-9

#: Verification slack on the certificate's y^T A <= 0 side.
CERTIFICATE_SLACK = 1e-7

DEFAULT_WORK_LIMIT = 65536

#: Cap on one lambda block, counted as the (m + 1)(n + m + 1) cells of a dense
#: tableau for m marginal cells and n apparatus points: the block of four
#: eight-valued apparatus spaces, the largest that ``generate`` writes.
LP_CELL_LIMIT = (4 * 8 ** 2 + 1) * (8 ** 4 + 4 * 8 ** 2 + 1)

#: Cap on those cells summed over the lambda blocks of a family: sixteen
#: blocks of four eight-valued apparatus spaces, whose Local 16 x 8^4 family
#: took 3.5-5.2 s through ``bellsim run`` on a 2-vCPU x86-64 container.
LP_TOTAL_CELL_LIMIT = 16 * LP_CELL_LIMIT


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


def _pair_marginal(weights: np.ndarray, p: str, q: str) -> np.ndarray:
    """The (lambda, lambda_p, lambda_q) marginal of a five-axis weight
    array, summed one slice at a time in index order."""
    for axis in (4, 3, 2, 1):
        if axis not in (SETTING_AXIS[p], SETTING_AXIS[q]):
            weights = reduce(np.add, np.moveaxis(weights, axis, 0))
    return weights


def marginal_residual(marginals: Mapping[tuple[str, str], Distribution],
                      joint: Distribution) -> float:
    """Largest |marginal of the joint - rho_pq| over every cell of every
    pair of ``marginals`` (keyed like a family's), pairs in canonical
    order."""
    return max(float(np.max(np.abs(_pair_marginal(joint.weights, p, q)
                                   - marginals[p, q].weights)))
               for p, q in SETTING_PAIRS)


def admit(spaces: FiveSpaces, work_limit: int) -> None:
    """Refuse five spaces with more composite points than ``work_limit``."""
    n = math.prod(s.cardinality for s in spaces)
    if n > work_limit:
        raise FeasibilityError(work_limit_detail(n, work_limit))


def _admit_lp(family: SettingDependent) -> None:
    """Refuse a family whose LP blocks exceed ``LP_CELL_LIMIT`` tableau
    cells each, or ``LP_TOTAL_CELL_LIMIT`` together, before any block is
    solved."""
    cards = [s.cardinality for s in family.spaces]
    m = sum(cards[SETTING_AXIS[p]] * cards[SETTING_AXIS[q]]
            for p, q in SETTING_PAIRS)
    n = math.prod(cards[1:])
    cells = (m + 1) * (n + m + 1)
    if cells > LP_CELL_LIMIT:
        raise FeasibilityError(work_limit_detail(
            cells, LP_CELL_LIMIT,
            f"tableau cells for an LP block of {m} rows and {n} columns"))
    if cards[0] * cells > LP_TOTAL_CELL_LIMIT:
        raise FeasibilityError(work_limit_detail(
            cards[0] * cells, LP_TOTAL_CELL_LIMIT,
            f"tableau cells for {cards[0]} LP blocks of {m} rows and {n} columns"))


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
        raise FeasibilityError(
            "FactorizedApparatus distributions need one space each, got "
            f"{[part.labels for part in parts]}")
    raise FeasibilityError(
        f"no setting-pair marginal family for mode {dists.mode}")


def _feasible_verdict(marginals: Mapping[tuple[str, str], Distribution],
                      joint: Distribution) -> FeasibilityVerdict:
    """The Feasible verdict of a joint over the five spaces of the four
    pair ``marginals``.

    The joint is rescaled to exact total mass 1, the one explicit
    renormalization in the pipeline, and checked against every marginal;
    raises :class:`FeasibilityError` when it misses one by more than
    ``MARGINAL_TOL``.
    """
    joint = renormalize(joint)
    residual = marginal_residual(marginals, joint)
    if not residual <= MARGINAL_TOL:
        raise FeasibilityError(f"joint misses the marginals by {residual!r}, "
                               f"tolerance is {MARGINAL_TOL!r}")
    return FeasibilityVerdict(status="Feasible", joint=joint,
                              residual=residual)


def _chsh_certificate(family: SettingDependent,
                      model: ApparatusDeterministic) -> np.ndarray:
    """The CHSH functional of the response tables as a certificate.

    y_pq(lambda, v_p, v_q) = g sigma_pq f_p(lambda, v_p) f_q(lambda, v_q)
    - 1/2, laid out like the rows of the full system, with sigma the CHSH
    signs and g the sign of S.  Every column's y^T A is g times the CHSH
    sum of four +-1 values, minus 2, so at most 0 exactly; y^T b is
    |S| - 2.  Raises :class:`FeasibilityError` unless the model
    and the family share their five spaces.
    """
    if model.spaces != family.spaces:
        model_spaces, family_spaces = (
            [f"{s.label}:{s.cardinality}" for s in spaces]
            for spaces in (model.spaces, family.spaces))
        raise FeasibilityError(
            f"model spaces {model_spaces} differ from the family's "
            f"{family_spaces}")
    t = np.concatenate([
        sign * (model.tables[p][:, :, None] * model.tables[q][:, None, :]).ravel()
        for sign, (p, q) in zip(CHSH_SIGNS, SETTING_PAIRS)])
    b = np.concatenate([family.marginal(p, q).flat for p, q in SETTING_PAIRS])
    g = 1.0 if math.fsum(t * b) >= 0.0 else -1.0
    return g * t - 0.5


def check_joint_existence(dists: SettingDependent | FactorizedApparatus
                          | JointComposite,
                          work_limit: int = DEFAULT_WORK_LIMIT,
                          model: ApparatusDeterministic | None = None
                          ) -> FeasibilityVerdict:
    """Decide whether a joint over the composite variable returns every
    marginal of the family the mode ``dists`` induces, and produce the
    witness either way.

    ``work_limit``, the cap on composite points, applies to the mode's
    five spaces before any family, joint or LP is built.  A
    FactorizedApparatus or JointComposite mode is Feasible by
    construction, with its witness (the product joint or the mode's own
    joint).  A SettingDependent family read out by an ApparatusDeterministic
    ``model`` is Infeasible, with the closed-form CHSH certificate, when
    that certificate separates; every other SettingDependent family goes
    to the LP, once its blocks fit ``LP_CELL_LIMIT`` and
    ``LP_TOTAL_CELL_LIMIT``.
    Raises :class:`FeasibilityError` for any other mode or for a model
    whose spaces differ from the family's, past either limit, and when
    the joint misses the marginals by more than ``MARGINAL_TOL`` or the
    LP's certificate does not separate.
    """
    admit(_mode_spaces(dists), work_limit)
    if isinstance(dists, FactorizedApparatus):
        return _feasible_verdict(_factorized_marginals(dists.rho, dists.apparatus),
                                 factorized_joint(dists.rho, dists.apparatus))
    if isinstance(dists, JointComposite):
        return _feasible_verdict(family_from_joint(dists.joint).marginals,
                                 dists.joint)
    family = dists
    if isinstance(model, ApparatusDeterministic):
        y = _chsh_certificate(family, model)
        max_yta, ytb = verify_certificate(family, y)
        if max_yta <= CERTIFICATE_SLACK < ytb:
            return FeasibilityVerdict(status="Infeasible", certificate=y,
                                      violation=ytb, max_yta=max_yta)
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
    max_yta, ytb = verify_certificate(family, y)
    if not max_yta <= CERTIFICATE_SLACK < ytb:
        raise FeasibilityError(f"certificate does not separate: max y^T A = "
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
    each pair's row (lambda, v_p, v_q), so its y^T A is a four-term sum
    (``simplex.column_sums``); y^T b is summed exactly rounded.
    """
    y = np.asarray(certificate, dtype=np.float64)
    yta = column_sums(y, pair_rows([space.cardinality for space in family.spaces]))
    b = np.concatenate([family.marginal(p, q).flat for p, q in SETTING_PAIRS])
    return float(np.max(yta)), math.fsum(y * b)


def classify(dists: SettingDependent | FactorizedApparatus | JointComposite,
             work_limit: int = DEFAULT_WORK_LIMIT) -> Literal["Local", "Nonlocal"]:
    """Local iff a joint distribution returns every marginal of the family
    the mode ``dists`` induces (see :func:`check_joint_existence`)."""
    verdict = check_joint_existence(dists, work_limit)
    return "Local" if verdict.feasible else "Nonlocal"


def _factorized_marginals(rho: Distribution,
                          apparatus: Mapping[str, Distribution]
                          ) -> dict[tuple[str, str], Distribution]:
    """The products rho(lambda) rho_p(lambda_p) rho_q(lambda_q) per pair,
    unvalidated: three parts each within the normalization tolerance of 1
    may give a product that is not."""
    return {(p, q): product_distribution([rho, apparatus[p], apparatus[q]])
            for p, q in SETTING_PAIRS}


def construct_factorized_family(rho: Distribution,
                                apparatus: Mapping[str, Distribution]
                                ) -> SettingDependent:
    """Family whose every marginal is the three-factor product
    rho(lambda) rho_p(lambda_p) rho_q(lambda_q); always Local."""
    return SettingDependent(_factorized_marginals(rho, apparatus))


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


def family_from_joint(joint: Distribution) -> SettingDependent:
    """The four setting-pair marginals of an explicit five-space joint."""
    spaces = FiveSpaces(*joint.domain)
    return SettingDependent({(p, q): marginalize(
        joint, (spaces.lam, spaces.for_setting(p), spaces.for_setting(q)))
        for p, q in SETTING_PAIRS})
