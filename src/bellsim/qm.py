"""Quantum singlet-state reference predictions.

This module is the oracle the hidden-variable machinery is tested
against, so it is deliberately self-contained: outcome probabilities are
computed from the outcome amplitudes, never from a correlation formula.

Construction.  A spin measurement along planar angle t has eigenstates
|+, t> = cos(t/2)|0> + sin(t/2)|1> and |-, t> = -sin(t/2)|0> + cos(t/2)|1>,
collected in the basis-change matrix U(t) with U[m, s] the coefficient of
|s> in eigenstate m.  The two-particle singlet state is
psi = (|01> - |10>)/sqrt(2).  The outcome amplitude is

    A[m, n] = sum_{s,t} U(a)[m, s] U(b)[n, t] psi[s, t]
            = (U(a)[m, 0] U(b)[n, 1] - U(a)[m, 1] U(b)[n, 0]) / sqrt(2),

so with c_t = cos(t/2) and s_t = sin(t/2)

    x = A[+, +] =  A[-, -] = (c_a s_b - s_a c_b) * (1/sqrt(2)),
    y = A[+, -] = -A[-, +] = (c_a c_b + s_a s_b) * (1/sqrt(2)),

and p_++ = p_-- = x*x, p_+- = p_-+ = y*y.  These are the numbers returned,
evaluated elementwise: no matrix product, so no BLAS kernel, touches them,
and the half-angle cosines and sines come from ``math``, so their bits do
not depend on numpy's SIMD dispatch either.  The same formula serves one
setting pair (``singlet_probabilities``) and a whole angle grid
(``max_violation_search``), so both give the same bits for the same
angles.  Expanding x and y gives p_++ = sin^2((a - b)/2) / 2 and
p_+- = cos^2((a - b)/2) / 2, hence the correlation
p_++ + p_-- - p_+- - p_-+ = -cos(a - b); that closed form is used only as
a cross-check.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidStep, NonFiniteAngle, QmSideMismatch
from .models import Setting

MAX_GRID_STEP = math.pi / 4
#: Most grid points per scanned axis; the search scans this many cubed.
MAX_GRID_POINTS = 1024
MIN_GRID_STEP = 2.0 * math.pi / MAX_GRID_POINTS

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class SingletPrediction:
    """Outcome probabilities and correlation for one setting pair.

    ``probabilities`` is (p_++, p_+-, p_-+, p_--); ``relative_angle`` is
    the analyzer angle difference reduced to [0, pi].
    """

    pair: tuple[Setting, Setting]
    relative_angle: float
    probabilities: tuple[float, float, float, float]
    correlation: float


def _half_angles(angles: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """cos(t/2) and sin(t/2) for each angle t, taken from ``math``."""
    halves = [t / 2.0 for t in angles]
    return (np.array([math.cos(h) for h in halves]),
            np.array([math.sin(h) for h in halves]))


def _outcome_probabilities(ca, sa, cb, sb):
    """(p_++, p_+-) from half-angle cosines and sines, elementwise over
    scalars or broadcast arrays; p_-- = p_++ and p_-+ = p_+-."""
    x = (ca * sb - sa * cb) * _INV_SQRT2
    y = (ca * cb + sa * sb) * _INV_SQRT2
    return x * x, y * y


def _correlation(p_same, p_diff):
    """E = p_++ + p_-- - p_+- - p_-+, summed in that order."""
    return ((p_same + p_same) - p_diff) - p_diff


def _correlations(a: tuple[np.ndarray, np.ndarray],
                  b: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """E(a_i, b_j) for every pair of half-angle entries of ``a`` and ``b``."""
    (ca, sa), (cb, sb) = a, b
    return _correlation(*_outcome_probabilities(ca[:, None], sa[:, None], cb, sb))


def _reduced_relative_angle(a: float, b: float) -> float:
    theta = math.fmod(abs(a - b), 2.0 * math.pi)
    return 2.0 * math.pi - theta if theta > math.pi else theta


def singlet_probabilities(a: Setting, b: Setting) -> SingletPrediction:
    """Outcome probabilities for measuring the singlet at settings (a, b)."""
    if not a.is_side_a:
        raise QmSideMismatch(f"first setting must be on side A, got {a.name!r}")
    if b.is_side_a:
        raise QmSideMismatch(f"second setting must be on side B, got {b.name!r}")
    for s in (a, b):
        if not math.isfinite(s.angle):
            raise NonFiniteAngle(s.name, s.angle)
    if not math.isfinite(a.angle - b.angle):
        raise NonFiniteAngle(f"{a.name} - {b.name}", a.angle - b.angle)
    ha, hb = a.angle / 2.0, b.angle / 2.0
    p_same, p_diff = _outcome_probabilities(math.cos(ha), math.sin(ha),
                                            math.cos(hb), math.sin(hb))
    return SingletPrediction(
        pair=(a, b),
        relative_angle=_reduced_relative_angle(a.angle, b.angle),
        probabilities=(p_same, p_diff, p_diff, p_same),
        correlation=_correlation(p_same, p_diff),
    )


def singlet_correlation(a: Setting, b: Setting) -> float:
    return singlet_probabilities(a, b).correlation


def singlet_chsh(a: Setting, a_prime: Setting, b: Setting, b_prime: Setting) -> float:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b') for the singlet."""
    for s in (a, a_prime):
        if not s.is_side_a:
            raise QmSideMismatch(f"{s.name!r} must be on side A")
    for s in (b, b_prime):
        if s.is_side_a:
            raise QmSideMismatch(f"{s.name!r} must be on side B")
    return (singlet_correlation(a, b)
            + singlet_correlation(a, b_prime)
            + singlet_correlation(a_prime, b)
            - singlet_correlation(a_prime, b_prime))


def _abs_s(pair: np.ndarray, e_b: np.ndarray, e_b2: np.ndarray,
           out: np.ndarray | None = None) -> np.ndarray:
    """|S| = |((E(a,b) + E(a,b')) + E(a',b)) - E(a',b')|, summed in
    ``singlet_chsh``'s order, over (..., b, b'), written into ``out`` if
    given.

    ``pair`` holds E(a,b) + E(a,b') over (b, b'); ``e_b`` and ``e_b2``
    hold E(a',b) and E(a',b') with any leading a' axes.
    """
    s = np.add(pair, e_b[..., :, None], out=out)
    np.subtract(s, e_b2[..., None, :], out=s)
    return np.abs(s, out=s)


#: How far u (or v) may fall short of its slice's max or min while still
#: picking a candidate b (or b'); see ``max_violation_search``.
_SPLIT_SLACK = 1e-13


def _near(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Indices of the entries of ``x`` within ``_SPLIT_SLACK`` of ``lo`` or
    ``hi``, ascending."""
    return np.flatnonzero((x <= lo + _SPLIT_SLACK) | (x >= hi - _SPLIT_SLACK))


def _scan_grid(e: np.ndarray) -> tuple[float, tuple[int, int, int]]:
    """The first maximal |S| in (a', b, b') order over the grid whose
    correlations E(axis_i, axis_j) are ``e``, row 0 at a = 0, and its
    (a', b, b') indices, by the split of ``max_violation_search``."""
    u = e[0] + e
    v = e[0] - e
    u_lo, u_hi = u.min(axis=1), u.max(axis=1)
    v_lo, v_hi = v.min(axis=1), v.max(axis=1)
    top = np.maximum(u_hi + v_hi, -(u_lo + v_lo))
    best, best_index = -1.0, (0, 0, 0)
    for i in np.flatnonzero(top >= top.max() - 2.0 * _SPLIT_SLACK):
        bs = _near(u[i], u_lo[i], u_hi[i])
        b2s = _near(v[i], v_lo[i], v_hi[i])
        s = _abs_s(e[0][bs, None] + e[0][b2s], e[i][bs], e[i][b2s])
        value = float(s.max())
        if value > best:
            j, k = divmod(int(s.argmax()), b2s.size)
            best, best_index = value, (int(i), int(bs[j]), int(b2s[k]))
    return best, best_index


def max_violation_search(grid_step: float, refine_rounds: int
                         ) -> tuple[tuple[float, float, float, float], float]:
    """Locate a maximal |S| configuration by grid search plus refinement.

    The correlation depends only on relative angles, so the first analyzer
    is fixed at 0 and the remaining three are scanned over [0, 2*pi) at
    ``grid_step``, which must lie in [2*pi/MAX_GRID_POINTS, pi/4] so that
    the scan of at most 1024^3 points ends in bounded time.  The
    correlations come from the same elementwise amplitudes as
    ``singlet_probabilities``: E(a', b) is built once for every grid pair.
    Each refinement round halves the step and rescans, as one 5x5x5 array,
    a one-old-step box around the incumbent, which is itself a candidate,
    so the reported |S| never decreases; rounds stop early once the half
    step is 0.0, where every candidate is the incumbent.

    The grid scan uses the split S = u(b) + v(b') on each a' slice, with
    u = E(0,b) + E(a',b) and v = E(0,b') - E(a',b'): the slice's largest S
    is max u + max v and its smallest min u + min v, so its top |S| is
    found in O(n) rather than O(n^2) for n points per axis.  u and v only
    pick candidates; |S| itself is evaluated in ``singlet_chsh``'s order.
    The evaluated S and u + v each round three times, on terms of size at
    most 2 (correlations lie in [-1, 1]) and partial sums of size at most
    4, so each lies within (2 + 3 + 4) * 2^-53 of the exact sum and the
    two differ by less than 2e-15.  That is far below ``_SPLIT_SLACK`` =
    1e-13, the slack delta of the candidates: a slice whose top is more
    than 2 * delta below the best slice's top cannot hold the maximum, and
    on a slice the maximum lies on a b whose u is within delta of the
    slice's max or min of u, and a b' whose v is within delta of the max
    or min of v.  |S| is evaluated on those candidate pairs only.

    Ties go to the first maximum in (a', b, b') loop order: the incumbent
    is replaced only by a strictly larger |S|, and within one array the
    first maximum in C order wins.  The result is bit-equal to calling
    ``singlet_chsh`` at every candidate in that order.  Returns
    (angles, |S|).
    """
    if not (MIN_GRID_STEP <= grid_step <= MAX_GRID_STEP):
        raise InvalidStep(
            f"grid step {float(grid_step)!r} must lie in "
            f"[2*pi/{MAX_GRID_POINTS}, pi/4] (at most {MAX_GRID_POINTS} "
            "points per axis)")
    if refine_rounds < 0:
        raise InvalidStep(f"refine rounds {refine_rounds!r} must be at least 0")

    n = int(math.ceil(2.0 * math.pi / grid_step - 1e-12))
    axis = [k * grid_step for k in range(n)]
    half_angles = _half_angles(axis)
    e = _correlations(half_angles, half_angles)   # row 0 is a = axis[0] = 0
    best, (i, j, k) = _scan_grid(e)
    best_angles = (0.0, axis[i], axis[j], axis[k])

    zero = _half_angles([0.0])
    step = grid_step
    for _ in range(refine_rounds):
        half = step / 2.0
        if half == 0.0:
            break
        offsets = [j * half for j in (-2, -1, 0, 1, 2)]
        a2s, bs, b2s = ([base + d for d in offsets] for base in best_angles[1:])
        h_a2, h_b, h_b2 = _half_angles(a2s), _half_angles(bs), _half_angles(b2s)
        e0_b, e0_b2 = _correlations(zero, h_b)[0], _correlations(zero, h_b2)[0]
        s = _abs_s(e0_b[:, None] + e0_b2[None, :],
                   _correlations(h_a2, h_b), _correlations(h_a2, h_b2))
        top = float(s.max())
        if top > best:
            i, j, k = np.unravel_index(int(s.argmax()), s.shape)
            best, best_angles = top, (0.0, a2s[i], bs[j], b2s[k])
        step = half
    return best_angles, best
