"""Fine's theorem as an oracle for the joint-existence LP on binary
apparatus spaces.

A lambda block whose four apparatus spaces are binary is local exactly
when its pair marginals agree on the shared one-sided marginals and all
eight CHSH inequalities |S_k| <= 2 mu hold, where S_k is the sum of the
four pair correlations with the minus sign on pair k and mu is the
block's mass (A. Fine, PRL 48, 291 (1982), in its CH form; with
consistent one-sided marginals the single-outcome terms of CH cancel).
A family is local exactly when every block is.

Blocks are drawn as mu [(1 - t) L + t PR], with L the pair marginals of
a random joint over the four binary values (non-uniform one-sided
marginals) and PR the Popescu-Rohrlich box that maximizes a random one of
the eight CHSH expressions, so every sign pattern occurs.  Some blocks
get inconsistent one-sided marginals.  Every draw keeps the block's
distance from the boundary, |S_k| - 2 mu or the marginal mismatch, at
1e-6 or more: below the 1e-7 certificate slack the LP's verdict is a
refusal, not a verdict.  The phase-1 optimum is at least twice the CHSH
excess (twice the closed-form certificate is a dual solution), and at
least a marginal mismatch, so each of these draws is decided.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from dense_lp import constraint_matrix, solve_equality_feasibility
from helpers import exact_separation, five_spaces

from bellsim.correlation import SettingDependent
from bellsim.feasibility import (CERTIFICATE_SLACK, MARGINAL_TOL,
                                 check_joint_existence, marginal_residual,
                                 verify_certificate)
from bellsim.spaces import SETTING_PAIRS, Distribution

#: Outcome sign of apparatus value 0 and 1.
SIGN = np.array([1.0, -1.0])

#: Smallest distance from the boundary of any draw.
MARGIN = 1e-6


def chsh_signs(k: int) -> np.ndarray:
    """The CHSH signs with the minus sign on pair k."""
    signs = np.ones(4)
    signs[k] = -1.0
    return signs


def correlations(block) -> np.ndarray:
    """Unnormalized E_pq of a block's four 2 x 2 tables, pairs in order."""
    return np.array([float(np.sum(SIGN[:, None] * SIGN[None, :] * t))
                     for t in block])


def one_sided_mismatch(block) -> float:
    """Largest disagreement between two pairs on a shared one-sided
    marginal: a in (a,b) and (a,b'), a' in (a',b) and (a',b'), b in
    (a,b) and (a',b), b' in (a,b') and (a',b')."""
    ab, abp, apb, apbp = block
    return max(float(np.max(np.abs(x - y))) for x, y in (
        (ab.sum(1), abp.sum(1)), (apb.sum(1), apbp.sum(1)),
        (ab.sum(0), apb.sum(0)), (abp.sum(0), apbp.sum(0))))


def chsh_excess(block) -> float:
    """max_k |S_k| - 2 mu."""
    e = correlations(block)
    mu = float(block[0].sum())
    return max(abs(float(chsh_signs(k) @ e)) for k in range(4)) - 2.0 * mu


def fine_local(blocks) -> bool:
    """Fine's verdict on a family given block by block."""
    return all(one_sided_mismatch(b) <= 1e-12 and chsh_excess(b) <= 1e-12
               for b in blocks)


def local_part(rng) -> list[np.ndarray]:
    """The pair tables of a random joint over the four binary values."""
    joint = rng.dirichlet(np.full(16, 0.7)).reshape(2, 2, 2, 2)
    return [joint.sum(axis=(1, 3)), joint.sum(axis=(1, 2)),
            joint.sum(axis=(0, 3)), joint.sum(axis=(0, 2))]


def pr_box(k: int, g: float) -> list[np.ndarray]:
    """The no-signalling box with E = g * chsh_signs(k), uniform
    one-sided marginals and S_k = 4 g."""
    return [(1.0 + g * s * SIGN[:, None] * SIGN[None, :]) / 4.0
            for s in chsh_signs(k)]


def blend(local, box, mu, t):
    """mu [(1 - t) local + t box], table by table."""
    return [mu * ((1.0 - t) * x + t * y) for x, y in zip(local, box)]


def random_box(rng):
    """A PR box for a random one of the eight CHSH expressions, with its
    pair k and sign g."""
    k, g = int(rng.integers(4)), float(rng.choice([-1.0, 1.0]))
    return pr_box(k, g), k, g


def near_boundary(rng, mu, excess):
    """A block whose CHSH excess, unnormalized, is ``excess``."""
    local = local_part(rng)
    box, k, g = random_box(rng)
    s_local = g * float(chsh_signs(k) @ correlations(local))
    return blend(local, box, mu, (2.0 + excess / mu - s_local) / (4.0 - s_local))


def make_inconsistent(rng, block):
    """Move mass between two cells of one pair's table so that the
    one-sided marginal of its second setting no longer agrees."""
    block = [t.copy() for t in block]
    pair = int(rng.integers(4))
    row = int(rng.integers(2))
    hi = int(np.argmax(block[pair][row]))
    eps = min(10.0 ** rng.uniform(-6, -2), block[pair][row, hi] / 2)
    block[pair][row, hi] -= eps
    block[pair][row, 1 - hi] += eps
    return block


def random_block(rng, mu):
    """A block at least ``MARGIN`` from the boundary: local, CHSH-violating
    or inconsistent."""
    while True:
        block = blend(local_part(rng), random_box(rng)[0], mu, rng.uniform())
        if rng.uniform() < 0.2:
            block = make_inconsistent(rng, block)
            if one_sided_mismatch(block) >= MARGIN:
                return block
        elif abs(chsh_excess(block)) >= MARGIN:
            return block


def masses(rng, lam: int) -> np.ndarray:
    """Block masses of at least 0.1."""
    return 0.1 + (1.0 - 0.1 * lam) * rng.dirichlet(np.ones(lam))


def family_of(blocks) -> SettingDependent:
    spaces = five_spaces((len(blocks), 2, 2, 2, 2))
    return SettingDependent({pair: Distribution(
        (spaces.lam, spaces.for_setting(pair[0]), spaces.for_setting(pair[1])),
        np.array([block[k] for block in blocks]))
        for k, pair in enumerate(SETTING_PAIRS)})


def assert_agrees_with_fine(blocks) -> bool:
    """Both solvers' verdicts equal Fine's, and every certificate
    separates in exact arithmetic; returns the verdict."""
    family = family_of(blocks)
    local = fine_local(blocks)
    verdict = check_joint_existence(family)
    assert verdict.feasible == local
    A, B = constraint_matrix(family)
    assert all(solve_equality_feasibility(A, b).feasible for b in B) == local
    if local:
        assert marginal_residual(family, verdict.joint) <= MARGINAL_TOL
    else:
        max_yta, ytb = exact_separation(family, verdict.certificate)
        assert max_yta <= Fraction(CERTIFICATE_SLACK) < ytb
        float_yta, float_ytb = verify_certificate(family, verdict.certificate)
        assert abs(Fraction(float_yta) - max_yta) <= Fraction(1e-15)
        assert abs(Fraction(float_ytb) - ytb) <= Fraction(1e-15)
    return local


def test_random_binary_families_agree_with_fine():
    rng = np.random.default_rng(71)
    seen = {True: 0, False: 0}
    for _ in range(200):
        lam = int(rng.integers(1, 4))
        blocks = [random_block(rng, mu) for mu in masses(rng, lam)]
        seen[assert_agrees_with_fine(blocks)] += 1
    assert seen[True] >= 30 and seen[False] >= 30


@pytest.mark.parametrize("delta", [1e-6, 1e-5, 1e-4, 1e-3])
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["violated", "satisfied"])
def test_near_boundary_families_agree_with_fine(delta, side):
    rng = np.random.default_rng(72 + int(-math.log10(delta)))
    for _ in range(10):
        lam = int(rng.integers(1, 4))
        blocks = [near_boundary(rng, mu, side * delta) for mu in masses(rng, lam)]
        for block in blocks:
            assert chsh_excess(block) == pytest.approx(side * delta, abs=1e-12)
        assert assert_agrees_with_fine(blocks) == (side < 0)


def test_oracle_flags_inconsistent_marginals():
    rng = np.random.default_rng(73)
    block = make_inconsistent(rng, local_part(rng))
    assert chsh_excess(block) < 0.0
    assert one_sided_mismatch(block) >= MARGIN
    assert not fine_local([block])
