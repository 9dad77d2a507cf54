"""Singlet oracle: probabilities, CHSH values, violation search."""

from __future__ import annotations

import math
import threading

import numpy as np
import pytest

from bellsim.errors import BellsimError, NonFiniteAngle, QmError
from bellsim.models import Setting, standard_settings
from bellsim.qm import (
    MAX_GRID_POINTS,
    MIN_GRID_STEP,
    SingletPrediction,
    _abs_s,
    _correlations,
    _half_angles,
    max_violation_search,
    singlet_chsh,
    singlet_correlation,
    singlet_probabilities,
)

TOL = 1e-12
TSIRELSON = 2.0 * math.sqrt(2.0)


def prediction(theta_a: float, theta_b: float) -> SingletPrediction:
    return singlet_probabilities(Setting("a", theta_a), Setting("b", theta_b))


class TestSingletProbabilities:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_is_typed(self, bad):
        for angles, name in (((bad, 0.0), "a"), ((0.0, bad), "b")):
            with pytest.raises(NonFiniteAngle,
                               match=f"^angles must be finite, got {name} = ") as info:
                prediction(*angles)
            assert isinstance(info.value, BellsimError)
            assert info.value.module == "qm-reference"

    def test_aligned_analyzers_anticorrelate(self):
        p = prediction(0.7, 0.7)
        assert p.probabilities[0] == pytest.approx(0.0, abs=TOL)
        assert p.probabilities[3] == pytest.approx(0.0, abs=TOL)
        assert p.probabilities[1] == pytest.approx(0.5, abs=TOL)
        assert p.probabilities[2] == pytest.approx(0.5, abs=TOL)
        assert p.correlation == pytest.approx(-1.0, abs=TOL)

    def test_opposite_analyzers_correlate(self):
        p = prediction(0.0, math.pi)
        assert p.probabilities[0] == pytest.approx(0.5, abs=TOL)
        assert p.probabilities[3] == pytest.approx(0.5, abs=TOL)
        assert p.correlation == pytest.approx(1.0, abs=TOL)

    def test_orthogonal_analyzers_uncorrelated(self):
        p = prediction(0.0, math.pi / 2)
        np.testing.assert_allclose(p.probabilities, [0.25] * 4, atol=TOL)
        assert p.correlation == pytest.approx(0.0, abs=TOL)

    def test_relative_angle_reduced(self):
        assert prediction(0.0, 3.5 * math.pi).relative_angle == pytest.approx(
            0.5 * math.pi, abs=TOL)
        assert prediction(5.0, 1.0).relative_angle == pytest.approx(
            2.0 * math.pi - 4.0, abs=TOL)

    def test_side_enforced(self):
        b = Setting("b", 0.0)
        a = Setting("a", 0.0)
        with pytest.raises(QmError, match="^first setting must be on side A, got 'b'$"):
            singlet_probabilities(b, b)
        with pytest.raises(QmError, match="^second setting must be on side B, got 'a'$"):
            singlet_probabilities(a, a)

    def test_singlet_symmetry_and_normalization(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            p = prediction(rng.uniform(-10, 10), rng.uniform(-10, 10))
            p_pp, p_pm, p_mp, p_mm = p.probabilities
            assert np.float64(p_pp).tobytes() == np.float64(p_mm).tobytes()
            assert np.float64(p_pm).tobytes() == np.float64(p_mp).tobytes()
            assert min(p.probabilities) >= -TOL
            assert sum(p.probabilities) == pytest.approx(1.0, abs=TOL)

    def test_matches_cosine_closed_form(self):
        rng = np.random.default_rng(22)
        for _ in range(300):
            ta, tb = rng.uniform(-8, 8, size=2)
            assert prediction(ta, tb).correlation == pytest.approx(
                -math.cos(ta - tb), abs=TOL)


class TestSingletChsh:
    def test_tsirelson_angles(self):
        s = singlet_chsh(*standard_settings(0.0, math.pi / 2, math.pi / 4, -math.pi / 4))
        assert s == pytest.approx(-TSIRELSON, abs=TOL)

    def test_degenerate_pairing_cancels(self):
        # a = b and a' = b' with the two sides a quarter turn apart: the
        # mixed terms vanish and the aligned terms cancel in the signed sum.
        s = singlet_chsh(*standard_settings(0.0, math.pi / 2, 0.0, math.pi / 2))
        assert s == pytest.approx(0.0, abs=TOL)

    def test_all_angles_equal(self):
        s = singlet_chsh(*standard_settings(1.3, 1.3, 1.3, 1.3))
        assert s == pytest.approx(-2.0, abs=TOL)

    def test_tsirelson_ceiling_randomized(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            angles = rng.uniform(0, 2 * math.pi, size=4)
            s = singlet_chsh(*standard_settings(*angles))
            assert abs(s) <= TSIRELSON + 1e-9

    def test_sides_enforced(self):
        a, a2, b, b2 = standard_settings(0, 1, 2, 3)
        with pytest.raises(QmError, match="^'b' must be on side A$"):
            singlet_chsh(a, b, a2, b2)


class TestMaxViolationSearch:
    def test_reaches_tsirelson(self):
        angles, s = max_violation_search(math.pi / 8, 3)
        assert s >= TSIRELSON - 1e-3
        assert abs(singlet_chsh(*standard_settings(*angles))) == s

    def test_coarse_grid_already_violates(self):
        _, s = max_violation_search(math.pi / 4, 0)
        assert s >= 2.0

    def test_monotone_in_refinement(self):
        _, s0 = max_violation_search(math.pi / 4, 0)
        _, s5 = max_violation_search(math.pi / 4, 5)
        assert s5 >= s0

    def test_step_bounds(self):
        with pytest.raises(QmError, match="^grid step 0.0 must lie in "):
            max_violation_search(0.0, 1)
        with pytest.raises(QmError, match=f"^grid step {math.pi / 2!r} must lie in "):
            max_violation_search(math.pi / 2, 1)
        with pytest.raises(QmError, match="refine rounds -1 must") as info:
            max_violation_search(math.pi / 8, -1)
        assert "grid step" not in str(info.value)

    def test_grid_capped_at_max_points_per_axis(self):
        # the smallest accepted step gives exactly MAX_GRID_POINTS points
        assert math.ceil(2.0 * math.pi / MIN_GRID_STEP - 1e-12) == MAX_GRID_POINTS == 1024
        for step in (math.nextafter(MIN_GRID_STEP, 0.0), 0.001, math.nan):
            with pytest.raises(QmError, match=r"\[2\*pi/1024, pi/4\]"):
                max_violation_search(step, 0)

    def test_refinement_stops_once_half_step_is_zero(self):
        # pi/4 halves to 0.0 after about 1075 rounds; later rounds would
        # rescan only the incumbent, so a huge count must return at once
        # with the same result as a count just past the underflow.
        results = []
        worker = threading.Thread(
            target=lambda: results.append(max_violation_search(math.pi / 4, 10**9)),
            daemon=True)
        worker.start()
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert results == [max_violation_search(math.pi / 4, 1100)]

    @pytest.mark.parametrize("grid_step", [math.pi / 4, math.pi / 8, 0.2, 0.3, 0.5, 0.7])
    def test_bit_equal_to_scalar_loop(self, grid_step):
        want = scalar_search(grid_step, 4)
        for rounds in range(5):
            assert max_violation_search(grid_step, rounds) == want[rounds]

    @pytest.mark.parametrize("grid_step", [0.05, 0.01])
    @pytest.mark.parametrize("rounds", [0, 3])
    def test_bit_equal_to_the_slice_scan(self, grid_step, rounds):
        assert max_violation_search(grid_step, rounds) == slice_scan_search(
            grid_step, rounds)

    @pytest.mark.parametrize("points", [34, 86])
    def test_candidates_reach_past_the_rounded_extremes(self, points):
        # At 34 points per axis the best slice's |S| ties exactly at
        # (b, b') = (4, 29), (4, 30), (21, 12) and (21, 13), and v at
        # b' = 29 is one ulp above v's min, so taking only the b' at the
        # min would report (4, 30).  At 86 points the maximal |S| lies
        # on a b' one ulp above v's min, so its |S| would be lost.
        step = 2.0 * math.pi / points
        assert max_violation_search(step, 0) == slice_scan_search(step, 0)

    def test_deterministic(self):
        assert max_violation_search(math.pi / 4, 2) == max_violation_search(math.pi / 4, 2)


def slice_scan_search(grid_step: float, refine_rounds: int
                      ) -> tuple[tuple[float, float, float, float], float]:
    """Reference search: |S| over every (b, b') of each a' slice, one n x n
    array at a time, in ``singlet_chsh``'s order, and the same refinement
    as ``max_violation_search``.  The incumbent is replaced only by a
    strictly larger |S|, and within one array the first maximum in C order
    wins."""
    n = int(math.ceil(2.0 * math.pi / grid_step - 1e-12))
    axis = [k * grid_step for k in range(n)]
    half_angles = _half_angles(axis)
    e = _correlations(half_angles, half_angles)
    pair = e[0][:, None] + e[0][None, :]
    best, best_angles = -1.0, (0.0, 0.0, 0.0, 0.0)
    s = np.empty((n, n))
    for i, e_i in enumerate(e):
        _abs_s(pair, e_i, e_i, out=s)
        top = float(s.max())
        if top > best:
            j, k = divmod(int(s.argmax()), n)
            best, best_angles = top, (0.0, axis[i], axis[j], axis[k])

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


def scalar_search(grid_step: float, max_rounds: int
                  ) -> list[tuple[tuple[float, float, float, float], float]]:
    """Reference search: singlet_chsh at every candidate in (a', b, b')
    loop order, replacing the incumbent only on a strictly larger |S|.
    Entry r is the result after r refinement rounds."""
    def abs_s(angles):
        return abs(singlet_chsh(*standard_settings(*angles)))

    n = int(math.ceil(2.0 * math.pi / grid_step - 1e-12))
    axis = [k * grid_step for k in range(n)]
    best_angles = (0.0, 0.0, 0.0, 0.0)
    best = abs_s(best_angles)
    for a2 in axis:
        for b in axis:
            for b2 in axis:
                s = abs_s((0.0, a2, b, b2))
                if s > best:
                    best, best_angles = s, (0.0, a2, b, b2)
    results = [(best_angles, best)]
    step = grid_step
    for _ in range(max_rounds):
        half = step / 2.0
        offsets = [j * half for j in (-2, -1, 0, 1, 2)]
        base = best_angles
        for da2 in offsets:
            for db in offsets:
                for db2 in offsets:
                    cand = (0.0, base[1] + da2, base[2] + db, base[3] + db2)
                    s = abs_s(cand)
                    if s > best:
                        best, best_angles = s, cand
        results.append((best_angles, best))
        step = half
    return results


def test_correlation_shortcut_matches_prediction():
    a = Setting("a_prime", 0.3)
    b = Setting("b_prime", 2.1)
    assert singlet_correlation(a, b) == singlet_probabilities(a, b).correlation
