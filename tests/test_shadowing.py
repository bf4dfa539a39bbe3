"""Homoclinic closing words, exponential shadowing profiles, toral closing."""
import math

import numpy as np
import pytest

import cocyclelab.shadowing as sd
import cocyclelab.shifts as sh
import cocyclelab.suspension as sp

FULL2 = sh.SftSpec.full_shift(2, theta=0.5)
GOLDEN = sh.SftSpec.golden_mean(theta=0.5)


def constant_roof(base, value, window=1):
    return sp.RoofFunction(base, window, {w: value for w in base.admissible_words(window)})


CAT = np.array([[2, 1], [1, 1]])


class TestHomoclinicFamily:
    def test_single_symbol_example(self):
        w = sd.homoclinic_family(FULL2, "0", "1", 2)
        assert w == (1, 0, 0, 0, 0)

    def test_length_formula(self):
        for p, b, n in [("0", "1", 1), ("0", "1", 5), ("01", "11", 3), ("0", "11", 4)]:
            w = sd.homoclinic_family(FULL2, p, b, n)
            assert len(w) == 2 * n * len(p) + len(b)

    def test_golden_mean_admissible(self):
        w = sd.homoclinic_family(GOLDEN, "0", "1", 3)
        assert w == (1, 0, 0, 0, 0, 0, 0)
        assert GOLDEN.word_admissible(w, cyclic=True)

    def test_inadmissible_block_rejected(self):
        with pytest.raises(ValueError, match="admissible"):
            sd.homoclinic_family(GOLDEN, "1", "0", 2)

    def test_bridge_equal_to_block_power_rejected(self):
        with pytest.raises(ValueError, match="power"):
            sd.homoclinic_family(FULL2, "0", "00", 2)

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sd.homoclinic_family(FULL2, "0", "1", 0)

    def test_orbit_distance_to_homoclinic_point(self):
        z, _ = sh.homoclinic_point(FULL2, "0", "1")
        for n in (2, 3, 5):
            q = sh.periodic_point(FULL2, sd.homoclinic_family(FULL2, "0", "1", n))
            d = sh.metric(q, z, FULL2)
            # agreement radius is the full word length here
            assert d == FULL2.theta ** (2 * n + 1)
            assert d <= FULL2.theta**n


class TestExponentialShadowing:
    def test_tent_profile_against_periodic_orbit(self):
        # with a one-symbol block and bridge the metric is exactly
        # theta^(distance to the nearest bridge copy)
        fit = sd.exponential_shadowing_check(FULL2, "0", "1", [4])
        ts, ds = fit.profiles[4]
        T = 9
        for tp, d in zip(ts, ds):
            t = int(round(tp + 0.5 * T))
            assert d == FULL2.theta ** min(t, T - t)

    def test_central_distance_squares_when_n_doubles(self):
        fit = sd.exponential_shadowing_check(FULL2, "0", "1", [4, 8])
        assert min(fit.profiles[8][1]) == min(fit.profiles[4][1]) ** 2

    def test_exact_family_fit(self):
        fit = sd.exponential_shadowing_check(FULL2, "0", "1", range(4, 13))
        assert fit.target_per_period == pytest.approx(math.log(2.0))
        assert fit.eta_per_period == pytest.approx(fit.target_per_period, rel=1e-9)
        assert fit.residual < 1e-9
        assert fit.c == pytest.approx(1.0, abs=1e-9)

    def test_two_symbol_bridge_offsets_constant(self):
        fit = sd.exponential_shadowing_check(FULL2, "0", "11", range(4, 13))
        assert fit.eta_per_period == pytest.approx(math.log(2.0), rel=1e-9)
        assert fit.residual < 1e-9
        # the tent peaks half a symbol outside the sampled offsets
        assert fit.c == pytest.approx(math.sqrt(2.0), rel=1e-9)

    def test_golden_mean_family(self):
        fit = sd.exponential_shadowing_check(GOLDEN, "0", "1", range(4, 13))
        assert abs(fit.eta_per_period - fit.target_per_period) < 0.1 * fit.target_per_period
        assert fit.residual < 0.05

    def test_profile_rows_shape(self):
        fit = sd.exponential_shadowing_check(FULL2, "0", "1", [4, 5])
        rows = list(fit.profile_rows())
        assert len(rows) == (9 - 1) + (11 - 1)
        assert all(len(r) == 3 for r in rows)
        assert {r[0] for r in rows} == {4, 5}


class TestPeriodDifferenceBound:
    def test_equal_roofs_give_zero(self):
        roof = constant_roof(FULL2, 1.0)
        rep = sd.period_difference_bound(roof, roof, "0", "1", range(1, 9))
        assert np.all(rep.deltas == 0.0)
        assert rep.sup_delta == 0.0
        assert rep.m2 == 0.0

    def test_bridge_cylinder_difference_is_one_visit(self):
        roof0 = constant_roof(FULL2, 1.0)
        roof1 = sp.RoofFunction(FULL2, 1, {"0": 1.0, "1": 1.3})
        rep = sd.period_difference_bound(roof0, roof1, "0", "1", range(1, 13))
        assert rep.deltas == pytest.approx(np.full(12, 0.3), abs=1e-12)
        assert rep.sup_delta <= rep.m2
        # window 1: sup 0.3, oscillation 0.3, tail ratio 1/2
        assert rep.m2 == pytest.approx(2 * (0.3 + 0.3) / 0.5, abs=1e-12)

    def test_two_window_bump_stabilizes(self):
        roof0 = constant_roof(FULL2, 1.0, 2)
        vals = {w: 1.0 for w in FULL2.admissible_words(2)}
        vals[(1, 0)] = 1.2
        roof1 = sp.RoofFunction(FULL2, 2, vals)
        rep = sd.period_difference_bound(roof0, roof1, "0", "1", range(1, 13))
        assert rep.deltas == pytest.approx(np.full(12, 0.2), abs=1e-12)
        assert rep.sup_delta == np.max(rep.deltas)
        assert rep.sup_delta <= rep.m2

    def test_monotone_in_support_size(self):
        roof0 = constant_roof(FULL2, 1.0, 2)
        small = {w: 1.0 for w in FULL2.admissible_words(2)}
        small[(1, 0)] = 1.2
        large = dict(small)
        large[(0, 1)] = 1.2
        rep_s = sd.period_difference_bound(roof0, sp.RoofFunction(FULL2, 2, small), "0", "1", [6])
        rep_l = sd.period_difference_bound(roof0, sp.RoofFunction(FULL2, 2, large), "0", "1", [6])
        assert rep_l.deltas[0] >= rep_s.deltas[0]

    def test_uniform_bound_to_n_64(self):
        roof0 = constant_roof(FULL2, 1.0, 2)
        vals = {w: 1.0 for w in FULL2.admissible_words(2)}
        vals[(1, 0)] = 1.15
        vals[(0, 1)] = 0.9
        roof1 = sp.RoofFunction(FULL2, 2, vals)
        rep = sd.period_difference_bound(roof0, roof1, "0", "1", range(1, 65))
        assert rep.sup_delta <= rep.m2
        assert len(rep.deltas) == 64

    def test_mixed_windows(self):
        roof0 = constant_roof(FULL2, 1.0)
        vals = {w: 1.0 for w in FULL2.admissible_words(2)}
        vals[(1, 1)] = 1.4
        roof1 = sp.RoofFunction(FULL2, 2, vals)
        rep = sd.period_difference_bound(roof0, roof1, "0", "11", [2, 3])
        assert rep.deltas[0] == pytest.approx(0.4, abs=1e-12)
        assert rep.sup_delta <= rep.m2

    def test_support_violation(self):
        roof0 = constant_roof(FULL2, 1.0)
        roof1 = sp.RoofFunction(FULL2, 1, {"0": 1.1, "1": 1.0})
        with pytest.raises(ValueError, match="support violation"):
            sd.period_difference_bound(roof0, roof1, "0", "1", [1, 2])

    def test_different_bases_rejected(self):
        r0 = constant_roof(FULL2, 1.0)
        r1 = constant_roof(GOLDEN, 1.0)
        with pytest.raises(ValueError, match="same base"):
            sd.period_difference_bound(r0, r1, "0", "1", [1])

    def test_holder_exponent_changes_bound_not_deltas(self):
        roof0 = constant_roof(FULL2, 1.0)
        roof1 = sp.RoofFunction(FULL2, 1, {"0": 1.0, "1": 1.3})
        a = sd.period_difference_bound(roof0, roof1, "0", "1", [3], nu=1.0)
        b = sd.period_difference_bound(roof0, roof1, "0", "1", [3], nu=0.5)
        assert a.deltas[0] == b.deltas[0]
        assert a.m2 != b.m2
        assert b.sup_delta <= b.m2


class TestToralAutomorphism:
    def test_cat_map_constants(self):
        T = sd.ToralAutomorphism(CAT)
        golden = (1 + math.sqrt(5)) / 2
        assert T.contraction == pytest.approx(golden**-2, abs=1e-12)
        assert T.epsilon0 == pytest.approx((1 - golden**-2) / 8, abs=1e-12)
        assert T.shadowing_constant == pytest.approx(2 / (1 - golden**-2), abs=1e-12)

    def test_apply_wraps(self):
        T = sd.ToralAutomorphism(CAT)
        assert T.apply(np.array([0.5, 0.5])) == pytest.approx([0.5, 0.0])
        assert T.apply(np.zeros(2)) == pytest.approx([0.0, 0.0])

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError, match="integer"):
            sd.ToralAutomorphism(np.array([[1.5, 1.0], [1.0, 1.0]]))

    def test_non_unimodular_rejected(self):
        with pytest.raises(ValueError, match="determinant"):
            sd.ToralAutomorphism(np.array([[2, 0], [0, 1]]))

    def test_elliptic_rejected(self):
        with pytest.raises(ValueError, match="hyperbolic"):
            sd.ToralAutomorphism(np.array([[0, -1], [1, 0]]))

    def test_parabolic_rejected(self):
        with pytest.raises(ValueError, match="hyperbolic"):
            sd.ToralAutomorphism(np.array([[1, 1], [0, 1]]))

    def test_three_dimensional_unit(self):
        T = sd.ToralAutomorphism(np.array([[0, 1, 0], [0, 0, 1], [1, 1, 0]]))
        assert T.dim == 3
        assert 0.0 < T.contraction < 1.0


class TestPseudoOrbit:
    def test_points_are_wrapped(self):
        po = sd.PseudoOrbit(np.array([[1.25, -0.5]]), epsilon=0.01)
        assert po.points[0] == pytest.approx([0.25, 0.5])

    def test_bad_epsilon_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            sd.PseudoOrbit(np.zeros((3, 2)), epsilon=0.0)

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="array"):
            sd.PseudoOrbit(np.zeros(4), epsilon=0.1)

    def test_step_defects_exact(self):
        T = sd.ToralAutomorphism(CAT)
        pts = np.array([[0.0, 0.0], [0.001, 0.0]])
        po = sd.PseudoOrbit(pts, epsilon=0.01)
        d = po.step_defects(T)
        assert d[0] == pytest.approx([0.001, 0.0], abs=1e-15)
        assert d[1] == pytest.approx([-0.002, -0.001], abs=1e-15)


class TestToralClose:
    def test_exact_orbit_returned_unchanged(self):
        T = sd.ToralAutomorphism(CAT)
        pts = np.array([[0.2, 0.4], [0.8, 0.6]])
        res = sd.toral_close(T, sd.PseudoOrbit(pts, epsilon=1e-9))
        assert res.numerators == (1, 2)
        assert res.denominator == 5
        assert res.sup_distance < 1e-12

    def test_jittered_fixed_point(self):
        T = sd.ToralAutomorphism(CAT)
        po = sd.jittered_orbit(T, np.zeros(2), 10, 1e-6, seed=3)
        res = sd.toral_close(T, po)
        assert res.numerators == (0, 0)
        assert res.sup_distance <= res.bound
        assert res.bound == pytest.approx(T.shadowing_constant * po.epsilon)

    def test_jittered_period_two_orbit(self):
        T = sd.ToralAutomorphism(CAT)
        po = sd.jittered_orbit(T, np.array([0.2, 0.4]), 10, 1e-6, seed=11)
        res = sd.toral_close(T, po)
        assert np.asarray(res.numerators) / res.denominator == pytest.approx([0.2, 0.4], abs=1e-12)
        assert res.sup_distance <= res.bound
        # exact rational arithmetic: the snapped point is really 5-periodic
        assert (5 * res.numerators[0]) % res.denominator == 0

    def test_uniqueness_under_rejitter(self):
        T = sd.ToralAutomorphism(CAT)
        a = sd.toral_close(T, sd.jittered_orbit(T, np.zeros(2), 12, 1e-6, seed=1))
        b = sd.toral_close(T, sd.jittered_orbit(T, np.zeros(2), 12, 5e-7, seed=2))
        assert a.numerators == b.numerators
        assert a.denominator == b.denominator

    def test_epsilon_too_large(self):
        T = sd.ToralAutomorphism(CAT)
        po = sd.jittered_orbit(T, np.zeros(2), 8, 0.2, seed=0)
        with pytest.raises(ValueError, match="epsilon too large"):
            sd.toral_close(T, po)

    def test_understated_epsilon_rejected(self):
        T = sd.ToralAutomorphism(CAT)
        pts = np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.1]])
        with pytest.raises(ValueError, match="declared epsilon"):
            sd.toral_close(T, sd.PseudoOrbit(pts, epsilon=1e-3))

    def test_complex_eigenvalue_base(self):
        T = sd.ToralAutomorphism(np.array([[0, 1, 0], [0, 0, 1], [1, 1, 0]]))
        po = sd.jittered_orbit(T, np.zeros(3), 9, 1e-7, seed=5)
        res = sd.toral_close(T, po)
        assert res.numerators == (0, 0, 0)
        assert res.sup_distance <= res.bound

    def test_distance_profile_matches_points(self):
        T = sd.ToralAutomorphism(CAT)
        po = sd.jittered_orbit(T, np.array([0.2, 0.4]), 6, 1e-6, seed=7)
        res = sd.toral_close(T, po)
        pt = np.asarray(res.numerators) / res.denominator
        dists = []
        for x in po.points:
            dists.append(float(np.max(np.abs(x - pt - np.round(x - pt)))))
            pt = T.apply(pt)
        assert res.sup_distance == pytest.approx(max(dists))


class TestIntegerHelpers:
    def test_det_matches_numpy_on_small_matrices(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            M = rng.integers(-4, 5, size=(3, 3))
            assert sd._int_det(M.tolist()) == round(np.linalg.det(M))

    def test_matpow_matches_numpy(self):
        P = sd._int_matpow(CAT.tolist(), 7)
        assert np.array_equal(np.array(P), np.linalg.matrix_power(CAT, 7))

    def test_zero_determinant(self):
        assert sd._int_det([[1, 2], [2, 4]]) == 0
