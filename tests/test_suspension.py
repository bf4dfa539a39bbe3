"""Roof functions, periods, the exact height-integral formulas and return cocycles."""
import numpy as np
import pytest

import cocyclelab.lyapunov as ly
import cocyclelab.shifts as sh
import cocyclelab.suspension as sp

FULL2 = sh.SftSpec.full_shift(2, theta=0.5)
GOLDEN = sh.SftSpec.golden_mean(theta=0.5)


def rot(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s], [s, c]])


def constant_roof(base, value, window=1):
    return sp.RoofFunction(base, window, {w: value for w in base.admissible_words(window)})


def period(sys, word):
    """Flow period of a word, with its periodic point built here."""
    return sp.period(sys, sh.periodic_point(sys.base, word), len(sh.parse_word(word)))


def mixed_system(r0=1.0, r1=2.0):
    roof = sp.RoofFunction(FULL2, 1, {"0": r0, "1": r1})
    return sp.SuspensionSystem(FULL2, roof)


class TestRoofFunction:
    def test_constant_roof(self):
        roof = sp.RoofFunction(FULL2, 1, {"0": 1.5, "1": 1.5})
        assert roof.values == {(0,): 1.5, (1,): 1.5}

    def test_window_word_lookup(self):
        roof = sp.RoofFunction(GOLDEN, 2, {"00": 1.0, "01": 2.0, "10": 3.0})
        assert roof.values[(0, 1)] == 2.0
        assert roof.values[(1, 0)] == 3.0

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            sp.RoofFunction(FULL2, 1, {"0": 1e-4, "1": 1.0})

    def test_missing_word_rejected(self):
        with pytest.raises(ValueError, match="every admissible"):
            sp.RoofFunction(FULL2, 1, {"0": 1.0})


class TestPeriod:
    def test_unit_roof(self):
        sys = sp.SuspensionSystem(FULL2, constant_roof(FULL2, 1.0))
        assert period(sys, "0110") == 4.0

    def test_mixed_roof(self):
        assert period(mixed_system(), "01") == 3.0

    def test_doubling_word_doubles(self):
        sys = mixed_system(1.0, 2.5)
        assert period(sys, "0101") == 2 * period(sys, "01")

    def test_cyclic_rotation_invariance(self):
        sys = mixed_system(1.0, 2.5)
        assert period(sys, "011") == period(sys, "110") == period(sys, "101")

    def test_inadmissible_word_rejected(self):
        roof = sp.RoofFunction(GOLDEN, 1, {"0": 1.0, "1": 2.0})
        sys = sp.SuspensionSystem(GOLDEN, roof)
        with pytest.raises(ValueError):
            period(sys, "11")


class TestHeightPolynomial:
    def test_degree_cap(self):
        with pytest.raises(ValueError, match="degree"):
            sp.HeightPolynomial(1, {"0": (1, 1, 1, 1, 1), "1": (1,)})


class TestLiftIntegral:
    def test_normalization(self):
        mu = sh.parry_measure(FULL2)
        one = sp.HeightPolynomial(1, {"0": (1.0,), "1": (1.0,)})
        for sys in (mixed_system(), mixed_system(0.3, 1.7)):
            assert sp.lift_measure_integral(sys, mu, one) == pytest.approx(1.0, abs=1e-14)

    def test_base_cylinder_indicator(self):
        sys = sp.SuspensionSystem(FULL2, constant_roof(FULL2, 1.0))
        mu = sh.gibbs_locally_constant(FULL2, {"00": 0.4, "01": 0.0, "10": -0.3, "11": 0.2})
        ind = sp.HeightPolynomial(1, {"0": (1.0,), "1": (0.0,)})
        assert sp.lift_measure_integral(sys, mu, ind) == pytest.approx(
            mu.cylinder("0"), abs=1e-14
        )

    def test_height_average_exact(self):
        # fiberwise integral of t over [0, roof] is roof^2/2 per symbol
        sys = mixed_system()
        mu = sh.parry_measure(FULL2)
        height = sp.HeightPolynomial(1, {"0": (0.0, 1.0), "1": (0.0, 1.0)})
        val = sp.lift_measure_integral(sys, mu, height)
        assert val == pytest.approx(5.0 / 6.0, abs=1e-12)


class TestTimeChange:
    def test_unit_roof_unchanged(self):
        mu = sh.parry_measure(FULL2)
        roof = constant_roof(FULL2, 1.0)
        lam = np.array([0.9, -0.9])
        assert np.array_equal(sp.time_change_scaling(lam, mu, roof), lam)

    def test_double_roof_halves(self):
        mu = sh.parry_measure(FULL2)
        roof = constant_roof(FULL2, 2.0)
        out = sp.time_change_scaling([0.9, -0.3], mu, roof)
        assert np.allclose(out, [0.45, -0.15], atol=1e-15)

    def test_mixed_roof_mean(self):
        mu = sh.parry_measure(FULL2)
        roof = sp.RoofFunction(FULL2, 1, {"0": 1.0, "1": 2.0})
        assert sp.roof_integral(mu, roof) == pytest.approx(1.5, abs=1e-14)
        out = sp.time_change_scaling([3.0], mu, roof)
        assert out[0] == pytest.approx(2.0, abs=1e-14)


class TestReturnCocycle:
    def test_unit_roof_keeps_generator(self):
        sys = sp.SuspensionSystem(FULL2, constant_roof(FULL2, 1.0))
        M = np.array([[2.0, 1.0], [0.0, 0.5]])
        fc = sp.FlowCocycle(sys, 1, {"0": M, "1": rot(0.3)})
        A = sp.return_cocycle(fc)
        assert np.array_equal(A.generator[(0,)], M)

    def test_double_roof_squares_conformal(self):
        sys = sp.SuspensionSystem(FULL2, constant_roof(FULL2, 2.0))
        fc = sp.FlowCocycle(sys, 1, {"0": 1.1 * rot(0.4), "1": rot(0.1)})
        A = sp.return_cocycle(fc)
        assert np.allclose(A.generator[(0,)], 1.1**2 * rot(0.8), atol=1e-12)

    def test_no_real_power_rejected(self):
        # return generators are integer matrix powers: a roof value that is
        # not an integer has none, and one within rounding of an integer,
        # such as a scaled roof 0.57 * 100, is taken as that integer
        per_unit = {"0": 4.0 * rot(0.4), "1": rot(0.2)}
        for values in ({"0": 0.5, "1": 1.0}, {"0": 1.0, "1": 2.0 + 1e-11}):
            sys = sp.SuspensionSystem(FULL2, sp.RoofFunction(FULL2, 1, values))
            with pytest.raises(ValueError, match="integer roof values"):
                sp.return_cocycle(sp.FlowCocycle(sys, 1, per_unit))
        for values in ({"0": 1.0, "1": 2.0 + 1e-13}, {"0": 0.57 * 100, "1": 1.0}):
            sys = sp.SuspensionSystem(FULL2, sp.RoofFunction(FULL2, 1, values))
            A = sp.return_cocycle(sp.FlowCocycle(sys, 1, per_unit))
            for w, M in per_unit.items():
                k = round(values[w])
                assert np.array_equal(A.generator[(int(w),)], np.linalg.matrix_power(M, k))

    def test_missing_generator_rejected(self):
        sys = mixed_system()
        with pytest.raises(ValueError, match="every admissible"):
            sp.FlowCocycle(sys, 1, {"0": np.eye(2)})

    def test_flow_exponents_invariant_under_time_change(self):
        # same per-unit cocycle read against roof and 2*roof: discrete
        # exponents double while the mean return time doubles, so the flow
        # spectrum is unchanged
        mu = sh.parry_measure(FULL2)
        per_unit = {"0": 1.2 * rot(0.3), "1": 0.8 * rot(-0.5)}
        flows = []
        for c in (1.0, 2.0):
            roof = sp.RoofFunction(FULL2, 1, {"0": c * 1.0, "1": c * 2.0})
            sys = sp.SuspensionSystem(FULL2, roof)
            A = sp.return_cocycle(sp.FlowCocycle(sys, 1, per_unit))
            est = ly.lyapunov_qr(A, mu, n_steps=20_000, seed=7)
            flows.append(sp.time_change_scaling(est.exponents, mu, roof))
        assert np.allclose(flows[0], flows[1], atol=1e-10)
