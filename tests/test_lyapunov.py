"""Blocked QR Lyapunov estimates against closed-form and brute-force oracles."""
import numpy as np
import pytest

import cocyclelab.cocycles as cc
import cocyclelab.lyapunov as ly
import cocyclelab.shifts as sh

FULL2 = sh.SftSpec.full_shift(2, theta=0.5)
GOLDEN = sh.SftSpec.golden_mean(theta=0.5)


def rot(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s], [s, c]])


def lc(base, g0, g1):
    return cc.CocycleSpec(base, 1, {"0": g0, "1": g1})


def brute_qr(mats):
    d = mats.shape[1]
    Q = np.eye(d)
    sums = np.zeros(d)
    for M in mats:
        Q, R = np.linalg.qr(M @ Q)
        sums += np.log(np.abs(np.diag(R)))
    return sums / len(mats)


class TestQrPipeline:
    def test_matches_stepwise_qr(self):
        A = lc(FULL2, np.diag([2.0, 0.5]), np.array([[1.0, 1.0], [0.5, 2.0]]))
        mu = sh.parry_measure(FULL2)
        symbols = np.asarray(mu.sample_orbit(400, seed=5))
        mats, logdet = A.path_matrices(symbols)
        blocked = ly.qr_spectrum(mats, logdet, block_size=8)
        ref = brute_qr(mats[: blocked.n_steps])
        assert np.allclose(blocked.exponents, ref, atol=1e-8)

    def test_block_size_invariance(self):
        A = lc(FULL2, np.diag([2.0, 0.5]), np.array([[1.0, 1.0], [0.5, 2.0]]))
        mu = sh.parry_measure(FULL2)
        symbols = np.asarray(mu.sample_orbit(512, seed=9))
        mats, logdet = A.path_matrices(symbols)
        runs = [ly.qr_spectrum(mats, logdet, block_size=b) for b in (1, 4, 16)]
        for r in runs[1:]:
            assert np.allclose(r.exponents, runs[0].exponents, atol=1e-8)

    def test_volume_consistency(self):
        A = lc(FULL2, np.diag([2.0, 0.5]), np.array([[1.0, 1.0], [0.5, 2.0]]))
        mu = sh.parry_measure(FULL2)
        est = ly.lyapunov_qr(A, mu, n_steps=20_000, seed=3)
        assert est.volume_residual < ly.VOLUME_TOL

    def test_conformal_exact(self):
        g = 1.5 * rot(0.7)
        A = lc(FULL2, g, 1.5 * rot(-0.3))
        mu = sh.parry_measure(FULL2)
        est = ly.lyapunov_qr(A, mu, n_steps=4_000, seed=1)
        assert np.allclose(est.exponents, np.log(1.5), atol=1e-12)
        assert np.all(est.stderr < 1e-12)

    def test_identity_cocycle_all_zero(self):
        A = lc(FULL2, np.eye(2), np.eye(2))
        mu = sh.parry_measure(FULL2)
        est = ly.lyapunov_qr(A, mu, n_steps=2_000, seed=0)
        assert np.all(est.exponents == 0.0)
        assert est.multiplicities == (2,)

    def test_constant_nonnormal_matches_eigenmoduli(self):
        S = np.array([[1.0, 3.0], [0.0, 1.0]])
        M = S @ np.diag([2.0, 0.5]) @ np.linalg.inv(S)
        A = lc(FULL2, M, M)
        mu = sh.parry_measure(FULL2)
        est = ly.lyapunov_qr(A, mu, n_steps=100_000, seed=2)
        assert np.allclose(est.exponents, [np.log(2.0), np.log(0.5)], atol=1e-3)

    def test_report_carries_seed_and_multiplicities(self):
        A = lc(FULL2, np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0]))
        mu = sh.parry_measure(FULL2)
        est = ly.lyapunov_qr(A, mu, n_steps=5_000, seed=11)
        assert est.seed == 11
        assert est.multiplicities == (1, 1)
        assert est.n_steps == 5_000

    def test_too_few_steps_rejected(self):
        A = lc(FULL2, np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0]))
        mu = sh.parry_measure(FULL2)
        with pytest.raises(ValueError, match="steps"):
            ly.lyapunov_qr(A, mu, n_steps=500, seed=0)


class TestClosedFormOracle:
    def test_diagonal_full_shift(self):
        A = lc(FULL2, np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0]))
        mu = sh.parry_measure(FULL2)
        oracle = ly.closed_form_oracle(A, mu)
        lam = 0.5 * (np.log(2.0) + np.log(3.0))
        assert np.allclose(oracle, [lam, -lam], atol=1e-14)

    def test_diagonal_golden_mean(self):
        A = cc.CocycleSpec(
            GOLDEN, 1, {"0": np.diag([2.0, 0.5]), "1": np.diag([5.0, 0.2])}
        )
        mu = sh.parry_measure(GOLDEN)
        oracle = ly.closed_form_oracle(A, mu)
        f0 = mu.cylinder((0,))
        lam = f0 * np.log(2.0) + (1 - f0) * np.log(5.0)
        assert oracle[0] == pytest.approx(lam, rel=1e-13)
        assert oracle[1] == pytest.approx(-lam, rel=1e-13)

    def test_triangular_uses_diagonal(self):
        A = lc(
            FULL2,
            np.array([[2.0, 1.0], [0.0, 0.5]]),
            np.array([[3.0, -1.0], [0.0, 1.0 / 3.0]]),
        )
        mu = sh.parry_measure(FULL2)
        oracle = ly.closed_form_oracle(A, mu)
        lam = 0.5 * (np.log(2.0) + np.log(3.0))
        assert np.allclose(oracle, [lam, -lam], atol=1e-14)

    def test_conformal_blocks_and_scalars(self):
        g0 = np.zeros((3, 3))
        g0[:2, :2] = 2.0 * rot(0.4)
        g0[2, 2] = 0.1
        g1 = np.zeros((3, 3))
        g1[:2, :2] = 0.5 * rot(-0.2)
        g1[2, 2] = 10.0
        A = lc(FULL2, g0, g1)
        mu = sh.parry_measure(FULL2)
        oracle = ly.closed_form_oracle(A, mu)
        pair = 0.5 * (np.log(2.0) + np.log(0.5))
        scalar = 0.5 * (np.log(0.1) + np.log(10.0))
        assert np.allclose(sorted(oracle), sorted([pair, pair, scalar]), atol=1e-13)

    def test_unstructured_rejected(self):
        A = lc(FULL2, np.array([[2.0, 1.0], [1.0, 1.0]]), np.diag([2.0, 0.5]))
        mu = sh.parry_measure(FULL2)
        with pytest.raises(ValueError, match="simultaneously"):
            ly.closed_form_oracle(A, mu)

    def test_shared_nonstandard_basis(self):
        S = np.array([[1.0, 1.0], [0.5, -1.0]])
        Sinv = np.linalg.inv(S)
        A = lc(FULL2, S @ np.diag([2.0, 0.5]) @ Sinv, S @ np.diag([3.0, 1.0 / 3.0]) @ Sinv)
        mu = sh.parry_measure(FULL2)
        oracle = ly.closed_form_oracle(A, mu)
        lam = 0.5 * (np.log(2.0) + np.log(3.0))
        assert np.allclose(oracle, [lam, -lam], atol=1e-10)

    def test_duplicated_block_control(self):
        Q = np.array([[1.0, 1.0], [0.0, 1.0]])
        Qinv = np.linalg.inv(Q)

        def dup(diag):
            D = np.diag(diag)
            out = np.zeros((4, 4))
            out[:2, :2] = D
            out[2:, 2:] = Q @ D @ Qinv
            return out

        A = lc(FULL2, dup([2.0, 0.5]), dup([3.0, 1.0 / 3.0]))
        mu = sh.parry_measure(FULL2)
        oracle = ly.closed_form_oracle(A, mu)
        lam = 0.5 * (np.log(2.0) + np.log(3.0))
        assert np.allclose(oracle, [lam, lam, -lam, -lam], atol=1e-10)

    def test_qr_agrees_with_oracle(self):
        A = cc.CocycleSpec(
            GOLDEN, 1, {"0": np.diag([2.0, 0.5]), "1": np.diag([5.0, 0.2])}
        )
        mu = sh.parry_measure(GOLDEN)
        oracle = ly.closed_form_oracle(A, mu)
        est = ly.lyapunov_qr(A, mu, n_steps=100_000, seed=12)
        for j in range(2):
            tol = max(3 * est.stderr[j], 1e-3)
            assert abs(est.exponents[j] - oracle[j]) < tol


class TestMultiplicity:
    def test_explicit_tolerance(self):
        sizes = ly.multiplicity_cluster(np.array([1.0, 0.999, 0.2]), gap_tol=0.01)
        assert sizes == [2, 1]

    def test_resolution_scaling(self):
        sizes = ly.multiplicity_cluster(np.array([1.0, 0.5, 0.0]), n_steps=10_000)
        assert sizes == [1, 1, 1]
        sizes = ly.multiplicity_cluster(np.array([1.0, 1.0 - 1e-3, 0.0]), n_steps=10_000)
        assert sizes == [2, 1]

    def test_requires_descending(self):
        with pytest.raises(ValueError, match="descending"):
            ly.multiplicity_cluster(np.array([0.0, 1.0]), gap_tol=0.1)

    def test_conformal_pair_detected(self):
        g = 1.5 * rot(0.7)
        A = lc(FULL2, g, 1.5 * rot(-0.3))
        mu = sh.parry_measure(FULL2)
        est = ly.lyapunov_qr(A, mu, n_steps=4_000, seed=1)
        assert ly.multiplicity_cluster(est.exponents, n_steps=est.n_steps) == [2]


class TestExteriorCheck:
    def test_top_power_is_determinant(self):
        A = lc(FULL2, np.diag([2.0, 0.5]), np.array([[1.0, 1.0], [0.5, 2.0]]))
        mu = sh.parry_measure(FULL2)
        chk = ly.exterior_sum_check(A, mu, k=2, n_steps=20_000, seed=4)
        assert chk.consistent
        assert chk.residual < 1e-6

    def test_three_dim_pair_sum(self):
        g0 = np.diag([3.0, 1.0, 0.25])
        g1 = np.diag([2.0, 1.5, 0.4])
        A = lc(FULL2, g0, g1)
        mu = sh.parry_measure(FULL2)
        chk = ly.exterior_sum_check(A, mu, k=2, n_steps=50_000, seed=7)
        assert chk.consistent
        oracle = ly.closed_form_oracle(A, mu)
        assert chk.top_sum == pytest.approx(oracle[0] + oracle[1], abs=5e-3)

    def test_bad_order_rejected(self):
        A = lc(FULL2, np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0]))
        mu = sh.parry_measure(FULL2)
        with pytest.raises(ValueError, match="order"):
            ly.exterior_sum_check(A, mu, k=3, n_steps=1000, seed=0)

    def test_short_path_rejected(self):
        A = lc(FULL2, np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0]))
        mu = sh.parry_measure(FULL2)
        with pytest.raises(ValueError, match="at least"):
            ly.exterior_sum_check(A, mu, k=1, n_steps=ly.MIN_STEPS - 1, seed=0)
