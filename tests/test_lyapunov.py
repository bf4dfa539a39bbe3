"""Blocked QR Lyapunov estimates against closed-form and brute-force oracles."""
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest

import cocyclelab.cocycles as cc
import cocyclelab.experiments as ex
import cocyclelab.experiments.config as cf
import cocyclelab.experiments.parallel as par
import cocyclelab.linalg as la
import cocyclelab.lyapunov as ly
import cocyclelab.shifts as sh

FULL2 = sh.SftSpec.full_shift(2, theta=0.5)
GOLDEN = sh.SftSpec.golden_mean(theta=0.5)


def rot(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s], [s, c]])


def lc(base, g0, g1):
    return cc.CocycleSpec(base, 1, {"0": g0, "1": g1})


def whole_path(A, symbols):
    """Step matrices and log|det| of every step of a sample path."""
    return A.path_matrices(symbols, 0, len(symbols) - A.window + 1)


def tree_reduce(mats, B):
    """Collapse rows of (nb, B, d, d) into normalized block products.

    Returns (products (nb, d, d), logscale (nb,)) with true product
    equal to products * exp(logscale).  The whole-path definition of the
    block stage's output, which ly._block_products reproduces bit for bit."""
    nb, width, d, _ = mats.shape
    P = mats
    logs = np.zeros(nb)
    while width > 1:
        P = P[:, 1::2] @ P[:, 0::2]
        width //= 2
        s = np.maximum(P.max(axis=(2, 3)), -P.min(axis=(2, 3)))
        s = np.maximum(s, 1e-300)
        P /= s[..., None, None]
        logs += np.log(s).sum(axis=1)
    return P[:, 0], logs


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
        mats, logdet = whole_path(A, symbols)
        blocked = ly.qr_spectrum(StepArrays(mats, logdet), block_size=8)
        ref = brute_qr(mats[: blocked.n_steps])
        assert np.allclose(blocked.exponents, ref, atol=1e-8)

    def test_block_size_invariance(self):
        A = lc(FULL2, np.diag([2.0, 0.5]), np.array([[1.0, 1.0], [0.5, 2.0]]))
        mu = sh.parry_measure(FULL2)
        symbols = np.asarray(mu.sample_orbit(512, seed=9))
        mats, logdet = whole_path(A, symbols)
        runs = [ly.qr_spectrum(StepArrays(mats, logdet), block_size=b) for b in (1, 4, 16)]
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

    def test_report_carries_multiplicities(self):
        A = lc(FULL2, np.diag([2.0, 0.5]), np.diag([3.0, 1.0 / 3.0]))
        mu = sh.parry_measure(FULL2)
        est = ly.lyapunov_qr(A, mu, n_steps=5_000, seed=11)
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

    def test_non_commuting_standard_axes_rejected(self):
        # each generator is block-conformal on the standard axes, but the
        # rotation block and the diagonal do not commute, so per-axis logs
        # do not add up along a path
        A = lc(FULL2, 1.5 * rot(0.7), np.diag([3.0, 0.25]))
        mu = sh.parry_measure(FULL2)
        with pytest.raises(ValueError, match="not simultaneously block-diagonal"):
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


# ---------------------------------------------------------------------------
# lockstep segments against one sequential QR recurrence
# ---------------------------------------------------------------------------

def sequential_qr_spectrum(mats, logdet, block_size, n_batches=ly.DEFAULT_BATCHES):
    """qr_spectrum as one QR recurrence walking every block in order from
    the identity frame, one d x d QR per block."""
    T, d, _ = mats.shape
    B = block_size
    nb = T // B
    if nb < n_batches:
        n_batches = max(1, nb)
    used = nb * B
    prods, logs = tree_reduce(mats[:used].reshape(nb, B, d, d), B)
    Q = np.eye(d)
    batch_sums = np.zeros((n_batches, d))
    batch_steps = np.zeros(n_batches)
    for i in range(nb):
        M = prods[i] @ Q
        Q, R = np.linalg.qr(M)
        diag = np.abs(np.diag(R))
        b = i * n_batches // nb
        batch_sums[b] += np.log(diag) + logs[i]
        batch_steps[b] += B
    total = batch_sums.sum(axis=0)
    exponents = total / used
    means = batch_sums / batch_steps[:, None]
    if n_batches > 1:
        stderr = means.std(axis=0, ddof=1) / np.sqrt(n_batches)
    else:
        stderr = np.full(d, np.inf)
    order = np.argsort(-exponents, kind="stable")
    exponents = exponents[order]
    stderr = stderr[order]
    vol = abs(float(exponents.sum() - logdet[:used].mean()))
    return ly.LyapunovEstimate(exponents, stderr, used, B, vol)


class StepArrays:
    """qr_spectrum's step source over given step matrices and their
    log|det|: whole blocks in order, nothing shared."""

    def __init__(self, mats, logdet):
        self.mats, self.logdet = mats, logdet
        self.shape = mats.shape

    def chunk(self, a, b, B):
        return self.mats[a:b], [], self.logdet[a:b], None


def sampled_path(A, mu, n_steps, seed):
    """Step matrices, log|det| and the lyapunov_qr block size of one path."""
    symbols = np.asarray(mu.sample_orbit(n_steps + A.window - 1, seed))
    mats, logdet = whole_path(A, symbols)
    return mats, logdet, ly._adaptive_block(A, n_steps)


def assert_same_estimate(new, ref):
    assert np.array_equal(new.exponents, ref.exponents)
    assert np.array_equal(new.stderr, ref.stderr)
    assert (new.n_steps, new.block_size, new.volume_residual) == (
        ref.n_steps, ref.block_size, ref.volume_residual)


E1_CONFIG = cf.load_config(str(Path(ex.__file__).parent / "configs" / "e1.json"))
E1_MEMBERS = E1_CONFIG["suite"] + [E1_CONFIG["control"], E1_CONFIG["informative"]]
E1_PAIRS = [(m, mc) for m in E1_MEMBERS for mc in m["measures"]]


def conjugated(C, diag):
    return C @ np.diag(diag) @ np.linalg.inv(C)


C2 = np.array([[1.0, 0.4], [-0.3, 1.2]])
C3 = np.array([[1.0, 0.3, 0.0], [0.2, 1.1, -0.4], [-0.1, 0.2, 0.9]])
C4 = np.eye(4) + 0.25 * np.arange(16).reshape(4, 4) / 16.0
# the conjugated generator pairs of acceptance criterion 1, then seeded
# Gaussian pairs at d = 2, 3, 4
NON_DEGENERATE = {
    "conj-d2-a": (conjugated(C2, [2.0, 0.5]), conjugated(C2, [3.0, 1 / 3.0])),
    "conj-d2-b": (conjugated(C2, [1.7, 0.7]), conjugated(C2, [0.8, 1.9])),
    "conj-d3": (conjugated(C3, [2.2, 1.1, 0.4]), conjugated(C3, [1.5, 0.8, 0.6])),
    "conj-d4": (conjugated(C4, [2.0, 1.3, 0.7, 0.4]),
                conjugated(C4, [1.8, 1.2, 0.6, 0.35])),
}


def random_pair(seed):
    rng = np.random.default_rng(seed)
    d = 2 + seed % 3
    return rng.normal(size=(d, d)), rng.normal(size=(d, d))


NON_DEGENERATE.update({f"random-{s}-d{2 + s % 3}": random_pair(s) for s in range(6)})


def conformal_conjugated(W):
    Winv = np.linalg.inv(W)
    return lc(FULL2, W @ (1.5 * rot(0.7)) @ Winv, W @ (0.8 * rot(-0.3)) @ Winv)


class TestLockstepSamePath:
    @pytest.mark.parametrize("n_steps", [9_000, 60_000])
    @pytest.mark.parametrize(
        "member,measure", E1_PAIRS,
        ids=[f"{m['name']}-{mc.get('name', mc['kind'])}" for m, mc in E1_PAIRS])
    def test_e1_paths_bit_identical(self, member, measure, n_steps):
        spec = cf.build_base(E1_CONFIG["base"])
        A = cf.build_cocycle(spec, member["cocycle"])
        mu = cf.build_measure(spec, measure)
        mats, logdet, B = sampled_path(A, mu, n_steps, seed=E1_CONFIG["seed"])
        assert_same_estimate(ly.qr_spectrum(StepArrays(mats, logdet), B),
                             sequential_qr_spectrum(mats, logdet, B))

    @pytest.mark.parametrize("block_size", [1, 8, 64])
    def test_single_segment_bit_identical(self, block_size):
        # under two minimum-length segments there is one segment and no
        # warm-up, so even a conformal cocycle, whose frame never forgets
        # its start, reproduces the sequential run
        A = conformal_conjugated(np.array([[3.0, 1.0], [0.0, 0.5]]))
        mats, logdet, _ = sampled_path(A, sh.parry_measure(FULL2), 5_000, seed=3)
        assert_same_estimate(ly.qr_spectrum(StepArrays(mats, logdet), block_size),
                             sequential_qr_spectrum(mats, logdet, block_size))

    @pytest.mark.parametrize("name", sorted(NON_DEGENERATE))
    def test_non_degenerate_within_rounding(self, name):
        A = lc(FULL2, *NON_DEGENERATE[name])
        mats, logdet, B = sampled_path(A, sh.parry_measure(FULL2), 30_000, seed=5)
        paths = [(mats, logdet, B)]
        if A.dim > 2:
            paths.append((la.exterior_power(mats, 2), logdet * (A.dim - 1), max(1, B // 2)))
        for m, ld, b in paths:
            new = ly.qr_spectrum(StepArrays(m, ld), b)
            ref = sequential_qr_spectrum(m, ld, b)
            assert np.max(np.abs(new.exponents - ref.exponents)) <= 1e-9
            assert np.all(np.abs(new.stderr - ref.stderr) <= 1e-5 * ref.stderr)

    def test_conformal_moves_within_seam_bound(self):
        # the qr_spectrum docstring's bound: each segment start after the
        # second moves every exponent by at most (2d - 3) log cond_2(P) /
        # n_steps with cond_2(P) <= cond_2(W)^2, and there are at most
        # _MAX_SEGMENTS_PER_BATCH * n_batches segments
        W = np.array([[3.0, 1.0], [0.0, 0.5]])
        A = conformal_conjugated(W)
        mats, logdet, B = sampled_path(A, sh.parry_measure(FULL2), 60_000, seed=3)
        new = ly.qr_spectrum(StepArrays(mats, logdet), B)
        ref = sequential_qr_spectrum(mats, logdet, B)
        seams = ly._MAX_SEGMENTS_PER_BATCH * ly.DEFAULT_BATCHES - 2
        bound = seams * 2.0 * np.log(np.linalg.cond(W)) / new.n_steps
        assert np.max(np.abs(new.exponents - ref.exponents)) <= bound + 1e-12
        assert new.volume_residual < ly.VOLUME_TOL

    def test_batched_qr_calls(self, monkeypatch):
        calls = []
        qr_step = ly._qr_step

        def counting_qr(M):
            calls.append(M.shape)
            return qr_step(M)

        monkeypatch.setattr(ly, "_qr_step", counting_qr)
        A = lc(FULL2, np.diag([2.0, 0.5]), np.array([[1.0, 1.0], [0.5, 2.0]]))
        mats, logdet, _ = sampled_path(A, sh.parry_measure(FULL2), 200_000, seed=1)
        ly.qr_spectrum(StepArrays(mats, logdet), block_size=8)
        nb = 200_000 // 8
        # the sizing rule: at most 10 segments per stderr batch, each at
        # least 4096 steps long
        segments = min(ly._MAX_SEGMENTS_PER_BATCH * ly.DEFAULT_BATCHES,
                       nb // -(-ly._MIN_SEGMENT_STEPS // 8))
        assert segments > 2
        L = -(-nb // segments)
        assert len(calls) <= 2 * L
        # phase 1 advances every segment together for L steps; phase 2
        # then holds one row per seam that has not met yet
        assert all(shape[0] == segments for shape in calls[:L])
        phase2 = [shape[0] for shape in calls[L:]]
        assert phase2 == sorted(phase2, reverse=True) and phase2[0] == segments - 1

    def test_path_shorter_than_a_block_rejected(self):
        mats = np.tile(np.eye(2), (3, 1, 1))
        with pytest.raises(ValueError, match="fewer than 20 blocks of 4"):
            ly.qr_spectrum(StepArrays(mats, np.zeros(3)), block_size=4)

    @pytest.mark.parametrize("n_batches", [0, -3])
    def test_batch_count_must_be_positive(self, n_batches):
        mats = np.tile(np.eye(2), (64, 1, 1))
        with pytest.raises(ValueError, match="at least two stderr batches"):
            ly.qr_spectrum(StepArrays(mats, np.zeros(64)), block_size=4, n_batches=n_batches)

    @pytest.mark.parametrize("block_size", [0, -4, 3, 5, 6])
    def test_block_size_must_be_a_power_of_two(self, block_size):
        # the pairwise tree halves every block until one product is left
        mats = np.tile(np.diag([2.0, 0.5]), (96, 1, 1))
        with pytest.raises(ValueError, match="positive power of two"):
            ly.qr_spectrum(StepArrays(mats, np.zeros(96)), block_size=block_size)




# ---------------------------------------------------------------------------
# the two-phase recurrence against one full warm-up segment per seam
# ---------------------------------------------------------------------------

def warmup_lockstep_qr(prods, nb, L):
    """The lockstep recurrence over the first nb blocks of prods with a full
    warm-up: stack row c starts from the identity at block c L; row 0 runs
    segments 0 and 1, and row c > 0 warms up on segment c, discards it and
    keeps segment c + 1."""
    prods = prods[:nb]
    d = prods.shape[-1]
    starts = np.arange(0, max(nb - L, 1), L)
    Q = np.broadcast_to(np.eye(d), (len(starts), d, d))
    diag = np.empty((nb, d))
    for j in range(min(2 * L, nb)):
        idx = np.minimum(starts + j, nb - 1)
        Q, R = np.linalg.qr(prods[idx] @ Q)
        keep = (starts + j < nb) & ((starts == 0) | (j >= L))
        diag[idx[keep]] = np.abs(np.diagonal(R[keep], axis1=1, axis2=2))
    return diag, None


def assert_same_as_warmup(mats, logdet, B, n_batches=ly.DEFAULT_BATCHES):
    """qr_spectrum against itself with warmup_lockstep_qr as its
    recurrence; returns the two-phase estimate."""
    new = ly.qr_spectrum(StepArrays(mats, logdet), B, n_batches)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ly, "_lockstep_qr", warmup_lockstep_qr)
        ref = ly.qr_spectrum(StepArrays(mats, logdet), B, n_batches)
    assert_same_estimate(new, ref)
    assert (new.segments, new.reduced_blocks) == (ref.segments, ref.reduced_blocks)
    return new


def segment_length(est):
    nb = est.n_steps // est.block_size
    return nb, -(-nb // est.segments)


class TestTwoPhaseSamePath:
    @pytest.mark.parametrize(
        "member,measure", E1_PAIRS,
        ids=[f"{m['name']}-{mc.get('name', mc['kind'])}" for m, mc in E1_PAIRS])
    def test_e1_paths(self, member, measure):
        spec = cf.build_base(E1_CONFIG["base"])
        A = cf.build_cocycle(spec, member["cocycle"])
        mu = cf.build_measure(spec, measure)
        est = assert_same_as_warmup(*sampled_path(A, mu, 60_000, seed=E1_CONFIG["seed"]))
        # the seams meet within a few blocks, later on the two members with
        # a small gap between exponents (about 70 and 470 blocks a seam)
        nb, L = segment_length(est)
        assert est.segments > 2
        per_seam = est.seam_blocks / (est.segments - 1)
        if member["name"] in ("generic-d3", "generic-d4"):
            assert per_seam < L
        else:
            assert 1 <= per_seam <= 8

    def test_conformal_seams_never_meet(self):
        # equal exponents: a seam's frame never forgets its start, so every
        # seam re-runs its whole segment, as the warm-up did
        A = conformal_conjugated(np.array([[3.0, 1.0], [0.0, 0.5]]))
        est = assert_same_as_warmup(*sampled_path(A, sh.parry_measure(FULL2), 60_000, seed=3))
        nb, L = segment_length(est)
        assert est.segments > 2
        assert est.seam_blocks == nb - L

    def test_bump_path(self):
        A = hoelder_bump_cocycle()
        mats, logdet = whole_path(A, sh.parry_measure(A.base).sample_orbit(50_000, seed=2024))
        est = assert_same_as_warmup(mats, logdet, 8)
        assert est.segments > 2

    @pytest.mark.parametrize("name", ["random-1-d3", "conformal"])
    def test_last_segment_shorter(self, monkeypatch, name):
        # segments of at least 32 blocks of 8: 1921 blocks make 59 segments
        # of 33 and a last one of 7, shorter than the checkpoint at 8
        monkeypatch.setattr(ly, "_MIN_SEGMENT_STEPS", 256)
        if name == "conformal":
            A = conformal_conjugated(np.array([[3.0, 1.0], [0.0, 0.5]]))
        else:
            A = lc(FULL2, *NON_DEGENERATE[name])
        mats, logdet, _ = sampled_path(A, sh.parry_measure(FULL2), 1921 * 8, seed=4)
        est = assert_same_as_warmup(mats, logdet, 8)
        nb, L = segment_length(est)
        assert (nb, L, est.segments) == (1921, 33, 59)
        if name == "conformal":
            assert est.seam_blocks == nb - L

    def test_single_segment(self):
        A = lc(FULL2, *NON_DEGENERATE["conj-d3"])
        mats, logdet, B = sampled_path(A, sh.parry_measure(FULL2), 5_000, seed=6)
        est = assert_same_as_warmup(mats, logdet, B)
        assert (est.segments, est.seam_blocks) == (1, 0)

    def test_one_stderr_batch(self):
        # the batch spread needs two batches
        A = e1_cocycle("positive-d2")
        mats, logdet, B = sampled_path(A, sh.parry_measure(A.base), 60_000, seed=8)
        with pytest.raises(ValueError, match="at least two stderr batches"):
            ly.qr_spectrum(StepArrays(mats, logdet), B, n_batches=1)



# ---------------------------------------------------------------------------
# the bare QR step and the segment-major recurrence against np.linalg.qr
# ---------------------------------------------------------------------------

def gathered_lockstep_qr(prods, L):
    """The two-phase recurrence on np.linalg.qr over prods (nb, d, d):
    phase 1 gathers block j of every segment (the last block again past nb)
    and scatters the |R_ii| of the rows still inside the path."""
    nb, d, _ = prods.shape
    starts = np.arange(0, nb, L)
    Q = np.broadcast_to(np.eye(d), (len(starts), d, d))
    diag = np.empty((nb, d))
    checkpoints = {}
    # the frames after 1, 2 and 4 blocks and after every 8th block
    saved = {1, 2, 4, *range(8, L + 1, 8)}
    for j in range(L):
        idx = np.minimum(starts + j, nb - 1)
        Q, R = np.linalg.qr(prods[idx] @ Q)
        live = starts + j < nb
        diag[idx[live]] = np.abs(np.diagonal(R[live], axis1=1, axis2=2))
        if j + 1 in saved:
            checkpoints[j + 1] = Q.view(np.int64)
    seg, Q = np.arange(1, len(starts)), Q[:-1]
    rerun = 0
    for j in range(L):
        blk = starts[seg] + j
        inside = blk < nb
        seg, Q, blk = seg[inside], Q[inside], blk[inside]
        if not len(seg):
            break
        Q, R = np.linalg.qr(prods[blk] @ Q)
        diag[blk] = np.abs(np.diagonal(R, axis1=1, axis2=2))
        rerun += len(seg)
        if j + 1 in checkpoints:
            apart = (Q.view(np.int64) != checkpoints[j + 1][seg]).any(axis=(1, 2))
            seg, Q = seg[apart], Q[apart]
    return diag, rerun


def assert_same_as_gathered(mats, logdet, B):
    """qr_spectrum's recurrence against gathered_lockstep_qr on the same
    block products: equal |R_ii| and seam_blocks.  Returns (estimate, nb,
    L)."""
    seen = []
    lockstep = ly._lockstep_qr

    def recording(prods, nb, L):
        diag, rerun = lockstep(prods, nb, L)
        seen.append((prods, nb, L, diag, rerun))
        return diag, rerun

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ly, "_lockstep_qr", recording)
        est = ly.qr_spectrum(StepArrays(mats, logdet), B)
    [(prods, nb, L, diag, rerun)] = seen
    # padded to whole segments with identities, no block past nb read
    d = prods.shape[-1]
    assert prods.shape == (-(-nb // L) * L, d, d)
    assert np.array_equal(prods[nb:], np.broadcast_to(np.eye(d), (len(prods) - nb, d, d)))
    ref_diag, ref_rerun = gathered_lockstep_qr(prods[:nb], L)
    assert np.array_equal(diag, ref_diag, equal_nan=True)
    assert rerun == ref_rerun == est.seam_blocks
    return est, nb, L


class TestQrStep:
    @pytest.mark.parametrize("n", [1, 11, 200])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_same_bits_as_numpy_qr(self, d, n):
        rng = np.random.default_rng(10 * d + n)
        segments = rng.normal(size=(n, 5, d, d))
        frame, _ = np.linalg.qr(rng.normal(size=(n, d, d)))
        for Q in (np.broadcast_to(np.eye(d), (n, d, d)), frame):
            # block 2 of every segment as a strided view and as a gather
            view, gathered = segments[:, 2], segments.reshape(-1, d, d)[np.arange(n) * 5 + 2]
            M = view @ Q
            assert np.array_equal(M.view(np.int64), (gathered @ Q).view(np.int64))
            ref_q, ref_r = np.linalg.qr(gathered @ Q)
            q = ly._qr_step(M)
            assert np.array_equal(q.view(np.int64), ref_q.view(np.int64))
            assert np.array_equal(np.abs(np.diagonal(M, axis1=1, axis2=2)),
                                  np.abs(np.diagonal(ref_r, axis1=1, axis2=2)))

    def test_numpy_1_fails_at_import(self):
        # numpy 1.x splits geqrf into qr_r_raw_m and qr_r_raw_n
        numpy1 = types.SimpleNamespace(qr_r_raw_m=None, qr_r_raw_n=None, qr_reduced=None)
        with pytest.raises(ImportError, match=r"^cocyclelab needs numpy >= 2\.0: "):
            ly._lapack_qr(numpy1)
        assert ly._lapack_qr(np.linalg._umath_linalg) == (ly._GEQRF, ly._ORGQR)

    def test_recurrence_calls_no_numpy_qr(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.qr called")

        monkeypatch.setattr(np.linalg, "qr", refuse)
        A = lc(FULL2, *NON_DEGENERATE["conj-d2-a"])
        mats, logdet, B = sampled_path(A, sh.parry_measure(FULL2), 60_000, seed=1)
        assert ly.qr_spectrum(StepArrays(mats, logdet), B).segments > 2


class TestSegmentMajorSamePath:
    def test_whole_segments(self):
        # 20480 blocks of 8 are 40 segments of 512: nothing padded
        A = lc(FULL2, *NON_DEGENERATE["conj-d2-a"])
        mats, logdet, _ = sampled_path(A, sh.parry_measure(FULL2), 20480 * 8, seed=1)
        est, nb, L = assert_same_as_gathered(mats, logdet, 8)
        assert (nb, L, est.segments) == (20480, 512, 40)

    @pytest.mark.parametrize("name", ["random-1-d3", "random-2-d4"])
    def test_padded_last_segment(self, monkeypatch, name):
        # 1921 blocks of 8 make 59 segments of 33 and a last one of 7
        monkeypatch.setattr(ly, "_MIN_SEGMENT_STEPS", 256)
        A = lc(FULL2, *NON_DEGENERATE[name])
        mats, logdet, _ = sampled_path(A, sh.parry_measure(FULL2), 1921 * 8, seed=4)
        est, nb, L = assert_same_as_gathered(mats, logdet, 8)
        assert (nb, L, est.segments) == (1921, 33, 59)

    def test_e1_path(self):
        A = e1_cocycle("generic-d4")
        mats, logdet, B = sampled_path(A, sh.parry_measure(A.base), 60_000, seed=E1_CONFIG["seed"])
        est, nb, L = assert_same_as_gathered(mats, logdet, B)
        assert nb % L and 0 < est.seam_blocks < nb - L

    def test_single_segment(self):
        A = lc(FULL2, *NON_DEGENERATE["conj-d3"])
        mats, logdet, B = sampled_path(A, sh.parry_measure(FULL2), 5_000, seed=6)
        est, nb, L = assert_same_as_gathered(mats, logdet, B)
        assert (est.segments, est.seam_blocks, L) == (1, 0, nb)

    def test_conformal_seams_never_meet(self):
        A = conformal_conjugated(np.array([[3.0, 1.0], [0.0, 0.5]]))
        mats, logdet, B = sampled_path(A, sh.parry_measure(FULL2), 60_000, seed=3)
        est, nb, L = assert_same_as_gathered(mats, logdet, B)
        assert est.segments > 2 and est.seam_blocks == nb - L

    def test_bump_path(self):
        A = hoelder_bump_cocycle()
        mats, logdet = whole_path(A, sh.parry_measure(A.base).sample_orbit(50_000, seed=2024))
        est, nb, L = assert_same_as_gathered(mats, logdet, 8)
        assert est.segments > 2

    def test_nan_block_gives_nan_exponents(self):
        A = lc(FULL2, *NON_DEGENERATE["conj-d2-b"])
        mats, logdet, _ = sampled_path(A, sh.parry_measure(FULL2), 60_000, seed=2)
        mats[30_001, 0, 1] = np.nan
        est, *_ = assert_same_as_gathered(mats, logdet, 8)
        assert est.exponents.shape == (2,) and np.all(np.isnan(est.exponents))

    def test_pool_threads_same_bits(self, monkeypatch):
        # the QR gufuncs release the GIL, so two jobs in the pool interleave
        # their LAPACK calls; each job's bits must not depend on it
        jobs = [(e1_cocycle("generic-d4"), 7), (e1_cocycle("positive-d2"), 8)]

        def run(job):
            A, seed = job
            return ly.lyapunov_qr(A, sh.parry_measure(A.base), 100_000, seed)

        serial = [run(job) for job in jobs]
        monkeypatch.setenv("COCYCLE_LAB_THREADS", "2")
        for _ in range(3):
            for new, ref in zip(par.pmap(run, jobs), serial):
                assert_same_estimate(new, ref)
                assert (new.segments, new.reduced_blocks, new.seam_blocks) == (
                    ref.segments, ref.reduced_blocks, ref.seam_blocks)


# ---------------------------------------------------------------------------
# the streamed block stage against one whole-path tree reduction
# ---------------------------------------------------------------------------

def whole_path_blocks(mats, logdet, B):
    """Block products, log scales and log|det| of the first nb B steps,
    tree-reduced from the whole (T, d, d) path at once."""
    nb = len(mats) // B
    d = mats.shape[-1]
    prods, logs = tree_reduce(mats[: nb * B].reshape(nb, B, d, d), B)
    return prods, logs, logdet[: nb * B]


def assert_same_blocks(path, mats, logdet, B):
    nb = len(mats) // B
    streamed = ly._block_products(path.chunk, nb, B)
    for new, ref in zip(streamed, whole_path_blocks(mats, logdet, B)):
        assert np.array_equal(new, ref)


def counted_path_matrices(monkeypatch):
    """The (start, stop) of every path_matrices call from here on."""
    calls = []
    path_matrices = cc.CocycleSpec.path_matrices

    def counting(self, symbols, start, stop):
        calls.append((start, stop))
        return path_matrices(self, symbols, start, stop)

    monkeypatch.setattr(cc.CocycleSpec, "path_matrices", counting)
    return calls


def hoelder_bump_cocycle():
    """A d = 3 cocycle in the style of the benchmark's Hoelder ensemble:
    conjugated scaled rotations on the full 2-shift, theta = 0.7, nu = 1,
    with one skew bump and one bump whose direction has a trace."""
    base = sh.SftSpec.full_shift(2, theta=0.7)
    S = np.array([[1.0, 0.3, 0.0], [0.2, 1.1, -0.4], [-0.1, 0.2, 0.9]])
    Si = np.linalg.inv(S)
    R = np.eye(3)
    R[:2, :2] = rot(0.9)
    R2 = np.eye(3)
    R2[:2, :2] = rot(-2.1)
    bumps = (cc.HoelderBump((0, 1), 0.006),
             cc.HoelderBump((1, 1), -0.004, np.diag([1.0, 0.5, -0.2])))
    return cc.CocycleSpec(base, 1, {"0": 1.3 * S @ R @ Si, "1": 0.8 * S @ R2 @ Si},
                          cc.HoelderPerturbation(1.0, bumps))


def e1_cocycle(name):
    member = next(m for m in E1_MEMBERS if m["name"] == name)
    return cf.build_cocycle(cf.build_base(E1_CONFIG["base"]), member["cocycle"])


def random_cocycle(base, window, d, seed):
    rng = np.random.default_rng(seed)
    words = base.admissible_words(window)
    return cc.CocycleSpec(base, window, {w: rng.normal(size=(d, d)) for w in words})


# locally constant paths whose blocks share sub-blocks
SHARED_PATHS = {
    "golden-window2-d3": lambda: random_cocycle(GOLDEN, 2, 3, 11),
    "full3-d2": lambda: random_cocycle(sh.SftSpec.full_shift(3, theta=0.5), 1, 2, 12),
    "full2-d4": lambda: random_cocycle(FULL2, 1, 4, 13),
}


class TestStreamedBlocks:
    @pytest.mark.parametrize(
        "member,measure", E1_PAIRS,
        ids=[f"{m['name']}-{mc.get('name', mc['kind'])}" for m, mc in E1_PAIRS])
    def test_e1_paths_same_blocks(self, member, measure):
        spec = cf.build_base(E1_CONFIG["base"])
        A = cf.build_cocycle(spec, member["cocycle"])
        mu = cf.build_measure(spec, measure)
        B = ly._adaptive_block(A, E1_CONFIG["n_steps"])
        # two full chunks, a partial one, and a few steps past the last block
        n_steps = (2 * ly._CHUNK_BLOCKS + 37) * B + 5
        symbols = mu.sample_orbit(n_steps + A.window - 1, E1_CONFIG["seed"])
        mats, logdet = whole_path(A, symbols)
        assert_same_blocks(ly._PathSteps(A, symbols), mats, logdet, B)

    def test_bump_path_same_blocks(self):
        A = hoelder_bump_cocycle()
        mu = sh.parry_measure(A.base)
        symbols = mu.sample_orbit(50_000, seed=2024)
        mats, logdet = whole_path(A, symbols)
        assert 8 * ly._CHUNK_BLOCKS < len(mats)
        assert_same_blocks(ly._PathSteps(A, symbols), mats, logdet, 8)
        assert_same_estimate(ly.qr_spectrum(ly._PathSteps(A, symbols), 8),
                             ly.qr_spectrum(StepArrays(mats, logdet), 8))

    @pytest.mark.parametrize("B", [1, 2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("name", sorted(SHARED_PATHS))
    def test_shared_sub_blocks_same_blocks(self, monkeypatch, name, B):
        # a smaller chunk keeps the whole-path reference small; the
        # sub-block size then ranges over h = 1, 2, 4 and 8
        monkeypatch.setattr(ly, "_CHUNK_BLOCKS", 256)
        A = SHARED_PATHS[name]()
        n_steps = (2 * ly._CHUNK_BLOCKS + 37) * B + 5
        symbols = sh.parry_measure(A.base).sample_orbit(n_steps + A.window - 1, seed=B)
        mats, logdet = whole_path(A, symbols)
        path = ly._PathSteps(A, symbols)
        h = path.sub_block(B)
        assert (h > 1) == (B > 1)
        assert_same_blocks(path, mats, logdet, B)
        *_, reduced = ly._block_products(path.chunk, n_steps // B, B)
        if B > 1:
            # the path's table holds each distinct sub-block once, never
            # more than one chunk's sub-blocks
            assert reduced == len(path.tables[h][0]) <= ly._CHUNK_BLOCKS * B // h

    def test_path_matrices_for_unseen_sub_blocks_only(self, monkeypatch):
        # path_matrices, where the symbol and window checks run, builds the
        # steps of the first chunk and of each later chunk holding an h-step
        # sub-block word no earlier chunk held; 1 1 is rare under this
        # measure, so new words still turn up after a chunk with none
        monkeypatch.setattr(ly, "_CHUNK_BLOCKS", 64)
        calls = counted_path_matrices(monkeypatch)
        A = random_cocycle(FULL2, 1, 2, 14)
        mu = sh.MarkovMeasure(FULL2, np.array([[0.7, 0.3], [0.95, 0.05]]), np.array([0.76, 0.24]))
        B, nb = 64, 400
        symbols = mu.sample_orbit(nb * B, seed=7)
        path = ly._PathSteps(A, symbols)
        h = path.sub_block(B)
        *_, reduced = ly._block_products(path.chunk, nb, B)
        want, seen = [], set()
        for lo in range(0, nb, 64):
            a, b = lo * B, min(lo + 64, nb) * B
            words = {tuple(symbols[t : t + h]) for t in range(a, b, h)}
            if words - seen:
                want.append((a, b))
            seen |= words
        assert h > 1 and calls == want
        # the first chunk, then the third and fourth, not the second
        assert [a // (64 * B) for a, _ in want] == [0, 2, 3]
        assert reduced == len(seen)

    def test_late_rare_sub_block_same_blocks(self, monkeypatch):
        # every sub-block but the last chunk's one 1 1 1 1 word is in the
        # table after the first chunk
        monkeypatch.setattr(ly, "_CHUNK_BLOCKS", 64)
        A = random_cocycle(FULL2, 1, 3, 15)
        B, nb = 8, 200
        symbols = sh.parry_measure(FULL2).sample_orbit(nb * B, seed=6)
        path = ly._PathSteps(A, symbols)
        h = path.sub_block(B)
        words = symbols.reshape(-1, h)
        words[words.all(axis=1), 0] = 0
        words[-5] = 1
        mats, logdet = whole_path(A, symbols)
        calls = counted_path_matrices(monkeypatch)
        assert_same_blocks(path, mats, logdet, B)
        assert calls == [(0, 64 * B), (192 * B, nb * B)]
        assert len(path.tables[h][0]) == 2**h

    def test_warm_chunk_checks_symbols(self, monkeypatch):
        # once every key of the last chunk is in the table, a symbol outside
        # the alphabet still raises with path_matrices' message, even where
        # its key aliases a seen one (0 0 2 0 codes as 0 0 0 1)
        monkeypatch.setattr(ly, "_CHUNK_BLOCKS", 64)
        A = random_cocycle(FULL2, 1, 2, 16)
        B, nb = 8, 200
        symbols = sh.parry_measure(FULL2).sample_orbit(nb * B, seed=7)
        path = ly._PathSteps(A, symbols)
        assert path.sub_block(B) == 4
        ly._block_products(path.chunk, nb, B)
        with pytest.raises(ValueError, match=r"^path symbol 2 outside \[0, 2\)$"):
            A.path_matrices(np.where(np.arange(nb * B) == 5, 2, symbols), 0, nb * B)
        symbols[nb * B - 4 : nb * B] = [0, 0, 2, 0]
        with pytest.raises(ValueError, match=r"^path symbol 2 outside \[0, 2\)$"):
            ly._block_products(path.chunk, nb, B)

    def test_warm_chunk_checks_windows(self, monkeypatch):
        # an inadmissible window 1 1 in the last chunk of a warm golden-mean
        # path is a key no chunk has held, so path_matrices rejects it
        monkeypatch.setattr(ly, "_CHUNK_BLOCKS", 64)
        A = SHARED_PATHS["golden-window2-d3"]()
        B, nb = 8, 200
        symbols = sh.parry_measure(GOLDEN).sample_orbit(nb * B + 1, seed=8)
        path = ly._PathSteps(A, symbols)
        assert path.sub_block(B) > 1
        ly._block_products(path.chunk, nb, B)
        symbols[nb * B - 3 : nb * B - 1] = 1
        with pytest.raises(ValueError, match=r"inadmissible window \(1, 1\)"):
            ly._block_products(path.chunk, nb, B)

    def test_generic_d4_peak_memory(self):
        # the whole path's 10^6 step matrices alone are 122 MiB at d = 4
        spec = cf.build_base(E1_CONFIG["base"])
        member = next(m for m in E1_CONFIG["suite"] if m["name"] == "generic-d4")
        A = cf.build_cocycle(spec, member["cocycle"])
        mu = sh.parry_measure(spec)
        tracemalloc.start()
        try:
            ly.lyapunov_qr(A, mu, 10**6, seed=E1_CONFIG["seed"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20


class TestWorkCounters:
    @staticmethod
    def segment_stacks(monkeypatch):
        rows = []
        qr_step = ly._qr_step

        def counting_qr(M):
            rows.append(len(M))
            return qr_step(M)

        monkeypatch.setattr(ly, "_qr_step", counting_qr)
        return rows

    def test_e1_path(self, monkeypatch):
        rows = self.segment_stacks(monkeypatch)
        A = e1_cocycle("positive-d2")
        n_steps, seed = 200_000, E1_CONFIG["seed"]
        est = ly.lyapunov_qr(A, sh.parry_measure(A.base), n_steps, seed)
        # phase 1 starts every segment at once, and the seams meet within a
        # few blocks: about nb matrices factored, not the 2 nb of a full
        # warm-up segment per seam
        nb = est.n_steps // est.block_size
        L = -(-nb // est.segments)
        assert est.segments == rows[0] > 2
        assert len(rows) <= 2 * L
        assert sum(rows) == est.segments * L + est.seam_blocks < 1.1 * nb
        # one reduced sub-block per distinct 8-symbol word of the whole path
        B = est.block_size
        assert ly._PathSteps(A, np.zeros(n_steps, dtype=int)).sub_block(B) == 8
        words = sh.parry_measure(A.base).sample_orbit(n_steps, seed)[: est.n_steps].reshape(-1, 8)
        assert est.reduced_blocks == len(np.unique(words, axis=0)) == 256

    def test_bump_path(self, monkeypatch):
        rows = self.segment_stacks(monkeypatch)
        A = hoelder_bump_cocycle()
        est = ly.lyapunov_qr(A, sh.parry_measure(A.base), 50_000, seed=3)
        assert est.segments == rows[0] > 2
        # nothing is shared: every block is reduced from its own steps
        assert est.reduced_blocks == est.n_steps // est.block_size

    def test_segments_below_the_cap(self, monkeypatch):
        # 7 batches allow 70 segments and 4225 blocks of 64 steps 66, but
        # ceil(4225 / 66) = 65 blocks a segment leave 65 segments
        rows = self.segment_stacks(monkeypatch)
        mats = np.tile(np.diag([2.0, 0.5]), (4225 * 64, 1, 1))
        est = ly.qr_spectrum(StepArrays(mats, np.zeros(len(mats))), block_size=64, n_batches=7)
        assert est.segments == rows[0] == 65
        # an array shares nothing
        assert est.reduced_blocks == 4225
