"""Projective circle maps, rotation numbers and their flow-time averages."""
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab.cocycles as cc
import cocyclelab.rotation as ro
import cocyclelab.shifts as sh
import cocyclelab.suspension as sp
from cocyclelab.experiments import config as cfgmod
from cocyclelab.experiments import runners

E2_CONFIG = Path(cfgmod.__file__).parent / "configs" / "e2.json"
E5_CONFIG = Path(cfgmod.__file__).parent / "configs" / "e5.json"

FULL2 = sh.SftSpec.full_shift(2, theta=0.5)
GOLDEN = sh.SftSpec.golden_mean(theta=0.5)
TWO_PI = 2.0 * math.pi


def rot(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s], [s, c]])


def circ_dist(a, b):
    return abs((a - b + math.pi) % TWO_PI - math.pi)


def const_cocycle(*mats):
    return cc.CocycleSpec(FULL2, 1, {"0": mats[0], "1": mats[-1]})


def unit_flow(base=FULL2, value=1.0):
    roof = sp.RoofFunction(base, 1, {w: value for w in base.admissible_words(1)})
    return sp.SuspensionSystem(base, roof)


def orbit(word, base=FULL2):
    """(periodic point, step count) of a word, as circle_cocycle takes them."""
    w = sh.parse_word(word)
    return sh.periodic_point(base, w), len(w)


def e5_setup():
    """(A, suspension, measure, t) of the shipped E5 config."""
    cfg = cfgmod.load_config(str(E5_CONFIG))
    base = cfgmod.build_base(cfg["base"])
    return (cfgmod.build_cocycle(base, cfg["cocycle"]),
            sp.SuspensionSystem(base, cfgmod.build_roof(base, cfg["roof"])),
            cfgmod.build_measure(base, cfg["measure"]), float(cfg["t"]))


finite = st.floats(-3.0, 3.0, allow_nan=False)


def path_extremes_reference(mats):
    """Reference closed form: fold the whole matrix list of one path from
    scratch, then take the polar center plus or minus the spread."""
    if not mats:
        return 0.0, 0.0
    w = 0.0
    comp = np.eye(2)
    for M in mats:
        w = ro.projectivize_block(M).lift(w)
        comp = ro._normalize_det(M) @ comp
    entries = comp.ravel().tolist()
    beta = ro._polar_angle(*entries)
    half = ro._spread(*entries)
    j = round((w - 2.0 * beta) / TWO_PI)
    center = TWO_PI * j + 2.0 * beta
    return center + half, center - half


def sigma_tau(C, t, start=0):
    """Extremal doubled lift displacements over all start angles at flow
    time t: rho_measure's stopping-time walk with one path, whose steps run
    cyclically through C from index start."""
    if t < 0:
        raise ValueError("flow time must be nonnegative")
    n = len(C.roofs)

    def next_step(origin, word, depth):
        return np.zeros(len(word), dtype=np.int64), (word + 1) % n

    levels = ro._stopping_levels(np.array([start % n]), next_step, np.array(C.roofs), t)
    (hi,), (lo,) = ro._walk(levels, C.maps)
    return float(hi), float(lo)


def rho_measure_reference(A, sys, mu, t, path_limit, seed=0, n_samples=2000):
    """(value, lower, upper, exact) of rho_measure on the same paths, with
    each DFS leaf and each sampled path keeping its full matrix list for
    path_extremes_reference."""
    win = max(A.window, sys.roof.window)

    def step_data(wrd):
        return A.generator[wrd[:A.window]], sys.roof.values[wrd[:sys.roof.window]]

    stack = [(w, mu.cylinder(w), 0.0, []) for w in A.base.admissible_words(win)]
    num_hi = num_lo = 0.0
    exact, expanded = True, 0
    while stack:
        wrd, weight, acc, mats = stack.pop()
        expanded += 1
        if expanded > path_limit:
            exact = False
            break
        M, r = step_data(wrd)
        if acc + r >= t:
            u = (t - acc) / r
            hi, lo = path_extremes_reference(
                mats + [ro._fractional_map(M, u)] if u > 0 else mats)
            num_hi += weight * hi
            num_lo += weight * lo
            continue
        for b in range(A.base.alphabet_size):
            p = mu.P[wrd[-1], b]
            if A.base.is_allowed(wrd[-1], b) and p > 0:
                nxt = (wrd[1:] + (b,)) if win > 1 else (b,)
                stack.append((nxt, weight * p, acc + r, mats + [M]))
    if not exact:
        n = int(t / min(sys.roof.values.values())) + win + 2
        his, los = [], []
        for i in range(n_samples):
            symbols = tuple(int(s) for s in mu.sample_orbit(n, seed=seed + i))
            acc, mats, k = 0.0, [], 0
            while True:
                M, r = step_data(symbols[k : k + win])
                if acc + r >= t:
                    u = (t - acc) / r
                    if u > 0:
                        mats.append(ro._fractional_map(M, u))
                    break
                mats.append(M)
                acc += r
                k += 1
            hi, lo = path_extremes_reference(mats)
            his.append(hi)
            los.append(lo)
        num_hi, num_lo = float(np.mean(his)), float(np.mean(los))
    upper, lower = num_hi / (2.0 * t), num_lo / (2.0 * t)
    return 0.5 * (upper + lower), lower, upper, exact


class TestProjectivize:
    def test_identity_fixes_everything(self):
        f = ro.projectivize_block(np.eye(2))
        for phi in (0.0, 1.0, 4.0):
            assert f.lift(phi) == pytest.approx(phi, abs=1e-14)

    def test_rotation_translates_doubled_angle(self):
        f = ro.projectivize_block(rot(0.37))
        for phi in (0.0, 0.5, 3.0, 6.0):
            assert f.lift(phi) == pytest.approx(phi + 2 * 0.37, abs=1e-12)

    def test_scaling_acts_trivially(self):
        f = ro.projectivize_block(3.0 * rot(0.37))
        assert f.lift(1.0) == pytest.approx(1.0 + 0.74, abs=1e-12)

    def test_diagonal_fixes_axes(self):
        f = ro.projectivize_block(np.diag([2.0, 0.5]))
        # the two coordinate lines are fixed; doubled angles 0 and pi
        assert f.lift(0.0) == pytest.approx(0.0, abs=1e-14)
        assert f.lift(math.pi) == pytest.approx(math.pi, abs=1e-12)

    def test_diagonal_orbits_stay_bounded(self):
        f = ro.projectivize_block(np.diag([2.0, 0.5]))
        w = 1.0
        for _ in range(1000):
            w = f.lift(w)
        # attracted to the expanding axis, never winds
        assert abs(w) < TWO_PI

    def test_orientation_reversing_rejected(self):
        with pytest.raises(ValueError, match="determinant"):
            ro.projectivize_block(np.diag([1.0, -1.0]))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="2x2"):
            ro.projectivize_block(np.eye(3))

    def test_lift_is_increasing_and_equivariant(self):
        f = ro.projectivize_block(np.array([[1.4, 0.3], [-0.2, 0.9]]))
        grid = np.linspace(0.0, TWO_PI, 257)
        vals = f.lift(grid)
        assert np.all(np.diff(vals) > 0)
        assert f.lift(grid + TWO_PI) == pytest.approx(vals + TWO_PI, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, TWO_PI), st.floats(0.2, 3.0), st.floats(-3.0, 3.0),
           st.floats(0.2, 3.0), st.floats(0.0, TWO_PI), st.floats(0.2, 3.0),
           st.floats(-3.0, 3.0), st.floats(0.2, 3.0), st.floats(0.0, TWO_PI))
    def test_lift_of_product_matches_composition(self, b1, p1, q1, r1, b2, p2, q2, r2, phi):
        # angle times positive-diagonal triangular covers every det > 0 matrix
        A = rot(b1) @ np.array([[p1, q1], [0.0, r1]])
        B = rot(b2) @ np.array([[p2, q2], [0.0, r2]])
        one = ro.projectivize_block(A @ B).lift(phi)
        two = ro.projectivize_block(A).lift(ro.projectivize_block(B).lift(phi))
        assert circ_dist(one, two) < 1e-8


def conjugated_rotations():
    """25 pairs (theta, M): M = W R(theta) W^-1, rescaled, with W of
    condition number up to 300."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        theta = rng.uniform(0.05, 3.1)
        c = rng.uniform(1.0, 300.0)
        W = rot(rng.uniform(0, TWO_PI)) @ np.diag(
            [math.sqrt(c), 1 / math.sqrt(c)]
        ) @ rot(rng.uniform(0, TWO_PI))
        yield theta, W @ rot(theta) @ np.linalg.inv(W) * rng.uniform(0.5, 2.0)


def near_resonant():
    """(theta, M) with close returns only at even powers, which exercises
    the renormalization."""
    theta = math.pi / 2.0 + 1e-4
    W = np.diag([20.0, 0.05]) @ rot(0.4)
    return theta, W @ rot(theta) @ np.linalg.inv(W)


class TestDoubledRotationNumber:
    def test_rigid_rotation(self):
        assert ro.doubled_rotation_number(rot(0.7)) == pytest.approx(1.4, abs=1e-12)

    def test_negative_rotation_wraps(self):
        got = ro.doubled_rotation_number(rot(-0.7))
        assert got == pytest.approx(TWO_PI - 1.4, abs=1e-12)

    def test_rational_rotation_exact(self):
        got = ro.doubled_rotation_number(rot(math.pi * 3.0 / 7.0))
        assert got == pytest.approx(TWO_PI * 3.0 / 7.0, abs=1e-12)

    def test_real_spectrum_returns_zero(self):
        assert ro.doubled_rotation_number(np.diag([2.0, 0.5])) == 0.0
        assert ro.doubled_rotation_number(np.array([[1.0, 1.0], [0.0, 1.0]])) == 0.0

    def test_ill_conditioned_parabolic_returns_zero(self):
        # the conjugated shear's trace rounds to 3e-10 under 4 after
        # normalizing; its powers used to lose their determinant sign
        W = rot(0.5) @ np.diag([math.sqrt(704.75), 1.0 / math.sqrt(704.75)])
        M = 2.5 * (W @ np.array([[1.0, 2.53125], [0.0, 1.0]]) @ np.linalg.inv(W))
        assert ro.doubled_rotation_number(M) == 0.0

    def test_scale_invariance(self):
        M = np.array([[1.1, -0.8], [0.9, 0.7]])
        assert ro.doubled_rotation_number(3.7 * M) == pytest.approx(
            ro.doubled_rotation_number(M), abs=1e-12
        )

    def test_conjugation_invariance(self):
        M = 1.3 * rot(1.1)
        W = np.array([[2.0, 0.3], [-0.4, 0.8]])
        got = ro.doubled_rotation_number(W @ M @ np.linalg.inv(W))
        assert got == pytest.approx(2.2, abs=1e-10)

    def test_conjugated_rotation_oracle(self):
        # the rotation number is invariant under det-positive conjugation,
        # so W R(theta) W^-1 must report 2*theta no matter how skew W is
        worst = 0.0
        for theta, M in conjugated_rotations():
            got = ro.doubled_rotation_number(M)
            worst = max(worst, circ_dist(got, 2.0 * theta))
        assert worst < 1e-9

    def test_near_resonant_ill_conditioned(self):
        theta, M = near_resonant()
        got = ro.doubled_rotation_number(M)
        assert circ_dist(got, 2.0 * theta) < 1e-9

    def test_matches_eigen_argument(self):
        M = np.array([[1.2, -0.9], [1.1, 0.4]])
        doubled = ro.doubled_rotation_number(M)
        theta = ro.eigen_argument(M)
        assert min(circ_dist(doubled, 2 * theta), circ_dist(doubled, -2 * theta)) < 1e-9

    def test_orientation_reversing_rejected(self):
        with pytest.raises(ValueError, match="determinant"):
            ro.doubled_rotation_number(np.diag([1.0, -2.0]))


# The rotation-number loop on 0-d and 2x2 numpy arrays, as it stood before
# doubled_rotation_number moved its scalar work onto Python floats; the
# float loop must reproduce it bit for bit.

def reference_polar2(M):
    c1 = M[0, 0] + M[1, 1]
    c2 = M[1, 0] - M[0, 1]
    beta = math.atan2(c2, c1)
    n = math.hypot(c1, c2)
    R = np.array([[c1, -c2], [c2, c1]]) / n
    P = R.T @ M
    P = 0.5 * (P + P.T)
    return beta, P


def reference_spread(M):
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    f2 = float(np.sum(M * M)) / det
    s2 = 0.5 * (f2 + math.sqrt(max(f2 * f2 - 4.0, 0.0)))
    return 2.0 * math.asin(min((s2 - 1.0) / (s2 + 1.0), 1.0))


def reference_lift(beta, spd, phi):
    a = np.asarray(phi, dtype=float) / 2.0
    v = np.stack([np.cos(a), np.sin(a)], axis=-1)
    u = v @ spd.T
    delta = np.arctan2(
        v[..., 0] * u[..., 1] - v[..., 1] * u[..., 0],
        v[..., 0] * u[..., 0] + v[..., 1] * u[..., 1],
    )
    out = np.asarray(phi, dtype=float) + 2.0 * beta + 2.0 * delta
    return out if out.ndim else float(out)


def reference_normalize_det(M):
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return M / math.sqrt(det)


def reference_doubled_rho(M, tol, max_iter, depth):
    tr = M[0, 0] + M[1, 1]
    disc_floor = max(ro._REAL_DISC_TOL, 4.0 * np.finfo(float).eps * float(np.sum(M * M)))
    if tr * tr >= 4.0 - disc_floor:
        return 0.0
    f_beta, f_spd = reference_polar2(M)
    w = 0.0
    Mk = np.eye(2)
    best_center, best_width = None, math.inf
    candidate = None
    renorm = depth < ro._MAX_RENORM_DEPTH
    for k in range(1, max_iter + 1):
        w = reference_lift(f_beta, f_spd, w)
        Mk = reference_normalize_det(Mk @ M)
        beta, _ = reference_polar2(Mk)
        half = reference_spread(Mk)
        j = round((w - 2.0 * beta) / TWO_PI)
        center = (TWO_PI * j + 2.0 * beta) / k
        if half / k < best_width:
            best_center, best_width = center, half / k
        if best_width <= tol:
            return best_center
        if k >= 2 and (candidate is None or half < candidate[0]):
            candidate = (half, k, j, beta, Mk.copy())
        if renorm and candidate is not None and (
            candidate[0] < ro._RENORM_SPREAD or k >= ro._RENORM_SCAN
        ):
            half_r, k_r, j_r, beta_r, M_r = candidate
            child_tol = min(tol * k_r, 0.5, 0.25 * (math.pi - half_r))
            child = reference_doubled_rho(M_r, child_tol, max_iter, depth + 1)
            child += TWO_PI * round((2.0 * beta_r - child) / TWO_PI)
            return (TWO_PI * j_r + child) / k_r
    return best_center


def reference_doubled_rotation_number(M, tol=ro.RHO_TOL):
    M = reference_normalize_det(np.asarray(M, dtype=float))
    return float(np.mod(reference_doubled_rho(M, tol, ro.MAX_LIFT_ITER, 0), TWO_PI))


def det_positive(draw_angle=st.floats(0.0, TWO_PI)):
    """det > 0 2x2 matrices: generic ones (angle times positive-diagonal
    triangular), conjugated rotations with trace near +-2, and real
    spectra, hyperbolic or parabolic."""
    cond = st.floats(1.0, 1e3)
    scale = st.floats(0.2, 5.0)

    def conjugate(a, c, b, M, s):
        W = rot(a) @ np.diag([math.sqrt(c), 1.0 / math.sqrt(c)]) @ rot(b)
        return s * (W @ M @ np.linalg.inv(W))

    near = st.one_of(st.floats(1e-9, 1e-3), st.floats(math.pi - 1e-3, math.pi - 1e-9))
    generic = st.builds(lambda b, p, q, r: rot(b) @ np.array([[p, q], [0.0, r]]),
                        draw_angle, st.floats(0.2, 3.0), st.floats(-3.0, 3.0),
                        st.floats(0.2, 3.0))
    resonant = st.builds(lambda a, c, b, t, s: conjugate(a, c, b, rot(t), s),
                         draw_angle, cond, draw_angle, near, scale)
    hyperbolic = st.builds(lambda a, c, b, lam, s: conjugate(a, c, b, np.diag([lam, 1 / lam]), s),
                           draw_angle, cond, draw_angle, st.floats(1.0, 3.0), scale)
    parabolic = st.builds(lambda a, c, b, x, s: conjugate(a, c, b, np.array([[1.0, x], [0.0, 1.0]]), s),
                          draw_angle, cond, draw_angle, st.floats(-3.0, 3.0), scale)
    return st.one_of(generic, resonant, hyperbolic, parabolic)


class TestFloatLoopSamePath:
    """doubled_rotation_number and the scalar CircleMap.lift against the
    numpy-scalar loop above, compared with ==."""

    def test_every_e2_input(self, monkeypatch):
        # run_e2 draws nothing from its seed, so these are E2's inputs at
        # every seed
        calls = []
        doubled_rotation_number = ro.doubled_rotation_number

        def record(M, tol=ro.RHO_TOL):
            out = doubled_rotation_number(M, tol=tol)
            calls.append((np.array(M), tol, out))
            return out

        monkeypatch.setattr(ro, "doubled_rotation_number", record)
        runners.run_e2(cfgmod.load_config(str(E2_CONFIG)), 2024)
        assert len(calls) == 138
        for M, tol, out in calls:
            assert out == reference_doubled_rotation_number(M, tol)

    def test_oracle_ensembles(self):
        for _, M in [*conjugated_rotations(), near_resonant()]:
            assert ro.doubled_rotation_number(M) == reference_doubled_rotation_number(M)

    @settings(max_examples=200, deadline=None)
    @given(det_positive())
    def test_random_matrices(self, M):
        assert ro.doubled_rotation_number(M) == reference_doubled_rotation_number(M)

    @settings(max_examples=200, deadline=None)
    @given(det_positive(), st.floats(-50.0, 50.0))
    def test_scalar_lift_and_polar_data(self, M, phi):
        f = ro.projectivize_block(M)
        beta, P = reference_polar2(M)
        assert f.beta == beta and np.array_equal(f.spd, P)
        assert ro._spread(*M.ravel().tolist()) == reference_spread(M)
        assert f.lift(phi) == reference_lift(beta, P, phi)
        grid = phi + np.linspace(0.0, TWO_PI, 16)
        assert np.array_equal(f.lift(grid), reference_lift(beta, P, grid))


def per_point_circle_cocycle(A, sys, word, block_index=0):
    """circle_cocycle with one-step evaluate calls and roof lookups at each
    shifted point, and the return matrix evaluated again for d > 2."""
    w = sh.parse_word(word)
    p = sh.periodic_point(A.base, w)
    ell = len(w)
    steps = [cc.evaluate(A, p.shift(k), 1) for k in range(ell)]
    roofs = tuple(sys.roof.values[tuple(p.shift(k).word_array(0, sys.roof.window).tolist())]
                  for k in range(ell))
    if A.dim == 2:
        return ro.CircleCocycle(roofs, tuple(steps))
    M = cc.evaluate(A, p, ell)
    rec = ro.la.sorted_spectrum(M)
    pairs = [i for i in range(rec.dim) if not rec.is_real[i] and rec.eigenvalues[i].imag > 0]
    lam = rec.eigenvalues[pairs[block_index]]
    eig, vec = np.linalg.eig(M)
    v = vec[:, int(np.argmin(np.abs(eig - lam)))]
    frames = [np.linalg.qr(np.column_stack([v.real, v.imag]))[0]]
    factors = []
    for k in range(ell):
        Qn, R = np.linalg.qr(steps[k] @ frames[-1])
        sign = np.sign(np.diag(R))
        sign[sign == 0] = 1.0
        factors.append(sign[:, None] * R)
        frames.append(Qn * sign[None, :])
    U, _, Vt = np.linalg.svd(frames[0].T @ frames[-1])
    factors[-1] = U @ Vt @ factors[-1]
    return ro.CircleCocycle(roofs, tuple(factors))


def _mixing_d4():
    g0 = np.zeros((4, 4))
    g0[:2, :2] = 2.0 * rot(0.3)
    g0[2:, 2:] = 0.5 * rot(0.2)
    g1 = np.zeros((4, 4))
    g1[:2, :2] = 1.5 * rot(0.5)
    g1[2:, 2:] = 0.4 * rot(0.45)
    rng = np.random.default_rng(4)
    S = np.eye(4) + 0.2 * rng.normal(size=(4, 4))
    S_inv = np.linalg.inv(S)
    return cc.CocycleSpec(FULL2, 1, {"0": S @ g0 @ S_inv, "1": S @ g1 @ S_inv})


def _complex_pair_d3():
    rng = np.random.default_rng(3)
    gens = {}
    for word in GOLDEN.admissible_words(2):
        g = np.zeros((3, 3))
        g[:2, :2] = rng.uniform(1.1, 1.6) * rot(rng.uniform(0.2, 0.9))
        g[2, 2] = rng.uniform(0.3, 0.6)
        gens[word] = g + 0.05 * rng.normal(size=(3, 3))
    return cc.CocycleSpec(GOLDEN, 2, gens)


# (cocycle, suspension, word, block_index): planar, window two with a
# window-two roof, a bump cocycle, and d = 3 and d = 4 tracked blocks
CIRCLE_CASES = {
    "d2-window1": lambda: (
        const_cocycle(1.2 * rot(0.4), rot(0.7) @ np.diag([1.05, 0.95])),
        sp.SuspensionSystem(FULL2, sp.RoofFunction(FULL2, 1, {"0": 1.0, "1": 2.5})),
        "0110", 0),
    "d2-window2": lambda: (
        cc.CocycleSpec(GOLDEN, 2, {"00": 1.1 * rot(0.3), "01": rot(0.8) @ np.diag([1.2, 0.9]),
                                   "10": 0.9 * rot(-0.4)}),
        sp.SuspensionSystem(GOLDEN, sp.RoofFunction(GOLDEN, 2, {"00": 1.0, "01": 0.5,
                                                                "10": 2.0})),
        "00100", 0),
    "d2-bump": lambda: (
        cc.CocycleSpec(FULL2, 1, {"0": 1.5 * rot(0.3), "1": 1.2 * rot(-0.2)},
                       cc.HoelderPerturbation(0.8, (cc.HoelderBump((0, 1), 0.1),))),
        unit_flow(), "011", 0),
    "d3-window2": lambda: (_complex_pair_d3(), unit_flow(GOLDEN, 1.5), "0100", 0),
    "d4-slow-block": lambda: (_mixing_d4(), unit_flow(), "011", 1),
}


class TestCircleCocycle:
    def test_planar_steps_are_generators(self):
        g0, g1 = 1.2 * rot(0.4), rot(0.7) @ np.diag([1.05, 0.95])
        A = const_cocycle(g0, g1)
        C = ro.circle_cocycle(A, unit_flow(), *orbit("01"))
        assert np.array_equal(C.maps[0], g0)
        assert np.array_equal(C.maps[1], g1)
        assert C.period == pytest.approx(2.0)

    def test_composite_is_return_matrix(self):
        g0, g1 = 1.2 * rot(0.4), rot(0.7) @ np.diag([1.05, 0.95])
        A = const_cocycle(g0, g1)
        C = ro.circle_cocycle(A, unit_flow(), *orbit("01"))
        p = sh.periodic_point(FULL2, "01")
        assert np.allclose(C.composite(), cc.evaluate(A, p, 2), atol=1e-12)

    def test_roofs_follow_the_orbit(self):
        roof = sp.RoofFunction(FULL2, 1, {"0": 1.0, "1": 2.5})
        sys = sp.SuspensionSystem(FULL2, roof)
        C = ro.circle_cocycle(const_cocycle(rot(0.1), rot(0.2)), sys, *orbit("01"))
        assert C.roofs == (1.0, 2.5)
        assert C.period == pytest.approx(3.5)

    def test_tracked_block_composite(self):
        g = np.zeros((4, 4))
        g[:2, :2] = 2.0 * rot(0.3)
        g[2:, 2:] = 0.5 * rot(0.2)
        A = cc.CocycleSpec(FULL2, 1, {"0": g, "1": g})
        fast = ro.circle_cocycle(A, unit_flow(), *orbit("01"), block_index=0)
        slow = ro.circle_cocycle(A, unit_flow(), *orbit("01"), block_index=1)
        assert ro.eigen_argument(fast.composite()) == pytest.approx(0.6, abs=1e-10)
        assert ro.eigen_argument(slow.composite()) == pytest.approx(0.4, abs=1e-10)
        assert np.max(np.abs(np.linalg.eigvals(fast.composite()))) == pytest.approx(4.0, abs=1e-10)

    def test_tracked_block_under_mixing_generators(self):
        # non-constant generators sharing an invariant coordinate splitting
        g0 = np.zeros((4, 4))
        g0[:2, :2] = 2.0 * rot(0.3)
        g0[2:, 2:] = 0.5 * rot(0.2)
        g1 = np.zeros((4, 4))
        g1[:2, :2] = 1.5 * rot(0.5)
        g1[2:, 2:] = 0.4 * rot(0.45)
        A = cc.CocycleSpec(FULL2, 1, {"0": g0, "1": g1})
        C = ro.circle_cocycle(A, unit_flow(), *orbit("01"), block_index=0)
        assert ro.eigen_argument(C.composite()) == pytest.approx(0.8, abs=1e-9)

    def test_block_index_out_of_range(self):
        A = const_cocycle(1.2 * rot(0.4), 1.2 * rot(0.4))
        g = np.zeros((4, 4))
        g[:2, :2] = 2.0 * rot(0.3)
        g[2:, 2:] = np.diag([0.5, 0.25])
        B = cc.CocycleSpec(FULL2, 1, {"0": g, "1": g})
        with pytest.raises(ValueError, match="block_index"):
            ro.circle_cocycle(B, unit_flow(), *orbit("0"), block_index=1)

    @pytest.mark.parametrize("case", sorted(CIRCLE_CASES))
    def test_same_as_per_point_build(self, case, monkeypatch):
        A, sys, word, block_index = CIRCLE_CASES[case]()
        ref = per_point_circle_cocycle(A, sys, word, block_index)
        calls = {"path_matrices": 0, "evaluate": 0}
        path_matrices, evaluate = cc.CocycleSpec.path_matrices, cc.evaluate

        def counting_path_matrices(self, *args):
            calls["path_matrices"] += 1
            return path_matrices(self, *args)

        def counting_evaluate(*args):
            calls["evaluate"] += 1
            return evaluate(*args)

        monkeypatch.setattr(cc.CocycleSpec, "path_matrices", counting_path_matrices)
        monkeypatch.setattr(cc, "evaluate", counting_evaluate)
        monkeypatch.setattr(ro, "evaluate", counting_evaluate)
        C = ro.circle_cocycle(A, sys, *orbit(word, A.base), block_index)
        assert calls == {"path_matrices": 1, "evaluate": 0}
        assert C.roofs == ref.roofs
        assert all(np.array_equal(a, b) for a, b in zip(C.maps, ref.maps, strict=True))
        assert np.array_equal(C.composite(), ref.composite())

    def test_orientation_reversing_step_rejected(self):
        with pytest.raises(ValueError, match="determinant"):
            ro.CircleCocycle((1.0,), (np.diag([1.0, -1.0]),))

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            ro.CircleCocycle((1.0,), (np.eye(2), np.eye(2)))

    @pytest.mark.parametrize("roof", [0.0, -1.0, math.inf, math.nan])
    def test_roofs_must_be_positive_and_finite(self, roof):
        with pytest.raises(ValueError, match=r"roofs must be positive and finite, got \(1\.0, "):
            ro.CircleCocycle((1.0, roof), (np.eye(2), np.eye(2)))


class TestSigmaTau:
    def test_rigid_conformal_collapses(self):
        C = ro.CircleCocycle((1.0,), (1.5 * rot(0.2),))
        sigma, tau = sigma_tau(C, 2.5)
        assert sigma == pytest.approx(2 * 0.2 * 2.5, abs=1e-9)
        assert tau == pytest.approx(2 * 0.2 * 2.5, abs=1e-9)

    def test_zero_time(self):
        C = ro.CircleCocycle((1.0,), (rot(0.2),))
        assert sigma_tau(C, 0.0) == (0.0, 0.0)

    def test_bracket_orders_and_stays_under_one_turn_per_step(self):
        g0, g1 = 1.2 * rot(0.4), rot(0.7) @ np.diag([1.3, 0.8])
        C = ro.CircleCocycle((1.0, 2.0), (g0, g1))
        sigma, tau = sigma_tau(C, 3.0)
        assert sigma > tau
        assert sigma - tau < TWO_PI

    def test_contains_every_orbit_displacement(self):
        g0, g1 = 1.2 * rot(0.4), rot(0.7) @ np.diag([1.3, 0.8])
        C = ro.CircleCocycle((1.0, 2.0), (g0, g1))
        sigma, tau = sigma_tau(C, 6.0)
        for theta in np.linspace(0.0, TWO_PI, 17):
            w = float(theta)
            for k in range(4):   # 4 returns = flow time 6
                w = ro.projectivize_block(C.maps[k % 2]).lift(w)
            assert tau - 1e-9 <= w - theta <= sigma + 1e-9

    def test_subadditive_at_return_times(self):
        g0, g1 = 1.2 * rot(0.4), rot(0.7) @ np.diag([1.3, 0.8])
        C = ro.CircleCocycle((1.0, 2.0), (g0, g1))
        s3, t3 = sigma_tau(C, 3.0)
        s6, t6 = sigma_tau(C, 6.0)
        assert s6 <= 2 * s3 + 1e-9
        assert t6 >= 2 * t3 - 1e-9

    def test_start_offset_uses_later_steps(self):
        C = ro.CircleCocycle((1.0, 2.0), (rot(0.1), 2.0 * rot(0.3)))
        sigma, tau = sigma_tau(C, 2.0, start=1)
        assert sigma == pytest.approx(0.6, abs=1e-9)
        assert tau == pytest.approx(0.6, abs=1e-9)

    def test_negative_time_rejected(self):
        C = ro.CircleCocycle((1.0,), (rot(0.2),))
        with pytest.raises(ValueError, match="nonnegative"):
            sigma_tau(C, -1.0)

    @pytest.mark.parametrize("seed", range(50))
    def test_brackets_dense_grid_of_composed_lifts(self, seed):
        # independent of the closed form: compose the per-step lifts over a
        # 4096-point angle grid.  Flow time ends on a return, so no step is
        # fractional, and the shear stays mild enough for the grid spacing to
        # resolve the extrema to 1e-6.
        rng = np.random.default_rng(seed)
        gens = tuple(
            rng.uniform(0.5, 2.0) * rot(rng.uniform(-math.pi, math.pi))
            @ np.diag([s, 1.0 / s]) @ rot(rng.uniform(-math.pi, math.pi))
            for s in rng.uniform(1.0, 1.4, size=2)
        )
        roofs = tuple(rng.uniform(0.5, 2.0, size=2))
        C = ro.CircleCocycle(roofs, gens)
        start, n = int(rng.integers(2)), int(rng.integers(1, 6))
        t = 0.0
        for k in range(n):
            t += roofs[(start + k) % 2]
        phi = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        w = phi
        for k in range(n):
            w = ro.projectivize_block(gens[(start + k) % 2]).lift(w)
        disp = w - phi
        sigma, tau = sigma_tau(C, t, start)
        # 1e-12 allows for round-off where a grid point hits an extremum
        assert tau <= disp.min() + 1e-12
        assert disp.max() <= sigma + 1e-12
        assert sigma - disp.max() < 1e-6
        assert disp.min() - tau < 1e-6

    @pytest.mark.parametrize("seed", range(36))
    def test_return_time_matches_folding_whole_maps(self, seed):
        # t is a float sum of m roofs, so the last roof can cross t with
        # (t - acc) / r rounding just below 1: that step then enters as a
        # fractional map, which may move the result by round-off only
        rng = np.random.default_rng(1000 + seed)
        n, m = int(rng.integers(1, 4)), seed % 6
        gens = tuple(
            rng.uniform(0.5, 2.0) * rot(rng.uniform(-math.pi, math.pi))
            @ np.diag([s, 1.0 / s]) @ rot(rng.uniform(-math.pi, math.pi))
            for s in rng.uniform(1.0, 3.0, size=n)
        )
        roofs = tuple(rng.uniform(0.3, 2.0, size=n))
        C = ro.CircleCocycle(roofs, gens)
        start = int(rng.integers(n))
        t = 0.0
        for k in range(m):
            t += roofs[(start + k) % n]
        sigma, tau = sigma_tau(C, t, start)
        ref_sigma, ref_tau = path_extremes_reference(
            [gens[(start + k) % n] for k in range(m)])
        if m == 0:
            assert (sigma, tau) == (0.0, 0.0)
        assert sigma == pytest.approx(ref_sigma, abs=1e-12)
        assert tau == pytest.approx(ref_tau, abs=1e-12)

    @pytest.mark.parametrize("seed", range(40))
    def test_same_bits_as_one_step_at_a_time(self, seed):
        # the fold of path_extremes_reference, with the last step fractional
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(1, 4))
        gens = tuple(
            rng.uniform(0.5, 2.0) * rot(rng.uniform(-math.pi, math.pi))
            @ np.diag([s, 1.0 / s]) @ rot(rng.uniform(-math.pi, math.pi))
            for s in rng.uniform(1.0, 3.0, size=n)
        )
        roofs = tuple(rng.uniform(0.3, 2.0, size=n))
        C = ro.CircleCocycle(roofs, gens)
        start, t = int(rng.integers(n)), float(rng.uniform(0.0, 8.0))
        mats, acc, k = [], 0.0, start
        while acc + roofs[k % n] < t:
            mats.append(gens[k % n])
            acc += roofs[k % n]
            k += 1
        mats.append(ro._fractional_map(gens[k % n], (t - acc) / roofs[k % n]))
        assert sigma_tau(C, t, start) == path_extremes_reference(mats)


class TestRhoPeriodic:
    def test_conformal_unit_roof(self):
        C = ro.CircleCocycle((1.0,), (1.5 * rot(0.35),))
        assert ro.rho_periodic(C) == pytest.approx(0.35, abs=1e-10)

    def test_two_step_word_with_uneven_roofs(self):
        C = ro.CircleCocycle((1.0, 2.0), (1.1 * rot(0.1), 0.7 * rot(0.2)))
        assert ro.rho_periodic(C) == pytest.approx(0.1, abs=1e-10)

    def test_diagonal_returns_zero(self):
        C = ro.CircleCocycle((1.0,), (np.diag([2.0, 0.5]),))
        assert ro.rho_periodic(C) == 0.0

    def test_rational_angle(self):
        C = ro.CircleCocycle((1.0,), (rot(math.pi * 3 / 7),))
        assert ro.rho_periodic(C) == pytest.approx(math.pi * 3 / 7, abs=1e-12)


class TestEigenArgument:
    def test_sixth_root_of_unity(self):
        M = np.array([[1.0, -1.0], [1.0, 0.0]])
        assert ro.eigen_argument(M) == pytest.approx(math.pi / 3.0, abs=1e-12)

    def test_rotation(self):
        assert ro.eigen_argument(2.0 * rot(1.1)) == pytest.approx(1.1, abs=1e-12)
        assert ro.eigen_argument(rot(-1.1)) == pytest.approx(1.1, abs=1e-12)

    def test_real_spectrum_rejected(self):
        with pytest.raises(ValueError, match="real spectrum"):
            ro.eigen_argument(np.diag([2.0, 0.5]))

    def test_picks_pair_with_largest_imaginary_part(self):
        g = np.zeros((4, 4))
        g[:2, :2] = 2.0 * rot(0.3)
        g[2:, 2:] = 0.5 * rot(0.2)
        assert ro.eigen_argument(g) == pytest.approx(0.3, abs=1e-12)


class TestThetaEllRho:
    def test_conformal_residual_vanishes(self):
        A = const_cocycle(1.2 * rot(0.15), 0.8 * rot(0.15))
        rep = ro.theta_ell_rho_check(A, unit_flow(), *orbit("01"))
        assert not rep.skipped
        assert rep.residual < 1e-10

    def test_negative_direction_folds_sign(self):
        A = const_cocycle(1.2 * rot(-0.15), 0.8 * rot(-0.15))
        rep = ro.theta_ell_rho_check(A, unit_flow(), *orbit("01"))
        assert rep.residual < 1e-10

    def test_noncommuting_generators(self):
        A = const_cocycle(1.1 * rot(0.4), rot(0.7) @ np.diag([1.05, 0.95]))
        rep = ro.theta_ell_rho_check(A, unit_flow(), *orbit("01"))
        assert not rep.skipped
        assert rep.residual < 1e-8

    def test_uneven_roofs_change_period_not_residual(self):
        roof = sp.RoofFunction(FULL2, 1, {"0": 1.0, "1": 2.5})
        sys = sp.SuspensionSystem(FULL2, roof)
        A = const_cocycle(1.1 * rot(0.4), rot(0.7) @ np.diag([1.05, 0.95]))
        rep = ro.theta_ell_rho_check(A, sys, *orbit("01"))
        assert ro.circle_cocycle(A, sys, *orbit("01")).period == pytest.approx(3.5)
        assert rep.residual < 1e-8

    def test_real_return_is_skipped(self):
        A = const_cocycle(np.diag([2.0, 0.5]), np.diag([1.5, 0.4]))
        rep = ro.theta_ell_rho_check(A, unit_flow(), *orbit("01"))
        assert rep.skipped
        assert math.isnan(rep.residual)

    def test_tracked_block_in_dimension_four(self):
        g = np.zeros((4, 4))
        g[:2, :2] = 2.0 * rot(0.3)
        g[2:, 2:] = 0.5 * rot(0.2)
        A = cc.CocycleSpec(FULL2, 1, {"0": g, "1": g})
        rep = ro.theta_ell_rho_check(A, unit_flow(), *orbit("0"), block_index=1)
        C = ro.circle_cocycle(A, unit_flow(), *orbit("0"), block_index=1)
        assert ro.eigen_argument(C.composite()) == pytest.approx(0.2, abs=1e-10)
        assert rep.residual < 1e-9


class TestLiftThetaFamily:
    def test_conformal_family_is_exactly_linear(self):
        A = const_cocycle(1.2 * rot(0.9), 1.2 * rot(0.9))
        fam = cc.rotation_perturb_family(A, "0", theta0=0.05)
        lift = ro.lift_theta_family(fam.at, unit_flow(), *orbit("0"), np.linspace(0.0, 2.0, 9))
        assert lift.theta_values[0] == pytest.approx(0.9, abs=1e-10)
        assert lift.theta_values == pytest.approx(0.9 + 0.05 * lift.s_values, abs=1e-9)
        assert lift.total_change == pytest.approx(0.1, abs=1e-9)

    def test_constant_family_is_flat(self):
        A = const_cocycle(1.2 * rot(0.9), 1.2 * rot(0.9))
        lift = ro.lift_theta_family(lambda s: A, unit_flow(), *orbit("0"), [0.0, 0.5, 1.0])
        assert lift.total_change == pytest.approx(0.0, abs=1e-12)

    def test_negative_direction_anchor(self):
        def fam(s):
            return const_cocycle(1.2 * rot(-0.6 - 0.05 * s), 1.2 * rot(-0.6 - 0.05 * s))

        lift = ro.lift_theta_family(fam, unit_flow(), *orbit("0"), np.linspace(0.0, 2.0, 9))
        assert lift.theta_values[0] == pytest.approx(-0.6, abs=1e-10)
        assert lift.total_change == pytest.approx(-0.1, abs=1e-9)

    def test_crossing_into_real_spectrum_is_recorded(self):
        def fam(s):
            M = rot(0.5 * (1.0 - s)) @ np.diag([1.0 + s, 1.0 / (1.0 + s)])
            return const_cocycle(M, M)

        lift = ro.lift_theta_family(fam, unit_flow(), *orbit("0"), np.linspace(0.0, 1.0, 11))
        # the pair starts complex; once real, the tracked argument sits on a
        # multiple of pi
        final = lift.theta_values[-1]
        assert circ_dist(2 * final, 0.0) < 1e-9 or circ_dist(2 * final, TWO_PI) < 1e-9

    def test_winding_accumulates_beyond_pi(self):
        # the raw argument lives in [0, pi]; the lift must keep going
        def fam(s):
            return const_cocycle(1.2 * rot(0.9 + s), 1.2 * rot(0.9 + s))

        lift = ro.lift_theta_family(fam, unit_flow(), *orbit("0"), np.linspace(0.0, 3.0, 13))
        assert lift.theta_values[-1] == pytest.approx(3.9, abs=1e-9)

    def test_short_grid_rejected(self):
        A = const_cocycle(1.2 * rot(0.9), 1.2 * rot(0.9))
        with pytest.raises(ValueError, match="two parameter"):
            ro.lift_theta_family(lambda s: A, unit_flow(), *orbit("0"), [0.0])

    def test_real_start_rejected(self):
        A = const_cocycle(np.diag([2.0, 0.5]), np.diag([2.0, 0.5]))
        with pytest.raises(ValueError, match="complex pair"):
            ro.lift_theta_family(lambda s: A, unit_flow(), *orbit("0"), [0.0, 1.0])


class TestRhoMeasure:
    def test_rigid_conformal_collapses(self):
        A = const_cocycle(1.5 * rot(0.25), 0.8 * rot(0.25))
        mu = sh.parry_measure(FULL2)
        est = ro.rho_measure(A, unit_flow(), mu, t=7.3)
        assert est.exact
        assert est.width < 1e-9
        assert est.value == pytest.approx(0.25, abs=1e-9)

    def test_bracket_is_ordered_and_consistent(self):
        A = const_cocycle(1.1 * rot(0.4), rot(0.3) @ np.diag([1.2, 1 / 1.2]))
        mu = sh.parry_measure(FULL2)
        est = ro.rho_measure(A, unit_flow(), mu, t=6.0)
        assert est.lower <= est.value <= est.upper
        assert est.width == pytest.approx(est.upper - est.lower, abs=1e-15)
        assert est.width < math.pi / 6.0

    def test_real_generators_bracket_zero(self):
        A = const_cocycle(np.diag([2.0, 0.5]), np.diag([1.4, 0.6]))
        mu = sh.parry_measure(FULL2)
        est = ro.rho_measure(A, unit_flow(), mu, t=5.0)
        assert est.lower <= 0.0 <= est.upper
        assert est.width < math.pi / 5.0

    def test_periodic_measure_brackets_orbit_rotation(self):
        A = const_cocycle(1.1 * rot(0.4), rot(0.3) @ np.diag([1.2, 1 / 1.2]))
        mu = sh.MarkovMeasure(
            FULL2,
            np.array([[0.0, 1.0], [1.0, 0.0]]),
            np.array([0.5, 0.5]),
        )
        per = ro.rho_periodic(ro.circle_cocycle(A, unit_flow(), *orbit("01")))
        est = ro.rho_measure(A, unit_flow(), mu, t=8.0)
        assert est.exact
        assert est.lower - 1e-9 <= per <= est.upper + 1e-9

    def test_width_shrinks_with_horizon(self):
        A = const_cocycle(1.1 * rot(0.4), rot(0.3) @ np.diag([1.2, 1 / 1.2]))
        mu = sh.parry_measure(FULL2)
        widths = [ro.rho_measure(A, unit_flow(), mu, t=t).width for t in (3.0, 6.0, 12.0)]
        assert widths[2] < widths[1] < widths[0]

    def test_sampled_fallback_tracks_exact(self):
        A = const_cocycle(1.1 * rot(0.4), rot(0.3) @ np.diag([1.2, 1 / 1.2]))
        mu = sh.parry_measure(FULL2)
        exact = ro.rho_measure(A, unit_flow(), mu, t=6.0)
        approx = ro.rho_measure(A, unit_flow(), mu, t=6.0, path_limit=10, n_samples=800)
        assert exact.exact and not approx.exact
        assert abs(approx.value - exact.value) < 0.05

    def test_uneven_roof_stopping_times(self):
        # turn angle proportional to the roof, so every path rotates at the
        # same rate per unit flow time regardless of its symbol history
        roof = sp.RoofFunction(FULL2, 1, {"0": 1.0, "1": 2.0})
        sys = sp.SuspensionSystem(FULL2, roof)
        A = const_cocycle(1.5 * rot(0.25), 0.8 * rot(0.5))
        mu = sh.parry_measure(FULL2)
        est = ro.rho_measure(A, sys, mu, t=9.0)
        assert est.exact
        assert est.value == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("case", ["e5-t6", "e5-t12", "window2-roof", "fallback"])
    def test_same_paths_as_full_path_fold(self, case):
        if case == "window2-roof":
            A = const_cocycle(1.1 * rot(0.4), rot(0.3) @ np.diag([1.2, 1 / 1.2]))
            mu = sh.parry_measure(FULL2)
            roof = sp.RoofFunction(FULL2, 2, {"00": 1.0, "01": 2.0, "10": 0.7, "11": 1.3})
            sys, t, kw = sp.SuspensionSystem(FULL2, roof), 5.5, {}
        else:
            cfg = cfgmod.load_config(str(E5_CONFIG))
            base = cfgmod.build_base(cfg["base"])
            A = cfgmod.build_cocycle(base, cfg["cocycle"])
            mu = cfgmod.build_measure(base, cfg["measure"])
            sys = sp.SuspensionSystem(base, cfgmod.build_roof(base, cfg["roof"]))
            t = 6.0 if case == "e5-t6" else 12.0
            kw = {"path_limit": 300, "n_samples": 400} if case == "fallback" else {}
        est = ro.rho_measure(A, sys, mu, t, **kw)
        ref = rho_measure_reference(A, sys, mu, t, kw.get("path_limit", 200_000),
                                    n_samples=kw.get("n_samples", 2000))
        assert est.exact == (case != "fallback")
        assert (est.value, est.lower, est.upper, est.exact) == ref

    @pytest.mark.parametrize("case", [
        "golden-mean", "golden-mean-window2", "golden-mean-window2-fallback",
        "markov-zero-transition", "markov-zero-transition-fallback",
        "limit-at-count", "limit-below-count",
        "uneven-roofs-t4.1", "uneven-roofs-t5.5", "uneven-roofs-t7.25",
        "uneven-roofs-t4.1-fallback", "uneven-roofs-t5.5-fallback", "strong-tilts",
    ])
    def test_same_paths_on_more_trees(self, case):
        A = const_cocycle(1.1 * rot(0.4), rot(0.3) @ np.diag([1.2, 1 / 1.2]))
        mu = sh.parry_measure(FULL2)
        sys, t, limit = unit_flow(), 6.0, 200_000
        if case.startswith("golden-mean"):
            mu = sh.parry_measure(GOLDEN)
            roof = sp.RoofFunction(GOLDEN, 1, {"0": 1.0, "1": 1.5})
            sys, t = sp.SuspensionSystem(GOLDEN, roof), 7.5
            if "window2" in case:
                gen = {"00": 1.1 * rot(0.4), "01": rot(0.3) @ np.diag([1.2, 1 / 1.2]),
                       "10": rot(-0.2) @ np.diag([0.9, 1 / 0.9])}
                A = cc.CocycleSpec(GOLDEN, 2, gen)
            else:
                A = cc.CocycleSpec(GOLDEN, 1, A.generator)
        elif case.startswith("markov-zero"):
            # no 1 -> 1 transition: every child 1 of a 1 is pruned
            mu = cfgmod.markov_from_P(FULL2, np.array([[0.6, 0.4], [1.0, 0.0]]))
            t = 7.0
        elif case == "strong-tilts":
            # far from conformal, so the leaf spreads cover most of [0, pi)
            A = const_cocycle(rot(0.9) @ np.diag([2.0, 0.5]), rot(-0.4) @ np.diag([0.6, 1 / 0.6]))
        elif case.startswith("limit"):
            A, sys, mu, t = e5_setup()
            assert ro.rho_measure(A, sys, mu, t).nodes == 126
            limit = 126 if case == "limit-at-count" else 125
        else:
            # leaves stop part way through their last step at every horizon
            roof = sp.RoofFunction(FULL2, 1, {"0": 0.7, "1": 1.3})
            sys, t = sp.SuspensionSystem(FULL2, roof), float(case.split("-")[2][1:])
        if case.endswith("fallback"):
            limit = 20
        est = ro.rho_measure(A, sys, mu, t, path_limit=limit, n_samples=300)
        ref = rho_measure_reference(A, sys, mu, t, limit, n_samples=300)
        assert est.exact == (not case.endswith(("fallback", "below-count")))
        assert (est.value, est.lower, est.upper, est.exact) == ref

    def test_same_paths_on_every_e5_call(self, monkeypatch):
        calls = []

        def record(A, sys, mu, t):
            calls.append((A, sys, mu, t))
            return ro.rho_measure(A, sys, mu, t)

        monkeypatch.setattr(runners, "rho_measure", record)
        cfg = cfgmod.load_config(str(E5_CONFIG))
        runners.run_e5(cfg, cfg["seed"])
        assert len(calls) == 28
        for A, sys, mu, t in calls:
            est = ro.rho_measure(A, sys, mu, t)
            assert est.exact and est.nodes == 126
            assert (est.value, est.lower, est.upper, est.exact) == rho_measure_reference(
                A, sys, mu, t, 200_000)

    def test_nodes_counts_the_walked_tree(self):
        A, sys, mu, t = e5_setup()
        assert ro.rho_measure(A, sys, mu, t).nodes == 126
        # the bench fallback: the t = 12 tree has 8190 nodes, over the limit
        est = ro.rho_measure(A, sys, mu, 12.0, path_limit=4000)
        assert not est.exact and est.nodes == 0

    def test_abandoned_search_walks_no_tree_node(self, monkeypatch):
        A, sys, mu, _ = e5_setup()
        drawn, early = [], []
        sample_orbit = type(mu).sample_orbit
        projectivize = ro.projectivize_block

        def draw(self, length, seed):
            drawn.append(seed)
            return sample_orbit(self, length, seed)

        def counted(M):
            if not drawn:
                early.append(M)
            return projectivize(M)

        monkeypatch.setattr(type(mu), "sample_orbit", draw)
        monkeypatch.setattr(ro, "projectivize_block", counted)
        est = ro.rho_measure(A, sys, mu, 12.0, path_limit=4000, n_samples=50)
        assert not est.exact and len(drawn) == 50
        assert early == []

    def test_measure_on_other_shift_rejected(self):
        A = const_cocycle(1.1 * rot(0.4), rot(0.3) @ np.diag([1.2, 1 / 1.2]))
        full3 = sh.SftSpec.full_shift(3, theta=0.5)
        with pytest.raises(ValueError, match="^measure lives on a different shift"):
            ro.rho_measure(A, unit_flow(), sh.parry_measure(full3), t=6.0)

    def test_suspension_on_other_shift_rejected(self):
        A = const_cocycle(1.1 * rot(0.4), rot(0.3) @ np.diag([1.2, 1 / 1.2]))
        full3 = sh.SftSpec.full_shift(3, theta=0.5)
        with pytest.raises(ValueError, match="^suspension lives on a different shift"):
            ro.rho_measure(A, unit_flow(full3), sh.parry_measure(FULL2), t=6.0)

    def test_hoelder_bumps_rejected(self):
        mu = sh.parry_measure(FULL2)
        twin = const_cocycle(1.2 * rot(0.5), rot(0.5))
        assert ro.rho_measure(twin, unit_flow(), mu, t=3.0).exact
        bump = cc.HoelderPerturbation(nu=1.0, bumps=(cc.HoelderBump((0,), 0.3),))
        A = cc.CocycleSpec(FULL2, 1, twin.generator, bump)
        with pytest.raises(ValueError, match="locally constant"):
            ro.rho_measure(A, unit_flow(), mu, t=3.0)

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_time_must_be_positive_and_finite(self, t):
        A = const_cocycle(1.2 * rot(0.5), rot(0.5))
        with pytest.raises(ValueError, match="^t must be positive and finite"):
            ro.rho_measure(A, unit_flow(), sh.parry_measure(FULL2), t=t)

    def test_sample_count_must_be_positive(self):
        A = const_cocycle(1.2 * rot(0.5), rot(0.5))
        with pytest.raises(ValueError, match="^n_samples must be at least 1"):
            ro.rho_measure(A, unit_flow(), sh.parry_measure(FULL2), t=3.0,
                           path_limit=1, n_samples=0)

    def test_high_dimension_rejected(self):
        g = np.eye(4)
        A = cc.CocycleSpec(FULL2, 1, {"0": g, "1": g})
        with pytest.raises(ValueError, match="2x2"):
            ro.rho_measure(A, unit_flow(), sh.parry_measure(FULL2), t=3.0)
