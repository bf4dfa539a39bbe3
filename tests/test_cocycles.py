"""Cocycle evaluation, domination, holonomies, transitions, perturbations."""
import importlib.util
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab.cocycles as cc
import cocyclelab.linalg as la
import cocyclelab.shifts as sh

FULL2 = sh.SftSpec.full_shift(2, theta=0.5)
FULL2_TIGHT = sh.SftSpec.full_shift(2, theta=0.1)
GOLDEN = sh.SftSpec.golden_mean(theta=0.5)

D2 = np.diag([2.0, 0.5])
SHEAR = np.array([[1.0, 1.0], [0.0, 1.0]])
POS = np.array([[2.0, 1.0], [1.0, 1.0]])


def rot(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s], [s, c]])


def lc(base, g0, g1):
    return cc.CocycleSpec(base, 1, {"0": g0, "1": g1})


def whole_path(A, symbols):
    """Step matrices and log|det| of every step of a sample path."""
    return A.path_matrices(symbols, 0, len(symbols) - A.window + 1)


def brute_bump_field(x, word, theta, nu, span=4000):
    L = len(word)
    word = list(word)
    # one read of the scanned symbols, matched window by window
    symbols = x.word_array(-span, 2 * span + L).tolist()
    total = 0.0
    for k in range(-span, span + 1):
        if symbols[k + span : k + span + L] == word:
            total += theta ** (nu * abs(k))
    return total


def reference_domination(A, nu=None, max_power=64):
    """domination_check as a search over a dict of cylinder words: one
    product per word, extended word by word, each ratio from
    norm(P) * norm(inv(P)), the envelope from norm_envelope over the
    generator norm sups."""
    if nu is None:
        nu = A.perturbation.nu if A.perturbation is not None else 1.0
    theta = A.base.theta
    m = A.base.alphabet_size
    w = A.window
    if A.is_locally_constant:
        env_factor = 1.0
    else:
        sup_a, sup_inv = A.norm_envelope()
        base_a = max(float(np.linalg.norm(M, 2)) for M in A.generator.values())
        base_i = max(float(np.linalg.norm(np.linalg.inv(M), 2)) for M in A.generator.values())
        env_factor = (sup_a / base_a) * (sup_inv / base_i)
    best = {}
    products = {w_: A.generator[w_].copy() for w_ in A.base.admissible_words(w)}
    N = 1
    while True:
        if N > 1 and len(products) * m > cc._DOMINATION_BUDGET:
            break
        ratio = max(
            float(np.linalg.norm(P, 2) * np.linalg.norm(np.linalg.inv(P), 2))
            for P in products.values()
        )
        best[N] = ratio * env_factor**N * theta ** (nu * N)
        if best[N] < 1.0:
            return cc.DominationResult(True, N, 1.0 - best[N])
        if N >= max_power:
            break
        nxt = {}
        for word, P in products.items():
            for s in range(m):
                if A.base.is_allowed(word[-1], s):
                    new_word = word + (s,)
                    nxt[new_word] = A.generator[new_word[-w:]] @ P
        products = nxt
        N += 1
    for target in range(2, max_power + 1):
        if target in best:
            continue
        best[target] = min(
            (best[a] * best[target - a] for a in best if (target - a) in best),
            default=np.inf,
        )
        if best[target] < 1.0:
            return cc.DominationResult(True, target, 1.0 - best[target])
    return cc.DominationResult(False, None, 0.0)


def random_cocycle(seed):
    """Near-orthogonal generators, d = 2 or 3, window 1 on the full 2-shift
    or window 2 on the golden mean shift.  Seeds 0..19 give 7 dominated
    cocycles (powers 1, 2, 3 and 5) and 13 that are not."""
    rng = np.random.default_rng(seed)
    d = 2 + seed % 2
    w = 1 + (seed // 2) % 2
    theta = float(rng.uniform(0.5, 0.95))
    base = sh.SftSpec.full_shift(2, theta) if w == 1 else sh.SftSpec.golden_mean(theta)
    eps = float(rng.uniform(0.02, 0.4))
    gens = {}
    for word in base.admissible_words(w):
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        gens[word] = Q @ (np.eye(d) + eps * rng.normal(size=(d, d)))
    return cc.CocycleSpec(base, w, gens)


def bumped(base, g0, g1, word, amplitude):
    pert = cc.HoelderPerturbation(nu=1.0, bumps=(cc.HoelderBump(word, amplitude),))
    return cc.CocycleSpec(base, 1, {"0": g0, "1": g1}, pert)


SAME_PATH_CASES = {
    "diagonal-tight": lambda: lc(FULL2_TIGHT, D2, D2),
    "diagonal-loose": lambda: lc(sh.SftSpec.full_shift(2, theta=0.9), D2, D2),
    "conformal": lambda: lc(FULL2, 1.7 * rot(0.4), 1.7 * rot(0.4)),
    "antidiagonal": lambda g=np.array([[0.0, 2.0], [-0.5, 0.0]]): lc(
        sh.SftSpec.full_shift(2, theta=0.3), g, g
    ),
    "elliptic": lambda g=rot(1.0) @ np.diag([1.2, 1 / 1.2]): lc(
        sh.SftSpec.full_shift(2, theta=0.9), g, g
    ),
    "bump-envelope": lambda: bumped(FULL2_TIGHT, D2, D2, (0,), 0.05),
    "bump-rotations": lambda: bumped(FULL2, 1.5 * rot(0.3), 1.2 * rot(-0.2), (0, 1), 0.1),
    "golden-window-2": lambda: cc.CocycleSpec(GOLDEN, 2, {"00": D2, "01": SHEAR, "10": POS}),
    **{f"random-{seed}": (lambda seed=seed: random_cocycle(seed)) for seed in range(20)},
}


class TestCocycleSpec:
    def test_missing_word_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            cc.CocycleSpec(FULL2, 1, {"0": D2})

    def test_wrong_length_word_rejected(self):
        with pytest.raises(ValueError, match="length"):
            cc.CocycleSpec(FULL2, 1, {"00": D2, "1": D2})

    def test_singular_generator_rejected(self):
        with pytest.raises(ValueError, match="non-invertible"):
            lc(FULL2, np.zeros((2, 2)), D2)

    def test_window_two_golden_mean(self):
        gen = {"00": D2, "01": SHEAR, "10": POS}
        A = cc.CocycleSpec(GOLDEN, 2, gen)
        p = sh.periodic_point(GOLDEN, "01")
        assert np.array_equal(A.value_at(p), SHEAR)
        assert np.array_equal(A.value_at(p.shift(1)), POS)

    def test_forbidden_generator_still_validated(self):
        with pytest.raises(ValueError, match="non-invertible"):
            cc.CocycleSpec(GOLDEN, 2, {"00": D2, "01": SHEAR, "10": POS, "11": np.zeros((2, 2))})

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_norm_envelope_same_as_per_matrix_loop(self, d):
        # the batched norms and inverses of the generator table give the
        # bits of one norm and one inverse per generator
        rng = np.random.default_rng(d)
        for _ in range(40):
            A = cc.CocycleSpec(FULL2, 2, {w: rng.normal(size=(d, d)) for w in ("00", "01", "10", "11")})
            gens = list(A.generator.values())
            assert A.norm_envelope() == (
                max(float(np.linalg.norm(M, 2)) for M in gens),
                max(float(np.linalg.norm(np.linalg.inv(M), 2)) for M in gens))
            inverse = A._generator_inverse
            assert all(np.array_equal(inverse[i], np.linalg.inv(M)) for i, M in enumerate(gens))

    def test_generator_inverse_built_on_first_read(self):
        # products and log|det| do not need the inverses; the envelope does
        A = lc(FULL2, D2, SHEAR)
        whole_path(A, np.array([0, 1, 1, 0]))
        cc.evaluate(A, sh.periodic_point(FULL2, "01"), 4)
        assert "_generator_inverse" not in vars(A)
        A.norm_envelope()
        assert np.array_equal(A._generator_inverse, np.linalg.inv(A._generator_table[0]))


class TestEvaluate:
    def test_periodic_product(self):
        A = lc(FULL2, D2, SHEAR)
        p = sh.periodic_point(FULL2, "01")
        expected = SHEAR @ D2
        assert np.allclose(cc.evaluate(A, p, 2), expected)
        assert np.allclose(cc.evaluate(A, p, 4), expected @ expected)

    def test_negative_time_inverts_shifted_product(self):
        A = lc(FULL2, D2, SHEAR)
        z, _ = sh.homoclinic_point(FULL2, "0", "11")
        for n in (1, 2, 5):
            direct = cc.evaluate(A, z, -n)
            ref = np.linalg.inv(cc.evaluate(A, z.shift(-n), n))
            assert np.allclose(direct, ref)

    @given(n=st.integers(-6, 6), m=st.integers(-6, 6))
    @settings(max_examples=40, deadline=None)
    def test_cocycle_identity(self, n, m):
        A = lc(FULL2, D2, POS)
        z, _ = sh.homoclinic_point(FULL2, "01", "0011")
        lhs = cc.evaluate(A, z, n + m)
        rhs = cc.evaluate(A, z.shift(n), m) @ cc.evaluate(A, z, n)
        assert np.allclose(lhs, rhs, atol=1e-9)

    @pytest.mark.parametrize("window", [1, 2])
    def test_same_product_as_pointwise(self, window):
        rng = np.random.default_rng(window)
        gen = {w: rng.normal(size=(3, 3)) + 2.0 * np.eye(3)
               for w in FULL2.admissible_words(window)}
        A = cc.CocycleSpec(FULL2, window, gen)
        for x in random_points(rng, 20):
            for n in (0, 1, 2, 7, 13, -1, -6):
                assert np.array_equal(cc.evaluate(A, x, n), pointwise_evaluate(A, x, n))

    def test_inadmissible_window_rejected(self):
        A = cc.CocycleSpec(GOLDEN, 2, {"00": D2, "01": SHEAR, "10": POS})
        with pytest.raises(ValueError, match="^point visits inadmissible window"):
            cc.evaluate(A, sh.make_point("0", "11", "0"), 3)


def random_points(rng, count):
    """Eventually periodic points over two symbols with random tails, cores
    and core starts."""
    points = []
    for _ in range(count):
        left, core, right = (tuple(rng.integers(0, 2, rng.integers(k, 5)).tolist())
                             for k in (1, 0, 1))
        points.append(sh.make_point(left, core, right, int(rng.integers(-4, 5))))
    return points


def pointwise_evaluate(A, x, n):
    """evaluate as one reference_value_at per shifted point, kept as a
    reference."""
    if n == 0:
        return np.eye(A.dim)
    if n < 0:
        return np.linalg.inv(pointwise_evaluate(A, x.shift(n), -n))
    out = np.eye(A.dim)
    for k in range(n):
        out = reference_value_at(A, x.shift(k)) @ out
    return out


# -- the holonomy series before exact differences, kept as a reference -------

def reference_bump_field(x, word, theta, nu):
    """Exact bump field by a scan of every window position near the core,
    geometric tails summed in closed form."""
    L = len(word)
    q = theta**nu
    B = abs(x.core_start) + len(x.core) + L + 2
    # one read of every symbol the scan below visits
    lo = -B - len(x.left)
    symbols = x.word_array(lo, B + len(x.right) - lo + L).tolist()
    word = list(word)

    def matches(k):
        return symbols[k - lo : k - lo + L] == word

    total = sum(q ** abs(k) for k in range(-B, B + 1) if matches(k))
    p_r = len(x.right)
    for k0 in range(B + 1, B + p_r + 1):
        if matches(k0):
            total += q**k0 / (1.0 - q**p_r)
    p_l = len(x.left)
    for k0 in range(-B - p_l, -B):
        if matches(k0):
            total += q ** (-k0) / (1.0 - q**p_l)
    return total


def reference_value_at(A, x):
    """A(x) from the generator and the eigen-decomposed bump factors of
    the exactly scanned fields."""
    M = A.generator[tuple(x.word_array(0, A.window).tolist())]
    if A.perturbation is None:
        return M
    for b in A.perturbation.bumps:
        g = b.amplitude * reference_bump_field(x, b.word, A.base.theta, A.perturbation.nu)
        lam, V = np.linalg.eig(b.direction_for(A.dim))
        M = M @ (V @ np.diag(np.exp(g * lam)) @ np.linalg.inv(V)).real
    return M


def subtracting_series_holonomy(A, step_x, step_y, tol):
    """The telescoping holonomy series with step matrices from shifted
    points and C_k - I formed by subtraction."""
    d = A.dim
    H, Px, Py_inv = np.eye(d), np.eye(d), np.eye(d)
    scale_x = scale_y = 0.0
    last_norms = []
    for k in range(cc.HOLONOMY_DEPTH_CAP):
        Sx, Sy = step_x(k), step_y(k)
        C = np.linalg.solve(Sy, Sx)
        with np.errstate(over="ignore", invalid="ignore"):
            T = Py_inv @ (C - np.eye(d)) @ Px * np.exp(scale_x - scale_y)
        if not np.all(np.isfinite(T)):
            raise ArithmeticError(f"holonomy series term {k} is not finite")
        H = H + T
        tn = float(np.linalg.norm(T, 2))
        last_norms.append(tn)
        if len(last_norms) >= 3:
            prev = last_norms[-2]
            rho = min(0.95, tn / prev) if prev > 0 else 0.5
            tail = tn * rho / (1.0 - rho)
            if tn + tail < tol:
                return H
        Px = Sx @ Px
        nx = float(np.linalg.norm(Px, 2))
        Px /= nx
        scale_x += np.log(nx)
        Py_inv = Py_inv @ np.linalg.inv(Sy)
        ny = float(np.linalg.norm(Py_inv, 2))
        Py_inv /= ny
        scale_y -= np.log(ny)
    raise ArithmeticError("holonomy series did not converge within the depth cap")


def subtracting_holonomy(A, x, y, side, tol=1e-12):
    """Stable (side +1) or unstable (side -1) holonomy by the subtracting series."""
    if side > 0:
        return subtracting_series_holonomy(
            A, lambda k: reference_value_at(A, x.shift(k)),
            lambda k: reference_value_at(A, y.shift(k)), tol)
    return subtracting_series_holonomy(
        A, lambda k: np.linalg.inv(reference_value_at(A, x.shift(-k - 1))),
        lambda k: np.linalg.inv(reference_value_at(A, y.shift(-k - 1))), tol)


def holonomy(A, x, y, side, tol=1e-12):
    fn = cc.stable_holonomy if side > 0 else cc.unstable_holonomy
    return fn(A, x, y, tol)


# -- decimal references --------------------------------------------------------

def decimal_field_differences(x, y, word, q, side, steps, span=400):
    """S(x_k) - S(y_k) for k < steps as a 50-digit sum over |p| <= span of
    q^|p - c| (I_x(p) - I_y(p)), c = k (side +1) or -k - 1 (side -1)."""
    with localcontext() as ctx:
        ctx.prec = 50
        powers = [Decimal(q) ** n for n in range(steps + 2 * span + 2)]
        L = len(word)
        diff = {}
        for p in range(-span, span + 1):
            v = ((tuple(x.word_array(p, L).tolist()) == word)
                 - (tuple(y.word_array(p, L).tolist()) == word))
            if v:
                diff[p] = v
        out = []
        for k in range(steps):
            c = k if side > 0 else -k - 1
            out.append(float(sum((v * powers[abs(p - c)] for p, v in diff.items()), Decimal(0))))
    return np.array(out)


def _dmul(P, Q):
    return [[sum((P[i][k] * Q[k][j] for k in range(len(Q))), Decimal(0))
             for j in range(len(Q[0]))] for i in range(len(P))]


def _dexp(G, terms=60):
    """Taylor series of the matrix exponential."""
    out = [[Decimal(int(i == j)) for j in range(len(G))] for i in range(len(G))]
    power = [row[:] for row in out]
    for n in range(1, terms):
        power = [[v / n for v in row] for row in _dmul(power, G)]
        out = [[a + b for a, b in zip(r, s)] for r, s in zip(out, power)]
    return out


def decimal_stable_holonomy(A, x, y, steps, span=80):
    """(A^n_y)^-1 A^n_x at n = steps for a one-bump d = 2 cocycle, with
    200-digit 2 x 2 products, Taylor-series bump factors and fields summed
    over |p - k| <= span."""
    (b,) = A.perturbation.bumps
    with localcontext() as ctx:
        ctx.prec = 200
        q = Decimal(A.base.theta) ** Decimal(A.perturbation.nu)

        def dec(M):
            return [[Decimal(float(v)) for v in row] for row in np.asarray(M)]

        D = dec(b.direction_for(2))

        def step(z, k):
            hits = sum((q ** abs(p - k) for p in range(k - span, k + span + 1)
                        if tuple(z.word_array(p, len(b.word)).tolist()) == b.word), Decimal(0))
            g = Decimal(b.amplitude) * hits
            return _dmul(dec(A.generator[tuple(z.word_array(k, A.window).tolist())]),
                         _dexp([[g * v for v in row] for row in D]))

        Px = Py = dec(np.eye(2))
        for k in range(steps):
            Px, Py = _dmul(step(x, k), Px), _dmul(step(y, k), Py)
        (a, b_), (c, d) = Py
        det = a * d - b_ * c
        H = _dmul([[d / det, -b_ / det], [-c / det, a / det]], Px)
        return np.array([[float(v) for v in row] for row in H])


class TestBumpField:
    def test_fixed_point_closed_form(self):
        x = sh.periodic_point(FULL2, "0")
        q = 0.5
        got = reference_bump_field(x, (0,), theta=0.5, nu=1.0)
        assert got == pytest.approx((1 + q) / (1 - q), rel=1e-14)

    def test_alternating_point_closed_form(self):
        x = sh.periodic_point(FULL2, "01")
        q = 0.5
        got = reference_bump_field(x, (0, 1), theta=0.5, nu=1.0)
        # matches exactly at even positions
        assert got == pytest.approx(1 + 2 * q**2 / (1 - q**2), rel=1e-14)

    def test_homoclinic_point_matches_brute_force(self):
        z, _ = sh.homoclinic_point(FULL2, "01", "0011")
        for word in [(0,), (1, 1), (0, 0, 1)]:
            got = reference_bump_field(z, word, theta=0.5, nu=0.7)
            ref = brute_bump_field(z, word, 0.5, 0.7)
            assert got == pytest.approx(ref, abs=1e-12)

    def test_shifted_point_matches_brute_force(self):
        z, _ = sh.homoclinic_point(FULL2, "0", "101")
        for k in (-3, 2, 7):
            got = reference_bump_field(z.shift(k), (1, 0), theta=0.5, nu=1.0)
            ref = brute_bump_field(z.shift(k), (1, 0), 0.5, 1.0)
            assert got == pytest.approx(ref, abs=1e-12)


class TestPathMatrices:
    def test_locally_constant_lookup(self):
        A = lc(FULL2, D2, SHEAR)
        rng = np.random.default_rng(3)
        sym = rng.integers(0, 2, size=50)
        mats, logdet = whole_path(A, sym)
        for t in range(len(sym)):
            ref = D2 if sym[t] == 0 else SHEAR
            assert np.array_equal(mats[t], ref)
            assert logdet[t] == pytest.approx(np.log(abs(np.linalg.det(ref))))

    def test_window_two_lookup(self):
        gen = {"00": D2, "01": SHEAR, "10": POS}
        A = cc.CocycleSpec(GOLDEN, 2, gen)
        sym = np.array([0, 1, 0, 0, 1, 0])
        mats, _ = whole_path(A, sym)
        expect = [SHEAR, POS, D2, SHEAR, POS]
        assert all(np.array_equal(m, e) for m, e in zip(mats, expect))

    def test_bump_path_matches_exact_point_evaluation(self):
        pert = cc.HoelderPerturbation(nu=1.0, bumps=(cc.HoelderBump((0, 1), 0.3),))
        A = cc.CocycleSpec(FULL2, 1, {"0": D2, "1": SHEAR}, pert)
        p = sh.periodic_point(FULL2, "01")
        sym = np.tile([0, 1], 200)
        mats, logdet = whole_path(A, sym)
        t = 200  # deep inside, truncation far below double precision
        exact = reference_value_at(A, p.shift(t % 2))
        assert np.allclose(mats[t], exact, atol=1e-12)
        # skew direction is traceless: bump leaves volumes alone
        assert logdet[t] == pytest.approx(np.log(abs(np.linalg.det(D2))), abs=1e-12)

    def test_inadmissible_path_rejected(self):
        gen = {"00": D2, "01": SHEAR, "10": POS}
        A = cc.CocycleSpec(GOLDEN, 2, gen)
        with pytest.raises(ValueError, match="inadmissible"):
            whole_path(A, np.array([0, 1, 1, 0]))

    def test_generator_of_forbidden_word_is_never_read(self):
        # steps are looked up among the shift's admissible windows only, so
        # a generator given for the forbidden word 11 cannot be reached
        A = cc.CocycleSpec(GOLDEN, 2, {"00": D2, "01": SHEAR, "10": POS, "11": D2})
        assert len(A._generator_table[0]) == 3
        with pytest.raises(ValueError, match=r"point visits inadmissible window \(1, 1\)"):
            whole_path(A, np.array([0, 1, 1, 0]))
        with pytest.raises(ValueError, match=r"point visits inadmissible window \(1, 1\)"):
            cc.evaluate(A, sh.make_point("0", (1, 1), "0"), 3)
        p = sh.periodic_point(GOLDEN, "001")
        assert np.array_equal(cc.evaluate(A, p, 3), POS @ SHEAR @ D2)
        # nor read by the norm envelope, nor perturbed
        B = cc.CocycleSpec(GOLDEN, 2, {"00": rot(0.3), "01": rot(1.1), "10": rot(2.0),
                                       "11": np.diag([100.0, 0.01])})
        assert list(B.generator) == [(0, 0), (0, 1), (1, 0)]
        assert B.norm_envelope() == (1.0, 1.0)
        with pytest.raises(ValueError, match="not a generator cylinder"):
            cc.cylinder_perturb(B, "11", rot(0.1))

    def test_symbol_out_of_range_rejected(self):
        # window 1: -1 used to wrap around to the generator of word 1
        A = lc(FULL2, D2, SHEAR)
        with pytest.raises(ValueError, match=r"^path symbol -1 outside \[0, 2\)$"):
            whole_path(A, np.array([0, -1, 1]))
        # window 2: the path 30 used to read as the word 11
        A2 = cc.CocycleSpec(FULL2, 2, {"00": D2, "01": SHEAR, "10": POS, "11": D2})
        with pytest.raises(ValueError, match=r"^path symbol 3 outside \[0, 2\)$"):
            whole_path(A2, np.array([3, 0]))

    def test_symbol_out_of_range_rejected_in_a_step_range(self):
        A = lc(FULL2, D2, SHEAR)
        sym = np.zeros(100, dtype=int)
        sym[60] = 2
        A.path_matrices(sym, 0, 50)
        with pytest.raises(ValueError, match=r"^path symbol 2 outside \[0, 2\)$"):
            A.path_matrices(sym, 50, 70)

    @pytest.mark.parametrize("start,stop", [(-1, 5), (3, 3), (0, 100)])
    def test_step_range_outside_path_rejected(self, start, stop):
        A = lc(FULL2, D2, SHEAR)
        with pytest.raises(ValueError, match=r"^steps \["):
            A.path_matrices(np.zeros(99, dtype=int), start, stop)

    @pytest.mark.parametrize("theta,nu,length", [
        (0.5, 1.0, 3000),   # kernel half-width K = 58, far shorter than the path
        (0.9, 0.5, 1000),   # K = 760: the whole path is shorter than the kernel
    ])
    def test_step_ranges_equal_whole_path(self, theta, nu, length):
        # fields of a step range, read through its halo, equal the whole
        # path's convolution bit for bit, true path ends included
        base = sh.SftSpec.full_shift(2, theta)
        bumps = (cc.HoelderBump((0, 1), 0.3),
                 cc.HoelderBump((1, 1, 0), -0.2, np.array([[0.5, 1.0], [-1.0, 0.2]])))
        A = cc.CocycleSpec(base, 2, {"00": D2, "01": SHEAR, "10": POS, "11": D2},
                           cc.HoelderPerturbation(nu, bumps))
        sym = np.random.default_rng(4).integers(0, 2, size=length)
        mats, logdet = whole_path(A, sym)
        T = len(logdet)
        for start, stop in [(0, 1), (0, 200), (1, 2), (137, 901), (T - 300, T), (T - 1, T)]:
            part, part_ld = A.path_matrices(sym, start, stop)
            assert np.array_equal(part, mats[start:stop])
            assert np.array_equal(part_ld, logdet[start:stop])


class TestDomination:
    def test_diagonal_tight_base_power_one(self):
        A = lc(FULL2_TIGHT, D2, D2)
        res = cc.domination_check(A)
        assert res.dominated and res.power == 1
        assert res.margin == pytest.approx(1 - 4 * 0.1, rel=1e-12)

    def test_constant_diagonal_loose_base_never_dominates(self):
        A = lc(sh.SftSpec.full_shift(2, theta=0.9), D2, D2)
        res = cc.domination_check(A)
        assert not res.dominated and res.power is None

    def test_conformal_always_power_one(self):
        g = 1.7 * rot(0.4)
        A = lc(FULL2, g, g)
        res = cc.domination_check(A)
        assert res.dominated and res.power == 1
        assert res.margin == pytest.approx(1 - 0.5, rel=1e-12)

    def test_antidiagonal_cancellation_found_at_power_two(self):
        g = np.array([[0.0, 2.0], [-0.5, 0.0]])
        A = lc(sh.SftSpec.full_shift(2, theta=0.3), g, g)
        res = cc.domination_check(A)
        assert res.dominated and res.power == 2
        assert res.margin == pytest.approx(1 - 0.3**2, rel=1e-10)

    def test_elliptic_product_found_late(self):
        g = rot(1.0) @ np.diag([1.2, 1 / 1.2])
        A = lc(sh.SftSpec.full_shift(2, theta=0.9), g, g)
        res = cc.domination_check(A)
        assert res.dominated
        assert res.power == 3

    def test_bump_envelope_shrinks_margin(self):
        base = lc(FULL2_TIGHT, D2, D2)
        pert = cc.HoelderPerturbation(nu=1.0, bumps=(cc.HoelderBump((0,), 0.05),))
        bumped = cc.CocycleSpec(FULL2_TIGHT, 1, {"0": D2, "1": D2}, pert)
        r0 = cc.domination_check(base)
        r1 = cc.domination_check(bumped)
        assert r1.dominated
        assert r1.margin < r0.margin

    def test_singular_product_is_not_dominated(self):
        # from N = 11 some powers of g are singular at working precision
        # (np.linalg.inv raises); their cond_2 is near 1/eps, so the search
        # runs to its budget without raising and finds no domination
        g = np.array([[1.0, 1.0], [1.0, 1.1]])
        res = cc.domination_check(lc(FULL2, g, g))
        assert not res.dominated and res.power is None

    @pytest.mark.parametrize("budget,power", [(15, None), (16, 3)])
    def test_budget_bounds_the_powers_searched(self, budget, power, monkeypatch):
        # first dominated at power 3, whose 8 cylinders on the full 2-shift
        # are searched only when 8 * 2 fits the budget
        monkeypatch.setattr(cc, "_DOMINATION_BUDGET", budget)
        g = rot(1.0) @ np.diag([1.2, 1 / 1.2])
        res = cc.domination_check(lc(sh.SftSpec.full_shift(2, theta=0.9), g, g))
        assert (res.dominated, res.power) == (power is not None, power)

    @pytest.mark.parametrize("case", list(SAME_PATH_CASES))
    def test_same_path_as_word_dict_search(self, case, monkeypatch):
        # a small budget makes the undominated cases reach the budget stop
        # and the composition bound in a fraction of a second on both sides
        monkeypatch.setattr(cc, "_DOMINATION_BUDGET", 2000)
        A = SAME_PATH_CASES[case]()
        ref = reference_domination(A)
        res = cc.domination_check(A)
        assert (res.dominated, res.power) == (ref.dominated, ref.power)
        assert res.margin == pytest.approx(ref.margin, rel=1e-12, abs=0.0)


class TestStableHolonomy:
    def test_locally_constant_exact_value(self):
        A = lc(FULL2, D2, SHEAR)
        p = sh.periodic_point(FULL2, "0")
        z, _ = sh.homoclinic_point(FULL2, "0", "11")
        res = cc.stable_holonomy(A, z, p)
        expected = np.linalg.inv(D2 @ D2) @ (SHEAR @ SHEAR)
        assert res.truncation_error == 0.0
        assert np.allclose(res.matrix, expected, atol=1e-13)

    def test_equivariance(self):
        A = lc(FULL2, D2, POS)
        p = sh.periodic_point(FULL2, "0")
        z, _ = sh.homoclinic_point(FULL2, "0", "101")
        lhs = cc.stable_holonomy(A, z, p).matrix
        rhs = np.linalg.solve(
            A.value_at(p), cc.stable_holonomy(A, z.shift(1), p.shift(1)).matrix @ A.value_at(z)
        )
        assert np.allclose(lhs, rhs, atol=1e-11)

    def test_composition(self):
        A = lc(FULL2, D2, POS)
        p = sh.periodic_point(FULL2, "0")
        z1, _ = sh.homoclinic_point(FULL2, "0", "1")
        z2, _ = sh.homoclinic_point(FULL2, "0", "11")
        h12 = cc.stable_holonomy(A, z1, z2).matrix
        h2p = cc.stable_holonomy(A, z2, p).matrix
        h1p = cc.stable_holonomy(A, z1, p).matrix
        assert np.allclose(h2p @ h12, h1p, atol=1e-11)

    def test_not_asymptotic_rejected(self):
        A = lc(FULL2, D2, SHEAR)
        p0 = sh.periodic_point(FULL2, "0")
        p1 = sh.periodic_point(FULL2, "1")
        with pytest.raises(ValueError, match="forward asymptotic"):
            cc.stable_holonomy(A, p0, p1)

    def test_zero_amplitude_series_matches_exact_branch(self):
        g = 1.5 * rot(0.3)
        pert = cc.HoelderPerturbation(nu=1.0, bumps=(cc.HoelderBump((0,), 0.0),))
        A0 = lc(FULL2, g, np.diag([1.3, 1 / 1.3]) @ rot(0.1))
        A1 = cc.CocycleSpec(FULL2, 1, dict(A0.generator), pert)
        p = sh.periodic_point(FULL2, "0")
        z, _ = sh.homoclinic_point(FULL2, "0", "11")
        exact = cc.stable_holonomy(A0, z, p)
        series = cc.stable_holonomy(A1, z, p)
        assert exact.truncation_error == 0.0
        assert np.allclose(series.matrix, exact.matrix, atol=1e-10)

    def test_bump_series_truncation_control(self):
        g = 1.5 * rot(0.3)
        pert = cc.HoelderPerturbation(nu=1.0, bumps=(cc.HoelderBump((0, 1), 0.1),))
        A = cc.CocycleSpec(FULL2, 1, {"0": g, "1": 1.2 * rot(-0.2)}, pert)
        p = sh.periodic_point(FULL2, "0")
        z, _ = sh.homoclinic_point(FULL2, "0", "11")
        loose = cc.stable_holonomy(A, z, p, tol=1e-6)
        tight = cc.stable_holonomy(A, z, p, tol=1e-13)
        drift = np.linalg.norm(loose.matrix - tight.matrix, 2)
        assert drift < 1e-6
        assert tight.depth >= loose.depth

    def test_bump_hoelder_bound(self):
        g = 1.5 * rot(0.3)
        pert = cc.HoelderPerturbation(nu=1.0, bumps=(cc.HoelderBump((0, 1), 0.1),))
        A = cc.CocycleSpec(FULL2, 1, {"0": g, "1": 1.2 * rot(-0.2)}, pert)
        c1, rate = cc.holonomy_constants(A)
        assert rate < 1.0 and np.isfinite(c1)
        p = sh.periodic_point(FULL2, "0")
        z, _ = sh.homoclinic_point(FULL2, "0", "11")
        res = cc.stable_holonomy(A, z, p, tol=1e-13)
        dist = sh.metric(z, p, FULL2)
        assert np.linalg.norm(res.matrix - np.eye(2), 2) <= c1 * dist + 1e-10

    def test_overflow_cocycle_matches_decimal_reference(self):
        # hyperbolic generators with a bump, fiber bunched: formed by
        # subtraction, C_k - I stalled at round-off while the scale gap grew,
        # and the terms overflowed from term 491; formed from the exact
        # field differences it shrinks like theta^k and the series converges
        pert = cc.HoelderPerturbation(nu=1.0, bumps=(cc.HoelderBump((0, 1), 0.01),))
        A = cc.CocycleSpec(FULL2_TIGHT, 1, {"0": D2, "1": POS}, pert)
        x = sh.make_point((0,), (1, 0, 1), (0, 1))
        y = sh.make_point((1,), (0, 0, 1), (0, 1))
        ref = decimal_stable_holonomy(A, x, y, steps=70)
        res = cc.stable_holonomy(A, x, y, tol=1e-13)
        assert res.depth < 40
        assert np.abs(res.matrix - ref).max() <= 1e-13
        # the default tolerance stops earlier, within its own bound
        default = cc.stable_holonomy(A, x, y)
        assert np.abs(default.matrix - ref).max() <= 1e-12

    def test_undominated_bump_cocycle_rejected(self):
        # the two-bump cocycle of test_step_ranges_equal_whole_path: its
        # bump envelope keeps it undominated
        bumps = (cc.HoelderBump((0, 1), 0.3),
                 cc.HoelderBump((1, 1, 0), -0.2, np.array([[0.5, 1.0], [-1.0, 0.2]])))
        A = cc.CocycleSpec(FULL2, 2, {"00": D2, "01": SHEAR, "10": POS, "11": D2},
                           cc.HoelderPerturbation(1.0, bumps))
        message = r"^non-dominated cocycle without the locally constant fallback$"
        with pytest.raises(ValueError, match=message):
            cc.stable_holonomy(A, Z11, P0)
        with pytest.raises(ValueError, match=message):
            cc.unstable_holonomy(A, P0, Z11)

    def test_domination_checked_once_per_cocycle(self, monkeypatch):
        calls = []
        check = cc.domination_check
        monkeypatch.setattr(cc, "domination_check", lambda *a, **k: calls.append(a) or check(*a, **k))
        A = _rotation_bump((0, 1), 0.1)
        for _ in range(3):
            cc.stable_holonomy(A, Z11, P0)
            cc.unstable_holonomy(A, P0, Z11)
        cc.holonomy_constants(A)
        assert len(calls) == 1
        cc.stable_holonomy(_rotation_bump((0, 1), 0.1), Z11, P0)
        assert len(calls) == 2

    def test_non_finite_term_raises(self):
        # conformal generators 1e150 apart in scale, read differently by the
        # two points on steps 0..2: term 2 is about 1e450, so the series must
        # stop at the first term that is not finite
        pert = cc.HoelderPerturbation(nu=1.0, bumps=(cc.HoelderBump((0,), 0.01),))
        A = cc.CocycleSpec(FULL2_TIGHT, 1, {"0": 1e150 * rot(0.3), "1": rot(-0.2)}, pert)
        x = sh.make_point("1", "000", "0")
        y = sh.make_point("0", "111", "0")
        with pytest.raises(ArithmeticError, match=r"^holonomy series term 2 is not finite$"):
            cc.stable_holonomy(A, x, y)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, float("nan")])
    def test_tolerance_must_be_positive(self, tol):
        # the series reads ceil(log tol / log theta^nu) steps at a time
        A = _rotation_bump((0, 1), 0.1)
        with pytest.raises(ValueError, match=r"^holonomy tolerance must be positive"):
            cc.stable_holonomy(A, Z11, P0, tol)
        with pytest.raises(ValueError, match=r"^holonomy tolerance must be positive"):
            cc.unstable_holonomy(A, P0, Z11, tol)


class TestUnstableHolonomy:
    def test_not_backward_asymptotic_rejected(self):
        A = lc(FULL2, D2, SHEAR)
        p = sh.periodic_point(FULL2, "0")
        x = sh.make_point("1", "11", "0")
        cc.stable_holonomy(A, x, p)   # the forward tails agree
        with pytest.raises(ValueError, match="backward asymptotic"):
            cc.unstable_holonomy(A, x, p)

    def test_window_two_matches_stabilized_products(self):
        gen = {"00": D2, "01": SHEAR, "10": POS}
        A = cc.CocycleSpec(GOLDEN, 2, gen)
        p = sh.periodic_point(GOLDEN, "0")
        z, _ = sh.homoclinic_point(GOLDEN, "0", "10")
        res = cc.unstable_holonomy(A, p, z)
        assert res.truncation_error == 0.0
        for n in (res.depth, res.depth + 3, res.depth + 7):
            brute = cc.evaluate(A, z.shift(-n), n) @ np.linalg.inv(
                cc.evaluate(A, p.shift(-n), n)
            )
            assert np.allclose(res.matrix, brute, atol=1e-11)

    def test_series_matches_exact_for_zero_amplitude(self):
        g0, g1 = 1.4 * rot(0.5), 1.1 * rot(-0.3)
        pert = cc.HoelderPerturbation(nu=1.0, bumps=(cc.HoelderBump((1,), 0.0),))
        A0 = lc(FULL2, g0, g1)
        A1 = cc.CocycleSpec(FULL2, 1, dict(A0.generator), pert)
        p = sh.periodic_point(FULL2, "0")
        z, _ = sh.homoclinic_point(FULL2, "0", "11")
        exact = cc.unstable_holonomy(A0, p, z)
        series = cc.unstable_holonomy(A1, p, z)
        assert np.allclose(series.matrix, exact.matrix, atol=1e-10)

    def test_bump_series_equivariance(self):
        g = 1.5 * rot(0.3)
        pert = cc.HoelderPerturbation(nu=1.0, bumps=(cc.HoelderBump((0, 1), 0.08),))
        A = cc.CocycleSpec(FULL2, 1, {"0": g, "1": 1.2 * rot(-0.2)}, pert)
        p = sh.periodic_point(FULL2, "0")
        z, _ = sh.homoclinic_point(FULL2, "0", "11")
        lhs = cc.unstable_holonomy(A, p, z, tol=1e-13).matrix
        prev = cc.unstable_holonomy(A, p.shift(-1), z.shift(-1), tol=1e-13).matrix
        rhs = A.value_at(z.shift(-1)) @ prev @ np.linalg.inv(A.value_at(p.shift(-1)))
        assert np.allclose(lhs, rhs, atol=1e-9)


def field_pair(seed, side):
    """Two distinct points asymptotic on the given side, whose other tails
    have different periods, a bump word and a ratio q."""
    rng = np.random.default_rng(seed)
    shared = _word(rng, int(rng.integers(1, 4)))
    while True:
        tails = [_word(rng, int(rng.integers(1, 4))) for _ in range(2)]
        cores = [_word(rng, int(rng.integers(0, 5))) for _ in range(2)]
        starts = [int(rng.integers(-3, 4)) for _ in range(2)]
        if side > 0:
            x, y = (sh.make_point(t, c, shared, b) for t, c, b in zip(tails, cores, starts))
            periods = len(x.left), len(y.left)
        else:
            x, y = (sh.make_point(shared, c, t, b) for t, c, b in zip(tails, cores, starts))
            periods = len(x.right), len(y.right)
        try:
            cc._agreement_index(x, y, side)   # the shared tails may be out of phase
        except ValueError:
            continue
        if periods[0] != periods[1]:
            return x, y, _word(rng, int(rng.integers(1, 4))), float(rng.uniform(0.3, 0.8))


def _word(rng, n):
    return tuple(int(s) for s in rng.integers(0, 2, size=n))


class TestFieldDifference:
    @pytest.mark.parametrize("side", [1, -1])
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_decimal_sum(self, seed, side):
        x, y, word, q = field_pair(seed, side)
        ref = decimal_field_differences(x, y, word, q, side, 201)
        got = cc._field_difference(x, y, word, q, side)(np.arange(201))
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref))

    def test_cases_differ(self):
        # most random pairs above see different bump indicators (18 of 20)
        assert sum(
            bool(np.any(decimal_field_differences(*field_pair(seed, side), side, 3) != 0))
            for seed in range(10) for side in (1, -1)
        ) >= 15

    def test_reflection(self):
        x = sh.make_point("01", "110", "001", -2)
        r = cc._reflect(x)
        assert r.word_array(-30, 61).tolist() == x.word_array(-30, 61).tolist()[::-1]


def two_bump_cocycle():
    """The two non-commuting bumps of test_step_ranges_equal_whole_path on
    a window-2 cocycle that is fiber bunched (theta 0.1, near-conformal
    generators)."""
    bumps = (cc.HoelderBump((0, 1), 0.3),
             cc.HoelderBump((1, 1, 0), -0.2, np.array([[0.5, 1.0], [-1.0, 0.2]])))
    gens = {"00": 1.5 * rot(0.3), "01": 1.2 * rot(-0.2),
            "10": np.diag([1.3, 1 / 1.3]) @ rot(0.1), "11": 0.9 * rot(1.1)}
    return cc.CocycleSpec(FULL2_TIGHT, 2, gens, cc.HoelderPerturbation(1.0, bumps))


def _rotation_bump(word, amplitude, g1=1.2 * rot(-0.2)):
    pert = cc.HoelderPerturbation(nu=1.0, bumps=(cc.HoelderBump(word, amplitude),))
    return cc.CocycleSpec(FULL2, 1, {"0": 1.5 * rot(0.3), "1": g1}, pert)


P0 = sh.periodic_point(FULL2, "0")
Z11 = sh.homoclinic_point(FULL2, "0", "11")[0]

# the bump cases of TestStableHolonomy and TestUnstableHolonomy, and the
# two-bump cocycle: (cocycle, side, x, y, tol)
HOLONOMY_SAME_PATH = {
    "stable-zero-amplitude": lambda: (
        _rotation_bump((0,), 0.0, np.diag([1.3, 1 / 1.3]) @ rot(0.1)), 1, Z11, P0, 1e-12),
    "stable-loose": lambda: (_rotation_bump((0, 1), 0.1), 1, Z11, P0, 1e-6),
    "stable-tight": lambda: (_rotation_bump((0, 1), 0.1), 1, Z11, P0, 1e-13),
    "unstable-zero-amplitude": lambda: (
        cc.CocycleSpec(FULL2, 1, {"0": 1.4 * rot(0.5), "1": 1.1 * rot(-0.3)},
                       cc.HoelderPerturbation(1.0, (cc.HoelderBump((1,), 0.0),))),
        -1, P0, Z11, 1e-12),
    "unstable": lambda: (_rotation_bump((0, 1), 0.08), -1, P0, Z11, 1e-13),
    "unstable-shifted": lambda: (
        _rotation_bump((0, 1), 0.08), -1, P0.shift(-1), Z11.shift(-1), 1e-13),
    "two-bump-stable": lambda: (
        two_bump_cocycle(), 1, sh.make_point("01", "1101", "0", -2),
        sh.make_point("1", "0", "0", 1), 1e-13),
    "two-bump-stable-homoclinic": lambda: (two_bump_cocycle(), 1, Z11, P0, 1e-12),
    "two-bump-unstable": lambda: (
        two_bump_cocycle(), -1, sh.make_point("011", "10", "1", 1),
        sh.make_point("011", "0", "01", 1), 1e-13),
    "two-bump-unstable-homoclinic": lambda: (two_bump_cocycle(), -1, P0, Z11, 1e-12),
}


def load_hoelder_workload():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Hoelder


class TestSeriesSamePath:
    """The series with exact differences against the subtracting series on
    the cocycles where the latter converges."""

    @pytest.mark.parametrize("case", sorted(HOLONOMY_SAME_PATH))
    def test_bump_cases(self, case):
        A, side, x, y, tol = HOLONOMY_SAME_PATH[case]()
        new = holonomy(A, x, y, side, tol)
        ref = subtracting_holonomy(A, x, y, side, tol)
        assert np.abs(new.matrix - ref).max() <= 1e-12

    @pytest.mark.parametrize("seed", [2024, 7])
    def test_hoelder_ensemble(self, seed):
        work = load_hoelder_workload()(seed)
        for A, _, _, stable, unstable, _ in work.members:
            for side, pairs, step in ((1, stable, 1), (-1, unstable, -1)):
                for x, y in pairs:
                    for a, b in ((x, y), (x.shift(step), y.shift(step))):
                        new = holonomy(A, a, b, side).matrix
                        assert np.abs(new - subtracting_holonomy(A, a, b, side)).max() <= 1e-12


def hyperbolic_bump_cocycle(seed):
    """A fiber-bunched bump cocycle over the full 2-shift at theta 0.1 with
    hyperbolic generators S diag(e^(s u)) S^-1 (real eigenvalues e^(+-s) at
    d = 2, and e^(s), 1, e^(-s) at d = 3, s in [0.5, 0.8], S near
    orthogonal).  Even seeds give d = 2, odd d = 3; seeds 2 and 3 mod 4 add
    a second bump along a random diagonalizable direction.  Draws that
    domination_check does not find dominated are redrawn."""
    rng = np.random.default_rng(seed)
    d = 2 + seed % 2
    while True:
        gens = {}
        for sym in "01":
            Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
            S = Q @ (np.eye(d) + 0.1 * rng.normal(size=(d, d)))
            u = np.linspace(1.0, -1.0, d) * rng.uniform(0.5, 0.8)
            gens[sym] = S @ np.diag(np.exp(u)) @ np.linalg.inv(S)
        bumps = [cc.HoelderBump(_word(rng, int(rng.integers(1, 4))), float(rng.uniform(0.005, 0.03)))]
        if seed % 4 >= 2:
            S = np.eye(d) + 0.3 * rng.normal(size=(d, d))
            D = S @ np.diag(rng.uniform(-1.0, 1.0, size=d)) @ np.linalg.inv(S)
            bumps.append(cc.HoelderBump(_word(rng, int(rng.integers(1, 4))),
                                        float(rng.uniform(0.005, 0.03)), D))
        A = cc.CocycleSpec(FULL2_TIGHT, 1, gens, cc.HoelderPerturbation(1.0, tuple(bumps)))
        if cc.domination_check(A).dominated:
            return A


class TestHyperbolicBumpFamily:
    @pytest.mark.parametrize("seed", range(12))
    def test_converges_with_identities(self, seed):
        A = hyperbolic_bump_cocycle(seed)
        rng = np.random.default_rng(1000 + seed)
        shared = _word(rng, int(rng.integers(1, 4)))
        for side in (1, -1):
            if side > 0:
                x, y, z = (sh.make_point(_word(rng, int(rng.integers(1, 4))),
                                         _word(rng, 3), shared) for _ in range(3))
            else:
                x, y, z = (sh.make_point(shared, _word(rng, 3),
                                         _word(rng, int(rng.integers(1, 4)))) for _ in range(3))
            h_xy, h_yz, h_xz = (holonomy(A, a, b, side) for a, b in ((x, y), (y, z), (x, z)))
            moved = holonomy(A, x.shift(side), y.shift(side), side)
            assert max(h.depth for h in (h_xy, h_yz, h_xz, moved)) < 100
            scale = max(1.0, float(np.abs(h_xz.matrix).max()))
            assert np.abs(h_yz.matrix @ h_xy.matrix - h_xz.matrix).max() <= 1e-10 * scale
            if side > 0:
                rhs = np.linalg.solve(A.value_at(y), moved.matrix @ A.value_at(x))
            else:
                rhs = A.value_at(y.shift(-1)) @ moved.matrix @ np.linalg.inv(A.value_at(x.shift(-1)))
            assert np.abs(h_xy.matrix - rhs).max() <= 1e-10 * scale


class TestBumpProductsSamePath:
    """value_at and evaluate read their steps from path_matrices, whose
    fields come from the truncated convolution; the references scan the
    exact fields at each shifted point.  A forward product may differ by a
    few eps of its largest entry per step; an inverse product by that much
    times its condition number, which inverting amplifies."""

    EPS = np.finfo(float).eps

    def check(self, A, points):
        for x in points:
            ref = reference_value_at(A, x)
            assert np.abs(A.value_at(x) - ref).max() <= 4 * self.EPS * np.abs(ref).max()
            for n in (1, 7, 20, -6):
                ref = pointwise_evaluate(A, x, n)
                tol = 4 * abs(n) * self.EPS * np.abs(ref).max()
                if n < 0:
                    tol *= np.linalg.cond(ref)
                assert np.abs(cc.evaluate(A, x, n) - ref).max() <= tol

    @pytest.mark.parametrize("seed", [2024, 7])
    def test_hoelder_ensemble(self, seed):
        rng = np.random.default_rng(seed)
        for A, _, _, stable, unstable, _ in load_hoelder_workload()(seed).members:
            self.check(A, [x for pair in stable + unstable for x in pair] + random_points(rng, 4))

    @pytest.mark.parametrize("seed", range(12))
    def test_hyperbolic_family(self, seed):
        self.check(hyperbolic_bump_cocycle(seed), random_points(np.random.default_rng(seed), 8))


class TestBumpDirections:
    @pytest.mark.parametrize("D", [[[0.0, 1.0], [0.0, 0.0]], [[1.0, 1.0], [0.0, 1.0]]])
    def test_defective_direction_rejected(self, D):
        # exp(g D) from eig would be the identity for the nilpotent D and
        # would drop the off-diagonal entry for the Jordan block
        pert = cc.HoelderPerturbation(1.0, (cc.HoelderBump((0,), 0.3, np.array(D)),))
        message = r"^bump direction is not diagonalizable at working precision$"
        with pytest.raises(ValueError, match=message):
            cc.CocycleSpec(FULL2, 1, {"0": D2, "1": POS}, pert)
        with pytest.raises(ValueError, match=message):
            cc._bump_factors(np.array(D), np.array([0.3]))

    @pytest.mark.parametrize("d,D", [
        (2, None), (3, None), (3, np.diag([1.0, 0.5, -0.2])),
        (2, np.array([[0.5, 1.0], [-1.0, 0.2]])),
    ])
    def test_directions_in_use_accepted(self, d, D):
        pert = cc.HoelderPerturbation(1.0, (cc.HoelderBump((0,), 0.3, D),))
        A = cc.CocycleSpec(FULL2, 1, {"0": np.eye(d), "1": 2.0 * np.eye(d)}, pert)
        direction = A.perturbation.bumps[0].direction_for(d)
        g = np.array([1e-20, 1e-3, 0.3])
        minus = cc._bump_factors(direction, g, minus_identity=True)
        assert np.allclose(minus, cc._bump_factors(direction, g) - np.eye(d), rtol=0, atol=1e-15)
        # at tiny g, exp(g D) - I is g D to full relative precision
        assert np.abs(minus[0] - 1e-20 * direction).max() <= 1e-34


def einsum_bump_factors(D, g, minus_identity=False):
    """The bump factors as one complex contraction V diag(e^(g lam)) V^-1."""
    lam, V, V_inv = cc._diagonalize(D)
    phase = (np.expm1 if minus_identity else np.exp)(g[:, None] * lam[None, :])
    return np.einsum("ij,tj,jk->tik", V, phase, V_inv).real


# the directions in use: the default skew plane, a diagonal one, the
# two-bump cocycle's complex pair with a nonzero real part, and the random
# diagonalizable second bumps of the hyperbolic family
BUMP_DIRECTIONS = {
    "skew-d2": lambda: cc._skew_plane(2),
    "skew-d3": lambda: cc._skew_plane(3),
    "skew-d4": lambda: cc._skew_plane(4),
    "diagonal-d3": lambda: np.diag([1.0, 0.5, -0.2]),
    "two-bump": lambda: two_bump_cocycle().perturbation.bumps[1].direction,
    "hyperbolic-2": lambda: hyperbolic_bump_cocycle(2).perturbation.bumps[1].direction,
    "hyperbolic-3": lambda: hyperbolic_bump_cocycle(3).perturbation.bumps[1].direction,
}


class TestBumpFactors:
    EPS = np.finfo(float).eps
    G = np.concatenate([np.linspace(-2.0, 2.0, 4000), np.logspace(-15, 0, 200),
                        -np.logspace(-15, 0, 200)])

    @pytest.mark.parametrize("minus_identity", [False, True])
    @pytest.mark.parametrize("name", sorted(BUMP_DIRECTIONS))
    def test_same_as_complex_contraction(self, name, minus_identity):
        D = BUMP_DIRECTIONS[name]()
        new = cc._bump_factors(D, self.G, minus_identity)
        ref = einsum_bump_factors(D, self.G, minus_identity)
        scale = np.abs(ref).max(axis=(1, 2))
        assert np.all(np.abs(new - ref).max(axis=(1, 2)) <= 4 * self.EPS * scale)

    @pytest.mark.parametrize("name", sorted(BUMP_DIRECTIONS))
    def test_tiny_field_keeps_relative_precision(self, name):
        # nothing is subtracted: expm1(g D) at g = 1e-20 is g D, not 0
        D = BUMP_DIRECTIONS[name]()
        minus = cc._bump_factors(D, np.array([1e-20]), minus_identity=True)[0]
        assert np.abs(minus - 1e-20 * D).max() <= 4 * self.EPS * np.abs(1e-20 * D).max()


class TestHolonomyWork:
    def test_steps_read_per_call(self, monkeypatch):
        # each chunk reads n steps of both points, n the depth at which the
        # field differences fall below the tolerance: no series reads a
        # whole chunk past the chunk where it stops
        built = []
        path_matrices = cc.CocycleSpec.path_matrices

        def counting(self, symbols, start=0, stop=None):
            mats, logdet = path_matrices(self, symbols, start, stop)
            built.append(len(mats))
            return mats, logdet

        monkeypatch.setattr(cc.CocycleSpec, "path_matrices", counting)
        work = load_hoelder_workload()(2024)
        for A, _, _, stable, unstable, _ in work.members:
            n = math.ceil(math.log(1e-12) / math.log(A.base.theta**A.perturbation.nu))
            assert n == 78
            for holonomy_of, pairs in ((cc.stable_holonomy, stable), (cc.unstable_holonomy, unstable)):
                for x, y in pairs:
                    built.clear()
                    h = holonomy_of(A, x, y)
                    assert 0 < sum(built) <= 2 * -(-h.depth // n) * n


class TestPsiTransition:
    def test_window_one_product_identity(self):
        A = lc(FULL2, D2, SHEAR)
        p = sh.periodic_point(FULL2, "0")
        z, N = sh.homoclinic_point(FULL2, "0", "11")
        psi = cc.psi_transition(A, p, z, N)
        expected = np.linalg.inv(D2 @ D2) @ (SHEAR @ SHEAR)
        assert np.allclose(psi, expected, atol=1e-13)
        # p and z agree on every negative index: the unstable holonomy is trivial
        assert np.allclose(cc.unstable_holonomy(A, p, z).matrix, np.eye(2))

    def test_exit_time_independence(self):
        A = lc(FULL2, D2, POS)
        p = sh.periodic_point(FULL2, "0")
        z, N = sh.homoclinic_point(FULL2, "0", "11")
        psi_a = cc.psi_transition(A, p, z, N)
        psi_b = cc.psi_transition(A, p, z, N + 3)
        assert np.allclose(psi_a, psi_b, atol=1e-12)

    def test_misaligned_exit_rejected(self):
        gen = {"0": D2, "1": SHEAR}
        A = cc.CocycleSpec(GOLDEN, 1, gen)
        p = sh.periodic_point(GOLDEN, "01")
        z, N = sh.homoclinic_point(GOLDEN, "01", "0")
        with pytest.raises(ValueError, match="misaligned exit time"):
            cc.psi_transition(A, p, z, N)

    def test_window_two_matches_brute_force(self):
        gen = {"00": D2, "01": SHEAR, "10": POS}
        A = cc.CocycleSpec(GOLDEN, 2, gen)
        p = sh.periodic_point(GOLDEN, "0")
        z, N = sh.homoclinic_point(GOLDEN, "0", "10")
        psi = cc.psi_transition(A, p, z, N)
        n = 12
        phi_u = cc.evaluate(A, z.shift(-n), n) @ np.linalg.inv(
            cc.evaluate(A, p.shift(-n), n)
        )
        brute = np.linalg.solve(cc.evaluate(A, p, N), cc.evaluate(A, z, N)) @ phi_u
        assert np.allclose(psi, brute, atol=1e-11)

    def test_constant_cocycle_trivial(self):
        A = lc(FULL2, POS, POS)
        p = sh.periodic_point(FULL2, "0")
        z, N = sh.homoclinic_point(FULL2, "0", "1")
        psi = cc.psi_transition(A, p, z, N)
        assert np.allclose(psi, np.eye(2), atol=1e-12)

    def test_rotated_stretch_closed_form(self):
        g1 = rot(np.pi / 4) @ np.diag([3.0, 1.0 / 3.0])
        A = lc(FULL2, D2, g1)
        p = sh.periodic_point(FULL2, "0")
        z, N = sh.homoclinic_point(FULL2, "0", "1")
        psi = cc.psi_transition(A, p, z, N)
        expected = np.diag([0.5, 2.0]) @ g1
        assert np.allclose(psi, expected, atol=1e-13)


class TestPeriodicEigendata:
    def test_single_symbol(self):
        A = lc(FULL2, D2, POS)
        _, rec = cc.periodic_eigendata(A, sh.periodic_point(FULL2, "0"))
        assert np.allclose(rec.eigenvalues.real, [2.0, 0.5], atol=1e-13)

    def test_two_step_product(self):
        A = lc(FULL2, D2, np.diag([3.0, 1.0 / 3.0]))
        _, rec = cc.periodic_eigendata(A, sh.periodic_point(FULL2, "01"))
        assert np.allclose(rec.eigenvalues.real, [6.0, 1.0 / 6.0], atol=1e-12)

    def test_conformal_pair_moduli(self):
        A = lc(FULL2, 1.5 * rot(0.4), POS)
        _, rec = cc.periodic_eigendata(A, sh.periodic_point(FULL2, "0"))
        assert np.allclose(np.abs(rec.eigenvalues), 1.5, atol=1e-13)
        assert not rec.all_real()

    def test_base_point_independence(self):
        A = lc(FULL2, D2, POS)
        _, rec_p = cc.periodic_eigendata(A, sh.periodic_point(FULL2, "01"))
        _, rec_q = cc.periodic_eigendata(A, sh.periodic_point(FULL2, "10"))
        assert np.allclose(rec_p.eigenvalues, rec_q.eigenvalues, atol=1e-9)

    def test_non_periodic_rejected(self):
        A = lc(FULL2, D2, POS)
        z, _ = sh.homoclinic_point(FULL2, "0", "1")
        with pytest.raises(ValueError, match="periodic"):
            cc.periodic_eigendata(A, z)


class TestSimplicity:
    def test_pinching_and_twisting_pass(self):
        A = lc(FULL2, D2, POS)
        rep = cc.simplicity_check(A, "0", "1")
        assert rep.pinching and rep.twisting and rep.verdict

    def test_complex_return_spectrum_fails_pinching(self):
        A = lc(FULL2, 1.5 * rot(0.4), POS)
        rep = cc.simplicity_check(A, "0", "1")
        assert not rep.pinching and not rep.verdict

    def test_tiny_gap_fails_pinching(self):
        A = lc(FULL2, np.diag([2.0, 2.0 * (1 + 1e-11)]), POS)
        rep = cc.simplicity_check(A, "0", "1")
        assert not rep.pinching

    def test_diagonal_transition_fails_twisting(self):
        A = lc(FULL2, D2, np.diag([3.0, 1.0 / 3.0]))
        rep = cc.simplicity_check(A, "0", "1")
        assert rep.pinching and not rep.twisting and not rep.verdict
        assert ((1,), (1,)) in la.twisting_check(rep.psi)[1]

    def test_pinching_check_helper(self):
        A = lc(FULL2, D2, POS)
        p = sh.periodic_point(FULL2, "0")
        assert cc.pinching_check(A, p)
        B = lc(FULL2, 1.5 * rot(0.4), POS)
        assert not cc.pinching_check(B, p)

    def test_rotated_stretch_verdict_true(self):
        A = lc(FULL2, D2, rot(0.7) @ D2)
        rep = cc.simplicity_check(A, "0", "1")
        assert rep.pinching and rep.twisting and rep.verdict

    def test_verdict_invariant_under_conjugation(self):
        # conjugating every generator leaves the eigenbasis form of psi
        # unchanged up to diagonal rescaling, hence the same verdict
        C = np.array([[1.0, 0.3], [-0.2, 1.1]])
        Cinv = np.linalg.inv(C)
        A = lc(FULL2, D2, rot(0.7) @ D2)
        B = lc(FULL2, C @ D2 @ Cinv, C @ rot(0.7) @ D2 @ Cinv)
        ra = cc.simplicity_check(A, "0", "1")
        rb = cc.simplicity_check(B, "0", "1")
        assert ra.verdict and rb.verdict
        assert np.allclose(np.diag(rb.psi), np.diag(ra.psi), atol=1e-10)
        assert np.allclose(rb.psi * rb.psi.T, ra.psi * ra.psi.T, atol=1e-10)


class TestPerturbations:
    def test_cylinder_perturb_touches_one_word(self):
        A = lc(FULL2, D2, SHEAR)
        B = cc.cylinder_perturb(A, "1", rot(0.2))
        assert np.array_equal(B.generator[(0,)], D2)
        assert np.allclose(B.generator[(1,)], rot(0.2) @ SHEAR)

    def test_symplectic_constraint_enforced(self):
        A = lc(FULL2, D2, SHEAR)
        with pytest.raises(ValueError, match="symplectic"):
            cc.cylinder_perturb(A, "0", np.diag([2.0, 1.0]), constraint="symplectic")

    def test_rotation_family_conformal_slope(self):
        g0 = 1.2 * rot(0.9)
        A = lc(FULL2, g0, D2)
        fam = cc.rotation_perturb_family(A, "0", theta0=0.05)
        assert fam.support_word == (0,)
        for s in (0.5, 1.0, 2.0):
            M = cc.evaluate(fam.at(s), sh.periodic_point(FULL2, "0"), 1)
            lam = np.linalg.eigvals(M)
            arg = np.angle(lam[np.argmax(lam.imag)])
            assert arg == pytest.approx(0.9 + 0.05 * s, abs=1e-10)

    def test_rotation_family_orientation_negative_base(self):
        g0 = 1.2 * rot(-0.9)
        A = lc(FULL2, g0, D2)
        fam = cc.rotation_perturb_family(A, "0", theta0=0.05)
        M = cc.evaluate(fam.at(1.0), sh.periodic_point(FULL2, "0"), 1)
        lam = np.linalg.eigvals(M)
        arg = np.angle(lam[np.argmax(lam.imag)])
        assert arg == pytest.approx(0.9 + 0.05, abs=1e-10)

    def test_rotation_family_at_zero_is_base(self):
        A = lc(FULL2, 1.2 * rot(0.9), D2)
        fam = cc.rotation_perturb_family(A, "0", theta0=0.05)
        assert fam.at(0.0) is A

    def test_real_spectrum_rejected(self):
        A = lc(FULL2, D2, SHEAR)
        with pytest.raises(ValueError, match="real spectrum"):
            cc.rotation_perturb_family(A, "0", theta0=0.05)

    def test_pair_index_selects_slow_block(self):
        g = np.zeros((4, 4))
        g[:2, :2] = 2.0 * rot(0.3)
        g[2:, 2:] = 0.5 * rot(0.2)
        A = cc.CocycleSpec(FULL2, 1, {"0": g, "1": g})
        fam = cc.rotation_perturb_family(A, "0", theta0=0.05, pair_index=1)
        _, rec = cc.periodic_eigendata(fam.at(0.7), sh.periodic_point(FULL2, "0"))
        by_mod = {round(abs(ev), 6): np.angle(ev) for ev in rec.eigenvalues if ev.imag > 0}
        assert by_mod[2.0] == pytest.approx(0.3, abs=1e-10)
        assert by_mod[0.5] == pytest.approx(0.2 + 0.7 * 0.05, abs=1e-10)

    def test_pair_index_out_of_range(self):
        A = lc(FULL2, 1.2 * rot(0.9), D2)
        with pytest.raises(ValueError, match="pair_index"):
            cc.rotation_perturb_family(A, "0", theta0=0.05, pair_index=1)

    def test_symplectic_family_stays_symplectic(self):
        E = 1.3 * rot(0.4)
        F = np.linalg.inv(E).T
        M4 = np.block([[E, np.zeros((2, 2))], [np.zeros((2, 2)), F]])
        S1 = la.paired_rotation(0.3, 1, 2, 2)
        A = lc(FULL2, M4, S1)
        fam = cc.rotation_perturb_family(A, "0", theta0=0.02)
        assert fam.symplectic
        for s in (0.7, 1.5):
            As = fam.at(s)
            for G in As.generator.values():
                assert la.is_symplectic(G)
            M = cc.evaluate(As, sh.periodic_point(FULL2, "0"), 1)
            lam = np.linalg.eigvals(M)
            big = lam[np.abs(lam) > 1.0]
            arg = np.angle(big[np.argmax(big.imag)])
            assert arg == pytest.approx(0.4 + 0.02 * s, abs=1e-8)
