"""Shift space, symbolic points, and Markov/Gibbs measure tests."""
import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocyclelab.experiments as ex
import cocyclelab.experiments.config as cf
from cocyclelab import shifts as sh

FULL2 = sh.SftSpec.full_shift(2, theta=0.5)
GOLDEN = sh.SftSpec.golden_mean(theta=0.5)


class TestSpec:
    def test_full_shift_primitive(self):
        assert FULL2.is_primitive

    def test_golden_mean_words(self):
        assert GOLDEN.word_admissible("0101")
        assert not GOLDEN.word_admissible("0110")
        assert GOLDEN.word_admissible("10", cyclic=True)
        assert not GOLDEN.word_admissible("1", cyclic=True)

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError, match="empty row"):
            sh.SftSpec(2, np.array([[1, 1], [0, 0]]), 0.5)

    def test_admissible_word_counts_follow_transfer_matrix(self):
        # number of admissible n-words equals sum of entries of T^(n-1)
        T = GOLDEN.transitions
        for n in range(1, 8):
            expected = int(np.sum(np.linalg.matrix_power(T, n - 1)))
            assert len(GOLDEN.admissible_words(n)) == expected


THREE = sh.SftSpec(3, np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), 0.5)
WINDOW_SPECS = {"full2": FULL2, "golden": GOLDEN, "three": THREE}


class TestWindowTable:
    @pytest.mark.parametrize("name", sorted(WINDOW_SPECS))
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_against_brute_force(self, name, length):
        spec = WINDOW_SPECS[name]
        m = spec.alphabet_size
        words, lookup, successor = spec.window_table(length)
        brute = [w for w in itertools.product(range(m), repeat=length)
                 if all(spec.is_allowed(a, b) for a, b in zip(w, w[1:]))]
        assert list(words) == brute
        assert list(words) == sorted(words)
        for w in itertools.product(range(m), repeat=length):
            i = int(lookup[sh.window_code(w, m)])
            assert i == (words.index(w) if w in words else -1)
        assert successor.shape == (len(words), m)
        for i, w in enumerate(words):
            for b in range(m):
                if spec.is_allowed(w[-1], b):
                    assert words[successor[i, b]] == w[1:] + (b,)
                else:
                    assert successor[i, b] == -1

    def test_built_once_per_length(self):
        spec = sh.SftSpec.golden_mean(theta=0.4)
        assert "_window_tables" not in spec.__dict__
        assert spec.window_table(2) is spec.window_table(2)
        assert spec.window_table(1) is not spec.window_table(2)
        with pytest.raises(ValueError):
            spec.window_table(2)[2][0, 0] = 5

    def test_window_index(self):
        symbols = np.array([0, 1, 2, 2, 0, 0, 1])
        for length in (1, 2, 3):
            idx = THREE.window_index(symbols, length)
            words = THREE.window_table(length)[0]
            assert [words[i] for i in idx] == [
                tuple(symbols[t : t + length]) for t in range(len(symbols) - length + 1)]

    def test_window_index_along_last_axis(self):
        rows = np.array([[0, 1, 2, 2, 0], [2, 0, 0, 1, 1]])
        assert np.array_equal(THREE.window_index(rows, 2), [THREE.window_index(r, 2) for r in rows])
        with pytest.raises(ValueError, match=r"inadmissible window \(1, 0\)"):
            THREE.window_index(np.array([[0, 1, 2, 2, 0], [2, 0, 1, 0, 0]]), 2)

    def test_window_index_names_first_inadmissible_window(self):
        with pytest.raises(ValueError, match=r"point visits inadmissible window \(0, 1, 1\)"):
            GOLDEN.window_index(np.array([0, 0, 1, 1, 0, 1, 1]), 3)
        with pytest.raises(ValueError, match=r"inadmissible window \(1, 0\)"):
            THREE.window_index(np.array([0, 1, 1, 0, 2]), 2)


class TestSymbolicPoint:
    def test_periodic_point_symbols(self):
        x = sh.periodic_point(GOLDEN, "01")
        assert x.word_array(0, 6).tolist() == [0, 1, 0, 1, 0, 1]
        assert x.word_array(-3, 3).tolist() == [1, 0, 1]
        assert x.is_periodic and x.period == 2

    def test_periodic_point_primitive_reduction(self):
        assert sh.periodic_point(FULL2, "0101").period == 2

    def test_shift_moves_origin(self):
        x = sh.periodic_point(GOLDEN, "01")
        y = x.shift(1)
        assert y.word_array(0, 4).tolist() == [1, 0, 1, 0]
        assert x.shift(2) == x
        assert x.shift(-2) == x
        assert x.shift(1) != x

    def test_canonical_core_absorption(self):
        # core symbols matching the tails are absorbed on both sides
        z = sh.make_point("0", "001", "0")
        assert z.core == (1,)
        assert z.core_start == 2

    def test_homoclinic_point_layout(self):
        z, N = sh.homoclinic_point(FULL2, "01", "0011")
        assert N == 4
        assert z.word_array(0, 4).tolist() == [0, 0, 1, 1]
        assert z.word_array(-4, 4).tolist() == [0, 1, 0, 1]
        assert z.word_array(4, 4).tolist() == [0, 1, 0, 1]
        # past the exit the shifted point agrees with the periodic orbit
        p = sh.periodic_point(FULL2, "01")
        zN = z.shift(N)
        assert np.array_equal(zN.word_array(0, 40), p.word_array(0, 40))

    def test_homoclinic_exit_rounds_up(self):
        _, N = sh.homoclinic_point(GOLDEN, "0", "101")
        assert N == 3
        # a word that repeats a shorter one realigns after a partial copy
        _, N2 = sh.homoclinic_point(FULL2, "0101", "11")
        assert N2 == 4

    def test_homoclinic_rejects_misaligned_bridge(self):
        # the exit at time 2 lands out of phase: shift(z, 2) reads 1010...
        # where the periodic point reads 0101...
        with pytest.raises(ValueError, match="misaligned exit time"):
            sh.homoclinic_point(FULL2, "01", "0")

    def test_homoclinic_rejects_power_bridge(self):
        with pytest.raises(ValueError, match="power"):
            sh.homoclinic_point(FULL2, "01", "0101")

    def test_homoclinic_rejects_inadmissible_junction(self):
        with pytest.raises(ValueError):
            sh.homoclinic_point(GOLDEN, "1", "0")  # 1 not cyclically allowed
        with pytest.raises(ValueError):
            sh.homoclinic_point(GOLDEN, "0", "11")


class TestMetric:
    def test_examples(self):
        x = sh.periodic_point(FULL2, "0")
        y = sh.make_point("0", "1", "0")   # differs exactly at index 0
        assert sh.metric(x, y, FULL2) == 1.0
        z = sh.make_point("0", (0, 0, 0, 1), "0", core_start=-3)  # differs at +-3 only
        w = sh.make_point("0", (1, 0, 0, 0, 0, 0, 1), "0", core_start=-3)
        assert sh.metric(x, w, FULL2) == 0.5**3
        assert sh.metric(x, x, FULL2) == 0.0

    def test_symmetry_and_identity(self):
        pts = [
            sh.periodic_point(FULL2, "01"),
            sh.periodic_point(FULL2, "0"),
            sh.make_point("0", "11", "10"),
        ]
        for a in pts:
            for b in pts:
                assert sh.metric(a, b, FULL2) == sh.metric(b, a, FULL2)
                assert (sh.metric(a, b, FULL2) == 0.0) == (a == b)

    def test_shift_contracts_on_stable_sets(self):
        # points agreeing on i >= 0: one forward shift scales the distance by theta
        x = sh.periodic_point(FULL2, "0")
        y = sh.make_point("1", "", "0")
        d0 = sh.metric(x, y, FULL2)
        d1 = sh.metric(x.shift(1), y.shift(1), FULL2)
        assert d1 == pytest.approx(FULL2.theta * d0)

    @given(st.integers(min_value=0, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_triangle_like_ultrametric(self, k):
        x = sh.periodic_point(FULL2, "0")
        y = sh.make_point("0", (1,), "0", core_start=k)
        z = sh.make_point("0", (1, 1), "0", core_start=k)
        dxy = sh.metric(x, y, FULL2)
        dyz = sh.metric(y, z, FULL2)
        dxz = sh.metric(x, z, FULL2)
        assert dxz <= max(dxy, dyz) + 1e-15


class TestParry:
    def test_golden_mean_entropy(self):
        mu = sh.parry_measure(GOLDEN)
        golden = (1 + math.sqrt(5)) / 2
        P = mu.P
        entropy = -np.sum(mu.pi[:, None] * P * np.log(P, where=P > 0, out=np.zeros_like(P)))
        assert entropy == pytest.approx(math.log(golden), abs=1e-12)

    def test_full_shift_uniform(self):
        mu = sh.parry_measure(FULL2)
        assert np.allclose(mu.pi, [0.5, 0.5], atol=1e-12)
        assert np.allclose(mu.P, 0.5 * np.ones((2, 2)), atol=1e-12)

    def test_stationarity(self):
        mu = sh.parry_measure(GOLDEN)
        assert np.allclose(mu.pi @ mu.P, mu.pi, atol=1e-12)
        assert np.all(mu.P[GOLDEN.transitions == 0] == 0.0)

    @pytest.mark.parametrize("name", sorted(WINDOW_SPECS))
    def test_same_bits_as_perron_construction(self, name):
        # the Perron-data construction parry_measure used before it became
        # the zero-potential Gibbs state
        spec = WINDOW_SPECS[name]
        T = spec.transitions.astype(float)
        lam, r, l = sh._perron(T)
        P = T * r[None, :] / (lam * r[:, None])
        pi = l * r
        pi /= pi.sum()
        mu = sh.parry_measure(spec)
        assert np.array_equal(mu.P, P)
        assert np.array_equal(mu.pi, pi)


class TestMarkovMeasure:
    def test_negative_probabilities_rejected(self):
        # row-stochastic with pi @ P == pi and sum(pi) == 1, yet no measure
        P = np.array([[1.2, -0.2], [0.6, 0.4]])
        pi = np.array([1.5, -0.5])
        assert np.allclose(pi @ P, pi) and P.sum(axis=1) == pytest.approx(1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            sh.MarkovMeasure(FULL2, P, pi)


class TestGibbs:
    def test_bernoulli_weights(self):
        # phi(i, j) = log w_j on the full shift gives the Bernoulli measure
        w = np.array([1.0 / 3.0, 2.0 / 3.0])
        phi = np.log(w)[None, :].repeat(2, axis=0)
        mu = sh.gibbs_locally_constant(FULL2, phi)
        assert np.allclose(mu.pi, w, atol=1e-12)
        assert np.allclose(mu.P, w[None, :].repeat(2, axis=0), atol=1e-12)

    def test_zero_potential_is_parry(self):
        mu0 = sh.gibbs_locally_constant(GOLDEN, np.zeros((2, 2)))
        mu1 = sh.parry_measure(GOLDEN)
        assert np.allclose(mu0.P, mu1.P, atol=1e-12)

    def test_dict_potential(self):
        mu = sh.gibbs_locally_constant(FULL2, {"00": 0.3, (0, 1): -0.2})
        ref = sh.gibbs_locally_constant(FULL2, [[0.3, -0.2], [0.0, 0.0]])
        assert np.array_equal(mu.P, ref.P) and np.array_equal(mu.pi, ref.pi)


class TestCylinders:
    def test_markov_product_structure(self):
        # mu[uvw] * mu[v] == mu[uv] * mu[vw] for any admissible overlap
        mu = sh.parry_measure(GOLDEN)
        for u in GOLDEN.admissible_words(2):
            for v in GOLDEN.admissible_words(2):
                for w in GOLDEN.admissible_words(2):
                    uvw = u + v + w
                    if not GOLDEN.word_admissible(uvw):
                        continue
                    lhs = mu.cylinder(uvw) * mu.cylinder(v)
                    rhs = mu.cylinder(u + v) * mu.cylinder(v + w)
                    assert lhs == pytest.approx(rhs, abs=1e-14)

    def test_forbidden_cylinder_zero(self):
        mu = sh.parry_measure(GOLDEN)
        assert mu.cylinder("11") == 0.0

    def test_length_additivity(self):
        mu = sh.parry_measure(GOLDEN)
        for n in range(1, 6):
            total = sum(mu.cylinder(w) for w in GOLDEN.admissible_words(n))
            assert total == pytest.approx(1.0, abs=1e-12)


class TestSampling:
    def test_deterministic_given_seed(self):
        mu = sh.parry_measure(GOLDEN)
        a = mu.sample_orbit(2000, seed=7)
        b = mu.sample_orbit(2000, seed=7)
        assert np.array_equal(a, b)
        c = mu.sample_orbit(2000, seed=8)
        assert not np.array_equal(a, c)

    def test_paths_admissible(self):
        mu = sh.parry_measure(GOLDEN)
        path = mu.sample_orbit(5000, seed=3)
        pairs = set(zip(path[:-1], path[1:]))
        assert (1, 1) not in pairs

    def test_empirical_frequencies(self):
        # 1-cylinder frequencies within 3/sqrt(N), 2-cylinders within 5/sqrt(N)
        mu = sh.parry_measure(GOLDEN)
        N = 10**6
        path = mu.sample_orbit(N, seed=11)
        bound1 = 3.0 / math.sqrt(N)
        for s in range(2):
            freq = float(np.mean(path == s))
            assert abs(freq - mu.pi[s]) < bound1, f"symbol {s}"
        bound2 = 5.0 / math.sqrt(N)
        codes = path[:-1] * 2 + path[1:]
        for (a, b) in [(0, 0), (0, 1), (1, 0)]:
            freq = float(np.mean(codes == a * 2 + b))
            assert abs(freq - mu.cylinder((a, b))) < bound2, f"word {a}{b}"


# ---------------------------------------------------------------------------
# the coalescence sampler against the sequential loop it replaced
# ---------------------------------------------------------------------------

def loop_sample_orbit(mu, length, seed):
    """sample_orbit as one Python loop over the steps: from state s the
    next state is the first index of the cumulative row s above u[t]."""
    rng = np.random.default_rng(seed)
    u = rng.random(length)
    cum = np.cumsum(mu.P, axis=1)
    cum[:, -1] = 1.0
    cum_rows = [tuple(row) for row in cum]
    out = np.empty(length, dtype=np.int64)
    s = int(np.searchsorted(np.cumsum(mu.pi), u[0], side="right"))
    s = min(s, mu.spec.alphabet_size - 1)
    out[0] = s
    for t in range(1, length):
        row = cum_rows[s]
        ut = u[t]
        ns = 0
        while row[ns] <= ut:
            ns += 1
        s = ns
        out[t] = s
    return out


def shipped_measures():
    """Every measure of the shipped E1 and E4 configs, by name."""
    out = {}
    for name in ("e1", "e4"):
        cfg = cf.load_config(str(Path(ex.__file__).parent / "configs" / f"{name}.json"))
        spec = cf.build_base(cfg["base"])
        members = [] if name == "e4" else cfg["suite"] + [cfg["control"], cfg["informative"]]
        docs = [m for member in members for m in member["measures"]]
        if name == "e4":
            docs.append(cfg["measure"])
        for doc in docs:
            out[f"{name}-{doc.get('name', doc['kind'])}"] = cf.build_measure(spec, doc)
    return out


NEAR_PERMUTATION = sh.MarkovMeasure(
    FULL2, np.array([[0.001, 0.999], [0.999, 0.001]]), np.array([0.5, 0.5]))
SAMPLER_CASES = {
    **shipped_measures(),
    "golden-parry": sh.parry_measure(GOLDEN),
    "near-permutation": NEAR_PERMUTATION,
    "full3-gibbs": sh.gibbs_locally_constant(
        sh.SftSpec.full_shift(3), [[0.4, -0.2, 0.0], [-0.5, 0.1, 0.9], [0.3, 0.0, -0.6]]),
}


def longest_open_run(mu, length, seed):
    """Longest run of steps whose next state depends on the current one."""
    _, edges, _, fixed = mu._step_table
    u = np.random.default_rng(seed).random(length)
    open_steps = np.concatenate([[0], fixed[np.searchsorted(edges, u[1:], side="right")] < 0, [0]])
    edges_of_runs = np.flatnonzero(np.diff(open_steps))
    return int(np.max(np.diff(edges_of_runs)[::2], initial=0))


class TestCoalescenceSampler:
    @pytest.mark.parametrize("name", sorted(SAMPLER_CASES))
    def test_same_path_as_loop(self, name):
        mu = SAMPLER_CASES[name]
        for seed in (2024, 7):
            new = mu.sample_orbit(10**5, seed)
            assert new.dtype == np.int64
            assert np.array_equal(new, loop_sample_orbit(mu, 10**5, seed))

    def test_near_permutation_reaches_the_walk(self):
        # the passes resolve one step per run each; runs longer than the
        # cap are finished by the sequential walk
        assert longest_open_run(NEAR_PERMUTATION, 10**5, 2024) > 10 * sh._SAMPLER_PASSES

    @pytest.mark.parametrize("share", [0.0, 1.0])
    @pytest.mark.parametrize("name", ["e1-markov", "full3-gibbs", "near-permutation"])
    def test_same_path_at_any_pass_share(self, name, share, monkeypatch):
        # share 0 runs every pass, share 1 goes to the walk after the first
        monkeypatch.setattr(sh, "_SAMPLER_MIN_SHARE", share)
        mu = SAMPLER_CASES[name]
        assert np.array_equal(mu.sample_orbit(10**4, 11), loop_sample_orbit(mu, 10**4, 11))

    @pytest.mark.parametrize("name", sorted(SAMPLER_CASES))
    def test_short_orbits_same_path_as_loop(self, name):
        # 15 symbols: the orbit length of the rho_measure fallback
        mu = SAMPLER_CASES[name]
        for seed in range(50):
            assert np.array_equal(mu.sample_orbit(15, seed), loop_sample_orbit(mu, 15, seed))

    def test_length_one(self):
        mu = sh.parry_measure(GOLDEN)
        for seed in range(20):
            path = mu.sample_orbit(1, seed)
            assert path.shape == (1,)
            assert np.array_equal(path, loop_sample_orbit(mu, 1, seed))

    @pytest.mark.parametrize("length", [0, -3])
    def test_length_must_be_positive(self, length):
        with pytest.raises(ValueError, match=rf"^orbit length must be at least 1, got {length}$"):
            sh.parry_measure(GOLDEN).sample_orbit(length, seed=1)


# ---------------------------------------------------------------------------
# one symbol reader: word_array against the scalar definitions it replaced
# ---------------------------------------------------------------------------

def scalar_symbol_at(x, i):
    b = x.core_start
    if i < b:
        return x.left[(i - b) % len(x.left) - len(x.left)]
    if i < b + len(x.core):
        return x.core[i - b]
    return x.right[(i - b - len(x.core)) % len(x.right)]


def scalar_word_at(x, start, length):
    return tuple(scalar_symbol_at(x, start + j) for j in range(length))


def scalar_compare_bound(x, y):
    ext = max(abs(x.core_start) + len(x.core), abs(y.core_start) + len(y.core))
    lcm_r = math.lcm(len(x.right), len(y.right))
    lcm_l = math.lcm(len(x.left), len(y.left))
    return ext + 2 * max(lcm_r, lcm_l) + 4


def scalar_eq(x, y):
    bound = scalar_compare_bound(x, y)
    return all(scalar_symbol_at(x, i) == scalar_symbol_at(y, i) for i in range(-bound, bound + 1))


def scalar_check_point(spec, x):
    b = x.core_start
    lo = b - len(x.left) - 1
    hi = b + len(x.core) + len(x.right) + 1
    for i in range(lo, hi):
        a, c = scalar_symbol_at(x, i), scalar_symbol_at(x, i + 1)
        if not spec.is_allowed(a, c):
            raise ValueError(f"inadmissible transition {a}->{c} at {i}")
    return x


def scalar_metric(x, y, spec):
    if scalar_eq(x, y):
        return 0.0
    bound = scalar_compare_bound(x, y)
    for r in range(bound + 1):
        if (scalar_symbol_at(x, r) != scalar_symbol_at(y, r)
                or scalar_symbol_at(x, -r) != scalar_symbol_at(y, -r)):
            return spec.theta**r
    raise AssertionError("distinct points must differ within the comparison bound")


def scalar_agreement_index(x, y, sign):
    bound = scalar_compare_bound(x, y)
    if any(scalar_symbol_at(x, sign * i) != scalar_symbol_at(y, sign * i)
           for i in range(bound, 2 * bound + 1)):
        side = "forward" if sign > 0 else "backward"
        raise ValueError(f"points are not {side} asymptotic")
    i0 = bound
    while i0 > 0 and scalar_symbol_at(x, sign * (i0 - 1)) == scalar_symbol_at(y, sign * (i0 - 1)):
        i0 -= 1
    return i0


def scalar_make_point(left, core, right, core_start=0):
    left, core, right = sh.parse_word(left), sh.parse_word(core), sh.parse_word(right)
    left, right = sh._primitive(left), sh._primitive(right)
    while core and core[-1] == right[-1]:
        core = core[:-1]
        right = right[-1:] + right[:-1]
    while core and core[0] == left[0]:
        core = core[1:]
        left = left[1:] + left[:1]
        core_start += 1
    if not core:
        span = math.lcm(len(left), len(right))
        if all(left[(-1 - j) % len(left) - len(left)] == right[(-1 - j) % len(right)]
               for j in range(span)):
            p = len(right)
            rot = sh._primitive(tuple(right[(i - core_start) % p] for i in range(p)))
            return rot, (), rot, 0
    return left, core, right, core_start


def scalar_word_admissible(spec, word, cyclic=False):
    w = sh.parse_word(word)
    if any(not 0 <= s < spec.alphabet_size for s in w):
        return False
    pairs = zip(w, w[1:])
    if cyclic and len(w) >= 1:
        pairs = zip(w, w[1:] + w[:1])
    return all(spec.is_allowed(a, b) for a, b in pairs)


def outcome(f):
    try:
        return "returns", f()
    except ValueError as e:
        return "raises", str(e)


def layout(x):
    return x.left, x.core, x.right, x.core_start


def words(spec, lo, hi):
    return st.lists(st.integers(0, spec.alphabet_size - 1), min_size=lo, max_size=hi).map(tuple)


@st.composite
def point_pairs(draw):
    """(spec, x, y): x any eventually periodic point, negative and positive
    core offsets alike; y equals x with a few symbols of [lo, hi) redrawn
    and, independently, either tail beyond replaced, so the pair is
    asymptotic on both sides, one side or none."""
    spec = WINDOW_SPECS[draw(st.sampled_from(sorted(WINDOW_SPECS)))]
    x = sh.make_point(draw(words(spec, 1, 4)), draw(words(spec, 0, 5)),
                      draw(words(spec, 1, 4)), draw(st.integers(-8, 8)))
    lo = x.core_start - draw(st.integers(0, 4))
    hi = x.core_start + len(x.core) + draw(st.integers(0, 4))
    core = list(scalar_word_at(x, lo, hi - lo))
    if core:
        for i in draw(st.lists(st.integers(0, len(core) - 1), max_size=3)):
            core[i] = draw(st.integers(0, spec.alphabet_size - 1))
    left = scalar_word_at(x, lo - len(x.left), len(x.left))
    right = scalar_word_at(x, hi, len(x.right))
    if draw(st.booleans()):
        left = draw(words(spec, 1, 4))
    if draw(st.booleans()):
        right = draw(words(spec, 1, 4))
    return spec, x, sh.make_point(left, core, right, lo)


class TestOneSymbolReader:
    @given(point_pairs())
    @settings(max_examples=400, deadline=None)
    def test_same_as_scalar_reads(self, case):
        from cocyclelab.cocycles import _agreement_index

        spec, x, y = case
        for z in (x, y):
            assert z.word_array(-25, 51).tolist() == [
                scalar_symbol_at(z, i) for i in range(-25, 26)]
            assert z.word_array(-17, 40).tolist() == list(scalar_word_at(z, -17, 40))
            assert outcome(lambda: sh.check_point(spec, z) is z) == outcome(
                lambda: scalar_check_point(spec, z) is z)
        assert (x == y) is scalar_eq(x, y)
        assert (y == x) is scalar_eq(y, x)
        assert sh.metric(x, y, spec) == scalar_metric(x, y, spec)
        for sign in (1, -1):
            assert outcome(lambda: _agreement_index(x, y, sign)) == outcome(
                lambda: scalar_agreement_index(x, y, sign))

    def test_pairs_reach_every_branch(self):
        # the drawn pairs include equal points, points asymptotic on one side
        # only, and inadmissible points
        from cocyclelab.cocycles import _agreement_index

        x = sh.make_point("01", "2", "1", -3)
        assert outcome(lambda: sh.check_point(THREE, x)) == outcome(
            lambda: scalar_check_point(THREE, x))
        assert outcome(lambda: sh.check_point(THREE, x))[0] == "raises"
        y = sh.make_point("01", "22", "1", -3)    # differs from x at -2 only
        assert _agreement_index(x, y, -1) == scalar_agreement_index(x, y, -1) == 3
        assert _agreement_index(x, y, 1) == scalar_agreement_index(x, y, 1) == 0
        z = sh.make_point("0", "2", "1", -3)
        assert outcome(lambda: _agreement_index(x, z, -1)) == (
            "raises", "points are not backward asymptotic")
        assert _agreement_index(x, z, 1) == scalar_agreement_index(x, z, 1) == 0
        assert sh.metric(x, x.shift(2).shift(-2), THREE) == 0.0

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_make_point_same_as_scalar(self, data):
        spec = WINDOW_SPECS[data.draw(st.sampled_from(sorted(WINDOW_SPECS)))]
        args = (data.draw(words(spec, 1, 4)), data.draw(words(spec, 0, 3)),
                data.draw(words(spec, 1, 4)), data.draw(st.integers(-6, 6)))
        assert layout(sh.make_point(*args)) == scalar_make_point(*args)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_word_admissible_same_as_scalar(self, data):
        spec = WINDOW_SPECS[data.draw(st.sampled_from(sorted(WINDOW_SPECS)))]
        w = data.draw(st.lists(st.integers(-1, spec.alphabet_size), max_size=6))
        for cyclic in (False, True):
            assert spec.word_admissible(w, cyclic) is scalar_word_admissible(spec, w, cyclic)


class TestOneReaderGuard:
    """word_array is the only code that turns an index into a symbol."""

    SRC = Path(sh.__file__).parent

    def test_no_other_module_reads_single_symbols(self):
        for path in sorted(self.SRC.rglob("*.py")):
            if path == self.SRC / "shifts.py":
                continue
            reads = [node.attr for node in ast.walk(ast.parse(path.read_text()))
                     if isinstance(node, ast.Attribute) and node.attr in ("symbol_at", "word_at")]
            assert not reads, f"{path.relative_to(self.SRC)} calls {reads}"
