"""Acceptance gate: ten numbered criteria, one test (one pass/fail line) each.

Criteria 2, 4, 7, 8 and 9 are driven end to end through the shipped
experiment configs; the rest call the library directly.  Each test asserts
the stated tolerances and its wall-clock budget.
"""
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import cocyclelab.cocycles as cc
import cocyclelab.experiments.cli as cli
import cocyclelab.experiments.config as cf
import cocyclelab.linalg as la
import cocyclelab.lyapunov as ly
import cocyclelab.rotation as rt
import cocyclelab.shifts as sh
import cocyclelab.suspension as sp
from cocyclelab.experiments.parallel import pmap

CONFIG_DIR = Path(cli.__file__).parent / "configs"
EXPERIMENTS = ("e1", "e2", "e3", "e4", "e5")

# wall-clock budgets in seconds, per criterion
BUDGET = {1: 60, 2: 300, 3: 30, 4: 300, 5: 60, 6: 30, 7: 120, 8: 120, 9: 120}

FULL2 = sh.SftSpec.full_shift(2, theta=0.5)
FULL2_TIGHT = sh.SftSpec.full_shift(2, theta=0.1)


def rot(t):
    c, s = math.cos(t), math.sin(t)
    return np.array([[c, -s], [s, c]])


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    """Each shipped config run twice through the CLI into separate dirs."""
    runs = {}
    for name in EXPERIMENTS:
        cfg = str(CONFIG_DIR / f"{name}.json")
        a = tmp_path_factory.mktemp(f"{name}_a")
        b = tmp_path_factory.mktemp(f"{name}_b")
        t0 = time.monotonic()
        assert cli.main(["--config", cfg, "--out", str(a)]) == 0
        elapsed = time.monotonic() - t0
        assert cli.main(["--config", cfg, "--out", str(b)]) == 0
        runs[name] = (a, b, elapsed)
    return runs


def report_verdicts(out_dir, name):
    doc = json.loads((out_dir / f"{name}.json").read_text())
    return {v["name"]: v for v in doc["verdicts"]}


# -- 1: QR estimates against exact frequency integrals ----------------------

def _conjugated(C, diag):
    return C @ np.diag(diag) @ np.linalg.inv(C)


def test_criterion_01_oracle_agreement():
    t0 = time.monotonic()
    C2 = np.array([[1.0, 0.4], [-0.3, 1.2]])
    C3 = np.array([[1.0, 0.3, 0.0], [0.2, 1.1, -0.4], [-0.1, 0.2, 0.9]])
    C4 = np.eye(4) + 0.25 * np.arange(16).reshape(4, 4) / 16.0
    bern = {"kind": "bernoulli", "p": [0.3, 0.7]}
    mark = {"kind": "markov", "P": [[0.7, 0.3], [0.4, 0.6]]}
    gibb = {"kind": "gibbs",
            "phi": {"00": 0.2, "01": -0.1, "10": 0.1, "11": -0.2}}
    cases = [
        ((np.diag([2.0, 0.5]), np.diag([1.5, 0.4])), bern),
        ((_conjugated(C2, [2.0, 0.5]), _conjugated(C2, [3.0, 1 / 3.0])), mark),
        ((np.diag([1.8, 0.6]), np.diag([0.9, 1.6])), gibb),
        ((_conjugated(C2, [1.7, 0.7]), _conjugated(C2, [0.8, 1.9])), bern),
        ((np.diag([2.0, 1.0, 0.45]), np.diag([1.6, 0.9, 0.5])), bern),
        ((_conjugated(C3, [2.2, 1.1, 0.4]), _conjugated(C3, [1.5, 0.8, 0.6])), mark),
        ((np.diag([1.9, 1.2, 0.3]), np.diag([0.7, 1.4, 2.1])), gibb),
        ((np.diag([2.2, 1.4, 0.8, 0.3]), np.diag([1.7, 1.1, 0.9, 0.5])), bern),
        ((_conjugated(C4, [2.0, 1.3, 0.7, 0.4]),
          _conjugated(C4, [1.8, 1.2, 0.6, 0.35])), mark),
        ((np.diag([2.5, 1.5, 0.9, 0.4]), np.diag([0.6, 1.0, 1.8, 2.6])), gibb),
    ]
    assert len(cases) == 10

    def job(args):
        k, ((g0, g1), measure) = args
        A = cc.CocycleSpec(FULL2, 1, {"0": g0, "1": g1})
        mu = cf.build_measure(FULL2, measure)
        est = ly.lyapunov_qr(A, mu, 10**6, seed=100 + k)
        oracle = ly.closed_form_oracle(A, mu)
        return est, oracle

    for est, oracle in pmap(job, list(enumerate(cases))):
        tol = np.maximum(3.0 * est.stderr, 1e-3)
        assert np.all(np.abs(est.exponents - oracle) < tol)
    assert time.monotonic() - t0 < BUDGET[1]


# -- 2: simplicity verdicts against QR multiplicity clusters ----------------

def test_criterion_02_simplicity_mechanism(shipped):
    a, _, elapsed = shipped["e1"]
    v = report_verdicts(a, "e1")
    assert v["suite-simplicity-verdicts"]["passed"]
    assert v["simplicity-implies-trivial-multiplicities"]["passed"]
    assert v["control-degenerate-cluster"]["passed"]
    assert elapsed < BUDGET[2]


# -- 3: eigenvalue argument equals period times rotation number -------------

def test_criterion_03_theta_ell_rho_identity():
    t0 = time.monotonic()
    roof = sp.RoofFunction(FULL2, 1, {"0": 1.0, "1": 1.3})
    sysm = sp.SuspensionSystem(FULL2, roof)
    g0 = rot(0.8) @ np.diag([1.05, 0.95])
    g1 = rot(0.5) @ np.diag([1.02, 0.9])
    A = cc.CocycleSpec(FULL2, 1, {"0": g0, "1": g1})

    def primitive(w):
        n = len(w)
        return all(n % k or w != w[:k] * (n // k) for k in range(1, n))

    residuals = []
    for n in range(1, 8):
        for w in FULL2.admissible_words(n):
            if len(residuals) == 50:
                break
            if not primitive(w):
                continue
            rep = rt.theta_ell_rho_check(A, sysm, sh.periodic_point(FULL2, w), len(w))
            if not rep.skipped:
                residuals.append(rep.residual)
    assert len(residuals) == 50
    assert max(residuals) < 1e-8
    assert time.monotonic() - t0 < BUDGET[3]


# -- 4: rotation propagation and the separation pipeline --------------------

def test_criterion_04_rotation_propagation(shipped):
    a, _, elapsed = shipped["e2"]
    v = report_verdicts(a, "e2")
    assert v["commuting-d2-visit-count-prediction"]["passed"]
    assert v["commuting-d2-threshold-n"]["passed"]
    assert v["commuting-d2-pinching-after-separation"]["passed"]
    assert v["symplectic-d4-pinching-after-separation"]["passed"]
    assert v["symplectic-d4-simplicity-restored"]["passed"]
    assert elapsed < BUDGET[4]


# -- 5: holonomy composition, equivariance, and Hoelder bounds --------------

def _random_invertible(rng, d):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return q @ np.diag(np.exp(rng.uniform(-0.5, 0.5, size=d)))


def _word(rng, n):
    return tuple(int(s) for s in rng.integers(0, 2, size=n))


def test_criterion_05_holonomy_identities():
    t0 = time.monotonic()
    rng = np.random.default_rng(52)
    spec = FULL2_TIGHT
    pairs = 0

    for trial in range(200):
        d = int(rng.integers(2, 4))
        A = cc.CocycleSpec(spec, 1, {"0": _random_invertible(rng, d),
                                     "1": _random_invertible(rng, d)})
        right = _word(rng, int(rng.integers(1, 4)))
        m = int(rng.integers(1, 6))
        x, y, z = (sh.make_point(_word(rng, int(rng.integers(1, 4))),
                                 _word(rng, m), right) for _ in range(3))
        h_xy = cc.stable_holonomy(A, x, y).matrix
        h_yz = cc.stable_holonomy(A, y, z).matrix
        h_xz = cc.stable_holonomy(A, x, z).matrix
        assert np.allclose(h_yz @ h_xy, h_xz, atol=1e-10)
        shifted = cc.stable_holonomy(A, x.shift(1), y.shift(1)).matrix
        rhs = np.linalg.solve(A.value_at(y), shifted @ A.value_at(x))
        assert np.allclose(h_xy, rhs, atol=1e-10)
        # Hoelder bound on a local stable pair: same future, different past
        core, other = _word(rng, m), _word(rng, int(rng.integers(1, 4)))
        u = sh.make_point(_word(rng, int(rng.integers(1, 4))), core, right)
        v = sh.make_point(other, core, right)
        h_loc = cc.stable_holonomy(A, u, v).matrix
        c1, rate = cc.holonomy_constants(A)
        assert rate < 1.0
        dist = sh.metric(u, v, spec)
        assert np.linalg.norm(h_loc - np.eye(d), 2) <= c1 * dist + 1e-10
        pairs += 4

    for trial in range(134):
        d = int(rng.integers(2, 4))
        A = cc.CocycleSpec(spec, 1, {"0": _random_invertible(rng, d),
                                     "1": _random_invertible(rng, d)})
        left = _word(rng, int(rng.integers(1, 4)))
        m = int(rng.integers(1, 6))
        x, y, z = (sh.make_point(left, _word(rng, m),
                                 _word(rng, int(rng.integers(1, 4))))
                   for _ in range(3))
        h_xy = cc.unstable_holonomy(A, x, y).matrix
        h_yz = cc.unstable_holonomy(A, y, z).matrix
        h_xz = cc.unstable_holonomy(A, x, z).matrix
        assert np.allclose(h_yz @ h_xy, h_xz, atol=1e-10)
        prev = cc.unstable_holonomy(A, x.shift(-1), y.shift(-1)).matrix
        rhs = A.value_at(y.shift(-1)) @ prev @ np.linalg.inv(A.value_at(x.shift(-1)))
        assert np.allclose(h_xy, rhs, atol=1e-10)
        pairs += 3
    assert pairs >= 1000

    # Hoelder-class generators: identities up to the reported truncation
    for trial in range(50):
        gens = {"0": float(rng.uniform(0.8, 1.5)) * rot(float(rng.uniform(0, 6.28))),
                "1": float(rng.uniform(0.8, 1.5)) * rot(float(rng.uniform(0, 6.28)))}
        pert = cc.HoelderPerturbation(
            nu=1.0, bumps=(cc.HoelderBump((0, 1), float(rng.uniform(0.02, 0.1))),))
        A = cc.CocycleSpec(FULL2, 1, gens, pert)
        right = _word(rng, int(rng.integers(1, 4)))
        core = _word(rng, 3)
        x = sh.make_point(_word(rng, int(rng.integers(1, 4))), core, right)
        y = sh.make_point(_word(rng, int(rng.integers(1, 4))), core, right)
        res = cc.stable_holonomy(A, x, y, tol=1e-13)
        shifted = cc.stable_holonomy(A, x.shift(1), y.shift(1), tol=1e-13)
        rhs = np.linalg.solve(A.value_at(y), shifted.matrix @ A.value_at(x))
        slack = 1e-9 + 10.0 * (res.truncation_error + shifted.truncation_error)
        assert np.allclose(res.matrix, rhs, atol=slack)
        c1, rate = cc.holonomy_constants(A)
        assert rate < 1.0
        dist = sh.metric(x, y, FULL2)
        assert np.linalg.norm(res.matrix - np.eye(2), 2) <= c1 * dist + 1e-10
    assert time.monotonic() - t0 < BUDGET[5]


# -- 6: twisting witnesses and exterior power functoriality -----------------

def test_criterion_06_twisting_and_exterior_powers():
    t0 = time.monotonic()
    for n in (1, 2, 3):
        W = la.twisting_witness(n)
        assert la.is_symplectic(W)
        ok, failing = la.twisting_check(W[:n, :n], n)
        assert ok and not failing

    rng = np.random.default_rng(6)
    for trial in range(1000):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, d + 1))
        A = rng.normal(size=(d, d))
        B = rng.normal(size=(d, d))
        lhs = la.exterior_power(A @ B, k)
        rhs = la.exterior_power(A, k) @ la.exterior_power(B, k)
        scale = max(1.0, float(np.linalg.norm(lhs)))
        assert float(np.linalg.norm(lhs - rhs)) / scale < 1e-10
    assert time.monotonic() - t0 < BUDGET[6]


# -- 7: shadowing rates, toral closing, and period gaps ---------------------

def test_criterion_07_shadowing(shipped):
    a, _, elapsed = shipped["e3"]
    v = report_verdicts(a, "e3")
    rate = v["exponential-rate"]["detail"]
    assert rate["target_per_period"] == pytest.approx(math.log(2.0))
    assert rate["relative_error"] <= 0.1
    assert v["exponential-residual"]["detail"]["residual"] < 0.05
    toral = v["toral-shadowing-bound"]["detail"]
    assert toral["sup_distance"] <= toral["bound"]
    assert v["toral-uniqueness"]["passed"]
    gaps = v["period-gaps-bounded"]["detail"]
    assert gaps["sup_delta"] <= gaps["m2"]
    assert elapsed < BUDGET[7]


# -- 8: suspension integrals and time-change invariance ---------------------

def test_criterion_08_suspension_scaling(shipped):
    a, _, elapsed = shipped["e4"]
    v = report_verdicts(a, "e4")
    unit = v["integral-unit"]["detail"]
    assert unit["expected"] == 1.0 and unit["error"] <= 1e-12
    height = v["integral-height"]["detail"]
    assert height["expected"] == pytest.approx(5.0 / 6.0, abs=1e-15)
    assert height["error"] <= 1e-12
    tc = v["time-change-invariance"]
    assert tc["passed"]
    diff = np.asarray(tc["detail"]["difference"])
    budget = np.asarray(tc["detail"]["budget"])
    assert np.all(diff <= budget)
    assert elapsed < BUDGET[8]


# -- 9: rotation number continuity ladders ----------------------------------

def test_criterion_09_continuity_ladders(shipped):
    a, _, elapsed = shipped["e5"]
    v = report_verdicts(a, "e5")
    for ladder in ("cocycle", "measure", "family"):
        mono = v[f"{ladder}-ladder-monotone"]
        assert mono["passed"]
        dists = mono["detail"]["distances"]
        assert all(dists[k + 1] <= dists[k] + 1e-12 for k in range(len(dists) - 1))
        width = v[f"{ladder}-small-perturbation-width"]["detail"]
        assert width["width"] <= 10.0 * width["base_width"]
    assert elapsed < BUDGET[9]


# -- 10: byte-identical reports under fixed seed ----------------------------

def test_criterion_10_reproducibility(shipped):
    for name in EXPERIMENTS:
        a, b, _ = shipped[name]
        files_a = sorted(p.name for p in a.iterdir())
        files_b = sorted(p.name for p in b.iterdir())
        assert files_a == files_b and files_a
        for fname in files_a:
            assert (a / fname).read_bytes() == (b / fname).read_bytes()
