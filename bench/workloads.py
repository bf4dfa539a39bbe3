"""The benchmark's three workloads: inputs built at set-up, one timed pass,
and the correctness checks made on every pass.

Each workload is a closed loop: one caller runs its units one after another
through the public API of ``cocyclelab``.  Library functions are always
reached through their module (``runners.run_experiment``, never a name
imported into this file), so the tracer's rebinding sees every call.
"""
from __future__ import annotations

import hashlib
import math
import os
import tempfile

import numpy as np

import cocyclelab.cocycles as cc
import cocyclelab.lyapunov as ly
import cocyclelab.rotation as rt
import cocyclelab.shifts as sh
from cocyclelab.experiments import config as cfgmod
from cocyclelab.experiments import report, runners
from cocyclelab.suspension import SuspensionSystem

CONFIG_DIR = os.path.join(os.path.dirname(cfgmod.__file__), "configs")

# rho_measure fallback: at t = 12 the E5 stopping-time tree has about 8k
# nodes, so a 4000-path limit abandons the exact search half way and the
# sampled fallback runs; the abandoned half is the waste it should show
FALLBACK_T = 12.0
FALLBACK_PATH_LIMIT = 4000
# exact reference horizon, well inside the path limit
FALLBACK_REF_T = 6.0
# about eight standard errors of the 2000-path sample mean for the E5
# rotations at t = 12
FALLBACK_TOL = 2e-3

# Hoelder ensemble: one cocycle per (dimension, designed domination power)
HOELDER_DIMS = (2, 3)
HOELDER_POWERS = (3, 5, 7, 9)
HOELDER_THETA = 0.7
HOELDER_NU = 1.0
HOELDER_PAIRS = 2          # stable and unstable pairs per cocycle
HOELDER_QR_STEPS = 50_000
# designed log-margin of the domination ratio around the designed power
POWER_MARGIN = 0.08
# log(sup ||A|| sup ||A^-1||) of every member: inside one block-size bracket
# of lyapunov_qr, so each member's QR run does the same number of blocks
ENVELOPE_LOG = 2.8


class Tally:
    """Units attempted and failed in one pass, with the report digests."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []
        self.digests = {}

    def check(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(note)

    def fail(self, note):
        self.check(False, note)


def load_config(name):
    path = os.path.join(CONFIG_DIR, f"{name}.json")
    return cfgmod.validate_config(cfgmod.load_config(path), source=path)


def build_inputs(cfg):
    """Build every base, measure, cocycle and roof the config describes."""
    spec = cfgmod.build_base(cfg["base"])
    built = [spec]

    def walk(node):
        if isinstance(node, list):
            for v in node:
                walk(v)
            return
        if not isinstance(node, dict):
            return
        for key, v in node.items():
            if key == "cocycle" and "generators" in v:
                built.append(cfgmod.build_cocycle(spec, v))
            elif key in ("roof", "roof0", "roof1") and "values" in v:
                built.append(cfgmod.build_roof(spec, v))
            elif key == "measure" and "kind" in v:
                built.append(cfgmod.build_measure(spec, v))
            elif key == "measures":
                built.extend(cfgmod.build_measure(spec, m) for m in v)
            else:
                walk(v)
    walk(cfg)
    return built


def _write_digest(work, name, cfg, seed, result):
    out = tempfile.mkdtemp(prefix=f"{name}-", dir=work)
    h = hashlib.sha256()
    for path in sorted(report.write_report(out, name, cfg, seed, result)):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def record(tally, name, cfg, seed, result, work):
    """Count the verdicts, then write the report twice and compare digests."""
    for v in result["verdicts"]:
        tally.check(bool(v["passed"]), f"{name}: verdict {v['name']} failed")
    first = _write_digest(work, name, cfg, seed, result)
    second = _write_digest(work, name, cfg, seed, result)
    tally.check(first == second, f"{name}: two writes of one report differ")
    tally.digests[name] = first


def run_unit(tally, name, fn):
    """Run one unit; an exception counts as one failed unit."""
    try:
        fn()
    except Exception as e:  # the benchmark counts failures and keeps going
        tally.fail(f"{name}: {type(e).__name__}: {e}")


class Experiments:
    """Shipped experiment configs run as shipped, with the benchmark seed."""

    names = ()

    def __init__(self, seed):
        self.seed = seed
        self.configs = [(n.upper(), load_config(n)) for n in self.names]
        # built only as set-up work: run_experiment builds its own copies
        self.inputs = [build_inputs(cfg) for _, cfg in self.configs]

    def run(self, tally, work):
        for name, cfg in self.configs:
            def unit(name=name, cfg=cfg):
                result = runners.run_experiment(cfg, self.seed)
                record(tally, name, cfg, self.seed, result, work)
            run_unit(tally, name, unit)


class Spectra(Experiments):
    """E1 (nine 10^6-step QR jobs at d = 2, 3, 4) and E4 (two return-cocycle
    runs of 2*10^5 steps): the sample -> path matrices -> QR pipeline."""

    name = "spectra"
    names = ("e1", "e4")
    stages = (
        "shifts.sample_orbit", "shifts.measures", "cocycles.path_matrices",
        "cocycles.simplicity_check", "cocycles.evaluate",
        "lyapunov.qr_spectrum", "lyapunov.lyapunov_qr", "lyapunov.closed_form_oracle",
        "linalg.sorted_spectrum", "linalg.twisting_check",
        "suspension.return_cocycle", "suspension.lift_measure_integral",
        "suspension.time_change_scaling",
        "experiments.validate_config", "experiments.runner", "experiments.write_report",
    )


class Periodic(Experiments):
    """E2, E3 and E5 (periodic words, short orbits, no QR), plus one
    rho_measure call whose exact enumeration is abandoned for sampling."""

    name = "periodic"
    names = ("e2", "e3", "e5")
    stages = (
        "shifts.sample_orbit", "shifts.measures", "cocycles.simplicity_check",
        "cocycles.evaluate", "linalg.sorted_spectrum", "linalg.twisting_check",
        "linalg.moduli_separation_perturb",
        "rotation.lift_theta_family", "rotation.theta_ell_rho_check",
        "rotation.doubled_rotation_number", "rotation.rho_measure",
        "shadowing.exponential_shadowing_check", "shadowing.toral_close",
        "shadowing.period_difference_bound",
        "experiments.validate_config", "experiments.runner", "experiments.write_report",
    )

    def __init__(self, seed):
        super().__init__(seed)
        e5 = dict(self.configs)["E5"]
        spec = cfgmod.build_base(e5["base"])
        self.fallback = (
            cfgmod.build_cocycle(spec, e5["cocycle"]),
            SuspensionSystem(spec, cfgmod.build_roof(spec, e5["roof"])),
            cfgmod.build_measure(spec, e5["measure"]),
        )

    def run(self, tally, work):
        super().run(tally, work)
        run_unit(tally, "rho-fallback", lambda: self._fallback(tally, work))

    def _fallback(self, tally, work):
        A, sysm, mu = self.fallback
        ref = rt.rho_measure(A, sysm, mu, FALLBACK_REF_T, path_limit=FALLBACK_PATH_LIMIT)
        est = rt.rho_measure(A, sysm, mu, FALLBACK_T, path_limit=FALLBACK_PATH_LIMIT,
                             seed=self.seed)
        err = abs(est.value - ref.value)
        result = {
            "verdicts": [
                report.verdict("exact-reference", ref.exact,
                               "rho_measure: enumeration within the path limit is exact"),
                report.verdict("fallback-sampled", not est.exact,
                               "rho_measure: beyond the path limit the sampler runs"),
                report.verdict("fallback-bracket-ordered", est.lower <= est.upper,
                               "rho_measure: lower bound below upper bound"),
                report.verdict("fallback-matches-exact", err <= FALLBACK_TOL,
                               "rho_measure: sampled mean within Monte Carlo error of exact",
                               error=err, tol=FALLBACK_TOL),
            ],
            "tables": {"fallback": {
                "header": ["t", "exact", "lower", "upper", "value"],
                "rows": [[r.t, r.exact, r.lower, r.upper, r.value] for r in (ref, est)],
            }},
        }
        cfg = {"source": "e5", "t": FALLBACK_T, "reference_t": FALLBACK_REF_T,
               "path_limit": FALLBACK_PATH_LIMIT}
        record(tally, "rho-fallback", cfg, self.seed, result, work)


# ---------------------------------------------------------------------------
# Hoelder-bump ensemble
# ---------------------------------------------------------------------------

def _plane_rotation(d, angle):
    R = np.eye(d)
    c, s = math.cos(angle), math.sin(angle)
    R[:2, :2] = [[c, -s], [s, c]]
    return R


def _word(rng, n):
    return tuple(int(s) for s in rng.integers(0, 2, size=n))


def _bump_cocycle(rng, spec, d, power):
    """A two-symbol Hoelder-bump cocycle whose domination power is `power`.

    Generators are e^(+-sigma) S R(phi_i) S^-1: commuting, so an N-step
    product depends only on how many of its letters are 0, and
    domination_check's 2^N cylinder ratios take only N + 1 values.  The
    conditioning of S is set by bisection so that the ratio bound crosses 1
    at N = power with POWER_MARGIN to spare on both sides; draws that miss
    are redrawn.
    """
    amp = float(rng.uniform(0.004, 0.008))
    q = HOELDER_THETA**HOELDER_NU
    # log of env_factor * theta^nu per step, as domination_check bounds it
    step = 2.0 * amp * (1.0 + q) / (1.0 - q) + HOELDER_NU * math.log(HOELDER_THETA)
    for _ in range(100):
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        u = rng.uniform(-1.0, 1.0, size=d)
        u -= u.mean()
        u /= np.abs(u).max()
        phi = rng.uniform(0.3, 2.8, size=2)

        def excess(c, n):
            S = Q @ np.diag(np.exp(c * u))
            Si = np.linalg.inv(S)
            worst = max(
                np.linalg.cond(S @ _plane_rotation(d, k * phi[0] + (n - k) * phi[1]) @ Si, 2)
                for k in range(n + 1)
            )
            return math.log(worst) + n * step

        lo, hi = 0.0, 10.0
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if excess(mid, power) < -POWER_MARGIN else (lo, mid)
        below = [excess(lo, n) for n in range(1, power + 1)]
        if all(e > POWER_MARGIN for e in below[:-1]) and below[-1] < 0.0:
            break
    else:
        raise RuntimeError(f"no d={d} cocycle with domination power {power}")
    S = Q @ np.diag(np.exp(lo * u))
    Si = np.linalg.inv(S)
    bump = cc.HoelderBump(_word(rng, 2), amp)
    pert = cc.HoelderPerturbation(nu=HOELDER_NU, bumps=(bump,))
    rotations = [S @ _plane_rotation(d, a) @ Si for a in phi]

    def cocycle(sigma):
        gens = {"0": math.exp(sigma) * rotations[0], "1": math.exp(-sigma) * rotations[1]}
        return cc.CocycleSpec(spec, 1, gens, pert)

    # scales e^(+-sigma) cancel in every conditioning ratio, so they leave the
    # domination power alone; they set the norm envelope, from which
    # lyapunov_qr picks its block size, to the same value for every member
    lo_s, hi_s = 0.0, 5.0
    for _ in range(40):
        mid = 0.5 * (lo_s + hi_s)
        sup_a, sup_inv = cocycle(mid).norm_envelope()
        lo_s, hi_s = (mid, hi_s) if math.log(sup_a * sup_inv) < ENVELOPE_LOG else (lo_s, mid)
    A = cocycle(lo_s)
    gens = A.generator
    desc = {"d": d, "power": power, "amplitude": amp, "bump_word": list(bump.word),
            "generators": {"".join(map(str, w)): M.tolist() for w, M in gens.items()}}
    return A, desc


def _distinct_pair(rng, stable):
    """Two distinct points sharing a core and one tail: the right tail for a
    stable pair, the left tail for an unstable one."""
    core = _word(rng, 3)
    shared = _word(rng, int(rng.integers(1, 4)))
    while True:
        own = [_word(rng, int(rng.integers(1, 4))) for _ in range(2)]
        if stable:
            x, y = (sh.make_point(o, core, shared) for o in own)
        else:
            x, y = (sh.make_point(shared, core, o) for o in own)
        if x != y:
            return x, y


class Hoelder:
    """Hoelder-bump cocycles (d = 2, 3) generated from the seed: domination,
    holonomy constants and series, and one shorter QR run per cocycle."""

    name = "hoelder"
    stages = (
        "shifts.sample_orbit", "shifts.measures", "cocycles.path_matrices",
        "cocycles.domination_check", "cocycles.stable_holonomy",
        "cocycles.unstable_holonomy", "cocycles.holonomy_constants",
        "lyapunov.qr_spectrum", "lyapunov.lyapunov_qr", "experiments.write_report",
    )

    def __init__(self, seed):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.spec = sh.SftSpec.full_shift(2, theta=HOELDER_THETA)
        self.members = []
        for d in HOELDER_DIMS:
            for power in HOELDER_POWERS:
                A, desc = _bump_cocycle(rng, self.spec, d, power)
                p0 = float(rng.uniform(0.3, 0.7))
                desc["bernoulli"] = [p0, 1.0 - p0]
                mu = cfgmod.build_measure(self.spec, {"kind": "bernoulli", "p": desc["bernoulli"]})
                stable = [_distinct_pair(rng, True) for _ in range(HOELDER_PAIRS)]
                unstable = [_distinct_pair(rng, False) for _ in range(HOELDER_PAIRS)]
                self.members.append((A, mu, power, stable, unstable, desc))
        self.cfg = {"theta": HOELDER_THETA, "nu": HOELDER_NU, "qr_steps": HOELDER_QR_STEPS,
                    "members": [m[-1] for m in self.members]}

    def powers(self):
        return [m[2] for m in self.members]

    def run(self, tally, work):
        verdicts = []
        rows = []
        for i, member in enumerate(self.members):
            run_unit(tally, f"hoelder[{i}]",
                     lambda m=member, i=i: self._member(i, m, verdicts, rows))
        result = {"verdicts": verdicts, "tables": {"members": {
            "header": ["member", "d", "designed_power", "power", "margin", "c1", "rate",
                       "stable_depths", "unstable_depths", "exponents", "volume_residual"],
            "rows": rows,
        }}}
        record(tally, "hoelder", self.cfg, self.seed, result, work)

    def _member(self, i, member, verdicts, rows):
        A, mu, power, stable, unstable, _ = member
        d = A.dim
        dom = cc.domination_check(A)
        verdicts.append(report.verdict(
            f"m{i}-domination-power", dom.dominated and dom.power == power,
            "domination_check: power equals the commuting-generator closed form",
            power=dom.power, designed=power))
        c1, rate = cc.holonomy_constants(A)
        verdicts.append(report.verdict(
            f"m{i}-holonomy-constants", bool(rate < 1.0 and math.isfinite(c1)),
            "holonomy_constants: finite C1 and contracting rate under domination",
            c1=c1, rate=rate))
        s_depths, u_depths = [], []
        for k, (x, y) in enumerate(stable):
            h = cc.stable_holonomy(A, x, y)
            hs = cc.stable_holonomy(A, x.shift(1), y.shift(1))
            rhs = np.linalg.solve(A.value_at(y), hs.matrix @ A.value_at(x))
            verdicts.append(_equivariance(f"m{i}-stable{k}", h, hs, rhs))
            bound = c1 * sh.metric(x, y, self.spec) ** HOELDER_NU
            verdicts.append(report.verdict(
                f"m{i}-stable{k}-hoelder-bound",
                bool(np.linalg.norm(h.matrix - np.eye(d), 2) <= bound + 1e-10),
                "stable_holonomy: ||H - I|| <= C1 d(x, y)^nu", bound=bound))
            s_depths += [h.depth, hs.depth]
        for k, (x, y) in enumerate(unstable):
            h = cc.unstable_holonomy(A, x, y)
            hp = cc.unstable_holonomy(A, x.shift(-1), y.shift(-1))
            rhs = A.value_at(y.shift(-1)) @ hp.matrix @ np.linalg.inv(A.value_at(x.shift(-1)))
            verdicts.append(_equivariance(f"m{i}-unstable{k}", h, hp, rhs))
            u_depths += [h.depth, hp.depth]
        est = ly.lyapunov_qr(A, mu, HOELDER_QR_STEPS, self.seed)
        verdicts.append(report.verdict(
            f"m{i}-volume", est.volume_residual <= ly.VOLUME_TOL,
            "lyapunov_qr: exponent sum equals the mean log|det| along the path",
            residual=est.volume_residual))
        rows.append([i, d, power, dom.power, dom.margin, c1, rate, s_depths, u_depths,
                     est.exponents, est.volume_residual])


def _equivariance(name, h, h_shifted, rhs):
    """Holonomy equivariance up to the truncation the library reports."""
    slack = 1e-9 * max(1.0, float(np.abs(h.matrix).max())) \
        + 10.0 * (h.truncation_error + h_shifted.truncation_error)
    err = float(np.abs(h.matrix - rhs).max())
    return report.verdict(name + "-equivariance", err <= slack,
                          "holonomy equivariance: one shift conjugates H by the steps",
                          error=err, slack=slack)


WORKLOADS = {w.name: w for w in (Spectra, Periodic, Hoelder)}
