"""Five reproducible experiment drivers over the library.

E1  spectrum simplicity suites vs Lyapunov multiplicity clusters
E2  rotation-number propagation: drive a complex pair to a real collision,
    separate the moduli, recover pinching (and simplicity, symplectic case)
E3  exponential and toral shadowing with quantitative verdicts
E4  suspension integrals and time-change invariance of flow exponents
E5  continuity of measure-averaged rotation numbers along dyadic ladders

Every runner returns {"verdicts": [...], "tables": {name: {header, rows}}};
verdict entries name the library invariant they instantiate.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .. import linalg as la
from ..cocycles import (
    cylinder_perturb,
    evaluate,
    pinching_check,
    rotation_perturb_family,
    simplicity_check,
)
from ..lyapunov import closed_form_oracle, lyapunov_qr
from ..rotation import (
    lift_theta_family,
    rho_measure,
    theta_ell_rho_check,
    tracked_raw_angle,
)
from ..shadowing import (
    ToralAutomorphism,
    exponential_shadowing_check,
    homoclinic_family,
    jittered_orbit,
    period_difference_bound,
    toral_close,
)
from ..shifts import parse_word, periodic_point
from ..suspension import (
    FlowCocycle,
    HeightPolynomial,
    RoofFunction,
    SuspensionSystem,
    lift_measure_integral,
    return_cocycle,
    roof_integral,
    time_change_scaling,
)
from . import config as cfgmod
from .parallel import pmap
from .report import verdict

TWO_PI = 2.0 * math.pi

COMMUTING_TOL = 1e-6
THETA_ELL_RHO_TOL = 1e-6
COLLISION_TOL = 1e-8
INTEGRAL_TOL_DEFAULT = 1e-12
MONOTONE_SLACK = 1e-12


def _measure_label(mc: dict, k: int) -> str:
    return mc["name"] if "name" in mc else f"{mc['kind']}{k}"


# ---------------------------------------------------------------------------
# E1: simplicity suites vs multiplicity clusters
# ---------------------------------------------------------------------------

def run_e1(cfg: dict, seed: int) -> dict:
    spec = cfgmod.build_base(cfg["base"])
    n_steps = int(cfg["n_steps"])
    members = [dict(m, role="suite") for m in cfg["suite"]]
    members.append(dict(cfg["control"], role="control"))
    members.append(dict(cfg["informative"], role="informative"))

    jobs = []
    for m in members:
        A = cfgmod.build_cocycle(spec, m["cocycle"])
        rep = simplicity_check(A, m["p_word"], m["bridge"])
        for k, mc in enumerate(m["measures"]):
            jobs.append((m, A, rep, mc, _measure_label(mc, k)))

    def run_job(job):
        _, A, _, mc, _ = job
        mu = cfgmod.build_measure(spec, mc)
        est = lyapunov_qr(A, mu, n_steps, seed)
        try:
            oracle = closed_form_oracle(A, mu)
            oracle_err = float(np.max(np.abs(est.exponents - oracle)))
        except (ValueError, ArithmeticError):
            oracle, oracle_err = None, math.nan
        return est, oracle, oracle_err

    results = pmap(run_job, jobs)

    rows = []
    by_role = {"suite": [], "control": [], "informative": []}
    gap_runs = []
    for (m, A, rep, mc, label), (est, oracle, oracle_err) in zip(jobs, results):
        rows.append([
            m["name"], m["role"], label, A.dim,
            rep.pinching, rep.twisting, rep.verdict,
            est.multiplicities, est.exponents, est.stderr,
            [] if oracle is None else oracle,
            oracle_err,
        ])
        by_role[m["role"]].append((m["name"], rep, est, oracle))
        if m["name"] == cfg["gap_member"]:
            gap_runs.append(est)

    verdicts = []
    suite_entries = by_role["suite"]
    verdicts.append(verdict(
        "suite-simplicity-verdicts",
        all(rep.verdict for _, rep, _, _ in suite_entries),
        "simplicity_check: pinching and twisting along the configured bridge",
        members={name: rep.verdict for name, rep, _, _ in suite_entries},
    ))
    implied = [
        (name, [int(v) for v in est.multiplicities])
        for name, rep, est, _ in suite_entries
        if rep.verdict
    ]
    verdicts.append(verdict(
        "simplicity-implies-trivial-multiplicities",
        all(all(v == 1 for v in mult) for _, mult in implied),
        "multiplicity_cluster: gap_tol 10/sqrt(N) clustering of qr exponents",
        clusters=dict(implied),
    ))
    ctrl = by_role["control"]
    ctrl_ok = bool(ctrl) and all(max(est.multiplicities) >= 2 for _, _, est, _ in ctrl)
    ctrl_oracle_ok = all(
        oracle is None or float(np.min(np.abs(np.diff(oracle)))) < 1e-10
        for _, _, _, oracle in ctrl
    )
    verdicts.append(verdict(
        "control-degenerate-cluster",
        ctrl_ok and ctrl_oracle_ok,
        "closed_form_oracle: duplicated blocks give exactly repeated exponents",
        clusters={name: [int(v) for v in est.multiplicities] for name, _, est, _ in ctrl},
    ))
    info = by_role["informative"]
    verdicts.append(verdict(
        "informative-one-way",
        all(
            (not rep.verdict) and all(v == 1 for v in est.multiplicities)
            for _, rep, est, _ in info
        ),
        "simplicity_check is sufficient, not necessary, for a simple spectrum",
        members={name: rep.verdict for name, rep, _, _ in info},
    ))
    gaps = [
        float(est.exponents[0] - est.exponents[1]) / max(float(np.max(est.stderr)), 1e-300)
        for est in gap_runs
    ]
    verdicts.append(verdict(
        "gap-dominates-stderr",
        bool(gaps) and all(g > 10.0 for g in gaps),
        "lyapunov_qr stderr: batch spread bounds the sampling error",
        member=cfg["gap_member"], gap_over_stderr=gaps,
    ))
    oracle_errs = {}
    oracle_ok = True
    for (m, _, _, _, label), (est, oracle, err) in zip(jobs, results):
        if oracle is None:
            continue
        oracle_errs[f"{m['name']}/{label}"] = err
        if err >= max(3.0 * float(np.max(est.stderr)), 1e-3):
            oracle_ok = False
    verdicts.append(verdict(
        "closed-form-agreement",
        oracle_ok,
        "closed_form_oracle: exact frequency integrals match the qr estimate",
        errors=oracle_errs,
    ))

    header = ["member", "role", "measure", "dim", "pinching", "twisting",
              "simplicity", "multiplicities", "exponents", "stderr",
              "oracle", "oracle_err"]
    return {"verdicts": verdicts, "tables": {"spectra": {"header": header, "rows": rows}}}


# ---------------------------------------------------------------------------
# E2: rotation propagation to a real collision, then moduli separation
# ---------------------------------------------------------------------------

def _unique_visit_rotation(q, ell: int, window: int):
    """Rotate the cyclic word of the periodic point q (ell steps) so a
    uniquely visited cylinder word sits last."""
    symbols = q.word_array(0, ell + window - 1)
    windows = sliding_window_view(symbols, window)
    words, first, counts = np.unique(windows, axis=0, return_index=True, return_counts=True)
    once = np.flatnonzero(counts == 1)
    if not once.size:
        raise ValueError("word visits every cylinder more than once")
    k = int(first[once[0]])
    w = tuple(symbols[:ell].tolist())
    return w[k + 1:] + w[:k + 1], tuple(words[once[0]].tolist())


def _count_visits(q, ell: int, support: tuple) -> int:
    windows = sliding_window_view(q.word_array(0, ell + len(support) - 1), len(support))
    return windows.tolist().count(list(support))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _locate_collision(at, q, ell: int, lift, scan_points: int, tol: float):
    """Parameter s where the tracked pair turns real with positive eigenvalues.

    A fine scan walks the tracked pair by modulus continuity and returns the
    first grid point inside a real-positive window.  Families whose pair only
    touches the real axis have no such window; there the continuous argument
    lift brackets a full-turn multiple, where the unsigned block argument is
    a V-shaped function of s, and a golden-section search drives it to zero.
    """
    prev_mod = None
    for s in np.linspace(0.0, 1.0, scan_points):
        try:
            ang, mod, is_real, _ = tracked_raw_angle(at(float(s)), q, ell, prev_mod)
        except ValueError:
            prev_mod = None
            continue
        prev_mod = mod
        if is_real and ang == 0.0:
            return float(s), "interior"
    th = lift.theta_values
    sv = lift.s_values
    for i in range(len(sv) - 1):
        lo, hi = sorted((float(th[i]), float(th[i + 1])))
        if math.ceil(lo / TWO_PI) * TWO_PI > hi:
            continue
        anchor_mod = tracked_raw_angle(at(float(sv[i])), q, ell, None)[1]

        def raw(s):
            ang, _, _, _ = tracked_raw_angle(at(s), q, ell, anchor_mod)
            return ang

        a, b = float(sv[i]), float(sv[i + 1])
        c = b - _GOLDEN * (b - a)
        d = a + _GOLDEN * (b - a)
        rc, rd = raw(c), raw(d)
        for _ in range(200):
            s_best, r_best = (c, rc) if rc <= rd else (d, rd)
            if r_best < tol:
                return s_best, "golden"
            if rc <= rd:
                b, d, rd = d, c, rc
                c = b - _GOLDEN * (b - a)
                rc = raw(c)
            else:
                a, c, rc = c, d, rd
                d = a + _GOLDEN * (b - a)
                rd = raw(d)
        raise ArithmeticError("collision search did not converge")
    raise ValueError("no full-turn crossing inside the parameter range")


def _grid_residuals(at, sysm, q, ell: int, s_grid):
    worst = 0.0
    skipped = 0
    for s in s_grid:
        try:
            rep = theta_ell_rho_check(at(float(s)), sysm, q, ell)
        except ValueError:
            # fully real spectrum at this grid point: no block to compare
            skipped += 1
            continue
        if rep.skipped:
            skipped += 1
        else:
            worst = max(worst, rep.residual)
    return worst, skipped


def run_e2(cfg: dict, seed: int) -> dict:
    spec = cfgmod.build_base(cfg["base"])
    roof = cfgmod.build_roof(spec, cfg["roof"])
    sysm = SuspensionSystem(spec, roof)

    verdicts = []
    lift_rows = []
    pipe_rows = []
    for suite in cfg["suites"]:
        name = suite["name"]
        kind = suite["kind"]
        A = cfgmod.build_cocycle(spec, suite["cocycle"])
        p = parse_word(suite["p_word"])
        b = parse_word(suite["bridge"])
        theta0 = float(suite["theta0"])
        fam = rotation_perturb_family(A, suite["p_word"], theta0)
        # one build per parameter value: the residual grid and the scan
        # reuse the lift grid's members
        at = functools.cache(fam.at)
        s_grid = np.linspace(0.0, 1.0, int(suite["s_points"]))
        # two short lead-in steps pin the branch slope before the first
        # possible fold of the unsigned argument
        s_lift = np.unique(np.concatenate([[0.0, 1e-3, 2e-3], s_grid]))
        n_grid = sorted(int(n) for n in suite["n_grid"])

        lifted = []
        for w in homoclinic_family(spec, p, b, n_grid):
            # one periodic point per word, read by every step below
            q = periodic_point(spec, w)
            lift = lift_theta_family(at, sysm, q, len(w), s_lift)
            visits = _count_visits(q, len(w), fam.support_word)
            lifted.append((w, q, lift, visits, *_grid_residuals(at, sysm, q, len(w), s_grid)))
        deltas = {}
        predictions = {}
        residual_worst = 0.0
        for n, (w, _, lift, visits, res, skipped) in zip(n_grid, lifted):
            delta = abs(lift.total_change)
            pred = visits * theta0
            deltas[n] = delta
            predictions[n] = pred
            residual_worst = max(residual_worst, res)
            lift_rows.append([
                name, n, len(w), visits, delta, pred,
                delta > TWO_PI, res, skipped,
            ])

        verdicts.append(verdict(
            f"{name}-theta-ell-rho-at-grid",
            residual_worst < THETA_ELL_RHO_TOL,
            "theta_ell_rho_check: block argument equals period times rotation number",
            worst_residual=residual_worst,
        ))

        n_star_measured = next((n for n in n_grid if deltas[n] > TWO_PI), None)
        n_star_pred = next((n for n in n_grid if predictions[n] > TWO_PI), None)
        if kind == "commuting":
            verdicts.append(verdict(
                f"{name}-visit-count-prediction",
                all(abs(deltas[n] - predictions[n]) < COMMUTING_TOL for n in n_grid),
                "lift_theta_family: commuting insertions add exactly visits times theta0",
                deltas=deltas, predictions=predictions,
            ))
            slope = (deltas[n_grid[-1]] - deltas[n_grid[0]]) / (n_grid[-1] - n_grid[0])
            slope_pred = (predictions[n_grid[-1]] - predictions[n_grid[0]]) / (
                n_grid[-1] - n_grid[0]
            )
            verdicts.append(verdict(
                f"{name}-affine-slope",
                abs(slope - slope_pred) < COMMUTING_TOL,
                "lift_theta_family: total change is affine in the copy count",
                slope=slope, predicted=slope_pred,
            ))
            verdicts.append(verdict(
                f"{name}-threshold-n",
                n_star_measured is not None and n_star_measured == n_star_pred,
                "lift_theta_family: full-turn threshold at the predicted copy count",
                measured=n_star_measured, predicted=n_star_pred,
            ))
        else:
            verdicts.append(verdict(
                f"{name}-full-turn-reached",
                n_star_measured is not None,
                "lift_theta_family: the argument lift sweeps beyond one full turn",
                measured=n_star_measured, deltas=deltas,
            ))

        if n_star_measured is None:
            pipe_rows.append([name, -1, math.nan, "none", False, False, math.nan])
            verdicts.append(verdict(
                f"{name}-pinching-after-separation", False,
                "moduli_separation_perturb then pinching_check on the return word",
            ))
            continue

        n_star = n_star_measured
        w_star, q_star, lift_star, _, _, _ = lifted[n_grid.index(n_star)]
        s_star, how = _locate_collision(
            at, q_star, len(w_star), lift_star,
            int(suite.get("scan_points", 129)),
            float(suite.get("collision_tol", COLLISION_TOL)),
        )
        A_star = at(s_star)
        w_rot, cyl = _unique_visit_rotation(q_star, len(w_star), A.window)
        q_rot = periodic_point(spec, w_rot)
        M_rot = evaluate(A_star, q_rot, len(w_rot))
        constraint = "symplectic" if kind == "symplectic" else "none"
        M_sep = la.moduli_separation_perturb(
            M_rot, float(suite["pinching_eps"]), constraint=constraint,
            realify_tol=float(suite.get("realify_tol", la.REALIFY_TOL)),
        )
        G = M_sep @ np.linalg.inv(M_rot)
        A_fin = cylinder_perturb(
            A_star, cyl, G, constraint=None if constraint == "none" else constraint
        )
        pinched = pinching_check(A_fin, q_rot)
        verdicts.append(verdict(
            f"{name}-pinching-after-separation",
            pinched,
            "moduli_separation_perturb: real spectrum with pairwise distinct moduli",
            n=n_star, s=s_star, method=how,
        ))
        simple = None
        min_psi = math.nan
        if kind == "symplectic":
            fill = parse_word(suite.get("final_bridge_fill", suite["bridge"]))
            bridge_fin = fill * (len(w_rot) // len(fill))
            rep = simplicity_check(A_fin, w_rot, bridge_fin)
            simple = rep.verdict
            if rep.psi is not None:
                min_psi = float(np.min(np.abs(rep.psi)))
            verdicts.append(verdict(
                f"{name}-simplicity-restored",
                bool(simple),
                "simplicity_check: pinching plus twisting after the separation step",
                n=n_star, s=s_star, min_psi=min_psi,
            ))
        pipe_rows.append([
            name, n_star, s_star, how, pinched,
            "" if simple is None else simple, min_psi,
        ])

    lift_header = ["suite", "n", "word_len", "visits", "delta", "prediction",
                   "full_turn", "max_residual", "skipped_grid_points"]
    pipe_header = ["suite", "n_star", "s_star", "method", "pinching",
                   "simplicity", "min_psi"]
    return {
        "verdicts": verdicts,
        "tables": {
            "lifts": {"header": lift_header, "rows": lift_rows},
            "pipeline": {"header": pipe_header, "rows": pipe_rows},
        },
    }


# ---------------------------------------------------------------------------
# E3: shadowing verdicts
# ---------------------------------------------------------------------------

def run_e3(cfg: dict, seed: int) -> dict:
    spec = cfgmod.build_base(cfg["base"])
    verdicts = []
    tables = {}

    f = cfg["fit"]
    fit = exponential_shadowing_check(spec, f["p_word"], f["bridge"], f["n_values"])
    rel = abs(fit.eta_per_period - fit.target_per_period) / fit.target_per_period
    verdicts.append(verdict(
        "exponential-rate",
        rel <= float(f["eta_rel_tol"]),
        "exponential_shadowing_check: decay rate matches the metric contraction",
        eta_per_period=fit.eta_per_period,
        target_per_period=fit.target_per_period,
        relative_error=rel,
    ))
    verdicts.append(verdict(
        "exponential-residual",
        fit.residual < float(f["residual_tol"]),
        "exponential_shadowing_check: one (c, eta) fits the whole family",
        residual=fit.residual, c=fit.c,
    ))
    tables["fit_profile"] = {
        "header": ["n", "offset", "distance"],
        "rows": [list(r) for r in fit.profile_rows()],
    }

    t = cfg["toral"]
    T = ToralAutomorphism(np.asarray(t["matrix"]))
    po = jittered_orbit(T, t["x0"], int(t["length"]), float(t["amplitude"]),
                        seed=int(t["seeds"][0]))
    res = toral_close(T, po)
    verdicts.append(verdict(
        "toral-shadowing-bound",
        res.sup_distance <= res.bound,
        "toral_close: the rational shadow stays within L times epsilon",
        sup_distance=res.sup_distance, bound=res.bound, epsilon=res.epsilon,
    ))
    po2 = jittered_orbit(T, t["x0"], int(t["length"]), float(t["amplitude"]) / 2.0,
                         seed=int(t["seeds"][1]))
    res2 = toral_close(T, po2)
    verdicts.append(verdict(
        "toral-uniqueness",
        res2.numerators == res.numerators and res2.denominator == res.denominator,
        "toral_close: the shadow is the unique nearby periodic point",
        point=list(res.numerators), denominator=res.denominator,
    ))
    tables["toral"] = {
        "header": ["seed", "epsilon", "sup_distance", "bound", "numerators",
                   "denominator"],
        "rows": [
            [int(t["seeds"][0]), res.epsilon, res.sup_distance, res.bound,
             res.numerators, res.denominator],
            [int(t["seeds"][1]), res2.epsilon, res2.sup_distance, res2.bound,
             res2.numerators, res2.denominator],
        ],
    }

    pb = cfg["period_bound"]
    roof0 = cfgmod.build_roof(spec, pb["roof0"])
    roof1 = cfgmod.build_roof(spec, pb["roof1"])
    n_values = list(range(1, int(pb["n_max"]) + 1))
    per = period_difference_bound(roof0, roof1, pb["p_word"], pb["bridge"], n_values)
    verdicts.append(verdict(
        "period-gaps-bounded",
        per.sup_delta <= per.m2,
        "period_difference_bound: return-time gaps stay below the geometric tail",
        sup_delta=per.sup_delta, m2=per.m2,
    ))
    tables["period_gaps"] = {
        "header": ["n", "delta"],
        "rows": [[n, float(d)] for n, d in zip(per.n_values, per.deltas)],
    }
    return {"verdicts": verdicts, "tables": tables}


# ---------------------------------------------------------------------------
# E4: suspension integrals and time-change invariance
# ---------------------------------------------------------------------------

def run_e4(cfg: dict, seed: int) -> dict:
    spec = cfgmod.build_base(cfg["base"])
    mu = cfgmod.build_measure(spec, cfg["measure"])
    roof = cfgmod.build_roof(spec, cfg["roof"])
    sysm = SuspensionSystem(spec, roof)
    tol = float(cfg["identity_tol"])

    verdicts = []
    int_rows = []
    for item in cfg["integrals"]:
        F = HeightPolynomial(
            int(item.get("poly_window", 1)),
            {w: tuple(c) for w, c in item["poly"].items()},
        )
        val = lift_measure_integral(sysm, mu, F)
        err = abs(val - float(item["expected"]))
        verdicts.append(verdict(
            f"integral-{item['name']}",
            err <= tol,
            "lift_measure_integral: cylinder-exact fiberwise integration",
            value=val, expected=float(item["expected"]), error=err,
        ))
        int_rows.append([item["name"], val, float(item["expected"]), err])

    sc = cfg["scaling"]
    per_unit = {w: np.asarray(m, dtype=float) for w, m in sc["per_unit"].items()}
    window = max(len(parse_word(w)) for w in sc["per_unit"])
    factor = float(sc["factor"])
    n_steps = int(sc["n_steps"])
    seeds = [int(s) for s in sc["seeds"]]

    def flow_exponents(c: float, run_seed: int):
        roof_c = RoofFunction(spec, roof.window,
                              {w: c * v for w, v in roof.values.items()})
        sys_c = SuspensionSystem(spec, roof_c)
        A_c = return_cocycle(FlowCocycle(sys_c, window, per_unit))
        est = lyapunov_qr(A_c, mu, n_steps, run_seed)
        mean_roof = roof_integral(mu, roof_c)
        flow = time_change_scaling(est.exponents, mu, roof_c)
        return flow, est.stderr / mean_roof, est

    (flow1, se1, est1), (flow2, se2, est2) = pmap(
        lambda args: flow_exponents(*args),
        [(1.0, seeds[0]), (factor, seeds[1])],
    )
    diff = np.abs(flow1 - flow2)
    budget = 3.0 * np.sqrt(se1**2 + se2**2)
    verdicts.append(verdict(
        "time-change-invariance",
        bool(np.all(diff <= budget)),
        "time_change_scaling: flow exponents are invariant under roof rescaling",
        flow_unit=flow1, flow_scaled=flow2, factor=factor,
        difference=diff, budget=budget,
    ))
    sc_rows = [
        [1.0, seeds[0], flow1, se1, est1.exponents],
        [factor, seeds[1], flow2, se2, est2.exponents],
    ]
    return {
        "verdicts": verdicts,
        "tables": {
            "integrals": {
                "header": ["name", "value", "expected", "error"],
                "rows": int_rows,
            },
            "scaling": {
                "header": ["roof_factor", "seed", "flow_exponents", "flow_stderr",
                           "discrete_exponents"],
                "rows": sc_rows,
            },
        },
    }


# ---------------------------------------------------------------------------
# E5: continuity ladders for measure-averaged rotation numbers
# ---------------------------------------------------------------------------

def _rot2(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, s], [-s, c]])


def run_e5(cfg: dict, seed: int) -> dict:
    spec = cfgmod.build_base(cfg["base"])
    roof = cfgmod.build_roof(spec, cfg["roof"])
    sysm = SuspensionSystem(spec, roof)
    mu0 = cfgmod.build_measure(spec, cfg["measure"])
    A = cfgmod.build_cocycle(spec, cfg["cocycle"])
    t = float(cfg["t"])
    base = rho_measure(A, sysm, mu0, t)

    lad = cfg["ladders"]
    P0 = np.asarray(lad["measure"]["P0"], dtype=float)
    P1 = np.asarray(lad["measure"]["P1"], dtype=float)
    fam = rotation_perturb_family(A, lad["family"]["p_word"],
                                  float(lad["family"]["theta0"]))

    def at_eps(ladder: str, eps: float):
        if ladder == "cocycle":
            A_eps = cylinder_perturb(A, lad["cocycle"]["word"], _rot2(eps))
            return rho_measure(A_eps, sysm, mu0, t)
        if ladder == "measure":
            mu_eps = cfgmod.markov_from_P(spec, P0 + eps * (P1 - P0))
            return rho_measure(A, sysm, mu_eps, t)
        return rho_measure(fam.at(eps), sysm, mu0, t)

    verdicts = []
    rows = []
    for ladder in ("cocycle", "measure", "family"):
        eps0 = float(lad[ladder]["eps0"])
        rungs = int(lad[ladder].get("rungs", 8))
        eps_values = [eps0 * 2.0**-k for k in range(rungs)]
        ests = [at_eps(ladder, e) for e in eps_values]
        dists = [
            max(abs(e.upper - base.upper), abs(e.lower - base.lower)) for e in ests
        ]
        for eps, est, dist in zip(eps_values, ests, dists):
            rows.append([ladder, eps, est.lower, est.upper, est.width, dist,
                         est.exact])
        monotone = all(
            dists[k + 1] <= dists[k] + MONOTONE_SLACK for k in range(len(dists) - 1)
        )
        verdicts.append(verdict(
            f"{ladder}-ladder-monotone",
            monotone and dists[-1] <= dists[0],
            "rho_measure: brackets converge to the unperturbed bracket",
            distances=dists,
        ))
        tail = at_eps(ladder, float(cfg["compare_eps"]))
        verdicts.append(verdict(
            f"{ladder}-small-perturbation-width",
            tail.width <= float(cfg["width_factor"]) * max(base.width, 1e-300),
            "rho_measure: bracket width is stable under small perturbations",
            width=tail.width, base_width=base.width,
        ))

    rows.insert(0, ["base", 0.0, base.lower, base.upper, base.width, 0.0,
                    base.exact])
    return {
        "verdicts": verdicts,
        "tables": {
            "ladders": {
                "header": ["ladder", "eps", "lower", "upper", "width",
                           "distance_to_base", "exact"],
                "rows": rows,
            },
        },
    }


RUNNERS = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
}

DESCRIPTIONS = {
    "E1": "simplicity suites vs Lyapunov multiplicity clusters",
    "E2": "rotation propagation to a real collision, separation, pinching",
    "E3": "exponential and toral shadowing verdicts",
    "E4": "suspension integrals and time-change invariance",
    "E5": "rotation-number continuity along dyadic perturbation ladders",
}


def run_experiment(cfg: dict, seed: int) -> dict:
    return RUNNERS[cfg["experiment"]](cfg, seed)
