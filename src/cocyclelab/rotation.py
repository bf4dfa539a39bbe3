"""Rotation numbers of projectivized 2x2 blocks over suspension flows.

Circle maps come from matrices acting on lines through the origin,
parametrized by the doubled line-angle so the projective circle has full
length 2*pi.  Lifts are pinned through the polar decomposition: the
rotation factor contributes its doubled angle and the positive definite
factor moves directions by strictly less than a quarter turn, which fixes
the branch.  All user-facing rotation numbers are reported in the halved
(line-angle) convention per unit flow time, so they compare directly with
eigenvalue arguments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cocycles import CocycleSpec, evaluate
from .shifts import SymbolicPoint
from .suspension import SuspensionSystem
from . import linalg as la

TWO_PI = 2.0 * math.pi
RHO_TOL = 1e-10
MAX_LIFT_ITER = 10_000
_RENORM_SPREAD = 0.2
_RENORM_SCAN = 512
_MAX_RENORM_DEPTH = 60
# s-step halvings lift_theta_family may make to resolve one branch
_MAX_LIFT_DEPTH = 40
_REAL_DISC_TOL = 1e-12
_EPS = float(np.finfo(float).eps)
_BLOCK_GAP_TOL = 1e-6
# orbits the sampled fallback walks at once, which bounds its memory
_SAMPLE_CHUNK = 256


def _polar_angle(a: float, b: float, c: float, d: float) -> float:
    """Rotation angle beta of the polar form [[a, b], [c, d]] = R(beta) P."""
    return math.atan2(c - b, a + d)


def _polar2(M: np.ndarray):
    """Rotation angle beta and SPD factor P of the polar form M = R(beta) P.

    Closed form for 2x2 matrices with positive determinant.
    """
    a, b, c, d = M.ravel().tolist()
    c1, c2 = a + d, c - b
    n = math.hypot(c1, c2)
    R = np.array([[c1, -c2], [c2, c1]]) / n
    P = R.T @ M
    P = 0.5 * (P + P.T)
    return _polar_angle(a, b, c, d), P


def _spread(a: float, b: float, c: float, d: float) -> float:
    """Half-spread of the doubled displacement of the circle map of
    [[a, b], [c, d]] around its polar rotation angle: the maximal line-angle
    tilt of the SPD factor, doubled.  Exact for Moebius maps.  The squares
    are summed in row order, which is np.sum's order on four entries."""
    f2 = (a * a + b * b + c * c + d * d) / (a * d - b * c)
    s2 = 0.5 * (f2 + math.sqrt(max(f2 * f2 - 4.0, 0.0)))
    return 2.0 * math.asin(min((s2 - 1.0) / (s2 + 1.0), 1.0))


@dataclass(frozen=True)
class CircleMap:
    """Orientation-preserving Moebius circle map in the doubled-angle chart."""

    beta: float            # rotation half of the polar form
    spd: np.ndarray        # positive definite half

    def lift(self, phi):
        """Canonical continuous lift; commutes with phi -> phi + 2*pi.

        A scalar phi runs on Python floats except for two numpy calls, whose
        bits Python floats do not reproduce: the product with the SPD factor
        (BLAS, with fused multiply-adds) and np.arctan2 (math.atan2 rounds
        differently).  An array phi runs on arrays; its stacked product goes
        through gemm and can differ from the scalar lift in the last bits."""
        if isinstance(phi, (int, float)) or np.ndim(phi) == 0:
            phi = float(phi)
            c, s = math.cos(phi / 2.0), math.sin(phi / 2.0)
            u0, u1 = (np.array([c, s]) @ self.spd.T).tolist()
            delta = float(np.arctan2(c * u1 - s * u0, c * u0 + s * u1))
            return phi + 2.0 * self.beta + 2.0 * delta
        a = np.asarray(phi, dtype=float) / 2.0
        v = np.stack([np.cos(a), np.sin(a)], axis=-1)
        u = v @ self.spd.T
        delta = np.arctan2(
            v[..., 0] * u[..., 1] - v[..., 1] * u[..., 0],
            v[..., 0] * u[..., 0] + v[..., 1] * u[..., 1],
        )
        return np.asarray(phi, dtype=float) + 2.0 * self.beta + 2.0 * delta


def projectivize_block(M) -> CircleMap:
    """Projective action of a 2x2 matrix on the doubled line-angle circle."""
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2):
        raise ValueError("projective circle maps need 2x2 matrices")
    if np.linalg.det(M) <= 0.0:
        raise ValueError("orientation-reversing block: determinant must be positive")
    beta, P = _polar2(M)
    return CircleMap(beta=beta, spd=P)


def _fractional_map(M: np.ndarray, u: float) -> np.ndarray:
    """Continuous interpolation M^u through the polar form: rotation angle
    scales linearly, the SPD factor is raised to the power u, 0 < u <= 1."""
    if u == 1.0:
        return np.asarray(M, dtype=float)
    beta, P = _polar2(M)
    w, V = np.linalg.eigh(P)
    Pu = (V * w**u) @ V.T
    b = beta * u
    R = np.array([[math.cos(b), -math.sin(b)], [math.sin(b), math.cos(b)]])
    return R @ Pu


def _normalize_det(M: np.ndarray) -> np.ndarray:
    a, b, c, d = M.ravel().tolist()
    det = a * d - b * c
    if det <= 0.0:
        raise ValueError("orientation-reversing block: determinant must be positive")
    return M / math.sqrt(det)


def doubled_rotation_number(M, tol: float = RHO_TOL) -> float:
    """Poincare rotation number, in [0, 2*pi), of the circle map of M.

    Iterates the canonical lift; at each step the polar data of the
    accumulated power gives a rigorous displacement bracket, and after a
    bounded scan the computation renormalizes onto the closest return seen,
    dividing the remaining error by the iterate count.  Matrices with real
    spectrum have circle fixed points and return 0 exactly, as do those
    whose discriminant lies inside the rounding floor of the normalized
    determinant, about 4 eps times the squared Frobenius norm.  The requested
    tolerance is honoured down to the conditioning floor of double
    precision, roughly eps times the squared condition number of the
    conjugacy that makes M a rotation.

    Each step reads the accumulated power once and does its scalar work on
    Python floats: the lift's cos, sin, cross and dot terms, the polar
    angle, the spread and the branch rounding.  Three operations stay in
    numpy, because Python floats do not reproduce their bits: the 2x2
    product of the powers and the lift's product with the SPD factor (BLAS
    with fused multiply-adds) and the lift's np.arctan2.  The results equal
    an all-numpy loop over 0-d and 2x2 arrays bit for bit.
    """
    M = _normalize_det(np.asarray(M, dtype=float))
    rho = _doubled_rho(M, tol, 0)
    return float(np.mod(rho, TWO_PI))


def _doubled_rho(M: np.ndarray, tol: float, depth: int) -> float:
    tr = M[0, 0] + M[1, 1]
    # rounding the determinant of a det-normalized matrix moves 4 - tr^2 by
    # up to about 2 eps times its squared Frobenius norm; a discriminant
    # inside that floor cannot tell a complex pair from a real one, and the
    # powers of such a near-parabolic matrix grow until their determinant
    # rounds to zero
    disc_floor = max(_REAL_DISC_TOL, 4.0 * _EPS * float(np.sum(M * M)))
    if tr * tr >= 4.0 - disc_floor:
        return 0.0
    f = projectivize_block(M)
    w = 0.0
    Mk = np.eye(2)
    best_center, best_width = None, math.inf
    # closest return seen so far, as (spread, k, j, beta, power); recursing on
    # any k >= 2 power divides the remaining error by k, so once the scan
    # budget runs out the best candidate is worth taking even if its spread
    # never dipped below the fast-path threshold
    candidate = None
    renorm = depth < _MAX_RENORM_DEPTH
    for k in range(1, MAX_LIFT_ITER + 1):
        w = f.lift(w)
        Mk = _normalize_det(Mk @ M)
        entries = Mk.ravel().tolist()
        beta = _polar_angle(*entries)
        half = _spread(*entries)
        j = round((w - 2.0 * beta) / TWO_PI)
        center = (TWO_PI * j + 2.0 * beta) / k
        if half / k < best_width:
            best_center, best_width = center, half / k
        if best_width <= tol:
            return best_center
        if k >= 2 and (candidate is None or half < candidate[0]):
            candidate = (half, k, j, beta, Mk)
        if renorm and candidate is not None and (
            candidate[0] < _RENORM_SPREAD or k >= _RENORM_SCAN
        ):
            half_r, k_r, j_r, beta_r, M_r = candidate
            # the child's tolerance must stay inside the branch margin so the
            # rounding below pins the correct lift of the child's value
            child_tol = min(tol * k_r, 0.5, 0.25 * (math.pi - half_r))
            child = _doubled_rho(M_r, child_tol, depth + 1)
            child += TWO_PI * round((2.0 * beta_r - child) / TWO_PI)
            return (TWO_PI * j_r + child) / k_r
    raise ArithmeticError("rotation number not resolved within the renormalization depth")


@dataclass(frozen=True)
class CircleCocycle:
    """Projectivized 2x2 block along a periodic orbit of a suspension flow:
    one circle map and one return time per step of the word."""

    roofs: tuple
    maps: tuple              # 2x2 matrices, one per step, det > 0

    def __post_init__(self):
        if len(self.roofs) != len(self.maps):
            raise ValueError("roofs and maps must have equal length")
        mats = tuple(np.asarray(M, dtype=float) for M in self.maps)
        for M in mats:
            if M.shape != (2, 2) or np.linalg.det(M) <= 0.0:
                raise ValueError("orientation-reversing block: determinant must be positive")
        roofs = tuple(float(r) for r in self.roofs)
        # a zero or negative roof would stall the roof-timed stopping walk
        if not all(0.0 < r < math.inf for r in roofs):
            raise ValueError(f"roofs must be positive and finite, got {roofs}")
        object.__setattr__(self, "maps", mats)
        object.__setattr__(self, "roofs", roofs)

    @property
    def period(self) -> float:
        """Total flow time over one traversal of the word."""
        return math.fsum(self.roofs)

    def composite(self) -> np.ndarray:
        out = np.eye(2)
        for M in self.maps:
            out = M @ out
        return out


def circle_cocycle(A: CocycleSpec, sys: SuspensionSystem, p: SymbolicPoint,
                   ell: int) -> CircleCocycle:
    """Projectivize a matrix cocycle along ell steps from the periodic point
    p of a word (ell its length, also when the word is not primitive).

    The step matrices come from one path_matrices call over the word
    (A.point_steps) and the roofs from one read of its windows.  In
    dimension two the step matrices act directly.  In higher dimension the
    return matrix is folded from those steps, and the invariant 2D block of
    its first complex pair (largest modulus, then least |arg|) among the
    clusters of la._eigenspaces is transported with orthonormal frames; the
    per-step maps are the triangular factors, and the closing frame
    rotation is folded into the last step so the composite equals the
    restriction of the return matrix.
    """
    steps = A.point_steps(p, 0, ell)
    rw = sys.roof.window
    symbols = p.word_array(0, ell + rw - 1).tolist()
    roofs = tuple(sys.roof.values[tuple(symbols[k : k + rw])] for k in range(ell))
    if A.dim == 2:
        return CircleCocycle(roofs, tuple(steps))
    M = np.eye(A.dim)
    for S in steps:
        M = S @ M
    pairs = [sp for sp in la._eigenspaces(M) if np.iscomplexobj(sp[0])]
    if not pairs:
        raise ValueError("return matrix has real spectrum: no complex pair to track")
    V = min(pairs, key=lambda sp: (-abs(sp[0]), abs(np.angle(sp[0]))))[1]
    Q, _ = np.linalg.qr(V[:, :2])
    frames = [Q]
    factors = []
    for k in range(ell):
        Qn, R = np.linalg.qr(steps[k] @ frames[-1])
        sign = np.sign(np.diag(R))
        sign[sign == 0] = 1.0
        factors.append(sign[:, None] * R)
        frames.append(Qn * sign[None, :])
    U, _, Vt = np.linalg.svd(frames[0].T @ frames[-1])
    O = U @ Vt
    if np.linalg.det(O) <= 0.0:
        raise ArithmeticError("tracked block returned with reversed orientation")
    factors[-1] = O @ factors[-1]
    return CircleCocycle(roofs, tuple(factors))


class _Level(NamedTuple):
    """One level of a stopping-time forest: each node's parent in the level
    above (index 0, the start state, for roots), window word, whether its
    step reaches the horizon, and the power u of its step: 1, or for a node
    that reaches the horizon u = (t - acc) / r, acc being the flow time
    before the step and r its roof."""

    parent: np.ndarray
    word: np.ndarray
    done: np.ndarray
    u: np.ndarray


def _stopping_levels(words, children, roofs, t: float, limit: float = math.inf):
    """Levels of the stopping-time forest with roots words, or None once it
    has more than limit nodes.

    Only words, flow times and roofs are read, no matrix.  A node of flow
    time acc is a leaf once acc + roofs[word] >= t; the children of the
    others come from children(origin, word, depth), origin being each
    node's root index, as (rows, words) with rows indexing the nodes
    passed, in nondecreasing order."""
    parent = np.zeros(len(words), dtype=np.int64)
    origin = np.arange(len(words))
    acc = np.zeros(len(words))
    levels, count = [], 0
    while len(words):
        count += len(words)
        if count > limit:
            return None
        r = roofs[words]
        done = acc + r >= t
        levels.append(_Level(parent, words, done, np.where(done, (t - acc) / r, 1.0)))
        live = np.flatnonzero(~done)
        rows, words = children(origin[live], words[live], len(levels))
        parent = live[rows]
        origin = origin[parent]
        acc = (acc + r)[parent]
    return levels


def _advance(W, C, mats, word, u):
    """Move every path one step, in place: path i by the map of
    mats[word[i]]^u[i] (u = 1 the whole step, 0 < u < 1 the fractional map;
    a stopping time t > 0 gives no u = 0).  W holds the lifted images of
    angle 0, C the det-normalised composites; each distinct (matrix, u) is
    projectivized once for all of its paths."""
    us, u_code = np.unique(u, return_inverse=True)
    codes, group = np.unique(u_code * len(mats) + word, return_inverse=True)
    for g, code in enumerate(codes.tolist()):
        ug = float(us[code // len(mats)])
        M = _fractional_map(mats[code % len(mats)], ug)
        idx = np.flatnonzero(group == g)
        W[idx] = projectivize_block(M).lift(W[idx])
        C[idx] = _normalize_det(M) @ C[idx]


def _extremes(W, C):
    """Exact (sigma, tau) of each walked displacement: polar center plus or
    minus the spread, branch pinned by the lifted image of angle 0.  Each
    displacement goes through the scalar _polar_angle and _spread."""
    rows = C.reshape(-1, 4).tolist()
    beta = np.array([_polar_angle(*row) for row in rows])
    half = np.array([_spread(*row) for row in rows])
    center = TWO_PI * np.round((W - 2.0 * beta) / TWO_PI) + 2.0 * beta
    return center + half, center - half


def _walk(levels, mats):
    """(sigma, tau) of every leaf of a stopping-time forest, level by
    level.  One _advance per level moves all of its nodes on from their
    parents' states."""
    W, C = np.zeros(1), np.eye(2)[None]
    his, los = [], []
    for lv in levels:
        W, C = W[lv.parent], C[lv.parent]
        _advance(W, C, mats, lv.word, lv.u)
        hi, lo = _extremes(W[lv.done], C[lv.done])
        his.append(hi)
        los.append(lo)
    return np.concatenate(his), np.concatenate(los)


def _preorder(levels):
    """Permutation taking the leaves, listed level by level, into pre-order
    (roots and siblings in level order).  It counts the leaves below every
    node bottom-up, then gives each node its first position top-down: its
    parent's plus the leaves below its earlier siblings."""
    below = [lv.done.astype(np.int64) for lv in levels]
    for k in range(len(levels) - 1, 0, -1):
        np.add.at(below[k - 1], levels[k].parent, below[k])
    first = np.zeros(1, dtype=np.int64)
    positions = []
    for lv, n in zip(levels, below):
        before = np.cumsum(n) - n
        first = first[lv.parent] + before - before[np.searchsorted(lv.parent, lv.parent)]
        positions.append(first[lv.done])
    return np.argsort(np.concatenate(positions))


def rho_periodic(C: CircleCocycle) -> float:
    """Rotation number of the periodic-orbit return map, halved to the
    line-angle convention and divided by the flow period."""
    return doubled_rotation_number(C.composite()) / 2.0 / C.period


def eigen_argument(M) -> float:
    """|arg| of the complex eigenvalue pair, in (0, pi)."""
    ev = np.linalg.eigvals(np.asarray(M, dtype=float))
    if la._is_real(ev).all():
        raise ValueError("real spectrum: no eigenvalue argument")
    lam = ev[int(np.argmax(ev.imag))]
    return float(abs(np.angle(lam)))


def _circ(a: float) -> float:
    """Distance of the angle a from 0 on the circle of length 2*pi."""
    return abs((a + math.pi) % TWO_PI - math.pi)


@dataclass(frozen=True)
class ThetaEllRhoReport:
    residual: float
    skipped: bool


def theta_ell_rho_check(A: CocycleSpec, sys: SuspensionSystem, p: SymbolicPoint,
                        ell: int) -> ThetaEllRhoReport:
    """Compare the eigenvalue argument of the return block over ell steps
    from the periodic point p against period times the iterated-lift
    rotation number, folding the rotation sign.

    Returns a skipped report when the block has real spectrum.
    """
    C = circle_cocycle(A, sys, p, ell)
    M = C.composite()
    rho = rho_periodic(C)
    try:
        theta = eigen_argument(M)
    except ValueError:
        return ThetaEllRhoReport(math.nan, True)
    doubled = 2.0 * C.period * rho
    residual = min(_circ(doubled - 2.0 * theta), _circ(doubled + 2.0 * theta)) / 2.0
    return ThetaEllRhoReport(float(residual), False)


# ---------------------------------------------------------------------------
# parameter families: continuous argument lifts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ThetaLift:
    """Continuous argument lift of a 2D block along a one-parameter family."""

    s_values: np.ndarray
    theta_values: np.ndarray

    @property
    def total_change(self) -> float:
        return float(self.theta_values[-1] - self.theta_values[0])


def tracked_raw_angle(A: CocycleSpec, p: SymbolicPoint, ell: int, prev_modulus: float | None):
    """(raw |arg| in [0, pi], modulus, is_real, gap) of the tracked pair of
    the return matrix over ell steps from the periodic point p of a word
    (ell its length, also when the word is not primitive), matching blocks
    to the previous modulus when given; gap is the distance to the nearest
    other eigenvalue modulus."""
    M = evaluate(A, p, ell)
    rec = la.sorted_spectrum(M)
    pairs = [(abs(ev), abs(np.angle(ev)), False) for ev in rec.complex_pairs]
    reals = [i for i in range(rec.dim) if rec.is_real[i]]
    for a in range(0, len(reals) - 1, 2):
        lam1 = rec.eigenvalues[reals[a]].real
        lam2 = rec.eigenvalues[reals[a + 1]].real
        if lam1 * lam2 > 0:
            m = math.sqrt(abs(lam1 * lam2))
            pairs.append((m, 0.0 if lam1 > 0 else math.pi, True))
    if not pairs:
        raise ValueError("return matrix has no trackable 2D block")
    if prev_modulus is None:
        cand = [p_ for p_ in pairs if not p_[2]]
        if not cand:
            raise ValueError("tracked block must start with a complex pair")
        mod, ang, is_real = cand[0]
    else:
        mod, ang, is_real = min(pairs, key=lambda q: abs(q[0] - prev_modulus))
    gap = math.inf
    for m2 in (abs(ev) for ev in rec.eigenvalues):
        if abs(m2 - mod) > 1e-14:
            gap = min(gap, abs(m2 - mod))
    return ang, mod, is_real, gap


def lift_theta_family(family, sys: SuspensionSystem, p: SymbolicPoint, ell: int,
                      grid) -> ThetaLift:
    """Continuous lift s -> theta(s) of the tracked block argument over ell
    steps from the periodic point p of a word (ell its length) along a
    family of cocycles, anchored at s = grid[0] to period * rho of the
    projectivized block there.

    Each step picks the branch 2*pi*m +/- raw_angle closest to the previous
    value, refining the s grid until every increment is below pi/4.
    """
    grid = [float(s) for s in grid]
    if len(grid) < 2:
        raise ValueError("grid needs at least two parameter values")
    A0 = family(grid[0])
    C0 = circle_cocycle(A0, sys, p, ell)
    anchor_halved = rho_periodic(C0) * C0.period
    raw0, mod0, real0, _ = tracked_raw_angle(A0, p, ell, None)
    if real0:
        raise ValueError("family must start with a complex pair on the tracked block")
    # match the anchor to the signed branch consistent with the raw angle
    theta0 = raw0 if _circ(2 * anchor_halved - 2 * raw0) <= _circ(2 * anchor_halved + 2 * raw0) else -raw0
    s_out = [grid[0]]
    th_out = [theta0]
    prev_mod = mod0

    def branch(target, raw):
        best = None
        for sgn in (1.0, -1.0):
            c = sgn * raw + TWO_PI * round((target - sgn * raw) / TWO_PI)
            if best is None or abs(c - target) < abs(best - target):
                best = c
        return best

    def advance(s_a, th_a, s_b, depth):
        nonlocal prev_mod
        A = family(s_b)
        raw, mod, is_real, gap = tracked_raw_angle(A, p, ell, prev_mod)
        if gap < _BLOCK_GAP_TOL and not is_real:
            raise ValueError("tracked block modulus gap degenerated")
        # aim at the linear continuation of the lift: near a fold of the
        # unsigned argument the reflected and the continuing branch are both
        # close to the previous value, and only the direction of motion
        # separates them
        if len(s_out) >= 2 and s_out[-1] > s_out[-2]:
            slope = (th_out[-1] - th_out[-2]) / (s_out[-1] - s_out[-2])
            pred = th_a + slope * (s_b - s_a)
        else:
            pred = th_a
        cand = branch(pred, raw)
        if abs(cand - th_a) >= math.pi / 4.0:
            if depth >= _MAX_LIFT_DEPTH:
                raise ArithmeticError("could not resolve the argument branch")
            mid = 0.5 * (s_a + s_b)
            th_mid = advance(s_a, th_a, mid, depth + 1)
            return advance(mid, th_mid, s_b, depth + 1)
        prev_mod = mod
        s_out.append(s_b)
        th_out.append(cand)
        return cand

    for a, b in zip(grid, grid[1:]):
        advance(a, th_out[-1], b, 0)
    order = np.argsort(s_out)
    return ThetaLift(np.asarray(s_out)[order], np.asarray(th_out)[order])


# ---------------------------------------------------------------------------
# measure-averaged rotation numbers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RhoMeasureEstimate:
    value: float
    lower: float
    upper: float
    width: float
    t: float
    exact: bool
    nodes: int             # stopping-time tree nodes walked; 0 when sampled


def rho_measure(A: CocycleSpec, sys: SuspensionSystem, mu, t: float,
                path_limit: int = 200_000, seed: int = 0, n_samples: int = 2000) -> RhoMeasureEstimate:
    """Measure-averaged rotation number with a monotone bracket: the upper
    bound integrates the per-path supremum displacement at time t, the lower
    one the infimum; halved convention per unit flow time.

    Every path stops at flow time t: the first step with acc + r >= t,
    acc the flow time before it and r its roof, enters as the fractional
    map M^u, u = (t - acc) / r, and is skipped when u = 0.  The
    stopping-time tree of admissible window words is first counted level
    by level from the words, flow times and allowed transitions alone.  If
    it has at most path_limit nodes it is walked level by level, every node
    of a level in one batched step from its parent's state, and each leaf
    adds weight * extreme in the order of a depth-first search that pushes
    roots and children in increasing order (so pops them in decreasing
    order): the sum is sequential, and this order keeps its bits.  A larger
    tree is not walked at all; n_samples orbits drawn from the measure with
    seeds seed, seed + 1, ... are walked instead, in lockstep up to 256 at
    a time (which bounds the memory), and their extremes averaged in seed
    order.  ValueError rejects a cocycle that is not 2x2 or not
    locally constant (Hoelder bumps), a measure or suspension over another
    shift, t that is not positive and finite, and n_samples < 1.
    """
    if A.dim != 2:
        raise ValueError("measure-averaged rotation numbers need a 2x2 cocycle")
    if not A.is_locally_constant:
        raise ValueError("measure-averaged rotation numbers need a locally constant cocycle")
    if mu.spec is not A.base and mu.spec != A.base:
        raise ValueError("measure lives on a different shift")
    if sys.base is not A.base and sys.base != A.base:
        raise ValueError("suspension lives on a different shift")
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be positive and finite, got {t!r}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples!r}")
    win = max(A.window, sys.roof.window)
    words, _, successor = A.base.window_table(win)
    mats = [A.generator[w[:A.window]] for w in words]
    roofs = np.array([sys.roof.values[w[:sys.roof.window]] for w in words])
    last = np.array([w[-1] for w in words])
    # nxt[i, m - 1 - b]: the word after words[i] on symbol b, -1 where the
    # transition is forbidden or has probability 0
    nxt = np.where(mu.P[last] > 0, successor, -1)[:, ::-1]

    def tree_children(origin, word, depth):
        after = nxt[word]
        rows, cols = np.nonzero(after >= 0)
        return rows, after[rows, cols]

    roots = np.arange(len(words))[::-1]
    levels = _stopping_levels(roots, tree_children, roofs, t, path_limit)
    exact = levels is not None
    if exact:
        weight = np.array([mu.cylinder(words[i]) for i in roots])
        leaf_weights = [weight[levels[0].done]]
        for up, lv in zip(levels, levels[1:]):
            weight = weight[lv.parent] * mu.P[last[up.word[lv.parent]], last[lv.word]]
            leaf_weights.append(weight[lv.done])
        order = _preorder(levels)
        hi, lo = _walk(levels, mats)
        num_hi = num_lo = 0.0
        for w, h, l in zip(np.concatenate(leaf_weights)[order].tolist(),
                           hi[order].tolist(), lo[order].tolist()):
            num_hi += w * h
            num_lo += w * l
        nodes = sum(len(lv.word) for lv in levels)
    else:
        n_sym = int(t / min(sys.roof.values.values())) + win + 2
        his, los = [], []
        for first in range(0, n_samples, _SAMPLE_CHUNK):
            chunk = range(first, min(first + _SAMPLE_CHUNK, n_samples))
            orbits = np.array([mu.sample_orbit(n_sym, seed=seed + i) for i in chunk])
            # windows[i, k]: the word read by step k of orbit i
            windows = A.base.window_index(orbits, win)

            def orbit_step(origin, word, depth):
                return np.arange(len(word)), windows[origin, depth]

            levels = _stopping_levels(windows[:, 0], orbit_step, roofs, t)
            hi, lo = _walk(levels, mats)
            order = _preorder(levels)
            his.append(hi[order])
            los.append(lo[order])
        num_hi = float(np.mean(np.concatenate(his)))
        num_lo = float(np.mean(np.concatenate(los)))
        nodes = 0
    upper = num_hi / (2.0 * t)
    lower = num_lo / (2.0 * t)
    return RhoMeasureEstimate(
        value=0.5 * (upper + lower),
        lower=lower,
        upper=upper,
        width=upper - lower,
        t=float(t),
        exact=exact,
        nodes=nodes,
    )
