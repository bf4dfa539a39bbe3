"""Closing and shadowing: symbolic homoclinic families, pseudo-orbits on the
torus, and the quantitative constants that make the closing lemmas checkable.

Two hyperbolic bases live here.  The symbolic one is exact: periodic words
built from a periodic block and a bridge approximate a homoclinic orbit with
errors that are literal powers of the base contraction rate.  The toral one
is metric: hyperbolic integer matrices close pseudo-orbits through a linear
solve in eigencoordinates, and the resulting periodic point is snapped to its
exact rational value and verified with modular integer arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .shifts import SftSpec, homoclinic_point, metric, parse_word, periodic_point
from .suspension import RoofFunction, SuspensionSystem, period

UNIT_CIRCLE_TOL = 1e-9
_SNAP_GUARD = 1e-6


# ---------------------------------------------------------------------------
# symbolic side: the homoclinic closing family
# ---------------------------------------------------------------------------

def homoclinic_family(spec: SftSpec, p_word, bridge, n: int) -> tuple:
    """Cyclic word of the n-th homoclinic closing: the bridge followed by 2n
    copies of the periodic block.

    Its orbit agrees with the homoclinic orbit on symbol windows of radius
    growing linearly with n, so the two stay within a contraction-rate power
    of each other near the bridge.
    """
    p = parse_word(p_word)
    b = parse_word(bridge)
    if n < 1:
        raise ValueError("n must be positive")
    homoclinic_point(spec, p, b)   # shares the admissibility requirements
    return b + p * (2 * n)


@dataclass(frozen=True)
class ShadowingFit:
    """Least-squares fit of log-distance against time-to-the-ends."""

    c: float
    eta_per_period: float
    target_per_period: float
    residual: float
    n_values: tuple
    profiles: dict           # n -> (centered offsets, metric distances)

    def profile_rows(self):
        """(n, offset, distance) rows for all family members."""
        for n in self.n_values:
            ts, ds = self.profiles[n]
            for t, d in zip(ts, ds):
                yield int(n), float(t), float(d)


def exponential_shadowing_check(spec: SftSpec, p_word, bridge, n_values) -> ShadowingFit:
    """Measure how fast the closed orbits of a homoclinic family peel away
    from the periodic orbit, and fit the exponential profile.

    For each n the distance from the orbit of the closed word to the
    phase-matched periodic orbit is sampled at every symbol offset; offsets
    are centered between consecutive bridge copies, so the model
    d = c * exp(-eta * (T/2 - |t|)) has one (c, eta) for the whole family.
    The fitted eta per traversal of the periodic block should match the
    metric contraction rate of the shift.
    """
    p = parse_word(p_word)
    b = parse_word(bridge)
    o = periodic_point(spec, p)
    xs, ys = [], []
    profiles = {}
    for n in n_values:
        w = homoclinic_family(spec, p, b, int(n))
        T = len(w)
        q = periodic_point(spec, w)
        center = 0.5 * (len(b) - 1 + T)
        ts, ds = [], []
        for t in range(len(b), T):
            dist = metric(q.shift(t), o.shift(t - len(b)), spec)
            tp = t - center
            ts.append(tp)
            ds.append(dist)
            if dist > 0.0:
                xs.append(0.5 * T - abs(tp))
                ys.append(math.log(dist))
        profiles[int(n)] = (np.asarray(ts), np.asarray(ds))
    X = np.column_stack([np.ones(len(xs)), np.asarray(xs)])
    y = np.asarray(ys)
    sol, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = float(np.sqrt(np.mean((X @ sol - y) ** 2)))
    return ShadowingFit(
        c=math.exp(float(sol[0])),
        eta_per_period=-float(sol[1]) * len(p),
        target_per_period=math.log(1.0 / spec.theta) * len(p),
        residual=resid,
        n_values=tuple(int(n) for n in n_values),
        profiles=profiles,
    )


@dataclass(frozen=True)
class PeriodDifferenceReport:
    """Return-time gaps of a homoclinic family under two roof functions."""

    n_values: tuple
    deltas: np.ndarray
    sup_delta: float
    m2: float


def period_difference_bound(roof0: RoofFunction, roof1: RoofFunction,
                            p_word, bridge, n_values, nu: float = 1.0) -> PeriodDifferenceReport:
    """Periods of the closed words under two roofs that agree along the
    periodic orbit: the gaps stay bounded uniformly in n.

    The bound is the geometric tail 2 * ||roof1 - roof0||_nu / (1 - theta^nu):
    each symbol of the closed word sits within a contraction power of the
    periodic orbit, where the difference vanishes, so contributions decay
    geometrically away from the bridge on both sides.
    """
    if roof0.base != roof1.base:
        raise ValueError("roofs must live over the same base shift")
    spec = roof0.base
    p = parse_word(p_word)
    b = parse_word(bridge)
    if nu <= 0.0:
        raise ValueError("the Hoelder exponent must be positive")
    win = max(roof0.window, roof1.window)

    def diff(u):
        return roof1.values[u[: roof1.window]] - roof0.values[u[: roof0.window]]

    reps = -(-(win) // len(p)) + 1
    stretched = p * reps
    for k in range(len(p)):
        u = stretched[k : k + win]
        if diff(u) != 0.0:
            raise ValueError(
                "support violation: roof difference must vanish on the periodic cylinder"
            )
    values = [diff(u) for u in spec.admissible_words(win)]
    sup = max(abs(v) for v in values)
    osc = max(values) - min(values)
    holder = sup + osc / spec.theta ** (nu * (win - 1))
    m2 = 2.0 * holder / (1.0 - spec.theta ** nu)
    sys0 = SuspensionSystem(spec, roof0)
    sys1 = SuspensionSystem(spec, roof1)
    deltas = []
    for n in n_values:
        w = homoclinic_family(spec, p, b, int(n))
        q = periodic_point(spec, w)
        deltas.append(abs(period(sys1, q, len(w)) - period(sys0, q, len(w))))
    deltas = np.asarray(deltas)
    return PeriodDifferenceReport(
        n_values=tuple(int(n) for n in n_values),
        deltas=deltas,
        sup_delta=float(np.max(deltas)),
        m2=float(m2),
    )


# ---------------------------------------------------------------------------
# toral side: hyperbolic automorphisms and linear closing
# ---------------------------------------------------------------------------

def _int_matmul(A, B):
    n = len(A)
    return [
        [sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _int_matpow(M, n: int):
    size = len(M)
    out = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    base = [list(row) for row in M]
    while n:
        if n & 1:
            out = _int_matmul(out, base)
        base = _int_matmul(base, base)
        n >>= 1
    return out


def _int_det(M) -> int:
    """Fraction-free (Bareiss) determinant over python integers."""
    a = [[int(v) for v in row] for row in M]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def _wrap(v: np.ndarray) -> np.ndarray:
    """Nearest lattice representative, componentwise in [-1/2, 1/2)."""
    return v - np.round(v)


@dataclass(frozen=True)
class ToralAutomorphism:
    """Hyperbolic integer matrix acting on the torus R^d / Z^d."""

    matrix: np.ndarray

    def __post_init__(self):
        M = np.asarray(self.matrix)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise ValueError("the matrix must be square")
        if not np.all(M == np.round(M)):
            raise ValueError("the matrix must have integer entries")
        Mi = np.round(M).astype(np.int64)
        if abs(_int_det(Mi)) != 1:
            raise ValueError("the determinant must be +1 or -1")
        moduli = np.abs(np.linalg.eigvals(Mi.astype(float)))
        if np.any(np.abs(moduli - 1.0) < UNIT_CIRCLE_TOL):
            raise ValueError("not hyperbolic: eigenvalue on the unit circle")
        object.__setattr__(self, "matrix", Mi)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def contraction(self) -> float:
        """Worst rate towards the unit circle from either side."""
        moduli = np.abs(np.linalg.eigvals(self.matrix.astype(float)))
        rates = np.where(moduli < 1.0, moduli, 1.0 / moduli)
        return float(np.max(rates))

    @property
    def epsilon0(self) -> float:
        """Largest pseudo-orbit error the closing solve accepts: an eighth
        of the hyperbolicity gap, leaving the quarter-torus injectivity
        radius untouched by the correction."""
        return (1.0 - self.contraction) / 8.0

    @property
    def shadowing_constant(self) -> float:
        return 2.0 / (1.0 - self.contraction)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.mod(np.asarray(x, dtype=float) @ self.matrix.T, 1.0)


@dataclass(frozen=True)
class PseudoOrbit:
    """Cyclic sample of torus points with a declared per-step error."""

    points: np.ndarray
    epsilon: float

    def __post_init__(self):
        P = np.asarray(self.points, dtype=float)
        if P.ndim != 2 or P.shape[0] < 1:
            raise ValueError("points must be a nonempty (time, dim) array")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "points", np.mod(P, 1.0))

    def step_defects(self, T: ToralAutomorphism) -> np.ndarray:
        """Nearest-representative gaps between each mapped point and the
        next sample, the last one wrapping around."""
        imgs = self.points @ T.matrix.T.astype(float)
        return _wrap(np.roll(self.points, -1, axis=0) - imgs)


def jittered_orbit(T: ToralAutomorphism, x0, n: int, amplitude: float,
                   seed: int = 0) -> PseudoOrbit:
    """Length-n pseudo-orbit: the true orbit of x0 with uniform jitter of the
    given amplitude added to every sample; epsilon is the measured worst
    step error, not the nominal amplitude."""
    rng = np.random.default_rng(seed)
    pts = np.empty((n, T.dim))
    x = np.mod(np.asarray(x0, dtype=float), 1.0)
    for t in range(n):
        pts[t] = x
        x = T.apply(x)
    pts = np.mod(pts + rng.uniform(-amplitude, amplitude, size=pts.shape), 1.0)
    orbit = PseudoOrbit(pts, epsilon=max(amplitude, 1e-300))
    eps = float(np.max(np.abs(orbit.step_defects(T))))
    return PseudoOrbit(pts, epsilon=max(eps, 1e-300))


@dataclass(frozen=True)
class ShadowResult:
    """Exact rational periodic shadow of a toral pseudo-orbit."""

    numerators: tuple
    denominator: int
    sup_distance: float
    bound: float
    epsilon: float


def toral_close(T: ToralAutomorphism, pseudo: PseudoOrbit) -> ShadowResult:
    """Close a periodic pseudo-orbit to the unique nearby periodic point.

    The cyclic correction solves (T^N - I) c = accumulated defects in
    eigencoordinates, with the expanding directions summed through negative
    powers so nothing overflows.  The corrected start is snapped to the
    rational lattice of denominator |det(T^N - I)| and the snap is verified
    exactly with modular integer arithmetic.
    """
    eps0 = T.epsilon0
    if pseudo.epsilon > eps0:
        raise ValueError(
            f"epsilon too large: closing needs epsilon <= {eps0:.6g}"
        )
    defects = pseudo.step_defects(T)
    worst = float(np.max(np.abs(defects)))
    if worst > pseudo.epsilon * (1.0 + 1e-9):
        raise ValueError("pseudo-orbit step errors exceed the declared epsilon")
    N, d = pseudo.points.shape
    lam, V = np.linalg.eig(T.matrix.astype(float))
    f = np.linalg.solve(V, defects.T).T          # defects in eigencoordinates
    ar = np.arange(N, dtype=float)
    geo = np.empty((d, N), dtype=complex)
    scale = np.empty(d, dtype=complex)
    for i in range(d):
        li = complex(lam[i])
        if abs(li) > 1.0:
            geo[i] = li ** (-(ar + 1.0))
            scale[i] = 1.0 / (1.0 - li ** (-float(N)))
        else:
            geo[i] = -(li ** (N - 1.0 - ar))
            scale[i] = 1.0 / (1.0 - li ** float(N))
    corrections = np.empty((N, d))
    for s in range(N):
        fs = f[(np.arange(N) + s) % N]
        comp = np.array([scale[i] * (geo[i] @ fs[:, i]) for i in range(d)])
        corrections[s] = np.real(V @ comp)
    bound = T.shadowing_constant * pseudo.epsilon
    sup_c = float(np.max(np.abs(corrections)))
    if sup_c > bound:
        raise ArithmeticError("closing correction exceeded the shadowing bound")

    An = _int_matpow(T.matrix.tolist(), N)
    D = abs(_int_det([[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(An)]))
    start = np.mod(pseudo.points[0] + corrections[0], 1.0)
    scaled = start * D
    nums = [int(round(v)) % D for v in scaled]
    if np.max(np.abs(scaled - np.round(scaled))) > _SNAP_GUARD * D:
        raise ArithmeticError("corrected point is not near the rational lattice")
    for i in range(d):
        r = sum(An[i][j] * nums[j] for j in range(d)) - nums[i]
        if r % D != 0:
            raise ArithmeticError("rational snap failed modular verification")

    # exact rational orbit, and the true distances from the samples to it
    M = T.matrix.tolist()
    cur = list(nums)
    dists = np.empty(N)
    for t in range(N):
        pt = np.asarray(cur, dtype=float) / D
        dists[t] = float(np.max(np.abs(_wrap(pseudo.points[t] - pt))))
        cur = [sum(M[i][j] * cur[j] for j in range(d)) % D for i in range(d)]
    sup = float(np.max(dists))
    if sup > bound:
        raise ArithmeticError("shadow orbit left the shadowing bound")
    return ShadowResult(
        numerators=tuple(nums),
        denominator=D,
        sup_distance=sup,
        bound=bound,
        epsilon=pseudo.epsilon,
    )
