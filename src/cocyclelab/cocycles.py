"""Linear cocycles over subshifts: evaluation, holonomies, simplicity tests.

A cocycle is a window-w locally constant generator dict plus an optional
Hoelder perturbation given by cylinder-anchored bump fields.  The bump field
for word u is S(x) = sum_k theta^(nu |k|) [x sees u at position k].  Every
product of step matrices, along a sampled path or at a point, takes its steps
from CocycleSpec.path_matrices, which convolves the fields with the kernel
truncated where theta^(nu |k|) < e^-40, below double precision.  Holonomy
series form their terms from exact field differences (_field_difference), so
no two nearly equal fields are subtracted.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import linalg as la
from .shifts import (
    SftSpec, SymbolicPoint, homoclinic_point, make_point, parse_word, periodic_point,
)

HOLONOMY_DEPTH_CAP = 10**4
# enumeration budget and largest power of the domination search
_DOMINATION_BUDGET = 150_000
_DOMINATION_MAX_POWER = 64
# bump directions whose eigenvector matrix is worse conditioned are rejected
_DIRECTION_COND_MAX = np.finfo(float).eps ** -0.5


def _skew_plane(d: int) -> np.ndarray:
    D = np.zeros((d, d))
    D[0, 1], D[1, 0] = -1.0, 1.0
    return D


@dataclass(frozen=True)
class HoelderBump:
    """One cylinder-anchored bump: amplitude * sum_k theta^(nu|k|) 1[word at k]."""

    word: tuple
    amplitude: float
    direction: np.ndarray | None = None

    def direction_for(self, d: int) -> np.ndarray:
        if self.direction is None:
            return _skew_plane(d)
        D = np.asarray(self.direction, dtype=float)
        if D.shape != (d, d):
            raise ValueError("bump direction has wrong shape")
        return D


@dataclass(frozen=True)
class HoelderPerturbation:
    nu: float
    bumps: tuple

    def __post_init__(self):
        if not (0.0 < self.nu <= 1.0):
            raise ValueError("Hoelder exponent must lie in (0, 1]")
        object.__setattr__(self, "bumps", tuple(self.bumps))


@dataclass(frozen=True)
class CocycleSpec:
    """Window-w locally constant generator with optional Hoelder bumps."""

    base: SftSpec
    window: int
    generator: dict
    perturbation: HoelderPerturbation | None = None

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least 1")
        gen = {}
        dim = None
        for word, mat in self.generator.items():
            w = parse_word(word)
            if len(w) != self.window:
                raise ValueError(f"generator word {word!r} has wrong length")
            M = la.check_invertible(mat)
            if dim is None:
                dim = M.shape[0]
            elif M.shape[0] != dim:
                raise ValueError("generator matrices have mixed dimensions")
            gen[w] = M
        words = self.base.window_table(self.window)[0]
        for w in words:
            if w not in gen:
                raise ValueError(f"generator missing admissible word {w}")
        # only admissible windows are ever stepped through
        object.__setattr__(self, "generator", {w: gen[w] for w in words})
        if not self.is_locally_constant:
            for b in self.perturbation.bumps:
                _diagonalize(b.direction_for(dim))

    @property
    def dim(self) -> int:
        return next(iter(self.generator.values())).shape[0]

    @property
    def is_locally_constant(self) -> bool:
        return self.perturbation is None or not self.perturbation.bumps

    @cached_property
    def _domination(self) -> "DominationResult":
        """domination_check with default arguments, computed once."""
        return domination_check(self)

    @cached_property
    def _kernel(self):
        """(kernel, halo) of the convolved bump fields: theta^(nu|k|) for
        |k| <= K, truncated where theta^(nu K) < e^-40, and the 2K symbols
        plus the longest bump word that a step range reads on each side
        (None and 0 when locally constant)."""
        if self.is_locally_constant:
            return None, 0
        nu = self.perturbation.nu
        theta = self.base.theta
        K = int(np.ceil(-40.0 / (nu * np.log(theta))))
        kernel = theta ** (nu * np.abs(np.arange(-K, K + 1)))
        return kernel, 2 * K + max(len(b.word) for b in self.perturbation.bumps)

    def value_at(self, x: SymbolicPoint) -> np.ndarray:
        """The step matrix A(x), the first step of point_steps."""
        return self.point_steps(x, 0, 1)[0]

    def point_steps(self, x: SymbolicPoint, start: int, count: int) -> np.ndarray:
        """(count, d, d) step matrices A(shift^k x), k in [start, start + count),
        from path_matrices on one word_array stretch of x with the kernel halo
        on each side."""
        halo = self._kernel[1]
        symbols = x.word_array(start - halo, count + self.window - 1 + 2 * halo)
        return self.path_matrices(symbols, halo, halo + count)[0]

    # -- norm envelopes ------------------------------------------------------

    def norm_envelope(self):
        """(sup ||A||, sup ||A^-1||) upper bounds over all points."""
        sup_a = float(np.linalg.norm(self._generator_table[0], 2, axis=(1, 2)).max())
        sup_inv = float(np.linalg.norm(self._generator_inverse, 2, axis=(1, 2)).max())
        growth = self._bump_growth()
        return sup_a * growth, sup_inv * growth

    def _bump_growth(self) -> float:
        """Upper bound on the norm of one step's bump factors (1 when locally
        constant): exp(sum |a_b| sup S_b ||D_b||)."""
        if self.is_locally_constant:
            return 1.0
        q = self.base.theta**self.perturbation.nu
        s_max = (1.0 + q) / (1.0 - q)
        bump = sum(
            abs(b.amplitude) * s_max * float(np.linalg.norm(b.direction_for(self.dim), 2))
            for b in self.perturbation.bumps
        )
        return np.exp(bump)

    def bump_hoelder_constant(self) -> float:
        """Hoelder constant of x -> A(x) restricted to the bump factors."""
        if self.is_locally_constant:
            return 0.0
        q = self.base.theta**self.perturbation.nu
        field_const = 2.0 / (1.0 - q)
        sup_a, _ = self.norm_envelope()
        total = 0.0
        for b in self.perturbation.bumps:
            nd = float(np.linalg.norm(b.direction_for(self.dim), 2))
            total += abs(b.amplitude) * field_const * nd
        return sup_a * total

    # -- fast path for orbit samples ----------------------------------------

    def path_matrices(self, symbols: np.ndarray, start: int, stop: int):
        """(steps, d, d) step matrices and per-step log|det| along a sample path.

        Step t reads the window symbols[t : t + window]; start and stop
        select the steps [start, stop).  Bump fields
        are evaluated by convolution with the theta^(nu|k|) kernel, |k| <= K,
        truncated at double precision; path ends contribute nothing outside
        the sampled stretch.  A range of steps reads only a halo of 2K
        symbols plus the longest bump word on each side of its own windows,
        and its fields equal those of the whole path bit for bit: every
        step's kernel lies inside the halo, and the halo is long enough that
        numpy convolves the stretch exactly as it would the whole path.
        """
        symbols = np.asarray(symbols, dtype=np.int64)
        m = self.base.alphabet_size
        w = self.window
        n_steps = len(symbols) - w + 1
        if n_steps <= 0:
            raise ValueError("path shorter than the window")
        if not 0 <= start < stop <= n_steps:
            raise ValueError(f"steps [{start}, {stop}) do not lie in the path's {n_steps} steps")
        halo = self._kernel[1]
        lo = max(start - halo, 0)
        symbols = symbols[lo : stop + w - 1 + halo]
        first, steps = start - lo, stop - start
        if symbols.min() < 0 or symbols.max() >= m:
            raise ValueError(f"path symbol {symbols[(symbols < 0) | (symbols >= m)][0]} "
                             f"outside [0, {m})")
        idx = self.base.window_index(symbols[first : first + steps + w - 1], w)
        stack, logdets = self._generator_table
        out, logdet = stack[idx], logdets[idx]
        if self.is_locally_constant:
            return out, logdet
        for b, g in zip(self.perturbation.bumps, self._bump_fields(symbols, first, steps)):
            D = b.direction_for(self.dim)
            out = out @ _bump_factors(D, g)
            logdet = logdet + g * float(np.trace(D))
        return out, logdet

    def _bump_fields(self, symbols, first: int, steps: int) -> list:
        """Per-bump fields a_b S_b at the steps [first, first + steps) of a
        symbol stretch, by convolution with the truncated kernel; the
        stretch's ends contribute nothing beyond it."""
        kernel = self._kernel[0]
        fields = []
        for b in self.perturbation.bumps:
            bw = b.word
            bl = len(bw)
            positions = len(symbols) - bl + 1
            ind = np.ones(max(positions, 0), dtype=float)
            for j, s in enumerate(bw):
                ind *= symbols[j : j + positions] == s
            ind_full = np.zeros(len(symbols))
            ind_full[: len(ind)] = ind
            fields.append(b.amplitude * np.convolve(ind_full, kernel, mode="same")[first : first + steps])
        return fields

    @cached_property
    def _generator_table(self):
        """(stack, logdet): the generators stacked in base.window_table(window)
        order and the log|det| of each; built once per cocycle."""
        stack = np.stack(list(self.generator.values()))
        return stack, np.log(np.abs(np.linalg.det(stack)))

    @cached_property
    def _generator_inverse(self):
        """The inverse of each generator, in _generator_table order; built on
        first read."""
        return np.linalg.inv(self._generator_table[0])


def _diagonalize(D: np.ndarray):
    """(eigenvalues, V, V^-1) of a bump direction D = V diag(eigenvalues) V^-1.

    exp(g D) built from them loses about cond(V) eps of relative accuracy,
    and nothing at all warns of a defective D, whose V is singular: for
    D = [[0, 1], [0, 0]] it would give the identity.  So a direction whose
    V is singular or ill-conditioned at working precision (cond(V) at
    least eps^-1/2) is rejected.
    """
    lam, V = np.linalg.eig(D)
    if not np.linalg.cond(V) < _DIRECTION_COND_MAX:
        raise ValueError("bump direction is not diagonalizable at working precision")
    return lam, V, np.linalg.inv(V)


def _bump_factors(D: np.ndarray, g: np.ndarray, minus_identity: bool = False) -> np.ndarray:
    """(len(g), d, d) stack of the bump factors exp(g_t D), or with
    minus_identity of expm1(g_t D) = exp(g_t D) - I, formed without the
    subtraction.

    exp(g D) = sum_j e^(g lam_j) P_j over the projectors P_j = V[:, j]
    V^-1[j] of _diagonalize, as real terms: e^(g lam) P for a real lam (P
    alone for lam = 0), and e^(ga) cos(gb) 2 Re P - e^(ga) sin(gb) 2 Im P
    for a pair a +- ib.  The P_j sum to I, so minus_identity takes
    expm1(g lam), and for a pair the real part expm1(ga) cos(gb) -
    2 sin^2(gb / 2) of numpy's complex expm1: tiny g keeps full relative
    precision.  The terms are summed elementwise, with no BLAS call (a
    multithreaded contraction costs more CPU than it saves)."""
    lam, V, V_inv = _diagonalize(D)
    d = len(lam)
    out = np.zeros((len(g), d * d))
    for j in np.flatnonzero(lam.imag >= 0):
        P = np.outer(V[:, j], V_inv[j]).ravel()
        if lam[j] == 0:
            terms = [] if minus_identity else [(1.0, P.real)]
        elif lam[j].imag == 0:
            terms = [((np.expm1 if minus_identity else np.exp)(g * lam[j].real), P.real)]
        else:
            a, b = g * lam[j].real, g * lam[j].imag
            e = np.exp(a)
            re = np.expm1(a) * np.cos(b) - 2.0 * np.sin(0.5 * b) ** 2 if minus_identity else e * np.cos(b)
            terms = [(re, 2.0 * P.real), (-e * np.sin(b), 2.0 * P.imag)]
        for f, M in terms:
            out += np.multiply.outer(f, M)
    return out.reshape(len(g), d, d)


def evaluate(A: CocycleSpec, x: SymbolicPoint, n: int) -> np.ndarray:
    """n-step cocycle product at x, folded from the identity over the steps
    of A.point_steps; negative n inverts the forward product over the -n
    steps before x, so the cocycle identity holds for all signs."""
    out = np.eye(A.dim)
    if n == 0:
        return out
    for M in A.point_steps(x, min(n, 0), abs(n)):
        out = M @ out
    return out if n > 0 else np.linalg.inv(out)


# ---------------------------------------------------------------------------
# domination
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DominationResult:
    dominated: bool
    power: int | None
    margin: float


def domination_check(A: CocycleSpec) -> DominationResult:
    """Search for the smallest power N with sup ||A^N|| ||(A^N)^-1|| theta^(nu N) < 1.

    nu is the bump exponent (1 when locally constant).  Cylinder sups are
    exact for every power searched.  The search stops undominated after
    _DOMINATION_MAX_POWER, or before the first power N > 1 with more than
    _DOMINATION_BUDGET / m cylinders (m symbols).  Composing the bounds of
    smaller powers cannot find domination there, because each of them
    is at least 1.  All cylinder products of one power form one stack, and
    ||P|| ||P^-1|| is its batched condition number cond_2(P) = s_max / s_min.
    A product that is singular at working precision gets cond_2 of order
    1/eps (inf when s_min is exactly 0), so it blocks domination at that
    power instead of raising LinAlgError.
    """
    nu = A.perturbation.nu if A.perturbation is not None else 1.0
    theta = A.base.theta
    m = A.base.alphabet_size
    env_factor = A._bump_growth() ** 2
    _, _, successor = A.base.window_table(A.window)
    G = P = A._generator_table[0]

    # products over cylinders, extended one symbol at a time; idx[i] is the
    # window_table index of the last A.window symbols of product i's word
    idx = np.arange(len(G))
    N = 1
    while True:
        bound = float(np.max(np.linalg.cond(P, 2))) * env_factor**N * theta ** (nu * N)
        if bound < 1.0:
            return DominationResult(True, N, 1.0 - bound)
        if N >= _DOMINATION_MAX_POWER:
            break
        rows, syms = np.nonzero(successor[idx] >= 0)
        idx = successor[idx[rows], syms]
        P = G[idx] @ P[rows]
        N += 1
        if len(idx) * m > _DOMINATION_BUDGET:
            break
    return DominationResult(False, None, 0.0)


# ---------------------------------------------------------------------------
# holonomies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HolonomyResult:
    matrix: np.ndarray
    depth: int
    truncation_error: float


def _agreement_index(x: SymbolicPoint, y: SymbolicPoint, sign: int) -> int:
    """Least i0 >= 0 with x_i = y_i for all sign * i >= i0 (sign +1: forward
    tails, sign -1: backward tails)."""
    B, same = x.agreement(y)
    same = same[0 if sign > 0 else 1]
    if not same[B:].all():
        raise ValueError(f"points are not {'forward' if sign > 0 else 'backward'} asymptotic")
    differ = np.flatnonzero(~same[:B])
    return int(differ[-1]) + 1 if differ.size else 0


def _reflect(x: SymbolicPoint) -> SymbolicPoint:
    """The point i -> x_(-i)."""
    return make_point(x.right[::-1], x.core[::-1], x.left[::-1], 1 - x.core_start - len(x.core))


def _indicator(x: SymbolicPoint, word: tuple, start: int, count: int) -> np.ndarray:
    """1 at the positions start, ..., start + count - 1 where x shows word, else 0."""
    windows = sliding_window_view(x.word_array(start, count + len(word) - 1), len(word))
    return np.all(windows == np.array(word), axis=1).astype(np.int64)


def _field_difference(x: SymbolicPoint, y: SymbolicPoint, word: tuple, q: float, side: int):
    """Exact field differences along the holonomy series: a function of
    step arrays k >= 0 giving S(x_k) - S(y_k), S the bump field of word
    with per-symbol ratio q = theta^nu.

    Side +1 (forward asymptotic points) has x_k = shift^k x; side -1
    (backward asymptotic) has x_k = shift^(-k-1) x, computed by the same
    rule on the reflected points i -> x_(-i) and the reversed word, whose
    step k sits at centre c = k + 2 - len(word).  The difference is
    sum_p q^|p - c| (I_x(p) - I_y(p)), I_z(p) = [z shows word at p],
    summed only where the indicators differ: at finitely many positions
    near the cores and, below p0, where both indicators repeat with the
    joint period of the left tails, in closed form.  No two fields are
    subtracted.  Beyond the last differing position k0 every term shrinks
    by q per step, so the difference advances as q^(c - k0) times its
    value at k0.
    """
    if side < 0:
        x, y, word = _reflect(x), _reflect(y), tuple(reversed(word))
    L = len(word)
    offset = 0 if side > 0 else 2 - L
    i0 = _agreement_index(x, y, 1)
    # at and below p0 (the first centre at most) both indicators read left
    # tails only
    p0 = min(x.core_start - L, y.core_start - L, offset)
    period = math.lcm(len(x.left), len(y.left))
    lo = p0 - period + 1
    hi = max(i0, p0 + 1)
    diff = _indicator(x, word, lo, hi - lo) - _indicator(y, word, lo, hi - lo)
    # sum over p <= p0 of diff(p) q^(p0 - p)
    tail = float(diff[period - 1 :: -1] @ q ** np.arange(period)) / (1.0 - q**period)
    near = diff[period:]
    pos = np.arange(p0 + 1, hi)[near != 0]
    sign = near[near != 0]

    def direct(c):
        return (sign * q ** np.abs(pos - c[:, None])).sum(axis=1) + q ** (c - p0) * tail

    k0 = int(pos[-1]) if pos.size else p0
    at_k0 = direct(np.array([k0]))[0]

    def at(k):
        c = np.asarray(k) + offset
        return np.where(c >= k0, at_k0 * q ** np.maximum(c - k0, 0), direct(np.minimum(c, k0)))

    return at


def _factor_gap(dg, gx, gy, directions, side: int) -> np.ndarray:
    """(n, d, d) stack of G(y)^-1 G(x) - I (side +1) or G(y) G(x)^-1 - I
    (side -1), G = prod_b exp(g_b D_b) in bump order, formed from the field
    differences dg_b = g_b(x) - g_b(y) without subtracting.  Over the bumps,
    in bump order on side +1 and reversed on side -1,
        X <- exp(-side g_b(y) D_b) X exp(side g_b(x) D_b) + expm1(side dg_b D_b),
    starting from X = 0; so gx and gy are read from the second bump taken on."""
    X = 0.0
    for i, b in enumerate(range(len(dg))[::side]):
        D = directions[b]
        if i:
            X = _bump_factors(D, -side * gy[b]) @ X @ _bump_factors(D, side * gx[b])
        X = X + _bump_factors(D, side * dg[b], minus_identity=True)
    return X


def _series_holonomy(A: CocycleSpec, x: SymbolicPoint, y: SymbolicPoint, side: int, tol) -> HolonomyResult:
    """Limit of (prod step_y)^-1 (prod step_x) via its telescoping series.

    Side +1 steps are A(shift^k x) and A(shift^k y), k >= 0, whose limit is
    the stable holonomy.  Side -1 steps are A(shift^(-k-1) x)^-1 and
    A(shift^(-k-1) y)^-1, whose limit lim prod_y (prod_x)^-1 is the
    unstable holonomy.  Term k is Py^-1 (C_k - I) Px with C_k =
    step_y(k)^-1 step_x(k); terms are summed until the geometric tail
    estimate drops below tol.  Step matrices come from path_matrices on
    symbol windows of both points, n = ceil(log tol / log q) steps at a
    time (q = theta^nu): the depth at which the field differences, which
    shrink by q per step, fall below tol.

    Where the generator words of step k agree (from the agreement index on,
    and wherever else they happen to), C_k - I is formed without
    subtracting, from the exact field differences of _field_difference:
    expm1(dg D) for one bump, the _factor_gap recursion for several, and
    conjugated by the common generator on side -1.  It then keeps shrinking
    like theta^(nu k) instead of stalling at round-off, so a scale gap that
    grows more slowly, as domination provides, no longer makes the terms
    grow: fiber-bunched cocycles with hyperbolic generators converge.
    Where the words differ, C_k - I = step_y(k)^-1 step_x(k) - I.

    The series needs domination, so a cocycle that domination_check does
    not find dominated is rejected first, as is a tol that is not positive;
    a term that is not finite raises ArithmeticError, and so does reaching
    HOLONOMY_DEPTH_CAP.
    """
    if not A._domination.dominated:
        raise ValueError("non-dominated cocycle without the locally constant fallback")
    if not tol > 0:
        raise ValueError(f"holonomy tolerance must be positive, got {tol!r}")
    d = A.dim
    w = A.window
    halo = A._kernel[1]
    bumps = A.perturbation.bumps
    q = A.base.theta**A.perturbation.nu
    chunk = max(1, math.ceil(math.log(tol) / math.log(q)))
    gaps = [_field_difference(x, y, b.word, q, side) for b in bumps]
    directions = [b.direction_for(d) for b in bumps]
    order = slice(None) if side > 0 else slice(None, None, -1)
    H = np.eye(d)
    Px = np.eye(d)
    Py_inv = np.eye(d)
    scale = 0.0
    last_norms = []
    k0 = 0
    while k0 < HOLONOMY_DEPTH_CAP:
        n = min(chunk, HOLONOMY_DEPTH_CAP - k0)
        # symbols around the steps shift^j, j in [first, first + n); side -1
        # takes them in reverse, as k = -j - 1
        first = k0 if side > 0 else -k0 - n
        sym_x = x.word_array(first - halo, n + w - 1 + 2 * halo)
        sym_y = y.word_array(first - halo, n + w - 1 + 2 * halo)
        Ax = A.path_matrices(sym_x, halo, halo + n)[0][order]
        Ay = A.path_matrices(sym_y, halo, halo + n)[0][order]
        if side > 0:
            U, V = Ax, np.linalg.inv(Ay)
        else:
            U, V = np.linalg.inv(Ax), Ay
        gap = V @ U - np.eye(d)
        same = sliding_window_view(sym_x == sym_y, w)[halo : halo + n].all(axis=1)[order]
        if same.any():
            ks = np.arange(k0, k0 + n)
            dg = [b.amplitude * g(ks) for b, g in zip(bumps, gaps)]
            gx = gy = None
            if len(bumps) > 1:
                gx = [g[order] for g in A._bump_fields(sym_x, halo, n)]
                gy = [g[order] for g in A._bump_fields(sym_y, halo, n)]
            exact = _factor_gap(dg, gx, gy, directions, side)
            if side < 0:
                # A(y') A(x')^-1 = M G(y) G(x)^-1 M^-1 for the common generator M
                idx = A.base.window_index(sym_x[halo : halo + n + w - 1], w)[order]
                exact = A._generator_table[0][idx] @ exact @ A._generator_inverse[idx]
            gap[same] = exact[same]
        # running products before each step, kept at unit Frobenius norm,
        # and the log of the scale factor that their terms carry
        Pxs = np.empty((n, d, d))
        Pys = np.empty((n, d, d))
        log_scale = np.empty(n)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for t in range(n):
                Pxs[t], Pys[t], log_scale[t] = Px, Py_inv, scale
                Px = U[t] @ Px
                Py_inv = Py_inv @ V[t]
                # Frobenius norms as np.linalg.norm forms them, without its
                # per-call overhead
                vx, vy = Px.ravel(), Py_inv.ravel()
                nx, ny = math.sqrt(vx.dot(vx)), math.sqrt(vy.dot(vy))
                Px = Px / nx
                Py_inv = Py_inv / ny
                scale += np.log(nx) + np.log(ny)
            terms = Pys @ gap @ Pxs * np.exp(log_scale)[:, None, None]
        finite = np.isfinite(terms).all(axis=(1, 2))
        norms = np.zeros(n)
        norms[finite] = np.linalg.norm(terms[finite], 2, axis=(1, 2))
        for t in range(n):
            if not finite[t]:
                raise ArithmeticError(f"holonomy series term {k0 + t} is not finite")
            H = H + terms[t]
            tn = float(norms[t])
            last_norms.append(tn)
            if len(last_norms) >= 3:
                prev = last_norms[-2]
                rho = min(0.95, tn / prev) if prev > 0 else 0.5
                tail = tn * rho / (1.0 - rho)
                if tn + tail < tol:
                    return HolonomyResult(H, k0 + t + 1, tail)
        k0 += n
    raise ArithmeticError("holonomy series did not converge within the depth cap")


def stable_holonomy(A: CocycleSpec, x: SymbolicPoint, y: SymbolicPoint, tol: float = 1e-12) -> HolonomyResult:
    """Holonomy fiber(x) -> fiber(y) along the stable set, the limit of
    (A^n_y)^-1 A^n_x.

    Exact (identity conjugated through the agreement prefix) for locally
    constant cocycles.  Bump cocycles need domination and take the series
    of _series_holonomy, whose terms from the agreement index on are formed
    from exact field differences, expm1(dg D) for one bump, never by
    subtracting I; it raises ArithmeticError when a term overflows or the
    depth cap is reached.
    """
    i0 = _agreement_index(x, y, 1)
    if A.is_locally_constant:
        n = i0
        H = np.linalg.solve(evaluate(A, y, n), evaluate(A, x, n))
        return HolonomyResult(H, n, 0.0)
    return _series_holonomy(A, x, y, 1, tol)


def unstable_holonomy(A: CocycleSpec, x: SymbolicPoint, y: SymbolicPoint, tol: float = 1e-12) -> HolonomyResult:
    """Holonomy fiber(x) -> fiber(y) along the unstable set, the limit of
    A^n(shift^-n y) (A^n(shift^-n x))^-1.

    Exact for locally constant cocycles.  Bump cocycles take the series
    of _series_holonomy over the inverse backward steps; once the backward
    generator words agree, its terms are formed from exact field
    differences, M expm1(-dg D) M^-1 for one bump and the common generator
    M, never by subtracting I.
    """
    i0 = _agreement_index(x, y, -1)
    if A.is_locally_constant:
        n = i0 + A.window - 1
        H = evaluate(A, y.shift(-n), n) @ np.linalg.inv(evaluate(A, x.shift(-n), n))
        return HolonomyResult(H, n, 0.0)
    return _series_holonomy(A, x, y, -1, tol)


def holonomy_constants(A: CocycleSpec):
    """(C1, rate) with ||holonomy - id|| <= C1 d(x, y)^nu for asymptotic pairs.

    nu is the bump exponent (1 when locally constant).  rate is the per-step
    contraction ratio*theta^nu used by the series bound; C1 folds the bump
    Hoelder constant and the inverse-norm envelope.
    """
    nu = A.perturbation.nu if A.perturbation is not None else 1.0
    sup_a, sup_inv = A.norm_envelope()
    rate = sup_a * sup_inv * A.base.theta**nu
    if rate >= 1.0:
        dom = A._domination
        if not dom.dominated:
            return (np.inf, rate) if not A.is_locally_constant else (0.0, rate)
        rate = (1.0 - dom.margin) ** (1.0 / dom.power)
    hold = A.bump_hoelder_constant()
    c1 = sup_inv * hold / (1.0 - rate) if rate < 1.0 else np.inf
    return c1, rate


# ---------------------------------------------------------------------------
# homoclinic transitions and simplicity
# ---------------------------------------------------------------------------

def psi_transition(A: CocycleSpec, p: SymbolicPoint, z: SymbolicPoint, exit_time: int) -> np.ndarray:
    """Transition matrix at p through its homoclinic point z: the stable
    holonomy pulled back through the exit composed with the unstable holonomy.

    Requires shift(z, exit_time) to agree with p itself on all i >= 0, i.e.
    a phase-aligned exit; anything else raises the misaligned-exit error.
    """
    if not p.is_periodic:
        raise ValueError("base point must be periodic")
    ell = p.period
    N = exit_time
    if N % ell != 0:
        raise ValueError("misaligned exit time")
    zN = z.shift(N)
    B, same = zN.agreement(p)
    if not same[0, : B + 1].all():
        raise ValueError("misaligned exit time")
    phi_u = unstable_holonomy(A, p, z)
    phi_s_loc = stable_holonomy(A, zN, p.shift(N))
    Ap = evaluate(A, p, N)
    Az = evaluate(A, z, N)
    return np.linalg.solve(Ap, phi_s_loc.matrix @ Az) @ phi_u.matrix


def periodic_eigendata(A: CocycleSpec, p: SymbolicPoint):
    """(return matrix, SpectrumRecord) over one period at p."""
    if not p.is_periodic:
        raise ValueError("base point must be periodic")
    M = evaluate(A, p, p.period)
    return M, la.sorted_spectrum(M)


PINCHING_GAP_TOL = 1e-9


def _pinched(rec: la.SpectrumRecord) -> bool:
    """Real spectrum with pairwise distinct moduli (relative gap tol)."""
    return rec.all_real() and rec.min_relative_gap() > PINCHING_GAP_TOL


def pinching_check(A: CocycleSpec, p: SymbolicPoint) -> bool:
    """Real return spectrum with pairwise distinct moduli (relative gap tol)."""
    return _pinched(periodic_eigendata(A, p)[1])


def _normalized_eigenbasis(M: np.ndarray) -> np.ndarray | None:
    """Real eigenbasis of la._eigenspaces ordered by decreasing modulus,
    unit length, first nonzero coordinate positive; None unless M is
    semisimple with real eigenvalues more than CLUSTER_TOL apart."""
    try:
        spaces = sorted(la._eigenspaces(M), key=lambda sp: -abs(sp[0]))
    except la.DegenerateSpectrumError:
        spaces = []
    if len(spaces) < M.shape[0]:
        return None
    cols = []
    for _, V in spaces:
        v = V[:, 0]
        v = v / np.linalg.norm(v)
        nz = np.argmax(np.abs(v) > 1e-10)
        if v[nz] < 0:
            v = -v
        cols.append(v)
    Q = np.column_stack(cols)
    if abs(np.linalg.det(Q)) < 1e-12:
        raise ArithmeticError("eigenbasis is numerically singular")
    return Q


@dataclass(frozen=True)
class SimplicityReport:
    pinching: bool
    twisting: bool
    verdict: bool
    psi: np.ndarray | None


def simplicity_check(A: CocycleSpec, p_word, bridge) -> SimplicityReport:
    """Pinching at the periodic word plus twisting of the bridge transition,
    the two halves of the simplicity criterion for the periodic pair.
    Pinching also needs the eigenbasis twisting is read in: a return matrix
    whose eigenvalues cluster (la.CLUSTER_TOL), or a defective one, is not
    pinched."""
    p = periodic_point(A.base, p_word)
    z, N = homoclinic_point(A.base, parse_word(p_word), parse_word(bridge))
    M, rec = periodic_eigendata(A, p)
    Q = _normalized_eigenbasis(M) if _pinched(rec) else None
    if Q is None:
        return SimplicityReport(False, False, False, None)
    psi_eig = np.linalg.solve(Q, psi_transition(A, p, z, N) @ Q)
    ok, _ = la.twisting_check(psi_eig)
    return SimplicityReport(pinching=True, twisting=ok, verdict=ok, psi=psi_eig)


# ---------------------------------------------------------------------------
# structured perturbations
# ---------------------------------------------------------------------------

def cylinder_perturb(A: CocycleSpec, word, G, constraint: str | None = None) -> CocycleSpec:
    """Post-compose the generator on one cylinder word with G."""
    w = parse_word(word)
    if w not in A.generator:
        raise ValueError(f"word {word!r} is not a generator cylinder")
    G = la.check_invertible(G)
    if constraint == "symplectic" and not la.is_symplectic(G):
        raise ValueError("perturbation violates the symplectic constraint")
    gen = dict(A.generator)
    gen[w] = G @ gen[w]
    return CocycleSpec(A.base, A.window, gen, A.perturbation)


@dataclass(frozen=True)
class RotationFamily:
    """One-parameter family rotating an invariant conformal block of the
    return matrix at the support cylinder; at(0) is the base cocycle."""

    base_cocycle: CocycleSpec
    support_word: tuple
    theta0: float
    basis: np.ndarray            # basis of the return matrix adapted to the constraint
    planes: tuple                # column pairs of the basis that the block spans
    orientation: float           # sign making arg(lam) increase with s

    def insertion(self, s: float) -> np.ndarray:
        a = s * self.theta0 * self.orientation
        c_, s_ = np.cos(a), np.sin(a)
        R = np.eye(self.base_cocycle.dim)
        for plane in self.planes:
            R[np.ix_(plane, plane)] = [[c_, s_], [-s_, c_]]
        W = self.basis
        return W @ R @ np.linalg.inv(W)

    def at(self, s: float) -> CocycleSpec:
        if s == 0.0:
            return self.base_cocycle
        return cylinder_perturb(self.base_cocycle, self.support_word, self.insertion(s))


def rotation_perturb_family(A: CocycleSpec, p_word, theta0: float) -> RotationFamily:
    """Family A_s inserting a rotation by s*theta0 of the first complex
    eigenplane of the return matrix, in decreasing modulus, applied on the
    support cylinder: the first A.window symbols of the periodic word.

    The plane is a block of the real Jordan basis or, for symplectic-valued
    cocycles, of a symplectic block basis, where the rotation turns the
    e-plane and its dual f-plane together (a unit pair's (e_i, f_i) plane)
    so every A_s stays symplectic.  The block argument at p moves
    continuously in s, exactly linearly in the conformal commuting case.
    """
    p = periodic_point(A.base, p_word)
    M, rec = periodic_eigendata(A, p)
    pairs = rec.complex_pairs
    if not pairs:
        raise ValueError("return matrix has real spectrum: no conformal block to rotate")
    lam = pairs[0]
    symplectic = all(la.is_symplectic(G) for G in A.generator.values())
    W, blocks = la._adapted_blocks(M, symplectic)
    _, e, f, _ = min(blocks, key=lambda b: abs(b[3] - lam))
    planes = tuple((e + f)[k:k + 2] for k in range(0, len(e + f), 2))
    # the off-diagonal entry of the return block on its first plane carries
    # the sign of Im(lam)
    off = np.linalg.solve(W, M @ W)[planes[0]]
    return RotationFamily(A, tuple(p.word_array(0, A.window).tolist()), theta0, W, planes,
                          1.0 if off >= 0 else -1.0)
