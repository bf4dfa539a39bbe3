"""Suspension flows over subshifts.

Roof functions, periods of periodic words, exact height-polynomial
integrals of lifted measures, the time-change scalar linking discrete and
flow Lyapunov spectra, and the first-return cocycle of a flow cocycle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cocycles import CocycleSpec
from .shifts import MarkovMeasure, SftSpec, SymbolicPoint, parse_word

MIN_ROOF = 1e-3
MAX_POLY_DEGREE = 3
_REAL_POWER_TOL = 1e-10


@dataclass(frozen=True)
class RoofFunction:
    """Strictly positive locally constant return time, one value per
    admissible window-word."""

    base: SftSpec
    window: int
    values: dict

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least 1")
        vals = {parse_word(w): float(v) for w, v in self.values.items()}
        need = set(self.base.admissible_words(self.window))
        if set(vals) != need:
            raise ValueError("roof must assign a value to every admissible window-word")
        if min(vals.values()) < MIN_ROOF:
            raise ValueError(f"roof values must be at least {MIN_ROOF}")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class SuspensionSystem:
    base: SftSpec
    roof: RoofFunction

    def __post_init__(self):
        if self.roof.base != self.base:
            raise ValueError("roof is defined over a different base shift")


def period(sys: SuspensionSystem, p: SymbolicPoint, ell: int) -> float:
    """Total roof time over the ell steps from the periodic point p of a
    word (ell its length): one cyclic traversal of the word."""
    windows = sliding_window_view(p.word_array(0, ell + sys.roof.window - 1), sys.roof.window)
    return math.fsum(sys.roof.values[tuple(u)] for u in windows.tolist())


@dataclass(frozen=True)
class HeightPolynomial:
    """Function on the mapping torus, locally constant in the base point and
    polynomial of degree <= 3 in the height coordinate."""

    base: SftSpec
    window: int
    coeffs: dict          # word -> coefficient tuple (c0, c1, ...), low degree first

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("window must be at least 1")
        parsed = {}
        for w, c in self.coeffs.items():
            c = tuple(float(v) for v in np.atleast_1d(c))
            if len(c) > MAX_POLY_DEGREE + 1:
                raise ValueError(f"height polynomials have degree at most {MAX_POLY_DEGREE}")
            parsed[parse_word(w)] = c
        need = set(self.base.admissible_words(self.window))
        if set(parsed) != need:
            raise ValueError("coefficients required for every admissible window-word")
        object.__setattr__(self, "coeffs", parsed)

    def integral(self, word, height: float) -> float:
        """Exact integral of the height polynomial over [0, height]."""
        c = self.coeffs[parse_word(word)]
        return math.fsum(cj * height ** (j + 1) / (j + 1) for j, cj in enumerate(c))


def _refined(sys: SuspensionSystem, other_window: int):
    win = max(sys.roof.window, other_window)
    words = sys.base.admissible_words(win)
    return win, words


def roof_integral(mu: MarkovMeasure, roof: RoofFunction) -> float:
    """Mean return time: integral of the roof against the base measure."""
    return math.fsum(mu.cylinder(w) * v for w, v in sorted(roof.values.items()))


def lift_measure_integral(sys: SuspensionSystem, mu: MarkovMeasure, F: HeightPolynomial) -> float:
    """Integral of F against the lifted flow measure: cylinder-exact ratio of
    the fiberwise integral of F to the mean roof."""
    _, words = _refined(sys, F.window)
    rw, fw = sys.roof.window, F.window
    num = math.fsum(
        mu.cylinder(w) * F.integral(w[:fw], sys.roof.values[w[:rw]]) for w in words
    )
    return num / roof_integral(mu, sys.roof)


def time_change_scaling(discrete_exponents, mu: MarkovMeasure, roof: RoofFunction) -> np.ndarray:
    """Flow exponents from discrete ones: divide by the mean return time."""
    return np.asarray(discrete_exponents, dtype=float) / roof_integral(mu, roof)


# ---------------------------------------------------------------------------
# flow cocycles and their first-return reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowCocycle:
    """Flow cocycle in canonical form: a per-unit-time generator for each
    window-word; the action over a return interval is the matrix raised to
    the roof value."""

    system: SuspensionSystem
    window: int
    per_unit: dict

    def __post_init__(self):
        parsed = {}
        for w, M in self.per_unit.items():
            M = np.asarray(M, dtype=float)
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise ValueError("generators must be square matrices")
            parsed[parse_word(w)] = M
        need = set(self.system.base.admissible_words(self.window))
        if set(parsed) != need:
            raise ValueError("per-unit generator required for every admissible window-word")
        dims = {M.shape[0] for M in parsed.values()}
        if len(dims) != 1:
            raise ValueError("generators must share one dimension")
        object.__setattr__(self, "per_unit", parsed)


def _real_power(M: np.ndarray, t: float) -> np.ndarray:
    k = round(t)
    if abs(t - k) < 1e-12 and k >= 0:
        return np.linalg.matrix_power(M, int(k))
    from scipy.linalg import fractional_matrix_power

    G = fractional_matrix_power(M, t)
    scale = max(1.0, np.max(np.abs(G)))
    if np.max(np.abs(G.imag)) > _REAL_POWER_TOL * scale:
        raise ValueError("generator admits no real fractional power")
    return np.ascontiguousarray(G.real)


def return_cocycle(sys: SuspensionSystem, flow_cocycle: FlowCocycle) -> CocycleSpec:
    """First-return discrete cocycle: each refined window-word maps to the
    per-unit generator raised to its roof value."""
    win, words = _refined(sys, flow_cocycle.window)
    rw, fw = sys.roof.window, flow_cocycle.window
    gen = {}
    for w in words:
        M = flow_cocycle.per_unit[w[:fw]]
        gen[w] = _real_power(M, sys.roof.values[w[:rw]])
    return CocycleSpec(sys.base, win, gen)
