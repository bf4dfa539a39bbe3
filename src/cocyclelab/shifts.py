"""Subshifts of finite type, eventually periodic points, Markov and Gibbs measures.

Points are stored exactly as (left period, core, right period, core offset),
so metric evaluations, orbit comparisons and holonomy base points involve no
floating error in the symbolic part.  Words are tuples of small ints; string
spellings use digits then lowercase letters (alphabets up to 36).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_SYMS = "0123456789abcdefghijklmnopqrstuvwxyz"
# vectorized passes of sample_orbit before its sequential walk, and the
# share of the open steps a pass must resolve for the next pass to run
_SAMPLER_PASSES = 6
_SAMPLER_MIN_SHARE = 0.25


def parse_word(word) -> tuple:
    """Normalize a word given as a string, an int sequence, or a tuple."""
    if isinstance(word, str):
        try:
            return tuple(_SYMS.index(ch) for ch in word)
        except ValueError:
            raise ValueError(f"unknown symbol in word {word!r}") from None
    return tuple(int(s) for s in word)


def spell_word(word) -> str:
    return "".join(_SYMS[s] for s in word)


def _primitive(word: tuple) -> tuple:
    """Smallest cyclic root of a word."""
    n = len(word)
    for p in range(1, n):
        if n % p == 0 and word == word[:p] * (n // p):
            return word[:p]
    return word


@dataclass(frozen=True, eq=False)
class SftSpec:
    """Alphabet size, allowed-transition matrix and base contraction rate."""

    alphabet_size: int
    transitions: np.ndarray
    theta: float

    def __eq__(self, other):
        return (
            self.alphabet_size == other.alphabet_size
            and self.theta == other.theta
            and np.array_equal(self.transitions, other.transitions)
        )

    def __post_init__(self):
        m = self.alphabet_size
        T = np.asarray(self.transitions, dtype=int)
        if T.shape != (m, m) or not np.isin(T, (0, 1)).all():
            raise ValueError("transitions must be an m x m 0/1 matrix")
        if (T.sum(axis=1) == 0).any() or (T.sum(axis=0) == 0).any():
            raise ValueError("transition matrix has an empty row or column")
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0, 1)")
        object.__setattr__(self, "transitions", T)

    @classmethod
    def full_shift(cls, m: int, theta: float = 0.5) -> "SftSpec":
        return cls(m, np.ones((m, m), dtype=int), theta)

    @classmethod
    def golden_mean(cls, theta: float = 0.5) -> "SftSpec":
        """Two symbols, the word 11 forbidden."""
        return cls(2, np.array([[1, 1], [1, 0]]), theta)

    @property
    def is_primitive(self) -> bool:
        m = self.alphabet_size
        power = np.eye(m, dtype=bool)
        T = self.transitions.astype(bool)
        for _ in range((m - 1) ** 2 + 1):
            power = power @ T
            if power.all():
                return True
        return False

    def is_allowed(self, i: int, j: int) -> bool:
        return bool(self.transitions[i, j])

    def word_admissible(self, word, cyclic: bool = False) -> bool:
        w = np.array(parse_word(word), dtype=np.int64)
        if ((w < 0) | (w >= self.alphabet_size)).any():
            return False
        if cyclic:
            w = np.append(w, w[:1])
        return bool(self.transitions[w[:-1], w[1:]].all())

    def admissible_words(self, length: int) -> list:
        """All admissible words of the given length, lexicographic order."""
        words = [(s,) for s in range(self.alphabet_size)]
        for _ in range(length - 1):
            words = [
                w + (s,)
                for w in words
                for s in range(self.alphabet_size)
                if self.is_allowed(w[-1], s)
            ]
        return words

    def window_table(self, length: int) -> tuple:
        """(words, lookup, successor): the admissible words of a length in
        lexicographic order; lookup[c] is the index of the word with window
        code c (-1 for an inadmissible word) and successor[i, b] that of
        words[i][1:] + (b,) (-1 where words[i][-1] -> b is forbidden).
        Built on first use and cached per length."""
        tables = self.__dict__.setdefault("_window_tables", {})
        if length not in tables:
            m = self.alphabet_size
            words = tuple(self.admissible_words(length))
            codes = np.array([window_code(w, m) for w in words], dtype=np.int64)
            lookup = np.full(m**length, -1, dtype=np.int64)
            lookup[codes] = np.arange(len(words))
            # words[i][1:] + (b,) codes as codes[i] // m + b m^(length - 1)
            after = lookup[codes[:, None] // m + np.arange(m) * m ** (length - 1)]
            successor = np.where(self.transitions[[w[-1] for w in words]] == 1, after, -1)
            lookup.flags.writeable = successor.flags.writeable = False
            tables[length] = words, lookup, successor
        return tables[length]

    def window_index(self, symbols, length: int) -> np.ndarray:
        """window_table(length) index of each window symbols[..., t : t + length]
        along the last axis; the symbols must lie in [0, m).  An inadmissible
        window raises ValueError naming the first one."""
        symbols = np.asarray(symbols, dtype=np.int64)
        n = symbols.shape[-1] - length + 1
        codes = window_code([symbols[..., j : j + n] for j in range(length)], self.alphabet_size)
        idx = self.window_table(length)[1][codes]
        if (idx < 0).any():
            raise ValueError("point visits inadmissible window " + str(tuple(
                sliding_window_view(symbols, length, axis=-1)[idx < 0][0].tolist())))
        return idx


def window_code(word, m: int):
    """Code sum_j s_j m^j of a window word, first symbol least significant;
    symbols given as arrays code many windows at once."""
    return sum(s * m**j for j, s in enumerate(word))


@dataclass(frozen=True, eq=False)
class SymbolicPoint:
    """Bi-infinite eventually periodic sequence.

    left repeats to -infinity and is aligned so left[-1] occupies index
    core_start - 1; core occupies [core_start, core_start + len(core));
    right repeats from core_start + len(core) onward.  Instances are
    canonical: periods primitive, core minimal, fully periodic points
    rotated so core_start = 0.
    """

    left: tuple
    core: tuple
    right: tuple
    core_start: int = 0

    def word_array(self, start: int, length: int) -> np.ndarray:
        """The symbols at [start, start + length) as an int64 array: the one
        reader of the (left, core, right, core_start) layout."""
        j = np.arange(start - self.core_start, start - self.core_start + length)
        nl, n = len(self.left), len(self.core)
        at = np.where(j < 0, j % nl, nl + np.where(j < n, j, n + (j - n) % len(self.right)))
        return np.array(self.left + self.core + self.right, dtype=np.int64)[at]

    def shift(self, k: int = 1) -> "SymbolicPoint":
        return make_point(self.left, self.core, self.right, self.core_start - k)

    @property
    def is_periodic(self) -> bool:
        return not self.core and self.left == self.right

    @property
    def period(self) -> int:
        if not self.is_periodic:
            raise ValueError("point is not periodic")
        return len(self.right)

    def agreement(self, other: "SymbolicPoint") -> tuple:
        """(B, same): the joint comparison bound B of the two points and the
        (2, 2B + 1) array with same[0, i] = (x_i == y_i) and same[1, i] =
        (x_-i == y_-i), from one word_array read of each point over
        [-2B, 2B].  Beyond B both points repeat their tails with the joint
        period, so agreement on [0, B] in both rows is equality, and
        agreement across [B, 2B] in one row decides asymptoticity there."""
        ext = max(
            abs(self.core_start) + len(self.core),
            abs(other.core_start) + len(other.core),
        )
        lcm_r = math.lcm(len(self.right), len(other.right))
        lcm_l = math.lcm(len(self.left), len(other.left))
        B = ext + 2 * max(lcm_r, lcm_l) + 4
        same = self.word_array(-2 * B, 4 * B + 1) == other.word_array(-2 * B, 4 * B + 1)
        return B, np.stack([same[2 * B :], same[2 * B :: -1]])

    def __eq__(self, other):
        B, same = self.agreement(other)
        return bool(same[:, : B + 1].all())

    __hash__ = None


def make_point(left, core, right, core_start: int = 0) -> SymbolicPoint:
    """Canonicalized eventually periodic point."""
    left = parse_word(left)
    core = parse_word(core)
    right = parse_word(right)
    if not left or not right:
        raise ValueError("periodic tails must be nonempty")
    left = _primitive(left)
    right = _primitive(right)
    # absorb core symbols that already match the periodic continuations
    while core and core[-1] == right[-1]:
        core = core[:-1]
        right = right[-1:] + right[:-1]
    while core and core[0] == left[0]:
        core = core[1:]
        left = left[1:] + left[:1]
        core_start += 1
    if not core:
        # fully periodic iff the left tail continues the right word backwards
        span = math.lcm(len(left), len(right))
        if left * (span // len(left)) == right * (span // len(right)):
            k = -core_start % len(right)
            rot = _primitive(right[k:] + right[:k])
            return SymbolicPoint(rot, (), rot, 0)
    return SymbolicPoint(left, core, right, core_start)


def check_point(spec: SftSpec, x: SymbolicPoint) -> SymbolicPoint:
    """Validate that every adjacent pair of x is an allowed transition."""
    lo = x.core_start - len(x.left) - 1
    s = x.word_array(lo, len(x.left) + len(x.core) + len(x.right) + 3)
    bad = np.flatnonzero(spec.transitions[s[:-1], s[1:]] == 0)
    if bad.size:
        raise ValueError(f"inadmissible transition {s[bad[0]]}->{s[bad[0] + 1]} at {lo + bad[0]}")
    return x


def metric(x: SymbolicPoint, y: SymbolicPoint, spec: SftSpec) -> float:
    """theta^N where N is the largest symmetric window radius of agreement.

    Zero for equal points; one when the points already differ at index 0.
    """
    B, same = x.agreement(y)
    differ = ~same[:, : B + 1].all(axis=0)
    return spec.theta ** int(np.argmax(differ)) if differ.any() else 0.0


def periodic_point(spec: SftSpec, word) -> SymbolicPoint:
    w = parse_word(word)
    if not w:
        raise ValueError("empty word")
    if not spec.word_admissible(w, cyclic=True):
        raise ValueError(f"word {spell_word(w)} is not cyclically admissible")
    return check_point(spec, make_point(w, (), w, 0))


def homoclinic_point(spec: SftSpec, p_word, bridge):
    """Point equal to p-tails on both sides with bridge inserted at [0, |bridge|).

    Returns (z, exit_time) where exit_time is |bridge| rounded up to a
    multiple of |p_word|; shift(z, exit_time) must agree with the periodic
    point of p_word on all i >= 0, or the bridge is rejected as misaligned.
    """
    p = parse_word(p_word)
    b = parse_word(bridge)
    if not b:
        raise ValueError("bridge must be nonempty")
    if not p:
        raise ValueError("empty periodic word")
    if len(b) % len(p) == 0 and b == p * (len(b) // len(p)):
        raise ValueError("bridge is a power of the periodic word")
    if not spec.word_admissible(p, cyclic=True):
        raise ValueError("periodic word is not cyclically admissible")
    if not spec.word_admissible(p + b + p):
        raise ValueError("bridge junction is not admissible")
    z = check_point(spec, make_point(p, b, p, 0))
    orbit = periodic_point(spec, p)
    if any(z == orbit.shift(k) for k in range(len(p))):
        raise ValueError("bridge reproduces the periodic orbit")
    exit_time = math.ceil(len(b) / len(p)) * len(p)
    B, same = z.shift(exit_time).agreement(orbit)
    if not same[0, : B + 1].all():
        raise ValueError("misaligned exit time")
    return z, exit_time


# ---------------------------------------------------------------------------
# Markov and Gibbs measures
# ---------------------------------------------------------------------------

def _perron(L: np.ndarray):
    """Leading eigenvalue with positive right and left eigenvectors."""
    eig, vec = np.linalg.eig(L)
    i = int(np.argmax(eig.real))
    lam = float(eig[i].real)
    r = vec[:, i].real
    eig_l, vec_l = np.linalg.eig(L.T)
    j = int(np.argmax(eig_l.real))
    l = vec_l[:, j].real
    if np.all(r < 0):
        r = -r
    if np.all(l < 0):
        l = -l
    if lam <= 0 or np.any(r <= 0) or np.any(l <= 0):
        raise ValueError("transfer matrix is not primitive enough for Perron data")
    return lam, r, l


@dataclass(frozen=True)
class MarkovMeasure:
    """Shift-invariant Markov measure."""

    spec: SftSpec
    P: np.ndarray                  # row-stochastic, supported on transitions
    pi: np.ndarray                 # stationary distribution

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        pi = np.asarray(self.pi, dtype=float)
        T = self.spec.transitions
        if (P < 0.0).any() or (pi < 0.0).any():
            raise ValueError("P and pi must have nonnegative entries")
        if np.any(P[T == 0] != 0.0):
            raise ValueError("stochastic matrix charges a forbidden transition")
        if not np.allclose(P.sum(axis=1), 1.0, atol=1e-10):
            raise ValueError("rows of P must sum to one")
        if not np.allclose(pi @ P, pi, atol=1e-10) or not np.isclose(pi.sum(), 1.0):
            raise ValueError("pi is not the stationary distribution of P")
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "pi", pi)

    def cylinder(self, word) -> float:
        """Measure of the cylinder fixing word at coordinates [0, len(word))."""
        w = parse_word(word)
        out = self.pi[w[0]]
        for a, b in zip(w, w[1:]):
            out *= self.P[a, b]
        return float(out)

    @cached_property
    def _step_table(self):
        """(start, edges, table, fixed) for sample_orbit.

        start is the cumulative stationary distribution.  From state s a
        draw u moves to the number of entries of the cumulative row s (its
        last entry set to 1) that are <= u.  For u in [edges[k - 1],
        edges[k]) that count is table[k, s], and 0 below edges[0]; the
        extra last column of table is -1, so an open state -1 stays open.
        fixed[k] is the next state when it is the same from every state,
        else -1."""
        cum = np.cumsum(self.P, axis=1)
        cum[:, -1] = 1.0
        edges = np.sort(cum, axis=None)
        m = len(cum)
        table = np.full((len(edges) + 1, m + 1), -1, dtype=np.int64)
        table[0, :m] = 0
        table[1:, :m] = (cum[None, :, :] <= edges[:, None, None]).sum(axis=2)
        same = (table[:, :m] == table[:, :1]).all(axis=1)
        fixed = np.where(same, table[:, 0], -1)
        return np.cumsum(self.pi), edges, table, fixed

    def sample_orbit(self, length: int, seed: int) -> np.ndarray:
        """Deterministic stationary sample path of the chain.

        Draws u = rng.random(length).  The start state inverts the
        stationary distribution at u[0]; step t moves from state s to the
        number of entries of the cumulative row s that are <= u[t].  Steps
        whose next state is the same from every state are fixed at once.
        The others are filled from their resolved predecessors in up to
        _SAMPLER_PASSES vectorized passes, each resolving the first open
        step of every run of open steps, and a sequential walk finishes
        the runs still open (rows that rarely agree, such as a nearly
        permuting P, leave long runs).  A pass that resolves less than
        _SAMPLER_MIN_SHARE of the open steps sends the rest to the walk at
        once: such runs are long, and further passes would each shorten
        them by one step.
        """
        if length < 1:
            raise ValueError(f"orbit length must be at least 1, got {length}")
        start, edges, table, fixed = self._step_table
        u = np.random.default_rng(seed).random(length)
        which = np.searchsorted(edges, u, side="right")
        out = fixed[which]
        s = int(np.searchsorted(start, u[0], side="right"))
        out[0] = min(s, self.spec.alphabet_size - 1)
        todo = np.flatnonzero(out < 0)
        for _ in range(_SAMPLER_PASSES):
            if not todo.size:
                return out
            out[todo] = table[which[todo], out[todo - 1]]
            open_before = todo.size
            todo = todo[out[todo] < 0]
            if todo.size > (1.0 - _SAMPLER_MIN_SHARE) * open_before:
                break
        # an open predecessor is the previous entry of todo, walked just before
        rows = table.tolist()
        walked = []
        for p, k in zip(out[todo - 1].tolist(), which[todo].tolist()):
            s = rows[k][s if p < 0 else p]
            walked.append(s)
        out[todo] = walked
        return out


def parry_measure(spec: SftSpec) -> MarkovMeasure:
    """Measure of maximal entropy: the equilibrium state of the zero potential."""
    return gibbs_locally_constant(spec, np.zeros((spec.alphabet_size,) * 2))


def gibbs_locally_constant(spec: SftSpec, phi) -> MarkovMeasure:
    """Equilibrium state of a two-coordinate potential phi(x) = phi(x_0, x_1).

    phi may be an m x m array or a dict keyed by (i, j) or two-symbol words.
    The tilted transfer matrix L_ij = T_ij exp(phi_ij) yields a Markov
    measure through its Perron eigendata.
    """
    if not spec.is_primitive:
        raise ValueError("transition matrix must be primitive")
    m = spec.alphabet_size
    if isinstance(phi, dict):
        mat = np.zeros((m, m))
        for key, val in phi.items():
            i, j = parse_word(key) if isinstance(key, str) else key
            mat[i, j] = float(val)
        phi = mat
    phi = np.asarray(phi, dtype=float)
    if phi.shape != (m, m):
        raise ValueError("potential must assign a value to each transition")
    T = spec.transitions.astype(float)
    L = T * np.exp(phi)
    lam, r, l = _perron(L)
    P = L * r[None, :] / (lam * r[:, None])
    pi = l * r
    pi /= pi.sum()
    return MarkovMeasure(spec=spec, P=P, pi=pi)
