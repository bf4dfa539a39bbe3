"""Lyapunov spectra of sampled cocycle orbits via blocked QR accumulation.

Two stages.  The block stage builds the step matrices of a sampled path
_CHUNK_BLOCKS whole blocks at a time (path_matrices over a range of steps)
and tree-reduces each chunk into short block products with per-matrix
scale tracking, so a path's T x d x d step matrices are never held at
once.  The recurrence then runs contiguous segments of blocks in lockstep,
one batched QR per step, each later segment from a warm-up frame (see
qr_spectrum).  Block length adapts to the per-step conditioning so block
products never exceed a safe condition number before re-orthonormalization.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from math import comb

import numpy as np

from . import linalg as la
from .cocycles import CocycleSpec
from .shifts import MarkovMeasure

MAX_BLOCK_LOG_COND = 30.0
DEFAULT_BATCHES = 20
VOLUME_TOL = 1e-8
MIN_STEPS = 1000
# lockstep QR: at most this many segments per stderr batch, and every
# segment at least this many steps long
_MAX_SEGMENTS_PER_BATCH = 10
_MIN_SEGMENT_STEPS = 4096
# block stage: whole blocks built and tree-reduced at a time
_CHUNK_BLOCKS = 4096


@dataclass(frozen=True)
class LyapunovEstimate:
    exponents: np.ndarray        # descending
    stderr: np.ndarray
    n_steps: int
    block_size: int
    volume_residual: float       # |sum of exponents - mean log|det||
    multiplicities: tuple | None = None
    seed: int | None = None

    @property
    def dim(self) -> int:
        return len(self.exponents)


def _adaptive_block(A: CocycleSpec, n_steps: int, n_batches: int) -> int:
    sup_a, sup_inv = A.norm_envelope()
    log_cond = max(np.log(sup_a * sup_inv), 0.05)
    B = 1
    while B * 2 * log_cond <= MAX_BLOCK_LOG_COND and B < 64:
        B *= 2
    while B > 1 and n_steps // B < 4 * n_batches:
        B //= 2
    return B


def _tree_reduce(mats: np.ndarray, B: int):
    """Collapse rows of (nb, B, d, d) into normalized block products.

    Returns (products (nb, d, d), logscale (nb,)) with true product
    equal to products * exp(logscale)."""
    nb, width, d, _ = mats.shape
    P = mats
    logs = np.zeros(nb)
    while width > 1:
        P = P[:, 1::2] @ P[:, 0::2]
        width //= 2
        # max |entry| without an |P| temporary, and scaled in place: two
        # copies of P would double the peak memory of a chunk
        s = np.maximum(P.max(axis=(2, 3)), -P.min(axis=(2, 3)))
        s = np.maximum(s, 1e-300)
        P /= s[..., None, None]
        logs += np.log(s).sum(axis=1)
    return P[:, 0], logs


@dataclass(frozen=True)
class _PathSteps:
    """The step matrices of A along a symbol path, or their k-th exterior
    powers, built a chunk at a time: chunk(a, b) returns those of steps a
    to b - 1 and their log|det|.  shape is that of the whole (T, C, C)
    array, C = binom(d, k), which is never built."""

    A: CocycleSpec
    symbols: np.ndarray
    k: int = 1

    @property
    def shape(self):
        C = comb(self.A.dim, self.k)
        return (len(self.symbols) - self.A.window + 1, C, C)

    def chunk(self, a: int, b: int):
        mats, logdet = self.A.path_matrices(self.symbols, a, b)
        if self.k == 1:
            return mats, logdet
        return la.exterior_power(mats, self.k), logdet * comb(self.A.dim - 1, self.k - 1)


def _block_products(chunk, nb: int, B: int):
    """Block stage: the first nb blocks of B steps, _CHUNK_BLOCKS whole
    blocks at a time, chunk(a, b) giving the step matrices and log|det| of
    steps a to b - 1.  Returns (products (nb, d, d), logscale (nb,),
    logdet (nb B,)).  _tree_reduce reduces every block on its own, so the
    chunks change no bit of the result."""
    for lo in range(0, nb, _CHUNK_BLOCKS):
        hi = min(lo + _CHUNK_BLOCKS, nb)
        mats, ld = chunk(lo * B, hi * B)
        d = mats.shape[-1]
        if lo == 0:
            prods, logs, logdet = np.empty((nb, d, d)), np.empty(nb), np.empty(nb * B)
        prods[lo:hi], logs[lo:hi] = _tree_reduce(mats.reshape(hi - lo, B, d, d), B)
        logdet[lo * B : hi * B] = ld
    return prods, logs, logdet


def qr_spectrum(mats: np.ndarray | _PathSteps, logdet: np.ndarray | None, block_size: int, n_batches: int = DEFAULT_BATCHES) -> LyapunovEstimate:
    """Blocked QR estimate from the step matrices along one path.

    mats is the (T, d, d) array of step matrices and logdet their log|det|,
    or a _PathSteps (logdet None) that builds both a chunk at a time.
    Either way the block stage (_block_products) reduces the first nb =
    T // block_size blocks, and the recurrence below runs over the (nb, d,
    d) products and their log scales.

    The nb block products are cut into S contiguous segments of L blocks
    (the last may be shorter), with S at most _MAX_SEGMENTS_PER_BATCH *
    n_batches and every segment at least _MIN_SEGMENT_STEPS steps long; a
    path shorter than two such segments is one segment (S = 1).  Segment 0
    starts from the identity frame at block 0 and never warms up.  Every
    later segment starts from the identity one full segment early and
    discards those L warm-up blocks; segment 1's warm-up is segment 0's
    own run.  All segments advance together, one batched QR of an
    (S - 1, d, d) stack per step, at most 2L steps in all.  Each stderr
    batch sums its blocks' log|R_ii| in order, as one sequential recurrence
    over all blocks would.

    The frame forgets its start at the rate of the smallest gap between
    distinct exponents (Benettin et al. 1980; Ershov and Potapov 1998),
    and QR of M D, D a diagonal sign matrix, has the same Q as QR of M.
    Once a warmed-up frame equals the sequential one to the last bit the
    two runs stay equal, and exponents and stderr are those of the
    sequential recurrence bit for bit; on well-separated spectra this
    happens inside the warm-up, and for S = 1 there is nothing to warm up.
    Otherwise the result moves by the frame's own rounding.

    Where exponents are equal (conformal blocks) the frame never forgets
    its start.  Over a segment with product P, the sum of the top k
    log|R_ii| is the log k-volume of P applied to the first k columns of
    the starting frame, which lies between the sums of the k smallest and
    the k largest log singular values of P.  A segment start after the
    second therefore moves that sum by at most k log cond_2(P), and the
    sum of all d not at all (log|det P|), so it moves every exponent by
    at most (2d - 3) log cond_2(P) / n_steps (d >= 2).  For a conformal
    cocycle conjugated by W, cond_2(P) <= cond_2(W)^2 on every segment.
    """
    T, d, _ = mats.shape
    B = block_size
    nb = T // B
    if nb < 1:
        raise ValueError(f"path of {T} steps is shorter than one block of {B}")
    if n_batches < 1:
        raise ValueError(f"need at least one stderr batch, got {n_batches}")
    if nb < n_batches:
        n_batches = nb
    if isinstance(mats, _PathSteps):
        chunk = mats.chunk
    else:
        def chunk(a, b):
            return mats[a:b], logdet[a:b]
    prods, logs, logdet = _block_products(chunk, nb, B)
    used = nb * B
    S = min(_MAX_SEGMENTS_PER_BATCH * n_batches, nb // -(-_MIN_SEGMENT_STEPS // B))
    L = nb if S < 2 else -(-nb // S)
    # stack row c starts from the identity at block c L: row 0 runs
    # segments 0 and 1, row c > 0 warms up on segment c and keeps c + 1
    starts = np.arange(0, max(nb - L, 1), L)
    Q = np.broadcast_to(np.eye(d), (len(starts), d, d))
    diag = np.empty((nb, d))
    for j in range(min(2 * L, nb)):
        idx = np.minimum(starts + j, nb - 1)
        Q, R = np.linalg.qr(prods[idx] @ Q)
        keep = (starts + j < nb) & ((starts == 0) | (j >= L))
        diag[idx[keep]] = np.abs(np.diagonal(R[keep], axis1=1, axis2=2))
    terms = np.log(diag) + logs[:, None]
    # block i falls in stderr batch i * n_batches // nb, which starts at
    # block bounds[b]
    bounds = -(-np.arange(n_batches + 1) * nb // n_batches)
    batch_sums = np.array([np.cumsum(terms[a:b], axis=0)[-1]
                           for a, b in zip(bounds[:-1], bounds[1:])])
    total = batch_sums.sum(axis=0)
    exponents = total / used
    means = batch_sums / (B * np.diff(bounds))[:, None]
    if n_batches > 1:
        stderr = means.std(axis=0, ddof=1) / np.sqrt(n_batches)
    else:
        stderr = np.full(d, np.inf)
    # equal exponents leave the trailing QR diagonals ordered only up to
    # sampling noise; report the descending order statistics
    order = np.argsort(-exponents, kind="stable")
    exponents = exponents[order]
    stderr = stderr[order]
    vol = abs(float(exponents.sum() - logdet.mean()))
    return LyapunovEstimate(
        exponents=exponents,
        stderr=stderr,
        n_steps=used,
        block_size=B,
        volume_residual=vol,
    )


def _sampled_spectrum(A: CocycleSpec, mu: MarkovMeasure, n_steps: int, seed: int, n_batches: int):
    """Sample a mu-orbit once and run the blocked QR over its steps, built
    a chunk at a time.

    Returns (path, block_size, estimate) so callers can reuse the path."""
    if n_steps < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps for a stable estimate")
    path = _PathSteps(A, mu.sample_orbit(n_steps + A.window - 1, seed))
    B = _adaptive_block(A, n_steps, n_batches)
    return path, B, qr_spectrum(path, None, B, n_batches)


def lyapunov_qr(A: CocycleSpec, mu: MarkovMeasure, n_steps: int, seed: int, n_batches: int = DEFAULT_BATCHES) -> LyapunovEstimate:
    """Sample a mu-orbit of the base shift and accumulate the QR spectrum."""
    *_, est = _sampled_spectrum(A, mu, n_steps, seed, n_batches)
    mult = tuple(multiplicity_cluster(est.exponents, n_steps=est.n_steps))
    return replace(est, multiplicities=mult, seed=seed)


# ---------------------------------------------------------------------------
# closed-form oracles for structured generators
# ---------------------------------------------------------------------------

_STRUCT_TOL = 1e-12


def _is_upper_triangular(M: np.ndarray) -> bool:
    scale = max(1.0, float(np.abs(M).max()))
    return bool(np.all(np.abs(np.tril(M, -1)) <= _STRUCT_TOL * scale))


def _conformal_blocks(M: np.ndarray, tol_factor: float = _STRUCT_TOL):
    """Per-block log moduli if M is block diagonal with 1x1 and paired
    conformal 2x2 blocks on the standard axes; None otherwise."""
    d = M.shape[0]
    scale = max(1.0, float(np.abs(M).max()))
    tol = tol_factor * scale
    logs = []
    i = 0
    while i < d:
        off_row = np.abs(M[i, :]).sum() - np.abs(M[i, i : min(i + 2, d)]).sum()
        scalar_ok = (
            np.abs(np.delete(M[i, :], i)).max(initial=0.0) <= tol
            and np.abs(np.delete(M[:, i], i)).max(initial=0.0) <= tol
        )
        if scalar_ok:
            if abs(M[i, i]) <= tol:
                return None
            logs.append(np.log(abs(M[i, i])))
            i += 1
            continue
        if i + 1 >= d:
            return None
        blk = M[i : i + 2, i : i + 2]
        outside = np.abs(M[i : i + 2, :]).sum() + np.abs(M[:, i : i + 2]).sum() - 2 * np.abs(blk).sum()
        conformal = (
            outside <= 4 * tol
            and abs(blk[0, 0] - blk[1, 1]) <= tol
            and abs(blk[0, 1] + blk[1, 0]) <= tol
        )
        if not conformal:
            return None
        r = np.hypot(blk[0, 0], blk[0, 1])
        if r <= tol:
            return None
        logs.extend([np.log(r), np.log(r)])
        i += 2
    return np.asarray(logs)


def _commuting_block_logs(generators: dict):
    """Per-word log moduli after a shared real block-diagonalizing change of
    basis, for pairwise commuting generator families; None if unavailable."""
    mats = list(generators.values())
    scale = max(1.0, max(float(np.abs(M).max()) for M in mats))
    for M, N in itertools.combinations(mats, 2):
        if np.abs(M @ N - N @ M).max() > 1e-9 * scale**2:
            return None
    rng = np.random.default_rng(0)
    for _ in range(4):
        combo = sum(float(c) * M for c, M in zip(rng.normal(size=len(mats)), mats))
        try:
            W, _ = la._real_jordan_basis(combo)
        except (ValueError, np.linalg.LinAlgError):
            continue
        Winv = np.linalg.inv(W)
        cond = float(np.linalg.cond(W))
        logs = {}
        for word, G in generators.items():
            blocks = _conformal_blocks(Winv @ G @ W, tol_factor=1e-10 * cond)
            if blocks is None:
                break
            logs[word] = blocks
        else:
            return logs
    return None


def closed_form_oracle(A: CocycleSpec, mu: MarkovMeasure):
    """Exact frequency-weighted spectrum for generators that are
    simultaneously triangular or block-conformal (standard axes or any
    shared basis for commuting families).

    Only locally constant cocycles qualify (bump factors shift log moduli
    pointwise and have no finite closed form)."""
    if not A.is_locally_constant:
        raise ValueError("closed form requires a locally constant cocycle")
    if mu.spec is not A.base and mu.spec != A.base:
        raise ValueError("measure lives on a different shift")
    words = A.base.admissible_words(A.window)
    freqs = {w: mu.cylinder(w) for w in words}

    if all(_is_upper_triangular(G) for G in A.generator.values()):
        d = A.dim
        if all(np.abs(np.diag(G)).min() > 0 for G in A.generator.values()):
            per = np.zeros(d)
            for w, f in freqs.items():
                per += f * np.log(np.abs(np.diag(A.generator[w])))
            return np.sort(per)[::-1]

    blocks = {w: _conformal_blocks(A.generator[w]) for w in A.generator}
    if any(b is None for b in blocks.values()):
        blocks = _commuting_block_logs(A.generator)
    if blocks is not None:
        per = np.zeros(A.dim)
        for w, f in freqs.items():
            per += f * blocks[w]
        return np.sort(per)[::-1]
    raise ValueError("generators are not simultaneously block-diagonal")


def multiplicity_cluster(exponents: np.ndarray, n_steps: int | None = None, gap_tol: float | None = None) -> list:
    """Group a descending exponent list into clusters of nearly equal values.

    The default tolerance scales with the Monte Carlo resolution 1/sqrt(N)."""
    exponents = np.asarray(exponents, dtype=float)
    if gap_tol is None:
        if n_steps is None:
            raise ValueError("need either n_steps or an explicit gap tolerance")
        gap_tol = 10.0 / np.sqrt(n_steps)
    if np.any(np.diff(exponents) > 1e-12):
        raise ValueError("exponents must be sorted in descending order")
    sizes = [1]
    for i in range(1, len(exponents)):
        if exponents[i - 1] - exponents[i] < gap_tol:
            sizes[-1] += 1
        else:
            sizes.append(1)
    return sizes


# ---------------------------------------------------------------------------
# exterior-power consistency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExteriorCheck:
    k: int
    top_sum: float               # sum of the k largest base exponents
    exterior_top: float          # leading exponent of the k-th exterior power
    residual: float
    tolerance: float
    consistent: bool


def exterior_sum_check(A: CocycleSpec, mu: MarkovMeasure, k: int, n_steps: int, seed: int, n_batches: int = DEFAULT_BATCHES) -> ExteriorCheck:
    """Same-path comparison of sum of top-k exponents against the top
    exponent of the k-th exterior power."""
    d = A.dim
    if not (1 <= k <= d):
        raise ValueError("exterior order out of range")
    path, B, base = _sampled_spectrum(A, mu, n_steps, seed, n_batches)
    ext = qr_spectrum(replace(path, k=k), None, max(1, B // 2), n_batches)
    top_sum = float(base.exponents[:k].sum())
    ext_top = float(ext.exponents[0])
    tol = 3.0 * float(np.sqrt((base.stderr[:k] ** 2).sum()) + ext.stderr[0]) + 1e-6
    residual = abs(top_sum - ext_top)
    return ExteriorCheck(
        k=k,
        top_sum=top_sum,
        exterior_top=ext_top,
        residual=residual,
        tolerance=tol,
        consistent=residual <= tol,
    )
