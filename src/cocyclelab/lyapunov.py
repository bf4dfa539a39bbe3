"""Lyapunov spectra of sampled cocycle orbits via blocked QR accumulation.

Two stages.  The block stage builds the step matrices of a sampled path
_CHUNK_BLOCKS whole blocks at a time (path_matrices over a range of steps)
and tree-reduces each chunk into short block products with per-matrix
scale tracking, so a path's T x d x d step matrices are never held at
once.  On a locally constant cocycle a block's h-step sub-blocks repeat
(a window-1 cocycle on the full 2-shift has at most 2^8 distinct 8-step
ones), so the tree reduces each distinct sub-block of a chunk once and
gathers; every product and scale is still the one the whole-path tree
reduction forms from that sub-block's own steps, so no bit moves.  The
recurrence then runs contiguous segments of blocks in lockstep, one
batched QR per step, in two phases: every segment from the identity at its
own start, then each segment's end frame on into the next segment until it
meets that segment's own frame bit for bit (see qr_spectrum).  Each batched
QR is the two LAPACK gufuncs of np.linalg.qr called bare, with the same
bits and little Python around them, so pool threads running several
spectra spend most of the recurrence in LAPACK, outside the GIL.  Block
length adapts to the per-step conditioning so block products never exceed
a safe condition number before re-orthonormalization.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, replace

import numpy as np
# the LAPACK gufuncs behind np.linalg.qr, called bare by _qr_step
from numpy.linalg import _umath_linalg

from . import linalg as la
from .cocycles import CocycleSpec
from .shifts import MarkovMeasure, window_code

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
    # deterministic work counters of qr_spectrum: lockstep segments, the
    # sub-blocks (or whole blocks) the block stage reduced from steps, and
    # the blocks phase 2 re-ran before a seam's frames met
    segments: int | None = None
    reduced_blocks: int | None = None
    seam_blocks: int | None = None


def _adaptive_block(A: CocycleSpec, n_steps: int) -> int:
    sup_a, sup_inv = A.norm_envelope()
    log_cond = max(np.log(sup_a * sup_inv), 0.05)
    B = 1
    while B * 2 * log_cond <= MAX_BLOCK_LOG_COND and B < 64:
        B *= 2
    while B > 1 and n_steps // B < 4 * DEFAULT_BATCHES:
        B //= 2
    return B


def _tree_level(P: np.ndarray):
    """One level of the tree reduction on P (n, width, d, d): the pair
    products, scaled in place by their max |entry| (one copy of P, not
    two).  Returns (P, log scales (n, width / 2))."""
    P = P[:, 1::2] @ P[:, 0::2]
    s = np.maximum(P.max(axis=(2, 3)), -P.min(axis=(2, 3)))
    s = np.maximum(s, 1e-300)
    P /= s[..., None, None]
    return P, np.log(s)


def _shared_tree(sub: np.ndarray, inverse: np.ndarray | None, n: int):
    """Tree reduction of n blocks of B steps whose consecutive h-step
    sub-blocks are sub[inverse], sub (K, h, d, d); inverse None: sub itself,
    in order.  The levels up to h run on the K distinct sub-blocks only;
    their products and each level's log scales are then gathered, and the
    log scales summed per block level by level on (n, B / 2^l) arrays, the
    sums the whole-path tree reduction takes.  Every product and scale
    depends only on its own sub-block's steps, so the result is that
    reduction's bit for bit."""
    d = sub.shape[-1]
    levels = []
    while sub.shape[1] > 1:
        sub, level = _tree_level(sub)
        levels.append(level)
    if inverse is not None:
        sub, levels = sub[inverse], [level[inverse] for level in levels]
    P = sub.reshape(n, -1, d, d)
    logs = np.zeros(n)
    for level in levels:
        logs += level.reshape(n, -1).sum(axis=1)
    while P.shape[1] > 1:
        P, level = _tree_level(P)
        logs += level.sum(axis=1)
    return P[:, 0], logs


@dataclass(frozen=True)
class _PathSteps:
    """The step matrices of A along a symbol path, built a chunk at a time
    by chunk(a, b, B).  shape is that of the whole (T, d, d) array, which
    is never built."""

    A: CocycleSpec
    symbols: np.ndarray

    @property
    def shape(self):
        return (len(self.symbols) - self.A.window + 1, self.A.dim, self.A.dim)

    def sub_block(self, B: int) -> int:
        """Size h of the sub-blocks that blocks of B steps share.  On a
        locally constant cocycle an h-step sub-block reads h + w - 1
        symbols, so a chunk holds at most m^(h + w - 1) distinct ones; h is
        the power of two <= B that needs the fewest matrix products to
        reduce a full chunk, those distinct sub-blocks down to h and then
        every block from its B / h sub-blocks.  1 (nothing shared) for bump
        cocycles, whose steps read far-away symbols."""
        if not self.A.is_locally_constant:
            return 1
        m, w = self.A.base.alphabet_size, self.A.window

        def products(h):
            distinct = min(m ** (h + w - 1), _CHUNK_BLOCKS * B // h)
            return distinct * (h - 1) + _CHUNK_BLOCKS * (B // h - 1)

        return min((1 << j for j in range(B.bit_length())), key=products)

    def chunk(self, a: int, b: int, B: int):
        """Steps a to b - 1, whole blocks of B steps, as (sub, logdet,
        inverse): their consecutive h-step sub-blocks (h = sub_block(B))
        are sub[inverse], sub (K, h, d, d) holding each distinct one once,
        keyed by the symbols it reads.  With h = 1 inverse is None and sub
        is the (b - a) / B blocks in order."""
        mats, logdet = self.A.path_matrices(self.symbols, a, b)
        h = self.sub_block(B)
        if h == 1:
            sub, inverse = mats.reshape(-1, B, *mats.shape[1:]), None
        else:
            m, n = self.A.base.alphabet_size, (b - a) // h
            s = np.asarray(self.symbols[a : b + self.A.window - 1], dtype=np.int64)
            keys = window_code([s[j : j + n * h : h] for j in range(h + self.A.window - 1)], m)
            _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
            sub = mats.reshape(n, h, *mats.shape[1:])[first]
        return sub, logdet, inverse


def _block_products(chunk, nb: int, B: int, L: int = 1):
    """Block stage: the first nb blocks of B steps, _CHUNK_BLOCKS whole
    blocks at a time, chunk(a, b, B) giving steps a to b - 1 as _PathSteps
    .chunk does.  Returns (products (ceil(nb / L) L, d, d), logscale (nb,),
    logdet (nb B,), the number of sub-blocks reduced from their steps); the
    products past nb are identities, so the recurrence can view them as
    whole segments of L blocks.  Products and scales are those of the tree
    reduction of the whole path bit for bit: it reduces every block on its
    own, and _shared_tree reproduces it on each chunk."""
    reduced = 0
    for lo in range(0, nb, _CHUNK_BLOCKS):
        hi = min(lo + _CHUNK_BLOCKS, nb)
        sub, ld, inverse = chunk(lo * B, hi * B, B)
        d = sub.shape[-1]
        if lo == 0:
            prods, logs, logdet = np.empty((-(-nb // L) * L, d, d)), np.empty(nb), np.empty(nb * B)
            prods[nb:] = np.eye(d)
        prods[lo:hi], logs[lo:hi] = _shared_tree(sub, inverse, hi - lo)
        logdet[lo * B : hi * B] = ld
        reduced += len(sub)
    return prods, logs, logdet, reduced


def _qr_error(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def _lapack_qr(umath_linalg) -> tuple:
    """(geqrf, orgqr): the LAPACK gufuncs np.linalg.qr runs, by the names
    numpy 2 gives them (qr_r_raw, qr_reduced).  numpy 1 splits geqrf into
    qr_r_raw_m and qr_r_raw_n, so importing this module fails there with
    an ImportError naming the numpy it needs."""
    try:
        return umath_linalg.qr_r_raw, umath_linalg.qr_reduced
    except AttributeError:
        raise ImportError(
            f"cocyclelab needs numpy >= 2.0: numpy {np.__version__} has no LAPACK "
            "QR gufuncs qr_r_raw and qr_reduced") from None


_GEQRF, _ORGQR = _lapack_qr(_umath_linalg)


def _qr_step(M: np.ndarray) -> np.ndarray:
    """Q of the QR factorisation of the stack M (n, d, d), leaving R in M's
    upper triangle: the two LAPACK gufuncs np.linalg.qr runs (geqrf in
    place, then orgqr), without its checks, copy, triu and two errstate
    contexts, so Q and R are its bits.  Call it under _lockstep_qr's
    errstate, which is np.linalg.qr's."""
    return _ORGQR(M, _GEQRF(M))


@np.errstate(call=_qr_error, invalid="call", over="ignore", divide="ignore", under="ignore")
def _lockstep_qr(prods: np.ndarray, nb: int, L: int):
    """|R_ii| of every block of the QR recurrence over the first nb blocks
    of prods (S L, d, d), cut into S segments of L blocks (the last may
    hold fewer than L of the nb), as (nb, d), and the number of blocks
    phase 2 re-ran.  See qr_spectrum."""
    d = prods.shape[-1]
    S = len(prods) // L
    # phase 1: every segment from the identity at its own first block,
    # block j of all segments read as one strided view; the frames after
    # 1, 2, 4, ... blocks are the checkpoints
    segments = prods.reshape(S, L, d, d)
    Q = np.broadcast_to(np.eye(d), (S, d, d))
    diag = np.empty((S, L, d))
    checkpoints = {}
    for j in range(L):
        M = segments[:, j] @ Q
        Q = _qr_step(M)
        np.abs(np.diagonal(M, axis1=1, axis2=2), out=diag[:, j])
        if j & (j + 1) == 0:
            checkpoints[j + 1] = Q.view(np.int64)
    # phase 2: each segment's end frame runs on into the next segment (seg:
    # the segment each row re-runs) until it equals that segment's phase-1
    # frame bit for bit, from where on both runs compute the same blocks
    diag = diag.reshape(S * L, d)
    seg, Q = np.arange(1, S), Q[:-1]
    rerun = 0
    for j in range(L):
        blk = seg * L + j
        inside = blk < nb
        seg, Q, blk = seg[inside], Q[inside], blk[inside]
        if not len(seg):
            break
        M = prods[blk] @ Q
        Q = _qr_step(M)
        diag[blk] = np.abs(np.diagonal(M, axis1=1, axis2=2))
        rerun += len(seg)
        if j + 1 in checkpoints:
            apart = (Q.view(np.int64) != checkpoints[j + 1][seg]).any(axis=(1, 2))
            seg, Q = seg[apart], Q[apart]
    return diag[:nb], rerun


def qr_spectrum(mats: _PathSteps, block_size: int, n_batches: int = DEFAULT_BATCHES) -> LyapunovEstimate:
    """Blocked QR estimate from the step matrices along one path.

    mats is a _PathSteps, which builds the step matrices and their log|det|
    a chunk at a time.  block_size must be a positive power of two, and the
    path must hold at least n_batches >= 2 blocks of it, one stderr batch
    of blocks each.  The block stage (_block_products)
    reduces the first nb = T // block_size blocks, and the recurrence below
    runs over the (nb, d, d) products and their log scales.  A locally
    constant cocycle reduces each distinct h-step sub-block of a chunk once
    (reduced_blocks counts them; otherwise it counts the nb blocks); a bump
    cocycle reduces every block from its own steps.  The products and
    scales are those of the whole-path tree reduction either way, bit for
    bit.

    The nb block products are cut into S contiguous segments of L blocks
    (the last may be shorter), with S at most _MAX_SEGMENTS_PER_BATCH *
    n_batches and every segment at least _MIN_SEGMENT_STEPS steps long; a
    path shorter than two such segments is one segment (S = 1).  segments
    in the result counts them, ceil(nb / L), which may be below S.  The
    recurrence (_lockstep_qr) runs in two lockstep phases, one batched QR
    per step (_qr_step: np.linalg.qr's own geqrf and orgqr, so its bits).
    Phase 1 starts every segment from the identity frame at its own first
    block and runs L steps, reading block j of every segment as one strided
    view of the products, which the block stage pads to whole segments with
    identities (the rows past nb are discarded).  Segment 0's log|R_ii|
    are final; the
    others' stay until phase 2 overwrites them.  The frames after 1, 2, 4,
    8, ... blocks are saved as checkpoints.  Phase 2 carries segment c's
    phase-1 end frame on into segment c + 1, one stack row per seam, and
    overwrites that segment's log|R_ii|.  A row leaves the stack at the
    first checkpoint where its frame equals segment c + 1's phase-1 frame
    bit for bit (as int64 words, so 0.0 and -0.0 differ).  From that block
    on both runs take the same QR of the same matrix, so the phase-1 values
    left in place are the ones the row would compute.  A row whose frames
    never meet runs to the end of its segment.  seam_blocks counts the
    blocks phase 2 ran; the two phases take at most 2L steps.  So every
    segment c >= 1 starts from the frame segment c - 1 reaches from the
    identity at its own first block, a warm-up of one segment, bit for bit
    whether or not its seam meets.  Each stderr batch sums its blocks'
    log|R_ii| in order, as one sequential recurrence over all blocks would.

    The frame forgets its start at the rate of the smallest gap between
    distinct exponents (Benettin et al. 1980; Ershov and Potapov 1998),
    and QR of M D, D a diagonal sign matrix, has the same Q as QR of M.
    Once a warmed-up frame equals the sequential one to the last bit the
    two runs stay equal, and exponents and stderr are those of the
    sequential recurrence bit for bit; on well-separated spectra this
    happens inside the warm-up, and for S = 1 there is nothing to warm up.
    Otherwise the result moves by the frame's own rounding.  The same gap
    sets how soon a seam meets: within a few blocks on well-separated
    spectra, never where exponents are equal.

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
    T = mats.shape[0]
    B = operator.index(block_size)
    if B < 1 or B & (B - 1):
        raise ValueError(f"block size must be a positive power of two, got {B}")
    if n_batches < 2:
        raise ValueError(f"need at least two stderr batches, got {n_batches}")
    nb = T // B
    if nb < n_batches:
        raise ValueError(f"path of {T} steps holds fewer than {n_batches} blocks of {B}")
    S = min(_MAX_SEGMENTS_PER_BATCH * n_batches, nb // -(-_MIN_SEGMENT_STEPS // B))
    L = nb if S < 2 else -(-nb // S)
    prods, logs, logdet, reduced = _block_products(mats.chunk, nb, B, L)
    used = nb * B
    diag, seam_blocks = _lockstep_qr(prods, nb, L)
    terms = np.log(diag) + logs[:, None]
    # block i falls in stderr batch i * n_batches // nb, which starts at
    # block bounds[b]
    bounds = -(-np.arange(n_batches + 1) * nb // n_batches)
    batch_sums = np.array([np.cumsum(terms[a:b], axis=0)[-1]
                           for a, b in zip(bounds[:-1], bounds[1:])])
    total = batch_sums.sum(axis=0)
    exponents = total / used
    means = batch_sums / (B * np.diff(bounds))[:, None]
    stderr = means.std(axis=0, ddof=1) / np.sqrt(n_batches)
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
        segments=-(-nb // L),
        reduced_blocks=reduced,
        seam_blocks=seam_blocks,
    )


def lyapunov_qr(A: CocycleSpec, mu: MarkovMeasure, n_steps: int, seed: int) -> LyapunovEstimate:
    """Sample a mu-orbit of the base shift once and run the blocked QR over
    its steps, built a chunk at a time."""
    if n_steps < MIN_STEPS:
        raise ValueError(f"need at least {MIN_STEPS} steps for a stable estimate")
    path = _PathSteps(A, mu.sample_orbit(n_steps + A.window - 1, seed))
    est = qr_spectrum(path, _adaptive_block(A, n_steps))
    mult = tuple(multiplicity_cluster(est.exponents, n_steps=est.n_steps))
    return replace(est, multiplicities=mult)


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
        logs.extend([np.log(r), np.log(r)])
        i += 2
    return np.asarray(logs)


def _commuting_block_logs(generators: dict):
    """Per-word log moduli after a shared real block-diagonalizing change of
    basis, for pairwise commuting generator families; None if unavailable.

    The basis is the real Jordan basis of one random combination of the
    generators, which fails only for a defective family.  Commuting
    generators are polynomials in a combination with distinct eigenvalues,
    so they are block-conformal in that basis, but a block at the
    tolerance of an ill-conditioned basis cannot be read."""
    mats = list(generators.values())
    scale = max(1.0, max(float(np.abs(M).max()) for M in mats))
    for M, N in itertools.combinations(mats, 2):
        if np.abs(M @ N - N @ M).max() > 1e-9 * scale**2:
            return None
    rng = np.random.default_rng(0)
    combo = sum(float(c) * M for c, M in zip(rng.normal(size=len(mats)), mats))
    try:
        W, _ = la._real_jordan_basis(combo)
    except (ValueError, np.linalg.LinAlgError):
        return None
    Winv = np.linalg.inv(W)
    cond = float(np.linalg.cond(W))
    logs = {}
    for word, G in generators.items():
        blocks = _conformal_blocks(Winv @ G @ W, tol_factor=1e-10 * cond)
        if blocks is None:
            return None
        logs[word] = blocks
    return logs


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
