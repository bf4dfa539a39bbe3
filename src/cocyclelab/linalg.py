"""Spectral and symplectic linear algebra for small real matrices.

Everything here works on plain numpy arrays of shape (d, d) with d small
(the rest of the package never needs d > 8).  Eigenvalue data is kept
complex; realness is decided by tolerance, never by dtype.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# Relative tolerance for treating an eigenvalue as real and for the
# pairwise-distinct-moduli (pinching) gap test.
REAL_TOL = 1e-9
# Residual allowed when checking that a matrix preserves a symplectic form.
SYMPLECTIC_TOL = 1e-8
# Relative floor below which a wedge coefficient counts as a twisting failure.
TWISTING_TOL = 1e-10
# |det M| below this (relative to norm^d) means M is unusable as a cocycle value.
INVERTIBILITY_TOL = 1e-12


class DegenerateSpectrumError(ValueError):
    pass


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


def check_invertible(M) -> np.ndarray:
    """Return M as an array, raising if it is singular at working precision."""
    M = _as_matrix(M)
    scale = max(1.0, float(np.linalg.norm(M))) ** M.shape[0]
    if abs(float(np.linalg.det(M))) <= INVERTIBILITY_TOL * scale:
        raise ValueError("non-invertible cocycle value")
    return M


@dataclass
class SpectrumRecord:
    """Eigenvalues sorted by decreasing modulus with deterministic tie-breaks."""

    eigenvalues: np.ndarray          # complex, length d
    moduli: np.ndarray               # |eigenvalues|
    moduli_gaps: np.ndarray          # length d-1, consecutive modulus gaps
    is_real: np.ndarray              # bool per eigenvalue

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def all_real(self) -> bool:
        return bool(np.all(self.is_real))

    def min_relative_gap(self) -> float:
        """Smallest consecutive modulus gap relative to the larger modulus."""
        scale = np.maximum(self.moduli[:-1], 1e-300)
        return float(np.min(self.moduli_gaps / scale))


def sorted_spectrum(M) -> SpectrumRecord:
    """Eigenvalues of M sorted by decreasing modulus.

    Ties in modulus are broken deterministically: real eigenvalues first,
    then increasing argument in [0, pi]; within a conjugate pair the
    positive-imaginary member comes first.
    """
    M = check_invertible(M)
    eig = np.linalg.eigvals(M)
    mod = np.abs(eig)
    real = np.abs(eig.imag) <= REAL_TOL * np.maximum(1.0, mod)
    # abs(arg) lands complex-conjugate partners on the same key; the final
    # -imag component orders the pair itself.
    keys = sorted(
        range(len(eig)),
        key=lambda i: (-mod[i], 0 if real[i] else 1, abs(np.angle(eig[i])), -eig[i].imag),
    )
    eig = eig[keys]
    mod = mod[keys]
    real = real[keys]
    eig = np.where(real, eig.real + 0j, eig)

    # log-volume consistency: sum of log-moduli must match log|det M|
    logdet = float(np.log(abs(np.linalg.det(M))))
    if abs(np.sum(np.log(mod)) - logdet) > 1e-8 * max(1.0, abs(logdet)):
        raise ArithmeticError("eigenvalue moduli inconsistent with determinant")
    return SpectrumRecord(
        eigenvalues=eig,
        moduli=mod,
        moduli_gaps=mod[:-1] - mod[1:],
        is_real=real,
    )


# ---------------------------------------------------------------------------
# symplectic structure
# ---------------------------------------------------------------------------

def standard_symplectic_form(n: int) -> np.ndarray:
    """The form pairing e_i with f_i in the (e_1..e_n, f_1..f_n) basis order."""
    omega = np.zeros((2 * n, 2 * n))
    omega[:n, n:] = np.eye(n)
    omega[n:, :n] = -np.eye(n)
    return omega


def is_symplectic(M, tol: float = SYMPLECTIC_TOL) -> bool:
    """Whether M preserves the standard symplectic form, up to tol."""
    M = _as_matrix(M)
    n = M.shape[0] // 2
    if M.shape[0] != 2 * n:
        return False
    omega = standard_symplectic_form(n)
    resid = M.T @ omega @ M - omega
    return float(np.max(np.abs(resid))) <= tol * max(1.0, float(np.max(np.abs(M))) ** 2)


@dataclass
class SymplecticBlock:
    """One invariant block of a symplectically diagonalized matrix.

    kind is 'real_pair' (eigenvalues lam, 1/lam, one e-slot and one f-slot),
    'unit_pair' (unit-modulus conjugate pair living on one (e_i, f_i) plane)
    or 'quad' (lam, conj, 1/lam, 1/conj; a conformal e-plane and its dual
    f-plane).  Slot indices are 0-based positions into (e_1..e_n, f_1..f_n).
    """

    kind: str
    eigenvalues: tuple
    e_slots: tuple
    f_slots: tuple


@dataclass
class SymplecticBlockForm:
    P: np.ndarray                    # symplectic basis change, columns at slot order
    blocks: list = field(default_factory=list)


def _eig_partner(values, i, target, used, tol):
    """Index j (not used, != i) with values[j] closest to target, or None."""
    best, best_err = None, tol
    for j in range(len(values)):
        if j == i or j in used:
            continue
        err = abs(values[j] - target) / max(1.0, abs(target))
        if err < best_err:
            best, best_err = j, err
    return best


def symplectic_diagonalize(M) -> SymplecticBlockForm:
    """Real block diagonalization of a matrix preserving the standard
    symplectic form by a symplectic basis.

    Requires all eigenvalues distinct.  Eigenvalues are grouped into
    {lam, 1/lam} pairs and {lam, conj, 1/lam, 1/conj} quadruples; each group
    receives a symplectic sub-basis in which M acts by 1x1 entries or 2x2
    conformal blocks.  Raises on non-symplectic input, degenerate spectrum,
    or defective (non-semisimple) input.
    """
    M = _as_matrix(M)
    if M.shape[0] % 2:
        raise ValueError("symplectic matrices have even dimension")
    n = M.shape[0] // 2
    omega = standard_symplectic_form(n)
    if not is_symplectic(M):
        raise ValueError("matrix does not preserve the symplectic form")

    eig, vec = np.linalg.eig(M)
    for i in range(len(eig)):
        for j in range(i + 1, len(eig)):
            if abs(eig[i] - eig[j]) <= 1e-8 * max(1.0, abs(eig[i])):
                raise DegenerateSpectrumError("degenerate spectrum")

    def omega_c(u, v):
        return complex(u @ omega @ v)

    match_tol = 1e-6
    used = set()
    groups = []  # (kind, [(lam, v), ...]) with the expanding member first
    order = sorted(range(2 * n), key=lambda i: (-abs(eig[i]), -eig[i].imag))
    for i in order:
        if i in used:
            continue
        lam = eig[i]
        mod = abs(lam)
        real = abs(lam.imag) <= REAL_TOL * max(1.0, mod)
        if real:
            j = _eig_partner(eig.real if real else eig, i, 1.0 / lam.real, used, match_tol)
            if j is None:
                raise DegenerateSpectrumError("eigenvalue without reciprocal partner")
            used.update((i, j))
            groups.append(("real_pair", [(eig[i].real, vec[:, i]), (eig[j].real, vec[:, j])]))
        elif abs(mod - 1.0) <= match_tol:
            j = _eig_partner(eig, i, np.conj(lam), used, match_tol)
            if j is None:
                raise DegenerateSpectrumError("conjugate eigenvalue missing")
            used.update((i, j))
            groups.append(("unit_pair", [(eig[i], vec[:, i])]))
        else:
            jc = _eig_partner(eig, i, np.conj(lam), used, match_tol)
            ji = _eig_partner(eig, i, 1.0 / lam, used | ({jc} if jc is not None else set()), match_tol)
            if jc is None or ji is None:
                raise DegenerateSpectrumError("incomplete eigenvalue quadruple")
            jci = _eig_partner(eig, i, np.conj(1.0 / lam), used | {jc, ji}, match_tol)
            if jci is None:
                raise DegenerateSpectrumError("incomplete eigenvalue quadruple")
            used.update((i, jc, ji, jci))
            groups.append(("quad", [(eig[i], vec[:, i]), (eig[ji], vec[:, ji])]))

    # expanding side first, then unit pairs; deterministic slot assignment
    groups.sort(key=lambda g: -abs(g[1][0][0]))

    e_cols = [None] * n
    f_cols = [None] * n
    blocks = []
    slot = 0
    for kind, data in groups:
        if kind == "real_pair":
            (lam, u), (lam2, w) = data
            u = np.real_if_close(u, tol=1e6).real
            w = np.real_if_close(w, tol=1e6).real
            c = float(u @ omega @ w)
            if abs(c) < 1e-12:
                raise DegenerateSpectrumError("isotropic eigenvector pairing")
            e_cols[slot] = u
            f_cols[slot] = w / c
            blocks.append(SymplecticBlock("real_pair", (lam, lam2), (slot,), (slot,)))
            slot += 1
        elif kind == "unit_pair":
            lam, v = data[0]
            x, y = v.real.copy(), v.imag.copy()
            c = float(x @ omega @ y)
            if abs(c) < 1e-12:
                raise DegenerateSpectrumError("isotropic eigenvector pairing")
            if c < 0:
                y, c = -y, -c
            s = np.sqrt(c)
            e_cols[slot] = x / s
            f_cols[slot] = y / s
            blocks.append(SymplecticBlock("unit_pair", (lam, np.conj(lam)), (slot,), (slot,)))
            slot += 1
        else:
            (lam, v), (lam_inv, w) = data
            x1, y1 = v.real.copy(), v.imag.copy()
            x2, y2 = w.real.copy(), w.imag.copy()
            c = omega_c(v, w) / 2.0
            r, phi = abs(c), np.angle(c)
            if r < 1e-12:
                raise DegenerateSpectrumError("isotropic eigenvector pairing")
            # dual-plane basis making the cross pairing the identity; the
            # change is conformal-antilinear so the block stays conformal
            f1 = (np.cos(phi) * x2 + np.sin(phi) * y2) / r
            f2 = (np.sin(phi) * x2 - np.cos(phi) * y2) / r
            e_cols[slot], e_cols[slot + 1] = x1, y1
            f_cols[slot], f_cols[slot + 1] = f1, f2
            blocks.append(
                SymplecticBlock(
                    "quad",
                    (lam, np.conj(lam), lam_inv, np.conj(lam_inv)),
                    (slot, slot + 1),
                    (slot, slot + 1),
                )
            )
            slot += 2
    assert slot == n

    P = np.column_stack(e_cols + f_cols)
    if not is_symplectic(P):
        raise ArithmeticError("constructed basis is not symplectic")
    B = np.linalg.solve(P, M @ P)

    # zero the structural off-block entries and verify the residual
    mask = np.zeros_like(B, dtype=bool)
    for b in blocks:
        for idx in (list(b.e_slots), [n + j for j in b.f_slots]):
            if b.kind == "unit_pair":
                idx = [b.e_slots[0], n + b.f_slots[0]]
            for r in idx:
                for c_ in idx:
                    mask[r, c_] = True
    resid = float(np.max(np.abs(np.where(mask, 0.0, B))))
    if resid > SYMPLECTIC_TOL * max(1.0, float(np.max(np.abs(M)))):
        raise ArithmeticError("block form residual too large")
    return SymplecticBlockForm(P=P, blocks=blocks)


def paired_rotation(theta: float, i: int, j: int, n: int) -> np.ndarray:
    """Rotation by theta of span(e_i, e_j) and span(f_i, f_j), identity elsewhere.

    Indices are 1-based with 1 <= i < j <= n.  Acting identically on the two
    planes makes the result exactly symplectic for the standard form.
    """
    if not (1 <= i < j <= n):
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    R = np.eye(2 * n)
    c, s = np.cos(theta), np.sin(theta)
    for a, b in ((i - 1, j - 1), (n + i - 1, n + j - 1)):
        R[a, a] = c
        R[b, b] = c
        R[a, b] = -s
        R[b, a] = s
    return R


# ---------------------------------------------------------------------------
# exterior powers and twisting
# ---------------------------------------------------------------------------

def wedge_basis(d: int, k: int) -> list:
    """Index sets of the lexicographic basis of the k-th exterior power."""
    return list(itertools.combinations(range(d), k))


def exterior_power(M, k: int) -> np.ndarray:
    """Matrix of the induced map on the k-th exterior power, lexicographic basis.

    M may be a single matrix (d, d) or a stack (..., d, d); the result has
    shape (..., C, C) with C = binom(d, k).  Entry (I, J) is the minor
    det M[I, J], taken with one det call per index-set pair over the whole
    stack, so memory stays linear in the stack size.  Functorial:
    ext(AB) = ext(A) ext(B).
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {M.shape}")
    d = M.shape[-1]
    if not 0 <= k <= d:
        raise ValueError(f"exterior power degree {k} out of range for d={d}")
    if k == 0:
        return np.ones(M.shape[:-2] + (1, 1))
    basis = wedge_basis(d, k)
    out = np.empty(M.shape[:-2] + (len(basis), len(basis)))
    for a, I in enumerate(basis):
        rows = M[..., I, :]
        for b, J in enumerate(basis):
            out[..., a, b] = np.linalg.det(rows[..., J])
    return out


def twisting_check(psi, d: int | None = None):
    """Exhaustive wedge non-degeneracy test for a d x d matrix.

    For every pair of index sets I, I' with |I| + |I'| = d the wedge
    (ext^{|I|} psi)(e_I) ^ e_{I'} must be nonzero beyond TWISTING_TOL, scaled by
    ||psi||^|I|.  Up to sign that wedge is the minor det psi[I'^c, I], the
    entry of exterior_power(psi, |I|) at row complement(I'), column I.
    Returns (ok, failing_pairs) with 1-based index tuples, ordered by |I|,
    then I, then I' lexicographically.
    """
    psi = check_invertible(psi)
    if d is None:
        d = psi.shape[0]
    if d != psi.shape[0]:
        raise ValueError("dimension mismatch")
    opnorm = max(1.0, float(np.linalg.norm(psi, 2)))
    failing = []
    for k in range(d + 1):
        thresh = TWISTING_TOL * opnorm**k
        ext = exterior_power(psi, k)
        # complement reverses lexicographic order, so the row of the j-th I'
        # is the j-th from the end
        for b, I in enumerate(wedge_basis(d, k)):
            for j, Ip in enumerate(wedge_basis(d, d - k)):
                if abs(ext[-1 - j, b]) <= thresh:
                    failing.append((tuple(i + 1 for i in I), tuple(i + 1 for i in Ip)))
    return (not failing), failing


def _rotation_for_failing_pair(A_u: np.ndarray, I0: tuple, Ip0: tuple, n: int, theta: float):
    """Paired-rotation composition fixing the failing pair (I0, Ip0), 0-based.

    Expands (ext^k A_u)(e_I0) in the wedge basis, picks the coefficient J0
    with minimal overlap with I0', and rotates each member of J0 & I0' onto
    a distinct index outside J0 | I0'.
    """
    k = len(I0)
    basis = wedge_basis(n, k)
    ext = exterior_power(A_u, k)
    col = ext[:, basis.index(tuple(I0))] if k else np.array([1.0])
    Ip_set = set(Ip0)
    best = None
    for a, J in enumerate(basis):
        if abs(col[a]) <= 1e-13 * max(1.0, float(np.max(np.abs(col)))):
            continue
        overlap = len(set(J) & Ip_set)
        if best is None or overlap < best[0] or (overlap == best[0] and abs(col[a]) > abs(col[best[1]])):
            best = (overlap, a)
    if best is None:
        raise ArithmeticError("zero wedge image; cannot construct rotation")
    J0 = set(basis[best[1]])
    move = sorted(J0 & Ip_set)
    targets = sorted(set(range(n)) - (J0 | Ip_set))
    if len(move) > len(targets):
        raise ArithmeticError("no room to rotate overlapping indices")
    R = np.eye(2 * n)
    for src, dst in zip(move, targets):
        i, j = min(src, dst) + 1, max(src, dst) + 1
        R = paired_rotation(theta, i, j, n) @ R
    return R


def twisting_witness(n: int) -> np.ndarray:
    """A symplectic 2n x 2n matrix preserving span{e_i} whose restriction
    to span{e_i} passes twisting_check in dimension n.

    Built by composing paired rotations by 0.3 against the currently
    failing wedge pair; each composition must leave fewer failing pairs.
    For n = 1 the restriction is a scalar and the identity already passes.
    """
    if n < 1:
        raise ValueError("n must be positive")
    cap = 2 * 4**n
    A = np.eye(2 * n)
    ok, failing = twisting_check(A[:n, :n], n)
    count = 0
    while not ok:
        if count >= cap:
            raise ArithmeticError(f"twisting witness not reached within {cap} compositions")
        I0 = tuple(i - 1 for i in failing[0][0])
        Ip0 = tuple(i - 1 for i in failing[0][1])
        cand = _rotation_for_failing_pair(A[:n, :n], I0, Ip0, n, 0.3) @ A
        cand_ok, cand_failing = twisting_check(cand[:n, :n], n)
        if not cand_ok and len(cand_failing) >= len(failing):
            raise ArithmeticError("rotation compositions stopped making progress")
        A, ok, failing = cand, cand_ok, cand_failing
        count += 1
    if not is_symplectic(A):
        raise ArithmeticError("witness lost symplecticity")
    if float(np.max(np.abs(A[n:, :n]))) > 1e-12:
        raise ArithmeticError("witness does not preserve span{e_i}")
    return A


# ---------------------------------------------------------------------------
# moduli separation
# ---------------------------------------------------------------------------

def _conjugate_classes(eig):
    """Group eigenvalue indices into real singletons and conjugate pairs."""
    classes = []
    used = set()
    for i in range(len(eig)):
        if i in used:
            continue
        lam = eig[i]
        if abs(lam.imag) <= REAL_TOL * max(1.0, abs(lam)):
            classes.append([i])
            used.add(i)
        else:
            j = _eig_partner(eig, i, np.conj(lam), used, 1e-6)
            if j is None:
                raise DegenerateSpectrumError("unpaired complex eigenvalue")
            classes.append([i, j] if eig[i].imag > 0 else [j, i])
            used.update((i, j))
    return classes


def _real_jordan_basis(M):
    """Real basis W and class descriptors for a semisimple real matrix.

    Descriptors are ('real', col, lam) or ('pair', col, lam) where a pair
    occupies columns (col, col+1) = (Re v, Im v) of the Im>0 eigenvector and
    M acts there by [[a, b], [-b, a]] with lam = a + bi.
    """
    M = _as_matrix(M)
    eig, vec = np.linalg.eig(M)
    if np.linalg.cond(vec) > 1e8:
        raise ValueError("non-diagonalizable input")
    classes = _conjugate_classes(eig)
    cols, blocks, pos = [], [], 0
    for c in classes:
        if len(c) == 1:
            v = vec[:, c[0]]
            vr = v.real if np.linalg.norm(v.real) >= np.linalg.norm(v.imag) else v.imag
            cols.append(vr / np.linalg.norm(vr))
            blocks.append(("real", pos, float(eig[c[0]].real)))
            pos += 1
        else:
            v = vec[:, c[0]]
            x, y = v.real.copy(), v.imag.copy()
            cols.append(x)
            cols.append(y)
            blocks.append(("pair", pos, complex(eig[c[0]])))
            pos += 2
    W = np.column_stack(cols)
    if np.linalg.cond(W) > 1e8:
        raise ValueError("non-diagonalizable input")
    return W, blocks


def _gaps_ok_outside_pairs(rec: SpectrumRecord) -> bool:
    """Accept zero modulus gaps only inside complex-conjugate pairs."""
    eig = rec.eigenvalues
    for i in range(len(eig) - 1):
        gap = rec.moduli[i] - rec.moduli[i + 1]
        if gap > REAL_TOL * max(rec.moduli[i], 1e-300):
            continue
        if rec.is_real[i] or rec.is_real[i + 1]:
            return False
        if abs(eig[i] - np.conj(eig[i + 1])) > 1e-6 * max(1.0, abs(eig[i])):
            return False
    return True


def _is_near_real_pair(lam: complex, realify_tol: float) -> bool:
    ang = abs(np.angle(lam))
    return min(ang, np.pi - ang) <= realify_tol


def moduli_separation_perturb(
    M,
    eps: float,
    constraint: str = "none",
    realify_tol: float = 1e-6,
):
    """Perturb M within eps so eigenvalue moduli become pairwise distinct.

    Conjugate pairs keep equal moduli with each other.  A complex pair whose
    argument is within realify_tol of 0 or pi is snapped to a real pair with
    slightly distinct moduli; genuinely complex pairs stay conformal.
    constraint 'symplectic' scales reciprocal eigenvalue families by
    reciprocal factors.  Returns M unchanged when all class moduli already
    differ by more than 1e-6 relatively and no pair needs snapping.
    """
    M = _as_matrix(M)
    if constraint not in ("none", "symplectic"):
        raise ValueError(f"unknown constraint {constraint!r}")
    eig = np.linalg.eigvals(M)
    classes = _conjugate_classes(eig)
    near_real = [
        len(c) == 2 and _is_near_real_pair(eig[c[0]], realify_tol) for c in classes
    ]
    mods = sorted((abs(eig[c[0]]) for c in classes), reverse=True)
    scale = max(mods)
    separated = all(
        mods[a] - mods[a + 1] > 1e-6 * scale for a in range(len(mods) - 1)
    )
    if separated and not any(near_real):
        return M

    if constraint == "symplectic":
        return _symplectic_moduli_perturb(M, eps, realify_tol)

    W, blocks = _real_jordan_basis(M)
    Winv = np.linalg.inv(W)
    d = M.shape[0]
    for attempt in range(10):
        step = (eps / (10.0 * max(1, len(blocks)))) / (1.6**attempt)
        mults = [1.0 + a * step for a in range(len(blocks))]
        B = np.zeros((d, d))
        for (kind, pos, lam), m, snap in zip(blocks, mults, near_real):
            if kind == "real":
                B[pos, pos] = lam * m
            elif snap:
                t = abs(lam) * (1.0 if abs(np.angle(lam)) < np.pi / 2 else -1.0)
                B[pos, pos] = t * m * (1.0 + step / 2.0)
                B[pos + 1, pos + 1] = t * m * (1.0 - step / 2.0)
            else:
                a_, b_ = lam.real * m, lam.imag * m
                B[pos : pos + 2, pos : pos + 2] = [[a_, b_], [-b_, a_]]
        cand = W @ B @ Winv
        if float(np.linalg.norm(cand - M, 2)) > eps:
            continue
        if _gaps_ok_outside_pairs(sorted_spectrum(cand)):
            return cand
    raise ArithmeticError("could not separate moduli within the budget")


def _symplectic_moduli_perturb(M, eps, realify_tol):
    """Moduli separation by reciprocal scalings of symplectic blocks.

    Uses the symplectic block form when the spectrum is simple; for repeated
    eigenvalues falls back to eigencolumn pairing through the symplectic
    Gram matrix (real spectrum only).  Unit-modulus conjugate pairs cannot
    change modulus under a symplectic scaling and are left alone; if two of
    them collide the separation fails.
    """
    try:
        form = symplectic_diagonalize(M)
    except DegenerateSpectrumError:
        return _symplectic_moduli_perturb_repeated(M, eps)
    n = M.shape[0] // 2
    P = form.P
    Pinv = np.linalg.inv(P)
    for attempt in range(10):
        step = (eps / (10.0 * max(1, len(form.blocks)))) / (1.6**attempt)
        B = np.zeros((2 * n, 2 * n))
        for a, blk in enumerate(form.blocks):
            m = 1.0 + (a + 1) * step
            if blk.kind == "real_pair":
                lam = blk.eigenvalues[0]
                i = blk.e_slots[0]
                B[i, i] = lam * m
                B[n + i, n + i] = 1.0 / (lam * m)
            elif blk.kind == "unit_pair":
                lam = blk.eigenvalues[0]
                i = blk.e_slots[0]
                if _is_near_real_pair(lam, realify_tol):
                    t = 1.0 if abs(np.angle(lam)) < np.pi / 2 else -1.0
                    B[i, i] = t * m
                    B[n + i, n + i] = 1.0 / (t * m)
                else:
                    c_, s_ = lam.real, lam.imag
                    B[np.ix_([i, n + i], [i, n + i])] = [[c_, s_], [-s_, c_]]
            else:  # quad: conformal e-plane, exactly dual f-plane
                lam = blk.eigenvalues[0]
                i, j = blk.e_slots
                if _is_near_real_pair(lam, realify_tol):
                    t = abs(lam) * (1.0 if abs(np.angle(lam)) < np.pi / 2 else -1.0)
                    Be = np.diag([t * m * (1.0 + step / 2.0), t * m * (1.0 - step / 2.0)])
                else:
                    a_, b_ = lam.real * m, lam.imag * m
                    Be = np.array([[a_, b_], [-b_, a_]])
                B[np.ix_([i, j], [i, j])] = Be
                B[np.ix_([n + i, n + j], [n + i, n + j])] = np.linalg.inv(Be).T
        cand = P @ B @ Pinv
        if float(np.linalg.norm(cand - M, 2)) > eps:
            continue
        if not is_symplectic(cand, tol=1e-6):
            continue
        if _gaps_ok_outside_pairs(sorted_spectrum(cand)):
            return cand
    raise ArithmeticError("could not separate moduli within the budget")


def _symplectic_moduli_perturb_repeated(M, eps):
    """Repeated-eigenvalue symplectic case via Gram-paired eigencolumns.

    Supports real semisimple spectrum (for example diag(2, 2, 1/2, 1/2)):
    partner columns are matched through the symplectic Gram matrix, the
    partner basis is re-mixed so each pairing is exact, and each matched
    (lam, 1/lam) column pair is scaled by (m, 1/m).
    """
    n = M.shape[0] // 2
    if not is_symplectic(M):
        raise ValueError("matrix does not preserve the symplectic form")
    eig, vec = np.linalg.eig(M)
    if np.linalg.cond(vec) > 1e8:
        raise ValueError("non-diagonalizable input")
    if np.max(np.abs(eig.imag)) > 1e-9 * max(1.0, float(np.max(np.abs(eig)))):
        raise DegenerateSpectrumError(
            "repeated complex spectrum not supported for symplectic separation"
        )
    eig = eig.real
    V = vec.real if np.max(np.abs(vec.imag)) < 1e-9 else None
    if V is None:
        raise DegenerateSpectrumError("complex eigenbasis for real spectrum")
    omega = standard_symplectic_form(n)
    K = V.T @ omega @ V
    used = set()
    pairs = []
    for i in range(2 * n):
        if i in used:
            continue
        j = int(np.argmax(np.abs(K[i])))
        if j in used or abs(eig[i] * eig[j] - 1.0) > 1e-6:
            raise DegenerateSpectrumError("symplectic pairing is not a perfect matching")
        used.update((i, j))
        if abs(eig[i]) >= abs(eig[j]):
            pairs.append((i, j))
        else:
            pairs.append((j, i))
    # rescale partner columns so each matched pairing is exactly 1
    for i, j in pairs:
        V[:, j] = V[:, j] / float(V[:, i] @ omega @ V[:, j])
    Vinv = np.linalg.inv(V)
    for attempt in range(10):
        step = (eps / (10.0 * max(1, len(pairs)))) / (1.6**attempt)
        lam_new = np.empty(2 * n)
        for a, (i, j) in enumerate(pairs):
            m = 1.0 + (a + 1) * step
            lam_new[i] = eig[i] * m
            lam_new[j] = 1.0 / (eig[i] * m)
        cand = V @ np.diag(lam_new) @ Vinv
        if float(np.linalg.norm(cand - M, 2)) > eps:
            continue
        if not is_symplectic(cand, tol=1e-6):
            continue
        if _gaps_ok_outside_pairs(sorted_spectrum(cand)):
            return cand
    raise ArithmeticError("could not separate moduli within the budget")
