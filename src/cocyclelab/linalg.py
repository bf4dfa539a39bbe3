"""Spectral and symplectic linear algebra for small real matrices.

Everything here works on plain numpy arrays of shape (d, d) with d small
(the rest of the package never needs d > 8).  Eigenvalue data is kept
complex; realness is decided by tolerance, never by dtype.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

# Relative tolerance for treating an eigenvalue as real.
REAL_TOL = 1e-9
# Residual allowed when checking that a matrix preserves a symplectic form.
SYMPLECTIC_TOL = 1e-8
# Angle from the real axis within which moduli separation snaps a conjugate
# pair to two reals.
REALIFY_TOL = 1e-5
# Relative floor below which a wedge coefficient counts as a twisting failure.
TWISTING_TOL = 1e-10
# A smallest singular value below this times the largest means M is unusable
# as a cocycle value.
INVERTIBILITY_TOL = 1e-12
# Relative distance within which eigenvalues are one: real ones join one
# cluster, and so do complex ones with Im > 0; a reciprocal or conjugate
# partner matches its target within this times max(1, |target|); and two
# clusters of a simple spectrum differ in modulus by more than this times
# the larger.
CLUSTER_TOL = 1e-6


class DegenerateSpectrumError(ValueError):
    pass


def _as_matrix(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    return M


def check_invertible(M) -> np.ndarray:
    """Return M as an array, raising if it is singular at working precision:
    its smallest singular value at most INVERTIBILITY_TOL times its largest."""
    M = _as_matrix(M)
    s = np.linalg.svd(M, compute_uv=False)
    if s[-1] <= INVERTIBILITY_TOL * s[0]:
        raise ValueError("non-invertible cocycle value")
    return M


def _is_real(eig) -> np.ndarray:
    """Whether each eigenvalue counts as real: |Im| <= REAL_TOL max(1, |lam|)."""
    return np.abs(eig.imag) <= REAL_TOL * np.maximum(1.0, np.abs(eig))


@dataclass
class SpectrumRecord:
    """Eigenvalues sorted by decreasing modulus with deterministic tie-breaks."""

    eigenvalues: np.ndarray          # complex, length d
    is_real: np.ndarray              # bool per eigenvalue

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    @property
    def complex_pairs(self) -> list:
        """Upper (positive-imaginary) member of each complex-conjugate pair,
        in decreasing modulus."""
        return [ev for ev, real in zip(self.eigenvalues, self.is_real) if not real and ev.imag > 0]


def sorted_spectrum(M) -> SpectrumRecord:
    """Eigenvalues of M sorted by decreasing modulus.

    Ties in modulus are broken deterministically: real eigenvalues first,
    then increasing argument in [0, pi]; within a conjugate pair the
    positive-imaginary member comes first.
    """
    M = check_invertible(M)
    eig = np.linalg.eigvals(M)
    mod = np.abs(eig)
    real = _is_real(eig)
    # abs(arg) lands complex-conjugate partners on the same key; the final
    # -imag component orders the pair itself.
    keys = sorted(
        range(len(eig)),
        key=lambda i: (-mod[i], 0 if real[i] else 1, abs(np.angle(eig[i])), -eig[i].imag),
    )
    eig = eig[keys]
    real = real[keys]
    eig = np.where(real, eig.real + 0j, eig)

    # log-volume consistency: sum of log-moduli must match log|det M|
    logdet = float(np.log(abs(np.linalg.det(M))))
    if abs(np.sum(np.log(mod)) - logdet) > 1e-8 * max(1.0, abs(logdet)):
        raise ArithmeticError("eigenvalue moduli inconsistent with determinant")
    return SpectrumRecord(eigenvalues=eig, is_real=real)


def _eigenspaces(M) -> list:
    """Real invariant subspaces of M, one (lam, V) per eigenvalue cluster, in
    the order np.linalg.eig lists each cluster's first member.

    Realness is sorted_spectrum's test (_is_real).  Real eigenvalues within
    CLUSTER_TOL, relatively, of a cluster's first member join it, and lam is
    their mean.  A complex eigenvalue pairs with its conjugate, and the
    Im > 0 members within CLUSTER_TOL form one class, lam the first.  V
    spans the null space of M - lam from one SVD, by (Re v, Im v) of each
    null vector v for a class; the null space must have one dimension per
    member, or M is defective and DegenerateSpectrumError is raised.  A class
    of one pair takes (Re v, Im v) of its Im > 0 eig vector v instead.
    """
    M = _as_matrix(M)
    d = M.shape[0]
    eig, vec = np.linalg.eig(M)
    real, ev = _is_real(eig).tolist(), eig.tolist()
    left = [i for i in range(d) if real[i] or ev[i].imag > 0]
    spaces = []
    while left:
        i = left[0]
        members = [j for j in left
                   if real[j] == real[i] and abs(ev[j] - ev[i]) <= CLUSTER_TOL * abs(ev[i])]
        left = [j for j in left if j not in members]
        k = len(members)
        lam = sum(ev[j].real for j in members) / k if real[i] else ev[i]
        if real[i] or k > 1:
            _, s, vh = np.linalg.svd(M - lam * np.eye(d))
            if s[d - k] > CLUSTER_TOL * max(1.0, abs(lam), s[0]):
                raise DegenerateSpectrumError("non-diagonalizable input")
            vs = vh[d - k:].conj()
        else:
            vs = vec[:, i:i + 1].T
        spaces.append((lam, np.column_stack(
            [v.real for v in vs] if real[i] else [p for v in vs for p in (v.real, v.imag)])))
    return spaces


def _simple_spaces(M) -> list | None:
    """The clusters of _eigenspaces in decreasing modulus when M's spectrum
    is simple: each cluster one real eigenvalue or one conjugate pair, and
    any two clusters' moduli differ by more than CLUSTER_TOL times the
    larger.  None otherwise, and for defective M."""
    try:
        spaces = sorted(_eigenspaces(M), key=lambda sp: -abs(sp[0]))
    except DegenerateSpectrumError:
        return None
    if any(V.shape[1] != (2 if np.iscomplexobj(lam) else 1) for lam, V in spaces):
        return None
    mods = [abs(lam) for lam, _ in spaces]
    if any(mods[a] - mods[a + 1] <= CLUSTER_TOL * mods[a] for a in range(len(mods) - 1)):
        return None
    return spaces


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
    f-plane).  Slots are 0-based column indices of P, whose columns are
    (e_1..e_n, f_1..f_n): e_i is column i - 1 and f_i column n + i - 1.
    """

    kind: str
    eigenvalues: tuple
    e_slots: tuple
    f_slots: tuple


@dataclass
class SymplecticBlockForm:
    P: np.ndarray                    # symplectic basis change, columns at slot order
    blocks: list = field(default_factory=list)


def symplectic_diagonalize(M) -> SymplecticBlockForm:
    """Real block diagonalization of a matrix preserving the standard
    symplectic form by a symplectic basis.

    One pass over the clusters of _eigenspaces in decreasing modulus groups
    them into {lam, 1/lam} eigenspace pairs and {lam, conj, 1/lam, 1/conj}
    quadruples, each cluster with the one at 1/conj(lam) (its own on the
    unit circle), and places each group at the next free slots of a
    symplectic basis in which M acts by 1x1 entries or 2x2 conformal
    blocks.  A real lam's null vectors, with those of 1/lam unless
    lam = +-1, are paired by one symplectic Gram-Schmidt, so a repeated real
    eigenvalue gives one pair per eigenvector.  The two members of a
    conjugate pair are distinct however close they lie.  Raises on
    non-symplectic input, a repeated complex eigenvalue, or defective
    (non-semisimple) input.
    """
    M = _as_matrix(M)
    if M.shape[0] % 2:
        raise ValueError("symplectic matrices have even dimension")
    n = M.shape[0] // 2
    omega = standard_symplectic_form(n)
    if not is_symplectic(M):
        raise ValueError("matrix does not preserve the symplectic form")

    spaces = sorted(_eigenspaces(M), key=lambda sp: (-abs(sp[0]), -sp[0].imag))
    if any(np.iscomplexobj(lam) and V.shape[1] > 2 for lam, V in spaces):
        raise DegenerateSpectrumError("repeated complex eigenvalue")
    used = set()
    # P's columns e and f, the blocks, and each unit pair's plane e + f
    e_cols, f_cols, blocks, unit_planes = [], [], [], []
    for a, (lam, V) in enumerate(spaces):
        if a in used:
            continue
        t = 1.0 / np.conj(lam)
        b = next((b for b, (mu, _) in enumerate(spaces)
                  if b not in used and abs(mu - t) <= CLUSTER_TOL * max(1.0, abs(t))), None)
        if b is None:
            raise DegenerateSpectrumError("eigenvalue without reciprocal partner")
        used.update((a, b))
        mu, U = spaces[b]
        slot = len(e_cols)
        if not np.iscomplexobj(lam):
            # each vector left takes the one it pairs with most strongly,
            # from the other eigenspace off +-1, and the rest lose their
            # pairings with both
            W = list(V.T) + (list(U.T) if b != a else [])
            while len(W) > 1:
                u = W.pop(0)
                v = W.pop(int(np.argmax([abs(u @ omega @ y) for y in W])))
                c = u @ omega @ v
                if abs(c) < 1e-12:
                    raise DegenerateSpectrumError("isotropic eigenvector pairing")
                v = v / c
                W = [y - (y @ omega @ v) * u + (y @ omega @ u) * v for y in W]
                e_cols.append(u)
                f_cols.append(v)
            if W:
                raise DegenerateSpectrumError("eigenvalue without reciprocal partner")
            blocks += [SymplecticBlock("real_pair", (lam, mu), (k,), (n + k,))
                       for k in range(slot, len(e_cols))]
        elif b == a:
            x, y = V.T
            c = float(x @ omega @ y)
            if abs(c) < 1e-12:
                raise DegenerateSpectrumError("isotropic eigenvector pairing")
            if c < 0:
                y, c = -y, -c
            s = np.sqrt(c)
            e_cols.append(x / s)
            f_cols.append(y / s)
            blocks.append(SymplecticBlock("unit_pair", (lam, np.conj(lam)), (slot,), (n + slot,)))
            unit_planes.append((slot, n + slot))
        else:
            # the eig vectors of lam and 1/lam, the conjugate of mu's
            v, w = V.view(complex)[:, 0], U.view(complex)[:, 0].conj()
            c = complex(v @ omega @ w) / 2.0
            r, phi = abs(c), np.angle(c)
            if r < 1e-12:
                raise DegenerateSpectrumError("isotropic eigenvector pairing")
            # dual-plane basis making the cross pairing the identity; the
            # change is conformal-antilinear so the block stays conformal
            e_cols += [v.real, v.imag]
            f_cols += [(np.cos(phi) * w.real + np.sin(phi) * w.imag) / r,
                       (np.sin(phi) * w.real - np.cos(phi) * w.imag) / r]
            blocks.append(SymplecticBlock("quad", (lam, np.conj(lam), np.conj(mu), mu),
                                          (slot, slot + 1), (n + slot, n + slot + 1)))

    P = np.column_stack(e_cols + f_cols)
    if not is_symplectic(P):
        raise ArithmeticError("constructed basis is not symplectic")
    B = np.linalg.solve(P, M @ P)

    # zero the structural off-block entries and verify the residual
    mask = np.zeros_like(B, dtype=bool)
    for idx in [b.e_slots for b in blocks] + [b.f_slots for b in blocks] + unit_planes:
        mask[np.ix_(idx, idx)] = True
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

def _adapted_blocks(M, symplectic: bool):
    """Basis W of M, that of _eigenspaces or that of symplectic_diagonalize,
    and its blocks (kind, e, f, lam): M acts on the W-columns e by lam and on
    the columns f by the inverse transpose of that (a unit pair on e + f).
    Each real eigenvector and each (Re v, Im v) plane is one block."""
    if symplectic:
        form = symplectic_diagonalize(M)
        blocks = [(b.kind, b.e_slots, b.f_slots, b.eigenvalues[0]) for b in form.blocks]
        return form.P, blocks
    spaces = _eigenspaces(M)
    blocks, pos = [], 0
    for lam, V in spaces:
        w = 2 if np.iscomplexobj(lam) else 1
        blocks += [("pair" if w == 2 else "real", tuple(range(k, k + w)), (), lam)
                   for k in range(pos, pos + V.shape[1], w)]
        pos += V.shape[1]
    return np.column_stack([V for _, V in spaces]), blocks


def _is_near_real_pair(lam: complex, realify_tol: float) -> bool:
    ang = abs(np.angle(lam))
    return min(ang, np.pi - ang) <= realify_tol


def moduli_separation_perturb(
    M,
    eps: float,
    constraint: str = "none",
    realify_tol: float = REALIFY_TOL,
):
    """Perturb M within eps so eigenvalue moduli become pairwise distinct.

    M is read in blocks of a basis adapted to the constraint: that of
    _eigenspaces, or for 'symplectic' the basis of symplectic_diagonalize.
    Each block is scaled by its own factor.  Conjugate pairs keep equal
    moduli with each other, except that a pair whose argument is within
    realify_tol of 0 or pi is snapped to a real pair with slightly distinct
    moduli.  Under the symplectic constraint each e-side block sets its
    f-side partner to its inverse transpose, and a unit pair on its
    (e_i, f_i) plane keeps its rotation or snaps to diag(tm, 1/(tm)).
    Accepts a spectrum that _simple_spaces calls simple: real eigenvalues
    and conjugate pairs whose moduli differ by more than CLUSTER_TOL
    relatively.  M is returned unchanged when its spectrum is simple and no
    pair needs snapping; otherwise the first candidate within eps (and
    symplectic under that constraint) with a simple spectrum is returned.
    """
    M = _as_matrix(M)
    if constraint not in ("none", "symplectic"):
        raise ValueError(f"unknown constraint {constraint!r}")
    spaces = _simple_spaces(M)
    if spaces is not None and not any(np.iscomplexobj(lam) and _is_near_real_pair(lam, realify_tol)
                                      for lam, _ in spaces):
        return M
    W, blocks = _adapted_blocks(M, constraint == "symplectic")
    Winv = np.linalg.inv(W)
    # the two members of a symplectic block on +-1 (an identity block, or a
    # unit pair snapped to the real axis) coincide at factor 1
    first = 1 if constraint == "symplectic" else 0
    d = M.shape[0]
    for attempt in range(10):
        step = (eps / (10.0 * max(1, len(blocks)))) / (1.6**attempt)
        B = np.zeros((d, d))
        for a, (kind, e, f, lam) in enumerate(blocks, start=first):
            m = 1.0 + a * step
            snap = np.iscomplexobj(lam) and _is_near_real_pair(lam, realify_tol)
            t = abs(lam) * (1.0 if abs(np.angle(lam)) < np.pi / 2 else -1.0)
            if kind == "unit_pair":
                B[np.ix_(e + f, e + f)] = (np.diag([t * m, 1.0 / (t * m)]) if snap
                                           else [[lam.real, lam.imag], [-lam.imag, lam.real]])
                continue
            if not np.iscomplexobj(lam):
                Be = [[lam * m]]
            elif snap:
                Be = np.diag([t * m * (1.0 + step / 2.0), t * m * (1.0 - step / 2.0)])
            else:
                a_, b_ = lam.real * m, lam.imag * m
                Be = [[a_, b_], [-b_, a_]]
            B[np.ix_(e, e)] = Be
            if f:
                B[np.ix_(f, f)] = np.linalg.inv(Be).T
        cand = W @ B @ Winv
        if float(np.linalg.norm(cand - M, 2)) > eps:
            continue
        kept = constraint == "none" or is_symplectic(cand, tol=1e-6)
        if kept and _simple_spaces(cand) is not None:
            return cand
    raise ArithmeticError("could not separate moduli within the budget")
