"""Spectral / symplectic linear algebra unit tests."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocyclelab import linalg as la

RNG = np.random.default_rng(20240811)


def rotation2(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def sparse_invertible(rng, d, zero_share=0.4):
    """Random d x d matrix with exact zero entries, far from singular."""
    while True:
        M = rng.normal(size=(d, d))
        M[rng.random((d, d)) < zero_share] = 0.0
        if abs(np.linalg.det(M)) > 1e-3:
            return M


def wedge_twisting_reference(psi, tol=la.TWISTING_TOL):
    """Twisting check from the full wedge coefficient det[psi e_I | e_I']."""
    d = psi.shape[0]
    eye = np.eye(d)
    opnorm = max(1.0, float(np.linalg.norm(psi, 2)))
    failing = []
    for k in range(d + 1):
        for I in itertools.combinations(range(d), k):
            for Ip in itertools.combinations(range(d), d - k):
                coeff = np.linalg.det(np.column_stack([psi[:, list(I)], eye[:, list(Ip)]]))
                if abs(coeff) <= tol * opnorm**k:
                    failing.append((tuple(i + 1 for i in I), tuple(i + 1 for i in Ip)))
    return (not failing), failing


def random_symplectic4(rng):
    """Product of a paired rotation, a symmetric shear and a diagonal scaling."""
    theta = rng.uniform(0.1, 1.2)
    B = rng.normal(size=(2, 2))
    B = (B + B.T) / 2
    shear = np.eye(4)
    shear[:2, 2:] = B
    D = np.diag(rng.uniform(0.5, 2.0, size=2))
    scal = np.block([[D, np.zeros((2, 2))], [np.zeros((2, 2)), np.linalg.inv(D).T]])
    return la.paired_rotation(theta, 1, 2, 2) @ shear @ scal


# (diagonal, seed) of repeated_real_case, the diagonal lam n times and then
# 1/lam n times; at the seeds other than 3, eig returns the repeated
# eigenvalues as conjugate pairs 1e-18 to 2e-16 off the real axis, whose
# eigenvectors' real parts span less than the eigenspace
REPEATED_REAL_CASES = [
    pytest.param([2.0] * 2 + [0.5] * 2, 3, id="2"), pytest.param([2.0] * 3 + [0.5] * 3, 3, id="3"),
    pytest.param([2.0] * 2 + [0.5] * 2, 0, id="2-seed0"),
    pytest.param([2.0] * 2 + [0.5] * 2, 8, id="2-seed8"),
    pytest.param([3.0] * 3 + [1 / 3] * 3, 6, id="3-lam3-seed6"),
    pytest.param([3.0] * 3 + [1 / 3] * 3, 33, id="3-lam3-seed33"),
]
# a draw with condition number 1.1e4 and Frobenius norm 107, whose det 1
# lies below 1e-12 * norm^6
SEED_291_CASE = pytest.param([2.0, 2.0, 3.0, 0.5, 0.5, 1 / 3], 291, id="2-2-3-seed291")


def block_moduli(form):
    """The distinct eigenvalue moduli of every block of a symplectic block
    form, rounded to 12 digits, all blocks together in decreasing order."""
    out = []
    for b in form.blocks:
        out.extend({round(abs(z), 12) for z in b.eigenvalues})
    return sorted(out, reverse=True)


# ---------------------------------------------------------------------------
# sorted_spectrum
# ---------------------------------------------------------------------------

class TestSortedSpectrum:
    def test_fibonacci_matrix_eigenvalues(self):
        # characteristic polynomial t^2 - 3t + 1 solved by hand
        rec = la.sorted_spectrum([[2, 1], [1, 1]])
        expected = np.array([(3 + np.sqrt(5)) / 2, (3 - np.sqrt(5)) / 2])
        assert np.allclose(rec.eigenvalues.real, expected, atol=1e-12)
        assert rec.is_real.all()
        assert np.all(np.diff(np.abs(rec.eigenvalues)) < 0)

    def test_complex_pairs_upper_members_by_modulus(self):
        M = np.zeros((5, 5))
        M[0, 0] = 3.0
        M[1:3, 1:3] = 0.5 * rotation2(-0.2)
        M[3:, 3:] = 2.0 * rotation2(0.3)
        pairs = la.sorted_spectrum(M).complex_pairs
        assert np.abs(pairs) == pytest.approx([2.0, 0.5], abs=1e-12)
        assert np.angle(pairs) == pytest.approx([0.3, 0.2], abs=1e-12)
        assert la.sorted_spectrum(np.diag([2.0, 0.5])).complex_pairs == []

    def test_scaled_rotation_conjugate_pair(self):
        rec = la.sorted_spectrum(2.0 * rotation2(np.pi / 4))
        assert np.allclose(np.abs(rec.eigenvalues), [2.0, 2.0], atol=1e-12)
        assert np.allclose(np.diff(np.abs(rec.eigenvalues)), [0.0], atol=1e-12)
        assert not rec.is_real.any()
        # positive imaginary part first within the pair
        assert rec.eigenvalues[0].imag > 0 > rec.eigenvalues[1].imag
        assert np.isclose(rec.eigenvalues[0], 2 * np.exp(1j * np.pi / 4))

    def test_tie_break_real_before_complex(self):
        # eigenvalues {1, -1, e^{i a}, e^{-i a}}: all on the unit circle
        M = np.zeros((4, 4))
        M[0, 0], M[1, 1] = 1.0, -1.0
        M[2:, 2:] = rotation2(0.8)
        rec = la.sorted_spectrum(M)
        assert list(rec.is_real) == [True, True, False, False]
        # among the two reals, argument 0 before argument pi
        assert rec.eigenvalues[0].real == pytest.approx(1.0)
        assert rec.eigenvalues[1].real == pytest.approx(-1.0)

    def test_singular_rejected(self):
        with pytest.raises(ValueError, match="non-invertible"):
            la.sorted_spectrum([[1.0, 1.0], [1.0, 1.0]])

    def test_invertibility_is_relative(self):
        # a scaled identity and a well-conditioned matrix of norm 107 are
        # far from singular, though their determinants lie below 1e-12 *
        # max(1, norm)^d
        for M in (1e-5 * np.eye(4), repeated_real_case(*SEED_291_CASE.values)):
            assert la.sorted_spectrum(M).dim == len(M)

    def test_log_moduli_sum_matches_determinant(self):
        for _ in range(50):
            M = RNG.normal(size=(4, 4))
            if abs(np.linalg.det(M)) < 1e-6:
                continue
            rec = la.sorted_spectrum(M)
            assert np.isclose(
                np.sum(np.log(np.abs(rec.eigenvalues))),
                np.log(abs(np.linalg.det(M))),
                rtol=1e-8,
                atol=1e-8,
            )


# ---------------------------------------------------------------------------
# symplectic operations
# ---------------------------------------------------------------------------

class TestSymplecticDiagonalize:
    def test_hyperbolic_pair_identity_basis(self):
        form = la.symplectic_diagonalize(np.diag([2.0, 0.5]))
        assert np.allclose(np.abs(form.P), np.eye(2), atol=1e-9)
        assert block_moduli(form) == [2.0, 0.5]
        assert form.blocks[0].kind == "real_pair"

    def test_embedded_conformal_quadruple(self):
        Be = 2.0 * rotation2(np.pi / 4)
        M0 = np.zeros((4, 4))
        M0[:2, :2] = Be
        M0[2:, 2:] = np.linalg.inv(Be).T
        S = random_symplectic4(np.random.default_rng(3))
        M = S @ M0 @ np.linalg.inv(S)
        form = la.symplectic_diagonalize(M)
        assert block_moduli(form) == pytest.approx([2.0, 0.5], abs=1e-9)
        assert form.blocks[0].kind == "quad"
        omega = la.standard_symplectic_form(2)
        assert np.allclose(form.P.T @ omega @ form.P, omega, atol=1e-8)
        # one quad block on slots (0, 1): the e-plane and the f-plane do not mix
        B = np.linalg.solve(form.P, M @ form.P)
        assert np.allclose(B[:2, 2:], 0.0, atol=1e-8 * np.max(np.abs(M)))
        assert np.allclose(B[2:, :2], 0.0, atol=1e-8 * np.max(np.abs(M)))

    def test_mixed_real_and_unit_blocks(self):
        M0 = np.zeros((4, 4))
        M0[0, 0], M0[2, 2] = 3.0, 1.0 / 3.0
        # unit-modulus pair on the (e_2, f_2) plane
        M0[np.ix_([1, 3], [1, 3])] = rotation2(0.9)
        form = la.symplectic_diagonalize(M0)
        kinds = sorted(b.kind for b in form.blocks)
        assert kinds == ["real_pair", "unit_pair"]

    def test_repeated_real_eigenvalue_paired_through_the_gram_matrix(self):
        M = np.diag([2.0, 2.0, 0.5, 0.5])
        form = la.symplectic_diagonalize(M)
        assert [b.kind for b in form.blocks] == ["real_pair", "real_pair"]
        assert la.is_symplectic(form.P)
        assert np.allclose(np.linalg.solve(form.P, M @ form.P), M, atol=1e-12)

    @pytest.mark.parametrize("diagonal, seed", REPEATED_REAL_CASES)
    def test_repeated_real_eigenspaces_paired_exactly(self, diagonal, seed):
        # diag(lam, .., lam, 1/lam, .., 1/lam) in a basis whose eigenvectors
        # do not pair one to one
        M = repeated_real_case(diagonal, seed)
        form = la.symplectic_diagonalize(M)
        assert [b.kind for b in form.blocks] == ["real_pair"] * (len(diagonal) // 2)
        assert la.is_symplectic(form.P)
        want = np.diag(diagonal)
        assert np.allclose(np.linalg.solve(form.P, M @ form.P), want, atol=1e-12)

    @pytest.mark.parametrize("lam", [1.0, -1.0])
    def test_unit_real_eigenspace_of_dimension_four(self, lam):
        # +-1 with multiplicity four pairs its eigenspace with itself; eig
        # may return part of it as a conjugate pair 1e-16 off the axis
        M = unit_real_case(lam)
        form = la.symplectic_diagonalize(M)
        assert [b.kind for b in form.blocks] == ["real_pair"] * 3
        assert la.is_symplectic(form.P)
        lams = [b.eigenvalues for b in form.blocks]
        want = np.diag([a for a, _ in lams] + [b for _, b in lams])
        assert np.allclose(np.linalg.solve(form.P, M @ form.P), want, atol=1e-12)
        assert np.allclose(form.P @ want @ np.linalg.inv(form.P), M, atol=1e-12)
        assert np.allclose(sorted(np.diag(want)), sorted([lam] * 4 + [2.0, 0.5]), atol=1e-12)

    def test_conjugate_pair_near_the_real_axis_is_not_repeated(self):
        # a collided quadruple: its pair lies 1e-8 off the real axis, closer
        # than the repeated-eigenvalue tolerance
        Be = 1.5 * rotation2(1e-8)
        M = np.block([[Be, np.zeros((2, 2))], [np.zeros((2, 2)), np.linalg.inv(Be).T]])
        form = la.symplectic_diagonalize(M)
        assert [b.kind for b in form.blocks] == ["quad"]
        assert block_moduli(form) == pytest.approx([1.5, 1.0 / 1.5], abs=1e-12)

    def test_non_symplectic_rejected(self):
        with pytest.raises(ValueError, match="symplectic"):
            la.symplectic_diagonalize(np.diag([2.0, 0.6]))

    def test_degenerate_spectrum_rejected(self):
        with pytest.raises(la.DegenerateSpectrumError):
            la.symplectic_diagonalize(la.paired_rotation(0.3, 1, 2, 2))

    def test_defective_rejected(self):
        shear = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(la.DegenerateSpectrumError):
            la.symplectic_diagonalize(shear)


class TestEigenspaces:
    def test_near_real_pair_is_one_real_cluster(self):
        # a scaled rotation by 5.8e-10 rad: both eigenvalues lie within
        # REAL_TOL of the axis, and their eig vectors share a real part
        M = np.array([[4.82472164, 2.791e-9], [-2.791e-9, 4.82472164]])
        ((lam, V),) = la._eigenspaces(M)
        assert not np.iscomplexobj(lam) and lam == pytest.approx(4.82472164, rel=1e-15)
        assert V.shape == (2, 2)
        assert np.allclose(V.T @ V, np.eye(2), atol=1e-12)
        out = la.moduli_separation_perturb(M, 1e-3)
        assert la.sorted_spectrum(out).is_real.all() and la._simple_spaces(out) is not None

    def test_repeated_real_clusters_span_their_eigenspaces(self):
        # each eigenvalue twice: one null vector per member would take the
        # same vector twice
        S = np.eye(4) + 0.3 * np.random.default_rng(2).normal(size=(4, 4))
        M = S @ np.diag([-0.14485, 0.01883, -0.14485, 0.01883]) @ np.linalg.inv(S)
        spaces = la._eigenspaces(M)
        assert sorted(round(float(lam), 5) for lam, _ in spaces) == [-0.14485, 0.01883]
        for lam, V in spaces:
            assert V.shape == (4, 2)
            assert np.allclose(M @ V, lam * V, atol=1e-12)
        assert np.linalg.matrix_rank(np.column_stack([V for _, V in spaces])) == 4

    def test_conjugate_pair_takes_its_eig_vector(self):
        M = RNG.normal(size=(5, 5))
        eig, vec = np.linalg.eig(M)
        for lam, V in la._eigenspaces(M):
            if np.iscomplexobj(lam):
                i = int(np.argmin(np.abs(eig - lam)))
                assert np.array_equal(V, np.column_stack([vec[:, i].real, vec[:, i].imag]))

    def test_repeated_complex_class_spans_both_planes(self):
        S = np.eye(4) + 0.3 * np.random.default_rng(4).normal(size=(4, 4))
        M = S @ np.kron(np.eye(2), 1.5 * rotation2(0.6)) @ np.linalg.inv(S)
        ((lam, V),) = la._eigenspaces(M)
        assert lam == pytest.approx(1.5 * np.exp(0.6j), abs=1e-12)
        B = np.linalg.solve(V, M @ V)
        want = np.kron(np.eye(2), [[lam.real, lam.imag], [-lam.imag, lam.real]])
        assert np.allclose(B, want, atol=1e-10)

    def test_defective_complex_class_rejected(self):
        # a complex Jordan block: one eigenvector for a pair counted twice
        M = np.block([[rotation2(0.6), np.eye(2)], [np.zeros((2, 2)), rotation2(0.6)]])
        with pytest.raises(la.DegenerateSpectrumError, match="non-diagonalizable input"):
            la._eigenspaces(M)


class TestSimpleSpaces:
    def test_clusters_in_decreasing_modulus(self):
        M = np.zeros((5, 5))
        M[0, 0], M[1, 1] = 0.5, -3.0
        M[2:4, 2:4] = 2.0 * rotation2(0.3)
        M[4, 4] = 1.0 + 1e-5
        spaces = la._simple_spaces(M)
        assert [abs(lam) for lam, _ in spaces] == pytest.approx([3.0, 2.0, 1.0 + 1e-5, 0.5])
        assert [V.shape[1] for _, V in spaces] == [1, 2, 1, 1]

    @pytest.mark.parametrize("M", [
        np.diag([2.0, 2.0 * (1 + 1e-7)]),
        np.diag([2.0, -2.0 * (1 + 1e-7)]),
        np.diag([3.0, 2.0, 2.0]),
        np.kron(np.eye(2), 1.5 * rotation2(0.6)),
        np.kron(np.diag([1.0, 1.0 + 1e-7]), rotation2(0.6)),
        np.block([[2.0 * rotation2(0.6), np.zeros((2, 1))], [np.zeros((1, 2)), -2.0 * np.eye(1)]]),
        np.array([[2.0, 1.0], [0.0, 2.0]]),
    ], ids=["cluster", "opposite-signs", "repeated", "repeated-pair", "close-pairs",
            "pair-and-real", "defective"])
    def test_not_simple(self, M):
        assert la._simple_spaces(M) is None


class TestPairedRotation:
    def test_quarter_turn(self):
        R = la.paired_rotation(np.pi / 2, 1, 2, 2)
        e1, e2, f1, f2 = np.eye(4)
        assert np.allclose(R @ e1, e2, atol=1e-15)
        assert np.allclose(R @ e2, -e1, atol=1e-15)
        assert np.allclose(R @ f1, f2, atol=1e-15)
        assert np.allclose(R @ f2, -f1, atol=1e-15)

    @given(
        st.floats(min_value=-6.0, max_value=6.0),
        st.integers(min_value=2, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_preserves_form(self, theta, n):
        R = la.paired_rotation(theta, 1, n, n)
        omega = la.standard_symplectic_form(n)
        assert np.allclose(R @ omega @ R.T, omega, atol=1e-14)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            la.paired_rotation(0.3, 2, 2, 3)
        with pytest.raises(ValueError):
            la.paired_rotation(0.3, 1, 4, 3)


# ---------------------------------------------------------------------------
# exterior powers and twisting
# ---------------------------------------------------------------------------

class TestExteriorPower:
    def test_diagonal_second_power(self):
        out = la.exterior_power(np.diag([2.0, 3.0, 5.0]), 2)
        assert np.allclose(out, np.diag([6.0, 10.0, 15.0]), atol=1e-12)

    def test_top_power_is_determinant(self):
        M = RNG.normal(size=(4, 4))
        out = la.exterior_power(M, 4)
        assert out.shape == (1, 1)
        assert np.isclose(out[0, 0], np.linalg.det(M), rtol=1e-10)

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_functorial(self, d, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(d, d))
        B = rng.normal(size=(d, d))
        for k in range(1, d + 1):
            lhs = la.exterior_power(A @ B, k)
            rhs = la.exterior_power(A, k) @ la.exterior_power(B, k)
            scale = max(1.0, np.max(np.abs(lhs)))
            assert np.allclose(lhs, rhs, atol=1e-10 * scale)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_stack_matches_single_matrices(self, d):
        rng = np.random.default_rng(100 + d)
        stack = rng.normal(size=(3, 4, d, d))
        stack[rng.random(stack.shape) < 0.3] = 0.0
        for k in range(d + 1):
            out = la.exterior_power(stack, k)
            each = np.array([[la.exterior_power(M, k) for M in row] for row in stack])
            assert out.shape == each.shape
            assert np.array_equal(out, each)

    @pytest.mark.parametrize("shape", [(3,), (3, 4), (2, 3, 4)])
    def test_non_square_rejected(self, shape):
        with pytest.raises(ValueError, match="square"):
            la.exterior_power(np.ones(shape), 1)


class TestTwisting:
    def test_identity_fails_with_diagonal_pair(self):
        ok, failing = la.twisting_check(np.eye(2))
        assert not ok
        assert ((1,), (1,)) in failing

    def test_plane_rotation_passes(self):
        ok, failing = la.twisting_check(rotation2(np.pi / 4))
        assert ok
        assert failing == []

    def test_scaling_invariance(self):
        # the verdict is projective: scaling psi cannot change it
        for seed in range(20):
            rng = np.random.default_rng(seed)
            psi = rng.normal(size=(3, 3))
            if abs(np.linalg.det(psi)) < 1e-3:
                continue
            ok1, fail1 = la.twisting_check(psi)
            ok2, fail2 = la.twisting_check(2.5 * psi)
            assert ok1 == ok2
            assert fail1 == fail2

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_matches_wedge_reference(self, d):
        # exact zeros make some minors vanish structurally, so failing pairs
        # appear and their order is compared too
        rng = np.random.default_rng(200 + d)
        for _ in range(40):
            psi = sparse_invertible(rng, d)
            assert la.twisting_check(psi) == wedge_twisting_reference(psi)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_witness(self, n):
        A = la.twisting_witness(n)
        assert la.is_symplectic(A)
        assert np.max(np.abs(A[n:, :n])) < 1e-12  # preserves span{e_i}
        ok, failing = la.twisting_check(A[:n, :n], n)
        assert ok, failing

    def test_witness_n2_is_nontrivial(self):
        A = la.twisting_witness(2)
        assert not np.allclose(A, np.eye(4))


# ---------------------------------------------------------------------------
# moduli separation
# ---------------------------------------------------------------------------

class TestModuliSeparation:
    def test_noop_when_distinct(self):
        M = np.diag([2.0, 0.7])
        assert la.moduli_separation_perturb(M, 0.1) is M

    def test_equal_diagonal_split(self):
        M = np.diag([2.0, 2.0])
        out = la.moduli_separation_perturb(M, 0.1)
        rec = la.sorted_spectrum(out)
        assert np.linalg.norm(out - M, 2) <= 0.1
        assert abs(rec.eigenvalues[0]) - abs(rec.eigenvalues[1]) >= 0.01 - 1e-12

    def test_symplectic_distinct_noop(self):
        M = np.diag([2.0, 3.0, 0.5, 1.0 / 3.0])
        assert la.moduli_separation_perturb(M, 0.1, constraint="symplectic") is M

    def test_symplectic_repeated_paired_scaling(self):
        M = np.diag([2.0, 2.0, 0.5, 0.5])
        out = la.moduli_separation_perturb(M, 0.1, constraint="symplectic")
        assert la.is_symplectic(out)
        assert abs(np.linalg.det(out) - 1.0) < 1e-12
        assert la._simple_spaces(out) is not None

    def test_near_real_pair_snapped(self):
        # tiny-argument conformal block must become real with distinct moduli
        M = 1.5 * rotation2(1e-8)
        out = la.moduli_separation_perturb(M, 1e-3)
        assert la.sorted_spectrum(out).is_real.all()
        assert la._simple_spaces(out) is not None

    def test_genuine_complex_pair_kept(self):
        M = np.zeros((4, 4))
        M[:2, :2] = 2.0 * rotation2(0.8)
        M[2:, 2:] = 2.0 * np.eye(2)  # collides in modulus with the pair
        out = la.moduli_separation_perturb(M, 0.2)
        rec = la.sorted_spectrum(out)
        assert sorted(rec.is_real) == [False, False, True, True]
        # pair stays a pair; only cross-class moduli separate
        assert la._simple_spaces(out) is not None

    def test_defective_rejected(self):
        with pytest.raises(ValueError, match="non-diagonalizable"):
            la.moduli_separation_perturb(np.array([[2.0, 1.0], [0.0, 2.0]]), 0.1)

    @pytest.mark.parametrize("M", [np.eye(2), rotation2(1e-7)], ids=["identity", "unit-pair"])
    def test_symplectic_block_on_one_separated(self, M):
        # the two members of a block on +-1 coincide until its factor moves
        out = la.moduli_separation_perturb(M, 0.05, constraint="symplectic")
        assert la.is_symplectic(out)
        assert np.linalg.norm(out - M, 2) <= 0.05
        assert la.sorted_spectrum(out).is_real.all() and la._simple_spaces(out) is not None

    @pytest.mark.parametrize("diagonal, seed", REPEATED_REAL_CASES + [SEED_291_CASE])
    def test_symplectic_repeated_real_conjugated_separated(self, diagonal, seed):
        M = repeated_real_case(diagonal, seed)
        out = la.moduli_separation_perturb(M, 0.05, constraint="symplectic")
        assert la.is_symplectic(out)
        assert np.linalg.norm(out - M, 2) <= 0.05
        assert la.sorted_spectrum(out).is_real.all() and la._simple_spaces(out) is not None

    @pytest.mark.parametrize("lam", [1.0, -1.0])
    def test_symplectic_unit_real_eigenspace_separated(self, lam):
        M = unit_real_case(lam)
        out = la.moduli_separation_perturb(M, 0.05, constraint="symplectic")
        assert la.is_symplectic(out)
        assert np.linalg.norm(out - M, 2) <= 0.05
        assert la.sorted_spectrum(out).is_real.all() and la._simple_spaces(out) is not None

    @pytest.mark.parametrize("kind", ["real_pair", "unit_pair", "quad", "quad_snap"])
    def test_symplectic_simple_spectrum_separated(self, kind):
        # a simple spectrum takes the symplectic block form; each case puts
        # its block kind in the perturbing branch: colliding real pairs, a
        # unit pair and a quadruple within realify_tol of the real axis
        # (snapped to real), and a conformal quadruple whose modulus
        # collides with a real pair
        M, want = symplectic_separation_case(kind)
        assert want in [b.kind for b in la.symplectic_diagonalize(M).blocks]
        eps = 0.05
        out = la.moduli_separation_perturb(M, eps, constraint="symplectic", realify_tol=1e-5)
        assert out is not M
        assert la.is_symplectic(out)
        assert np.linalg.norm(out - M, 2) <= eps
        assert la._simple_spaces(out) is not None
        assert la.sorted_spectrum(out).is_real.all() == (kind != "quad")


def symplectic_separation_case(kind):
    """(M, block kind): a symplectic matrix with simple spectrum whose moduli
    need separating, conjugated by a fixed symplectic basis change."""
    if kind == "real_pair":
        M = np.diag([2.0, -2.0, 0.5, -0.5])
    elif kind == "unit_pair":
        M = np.diag([1.0, 3.0, 1.0, 1.0 / 3.0])
        M[np.ix_([0, 2], [0, 2])] = rotation2(1e-6)
    else:
        E = 2.0 * rotation2(1e-7) if kind == "quad_snap" else np.diag([2.0, 2.0, 2.0])
        if kind == "quad":
            E[:2, :2] = 2.0 * rotation2(0.7)
        n = len(E)
        M = np.block([[E, np.zeros((n, n))], [np.zeros((n, n)), np.linalg.inv(E).T]])
    return symplectic_conjugate(M), kind.removesuffix("_snap")


def repeated_real_case(diagonal, seed):
    """diag(diagonal), a symplectic diagonal, in the basis of
    symplectic_conjugate at seed."""
    return symplectic_conjugate(np.diag(diagonal), seed)


def unit_real_case(lam):
    """diag(lam, lam, 2, lam, lam, 1/2), lam = +-1, in the basis of
    symplectic_conjugate: a +-1 eigenspace of dimension four."""
    return symplectic_conjugate(np.diag([lam, lam, 2.0, lam, lam, 0.5]))


def symplectic_conjugate(M, seed=3):
    """M conjugated by a symplectic basis change drawn from seed."""
    n = len(M) // 2
    rng = np.random.default_rng(seed)
    A = np.eye(n) + 0.3 * rng.normal(size=(n, n))
    sym = rng.normal(size=(n, n))
    shear = np.block([[np.eye(n), 0.3 * (sym + sym.T)], [np.zeros((n, n)), np.eye(n)]])
    scale = np.block([[A, np.zeros((n, n))], [np.zeros((n, n)), np.linalg.inv(A).T]])
    S = shear @ scale
    assert la.is_symplectic(S)
    return S @ M @ np.linalg.inv(S)
