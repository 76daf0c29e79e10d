import numpy as np
import pytest

from mflow import matrices
from mflow.errors import InvariantViolation, NotPositiveSemidefinite
from mflow.matrices import (
    adjugate,
    as_complex_matrix,
    eig_hermitian,
    eigenvalue_blocks,
    haar_special_unitary,
    haar_unitary,
    momentum_right,
    polar_decompose,
    section_sqrt,
)


def adjugate_by_minors(A):
    """Reference adjugate: signed (n-1)x(n-1) minors, one batched det call."""
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    minors = np.empty((n, n, n - 1, n - 1), dtype=complex)
    for i in range(n):
        sub = A[np.delete(np.arange(n), i)]
        for j in range(n):
            minors[i, j] = sub[:, np.delete(np.arange(n), j)]
    cof = np.linalg.det(minors.reshape(n * n, n - 1, n - 1)).reshape(n, n)
    signs = (-1.0) ** np.add.outer(np.arange(n), np.arange(n))
    return (signs * cof).T


def with_singular_values(s, rng):
    """W diag(s) V* with Haar-random unitary W and V."""
    n = len(s)
    return (haar_unitary(n, rng) * np.asarray(s, dtype=float)) @ haar_unitary(n, rng)


def random_hermitian(n, rng, scale=1.0):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (Z + Z.conj().T)


class TestEigHermitian:
    def test_already_diagonal_sorted(self):
        w, U = eig_hermitian(np.diag([3.0, 1.0]))
        assert np.allclose(w, [3.0, 1.0])
        assert np.allclose(U, np.eye(2))

    def test_offdiagonal_reconstruction(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        w, U = eig_hermitian(A)
        assert np.allclose(w, [1.0, -1.0])
        assert np.allclose(U @ np.diag(w) @ U.conj().T, A, atol=1e-12)

    def test_2x2_against_quadratic_solve(self):
        # Independent oracle: roots of the characteristic polynomial
        # lambda^2 - tr*lambda + det = 0 for [[2, i], [-i, 2]].
        A = np.array([[2.0, 1j], [-1j, 2.0]])
        tr, det = 4.0, 2.0 * 2.0 - (1j * -1j).real
        disc = np.sqrt(tr * tr - 4.0 * det)
        expected = np.array([(tr + disc) / 2.0, (tr - disc) / 2.0])
        assert np.allclose(expected, [3.0, 1.0])
        w, U = eig_hermitian(A)
        assert np.allclose(w, expected, atol=1e-12)
        assert np.allclose(U @ np.diag(w) @ U.conj().T, A, atol=1e-12)

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 5, 8):
            A = random_hermitian(n, rng)
            w, U = eig_hermitian(A)
            nrm = np.linalg.norm(A)
            assert np.all(np.diff(w) <= 1e-12)
            assert np.linalg.norm(U @ np.diag(w) @ U.conj().T - A) <= 1e-9 * nrm
            assert np.allclose(U.conj().T @ U, np.eye(n), atol=1e-12)

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(3)
        A = random_hermitian(6, rng)
        w1, U1 = eig_hermitian(A)
        w2, U2 = eig_hermitian(A.copy())
        assert w1.tobytes() == w2.tobytes()
        assert U1.tobytes() == U2.tobytes()

    def test_degenerate_cluster_still_diagonalizes(self):
        rng = np.random.default_rng(11)
        V = haar_unitary(4, rng)
        A = V @ np.diag([2.0, 2.0, 2.0, -1.0]) @ V.conj().T
        A = 0.5 * (A + A.conj().T)
        w, U = eig_hermitian(A)
        assert np.linalg.norm(U @ np.diag(w) @ U.conj().T - A) < 1e-10
        assert eigenvalue_blocks(w) == [(0, 3), (3, 4)]

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvariantViolation):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def fix_phases_by_column(U):
    """Reference for matrices._fix_phases: one column at a time."""
    V = U.copy()
    for j in range(V.shape[1]):
        col = V[:, j]
        idx = np.flatnonzero(np.abs(col) > 1e-12)
        if idx.size:
            z = col[idx[0]]
            V[:, j] = col * (z.conjugate() / abs(z))
    return V


def blocks_by_index(w, cluster_tol=matrices.CLUSTER_TOL):
    """Reference for eigenvalue_blocks: indexes numpy scalars."""
    v = np.asarray(w, dtype=float).ravel()
    gap = cluster_tol * (1.0 + float(np.max(np.abs(v), initial=0.0)))
    blocks, lo = [], 0
    for i in range(1, v.size):
        if v[lo] - v[i] > gap or v[i - 1] - v[i] > gap:
            blocks.append((lo, i))
            lo = i
    if v.size:
        blocks.append((lo, v.size))
    return blocks


class TestKernels:
    def test_fix_phases_matches_column_loop(self):
        rng = np.random.default_rng(17)
        cases = [haar_unitary(n, rng) for n in (1, 2, 3, 5, 12)]
        U = haar_unitary(4, rng)
        U[0, 1] = 1e-13                 # first component below the threshold
        U[:2, 2] = 0.0
        cases.append(U)
        cases.append(eig_hermitian(np.diag([2.0, 2.0, 1.0]))[1])
        for U in cases:
            ref = fix_phases_by_column(U)
            got = matrices._fix_phases(U)
            assert np.max(np.abs(got - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(U))

    def test_empty_matrix(self):
        w, U = eig_hermitian(np.zeros((0, 0)))
        assert w.shape == (0,) and U.shape == (0, 0)

    def test_eigenvalue_blocks_bit_identical_to_index_loop(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            n = int(rng.integers(0, 9))
            w = np.sort(rng.choice([3.0, 1.0, 1.0 + 1e-9, 0.0, -2.0, -2.0 - 5e-8], size=n))[::-1]
            w = w + rng.uniform(-1e-9, 1e-9, size=n) * rng.integers(0, 2)
            w = np.sort(w)[::-1]
            assert eigenvalue_blocks(w) == blocks_by_index(w)


class TestPolar:
    def test_identity(self):
        U, P = polar_decompose(np.eye(3))
        assert np.allclose(U, np.eye(3))
        assert np.allclose(P, np.eye(3))

    def test_already_positive(self):
        B = np.diag([2.0, 0.5])
        U, P = polar_decompose(B)
        assert np.allclose(U, np.eye(2), atol=1e-12)
        assert np.allclose(P, B, atol=1e-12)

    def test_rotation_factor(self):
        B = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)
        assert np.allclose(B.conj().T @ B, np.eye(2))  # direct multiplication
        U, P = polar_decompose(B)
        assert np.allclose(U, B, atol=1e-12)
        assert np.allclose(P, np.eye(2), atol=1e-12)

    def test_random_consistency(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 7):
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            U, P = polar_decompose(B)
            assert np.linalg.norm(U @ P - B) <= 1e-9 * np.linalg.norm(B)
            assert np.allclose(U.conj().T @ U, np.eye(n), atol=1e-12)
            evals = np.linalg.eigvalsh(P)
            assert evals.min() >= -1e-12

    def test_singular_input(self):
        B = np.diag([1.0, 0.0])
        U, P = polar_decompose(B)
        assert np.allclose(U @ P, B, atol=1e-12)
        assert np.allclose(U.conj().T @ U, np.eye(2), atol=1e-12)


class TestAdjugate:
    def test_identity(self):
        for n in (1, 2, 3, 5):
            assert np.allclose(adjugate(np.eye(n)), np.eye(n))

    def test_2x2_cofactors(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(adjugate(A), [[4.0, -2.0], [-3.0, 1.0]])

    def test_fundamental_identity_random(self):
        rng = np.random.default_rng(17)
        for n in range(4, 13):
            for _ in range(5):
                A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                scale = np.linalg.norm(A, 2) ** n
                for resid in (A @ adjugate(A), adjugate(A) @ A):
                    resid = resid - np.linalg.det(A) * np.eye(n)
                    assert np.max(np.abs(resid)) < 1e-13 * scale, n

    def test_singular_matrix(self):
        A = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]])
        resid = A @ adjugate(A)
        assert np.max(np.abs(resid)) < 1e-12

    @pytest.mark.parametrize("rank_drop", [0, 1, 2, 3])
    def test_matches_minors_by_rank(self, rank_drop):
        # rank n: invertible; rank n-1: adjugate of rank one; rank <= n-2: zero
        rng = np.random.default_rng(23 + rank_drop)
        for n in range(4, 13):
            s = rng.uniform(0.5, 2.0, size=n)
            s[n - rank_drop:] = 0.0
            A = with_singular_values(s, rng)
            adj, ref = adjugate(A), adjugate_by_minors(A)
            scale = np.linalg.norm(A, 2) ** (n - 1)
            assert np.max(np.abs(adj - ref)) < 1e-13 * scale, (n, rank_drop)
            if rank_drop >= 1:
                assert np.max(np.abs(A @ adj)) < 1e-13 * scale
            if rank_drop == 1:
                assert np.linalg.matrix_rank(adj, tol=1e-8 * scale) == 1
            if rank_drop >= 2:
                assert np.max(np.abs(adj)) < 1e-13 * scale

    def test_repeated_singular_values(self):
        assert np.max(np.abs(adjugate(np.eye(4)) - np.eye(4))) < 1e-15
        rng = np.random.default_rng(29)
        for s in ([2.0, 2.0, 0.5, 0.5], [1.5, 1.5, 4 / 9, 1.0], [1.0] * 6, [3.0, 1.0, 1.0, 1.0, 0.0]):
            A = with_singular_values(s, rng)
            n = len(s)
            scale = max(s) ** (n - 1)
            assert np.max(np.abs(adjugate(A) - adjugate_by_minors(A))) < 1e-13 * scale, s
            resid = A @ adjugate(A) - np.linalg.det(A) * np.eye(n)
            assert np.max(np.abs(resid)) < 1e-13 * scale * max(s), s

    def test_small_n_formulas_match_minors(self):
        rng = np.random.default_rng(31)
        for n in (2, 3):
            A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert np.max(np.abs(adjugate(A) - adjugate_by_minors(A))) < 1e-13


    def test_3x3_cofactors_bit_equal_numpy_scalar_formula(self):
        def numpy_scalar_cofactors(M):
            (a, b, c), (d, e, f), (g, h, i) = M
            return np.array([
                [e * i - f * h, c * h - b * i, b * f - c * e],
                [f * g - d * i, a * i - c * g, c * d - a * f],
                [d * h - e * g, b * g - a * h, a * e - b * d],
            ])

        rng = np.random.default_rng(37)
        for k in range(200):
            A = (rng.standard_normal((3, 3)) * 10.0 ** rng.integers(-6, 7, (3, 3))
                 + 1j * rng.standard_normal((3, 3)))
            if k % 4 == 1:
                A = A.real + 0j
            if k % 4 == 2:
                A[k % 3] = 0.0
            got, ref = adjugate(A), numpy_scalar_cofactors(A)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), k

    def test_svd_products_bit_equal_cumprod_formula(self):
        def cumprod_adjugate(M):
            W, s, Vh = np.linalg.svd(M)
            others = np.ones(len(s))
            others[1:] = np.cumprod(s[:-1])
            others[:-1] *= np.cumprod(s[:0:-1])[::-1]
            return np.linalg.det(W @ Vh) * ((Vh.conj().T * others) @ W.conj().T)

        rng = np.random.default_rng(41)
        for n in range(4, 13):
            for rank_drop in (0, 1, 2, n):
                s = rng.uniform(0.5, 2.0, size=n) * 10.0 ** rng.integers(-3, 4)
                s[n - rank_drop:] = 0.0
                for A in (with_singular_values(s, rng),
                          rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))):
                    got, ref = adjugate(A), cumprod_adjugate(A)
                    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), (n, rank_drop)


class TestAsComplexMatrix:
    def test_coerces_lists_ints_and_reals(self):
        for A in ([[1, 2], [3, 4]], np.arange(4).reshape(2, 2), np.eye(2),
                  np.eye(2, dtype=np.float32), [[1 + 2j]]):
            M = as_complex_matrix(A)
            assert M.dtype == complex and np.array_equal(M, np.asarray(A))

    def test_complex_input_passes_through(self):
        A = np.eye(3, dtype=complex)
        assert as_complex_matrix(A) is A

    @pytest.mark.parametrize("A", [
        5, [1.0, 2.0], np.ones((2, 3)), np.ones((2, 2, 2)), [[1.0, np.nan], [0.0, 1.0]],
        [[1.0, 0.0], [np.inf, 1.0]], [[1.0, complex(0.0, -np.inf)], [0.0, 1.0]],
        [[complex(np.nan, 0.0)]],
    ])
    def test_rejects_non_square_and_non_finite(self, A):
        with pytest.raises(InvariantViolation):
            as_complex_matrix(A)


class TestMomentum:
    def test_identity(self):
        assert np.allclose(momentum_right(np.eye(2)), np.eye(2))
        assert np.allclose(momentum_right(np.eye(2), traceless_part=True), 0.0)

    def test_diagonal(self):
        assert np.allclose(momentum_right(np.diag([2.0, 0.5])), np.diag([4.0, 0.25]))

    def test_unitary_gives_identity(self):
        rng = np.random.default_rng(23)
        U = haar_unitary(4, rng)
        assert np.allclose(momentum_right(U), np.eye(4), atol=1e-12)
        assert np.allclose(momentum_right(U, traceless_part=True), 0.0, atol=1e-12)


class TestSectionSqrt:
    def test_identity(self):
        assert np.allclose(section_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(section_sqrt(np.diag([4.0, 0.25])), np.diag([2.0, 0.5]))

    def test_round_trip_random_psd(self):
        rng = np.random.default_rng(29)
        for n in (2, 3, 6):
            Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            H = Z.conj().T @ Z
            H = 0.5 * (H + H.conj().T)
            S = section_sqrt(H)
            assert np.linalg.norm(momentum_right(S) - H) < 1e-9 * (1 + np.linalg.norm(H))

    def test_boundary_clamp(self):
        H = np.diag([1.0, -1e-12])
        S = section_sqrt(H)
        assert np.allclose(S, np.diag([1.0, 0.0]), atol=1e-6)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveSemidefinite):
            section_sqrt(np.diag([1.0, -0.5]))


class TestHaar:
    def test_unitary_and_special(self):
        rng = np.random.default_rng(31)
        U = haar_unitary(5, rng)
        assert np.allclose(U.conj().T @ U, np.eye(5), atol=1e-12)
        S = haar_special_unitary(5, rng)
        assert np.allclose(S.conj().T @ S, np.eye(5), atol=1e-12)
        assert abs(np.linalg.det(S) - 1.0) < 1e-10
