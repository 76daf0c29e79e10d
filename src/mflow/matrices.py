"""Dense complex matrix core: Hermitian eigendecomposition with deterministic
tie-breaking, polar decomposition, adjugate, right momentum, and the PSD square
root section of the momentum map.

Conventions used throughout the package:

* u(n)* is identified with Hermitian matrices; the right momentum of an
  operator B is stored as B*B (the traceless part is the su(n)* component).
* Spectra are reported in weakly decreasing order.
* All operations are pure and deterministic: identical input bits produce
  identical output bits.
"""

from __future__ import annotations

import cmath
import math
import sys

import numpy as np

from .errors import InvariantViolation, NotPositiveSemidefinite

__all__ = [
    "as_complex_matrix",
    "check_hermitian",
    "check_unitary",
    "check_positive_det",
    "eig_hermitian",
    "eigenvalue_blocks",
    "polar_decompose",
    "adjugate",
    "momentum_right",
    "traceless",
    "section_sqrt",
    "haar_unitary",
    "haar_special_unitary",
]

HERMITIAN_TOL = 1e-10   # relative: scaled by (1 + max|A|)
UNITARY_TOL = 1e-9      # absolute on max|U*U - I|
CLUSTER_TOL = 1e-8      # relative: scaled by (1 + |A|)
PSD_TOL = 1e-9          # relative: scaled by (1 + |H|)


def _all_finite(M: np.ndarray) -> bool:
    """Whether every entry of M is finite. The sum of |M_ij|^2 is finite only
    when every entry is, so it settles most calls; the entry-wise test runs
    only when the sum is not finite, which overflow alone can also cause."""
    return math.isfinite(np.vdot(M, M).real) or bool(np.isfinite(M).all())


def as_complex_matrix(A) -> np.ndarray:
    """Coerce to a square complex ndarray with finite entries."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvariantViolation(f"expected a square matrix, got shape {M.shape}")
    if not _all_finite(M):
        raise InvariantViolation("matrix has non-finite entries")
    return M


def _nonempty(M: np.ndarray) -> np.ndarray:
    """M, refused with InvariantViolation when it is 0x0: for the functions
    that have no meaning at n = 0."""
    if not M.size:
        raise InvariantViolation("expected an n x n matrix with n >= 1, got 0x0")
    return M


def check_hermitian(A) -> np.ndarray:
    """Validate max|A - A*| <= HERMITIAN_TOL (1 + max|A|) and return A as
    ndarray."""
    M = as_complex_matrix(A)
    scale = 1.0 + np.abs(M).max(initial=0.0)
    dev = np.abs(M - M.conj().T).max(initial=0.0)
    if dev > HERMITIAN_TOL * scale:
        raise InvariantViolation(f"matrix is not Hermitian: max|A - A*| = {dev:.3e}")
    return M


def check_unitary(U) -> np.ndarray:
    """Validate max|U*U - I| <= UNITARY_TOL and return U as ndarray (n >= 1)."""
    M = _nonempty(as_complex_matrix(U))
    dev = np.max(np.abs(M.conj().T @ M - np.eye(M.shape[0])))
    if dev > UNITARY_TOL:
        raise InvariantViolation(f"matrix is not unitary: max|U*U - I| = {dev:.3e}")
    return M


def check_positive_det(A) -> np.ndarray:
    """Validate a finite, real positive det(A) (|Im det| within 1e-9 |det|,
    a phase within 1e-9 rad of 0 at any scale), where the determinant flow
    starts, and return A as ndarray (n >= 1)."""
    M = _nonempty(as_complex_matrix(A))
    with np.errstate(over="ignore", invalid="ignore"):
        det = complex(np.linalg.det(M))
    if not cmath.isfinite(det):
        raise InvariantViolation(f"flow start needs a finite determinant, got {det}")
    if abs(det.imag) > 1e-9 * abs(det) or det.real <= 0.0:
        raise InvariantViolation(f"flow start needs real positive determinant, got {det:.3e}")
    return M


def eigenvalue_blocks(w):
    """Partition a weakly decreasing spectrum into clusters of nearly equal values.

    Returns a list of (lo, hi) index ranges (hi exclusive). Two consecutive
    eigenvalues belong to one block when they differ by at most
    CLUSTER_TOL (1 + max|w|).
    """
    v = np.asarray(w, dtype=float).ravel().tolist()
    gap = CLUSTER_TOL * (1.0 + max(map(abs, v), default=0.0))
    blocks = []
    lo = 0
    for i in range(1, len(v)):
        if v[lo] - v[i] > gap or v[i - 1] - v[i] > gap:
            blocks.append((lo, i))
            lo = i
    if v:
        blocks.append((lo, len(v)))
    return blocks


def _fix_phases(U: np.ndarray) -> np.ndarray:
    """Make the first non-negligible component of each column real positive.

    Every column must have a component above 1e-12, as the unit columns of
    an eigenbasis do.
    """
    first = (np.abs(U) > 1e-12).argmax(axis=0)
    z = U[first, np.arange(U.shape[1])]
    return U * (z.conj() / np.abs(z))


def eig_hermitian(A):
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, U) with w weakly decreasing and U unitary such that
    U* A U = diag(w). Each column's phase is fixed so the first sizable
    component is real positive, which makes the output deterministic. A
    spectrum that overflows float64 is refused with InvariantViolation.
    """
    return _eigh(check_hermitian(A))


def _hermitian(X: np.ndarray) -> np.ndarray:
    """The Hermitian part of X, as H + H* with H = 0.5 X: halving a normal
    float is exact, so this rounds as 0.5 (X + X*) does, but no sum of two
    entries near the float64 limit overflows."""
    H = 0.5 * X
    return H + H.conj().T


def _eigh(M: np.ndarray):
    """eig_hermitian of a matrix that check_hermitian has accepted, solved
    on its _hermitian part. A spectrum that overflows float64 raises
    InvariantViolation.
    """
    vals, vecs = np.linalg.eigh(_hermitian(M))
    w = vals[::-1].copy()
    v = w.tolist()
    if not all(map(math.isfinite, v)):
        raise InvariantViolation("matrix spectrum overflows float64")
    if not v:
        return w, vecs
    return w, _fix_phases(vecs[:, ::-1])


def polar_decompose(B):
    """Polar decomposition B = U P with U unitary and P = sqrt(B*B) PSD.

    Computed from the SVD, which also completes U deterministically when B is
    singular.
    """
    M = as_complex_matrix(B)
    W, s, Vh = np.linalg.svd(M)
    U = W @ Vh
    return U, _hermitian((Vh.conj().T * s) @ Vh)


def adjugate(A) -> np.ndarray:
    """Adjugate (transposed cofactor matrix): A @ adjugate(A) = det(A) I.

    Explicit cofactors for n <= 4; at n = 4 they are the Laplace expansion
    by the 2 x 2 minors of rows (0, 1) and of rows (2, 3). For n >= 5 it is
    det(A) inv(A), both from an LU factorization with partial pivoting: near
    the singular fiber inv(A) is large, but the product stays accurate (G. W.
    Stewart, "On the adjugate matrix", Linear Algebra Appl. 283, 1998).
    Where the product fails, one SVD A = W S V* gives adj(A) = det(W V*) V
    diag(prod_{j != i} s_j) W*, with the products formed from prefix and
    suffix products; it divides nowhere, so it covers exact singularity and
    det underflow. The SVD is used when det(A) is zero (an exact zero pivot)
    or subnormal, when inv(A) raises LinAlgError, or when det(A) inv(A) is
    not finite: det(A) overflows, or a subnormal pivot overflows the inverse.
    """
    M = as_complex_matrix(A)
    n = M.shape[0]
    if n == 1:
        return np.ones((1, 1), dtype=complex)
    if n == 2:
        return np.array([[M[1, 1], -M[0, 1]], [-M[1, 0], M[0, 0]]], dtype=complex)
    if n == 3:
        # Python complex arithmetic: same operations as on numpy scalars,
        # at half the cost
        (a, b, c), (d, e, f), (g, h, i) = M.tolist()
        return np.array([
            e * i - f * h, c * h - b * i, b * f - c * e,
            f * g - d * i, a * i - c * g, c * d - a * f,
            d * h - e * g, b * g - a * h, a * e - b * d,
        ], dtype=complex).reshape(3, 3)
    if n == 4:
        # sIJ / tIJ: the minor of columns I, J in rows (0, 1) / rows (2, 3);
        # each cofactor is three products of an entry with a minor
        (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = M.tolist()
        s01, s02, s03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
        s12, s13, s23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
        t01, t02, t03 = c0 * d1 - c1 * d0, c0 * d2 - c2 * d0, c0 * d3 - c3 * d0
        t12, t13, t23 = c1 * d2 - c2 * d1, c1 * d3 - c3 * d1, c2 * d3 - c3 * d2
        return np.array([
            b1 * t23 - b2 * t13 + b3 * t12, a2 * t13 - a1 * t23 - a3 * t12,
            d1 * s23 - d2 * s13 + d3 * s12, c2 * s13 - c1 * s23 - c3 * s12,
            b2 * t03 - b0 * t23 - b3 * t02, a0 * t23 - a2 * t03 + a3 * t02,
            d2 * s03 - d0 * s23 - d3 * s02, c0 * s23 - c2 * s03 + c3 * s02,
            b0 * t13 - b1 * t03 + b3 * t01, a1 * t03 - a0 * t13 - a3 * t01,
            d0 * s13 - d1 * s03 + d3 * s01, c1 * s03 - c0 * s13 - c3 * s01,
            b1 * t02 - b0 * t12 - b2 * t01, a0 * t12 - a1 * t02 + a2 * t01,
            d1 * s02 - d0 * s12 - d2 * s01, c0 * s12 - c1 * s02 + c2 * s01,
        ], dtype=complex).reshape(4, 4)
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.linalg.det(M)
        if abs(d) >= sys.float_info.min:
            try:
                adj = d * np.linalg.inv(M)
                if _all_finite(adj):
                    return adj
            except np.linalg.LinAlgError:    # an exact zero pivot in inv's own LU
                pass
    W, s, Vh = np.linalg.svd(M)
    # others[i] = (s_0 ... s_{i-1}) (s_{n-1} ... s_{i+1}), each product taken
    # left to right; Python floats are cheaper than numpy calls at this size
    s = s.tolist()
    others = [1.0]
    for x in s[:-1]:
        others.append(others[-1] * x)
    suffix = 1.0
    for i in range(n - 1, 0, -1):
        suffix *= s[i]
        others[i - 1] *= suffix
    return np.linalg.det(W @ Vh) * ((Vh.conj().T * others) @ W.conj().T)


def momentum_right(B) -> np.ndarray:
    """Right momentum of B under the dropped-i identification: B*B.

    Its su(n)* component is traceless(momentum_right(B)).
    """
    M = as_complex_matrix(B)
    return _hermitian(M.conj().T @ M)


def traceless(H) -> np.ndarray:
    """H - (tr H / n) I, for n >= 1."""
    M = _nonempty(as_complex_matrix(H))
    n = M.shape[0]
    return M - (np.trace(M) / n) * np.eye(n)


def section_sqrt(H):
    """Principal PSD square root: the momentum-map section on PSD matrices.

    Eigenvalues within PSD_TOL (1 + |H|) of zero are clamped to zero; an
    eigenvalue below that margin raises NotPositiveSemidefinite.
    """
    w, U = _eigh(check_hermitian(H))
    margin = PSD_TOL * (1.0 + float(np.max(np.abs(w), initial=0.0)))
    if w.size and w[-1] < -margin:
        raise NotPositiveSemidefinite(
            f"eigenvalue {w[-1]:.3e} below -{margin:.3e}")
    wc = np.clip(w, 0.0, None)
    return _hermitian((U * np.sqrt(wc)) @ U.conj().T)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed U(n) element: QR of a complex Gaussian with the
    R-diagonal phases normalized away."""
    Z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def haar_special_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar U(n) sample with the determinant phase divided out (an SU(n) point)."""
    U = haar_unitary(n, rng)
    return U * np.linalg.det(U) ** (-1.0 / n)
