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

import numpy as np

from .errors import InvariantViolation, NotPositiveSemidefinite

__all__ = [
    "as_complex_matrix",
    "check_hermitian",
    "check_unitary",
    "check_positive_det",
    "check_spectrum",
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


def as_complex_matrix(A) -> np.ndarray:
    """Coerce to a square complex ndarray with finite entries."""
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvariantViolation(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvariantViolation("matrix has non-finite entries")
    return M


def check_hermitian(A, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Validate max|A - A*| <= tol * (1 + max|A|) and return A as ndarray."""
    M = as_complex_matrix(A)
    scale = 1.0 + np.abs(M).max(initial=0.0)
    dev = np.abs(M - M.conj().T).max(initial=0.0)
    if dev > tol * scale:
        raise InvariantViolation(f"matrix is not Hermitian: max|A - A*| = {dev:.3e}")
    return M


def check_unitary(U, tol: float = UNITARY_TOL) -> np.ndarray:
    """Validate max|U*U - I| <= tol and return U as ndarray."""
    M = as_complex_matrix(U)
    dev = np.max(np.abs(M.conj().T @ M - np.eye(M.shape[0])))
    if dev > tol:
        raise InvariantViolation(f"matrix is not unitary: max|U*U - I| = {dev:.3e}")
    return M


def check_positive_det(A) -> np.ndarray:
    """Validate a real positive det(A) (imaginary part within
    1e-9 (1 + |det|)), where the determinant flow starts, and return A as
    ndarray."""
    M = as_complex_matrix(A)
    det = complex(np.linalg.det(M))
    if abs(det.imag) > 1e-9 * (1.0 + abs(det)) or det.real <= 0.0:
        raise InvariantViolation(f"flow start needs real positive determinant, got {det:.3e}")
    return M


def check_spectrum(w) -> np.ndarray:
    """Validate a weakly decreasing real vector."""
    v = np.asarray(w, dtype=float).ravel()
    if v.size and np.any(np.diff(v) > 0):
        raise InvariantViolation("spectrum is not weakly decreasing")
    return v


def eigenvalue_blocks(w, cluster_tol: float = CLUSTER_TOL, scale: float | None = None):
    """Partition a weakly decreasing spectrum into clusters of nearly equal values.

    Returns a list of (lo, hi) index ranges (hi exclusive). Two consecutive
    eigenvalues belong to one block when they differ by at most
    cluster_tol * (1 + scale); scale defaults to max|w|.
    """
    v = np.asarray(w, dtype=float).ravel().tolist()
    if scale is None:
        scale = max(map(abs, v), default=0.0)
    return _blocks(v, cluster_tol * (1.0 + scale))


def _blocks(v: list, gap: float) -> list:
    """eigenvalue_blocks of the float list v with the absolute gap."""
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


def _gram_schmidt(cols: np.ndarray) -> np.ndarray:
    out = cols.copy()
    for j in range(out.shape[1]):
        for k in range(j):
            out[:, j] -= (out[:, k].conj() @ out[:, j]) * out[:, k]
        nrm = np.linalg.norm(out[:, j])
        if nrm > 0:
            out[:, j] /= nrm
    return out


def eig_hermitian(A, hermitian_tol: float = HERMITIAN_TOL,
                  cluster_tol: float = CLUSTER_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns (w, U) with w weakly decreasing and U unitary such that
    U* A U = diag(w). Within each eigenvalue cluster the basis is
    re-orthonormalized in place (Gram-Schmidt in column order) and each
    column's phase is fixed so the first sizable component is real positive,
    which makes the output deterministic.
    """
    return _eigh(check_hermitian(A, hermitian_tol), cluster_tol)


def _eigh(M: np.ndarray, cluster_tol: float):
    """eig_hermitian of a matrix that check_hermitian has accepted."""
    vals, vecs = np.linalg.eigh(0.5 * (M + M.conj().T))
    w = vals[::-1].copy()
    U = vecs[:, ::-1]
    v = w.tolist()
    if not v:
        return w, U.copy()
    scale = max(abs(v[0]), abs(v[-1]))      # v is sorted
    for lo, hi in _blocks(v, cluster_tol * (1.0 + scale)):
        if hi - lo > 1:
            U[:, lo:hi] = _gram_schmidt(U[:, lo:hi])
    return w, _fix_phases(U)


def polar_decompose(B):
    """Polar decomposition B = U P with U unitary and P = sqrt(B*B) PSD.

    Computed from the SVD, which also completes U deterministically when B is
    singular.
    """
    M = as_complex_matrix(B)
    W, s, Vh = np.linalg.svd(M)
    U = W @ Vh
    P = (Vh.conj().T * s) @ Vh
    P = 0.5 * (P + P.conj().T)
    return U, P


def adjugate(A) -> np.ndarray:
    """Adjugate (transposed cofactor matrix): A @ adjugate(A) = det(A) I.

    Explicit cofactors for n <= 3. For n >= 4 it comes from one SVD
    A = W S V*: adj(A) = det(W V*) V diag(prod_{j != i} s_j) W*, with the
    products formed from prefix and suffix products. No division occurs, so
    the result stays accurate on and near the singular fiber (G. W. Stewart,
    "On the adjugate matrix", Linear Algebra Appl. 283, 1998).
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
            [e * i - f * h, c * h - b * i, b * f - c * e],
            [f * g - d * i, a * i - c * g, c * d - a * f],
            [d * h - e * g, b * g - a * h, a * e - b * d],
        ], dtype=complex)
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


def momentum_right(B, traceless_part: bool = False) -> np.ndarray:
    """Right momentum of B under the dropped-i identification: B*B.

    With traceless_part=True, returns the su(n)* component
    B*B - (tr(B*B)/n) I.
    """
    M = as_complex_matrix(B)
    H = M.conj().T @ M
    H = 0.5 * (H + H.conj().T)
    if traceless_part:
        return traceless(H)
    return H


def traceless(H) -> np.ndarray:
    M = as_complex_matrix(H)
    n = M.shape[0]
    return M - (np.trace(M) / n) * np.eye(n)


def section_sqrt(H, psd_tol: float = PSD_TOL):
    """Principal PSD square root: the momentum-map section on PSD matrices.

    Eigenvalues within psd_tol * (1 + |H|) of zero are clamped to zero; an
    eigenvalue below that margin raises NotPositiveSemidefinite.
    """
    w, U = _eigh(check_hermitian(H), CLUSTER_TOL)
    margin = psd_tol * (1.0 + float(np.max(np.abs(w), initial=0.0)))
    if w.size and w[-1] < -margin:
        raise NotPositiveSemidefinite(
            f"eigenvalue {w[-1]:.3e} below -{margin:.3e}")
    wc = np.clip(w, 0.0, None)
    S = (U * np.sqrt(wc)) @ U.conj().T
    return 0.5 * (S + S.conj().T)


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
