"""The symplectic contraction map on matrix space and cotangent data.

contract_closed_form sends B to U sqrt(B*B - l_min I) with B = U P polar,
collapsing the flow of the determinant gradient field in one step, and
flow_closed_form gives that flow's whole m = 1 curve in closed form;
contract_point produces the normal form (w, g) of a cotangent pair,
and same_fiber decides the underlying equivalence relation: equal momentum
and a ratio lying in the commutator of its stabilizer. star_action is the
extra torus symmetry acting through the diagonalizer of a leading submatrix.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property

import numpy as np

from .branching import _integers
from .errors import InvariantViolation, PrincipalStratumViolation
from .matrices import (
    _eigh,
    _hermitian,
    _nonempty,
    as_complex_matrix,
    check_hermitian,
    check_positive_det,
    check_unitary,
    eigenvalue_blocks,
)

__all__ = [
    "CotangentPoint",
    "ContractedPoint",
    "contract_closed_form",
    "flow_closed_form",
    "contract_point",
    "same_fiber",
    "contracted_equal",
    "star_action",
]


@dataclasses.dataclass(frozen=True)
class CotangentPoint:
    """Point (k, v) of T*U(n): k unitary, v Hermitian (the right momentum).

    k and v are read-only copies, and the sorted eigendecomposition of v
    (_spectrum) is solved once, on first use, for the point's life.
    """

    k: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        # read-only copies: the checks made here hold for the point's life
        object.__setattr__(self, "k", _frozen(check_unitary(self.k)))
        object.__setattr__(self, "v", _frozen(check_hermitian(self.v)))
        if self.k.shape != self.v.shape:
            raise InvariantViolation("k and v must have equal dimensions")

    @cached_property
    def _spectrum(self) -> tuple:
        """_eigh(v) as read-only arrays (w, U), shared by same_fiber and
        contract_point."""
        w, U = _eigh(self.v)
        w.flags.writeable = False
        U.flags.writeable = False
        return w, U


def _frozen(M: np.ndarray) -> np.ndarray:
    out = M.copy()
    out.flags.writeable = False
    return out


@dataclasses.dataclass(frozen=True)
class ContractedPoint:
    """Normal form of a contracted cotangent point.

    w is the diagonalized momentum and g = k h* carries the residual unitary
    data (h v h* = diag(w)). Its blocks are eigenvalue_blocks(w): two normal
    forms are equal (contracted_equal) when g_a* g_b lies in the product of
    the blocks' special unitary groups, even if their g differ.
    """

    w: np.ndarray
    g: np.ndarray


def _gaps(sigma: np.ndarray) -> np.ndarray:
    """sigma_i^2 - sigma_min^2 for descending singular values sigma, from one
    array of squares: exactly 0 at the smallest value and >= 0 elsewhere. (A
    scalar sigma_min ** 2 can round one unit off sigma_min * sigma_min.) A
    sigma_max^2 that overflows float64 raises InvariantViolation."""
    top = float(sigma[0])
    if not math.isfinite(top * top):
        raise InvariantViolation("sigma_max^2 overflows float64; the contraction is undefined")
    s2 = sigma * sigma
    return s2 - s2[-1]


def contract_closed_form(B) -> np.ndarray:
    """Closed-form contraction U sqrt(B*B - l_min(B*B) I) with B = U P polar.

    Agrees with the endpoint of the normalized determinant gradient flow;
    proved in rank 2, validated against the flow integrator for larger n by
    the acceptance suite. The result is exactly singular (its last singular
    direction is scaled by an exact 0) and carries the same traceless right
    momentum as B. A 0x0 B, and a B whose largest squared singular value
    overflows float64, are refused with InvariantViolation.
    """
    W, s, Vh = np.linalg.svd(_nonempty(as_complex_matrix(B)))
    return (W * np.sqrt(_gaps(s))) @ Vh


# Newton steps of flow_closed_form: random SL(2..12) and clustered starts at
# s from -1 to d0 (1 - 1e-15) take at most 6; the cap only ends a loop that
# rounding keeps from meeting its step test.
_NEWTON_ITERATIONS = 50


def flow_closed_form(B, s: float) -> np.ndarray:
    """Point at unit-rate time s of the m = 1 determinant flow from B, exactly.

    B must have real positive determinant d0. Write B = W diag(sigma) V*.
    The m = 1 field -adj(B)*/|adj(B)|^2 is W diag(p) V* with
    p_i = prod_{j != i} sigma_j, so the flow keeps W and V and moves only
    the singular values; conservation of the traceless right momentum gives
    sigma_i(s)^2 = sigma_i^2 + lambda(s) for one scalar, and the unit-rate
    law fixes it: prod_i (sigma_i^2 + lambda) = (d0 - s)^2. In terms of
    g_i = sigma_i^2 - sigma_min^2 and x = sigma_min^2 + lambda > 0 that is
    sum_i log(g_i + x) = 2 log(d0 - s), convex and increasing in log x, so
    Newton's method on log x started at log sigma_min^2 (s = 0) falls
    monotonically onto the root (for s < 0, the flow run backwards, its
    first step overshoots and the rest fall). From s = d0 on x = 0, and the
    point is contract_closed_form(B), from the same SVD.
    """
    M = check_positive_det(B)
    if not math.isfinite(s):
        raise InvariantViolation(f"flow time must be finite, got {float(s)}")
    W, sigma, Vh = np.linalg.svd(M)
    d0 = float(np.prod(sigma))
    g = _gaps(sigma)
    if s >= d0:
        return (W * np.sqrt(g)) @ Vh
    target = 2.0 * math.log(d0 - s)
    y = 2.0 * math.log(sigma[-1])
    for _ in range(_NEWTON_ITERATIONS):
        x = math.exp(y)
        step = (float(np.sum(np.log(g + x))) - target) / float(np.sum(x / (g + x)))
        y -= step
        if abs(step) <= 1e-15 * (1.0 + abs(y)):
            break
    return (W * np.sqrt(g + math.exp(y))) @ Vh


def contract_point(x: CotangentPoint) -> ContractedPoint:
    """Normal form (w, g) with h v h* = diag(w) and g = k h*."""
    w, U = x._spectrum
    # h = U* diagonalizes v, so g = k h* = k U.
    return ContractedPoint(w.copy(), x.k @ U)


def _block_special_unitary_defect(C: np.ndarray, blocks: list) -> float:
    """Distance of C from the product of block special-unitary groups.

    Returns the larger of the maximal off-block entry and the maximal
    per-block determinant deviation from 1.
    """
    defect = 0.0
    mask = np.ones(C.shape, dtype=bool)
    for lo, hi in blocks:
        mask[lo:hi, lo:hi] = False
        defect = max(defect, abs(np.linalg.det(C[lo:hi, lo:hi]) - 1.0))
    off = np.max(np.abs(C[mask])) if mask.any() else 0.0
    return max(defect, float(off))


def same_fiber(x: CotangentPoint, y: CotangentPoint, tol: float) -> bool:
    """Whether x and y are collapsed to one point by the contraction.

    True iff the momenta agree (max|v_x - v_y| <= tol) and, with h the sorted
    diagonalizer of v_x, the ratio h (k_x* k_y) h* lies in the product of
    block special-unitary groups of the eigenvalue_blocks of the spectrum of
    v_x: block-diagonal within tol with every diagonal block of determinant 1
    within tol.
    """
    if x.v.shape != y.v.shape:
        return False
    if np.max(np.abs(x.v - y.v)) > tol:
        return False
    w, U = x._spectrum
    C = U.conj().T @ (x.k.conj().T @ y.k) @ U
    return _block_special_unitary_defect(C, eigenvalue_blocks(w)) <= tol


def contracted_equal(a: ContractedPoint, b: ContractedPoint, tol: float) -> bool:
    """Equality predicate on normal forms built from a shared momentum matrix.

    Assumes both points were produced by contract_point from the same v (so
    the deterministic diagonalizer coincides); then equality reduces to equal
    w and g_a* g_b in the block special-unitary product.
    """
    if a.w.shape != b.w.shape or np.max(np.abs(a.w - b.w)) > tol:
        return False
    blocks = eigenvalue_blocks(a.w)
    if blocks != eigenvalue_blocks(b.w):
        return False
    C = a.g.conj().T @ b.g
    return _block_special_unitary_defect(C, blocks) <= tol


def star_action(A, level: int, phases) -> np.ndarray:
    """Torus action at one level of the nested-subgroup chain.

    Conjugates A by C = (h* diag(e^{i phases}) h) + I, where h diagonalizes
    the leading level x level submatrix of A; the block h* diag(e^{i phases}) h
    is formed as (U * e^{i phases}) U* with U = h*. Requires that submatrix to
    have simple spectrum (principal stratum); preserves the spectrum of A and
    the entire tower of leading-submatrix spectra. level is an integer
    (integral floats and numpy ints pass; 1.5 is refused).
    """
    M = check_hermitian(A)
    n = M.shape[0]
    (j,) = _integers((level,), "level")
    if not 1 <= j <= n - 1:
        raise InvariantViolation(f"level must be in 1..{n - 1}, got {j}")
    theta = np.asarray(phases, dtype=float).ravel()
    if theta.size != j:
        raise InvariantViolation(f"need {j} phases for level {j}, got {theta.size}")
    if not np.isfinite(theta).all():
        raise InvariantViolation("phases must be finite")
    sub = M[:j, :j]
    w, U = _eigh(sub)
    if len(eigenvalue_blocks(w)) < j:
        raise PrincipalStratumViolation(
            f"leading {j}x{j} submatrix has a degenerate eigenvalue")
    C = np.eye(n, dtype=complex)
    C[:j, :j] = (U * np.exp(1j * theta)) @ U.conj().T
    return _hermitian(C @ M @ C.conj().T)
