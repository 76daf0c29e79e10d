"""The symplectic contraction map on matrix space and cotangent data.

contract_closed_form sends B to U sqrt(B*B - l_min I) with B = U P polar,
collapsing the flow of the determinant gradient field in one step, and
flow_closed_form gives that flow's whole m = 1 curve in closed form;
contract_point produces the normal form (w, g, blocks) of a cotangent pair,
and same_fiber decides the underlying equivalence relation: equal momentum
and a ratio lying in the commutator of its stabilizer. star_action is the
extra torus symmetry acting through the diagonalizer of a leading submatrix.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import InvariantViolation, PrincipalStratumViolation
from .matrices import (
    CLUSTER_TOL,
    _eigh,
    as_complex_matrix,
    check_hermitian,
    check_positive_det,
    check_unitary,
    eigenvalue_blocks,
)

__all__ = [
    "CotangentPoint",
    "BlockPartition",
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
    """Point (k, v) of T*U(n): k unitary, v Hermitian (the right momentum)."""

    k: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        # read-only copies: the checks made here hold for the point's life
        object.__setattr__(self, "k", _frozen(check_unitary(self.k)))
        object.__setattr__(self, "v", _frozen(check_hermitian(self.v)))
        if self.k.shape != self.v.shape:
            raise InvariantViolation("k and v must have equal dimensions")


def _frozen(M: np.ndarray) -> np.ndarray:
    out = M.copy()
    out.flags.writeable = False
    return out


@dataclasses.dataclass(frozen=True)
class BlockPartition:
    """Contiguous index ranges grouping equal eigenvalues, values strictly down."""

    blocks: tuple
    block_values: tuple

    def __post_init__(self):
        hi_prev = 0
        for lo, hi in self.blocks:
            if lo != hi_prev or hi <= lo:
                raise InvariantViolation("blocks must be contiguous and exhaustive")
            hi_prev = hi
        vals = self.block_values
        if any(vals[i] <= vals[i + 1] for i in range(len(vals) - 1)):
            raise InvariantViolation("block values must strictly decrease")

    @property
    def n(self) -> int:
        return self.blocks[-1][1] if self.blocks else 0


def partition_from_spectrum(w, cluster_tol: float = CLUSTER_TOL) -> BlockPartition:
    blocks = tuple(eigenvalue_blocks(w, cluster_tol))
    values = tuple(float(np.mean(w[lo:hi])) for lo, hi in blocks)
    return BlockPartition(blocks, values)


@dataclasses.dataclass(frozen=True)
class ContractedPoint:
    """Normal form of a contracted cotangent point.

    w is the diagonalized momentum, g = k h* carries the residual unitary
    data (h v h* = diag(w)), and partition certifies the block ambiguity.
    Equality of contracted points is a predicate (contracted_equal), not
    representative identity.
    """

    w: np.ndarray
    g: np.ndarray
    partition: BlockPartition


def contract_closed_form(B) -> np.ndarray:
    """Closed-form contraction U sqrt(B*B - l_min(B*B) I) with B = U P polar.

    Agrees with the endpoint of the normalized determinant gradient flow;
    proved in rank 2, validated against the flow integrator for larger n by
    the acceptance suite. The result is singular and carries the same
    traceless right momentum as B.
    """
    M = as_complex_matrix(B)
    W, s, Vh = np.linalg.svd(M)
    shifted = np.sqrt(np.maximum(s * s - np.min(s) ** 2, 0.0))
    return (W * shifted) @ Vh


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
    point is contract_closed_form(B).
    """
    M = check_positive_det(B)
    if not math.isfinite(s):
        raise InvariantViolation(f"flow time must be finite, got {s!r}")
    W, sigma, Vh = np.linalg.svd(M)
    d0 = float(np.prod(sigma))
    if s >= d0:
        return contract_closed_form(M)
    s2 = sigma * sigma
    g = s2 - s2[-1]     # exactly 0 at the smallest value, >= 0 elsewhere
    target = 2.0 * math.log(d0 - s)
    y = 2.0 * math.log(sigma[-1])
    for _ in range(_NEWTON_ITERATIONS):
        x = math.exp(y)
        step = (float(np.sum(np.log(g + x))) - target) / float(np.sum(x / (g + x)))
        y -= step
        if abs(step) <= 1e-15 * (1.0 + abs(y)):
            break
    return (W * np.sqrt(g + math.exp(y))) @ Vh


def contract_point(x: CotangentPoint,
                   cluster_tol: float = CLUSTER_TOL) -> ContractedPoint:
    """Normal form (w, g, blocks) with h v h* = diag(w) and g = k h*."""
    w, U = _eigh(x.v, cluster_tol)
    # h = U* diagonalizes v, so g = k h* = k U.
    g = x.k @ U
    return ContractedPoint(w, g, partition_from_spectrum(w, cluster_tol))


def _block_special_unitary_defect(C: np.ndarray, partition: BlockPartition) -> float:
    """Distance of C from the product of block special-unitary groups.

    Returns the larger of the maximal off-block entry and the maximal
    per-block determinant deviation from 1.
    """
    defect = 0.0
    mask = np.ones(C.shape, dtype=bool)
    for lo, hi in partition.blocks:
        mask[lo:hi, lo:hi] = False
        defect = max(defect, abs(np.linalg.det(C[lo:hi, lo:hi]) - 1.0))
    off = np.max(np.abs(C[mask])) if mask.any() else 0.0
    return max(defect, float(off))


def same_fiber(x: CotangentPoint, y: CotangentPoint, tol: float,
               cluster_tol: float = CLUSTER_TOL) -> bool:
    """Whether x and y are collapsed to one point by the contraction.

    True iff the momenta agree (max|v_x - v_y| <= tol) and, with h the sorted
    diagonalizer of v_x, the ratio h (k_x* k_y) h* lies in the product of
    block special-unitary groups of the eigenvalue partition: block-diagonal
    within tol with every diagonal block of determinant 1 within tol.
    """
    if x.v.shape != y.v.shape:
        return False
    if np.max(np.abs(x.v - y.v)) > tol:
        return False
    w, U = _eigh(x.v, cluster_tol)
    partition = partition_from_spectrum(w, cluster_tol)
    C = U.conj().T @ (x.k.conj().T @ y.k) @ U
    return _block_special_unitary_defect(C, partition) <= tol


def contracted_equal(a: ContractedPoint, b: ContractedPoint, tol: float) -> bool:
    """Equality predicate on normal forms built from a shared momentum matrix.

    Assumes both points were produced by contract_point from the same v (so
    the deterministic diagonalizer coincides); then equality reduces to equal
    w and g_a* g_b in the block special-unitary product.
    """
    if a.w.shape != b.w.shape or np.max(np.abs(a.w - b.w)) > tol:
        return False
    if a.partition.blocks != b.partition.blocks:
        return False
    C = a.g.conj().T @ b.g
    return _block_special_unitary_defect(C, a.partition) <= tol


def star_action(A, level: int, phases,
                cluster_tol: float = CLUSTER_TOL) -> np.ndarray:
    """Torus action at one level of the nested-subgroup chain.

    Conjugates A by C = (h* diag(e^{i phases}) h) + I, where h diagonalizes
    the leading level x level submatrix of A. Requires that submatrix to have
    simple spectrum (principal stratum); preserves the spectrum of A and the
    entire tower of leading-submatrix spectra.
    """
    M = check_hermitian(A)
    n = M.shape[0]
    j = int(level)
    if not 1 <= j <= n - 1:
        raise InvariantViolation(f"level must be in 1..{n - 1}, got {j}")
    theta = np.asarray(phases, dtype=float).ravel()
    if theta.size != j:
        raise InvariantViolation(f"need {j} phases for level {j}, got {theta.size}")
    sub = M[:j, :j]
    w, U = _eigh(sub, cluster_tol)
    scale = 1.0 + float(np.max(np.abs(w), initial=0.0))
    if j > 1 and np.min(-np.diff(w)) <= cluster_tol * scale:
        raise PrincipalStratumViolation(
            f"leading {j}x{j} submatrix has a degenerate eigenvalue")
    C = np.eye(n, dtype=complex)
    C[:j, :j] = U @ np.diag(np.exp(1j * theta)) @ U.conj().T
    out = C @ M @ C.conj().T
    return 0.5 * (out + out.conj().T)
