"""The Gel'fand-Tsetlin integrable system on Hermitian matrices.

The pattern of a Hermitian matrix collects the descending spectra of its
nested leading submatrices; Cauchy interlacing makes it a point of the GT
polytope over its top row. Integer patterns with a fixed top row are counted
and streamed by exact depth-first enumeration, with the Weyl dimension
product formula as an independent oracle. Poisson brackets of the pattern
entries (Kostant-Kirillov form, eigenvalue gradients = spectral projectors)
certify integrability numerically.
"""

from __future__ import annotations

import dataclasses
import math
from functools import lru_cache
from itertools import chain, product

import numpy as np

from .branching import MAX_WEIGHT, _check_weakly_decreasing, _integers
from .errors import InvariantViolation, PrincipalStratumViolation
from .matrices import CLUSTER_TOL, _eigh, _hermitian, check_hermitian, haar_unitary

__all__ = [
    "GTPattern",
    "gt_pattern",
    "validate_interlacing",
    "enumerate_gt",
    "iter_gt_patterns",
    "weyl_dim",
    "OrbitFunction",
    "poisson_bracket",
    "random_orbit_point",
]


@dataclasses.dataclass(frozen=True)
class GTPattern:
    """Triangular array: rows[0] has length n, down to rows[n-1] of length 1."""

    rows: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        for j, row in enumerate(rows):
            if len(row) != n - j:
                raise InvariantViolation(
                    f"row {j} has length {len(row)}, expected {n - j}")

    @property
    def n(self) -> int:
        return len(self.rows)

    def top(self) -> tuple:
        return self.rows[0]


def gt_pattern(A) -> GTPattern:
    """Pattern of descending leading-submatrix spectra (levels n down to 1).

    A spectrum that overflows float64 is refused with InvariantViolation.
    """
    M = check_hermitian(A)
    n = M.shape[0]
    rows = [tuple(np.linalg.eigvalsh(M[:j, :j])[::-1].tolist())
            for j in range(n, _BATCH, -1)]
    rows.extend(_small_block_spectra(M, min(n, _BATCH)))
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        raise InvariantViolation("matrix spectrum overflows float64")
    return GTPattern(tuple(rows))


# Leading blocks of at most this size share one eigvalsh call; the stack
# holds _BATCH blocks of _BATCH x _BATCH entries at most, whatever n is.
_BATCH = 16
# Scale by which matrices with entries near the float64 limit are shifted
# down (exactly: a power of two) so that the padding value stays finite.
_SHIFT = 2.0 ** -32


def _small_block_spectra(M: np.ndarray, m: int) -> list:
    """Descending spectra of the leading j x j blocks of M for j = m..1.

    One eigvalsh call over the stack of diag(M[:j, :j], c I_{m-j}): with c
    below every eigenvalue, the top j eigenvalues of the padded block are
    those of M[:j, :j]. The tridiagonal reduction keeps the two diagonal
    blocks apart exactly, so they agree with a per-block eigvalsh to
    rounding.
    """
    if m == 0:
        return []
    sub = M[:m, :m]
    maxabs = float(np.abs(sub).max())
    shift = 1.0
    if 2.0 * m * maxabs == math.inf:
        shift = _SHIFT
        sub = sub * shift
        maxabs *= shift
    # |eigenvalue| <= j max|M[:j, :j]| <= m maxabs; c = -1 when M is zero
    c = -2.0 * m * maxabs if maxabs else -1.0
    take, put, pad = _padding_plan(m)
    stack = np.zeros((m, m, m), dtype=complex)
    stack.put(put, sub.take(take))
    stack.put(pad, c)
    spectra = np.linalg.eigvalsh(stack)[:, ::-1]
    if shift != 1.0:
        with np.errstate(over="ignore"):
            spectra = spectra / shift
    return [tuple(row[:m - k]) for k, row in enumerate(spectra.tolist())]


@lru_cache(maxsize=_BATCH)
def _padding_plan(m: int):
    """Flat indices for a stack of m padded m x m blocks, block k of size
    m - k: where each copied entry comes from in M[:m, :m] (take), where it
    goes in the stack (put), and the padding diagonal (pad)."""
    k, r, col = np.indices((m, m, m))
    inside = (r < m - k) & (col < m - k)
    put = np.flatnonzero(inside)
    take = (r * m + col).ravel()[put]
    pad = np.flatnonzero(~inside & (r == col))
    for plan in (take, put, pad):
        plan.flags.writeable = False     # shared by every caller
    return take, put, pad


def validate_interlacing(P: GTPattern, tol: float = 0.0) -> list:
    """All interlacing violations x_{i,j} >= x_{i,j-1} >= x_{i+1,j}.

    Empty iff the pattern interlaces within tol. Each violation is reported
    as (i, j, deficit) keyed by the level-j entry whose bound failed: (i, j)
    when x_{i,j} < x_{i,j-1}, and (i+1, j) when x_{i,j-1} < x_{i+1,j}.
    """
    violations = []
    for upper, lower in zip(P.rows, P.rows[1:]):
        j = len(upper)
        for i in range(1, j):
            if lower[i - 1] - upper[i - 1] > tol:
                violations.append((i, j, float(lower[i - 1] - upper[i - 1])))
            if upper[i] - lower[i - 1] > tol:
                violations.append((i + 1, j, float(upper[i] - lower[i - 1])))
    return violations


def _children(row):
    """Integer rows interlacing below `row`, ascending lexicographic."""
    if len(row) == 1:
        return
    yield from product(*(range(row[i + 1], row[i] + 1) for i in range(len(row) - 1)))


# Far above the few hundred rows a GT count sweep visits, so a long-lived
# process stays bounded without evicting anything a sweep reuses.
_COUNT_BELOW_CACHE_SIZE = 1 << 16


@lru_cache(maxsize=_COUNT_BELOW_CACHE_SIZE)
def _count_below(row: tuple) -> int:
    if len(row) == 1:
        return 1
    return sum(_count_below(child) for child in _children(row))


# enumerate_gt recurses once per row, and its time grows with the count.
MAX_GT_LENGTH = 100
MAX_GT_COUNT = 10**6


def enumerate_gt(top) -> int:
    """Exact number of integer patterns with the given top row.

    The top row may have at most MAX_GT_LENGTH entries, a spread max - min
    of at most MAX_WEIGHT and at most MAX_GT_COUNT patterns (by the Weyl
    dimension formula): the enumeration time grows with each of them.
    """
    row = _check_weakly_decreasing(top, "top row")
    if not row:
        return 1
    if len(row) > MAX_GT_LENGTH:
        raise InvariantViolation(f"top row must have at most {MAX_GT_LENGTH} entries")
    if row[0] - row[-1] > MAX_WEIGHT:
        raise InvariantViolation(f"top row spread must be at most {MAX_WEIGHT}")
    if _weyl_dim(row) > MAX_GT_COUNT:
        raise InvariantViolation(f"top row has more than {MAX_GT_COUNT} patterns")
    # counts are translation invariant; shift for cache sharing
    base = row[-1]
    return _count_below(tuple(v - base for v in row))


def iter_gt_patterns(top):
    """Stream the integer patterns with the given top row.

    Order is lexicographic in the flattened rows below the top row.
    """
    row = _check_weakly_decreasing(top, "top row")

    def rec(prefix, current):
        if len(current) == 1:
            yield GTPattern(tuple(prefix))
            return
        for child in _children(current):
            yield from rec(prefix + [child], child)

    yield from rec([row], row)


def weyl_dim(weight) -> int:
    """Dimension of the U(n) irrep with the given highest weight.

    Product formula prod_{i<j} (w_i - w_j + j - i)/(j - i), evaluated in
    exact integer arithmetic.
    """
    return _weyl_dim(_check_weakly_decreasing(weight, "top row"))


def _weyl_dim(w: tuple) -> int:
    """weyl_dim of a checked weight."""
    num = den = 1
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            num *= w[i] - w[j] + j - i
            den *= j - i
    dim, rest = divmod(num, den)
    if rest:
        raise AssertionError("Weyl product did not reduce to an integer")
    return dim


class OrbitFunction:
    """A pattern entry x_{i,j} as an observable on Hermitian matrices for the
    bracket: the i-th descending eigenvalue of the leading j x j submatrix,
    whose gradient is the embedded spectral projector.

    i and j are integers (integral floats and numpy ints are stored as ints).
    """

    def __init__(self, i: int, j: int):
        i, j = _integers((i, j), "GT entry index")
        if not 1 <= i <= j:
            raise InvariantViolation(f"need 1 <= i <= j, got ({i}, {j})")
        self.i = i
        self.j = j
        self._last = (None, None)       # (key, gradient) of the last _gradient call

    @classmethod
    def gt_entry(cls, i: int, j: int) -> "OrbitFunction":
        return cls(i, j)

    def __repr__(self):
        return f"x[{self.i},{self.j}]"

    def gradient(self, A) -> np.ndarray:
        return self._gradient(check_hermitian(A)).copy()

    def _gradient(self, M: np.ndarray) -> np.ndarray:
        """Gradient at a matrix that check_hermitian has accepted, read-only.

        It depends only on n and the leading j x j block, so the observable
        keeps its last gradient in one slot keyed by n and the bytes of that
        block: the brackets of one point solve each observable's eigenproblem
        once, and a matrix changed in place is a new key.
        """
        n = M.shape[0]
        if self.j > n:
            raise InvariantViolation(f"level {self.j} exceeds dimension {n}")
        block = M[: self.j, : self.j]
        key = (n, block.tobytes())
        last_key, last = self._last     # one read: the slot is replaced whole
        if last_key == key:
            return last
        w, U = _eigh(block)
        gap = CLUSTER_TOL * (1.0 + max(abs(w[0]), abs(w[-1])))     # w is sorted
        i = self.i - 1
        if (i > 0 and w[i - 1] - w[i] <= gap) or (i + 1 < w.size and w[i] - w[i + 1] <= gap):
            raise PrincipalStratumViolation(
                f"eigenvalue {self.i} of the leading {self.j}x{self.j} block is degenerate")
        u = U[:, i]
        G = np.zeros((n, n), dtype=complex)
        G[: self.j, : self.j] = u[:, None] * u.conj()
        G.flags.writeable = False
        self._last = (key, G)
        return G


def poisson_bracket(f: OrbitFunction, g: OrbitFunction, A) -> float:
    """Kostant-Kirillov bracket <A, i[grad f, grad g]> at the point A.

    With Gf, Gg the Hermitian gradients, Re tr(A i[Gf, Gg]) equals
    Im<Gf, A Gg> - Im<Gg, A Gf> (<X, Y> = tr(X* Y)): two products and two
    inner products, and exactly antisymmetric in f and g.
    """
    M = check_hermitian(A)
    Gf = f._gradient(M)
    Gg = g._gradient(M)
    return float(np.vdot(Gf, M @ Gg).imag - np.vdot(Gg, M @ Gf).imag)


def random_orbit_point(spectrum, seed: int) -> np.ndarray:
    """Haar-conjugated point U diag(spectrum) U* of the coadjoint orbit.

    The point is the _hermitian part of the product, so entries near the
    float64 limit do not overflow in the symmetrizing sum; a point whose
    entries still overflow is refused with InvariantViolation. seed is a
    nonnegative integer (integral floats and numpy ints pass).
    """
    lam = np.asarray(spectrum, dtype=float).ravel()
    if not np.isfinite(lam).all():
        raise InvariantViolation("spectrum must be finite")
    (seed,) = _integers((seed,), "seed")
    if seed < 0:
        raise InvariantViolation(f"seed must be nonnegative, got {seed}")
    U = haar_unitary(lam.size, np.random.default_rng(seed))
    with np.errstate(over="ignore", invalid="ignore"):
        A = _hermitian((U * lam) @ U.conj().T)
    if not np.isfinite(A).all():
        raise InvariantViolation("orbit point overflows float64")
    return A
