"""Closed polygons in R^3, diagonal-length momenta, and bending flows.

A polygon is stored by its edge vectors; diagonals are contiguous runs of
edge indices, and bending rotates the edges of a run about the axis spanned
by their sum. A polygon built from action-angle data (sides, fan diagonals,
angles) is the flat fan moved by the bending flows of its fan diagonals.
It is anchored (first edge along +x, fan plane = xy before bending), so
construction is deterministic; the isometry quotient is only ever compared
through invariants.

One rule decides that a length is zero: it is at most CLOSURE_TOL times
the polygon's longest edge. It applies to closure, to bend axes, and to the
fan's triangle slack and opening angles. Every length is read from its
vector scaled by a power of two (_length, _row_lengths), so no square
underflows.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .branching import _integers
from .errors import InvariantViolation, TriangleInfeasible, UndefinedBendAxis

__all__ = [
    "PolygonConfig",
    "Triangulation",
    "caterpillar_triangulation",
    "build_polygon",
    "diagonal_lengths",
    "bend",
    "measure_caterpillar",
]

CLOSURE_TOL = 1e-9    # zero length, relative: scaled by the longest edge


def _length(v) -> float:
    """Euclidean length of the vector v by np.linalg.norm's formula
    sqrt(v . v), read from v scaled by the power of two that brings its
    largest entry into [0.5, 1) and scaled back. The scaling is exact, so
    the bits are the plain formula's wherever that one neither underflows
    nor overflows. Scaled, no square overflows, and only the squares of
    entries below 2^-511 times the largest underflow, which are below the
    rounding of the sum."""
    e = math.frexp(np.abs(v).max())[1]
    u = np.ldexp(v, -e)
    return math.ldexp(math.sqrt(u.dot(u)), e)


def _row_lengths(E) -> np.ndarray:
    """_length of each row of E, by np.linalg.norm's row formula, the
    square root of the sum of squares."""
    e = np.frexp(np.abs(E).max(axis=1))[1]
    U = np.ldexp(E, -e[:, None])
    return np.ldexp(np.sqrt((U * U).sum(axis=1)), e)


@dataclasses.dataclass(frozen=True)
class PolygonConfig:
    """Closed polygon given by its n edge vectors in R^3, of length 0 or more.

    Closed means |sum e_i| <= CLOSURE_TOL times the longest edge. The edges
    must be finite, with 3 (n max|e_ij|)^2 finite in float64, which bounds
    the squared length of every run sum; else InvariantViolation.
    """

    edges: np.ndarray

    def __post_init__(self):
        E = _edge_array(self.edges)
        object.__setattr__(self, "edges", E)
        closure = _length(E.sum(axis=0))
        if closure > CLOSURE_TOL * self.side_lengths().max():
            raise InvariantViolation(f"polygon does not close: |sum e_i| = {closure:.3e}")

    @property
    def n(self) -> int:
        return self.edges.shape[0]

    def side_lengths(self) -> np.ndarray:
        return _row_lengths(self.edges)


def _edge_array(edges) -> np.ndarray:
    """edges as an (n, 3) float array, n >= 3, finite, with 3 (n max|e_ij|)^2
    finite, so no run sum or rotation of runs overflows; else
    InvariantViolation."""
    E = np.asarray(edges, dtype=float)
    if E.ndim != 2 or E.shape[1] != 3 or E.shape[0] < 3:
        raise InvariantViolation(f"expected an (n, 3) edge array, n >= 3, got {E.shape}")
    big = float(np.abs(E).max())        # NaN or inf when an entry is
    if not math.isfinite(big):
        raise InvariantViolation("edges must be finite")
    run = E.shape[0] * big              # bounds every run sum's coordinates
    if not math.isfinite(3.0 * run * run):
        raise InvariantViolation(
            f"edge coordinate {big:.3e} overflows float64 in a squared run length")
    return E


def _as_run(diagonal, n) -> tuple:
    idx = sorted(set(_integers(diagonal, "diagonal indices")))
    if not idx or idx[0] < 1 or idx[-1] > n:
        raise InvariantViolation(f"diagonal indices must lie in 1..{n}: {idx}")
    if idx != list(range(idx[0], idx[-1] + 1)):
        raise InvariantViolation(f"diagonal must be a contiguous run of edges: {idx}")
    return tuple(idx)


@dataclasses.dataclass(frozen=True)
class Triangulation:
    """Diagonals of a model n-gon as contiguous edge runs, nested or disjoint."""

    n: int
    diagonals: tuple

    def __post_init__(self):
        runs = tuple(_as_run(d, self.n) for d in self.diagonals)
        object.__setattr__(self, "diagonals", runs)
        # in the order (first, -last), the runs still open form a nested
        # chain, and each run must fit inside the innermost one it meets
        chain = []
        for b in sorted(runs, key=lambda run: (run[0], -run[-1])):
            while chain and chain[-1][-1] < b[0]:
                chain.pop()
            if chain and chain[-1][-1] < b[-1]:
                raise InvariantViolation(
                    f"diagonals must be nested or disjoint: {chain[-1]} vs {b}")
            chain.append(b)


def caterpillar_triangulation(n: int) -> Triangulation:
    """Fan triangulation from the base vertex: diagonals {1..2}, ..., {1..n-2}."""
    if n < 3:
        raise InvariantViolation("polygon needs at least 3 edges")
    return Triangulation(n, tuple(tuple(range(1, k + 1)) for k in range(2, n - 1)))


def build_polygon(r, d, angles) -> PolygonConfig:
    """Anchored polygon with side lengths r, fan diagonal lengths d, and
    dihedral bending angles about each fan diagonal.

    The fan is laid flat in the xy-plane, and then each fan diagonal k
    bends it by angles[k - 1]: the rotation of bend (_bend) of the tail run
    k+2..n, whose sum is minus that diagonal, by -angles[k - 1]. So sides
    and diagonals are exact to rounding. The flat fan is checked by
    PolygonConfig's edge rule before it bends, so no bend overflows, and one
    PolygonConfig is built from the bent edges. Each consecutive triple
    (previous diagonal, side, next diagonal) must satisfy the triangle
    inequality up to the zero length CLOSURE_TOL max(r), else
    TriangleInfeasible; a nonzero angle about a diagonal of length at most
    CLOSURE_TOL max(r) raises UndefinedBendAxis.
    """
    r = np.asarray(r, dtype=float).ravel()
    d = np.asarray(d, dtype=float).ravel()
    theta = np.asarray(angles, dtype=float).ravel()
    n = r.size
    if n < 3:
        raise InvariantViolation("polygon needs at least 3 sides")
    if d.size != n - 3 or theta.size != n - 3:
        raise InvariantViolation(
            f"need {n - 3} diagonals and angles for an {n}-gon, got {d.size}, {theta.size}")
    if not (np.isfinite(r).all() and np.isfinite(d).all() and np.isfinite(theta).all()):
        raise InvariantViolation("side lengths, diagonals and angles must be finite")
    if np.any(r < 0) or np.any(d < 0):
        raise InvariantViolation("lengths must be nonnegative")

    g = np.concatenate([[r[0]], d, [r[-1]]])
    # the triangle tests and fan angles read the lengths over a power of two
    # near max(r): exact, so a build scaled by 2^j is this one scaled, bit
    # for bit, and no sum or square below overflows or underflows
    e = -math.frexp(r.max())[1]
    gu, ru = np.ldexp(g, e), np.ldexp(r, e)
    zero = CLOSURE_TOL * ru.max()
    # planar fan: P_{k+1} sits at distance g_k from the origin, opening by
    # the triangle angle at the base vertex
    phi = 0.0
    verts = [np.zeros(3), np.array([r[0], 0.0, 0.0])]
    for k in range(1, n - 1):
        a, b, c = gu[k - 1], ru[k], gu[k]
        if c > a + b + zero or c < abs(a - b) - zero:
            raise TriangleInfeasible((g[k - 1], r[k], g[k]))
        if min(a, c) > zero:
            phi += float(np.arccos(np.clip((a ** 2 + c ** 2 - b ** 2) / (2.0 * a * c), -1.0, 1.0)))
        verts.append(g[k] * np.array([np.cos(phi), np.sin(phi), 0.0]))

    E = _edge_array(np.diff(np.vstack([*verts, np.zeros(3)]), axis=0))
    zero = CLOSURE_TOL * r.max()
    for k, t in enumerate(theta, start=1):
        if t != 0.0:
            E = _bend(E, tuple(range(k + 2, n + 1)), -t, zero)
    return PolygonConfig(E)


def _rodrigues(unit_axis: np.ndarray, theta: float) -> np.ndarray:
    x, y, z = unit_axis
    K = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def diagonal_lengths(P: PolygonConfig, T: Triangulation) -> np.ndarray:
    """|e_lo + ... + e_hi| for each diagonal run of the triangulation."""
    if T.n != P.n:
        raise InvariantViolation(f"triangulation is for {T.n}-gons, polygon has {P.n}")
    out = []
    for run in T.diagonals:
        idx = np.array(run) - 1
        out.append(_length(P.edges[idx].sum(axis=0)))
    return np.array(out)


def bend(P: PolygonConfig, diagonal, theta: float) -> PolygonConfig:
    """Rotate the edges of the diagonal run by theta about the axis they sum to.

    The axis vector itself is fixed by the rotation, so closure, all side
    lengths, and the length of every diagonal nested in, containing, or
    disjoint from this one are preserved. The diagonal is a contiguous run
    of integer edge indices in 1..n (integral floats and numpy ints pass;
    anything else raises InvariantViolation). A run whose sum is zero
    (length at most CLOSURE_TOL times the longest edge) has no axis and
    raises UndefinedBendAxis. Checks the run and angle, rotates through
    _bend, and checks the result as one PolygonConfig.
    """
    run = _as_run(diagonal, P.n)
    theta = float(theta)
    if not np.isfinite(theta):
        raise InvariantViolation(f"bending angle must be finite, got {theta}")
    # re-pin the closure: rotation fixes the run sum exactly up to rounding
    return PolygonConfig(_bend(P.edges, run, theta, CLOSURE_TOL * P.side_lengths().max()))


def _bend(E: np.ndarray, run: tuple, theta: float, zero: float) -> np.ndarray:
    """A copy of the checked edge array E with the rows of run (a contiguous
    tuple of 1-based indices) rotated by the finite angle theta about their
    sum; a sum of length at most zero raises UndefinedBendAxis. The package's
    one rotation of polygon edges."""
    edges = E.copy()
    moved = edges[run[0] - 1:run[-1]]     # a view of the run's rows
    axis = moved.sum(axis=0)
    nrm = _length(axis)
    if nrm <= zero:
        raise UndefinedBendAxis(f"diagonal {run} has zero length; no bending axis")
    moved[:] = moved @ _rodrigues(axis / nrm, theta).T
    return edges


def measure_caterpillar(P: PolygonConfig):
    """Side lengths and fan diagonal lengths of a polygon (feasible by
    construction for build_polygon)."""
    T = caterpillar_triangulation(P.n)
    return P.side_lengths(), diagonal_lengths(P, T)
