"""Closed polygons in R^3, diagonal-length momenta, and bending flows.

A polygon is stored by its edge vectors; diagonals are contiguous runs of
edge indices, and bending rotates the edges of a run about the axis spanned
by their sum. Polygons built from side/diagonal data are anchored (first
edge along +x, fan plane = xy before bending), so construction is
deterministic; the isometry quotient is only ever compared through
invariants.
"""

from __future__ import annotations

import dataclasses

import numpy as np

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

CLOSURE_TOL = 1e-9    # relative: scaled by max edge length
BEND_FLOOR = 1e-12    # bend axes no longer than this are undefined


@dataclasses.dataclass(frozen=True)
class PolygonConfig:
    """Closed polygon given by its n edge vectors in R^3, of length 0 or more."""

    edges: np.ndarray

    def __post_init__(self):
        E = np.asarray(self.edges, dtype=float)
        if E.ndim != 2 or E.shape[1] != 3 or E.shape[0] < 3:
            raise InvariantViolation(f"expected an (n, 3) edge array, n >= 3, got {E.shape}")
        if not np.isfinite(E).all():
            raise InvariantViolation("edges must be finite")
        object.__setattr__(self, "edges", E)
        norms = np.linalg.norm(E, axis=1)
        closure = np.linalg.norm(E.sum(axis=0))
        if closure > CLOSURE_TOL * max(norms.max(), 1e-300):
            raise InvariantViolation(f"polygon does not close: |sum e_i| = {closure:.3e}")

    @property
    def n(self) -> int:
        return self.edges.shape[0]

    def side_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.edges, axis=1)


def _as_run(diagonal, n) -> tuple:
    idx = sorted(set(int(i) for i in diagonal))
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
        for a in runs:
            for b in runs:
                sa, sb = set(a), set(b)
                if not (sa <= sb or sb <= sa or not (sa & sb)):
                    raise InvariantViolation(
                        f"diagonals must be nested or disjoint: {a} vs {b}")


def caterpillar_triangulation(n: int) -> Triangulation:
    """Fan triangulation from the base vertex: diagonals {1..2}, ..., {1..n-2}."""
    if n < 3:
        raise InvariantViolation("polygon needs at least 3 edges")
    return Triangulation(n, tuple(tuple(range(1, k + 1)) for k in range(2, n - 1)))


def build_polygon(r, d, angles) -> PolygonConfig:
    """Anchored polygon with side lengths r, fan diagonal lengths d, and
    dihedral bending angles about each fan diagonal.

    The fan is laid flat in the xy-plane and then each bending angle rotates
    the tail of the polygon about its diagonal, so sides and diagonals are
    exact to rounding. Each consecutive triple (previous diagonal, side,
    next diagonal) must satisfy the weak triangle inequality.
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
    for k in range(1, n - 1):
        a, b, c = g[k - 1], r[k], g[k]
        if c > a + b + 1e-12 * max(a + b, 1.0) or c < abs(a - b) - 1e-12 * max(a + b, 1.0):
            raise TriangleInfeasible((a, b, c))

    # planar fan: P_{k+1} sits at distance g_k from the origin, opening by
    # the triangle angle at the base vertex
    phi = 0.0
    verts = [np.zeros(3), np.array([r[0], 0.0, 0.0])]
    for k in range(1, n - 1):
        denom = 2.0 * g[k - 1] * g[k]
        if denom < 1e-300:
            alpha = 0.0
        else:
            alpha = float(np.arccos(np.clip(
                (g[k - 1] ** 2 + g[k] ** 2 - r[k] ** 2) / denom, -1.0, 1.0)))
        phi += alpha
        verts.append(g[k] * np.array([np.cos(phi), np.sin(phi), 0.0]))
    verts = np.array(verts[: n])  # P_0 .. P_{n-1}

    for k in range(1, n - 2):
        if theta[k - 1] == 0.0:
            continue
        axis = verts[k + 1]
        nrm = np.linalg.norm(axis)
        if nrm <= BEND_FLOOR:
            raise UndefinedBendAxis(f"fan diagonal {k} has zero length")
        R = _rodrigues(axis / nrm, theta[k - 1])
        verts[k + 2:] = verts[k + 2:] @ R.T

    edges = np.diff(np.vstack([verts, np.zeros(3)]), axis=0)
    return PolygonConfig(edges)


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
        out.append(float(np.linalg.norm(P.edges[idx].sum(axis=0))))
    return np.array(out)


def bend(P: PolygonConfig, diagonal, theta: float) -> PolygonConfig:
    """Rotate the edges of the diagonal run about the axis they sum to.

    The axis vector itself is fixed by the rotation, so closure, all side
    lengths, and the length of every diagonal nested in, containing, or
    disjoint from this one are preserved.
    """
    run = _as_run(diagonal, P.n)
    theta = float(theta)
    if not np.isfinite(theta):
        raise InvariantViolation(f"bending angle must be finite, got {theta}")
    idx = np.array(run) - 1
    axis = P.edges[idx].sum(axis=0)
    nrm = np.linalg.norm(axis)
    if nrm <= BEND_FLOOR:
        raise UndefinedBendAxis(f"diagonal {run} has zero length; no bending axis")
    R = _rodrigues(axis / nrm, theta)
    edges = P.edges.copy()
    edges[idx] = edges[idx] @ R.T
    # re-pin the closure: rotation fixes the run sum exactly up to rounding
    return PolygonConfig(edges)


def measure_caterpillar(P: PolygonConfig):
    """Side lengths and fan diagonal lengths of a polygon (feasible by
    construction for build_polygon)."""
    T = caterpillar_triangulation(P.n)
    return P.side_lengths(), diagonal_lengths(P, T)
