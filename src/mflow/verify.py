"""Named invariant checks behind the `mflow verify` subcommand.

Each check is a quick, seeded re-validation of one module property that
raises CheckFailed when a measured value is out of bounds; the CLI prints one
PASS/FAIL line per check. The pytest suite runs the same ground
much harder; this is the in-the-field smoke test.
"""

from __future__ import annotations

import numpy as np

from .branching import (
    cg_multiplicity,
    enumerate_trivalent_trees,
    fiber_chain_member,
    polygon_monoid_member,
    tree_polytope_count,
)
from .contraction import (
    CotangentPoint,
    contract_closed_form,
    contract_point,
    contracted_equal,
    same_fiber,
    star_action,
)
from .flow import integrate_flow, vfield
from .gelfand_tsetlin import (
    OrbitFunction,
    enumerate_gt,
    gt_pattern,
    iter_gt_patterns,
    poisson_bracket,
    random_orbit_point,
    validate_interlacing,
    weyl_dim,
)
from .matrices import (
    adjugate,
    eig_hermitian,
    haar_special_unitary,
    haar_unitary,
    momentum_right,
    polar_decompose,
    section_sqrt,
    traceless,
)
from .polygons import bend, caterpillar_triangulation, diagonal_lengths, measure_caterpillar, PolygonConfig

__all__ = ["run_all", "CHECKS", "CheckFailed"]


class CheckFailed(Exception):
    """A check measured a value outside its bound."""


def _require(ok, detail: str) -> None:
    """Fail the running check unless ok (an explicit raise: `assert` is
    stripped under python -O, and every check would then pass)."""
    if not ok:
        raise CheckFailed(detail)


def _random_hermitian(n, rng):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (Z + Z.conj().T)


def _random_sl(n, rng):
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return B / np.linalg.det(B) ** (1.0 / n)


def check_eig_reconstruction(rng):
    A = _random_hermitian(5, rng)
    w, U = eig_hermitian(A)
    resid = np.linalg.norm(U @ np.diag(w) @ U.conj().T - A)
    _require(resid <= 1e-9 * np.linalg.norm(A), f"residual {resid:.2e}")
    _require(np.all(np.diff(w) <= 1e-12), "spectrum not sorted")


def check_eig_determinism(rng):
    A = _random_hermitian(4, rng)
    w1, U1 = eig_hermitian(A)
    w2, U2 = eig_hermitian(A.copy())
    _require(w1.tobytes() == w2.tobytes() and U1.tobytes() == U2.tobytes(),
             "repeated eigensolve differs")


def check_polar_consistency(rng):
    B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    U, P = polar_decompose(B)
    _require(np.linalg.norm(U @ P - B) <= 1e-9 * np.linalg.norm(B), "U P does not reproduce B")
    _require(np.linalg.eigvalsh(P).min() >= -1e-12, "P is not positive semidefinite")


def check_section_round_trip(rng):
    Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = Z.conj().T @ Z
    H = 0.5 * (H + H.conj().T)
    resid = np.linalg.norm(momentum_right(section_sqrt(H)) - H)
    _require(resid < 1e-9 * (1 + np.linalg.norm(H)), f"residual {resid:.2e}")


def check_adjugate_identity(rng):
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    resid = np.max(np.abs(A @ adjugate(A) - np.linalg.det(A) * np.eye(5)))
    _require(resid < 1e-10 * np.linalg.norm(A) ** 5, f"residual {resid:.2e}")


def check_flow_decay_law(rng):
    traj = integrate_flow(np.diag([2.0, 0.5]))
    resid = np.max(np.abs(traj.law_residuals()))
    _require(resid < 1e-7, f"law residual {resid:.2e}")


def check_flow_momentum_conservation(rng):
    B = _random_sl(3, rng)
    drift = np.max(integrate_flow(B).momentum_drift())
    _require(drift < 1e-6 * np.linalg.norm(B) ** 2, f"drift {drift:.2e}")


def check_flow_equivariance(rng):
    D = np.diag([2.0, 0.5])
    k1, k2 = haar_special_unitary(2, rng), haar_special_unitary(2, rng)
    t = integrate_flow(k1 @ D @ k2)
    expected = k1 @ np.diag([np.sqrt(3.75), 0.0]) @ k2
    dev = np.linalg.norm(t.terminal - expected)
    _require(dev < 1e-6, f"deviation {dev:.2e}")


def check_vfield_unit_rate(rng):
    A = _random_sl(3, rng)
    V = vfield(A, m=1)
    eps = 1e-5
    dd = (np.linalg.det(A + eps * V).real - np.linalg.det(A - eps * V).real) / (2 * eps)
    _require(abs(dd + 1.0) < 1e-7, f"rate {dd:+.2e}")


def check_contraction_matches_flow(rng):
    B = _random_sl(3, rng)
    dev = np.linalg.norm(contract_closed_form(B) - integrate_flow(B).terminal)
    _require(dev < 1e-5 * np.linalg.norm(B), f"deviation {dev:.2e}")


def check_contraction_momentum(rng):
    B = _random_sl(3, rng)
    out = contract_closed_form(B)
    dev = np.linalg.norm(traceless(momentum_right(B)) - traceless(momentum_right(out)))
    _require(dev < 1e-9 * np.linalg.norm(B) ** 2, f"deviation {dev:.2e}")


def check_same_fiber_cases(rng):
    k = haar_unitary(3, rng)
    x = CotangentPoint(k, np.zeros((3, 3)))
    y = CotangentPoint(k @ haar_special_unitary(3, rng), np.zeros((3, 3)))
    _require(same_fiber(x, y, 1e-9), "zero momentum: SU factor should collapse")
    v = np.diag([3.0, 2.0, 1.0])
    a = CotangentPoint(k, v)
    b = CotangentPoint(k @ np.diag(np.exp(1j * np.array([0.2, -0.2, 0.0]))), v)
    _require(not same_fiber(a, b, 1e-9), "regular momentum: fiber must be a point")
    _require(contracted_equal(contract_point(x), contract_point(y), 1e-9),
             "normal forms of one fiber differ")


def check_star_action_preserves_pattern(rng):
    A = _random_hermitian(3, rng)
    out = star_action(A, 2, rng.uniform(-np.pi, np.pi, 2))
    for r0, r1 in zip(gt_pattern(A).rows, gt_pattern(out).rows):
        _require(np.max(np.abs(np.array(r0) - np.array(r1))) < 1e-7,
                 "torus action moved a pattern row")


def check_gt_count_identity(rng):
    for lam in [(2, 1, 0), (3, 1, 0), (2, 2, 1, 0), (3, 2, 1, 0)]:
        _require(enumerate_gt(lam) == weyl_dim(lam), f"mismatch at {lam}")


def check_gt_interlacing(rng):
    for _ in range(100):
        n = int(rng.integers(2, 7))
        A = _random_hermitian(n, rng)
        tol = 1e-8 * (1 + np.max(np.abs(np.linalg.eigvalsh(A))))
        _require(validate_interlacing(gt_pattern(A), tol) == [],
                 f"interlacing violated at n = {n}")


def check_gt_poisson_commutativity(rng):
    fs = [OrbitFunction.gt_entry(i, j) for j in (1, 2) for i in range(1, j + 1)]
    A = random_orbit_point([2.0, 0.5, -1.0], seed=int(rng.integers(1 << 30)))
    for f in fs:
        for g in fs:
            _require(abs(poisson_bracket(f, g, A)) < 1e-8,
                     "pattern entries do not Poisson-commute")


def check_tree_cg_identity(rng):
    for r in [(1, 1, 1, 1), (2, 1, 1, 2), (2, 2, 2, 1, 1)]:
        n = len(r)
        expected = cg_multiplicity(r)
        for t in enumerate_trivalent_trees(n):
            _require(tree_polytope_count(t, r) == expected, f"tree mismatch at {r}")


def check_chain_pattern_equivalence(rng):
    for p in iter_gt_patterns((2, 1, 0)):
        chain = [p.row(j) for j in range(1, p.n + 1)]
        _require(fiber_chain_member(chain), f"chain {chain} refused")


def check_polygon_monoid_closure(rng):
    members = [(1, 1, 1, 1), (2, 1, 1, 0), (2, 2, 1, 1)]
    for a in members:
        for b in members:
            s = tuple(x + y for x, y in zip(a, b))
            _require(polygon_monoid_member(s), f"sum {s} left the monoid")


def check_bending_invariance(rng):
    E = rng.standard_normal((5, 3))
    P = PolygonConfig(np.vstack([E, -E.sum(axis=0)]))
    T = caterpillar_triangulation(6)
    base = diagonal_lengths(P, T)
    for run in T.diagonals:
        Q = bend(P, run, rng.uniform(-np.pi, np.pi))
        _require(np.max(np.abs(diagonal_lengths(Q, T) - base)) < 1e-9,
                 f"bend about {run} moved a diagonal length")


def check_bending_commutativity(rng):
    E = rng.standard_normal((5, 3))
    P = PolygonConfig(np.vstack([E, -E.sum(axis=0)]))
    T = caterpillar_triangulation(6)
    d1, d2 = T.diagonals[0], T.diagonals[-1]
    a = bend(bend(P, d1, 0.7), d2, -0.4)
    b = bend(bend(P, d2, -0.4), d1, 0.7)
    _require(np.max(np.abs(a.edges - b.edges)) < 1e-9, "bends about two diagonals do not commute")


def check_build_polygon_fiber(rng):
    E = rng.standard_normal((6, 3))
    P = PolygonConfig(np.vstack([E, -E.sum(axis=0)]))
    r, d = measure_caterpillar(P)
    from .polygons import build_polygon
    Q = build_polygon(r, d, rng.uniform(-np.pi, np.pi, size=P.n - 3))
    r2, d2 = measure_caterpillar(Q)
    _require(np.max(np.abs(r2 - r)) < 1e-10 and np.max(np.abs(d2 - d)) < 1e-10,
             "rebuilt polygon has other side or diagonal lengths")


CHECKS = [
    ("eig-reconstruction", check_eig_reconstruction),
    ("eig-determinism", check_eig_determinism),
    ("polar-consistency", check_polar_consistency),
    ("section-momentum-round-trip", check_section_round_trip),
    ("adjugate-identity", check_adjugate_identity),
    ("flow-decay-law", check_flow_decay_law),
    ("flow-momentum-conservation", check_flow_momentum_conservation),
    ("flow-equivariance", check_flow_equivariance),
    ("vfield-unit-rate", check_vfield_unit_rate),
    ("contraction-matches-flow", check_contraction_matches_flow),
    ("contraction-momentum", check_contraction_momentum),
    ("same-fiber-cases", check_same_fiber_cases),
    ("star-action-preserves-pattern", check_star_action_preserves_pattern),
    ("gt-count-identity", check_gt_count_identity),
    ("gt-interlacing", check_gt_interlacing),
    ("gt-poisson-commutativity", check_gt_poisson_commutativity),
    ("tree-cg-identity", check_tree_cg_identity),
    ("chain-pattern-equivalence", check_chain_pattern_equivalence),
    ("polygon-monoid-closure", check_polygon_monoid_closure),
    ("bending-invariance", check_bending_invariance),
    ("bending-commutativity", check_bending_commutativity),
    ("build-polygon-fiber", check_build_polygon_fiber),
]


def run_all(seed: int = 0):
    """Run every named check; returns a list of (name, passed, detail)."""
    import zlib

    results = []
    for name, fn in CHECKS:
        rng = np.random.default_rng(seed ^ zlib.crc32(name.encode()))
        try:
            fn(rng)
            results.append((name, True, ""))
        except CheckFailed as exc:
            results.append((name, False, str(exc)))
    return results
