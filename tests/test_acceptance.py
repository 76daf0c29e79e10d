"""Acceptance suite: every criterion at its stated tolerance.

Run `pytest -v -s tests/test_acceptance.py` to see one pass/fail line per
criterion with its runtime.
"""

import time
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from mflow.branching import (
    cg_multiplicity,
    enumerate_trivalent_trees,
    fiber_chain_member,
    polygon_monoid_member,
    tree_polytope_count,
)
from mflow.contraction import (
    CotangentPoint,
    contract_closed_form,
    contract_point,
    contracted_equal,
    same_fiber,
    star_action,
)
from mflow.flow import FlowConfig, integrate_flow
from mflow.gelfand_tsetlin import (
    OrbitFunction,
    enumerate_gt,
    gt_pattern,
    iter_gt_patterns,
    poisson_bracket,
    random_orbit_point,
    validate_interlacing,
    weyl_dim,
)
from mflow.matrices import haar_special_unitary, haar_unitary, momentum_right, traceless
from mflow.polygons import PolygonConfig, bend, caterpillar_triangulation, \
    build_polygon, diagonal_lengths, measure_caterpillar


def _report(num, title, body):
    t0 = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {title}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  [{time.perf_counter() - t0:6.2f}s] {title}")


def _random_sl(n, rng):
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return B / np.linalg.det(B) ** (1.0 / n)


def test_acceptance_01_sl2_closed_form_endpoints():
    def body():
        t0 = time.perf_counter()
        for x in (1.1, 2.0, 5.0):
            traj = integrate_flow(np.diag([x, 1.0 / x]))
            expected = np.diag([np.sqrt(x * x - x ** -2), 0.0])
            dev = np.linalg.norm(traj.terminal - expected)
            assert dev < 1e-6, f"x = {x}: deviation {dev:.2e}"
        assert time.perf_counter() - t0 < 1.0, "runtime budget (1 s) exceeded"

    _report(1, "SL(2) flow endpoints match diag(sqrt(x^2 - x^-2), 0) within 1e-6", body)


def test_acceptance_02_closed_form_vs_ode_oracle():
    def body():
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = worst_pre_snap = 0.0
        for n, trials in ((3, 100), (4, 50)):
            for _ in range(trials):
                B = _random_sl(n, rng)
                closed = contract_closed_form(B)
                traj = integrate_flow(B)
                dev = np.linalg.norm(closed - traj.terminal)
                assert dev < 1e-5 * np.linalg.norm(B), \
                    f"n = {n}: deviation {dev:.2e} vs |B| = {np.linalg.norm(B):.2e}"
                # the terminal is itself snapped by the closed form; the last
                # integrated sample is the independent comparison
                pre_snap = np.linalg.norm(closed - traj.samples[-1][1])
                worst = max(worst, dev / np.linalg.norm(B))
                worst_pre_snap = max(worst_pre_snap, pre_snap / np.linalg.norm(B))
        assert time.perf_counter() - t0 < 120.0, "runtime budget (2 min) exceeded"
        print(f"    worst |closed - terminal| / |B| = {worst:.2e} snapped, "
              f"{worst_pre_snap:.2e} before the snap (bound 1e-5)")

    _report(2, "closed form matches the flow endpoint for SL(3) x100, SL(4) x50", body)


def test_acceptance_03_momentum_conservation():
    def body():
        rng = np.random.default_rng(3033)
        starts = [np.diag([2.0, 0.5]), np.diag([1.1, 1 / 1.1]), np.eye(2)]
        starts += [_random_sl(2, rng) for _ in range(8)]
        starts += [_random_sl(3, rng) for _ in range(6)]
        starts += [_random_sl(4, rng) for _ in range(6)]
        for B0 in starts:
            traj = integrate_flow(B0)
            bound = 1e-6 * np.linalg.norm(B0) ** 2
            drift = float(np.max(traj.momentum_drift()))
            assert drift < bound, f"flow drift {drift:.2e} exceeds {bound:.2e}"
        for _ in range(50):
            B = _random_sl(int(rng.integers(2, 5)), rng)
            out = contract_closed_form(B)
            dev = np.max(np.abs(traceless(momentum_right(B))
                                - traceless(momentum_right(out))))
            assert dev < 1e-9, f"contraction drift {dev:.2e}"

    _report(3, "traceless momentum: flow drift < 1e-6 |B0|^2, contraction < 1e-9", body)


def test_acceptance_04_flow_decay_law():
    def body():
        rng = np.random.default_rng(4044)
        starts = [np.diag([1.1, 1 / 1.1]), np.diag([2.0, 0.5]),
                  _random_sl(2, rng), _random_sl(3, rng)]
        for B0 in starts:
            resid = np.max(np.abs(integrate_flow(B0, FlowConfig(m=1)).law_residuals()))
            assert resid < 1e-7, f"m = 1 law residual {resid:.2e}"
            for m in (2, 3):
                resid = np.max(np.abs(integrate_flow(B0, FlowConfig(m=m)).law_residuals()))
                assert resid < 1e-6, f"m = {m} law residual {resid:.2e}"

    _report(4, "Re det = (1 - t)^m at every accepted step (1e-7 for m=1, 1e-6 for m=2,3)", body)


def test_acceptance_05_equivariance():
    def body():
        rng = np.random.default_rng(5055)
        grid = np.linspace(0.0, 0.99, 9)
        worst = 0.0
        for trial in range(50):
            n = 2 if trial % 2 == 0 else 3
            B = _random_sl(n, rng)
            k1 = haar_special_unitary(n, rng)
            k2 = haar_special_unitary(n, rng)
            ref = integrate_flow(B)
            conj = integrate_flow(k1 @ B @ k2)
            for t in grid:
                dev = np.linalg.norm(conj.at(t) - k1 @ ref.at(t) @ k2)
                assert dev < 1e-6, f"trial {trial}, t = {t:.2f}: {dev:.2e}"
                worst = max(worst, dev)
            dev = np.linalg.norm(conj.terminal - k1 @ ref.terminal @ k2)
            assert dev < 1e-6, f"trial {trial} terminal: {dev:.2e}"
            worst = max(worst, dev)
        print(f"    worst |at(t) - k1 at(t) k2| = {worst:.2e} (bound 1e-6)")

    _report(5, "flows of B and k B k' agree under conjugation pointwise within 1e-6", body)


def test_acceptance_06_gt_count_identity():
    def body():
        t0 = time.perf_counter()
        checked = 0
        for n in (1, 2, 3, 4):
            for lam in combinations_with_replacement(range(5, -1, -1), n):
                assert enumerate_gt(lam) == weyl_dim(lam), f"mismatch at {lam}"
                checked += 1
        assert checked == 6 + 21 + 56 + 126
        assert time.perf_counter() - t0 < 60.0, "runtime budget (1 min) exceeded"

    _report(6, "lattice count equals Weyl dimension for all weights n<=4, entries 0..5", body)


def test_acceptance_07_interlacing():
    def body():
        rng = np.random.default_rng(7077)
        for trial in range(10_000):
            n = 2 + trial % 5
            Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            A = 0.5 * (Z + Z.conj().T)
            pattern = gt_pattern(A)
            tol = 1e-8 * (1.0 + max(abs(v) for v in pattern.top()))
            bad = validate_interlacing(pattern, tol)
            assert bad == [], f"trial {trial}: violations {bad[:3]}"

    _report(7, "10^4 random Hermitian matrices: zero interlacing violations at 1e-8 relative", body)


def test_acceptance_08_gt_integrability():
    def body():
        rng = np.random.default_rng(8088)
        for n in (3, 4):
            momenta = [OrbitFunction.gt_entry(i, j)
                       for j in range(1, n) for i in range(1, j + 1)]
            for trial in range(100):
                lam = np.sort(rng.uniform(-2.0, 2.0, size=n))[::-1]
                A = random_orbit_point(lam, seed=int(rng.integers(1 << 31)))
                for f, g in combinations(momenta, 2):
                    val = poisson_bracket(f, g, A)
                    assert abs(val) < 1e-8, f"n={n} {f} {g}: bracket {val:.2e}"
                base = gt_pattern(A)
                for level in range(1, n):
                    out = star_action(A, level, rng.uniform(-np.pi, np.pi, level))
                    moved = gt_pattern(out)
                    for r0, r1 in zip(base.rows, moved.rows):
                        dev = np.max(np.abs(np.array(r0) - np.array(r1)))
                        assert dev < 1e-7, f"n={n} level {level}: pattern moved {dev:.2e}"

    _report(8, "GT momenta Poisson-commute (<1e-8) and star flows fix patterns (1e-7)", body)


def test_acceptance_09_tree_cg_identity():
    def body():
        t0 = time.perf_counter()
        for n in (4, 5, 6):
            trees = enumerate_trivalent_trees(n)
            for r in product(range(5), repeat=n):
                if not polygon_monoid_member(r):
                    continue
                expected = cg_multiplicity(r)
                for tree in trees:
                    got = tree_polytope_count(tree, r)
                    assert got == expected, f"n={n} r={r}: {got} != {expected}"
        assert time.perf_counter() - t0 < 120.0, "runtime budget (2 min) exceeded"

    _report(9, "tree lattice counts equal CG multiplicity for every tree, n in 4..6", body)


def test_acceptance_10_chain_pattern_bijection():
    def body():
        for n in (2, 3, 4):
            for lam in combinations_with_replacement(range(4, -1, -1), n):
                patterns = {tuple(p.rows) for p in iter_gt_patterns(lam)}
                for rows in patterns:
                    chain = [rows[j] for j in range(n - 1, -1, -1)]
                    assert fiber_chain_member(chain), f"pattern rejected: {rows}"
                lo, hi = min(lam) - 1, max(lam) + 1
                values = range(lo, hi + 1)
                row_sets = []
                for length in range(1, n):
                    row_sets.append([
                        row for row in product(values, repeat=length)
                        if all(row[i] >= row[i + 1] for i in range(length - 1))
                    ])
                accepted = set()
                for combo in product(*row_sets):
                    chain = list(combo) + [lam]
                    if fiber_chain_member(chain):
                        accepted.add(tuple(reversed(chain)))
                assert accepted == patterns, f"bijection failed at {lam}"

    _report(10, "chains through the interlacing test are exactly the GT patterns", body)


def test_acceptance_11_polygon_bending():
    def body():
        rng = np.random.default_rng(11011)
        for trial in range(100):
            n = int(rng.integers(4, 9))
            E = rng.standard_normal((n - 1, 3))
            Q = PolygonConfig(np.vstack([E, -E.sum(axis=0)]))
            r, d = measure_caterpillar(Q)
            P = build_polygon(r, d, rng.uniform(-np.pi, np.pi, size=n - 3))
            T = caterpillar_triangulation(n)
            base_d = diagonal_lengths(P, T)
            base_r = P.side_lengths()
            bent = []
            for run in T.diagonals:
                B = bend(P, run, rng.uniform(-np.pi, np.pi))
                assert np.max(np.abs(B.side_lengths() - base_r)) < 1e-9
                assert np.max(np.abs(diagonal_lengths(B, T) - base_d)) < 1e-9
                bent.append(B)
            if len(T.diagonals) >= 2:
                d1, d2 = T.diagonals[0], T.diagonals[-1]
                th1, th2 = rng.uniform(-np.pi, np.pi, size=2)
                a = bend(bend(P, d1, th1), d2, th2)
                b = bend(bend(P, d2, th2), d1, th1)
                assert np.max(np.abs(a.edges - b.edges)) < 1e-9, f"trial {trial}"

    _report(11, "bending preserves sides/diagonals and commutes within 1e-9 (100 polygons)", body)


def test_acceptance_12_fiber_relation():
    def body():
        rng = np.random.default_rng(12012)
        tol = 1e-9

        def su_block(partition, h0):
            n = h0.shape[0]
            u = np.zeros((n, n), dtype=complex)
            for lo, hi in partition:
                u[lo:hi, lo:hi] = haar_special_unitary(hi - lo, rng)
            return h0.conj().T @ u @ h0

        def check(x, y, expected, label):
            got = same_fiber(x, y, tol)
            assert got == expected, f"{label}: same_fiber = {got}, expected {expected}"
            nf = contracted_equal(contract_point(x), contract_point(y), tol)
            assert nf == expected, f"{label}: normal-form comparison disagrees"

        # regular momentum: the fiber is a single point
        v_reg = np.diag([3.0, 2.0, 1.0])
        k = haar_unitary(3, rng)
        x = CotangentPoint(k, v_reg)
        check(x, CotangentPoint(k.copy(), v_reg.copy()), True, "regular/equal")
        phase = np.diag(np.exp(1j * np.array([0.4, -0.4, 0.0])))
        check(x, CotangentPoint(k @ phase, v_reg), False, "regular/torus")
        check(x, CotangentPoint(k, np.diag([3.0, 2.0, 1.0 + 1e-3])), False,
              "regular/moved momentum")

        # zero momentum: determinant-1 criterion
        z = np.zeros((3, 3))
        kx = haar_unitary(3, rng)
        for trial in range(10):
            u = haar_unitary(3, rng)
            expected = bool(abs(np.linalg.det(u) - 1.0) <= tol)
            check(CotangentPoint(kx, z), CotangentPoint(kx @ u, z), expected,
                  f"zero/{trial}")
            su = u * np.linalg.det(u) ** (-1 / 3)
            check(CotangentPoint(kx, z), CotangentPoint(kx @ su, z), True,
                  f"zero-su/{trial}")

        # block momentum: per-block determinant-1 criterion
        h0 = haar_unitary(4, rng)
        w = np.array([2.0, 2.0, -1.0, -1.0])
        vb = h0.conj().T @ np.diag(w) @ h0
        vb = 0.5 * (vb + vb.conj().T)
        partition = [(0, 2), (2, 4)]
        kb = haar_unitary(4, rng)
        xb = CotangentPoint(kb, vb)
        for trial in range(10):
            u_good = su_block(partition, h0)
            check(xb, CotangentPoint(kb @ u_good, vb), True, f"block-su/{trial}")
        bad_phase = h0.conj().T @ np.diag(np.exp(1j * np.array([0.3, 0.0, 0.0, 0.0]))) @ h0
        check(xb, CotangentPoint(kb @ su_block(partition, h0) @ bad_phase, vb),
              False, "block/phase")
        check(xb, CotangentPoint(kb @ haar_unitary(4, rng), vb), False, "block/generic")

    _report(12, "same_fiber matches the analytic relation and the normal-form test", body)
