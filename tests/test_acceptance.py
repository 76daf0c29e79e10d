"""Acceptance suite: every README criterion at its stated tolerance.

Each criterion is computed by one check in `mflow.verify`, the same one
`mflow verify` runs on its small workload; this module holds only the README
workloads, their seeds and runtime budgets. Run `pytest -v -s
tests/test_acceptance.py` to see one pass/fail line per criterion with its
runtime and measurements.
"""

import time
from itertools import combinations_with_replacement, product

import pytest

from mflow import verify


def _accept(num, title, check, seed=None, budget=None, **workload):
    t0 = time.perf_counter()
    try:
        results = verify.run_check(check, seed, **workload)
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {title}")
        raise
    elapsed = time.perf_counter() - t0
    failed = [f"{r.name}: {r.detail} {r.numbers}" for r in results if not r.passed]
    if budget is not None and elapsed >= budget:
        failed.append(f"runtime budget ({budget:g} s) exceeded: {elapsed:.2f} s")
    status = "FAIL " if failed else f"PASS  [{elapsed:6.2f}s]"
    print(f"ACCEPTANCE {num:02d} {status} {title}")
    for r in results:
        print(f"    {r.name} {r.numbers}")
    if failed:
        pytest.fail("; ".join(failed))


def test_acceptance_01_sl2_closed_form_endpoints():
    _accept(1, "SL(2) flow endpoints match diag(sqrt(x^2 - x^-2), 0) within 1e-6",
            verify.check_sl2_endpoints, budget=1.0, xs=(1.1, 2.0, 5.0))


def test_acceptance_02_closed_form_vs_ode_oracle():
    _accept(2, "closed form matches the flow endpoint for SL(3) x100, SL(4) x50",
            verify.check_contraction_matches_flow, seed=2024, budget=120.0,
            random=((3, 100), (4, 50)))


def test_acceptance_03_momentum_conservation():
    _accept(3, "traceless momentum: flow drift < 1e-6 |B0|^2, contraction < 1e-9",
            verify.check_momentum_conservation, seed=3033,
            diagonals=((2.0, 0.5), (1.1, 1 / 1.1), (1.0, 1.0)),
            random=((2, 8), (3, 6), (4, 6)), contractions=50)


def test_acceptance_04_flow_decay_law():
    _accept(4, "Re det = (1 - t)^m at every accepted step (1e-7 for m=1, 1e-6 for m=2,3)",
            verify.check_flow_decay_law, seed=4044,
            diagonals=((1.1, 1 / 1.1), (2.0, 0.5)), random=((2, 1), (3, 1)), ms=(1, 2, 3))


def test_acceptance_05_equivariance():
    _accept(5, "flows of B and k B k' agree under conjugation pointwise within 1e-6",
            verify.check_flow_equivariance, seed=5055, trials=50)


def test_acceptance_06_gt_count_identity():
    weights = [lam for n in (1, 2, 3, 4)
               for lam in combinations_with_replacement(range(5, -1, -1), n)]
    assert len(weights) == 6 + 21 + 56 + 126
    _accept(6, "lattice count equals Weyl dimension for all weights n<=4, entries 0..5",
            verify.check_gt_count_identity, budget=60.0, weights=weights)


def test_acceptance_07_interlacing():
    _accept(7, "10^4 random Hermitian matrices: zero interlacing violations at 1e-8 relative",
            verify.check_gt_interlacing, seed=7077, trials=10_000)


def test_acceptance_08_gt_integrability():
    _accept(8, "GT momenta Poisson-commute (<1e-8) and star flows fix patterns (1e-7)",
            verify.check_gt_integrability, seed=8088, sizes=(3, 4), trials=100)


def test_acceptance_09_tree_cg_identity():
    weights = [r for n in (4, 5, 6) for r in product(range(5), repeat=n)]
    _accept(9, "tree lattice counts equal CG multiplicity for every tree, n in 4..6",
            verify.check_tree_cg_identity, budget=120.0, weights=weights)


def test_acceptance_10_chain_pattern_bijection():
    weights = [lam for n in (2, 3, 4) for lam in combinations_with_replacement(range(4, -1, -1), n)]
    _accept(10, "chains through the interlacing test are exactly the GT patterns",
            verify.check_chain_pattern_bijection, weights=weights)


def test_acceptance_11_polygon_bending():
    _accept(11, "bending preserves sides/diagonals and commutes within 1e-9 (100 polygons)",
            verify.check_polygon_bending, seed=11011, trials=100, sides=(4, 9))


def test_acceptance_12_fiber_relation():
    _accept(12, "same_fiber matches the analytic relation and the normal-form test",
            verify.check_fiber_relation, seed=12012, trials=10)
