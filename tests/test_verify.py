"""The invariant registry: one rule for every measurement, and the smoke
workload that `mflow verify` runs."""

import math

import numpy as np
import pytest

from mflow import verify
from mflow.verify import Measurement


class TestRule:
    def test_strictly_below_the_bound_passes(self):
        assert Measurement("x", 0.99e-5, 1e-5, "").passed
        assert Measurement("x", -1.0, 1e-12, "").passed

    def test_equal_to_the_bound_fails(self):
        m = Measurement("x", 1e-5, 1e-5, "")
        assert not m.passed
        assert m.margin == 0.0

    def test_nan_fails(self):
        m = Measurement("x", float("nan"), 1e-5, "")
        assert not m.passed
        assert math.isnan(m.margin)

    def test_numbers_parse_as_floats(self):
        fields = dict(f.split("=") for f in Measurement("x", 2.5e-7, 1e-6, "").numbers.split())
        assert {k: float(v) for k, v in fields.items()} == {
            "measured": 2.5e-7, "bound": 1e-6, "margin": 7.5e-7}


class TestExactChecks:
    WEIGHTS = ((2, 1, 0), (3, 1, 0), (2, 2, 1, 0))

    def test_no_mismatch_passes(self):
        [m] = verify.run_check(verify.check_gt_count_identity, 0, weights=self.WEIGHTS)
        assert (m.name, m.measured, m.bound, m.passed) == ("gt-count-identity", 0.0, 1.0, True)

    def test_one_mismatch_fails(self, monkeypatch):
        real = verify.weyl_dim
        monkeypatch.setattr(verify, "weyl_dim", lambda lam: real(lam) + (lam == (3, 1, 0)))
        [m] = verify.run_check(verify.check_gt_count_identity, 0, weights=self.WEIGHTS)
        assert m.measured == 1.0 and not m.passed
        assert m.detail.endswith("first at (3, 1, 0)")

    def test_a_nan_measurement_is_not_masked(self, monkeypatch):
        real = verify.integrate_flow

        def broken(B0, *args):
            traj = real(B0, *args)
            if B0[0, 0] == 2.0:
                traj.terminal[0, 0] = np.nan
            return traj

        monkeypatch.setattr(verify, "integrate_flow", broken)
        [m] = verify.run_check(verify.check_sl2_endpoints, None, xs=(1.1, 2.0, 5.0))
        assert math.isnan(m.measured) and not m.passed


def test_check_names_are_unique_and_stable_across_seeds():
    names = [m.name for m in verify.run_all(seed=0)]
    assert len(names) == len(set(names))
    assert [m.name for m in verify.run_all(seed=5)] == names


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 1 << 29])
def test_smoke_workload_passes(seed):
    failed = [(m.name, m.detail, m.numbers) for m in verify.run_all(seed) if not m.passed]
    assert failed == []


@pytest.mark.parametrize("check, workload, starts", [
    (verify.check_flow_decay_law, {"diagonals": ((2.0, 0.5),), "random": ((3, 2),)}, 3),
    (verify.check_flow_exact_curve, {"random": ((3, 2),), "degenerate": (np.eye(3),)}, 3),
], ids=["decay-law", "exact-curve"])
def test_flow_checks_integrate_each_start_once(check, workload, starts, monkeypatch):
    # one integration serves every m: each start is viewed at m = 1, 2, 3
    calls = []
    real = verify.integrate_flow
    monkeypatch.setattr(verify, "integrate_flow", lambda *a: calls.append(a) or real(*a))
    results = verify.run_check(check, 11, ms=(1, 2, 3), **workload)
    assert all(m.passed for m in results)
    assert len(calls) == starts
