import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

import mflow

from mflow import flow, verify
from mflow.contraction import contract_closed_form
from mflow.errors import FlowBudgetExceeded, InvariantViolation, SingularLocus
from mflow.flow import FlowConfig, integrate_flow, vfield
from mflow.matrices import adjugate, haar_special_unitary, traceless


def grad_re_det(A):
    """Gradient of Re(det) for the real inner product <X, Y> = Re tr(X Y*):
    the conjugate transpose of the adjugate, the formula flow._field uses."""
    return adjugate(A).conj().T


def fd_grad_re_det(A, step=1e-6):
    """Finite-difference oracle for the gradient of Re det.

    Central differences along every real and imaginary coordinate direction;
    the gradient matrix G satisfies Re tr(G H*) = directional derivative, so
    G[k, l] = D_{E_kl} + i D_{iE_kl}.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    G = np.zeros_like(A)
    for k in range(n):
        for l in range(n):
            E = np.zeros_like(A)
            E[k, l] = 1.0
            d_re = (np.linalg.det(A + step * E).real
                    - np.linalg.det(A - step * E).real) / (2 * step)
            d_im = (np.linalg.det(A + 1j * step * E).real
                    - np.linalg.det(A - 1j * step * E).real) / (2 * step)
            G[k, l] = d_re + 1j * d_im
    return G


def _random_sl(n, rng):
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return B / np.linalg.det(B) ** (1 / n)


def _rotated(singular_values, seed):
    """k1 diag(singular_values) k2 for Haar-random k1, k2 in SU(n)."""
    rng = np.random.default_rng(seed)
    n = len(singular_values)
    return (haar_special_unitary(n, rng) @ np.diag(singular_values)
            @ haar_special_unitary(n, rng))


# starts whose smallest singular value is multiple: (label, B0, its
# multiplicity k, a ceiling on the field evaluations of the m = 1 flow).
# Integrated in the unit-rate time they took 559, 691, 727, 517 and 577
# evaluations; in their own k-time 13, 13, 13, 25 and 49.
DEGENERATE = [
    ("eye(2)", np.eye(2), 2, 19),
    ("eye(3)", np.eye(3), 3, 19),
    ("eye(4)", np.eye(4), 4, 19),
    ("s=(2,2,1/2,1/2)", _rotated([2.0, 2.0, 0.5, 0.5], 7), 2, 37),
    ("s=(4,1,1/2,1/2)", np.diag([4.0, 1.0, 0.5, 0.5]), 2, 61),
]


# the random starts of the exact-curve check: (n, count) SL(n) starts
EXACT_CURVE_RANDOM = ((3, 20), (4, 10))


class TestGradReDet:
    def test_identity_2x2(self):
        assert np.allclose(grad_re_det(np.eye(2)), np.eye(2))
        assert np.allclose(fd_grad_re_det(np.eye(2)), np.eye(2), atol=1e-6)

    def test_real_diagonal_by_hand(self):
        # Re det(diag(x, y)) = x y, so the partials are (y, x).
        x, y = 1.7, -0.4
        assert np.allclose(grad_re_det(np.diag([x, y])), np.diag([y, x]))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(41)
        for _ in range(4):
            A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            G = grad_re_det(A)
            F = fd_grad_re_det(A)
            assert np.linalg.norm(G - F) < 1e-5 * max(1.0, np.linalg.norm(G))


class TestVfield:
    def test_positive_diagonal_closed_form(self):
        x, y = 1.3, 0.6
        V = vfield(np.diag([x, y]), m=1)
        assert np.allclose(V, -np.diag([y, x]) / (x * x + y * y), atol=1e-14)

    def test_identity_2x2(self):
        assert np.allclose(vfield(np.eye(2), m=1), -np.eye(2) / 2.0)

    def test_unit_rate_directional_derivative(self):
        rng = np.random.default_rng(43)
        for _ in range(3):
            A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            V = vfield(A, m=1)
            eps = 1e-5
            dd = (np.linalg.det(A + eps * V).real
                  - np.linalg.det(A - eps * V).real) / (2 * eps)
            assert abs(dd + 1.0) < 1e-8

    def test_singular_locus_error(self):
        with pytest.raises(SingularLocus):
            vfield(np.zeros((3, 3)), m=1)

    def test_overflowing_gradient_refused(self):
        # |adj|^2 = 5e320 overflows although every entry and det are finite
        with pytest.raises(InvariantViolation, match="overflows"):
            vfield(np.diag(np.full(5, 1e40)), m=1)

    def test_m_requires_nonnegative_det(self):
        A = np.diag([1.0, -2.0])  # Re det = -2
        with pytest.raises(InvariantViolation):
            vfield(A, m=2)

    @pytest.mark.parametrize("m", [float("nan"), float("inf"), 2.5, 0, "2"])
    def test_m_is_checked_before_the_field(self, m, monkeypatch):
        monkeypatch.setattr(flow, "_field", lambda *args: pytest.fail("field evaluated"))
        with pytest.raises(InvariantViolation):
            vfield(np.eye(3), m=m)

    def test_power_normalization_identity(self):
        # V for det equals the m-normalized field of det^m on the real slice.
        rng = np.random.default_rng(47)
        for m in (2, 3):
            D = np.diag(rng.uniform(0.5, 2.0, size=3))
            k1 = haar_special_unitary(3, rng)
            k2 = haar_special_unitary(3, rng)
            A = k1 @ (D / np.linalg.det(D) ** (1 / 3)) @ k2
            det = np.linalg.det(A)
            g_pow = m * np.conj(det) ** (m - 1) * adjugate(A).conj().T
            gn2 = np.sum(np.abs(g_pow) ** 2)
            v_pow = -g_pow / gn2 * (m * (det.real ** m) ** (1.0 - 1.0 / m))
            assert np.linalg.norm(v_pow - vfield(A, m=1)) < 1e-8

    def test_field_re_det_is_the_determinant(self):
        # one row of the Laplace expansion, against LU, at random points and
        # next to the stop fiber Re det = DET_STOP_TOL
        rng = np.random.default_rng(79)
        points = []
        for n in range(2, 9):
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            points.append(B)
            traj = integrate_flow(B / np.linalg.det(B) ** (1 / n))
            points.append(traj.samples[-1][1])
            points.append(traj.at(0.999 * traj.times()[-1]))
        for B in points:
            re_det = flow._field(B, np.empty(B.shape, dtype=complex), True)
            sigma1 = np.linalg.norm(B, 2)
            assert abs(re_det - np.linalg.det(B).real) <= 1e-12 * sigma1 ** B.shape[0]


class TestIntegrateFlow:
    def test_sl2_diagonal_paper_endpoint(self):
        traj = integrate_flow(np.diag([2.0, 0.5]))
        expected = np.diag([np.sqrt(3.75), 0.0])
        assert np.linalg.norm(traj.terminal - expected) < 1e-6

    def test_identity_flows_to_zero(self):
        traj = integrate_flow(np.eye(2))
        assert np.max(np.abs(traj.terminal)) < 1e-6

    def test_trajectory_invariants(self):
        traj = integrate_flow(np.diag([2.0, 0.5]))
        ts = traj.times()
        assert ts[0] == 0.0
        assert np.all(np.diff(ts) > 0)
        assert abs(np.linalg.det(traj.terminal)) <= flow.DET_STOP_TOL
        assert traj.step_stats.accepted == len(traj.samples) - 1

    def test_decay_law_every_accepted_step(self):
        for m in (1, 2, 3):
            traj = integrate_flow(np.diag([2.0, 0.5]), FlowConfig(m=m))
            tol = 1e-7 if m == 1 else 1e-6
            assert np.max(np.abs(traj.law_residuals())) < tol

    def test_momentum_conserved(self):
        rng = np.random.default_rng(53)
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = B / np.linalg.det(B) ** (1 / 3)
        traj = integrate_flow(B)
        assert np.max(traj.momentum_drift()) < 1e-6 * np.linalg.norm(B) ** 2

    def test_diagnostics_match_per_sample_loop(self):
        rng = np.random.default_rng(73)
        for n in (2, 3, 5):
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            traj = integrate_flow(B / np.linalg.det(B) ** (1 / n))
            mats = traj.points
            base = traceless(mats[0].conj().T @ mats[0])
            drift = [np.max(np.abs(traceless(M.conj().T @ M) - base)) for M in mats]
            dets = np.array([np.linalg.det(M) for M in mats])
            assert traj.momentum_drift().shape == traj.determinants().shape == (len(mats),)
            scale = np.max(np.abs(mats[0].conj().T @ mats[0]))
            assert np.max(np.abs(traj.momentum_drift() - drift)) <= 1e-14 * scale
            assert np.all(np.abs(traj.determinants() - dets) <= 1e-14 * np.abs(dets))
            # one pass serves both, and a caller's edit of a result stays its own
            assert np.array_equal(traj.determinants(), np.linalg.det(np.stack(mats)))
            traj.determinants()[:] = 0.0
            traj.momentum_drift()[:] = 1.0
            law = traj.law_residuals()
            assert traj.determinants().all() and not traj.momentum_drift()[0]
            assert np.array_equal(law, traj.law_residuals())

    def test_terminal_is_closed_form_of_last_sample(self):
        traj = integrate_flow(np.diag([2.0, 0.5]))
        assert np.array_equal(traj.terminal, contract_closed_form(traj.samples[-1][1]))
        assert not np.array_equal(traj.samples[-1][1], traj.terminal)

    def test_singular_value_gaps_conserved(self):
        rng = np.random.default_rng(59)
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = B / np.linalg.det(B) ** (1 / 3)
        traj = integrate_flow(B)
        base = np.linalg.svd(B, compute_uv=False) ** 2
        for _, M in traj.samples:
            s2 = np.linalg.svd(M, compute_uv=False) ** 2
            gaps = np.subtract.outer(s2, s2) - np.subtract.outer(base, base)
            assert np.max(np.abs(gaps)) < 1e-6

    def test_equivariance(self):
        rng = np.random.default_rng(61)
        D = np.diag([2.0, 0.5])
        k1 = haar_special_unitary(2, rng)
        k2 = haar_special_unitary(2, rng)
        traj = integrate_flow(k1 @ D @ k2)
        expected = k1 @ np.diag([np.sqrt(3.75), 0.0]) @ k2
        assert np.linalg.norm(traj.terminal - expected) < 1e-6
        # pointwise along the path, against the diagonal reference flow
        ref = integrate_flow(D)
        for t in np.linspace(0.0, 0.999, 7):
            assert np.linalg.norm(traj.at(t) - k1 @ ref.at(t) @ k2) < 1e-6

    def test_normalizations_share_endpoints(self):
        rng = np.random.default_rng(67)
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = B / np.linalg.det(B) ** (1 / 3)
        t1 = integrate_flow(B, FlowConfig(m=1))
        t2 = integrate_flow(B, FlowConfig(m=2))
        t3 = integrate_flow(B, FlowConfig(m=3))
        assert np.linalg.norm(t1.terminal - t2.terminal) < 1e-6
        assert np.linalg.norm(t1.terminal - t3.terminal) < 1e-6

    def test_m_flows_share_the_unit_rate_curve(self):
        # every m-field is a positive multiple of the m = 1 field: the same
        # samples, reached at the mapped times t = d0^(1/m) - (d0 - s)^(1/m)
        rng = np.random.default_rng(83)
        B = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        B = B / np.linalg.det(B) ** (1 / 4)
        ref = integrate_flow(B)
        s = ref.times()
        for m in (2, 3):
            traj = integrate_flow(B, FlowConfig(m=m))
            assert all(np.array_equal(M, R) for M, R in zip(traj.points, ref.points))
            assert traj.step_stats.accepted == ref.step_stats.accepted
            d0 = traj.start_det
            expected = d0 ** (1 / m) - np.maximum(d0 - s, 0.0) ** (1 / m)
            assert np.max(np.abs(traj.times() - expected)) < 1e-15
            for t in np.linspace(0.0, traj.times()[-1], 9):
                s_t = d0 - (d0 ** (1 / m) - t) ** m
                assert np.linalg.norm(traj.at(t) - ref.at(s_t)) < 1e-14

    @pytest.mark.parametrize("label", ["random SL(3)", "eye(3)", "s=(2,2,1/2,1/2)"])
    def test_one_integration_serves_every_m(self, label):
        # integrate_flow does not depend on m: the m = 1 integration viewed
        # with config m is the flow of m, bit for bit
        B0 = {"random SL(3)": _random_sl(3, np.random.default_rng(107)),
              "eye(3)": np.eye(3), "s=(2,2,1/2,1/2)": DEGENERATE[3][1]}[label]
        base = integrate_flow(B0)
        for m in (1, 2, 3):
            view = dataclasses.replace(base, config=FlowConfig(m=m))
            traj = integrate_flow(B0, FlowConfig(m=m))
            assert np.array_equal(view.times(), traj.times())
            assert len(view.samples) == len(traj.samples)
            for (t, M), (u, N) in zip(view.samples, traj.samples):
                assert t == u and np.array_equal(M, N)
            for t in np.linspace(0.0, traj.times()[-1], 9):
                assert np.array_equal(view.at(t), traj.at(t))
            assert np.array_equal(view.law_residuals(), traj.law_residuals())
            assert np.array_equal(view.momentum_drift(), traj.momentum_drift())
            assert np.array_equal(view.terminal, traj.terminal)
            assert view.step_stats == traj.step_stats == base.step_stats

    def test_trajectory_is_a_frozen_record(self):
        traj = integrate_flow(np.diag([2.0, 0.5]), FlowConfig(m=2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.config = FlowConfig(m=3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            traj.step_stats.accepted = 0
        assert not hasattr(traj, "slopes")
        # apart from config, no field depends on m
        m1 = integrate_flow(np.diag([2.0, 0.5]))
        for f in dataclasses.fields(traj):
            a, b = getattr(traj, f.name), getattr(m1, f.name)
            if f.name == "config":
                assert (a.m, b.m) == (2, 1)
            elif isinstance(a, tuple):
                assert len(a) == len(b) and all(map(np.array_equal, a, b)), f.name
            else:
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b, f.name

    def test_dense_output_interpolates_and_is_continuous(self):
        rng = np.random.default_rng(89)
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        traj = integrate_flow(B / np.linalg.det(B) ** (1 / 3))
        ts = traj.times()
        assert traj.at(-np.inf) is traj.points[0] and traj.at(np.inf) is traj.points[-1]
        with pytest.raises(InvariantViolation):
            traj.at(np.nan)
        for k, (t, M) in enumerate(traj.samples):
            assert np.array_equal(traj.at(t), M)
            if k + 1 < len(ts):
                # theta -> 1 within step k lands on sample k + 1 (the 5th-order step)
                left = traj.at(np.nextafter(ts[k + 1], 0.0))
                assert np.linalg.norm(left - traj.samples[k + 1][1]) < 1e-12
                # and the quartic's slope at theta = 1 is the field value there
                h = 1e-6 * (ts[k + 1] - t)
                slope = (traj.at(ts[k + 1]) - traj.at(ts[k + 1] - h)) / h
                field = vfield(traj.samples[k + 1][1], 1)
                assert np.linalg.norm(slope - field) < 1e-5 * np.linalg.norm(slope)

    def test_exact_landing_on_the_stop_fiber(self):
        rng = np.random.default_rng(97)
        starts = [(n, _random_sl(n, rng)) for n in (2, 3, 4, 8)]
        starts += [(label, B) for label, B, _, _ in DEGENERATE]
        for label, B in starts:
            traj = integrate_flow(B)
            stop = flow.DET_STOP_TOL
            d_last = float(np.linalg.det(traj.samples[-1][1]).real)
            # the last step ends on Re det = DET_STOP_TOL: no tail of tiny steps
            assert abs(d_last - stop) < 1e-9, label
            assert abs(traj.times()[-1] - (traj.start_det - stop)) < 1e-8, label
            steps = np.diff(traj.times())
            assert steps[-1] > 1e-3 * np.max(steps), label

    @pytest.mark.parametrize("label, B0, k, ceiling", DEGENERATE,
                             ids=[d[0] for d in DEGENERATE])
    def test_degenerate_start_takes_few_steps(self, label, B0, k, ceiling):
        # a k-fold smallest singular value vanishes like (Re det)^(1/k); in
        # the k-time the curve is smooth up to det = 0
        for m in (1, 2, 3):
            traj = integrate_flow(B0, FlowConfig(m=m))
            assert traj.time_exponent == k
            assert traj.step_stats.rhs_calls <= ceiling, (m, traj.step_stats)

    @pytest.mark.parametrize("gap, k", [(1e-9, 4), (1e-3, 3)])
    def test_cluster_threshold_of_the_time_exponent(self, gap, k):
        # diag(1, 1, 1, 1 + gap) on each side of matrices.CLUSTER_TOL: a gap
        # below it counts as a 4-fold smallest singular value, one above it
        # leaves a 3-fold one; either way the README tolerances hold
        B0 = np.diag([1.0, 1.0, 1.0, 1.0 + gap])
        nb = np.linalg.norm(B0)
        for m in (1, 2, 3):
            traj = integrate_flow(B0, FlowConfig(m=m))
            assert traj.time_exponent == k
            assert np.linalg.norm(traj.terminal - contract_closed_form(B0)) < 1e-5 * nb
            assert np.max(np.abs(traj.law_residuals())) < (1e-7 if m == 1 else 1e-6)
            assert np.max(traj.momentum_drift()) < 1e-6 * nb ** 2

    def test_samples_and_dense_output_follow_the_exact_curve(self, capsys):
        # flow_closed_form is the exact m = 1 curve. Measured worst (samples,
        # at()): random SL(3) and SL(4) starts 1.7e-8, 2.2e-7; the degenerate
        # starts 3.3e-10, 2.1e-8 (eye(4) and s=(2,2,1/2,1/2) were 6.2e-5 and
        # 1.9e-6 at the samples when integrated in the unit-rate time)
        results = verify.run_check(verify.check_flow_exact_curve, 2024, random=EXACT_CURVE_RANDOM,
                                   degenerate=[B for _, B, _, _ in DEGENERATE], ms=(1, 2, 3))
        with capsys.disabled():
            print("".join(f"\n    {r.name} {r.numbers}" for r in results))
        assert len(results) == 4
        assert [(r.name, r.detail) for r in results if not r.passed] == []

    def test_step_stats(self):
        rng = np.random.default_rng(101)
        for m in (1, 2, 3):
            B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            traj = integrate_flow(B / np.linalg.det(B) ** (1 / 3), FlowConfig(m=m))
            stats = traj.step_stats
            # one FSAL start plus six stages per attempted step
            assert stats.rhs_calls == 1 + 6 * (stats.accepted + stats.rejected)
            assert stats.accepted == len(traj.times()) - 1 >= 2
            # min_step is measured in the k-time, which is the same for every m
            assert stats.min_step == np.min(np.diff(traj.k_times)[:-1])
            assert stats.rejected == stats.err_rejects + stats.singular_rejects
            assert 0 <= stats.det_rejects <= stats.err_rejects
        # a simple but nearly double smallest singular value (k = 1): the
        # determinant term sets some rejects, the entry-wise term others
        traj = integrate_flow(np.diag([2.0, 2.0, 0.5, 0.5001]))
        assert traj.time_exponent == 1
        stats = traj.step_stats
        assert stats.singular_rejects == 0
        assert 0 < stats.det_rejects < stats.err_rejects == stats.rejected

    def test_each_field_evaluation_is_one_adjugate_call(self, monkeypatch):
        # the benchmark's traced flow.rhs_calls counts the adjugate calls
        # under integrate_flow, so the field must go through the public name
        calls = []

        def counted_adjugate(A):
            calls.append(None)
            return adjugate(A)

        monkeypatch.setattr(flow, "adjugate", counted_adjugate)
        rng = np.random.default_rng(103)
        for B0 in (_random_sl(3, rng), _random_sl(5, rng), _random_sl(8, rng), np.eye(4)):
            calls.clear()
            stats = integrate_flow(B0).step_stats
            assert len(calls) == stats.rhs_calls > 1, B0.shape

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_decay_law_near_a_double_smallest_singular_value(self, eps):
        # a simple smallest singular value (k = 1) a distance eps from the
        # next one: the m = 1 law holds at criterion 4's bound (worst 3.8e-8)
        diagonal = (2.0, 2.0, 0.5, 0.5 + eps)
        assert integrate_flow(np.diag(diagonal)).time_exponent == 1
        [law] = verify.run_check(verify.check_flow_decay_law, None, diagonals=(diagonal,),
                                 random=(), ms=(1,))
        assert law.bound == 1e-7
        assert law.passed, law.numbers

    def test_layout_of_the_start_does_not_change_the_result(self):
        # the integrator's reused buffers: the same start in any memory
        # layout gives the same bits, and no returned array shares memory
        # with another, with the caller's array or with an earlier integration
        rng = np.random.default_rng(107)
        for B0 in (_random_sl(3, rng), _random_sl(5, rng),
                   np.diag([2.0, 2.0, 0.5, 0.5]).astype(complex)):
            n = B0.shape[0]
            ref = integrate_flow(B0)
            readonly = B0.copy()
            readonly.flags.writeable = False
            wide = np.zeros((n, 2 * n), dtype=complex)
            wide[:, ::2] = B0
            for start in (np.ascontiguousarray(B0), np.asfortranarray(B0), readonly,
                          wide[:, ::2]):
                before = start.copy()
                traj = integrate_flow(start)
                assert np.array_equal(start, before) and start.tobytes() == before.tobytes()
                assert traj.step_stats == ref.step_stats and traj.k_times == ref.k_times
                for got, want in ((traj.points, ref.points), (traj.dense, ref.dense),
                                  ((traj.terminal,), (ref.terminal,))):
                    assert len(got) == len(want)
                    assert all(a.shape == b.shape and a.tobytes() == b.tobytes()
                               for a, b in zip(got, want))
                arrays = [*traj.points, *traj.dense, traj.terminal]
                assert not any(np.shares_memory(a, start) for a in arrays)
                assert not any(np.shares_memory(a, b) for a in arrays for b in ref.points)
                for i, a in enumerate(arrays):
                    assert not any(np.shares_memory(a, b) for b in arrays[i + 1:]), i

    def test_singular_stage_is_counted_and_retried(self, monkeypatch):
        calls = []

        def field_failing_once(*args):
            calls.append(None)
            if len(calls) == 3:     # the second stage of the first attempt
                raise SingularLocus("stage on the singular locus")
            return real_field(*args)

        B = np.diag([2.0, 0.5])
        ref = integrate_flow(B).step_stats
        real_field = flow._field
        monkeypatch.setattr(flow, "_field", field_failing_once)
        stats = integrate_flow(B).step_stats
        assert stats.singular_rejects == 1
        assert stats.rejected == stats.err_rejects + 1
        # the failed attempt stopped after two of its six evaluations
        assert stats.rhs_calls == 1 + 2 + 6 * (stats.accepted + stats.err_rejects)
        assert stats.accepted >= ref.accepted

    def test_step_counts_stay_low(self):
        # machine-independent cost of a fixed seeded start set: 902 field
        # evaluations (1214 with the determinant error term scaled by
        # |Re det|). The plain 0.9 err^-0.2 controller took 2522 here, and
        # the PI controller 1928 while eye(4) was integrated in the unit-rate
        # time (75 accepted and 46 rejected steps, 2 in its own time)
        rng = np.random.default_rng(2027)
        starts = []
        for n, count in ((3, 20), (4, 5)):
            for _ in range(count):
                B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                starts.append(B / np.linalg.det(B) ** (1 / n))
        stats = [integrate_flow(B).step_stats for B in starts + [np.eye(4)]]
        assert sum(st.rhs_calls for st in stats) <= 1300
        eye4 = stats[-1]
        assert eye4.rejected < eye4.accepted

    def test_field_evaluations_of_the_exact_curve_starts(self):
        # a ceiling at the measured count, 1014 (153 accepted and 11 rejected
        # steps), so that a change adding field evaluations fails here; it
        # was 1404 (184 and 45) while the determinant error term was scaled
        # by |Re det| instead of the start's det
        rng = np.random.default_rng(2024)
        starts = [_random_sl(n, rng) for n, count in EXACT_CURVE_RANDOM for _ in range(count)]
        assert sum(integrate_flow(B).step_stats.rhs_calls for B in starts) <= 1014

    def test_no_step_cap_option(self):
        with pytest.raises(TypeError):
            FlowConfig(max_step=0.05)

    @pytest.mark.parametrize("n", [3, 4])
    def test_independent_ode_oracle(self, n):
        # integrate vfield(., m) itself with scipy's DOP853, independently of
        # the unit-rate integration and its time change
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        rng = np.random.default_rng(103 + n)
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        B = B / np.linalg.det(B) ** (1 / n)
        for m in (1, 2, 3):
            traj = integrate_flow(B, FlowConfig(m=m))
            grid = np.linspace(0.0, 0.99 * traj.times()[-1], 12)
            sol = solve_ivp(lambda t, y: vfield(y.reshape(n, n), m).ravel(),
                            (0.0, grid[-1]), B.ravel(), method="DOP853", t_eval=grid,
                            rtol=1e-12, atol=1e-13)
            assert sol.success
            for t, y in zip(grid, sol.y.T):
                dev = np.linalg.norm(traj.at(t) - y.reshape(n, n))
                assert dev < 1e-6, (n, m, t, dev)

    @pytest.mark.parametrize("m", [1, 2])
    def test_independent_ode_oracle_double_smallest_singular_value(self, m):
        # the rotated diag(2, 2, 1/2, 1/2) start is integrated in its 2-time;
        # DOP853 integrates vfield(., m) in the time of m
        solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp
        _, B, k, _ = DEGENERATE[3]
        traj = integrate_flow(B, FlowConfig(m=m))
        assert traj.time_exponent == k == 2
        grid = np.linspace(0.0, 0.99 * traj.times()[-1], 12)
        sol = solve_ivp(lambda t, y: vfield(y.reshape(4, 4), m).ravel(),
                        (0.0, grid[-1]), B.ravel(), method="DOP853", t_eval=grid,
                        rtol=1e-12, atol=1e-13)
        assert sol.success
        for t, y in zip(grid, sol.y.T):
            dev = np.linalg.norm(traj.at(t) - y.reshape(4, 4))
            assert dev < 1e-6, (m, t, dev)

    def test_max_steps_budget(self, monkeypatch):
        monkeypatch.setattr(flow, "MAX_STEPS", 3)
        with pytest.raises(FlowBudgetExceeded, match="MAX_STEPS = 3"):
            integrate_flow(np.diag([2.0, 0.5]))

    def test_rejects_nonpositive_or_complex_determinant(self):
        with pytest.raises(InvariantViolation):
            integrate_flow(np.diag([1.0, -1.0]))
        with pytest.raises(InvariantViolation):
            integrate_flow(np.diag([1j, 1.0]))

    def test_traceless_momentum_of_start_matches_terminal(self):
        B = np.diag([2.0, 0.5])
        traj = integrate_flow(B)
        mu0 = traceless(B.conj().T @ B)
        mu1 = traceless(traj.terminal.conj().T @ traj.terminal)
        assert np.linalg.norm(mu0 - mu1) < 1e-6


def test_import_loads_no_scipy():
    # scipy's import time and memory would land on every CLI call
    src = os.path.dirname(os.path.dirname(os.path.abspath(mflow.__file__)))
    code = ("import sys, mflow; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
