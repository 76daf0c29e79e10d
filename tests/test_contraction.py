import warnings

import numpy as np
import pytest

from mflow import contraction
from mflow.contraction import (
    ContractedPoint,
    CotangentPoint,
    contract_closed_form,
    contract_point,
    contracted_equal,
    flow_closed_form,
    same_fiber,
    star_action,
)
from mflow.errors import InvariantViolation, PrincipalStratumViolation
from mflow.flow import integrate_flow, vfield
from mflow.gelfand_tsetlin import gt_pattern
from mflow.matrices import (
    _eigh,
    eigenvalue_blocks,
    haar_special_unitary,
    haar_unitary,
    traceless,
)


def random_sl(n, rng):
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return B / np.linalg.det(B) ** (1.0 / n)


def block_special_unitary(partition, rng):
    """Random element of the product of per-block SU groups, in the w-basis."""
    n = partition[-1][1]
    u = np.zeros((n, n), dtype=complex)
    for lo, hi in partition:
        u[lo:hi, lo:hi] = haar_special_unitary(hi - lo, rng)
    return u


class TestClosedForm:
    def test_identity_collapses_to_zero(self):
        assert np.allclose(contract_closed_form(np.eye(3)), 0.0)

    def test_sl2_diagonal_display(self):
        out = contract_closed_form(np.diag([2.0, 0.5]))
        assert np.allclose(out, np.diag([np.sqrt(3.75), 0.0]), atol=1e-12)

    def test_result_singular(self):
        rng = np.random.default_rng(71)
        B = random_sl(4, rng)
        out = contract_closed_form(B)
        assert abs(np.linalg.det(out)) < 1e-9 * np.linalg.norm(B) ** 4

    def test_matches_flow_oracle(self):
        rng = np.random.default_rng(73)
        for _ in range(3):
            B = random_sl(3, rng)
            traj = integrate_flow(B)
            closed = contract_closed_form(B)
            assert np.linalg.norm(closed - traj.terminal) < 1e-5 * np.linalg.norm(B)

    def test_flow_closed_form_solves_the_flow(self):
        # the exact curve starts at B, keeps the traceless momentum, obeys
        # the unit-rate law det B(s) = d0 - s, has the m = 1 field as its
        # velocity (central differences) and ends at the closed form
        rng = np.random.default_rng(83)
        starts = [random_sl(3, rng), random_sl(4, rng), np.eye(3),
                  np.diag([2.0, 2.0, 0.5, 0.5]), np.diag([1.0, 1.0, 1.0, 1.0 + 1e-9])]
        for B in starts:
            d0 = float(np.linalg.det(B).real)
            mu = traceless(B.conj().T @ B)
            assert np.linalg.norm(flow_closed_form(B, 0.0) - B) < 1e-13 * np.linalg.norm(B)
            for s in (0.3 * d0, 0.9 * d0, (1.0 - 1e-6) * d0):
                Bs = flow_closed_form(B, s)
                assert abs(np.linalg.det(Bs) - (d0 - s)) < 1e-12 * d0
                drift = np.max(np.abs(traceless(Bs.conj().T @ Bs) - mu))
                assert drift < 1e-12 * np.linalg.norm(B) ** 2
                hi, lo = s + 1e-4 * (d0 - s), s - 1e-4 * (d0 - s)
                slope = (flow_closed_form(B, hi) - flow_closed_form(B, lo)) / (hi - lo)
                V = vfield(Bs, m=1)
                # truncation error plus the rounding of B over the difference
                bound = 1e-6 * np.linalg.norm(V) + 1e-15 * np.linalg.norm(B) / (hi - lo)
                assert np.linalg.norm(slope - V) < bound
            assert np.array_equal(flow_closed_form(B, d0), contract_closed_form(B))
            assert np.array_equal(flow_closed_form(B, 2.0 * d0), contract_closed_form(B))

    def test_flow_closed_form_next_to_the_singular_fiber(self):
        # 0.2756235005058527 squares one unit lower as an array entry than
        # as a scalar; sigma_min^2 - sigma_min^2 must still be exactly 0, or
        # sqrt(g + x) turns NaN once x is below that unit
        B = np.diag([2.0, 1.5, 0.2756235005058527])
        d0 = float(np.prod(np.linalg.svd(B, compute_uv=False)))
        for gap in (1e-12, 1e-15):
            s = d0 * (1.0 - gap)
            C = flow_closed_form(B, s)
            assert np.all(np.isfinite(C))
            assert abs(np.linalg.det(C).real / (d0 - s) - 1.0) < 1e-12

    def test_scalar_square_rounding_low_still_singular(self):
        # 0.7695013549035957 ** 2 as a numpy scalar is one unit below its
        # square as an array entry; the shift must still be an exact 0
        out = contract_closed_form(np.diag([2.0, 1.0, 0.7695013549035957]))
        assert out[2, 2] == 0.0
        assert np.linalg.det(out) == 0.0

    def test_shift_from_one_array_of_squares(self):
        # where the scalar and array squares of sigma_min differ, the result
        # is singular to rounding; elsewhere it is bit-equal to the formula
        # sqrt(max(sigma^2 - sigma_min ** 2, 0)) it replaced
        rng = np.random.default_rng(1)
        differ = same = 0
        for k in range(20000):
            n = 2 + k % 4
            B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            W, s, Vh = np.linalg.svd(B)
            if s[-1] ** 2 != s[-1] * s[-1]:
                differ += 1
                smin = np.linalg.svd(contract_closed_form(B), compute_uv=False)[-1]
                assert smin <= 1e-15 * np.linalg.norm(B)
            elif same < 2000:
                same += 1
                old = (W * np.sqrt(np.maximum(s * s - s[-1] ** 2, 0.0))) @ Vh
                assert contract_closed_form(B).tobytes() == old.tobytes()
        assert differ > 0 and same == 2000

    def test_overflowing_square_refused(self):
        # finite entries and det 1, but sigma_max^2 = 1e400
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match="sigma_max\\^2 overflows"):
                contract_closed_form(np.diag([1e200, 1e-200, 1.0]))
            with pytest.raises(InvariantViolation, match="sigma_max\\^2 overflows"):
                flow_closed_form(np.diag([1e200, 1e-200]), 0.5)
        big = np.diag([1e154, 1e-154])      # sigma_max^2 = 1e308 is finite
        assert np.array_equal(contract_closed_form(big), np.diag([1e154, 0.0]))

    def test_flow_closed_form_refuses_what_has_no_flow(self):
        with pytest.raises(InvariantViolation):
            flow_closed_form(np.diag([1.0, -1.0]), 0.5)
        with pytest.raises(InvariantViolation):
            flow_closed_form(np.eye(2), float("nan"))
        with pytest.raises(InvariantViolation) as err:
            flow_closed_form(np.eye(2), np.float64("nan"))
        assert str(err.value) == "flow time must be finite, got nan"

    def test_momentum_preserved(self):
        rng = np.random.default_rng(79)
        B = random_sl(3, rng)
        out = contract_closed_form(B)
        mu_in = traceless(B.conj().T @ B)
        mu_out = traceless(out.conj().T @ out)
        assert np.linalg.norm(mu_in - mu_out) < 1e-9 * np.linalg.norm(B) ** 2

    def test_equivariance(self):
        rng = np.random.default_rng(83)
        B = random_sl(3, rng)
        k1 = haar_unitary(3, rng)
        k2 = haar_unitary(3, rng)
        lhs = contract_closed_form(k1 @ B @ k2)
        rhs = k1 @ contract_closed_form(B) @ k2
        assert np.linalg.norm(lhs - rhs) < 1e-9


class TestContractPoint:
    def test_diagonal_sorted_momentum(self):
        cp = contract_point(CotangentPoint(np.eye(2), np.diag([3.0, 1.0])))
        assert np.allclose(cp.w, [3.0, 1.0])
        assert np.allclose(cp.g, np.eye(2))
        assert eigenvalue_blocks(cp.w) == [(0, 1), (1, 2)]

    def test_offdiagonal_momentum(self):
        v = np.array([[0.0, 1.0], [1.0, 0.0]])
        cp = contract_point(CotangentPoint(np.eye(2), v))
        assert np.allclose(cp.w, [1.0, -1.0])
        # g = k h* must diagonalize: g* v g... h v h* = diag(w) with h = g*.
        assert np.allclose(cp.g.conj().T @ v @ cp.g, np.diag(cp.w), atol=1e-12)

    def test_stabilizer_commutator_same_fiber(self):
        rng = np.random.default_rng(89)
        h0 = haar_unitary(4, rng)
        w = np.array([3.0, 3.0, 1.0, 0.0])
        v = h0.conj().T @ np.diag(w) @ h0
        v = 0.5 * (v + v.conj().T)
        k = haar_unitary(4, rng)
        u = h0.conj().T @ block_special_unitary([(0, 2), (2, 3), (3, 4)], rng) @ h0
        x = CotangentPoint(k, v)
        y = CotangentPoint(k @ u, v)
        assert same_fiber(x, y, 1e-9)


@pytest.fixture
def contraction_eigh_calls(monkeypatch):
    """Records the matrices contraction diagonalizes."""
    calls = []
    real = contraction._eigh

    def counted(M):
        calls.append(M)
        return real(M)

    monkeypatch.setattr(contraction, "_eigh", counted)
    return calls


class TestPointSpectrum:
    def test_fiber_test_and_normal_form_share_one_solve(self, contraction_eigh_calls):
        rng = np.random.default_rng(163)
        h0 = haar_unitary(4, rng)
        v = h0.conj().T @ np.diag([2.0, 2.0, -1.0, 0.5]) @ h0
        x = CotangentPoint(haar_unitary(4, rng), 0.5 * (v + v.conj().T))
        y = CotangentPoint(x.k @ h0.conj().T @ block_special_unitary(
            [(0, 2), (2, 3), (3, 4)], rng) @ h0, x.v)
        assert same_fiber(x, y, 1e-9)
        cp = contract_point(x)
        assert len(contraction_eigh_calls) == 1
        assert contraction_eigh_calls[0] is x.v
        w, U = _eigh(x.v)
        assert np.array_equal(cp.w, w)
        assert np.array_equal(cp.g, x.k @ U)

    def test_normal_form_owns_its_spectrum(self):
        x = CotangentPoint(np.eye(3), np.diag([3.0, 2.0, 1.0]))
        cp = contract_point(x)
        cp.w[0] = 9.0                               # the caller's copy
        assert contract_point(x).w.tolist() == [3.0, 2.0, 1.0]
        for M in x._spectrum:
            assert not M.flags.writeable

    def test_unequal_momenta_solve_nothing(self, contraction_eigh_calls):
        x = CotangentPoint(np.eye(2), np.diag([2.0, 1.0]))
        assert not same_fiber(x, CotangentPoint(np.eye(2), np.diag([2.0, 1.5])), 1e-9)
        assert contraction_eigh_calls == []


class TestSameFiber:
    def test_reflexive(self):
        rng = np.random.default_rng(97)
        x = CotangentPoint(haar_unitary(3, rng), np.diag([2.0, 1.0, 0.0]))
        assert same_fiber(x, x, 1e-12)

    def test_regular_momentum_forces_equality(self):
        rng = np.random.default_rng(101)
        v = np.diag([3.0, 2.0, 1.0])
        k = haar_unitary(3, rng)
        x = CotangentPoint(k, v)
        phase = np.diag(np.exp(1j * np.array([0.3, -0.3, 0.0])))
        y = CotangentPoint(k @ phase, v)  # stabilizer torus, not its commutator
        assert not same_fiber(x, y, 1e-9)
        z = CotangentPoint(k, v + 1e-3 * np.eye(3))
        assert not same_fiber(x, z, 1e-9)

    def test_zero_momentum_det_criterion(self):
        rng = np.random.default_rng(103)
        k = haar_unitary(3, rng)
        u_su = haar_special_unitary(3, rng)
        x = CotangentPoint(k, np.zeros((3, 3)))
        assert same_fiber(x, CotangentPoint(k @ u_su, np.zeros((3, 3))), 1e-9)
        u_bad = u_su * np.exp(1j * 0.5 / 3.0)  # det = e^{i/2} != 1
        assert not same_fiber(x, CotangentPoint(k @ u_bad, np.zeros((3, 3))), 1e-6)

    def test_symmetry_and_transitivity_on_fiber_samples(self):
        rng = np.random.default_rng(107)
        h0 = haar_unitary(3, rng)
        w = np.array([2.0, 2.0, -1.0])
        v = h0.conj().T @ np.diag(w) @ h0
        v = 0.5 * (v + v.conj().T)
        k = haar_unitary(3, rng)
        pts = [CotangentPoint(k, v)]
        for _ in range(3):
            u = h0.conj().T @ block_special_unitary([(0, 2), (2, 3)], rng) @ h0
            pts.append(CotangentPoint(k @ u, v))
        for a in pts:
            for b in pts:
                assert same_fiber(a, b, 1e-9) == same_fiber(b, a, 1e-9)
                assert same_fiber(a, b, 1e-9)

    def test_normal_form_consistency(self):
        rng = np.random.default_rng(109)
        h0 = haar_unitary(4, rng)
        w = np.array([2.0, 2.0, 1.0, 1.0])
        v = h0.conj().T @ np.diag(w) @ h0
        v = 0.5 * (v + v.conj().T)
        k = haar_unitary(4, rng)
        u_in = h0.conj().T @ block_special_unitary([(0, 2), (2, 4)], rng) @ h0
        phase = h0.conj().T @ np.diag([np.exp(0.4j), 1, 1, 1]) @ h0
        cases = [
            (CotangentPoint(k @ u_in, v), True),
            (CotangentPoint(k @ u_in @ phase, v), False),
            (CotangentPoint(haar_unitary(4, rng), v), False),
        ]
        x = CotangentPoint(k, v)
        nx = contract_point(x)
        for y, expected in cases:
            assert same_fiber(x, y, 1e-9) == expected
            assert contracted_equal(nx, contract_point(y), 1e-9) == expected


class TestStarAction:
    def test_diagonal_fixed(self):
        A = np.diag([3.0, 2.0, 1.0])
        out = star_action(A, 2, [0.7, -1.1])
        assert np.allclose(out, A, atol=1e-12)

    def test_full_turn_is_identity(self):
        rng = np.random.default_rng(113)
        Z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A = 0.5 * (Z + Z.conj().T)
        out = star_action(A, 2, [2 * np.pi, 2 * np.pi])
        assert np.allclose(out, A, atol=1e-12)

    def test_spectrum_and_gt_pattern_preserved(self):
        rng = np.random.default_rng(127)
        Z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        A = 0.5 * (Z + Z.conj().T)
        out = star_action(A, 2, [0.9, 0.3])
        assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(A), atol=1e-12)
        p0, p1 = gt_pattern(A), gt_pattern(out)
        for r0, r1 in zip(p0.rows, p1.rows):
            assert np.allclose(r0, r1, atol=1e-8)

    def test_torus_additivity(self):
        rng = np.random.default_rng(131)
        Z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        A = 0.5 * (Z + Z.conj().T)
        t1, t2 = np.array([0.4, -0.8, 0.1]), np.array([1.3, 0.2, -0.5])
        a = star_action(star_action(A, 3, t1), 3, t2)
        b = star_action(A, 3, t1 + t2)
        assert np.max(np.abs(a - b)) < 1e-7

    def test_degenerate_leading_block_rejected(self):
        A = np.diag([2.0, 2.0, 1.0])
        with pytest.raises(PrincipalStratumViolation):
            star_action(A, 2, [0.1, 0.2])

    @pytest.mark.parametrize("phases", [[np.nan], [np.inf], [-np.inf]])
    def test_non_finite_phases_refused(self, phases):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])
        with pytest.raises(InvariantViolation, match="finite"):
            star_action(A, 1, phases)


class TestTypes:
    def test_cotangent_point_stores_read_only_copies(self):
        k = np.eye(2, dtype=complex)
        v = np.diag([2.0, 1.0]).astype(complex)
        x = CotangentPoint(k, v)
        v[0, 1] = 5.0                   # the caller's array, not the point's
        assert x.v[0, 1] == 0.0
        for M in (x.k, x.v):
            assert not M.flags.writeable
            with pytest.raises(ValueError):
                M[0, 0] = 3.0

    def test_contracted_point_json_fields(self):
        cp = contract_point(CotangentPoint(np.eye(2), np.diag([2.0, 1.0])))
        assert isinstance(cp, ContractedPoint)
