import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflow import branching, contraction, gelfand_tsetlin, matrices
from mflow.errors import InvariantViolation, PrincipalStratumViolation
from mflow.gelfand_tsetlin import (
    GTPattern,
    OrbitFunction,
    enumerate_gt,
    gt_pattern,
    iter_gt_patterns,
    poisson_bracket,
    random_orbit_point,
    validate_interlacing,
    weyl_dim,
)


def brute_force_gt_count(top):
    """Independent oracle: filter the full integer box by interlacing."""
    top = tuple(top)
    n = len(top)
    lo, hi = min(top), max(top)
    rows_by_len = {n: [top]}
    for length in range(n - 1, 0, -1):
        rows_by_len[length] = [
            r for r in product(range(lo, hi + 1), repeat=length)
            if all(r[i] >= r[i + 1] for i in range(length - 1))
        ]
    count = 0
    for combo in product(*(rows_by_len[j] for j in range(n - 1, 0, -1))):
        rows = [top] + list(combo)
        ok = True
        for a, b in zip(rows, rows[1:]):
            if not all(a[i] >= b[i] >= a[i + 1] for i in range(len(b))):
                ok = False
                break
        if ok:
            count += 1
    return count


def random_hermitian(n, rng):
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (Z + Z.conj().T)


class TestGtPattern:
    def test_diagonal(self):
        p = gt_pattern(np.diag([3.0, 2.0, 1.0]))
        assert p.rows == ((3.0, 2.0, 1.0), (3.0, 2.0), (3.0,))

    def test_offdiagonal_2x2(self):
        p = gt_pattern(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(p.rows[0], (1.0, -1.0))
        assert np.allclose(p.rows[1], (0.0,))

    def test_random_patterns_interlace(self):
        rng = np.random.default_rng(137)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            A = random_hermitian(n, rng)
            tol = 1e-8 * (1.0 + np.max(np.abs(np.linalg.eigvalsh(A))))
            assert validate_interlacing(gt_pattern(A), tol) == []

    def test_non_finite_spectrum_refused(self):
        A = random_hermitian(12, np.random.default_rng(5))
        with pytest.raises(InvariantViolation):
            gt_pattern(A / np.max(np.abs(A)) * 1.5e308)

    def test_huge_entries_with_finite_spectrum(self):
        p = gt_pattern(np.diag([1.5e308, 0.0, -1.5e308]))
        assert np.allclose(p.rows[0], (1.5e308, 0.0, -1.5e308), rtol=1e-15, atol=0.0)
        assert validate_interlacing(p, 1e-15 * 1.5e308) == []

    def test_zero_and_empty(self):
        assert gt_pattern(np.zeros((3, 3))).rows == ((0.0, 0.0, 0.0), (0.0, 0.0), (0.0,))
        assert gt_pattern(np.zeros((0, 0))).rows == ()

    def test_vertex_pattern_at_diagonal_matrix(self):
        lam = (4.0, 2.0, 1.0, -3.0)
        p = gt_pattern(np.diag(lam))
        for j in range(1, 5):
            assert p.rows[p.n - j] == lam[:j]


def pattern_by_block(A):
    """Reference for gt_pattern: one eigvalsh call per leading block."""
    M = np.asarray(A, dtype=complex)
    return [np.linalg.eigvalsh(M[:j, :j])[::-1] for j in range(M.shape[0], 0, -1)]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       levels=st.lists(st.integers(-3, 3), min_size=1, max_size=3) | st.none(),
       exponent=st.integers(-300, 306))
def test_gt_pattern_matches_per_block_eigvalsh(n, seed, levels, exponent):
    """Batched leading-block spectra against the per-block loop, over sizes
    on both sides of the batch limit, degenerate spectra (a few repeated
    levels) and scales from 1e-300 to 1e306. The bound is relative to
    max|A| alone, so tiny matrices keep their relative accuracy too."""
    rng = np.random.default_rng(seed)
    if levels is None:
        lam = rng.uniform(-3.0, 3.0, size=n)
    else:
        lam = np.array([levels[k % len(levels)] for k in range(n)], dtype=float)
    U = matrices.haar_unitary(n, rng)
    A = (U * lam) @ U.conj().T
    A = 10.0 ** exponent * (0.5 * (A + A.conj().T))
    P = gt_pattern(A)
    ref = pattern_by_block(A)
    assert [len(r) for r in P.rows] == [len(r) for r in ref]
    dev = max(float(np.max(np.abs(np.array(r) - e))) for r, e in zip(P.rows, ref))
    assert dev <= 1e-14 * float(np.max(np.abs(A)))


@pytest.fixture
def hermitian_checks(monkeypatch):
    """Counts check_hermitian calls made through any module that uses it."""
    calls = []
    real = matrices.check_hermitian

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (matrices, gelfand_tsetlin, contraction):
        monkeypatch.setattr(module, "check_hermitian", counted)
    return calls


@pytest.mark.parametrize("entry", [
    lambda A: gt_pattern(A),
    lambda A: poisson_bracket(OrbitFunction.gt_entry(1, 2), OrbitFunction.gt_entry(2, 3), A),
    lambda A: contraction.star_action(A, 2, [0.3, -0.4]),
    lambda A: matrices.eig_hermitian(A),
    lambda A: matrices.section_sqrt(A @ A),
], ids=["gt_pattern", "poisson_bracket", "star_action", "eig_hermitian", "section_sqrt"])
def test_entry_point_validates_once(entry, hermitian_checks):
    entry(random_orbit_point([3.0, 1.0, -1.0, -2.0], seed=7))
    assert len(hermitian_checks) == 1


class TestValidateInterlacing:
    def test_valid_pattern(self):
        assert validate_interlacing(GTPattern(((3, 2), (2,)))) == []

    def test_top_violation(self):
        out = validate_interlacing(GTPattern(((3, 2), (4,))))
        assert out == [(1, 2, 1.0)]

    def test_lower_violation(self):
        out = validate_interlacing(GTPattern(((3, 2), (1,))))
        assert out == [(2, 2, 1.0)]

    def test_row_length_validation(self):
        with pytest.raises(InvariantViolation):
            GTPattern(((3, 2, 1), (2,)))


class TestEnumerate:
    def test_zero_weight(self):
        assert enumerate_gt((0, 0, 0)) == 1

    def test_standard_rep(self):
        assert enumerate_gt((1, 0, 0)) == 3

    def test_adjoint_like(self):
        assert enumerate_gt((2, 1, 0)) == 8

    def test_against_brute_force(self):
        for lam in [(1, 0), (2, 0), (3, 1), (2, 1, 0), (3, 1, 0), (2, 2, 1),
                    (2, 1, 1, 0), (3, 2, 1, 0)]:
            assert enumerate_gt(lam) == brute_force_gt_count(lam)

    def test_stream_matches_count_and_is_sorted(self):
        lam = (2, 1, 0)
        pats = list(iter_gt_patterns(lam))
        assert len(pats) == enumerate_gt(lam) == 8
        flat = [sum((p.rows[i] for i in range(1, p.n)), ()) for p in pats]
        assert flat == sorted(flat)
        for p in pats:
            assert p.top() == lam
            assert validate_interlacing(p) == []

    def test_translation_invariance(self):
        assert enumerate_gt((7, 6, 5)) == enumerate_gt((2, 1, 0))
        assert enumerate_gt((0, -1, -2)) == enumerate_gt((2, 1, 0))

    def test_rejects_unsorted(self):
        with pytest.raises(InvariantViolation):
            enumerate_gt((1, 2))

    def test_spread_bounded_by_max_weight(self):
        top = branching.MAX_WEIGHT
        assert enumerate_gt((top + 5, 5)) == top + 1
        with pytest.raises(InvariantViolation):
            enumerate_gt((top + 6, 5))
        with pytest.raises(InvariantViolation):
            enumerate_gt((0, 0, -top - 1))

    def test_length_and_count_bounded(self, monkeypatch):
        t0 = time.perf_counter()
        with pytest.raises(InvariantViolation):
            enumerate_gt(tuple(range(24, -1, -1)))      # 2^300 patterns
        with pytest.raises(InvariantViolation):
            enumerate_gt((0,) * (gelfand_tsetlin.MAX_GT_LENGTH + 1))
        assert time.perf_counter() - t0 < 1.0
        assert enumerate_gt((0,) * gelfand_tsetlin.MAX_GT_LENGTH) == 1
        monkeypatch.setattr(gelfand_tsetlin, "MAX_GT_COUNT", 8)
        assert enumerate_gt((2, 1, 0)) == 8
        with pytest.raises(InvariantViolation):
            enumerate_gt((3, 1, 0))

    def test_count_cache_is_bounded(self):
        assert gelfand_tsetlin._count_below.cache_info().maxsize is not None


class TestWeylDim:
    def test_hand_values(self):
        assert weyl_dim((0, 0)) == 1
        # (1,0,0): prod over pairs = (1+1)/1 * (1+2)/2 * (0+1)/1 = 3
        assert weyl_dim((1, 0, 0)) == 3
        # (2,1,0): (1+1)/1 * (2+2)/2 * (1+1)/1 = 8
        assert weyl_dim((2, 1, 0)) == 8

    def test_matches_enumeration(self):
        rng = np.random.default_rng(139)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            lam = tuple(sorted(rng.integers(0, 6, size=n).tolist(), reverse=True))
            assert enumerate_gt(lam) == weyl_dim(lam)


class LinearPairing:
    """The observable A -> Re tr(A H) for a fixed Hermitian H, whose gradient
    is H: a control for poisson_bracket, which reads only _gradient."""

    def __init__(self, H):
        self.H = H

    def _gradient(self, M):
        return self.H


def gt_entry_value(A, i, j):
    """x_{i,j}(A): the i-th descending eigenvalue of the leading j x j block."""
    return float(np.linalg.eigvalsh(A[:j, :j])[::-1][i - 1])


@pytest.fixture
def gt_eigh_calls(monkeypatch):
    """Counts the eigen-solves of gelfand_tsetlin (the leading blocks each
    OrbitFunction diagonalizes)."""
    calls = []
    real = gelfand_tsetlin._eigh

    def counted(M):
        calls.append(M.shape)
        return real(M)

    monkeypatch.setattr(gelfand_tsetlin, "_eigh", counted)
    return calls


def gt_entries(n):
    """The n(n-1)/2 pattern entries x_{i,j}, j < n, as observables."""
    return [OrbitFunction.gt_entry(i, j) for j in range(1, n) for i in range(1, j + 1)]


def random_unit_hermitian(n, rng):
    H = random_hermitian(n, rng)
    return H / np.linalg.norm(H)


class TestPoissonBracket:
    def test_self_bracket_zero(self):
        A = random_orbit_point([3.0, 1.0, -1.0], seed=1)
        f = OrbitFunction.gt_entry(1, 2)
        assert poisson_bracket(f, f, A) == 0.0

    def test_antisymmetry_exact(self):
        A = random_orbit_point([3.0, 1.0, -1.0], seed=2)
        f = OrbitFunction.gt_entry(1, 2)
        g = OrbitFunction.gt_entry(2, 2)
        assert poisson_bracket(f, g, A) == -poisson_bracket(g, f, A)

    def test_gt_entries_commute(self):
        rng = np.random.default_rng(149)
        fs = [OrbitFunction.gt_entry(i, j) for j in (1, 2) for i in range(1, j + 1)]
        for seed in range(5):
            A = random_orbit_point(np.sort(rng.uniform(-2, 2, 3))[::-1], seed=seed)
            for a in fs:
                for b in fs:
                    assert abs(poisson_bracket(a, b, A)) < 1e-8

    def test_bracket_not_identically_zero(self):
        # control pair: two non-commuting linear observables
        A = random_orbit_point([2.0, 0.5, -1.0], seed=3)
        H1 = np.zeros((3, 3), dtype=complex)
        H1[0, 1] = H1[1, 0] = 1.0
        H2 = np.zeros((3, 3), dtype=complex)
        H2[0, 1] = 1j
        H2[1, 0] = -1j
        b = poisson_bracket(LinearPairing(H1), LinearPairing(H2), A)
        assert abs(b) > 1e-6

    def test_eigenvalue_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(151)
        A = random_orbit_point([2.0, 0.7, -1.3], seed=5)
        G = OrbitFunction.gt_entry(1, 2).gradient(A)
        for _ in range(4):
            H = random_hermitian(3, rng)
            eps = 1e-6
            fd = (gt_entry_value(A + eps * H, 1, 2) - gt_entry_value(A - eps * H, 1, 2)) / (2 * eps)
            assert abs(fd - np.trace(G @ H).real) < 1e-5

    def test_degenerate_eigenvalue_rejected(self):
        A = np.diag([2.0, 2.0, 1.0])
        with pytest.raises(PrincipalStratumViolation):
            OrbitFunction.gt_entry(1, 2).gradient(A)

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_sweep_solves_each_eigenproblem_once(self, n, gt_eigh_calls):
        lam = np.linspace(2.0, -2.0, n)
        A = random_orbit_point(lam, seed=n)
        fs = gt_entries(n)
        sweep = [poisson_bracket(f, g, A) for f, g in product(fs, repeat=2)]
        assert len(gt_eigh_calls) == len(fs) == n * (n - 1) // 2
        # the memo changes no bit: fresh observables solve every bracket anew
        fresh = [poisson_bracket(OrbitFunction(f.i, f.j), OrbitFunction(g.i, g.j), A)
                 for f, g in product(fs, repeat=2)]
        assert sweep == fresh
        assert max(map(abs, sweep)) < 1e-8

    def test_in_place_change_is_a_new_point(self, gt_eigh_calls):
        A = random_orbit_point([2.0, 0.5, -0.5, -2.0], seed=17)
        B = random_orbit_point([1.5, 1.0, -0.3, -1.2], seed=18)
        f, g = OrbitFunction.gt_entry(1, 2), OrbitFunction.gt_entry(2, 3)
        before = poisson_bracket(f, g, A)
        A[:] = B                                    # the caller's array, changed in place
        after = poisson_bracket(f, g, A)
        assert len(gt_eigh_calls) == 4
        assert after == poisson_bracket(OrbitFunction(1, 2), OrbitFunction(2, 3), B)
        assert after != before
        A[0, 1] += 0.25                             # one entry of the leading 2 x 2 block
        A[1, 0] += 0.25
        assert poisson_bracket(f, g, A) == poisson_bracket(
            OrbitFunction(1, 2), OrbitFunction(2, 3), A.copy())

    def test_returned_gradient_is_the_callers(self, gt_eigh_calls):
        A = random_orbit_point([2.0, 0.5, -1.0], seed=19)
        f, g = OrbitFunction.gt_entry(1, 2), OrbitFunction.gt_entry(1, 1)
        G = f.gradient(A)
        before = poisson_bracket(f, g, A)
        G[:] = 7.0                                  # writable, and not the memo
        assert poisson_bracket(f, g, A) == before
        assert np.array_equal(f.gradient(A), OrbitFunction(1, 2).gradient(A))
        assert len(gt_eigh_calls) == 3              # f, g, then the fresh (1, 2)

    def test_bracket_matches_commutator_formula(self):
        rng = np.random.default_rng(157)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            A = 10.0 ** rng.uniform(-3, 3) * random_hermitian(n, rng)
            H1, H2 = random_unit_hermitian(n, rng), random_unit_hermitian(n, rng)
            ref = float(np.trace(A @ (1j * (H1 @ H2 - H2 @ H1))).real)
            b = poisson_bracket(LinearPairing(H1), LinearPairing(H2), A)
            assert abs(b - ref) <= 1e-14 * np.linalg.norm(A)


class TestRandomOrbitPoint:
    def test_spectrum_and_determinism(self):
        lam = np.array([2.5, 1.0, -0.5, -3.0])
        A = random_orbit_point(lam, seed=11)
        B = random_orbit_point(lam, seed=11)
        assert A.tobytes() == B.tobytes()
        assert np.max(np.abs(np.linalg.eigvalsh(A)[::-1] - lam)) < 1e-10

    def test_top_row_is_spectrum(self):
        lam = np.array([2.0, 1.0, 0.0])
        p = gt_pattern(random_orbit_point(lam, seed=13))
        assert np.allclose(p.top(), lam, atol=1e-10)

    def test_different_seeds_differ(self):
        lam = [1.0, 0.0]
        assert not np.allclose(random_orbit_point(lam, 1), random_orbit_point(lam, 2))

    @pytest.mark.parametrize("lam", [[1.0, np.nan], [np.inf, 0.0], [1.0, -np.inf]])
    def test_non_finite_spectrum_refused(self, lam):
        with pytest.raises(InvariantViolation, match="finite"):
            random_orbit_point(lam, seed=1)

    def test_spectrum_near_the_float64_limit(self):
        # A + A* would overflow here; 0.5 A + 0.5 A* does not
        lam = [1.7e308, -1.7e308, 0.0]
        A = random_orbit_point(lam, seed=1)
        assert np.isfinite(A).all()
        assert np.array_equal(A, A.conj().T)
        assert np.allclose(gt_pattern(A).top(), sorted(lam, reverse=True), rtol=0.0,
                           atol=1e-12 * 1.7e308)

    @pytest.mark.parametrize("seed", [1.5, float("nan"), float("inf"), "a", None, -1, -2.0])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(InvariantViolation, match="seed"):
            random_orbit_point([1.0, 0.0], seed)

    @pytest.mark.parametrize("seed", [2.0, np.int64(2), np.float64(2.0)],
                             ids=["float", "int64", "float64"])
    def test_integral_seed_reads_as_its_int(self, seed):
        lam = [2.0, 0.5, -1.0]
        assert random_orbit_point(lam, seed).tobytes() == random_orbit_point(lam, 2).tobytes()

    def test_overflowing_point_refused(self):
        # rounding lifts a diagonal entry of U diag(max) U* past the limit
        lam = [np.finfo(float).max] * 3
        with pytest.raises(InvariantViolation, match="overflows"):
            random_orbit_point(lam, seed=2)
