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
            assert p.row(j) == lam[:j]


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
        b = poisson_bracket(OrbitFunction.linear(H1), OrbitFunction.linear(H2), A)
        assert abs(b) > 1e-6

    def test_eigenvalue_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(151)
        A = random_orbit_point([2.0, 0.7, -1.3], seed=5)
        f = OrbitFunction.gt_entry(1, 2)
        G = f.gradient(A)
        for _ in range(4):
            H = random_hermitian(3, rng)
            eps = 1e-6
            fd = (f.value(A + eps * H) - f.value(A - eps * H)) / (2 * eps)
            assert abs(fd - np.trace(G @ H).real) < 1e-5

    def test_degenerate_eigenvalue_rejected(self):
        A = np.diag([2.0, 2.0, 1.0])
        with pytest.raises(PrincipalStratumViolation):
            OrbitFunction.gt_entry(1, 2).gradient(A)


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
