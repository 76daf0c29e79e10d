import warnings

import numpy as np
import pytest

from mflow.errors import InvariantViolation, ParseError, TriangleInfeasible, UndefinedBendAxis
from mflow.polygons import (
    PolygonConfig,
    Triangulation,
    bend,
    build_polygon,
    caterpillar_triangulation,
    diagonal_lengths,
    measure_caterpillar,
)
from mflow.serialize import polygon_from_json


def random_closed_polygon(n, rng):
    E = rng.standard_normal((n - 1, 3))
    E = np.vstack([E, -E.sum(axis=0)])
    return PolygonConfig(E)


class TestBuildPolygon:
    def test_unit_square(self):
        P = build_polygon((1, 1, 1, 1), (np.sqrt(2),), (0.0,))
        expected = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
        assert np.max(np.abs(P.edges - expected)) < 1e-12
        assert np.linalg.norm(P.edges.sum(axis=0)) < 1e-12

    def test_triangle(self):
        P = build_polygon((1, 1, 1), (), ())
        assert np.allclose(P.side_lengths(), 1.0, atol=1e-12)
        assert np.linalg.norm(P.edges.sum(axis=0)) < 1e-14

    def test_infeasible_names_triple(self):
        with pytest.raises(TriangleInfeasible) as err:
            build_polygon((1, 1, 1, 1), (3.0,), (0.0,))
        assert err.value.triple == (1.0, 1.0, 3.0)
        assert all(type(x) is float for x in err.value.triple)
        assert "np.float64" not in str(err.value)
        assert "(1.0, 1.0, 3.0)" in str(err.value)

    @pytest.mark.parametrize("r, d, angles", [
        ((1, 1, 1, 1), (np.nan,), (0.0,)),
        ((np.nan, 1, 1, 1), (1.0,), (0.0,)),
        ((1, 1, 1, np.inf), (1.0,), (0.0,)),
        ((1, 1, 1, 1), (np.sqrt(2),), (np.inf,)),
    ])
    def test_non_finite_refused(self, r, d, angles):
        with pytest.raises(InvariantViolation, match="finite"):
            build_polygon(r, d, angles)

    def test_prescribed_data_reproduced(self):
        rng = np.random.default_rng(157)
        for n in (4, 5, 6, 8):
            Q = random_closed_polygon(n, rng)
            r, d = measure_caterpillar(Q)
            angles = rng.uniform(-np.pi, np.pi, size=n - 3)
            P = build_polygon(r, d, angles)
            assert np.max(np.abs(P.side_lengths() - r)) < 1e-10
            _, d2 = measure_caterpillar(P)
            assert np.max(np.abs(d2 - d)) < 1e-10

    def test_deterministic(self):
        args = ((1.0, 1.2, 0.8, 1.1, 0.9), (1.5, 1.3), (0.4, -0.7))
        a = build_polygon(*args)
        b = build_polygon(*args)
        assert a.edges.tobytes() == b.edges.tobytes()

    def test_anchoring(self):
        P = build_polygon((1.0, 1.2, 0.8, 1.1, 0.9), (1.5, 1.3), (0.4, -0.7))
        assert np.allclose(P.edges[0], [1.0, 0.0, 0.0], atol=1e-14)
        # first diagonal stays in the xy-plane
        assert abs(P.edges[:2].sum(axis=0)[2]) < 1e-14


class TestDiagonalLengths:
    def test_unit_square_diagonal(self):
        P = build_polygon((1, 1, 1, 1), (np.sqrt(2),), (0.0,))
        T = caterpillar_triangulation(4)
        assert np.allclose(diagonal_lengths(P, T), [np.sqrt(2)], atol=1e-12)

    def test_full_run_is_closure(self):
        rng = np.random.default_rng(163)
        P = random_closed_polygon(6, rng)
        T = Triangulation(6, ((1, 2, 3, 4, 5, 6),))
        assert diagonal_lengths(P, T)[0] < 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(167)
        P = random_closed_polygon(5, rng)
        T = caterpillar_triangulation(5)
        from mflow.polygons import _rodrigues
        R = _rodrigues(np.array([1.0, 2.0, 2.0]) / 3.0, 0.9)
        Q = PolygonConfig(P.edges @ R.T)
        assert np.max(np.abs(diagonal_lengths(P, T) - diagonal_lengths(Q, T))) < 1e-12

    def test_nesting_validation(self):
        with pytest.raises(InvariantViolation):
            Triangulation(6, ((1, 2, 3), (2, 3, 4)))
        with pytest.raises(InvariantViolation):
            Triangulation(6, ((1, 3),))  # not contiguous
        # a duplicate, runs that touch but are disjoint, and a containing run
        for runs in [((2, 3), (2, 3)), ((1, 2), (3, 4)), ((2, 3), (1, 2, 3, 4), (3,))]:
            assert Triangulation(6, runs).diagonals == runs
        with pytest.raises(InvariantViolation, match=r"disjoint: \(4, 5\) vs \(5, 6\)$"):
            Triangulation(6, ((1, 2), (1, 2, 3), (4, 5), (5, 6)))


class TestBend:
    def test_zero_angle_identity(self):
        rng = np.random.default_rng(173)
        P = random_closed_polygon(5, rng)
        Q = bend(P, (1, 2), 0.0)
        assert np.max(np.abs(Q.edges - P.edges)) < 1e-15

    def test_full_turn_identity(self):
        rng = np.random.default_rng(179)
        P = random_closed_polygon(5, rng)
        Q = bend(P, (1, 2), 2 * np.pi)
        assert np.max(np.abs(Q.edges - P.edges)) < 1e-12

    def test_square_bend_preserves_invariants(self):
        P = build_polygon((1, 1, 1, 1), (np.sqrt(2),), (0.0,))
        Q = bend(P, (1, 2), np.pi / 2)
        assert np.max(np.abs(Q.side_lengths() - 1.0)) < 1e-12
        T = caterpillar_triangulation(4)
        assert abs(diagonal_lengths(Q, T)[0] - np.sqrt(2)) < 1e-12
        assert np.max(np.abs(Q.edges - P.edges)) > 0.1  # actually moved

    def test_preserves_all_triangulation_momenta(self):
        rng = np.random.default_rng(181)
        P = random_closed_polygon(7, rng)
        T = caterpillar_triangulation(7)
        base = diagonal_lengths(P, T)
        for run in T.diagonals:
            Q = bend(P, run, rng.uniform(-np.pi, np.pi))
            assert np.max(np.abs(diagonal_lengths(Q, T) - base)) < 1e-9
            assert np.max(np.abs(Q.side_lengths() - P.side_lengths())) < 1e-12

    def test_additivity(self):
        rng = np.random.default_rng(191)
        P = random_closed_polygon(6, rng)
        a = bend(bend(P, (1, 2, 3), 0.7), (1, 2, 3), 0.4)
        b = bend(P, (1, 2, 3), 1.1)
        assert np.max(np.abs(a.edges - b.edges)) < 1e-10

    def test_commutativity_same_triangulation(self):
        rng = np.random.default_rng(193)
        P = random_closed_polygon(6, rng)
        T = caterpillar_triangulation(6)
        d1, d2 = T.diagonals[0], T.diagonals[-1]
        a = bend(bend(P, d1, 0.8), d2, -0.5)
        b = bend(bend(P, d2, -0.5), d1, 0.8)
        assert np.max(np.abs(a.edges - b.edges)) < 1e-9

    @pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
    def test_non_finite_angle_refused(self, theta):
        P = random_closed_polygon(5, np.random.default_rng(3))
        with pytest.raises(InvariantViolation, match="finite"):
            bend(P, [1, 2], theta)

    def test_zero_axis_rejected(self):
        rng = np.random.default_rng(197)
        P = random_closed_polygon(5, rng)
        with pytest.raises(UndefinedBendAxis):
            bend(P, (1, 2, 3, 4, 5), 0.3)  # full run sums to ~0


class TestPolygonConfig:
    def test_closure_enforced(self):
        E = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float)
        with pytest.raises(InvariantViolation):
            PolygonConfig(E)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_edges_refused(self, bad):
        E = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
        E[1, 2] = bad
        with pytest.raises(InvariantViolation, match="finite"):
            PolygonConfig(E)
        with pytest.raises(InvariantViolation, match="finite"):
            PolygonConfig(np.full((4, 3), bad))

    def test_loader_refuses_non_finite_edges(self):
        with pytest.raises(ParseError, match="finite"):
            polygon_from_json({"edges": [[1.0, 0.0, 0.0], [float("nan"), 1.0, 0.0],
                                         [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]})

    def test_degenerate_edge_flag(self):
        E = np.array([[1, 0, 0], [0, 0, 0], [-1, 0, 0], [0, 0, 0]], dtype=float)
        P = PolygonConfig(E)
        assert P.n == 4
        assert P.side_lengths().tolist() == [1.0, 0.0, 1.0, 0.0]


def _hexagon():
    """A random closed hexagon, its caterpillar data and bending angles."""
    rng = np.random.default_rng(223)    # fan diagonals 0.64, 0.87, 0.76
    P = random_closed_polygon(6, rng)
    r, d = measure_caterpillar(P)
    return P, r, d, rng.uniform(-np.pi, np.pi, size=3)


class TestZeroLengthRule:
    """A length is zero when it is at most CLOSURE_TOL times the polygon's
    longest edge, for closure, bend axes and the fan alike, so builds and
    bends do not depend on the scale of the polygon."""

    # below 2^-500 or so, squared lengths would underflow without the
    # power-of-two prescaling of every norm
    @pytest.mark.parametrize("j", [*range(-900, -40, 20), *range(-40, 41, 5)])
    def test_scaled_by_a_power_of_two_bit_for_bit(self, j):
        P, r, d, angles = _hexagon()
        s = 2.0 ** j
        assert (build_polygon(s * r, s * d, angles).edges
                == s * build_polygon(r, d, angles).edges).all()
        Q = PolygonConfig(s * P.edges)
        for run in ((1, 2), (2, 3, 4), (3, 4, 5, 6)):
            assert (bend(Q, run, 0.7).edges == s * bend(P, run, 0.7).edges).all()

    @pytest.mark.parametrize("j", range(-13, 14))
    def test_same_outcome_at_every_decimal_scale(self, j):
        P, r, d, angles = _hexagon()
        s = 10.0 ** j
        B = build_polygon(s * r, s * d, angles)
        assert np.allclose(measure_caterpillar(B)[1], s * d, rtol=1e-12, atol=0.0)
        Q = PolygonConfig(s * P.edges)
        for run in caterpillar_triangulation(6).diagonals:
            bend(Q, run, 0.7)
        with pytest.raises(TriangleInfeasible):
            build_polygon([s, s, 3 * s], [], [])
        with pytest.raises(UndefinedBendAxis):
            bend(Q, range(1, 7), 0.7)     # the full run sums to rounding

    def test_lengths_whose_squares_underflow(self):
        # squared lengths below the smallest double read 0 when a norm is
        # not prescaled: the bend axis had no length, and the sides read 0
        P = build_polygon([1e-170] * 4, [1.41e-170], [0.5])
        r, d = measure_caterpillar(P)
        assert np.allclose(r, 1e-170, rtol=1e-15, atol=0.0)
        assert np.allclose(d, 1.41e-170, rtol=1e-15, atol=0.0)
        Q = bend(P, (1, 2), 0.7)
        assert np.allclose(Q.side_lengths(), 1e-170, rtol=1e-15, atol=0.0)

    def test_tiny_infeasible_triangle_refused(self):
        # an absolute slack of 1e-12 once accepted it, returning sides
        # (1e-13, 2e-13, 3e-13)
        with pytest.raises(TriangleInfeasible):
            build_polygon([1e-13, 1e-13, 3e-13], [], [])

    @pytest.mark.parametrize("s", [1e-13, 2.0 ** -45])
    def test_tiny_polygon_bends_and_rebuilds(self, s):
        # an absolute bend-axis floor of 1e-12 once refused every diagonal
        P, _, _, angles = _hexagon()
        Q = PolygonConfig(s * P.edges)
        B = bend(Q, (1, 2), 0.7)
        assert np.max(np.abs(B.side_lengths() - Q.side_lengths())) <= 1e-15 * s
        r, d = measure_caterpillar(Q)
        assert np.allclose(measure_caterpillar(build_polygon(r, d, angles))[1], d,
                           rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("s", [1e6, 1e13])
    def test_large_full_run_has_no_axis(self, s):
        # the run sum is closure rounding, which an absolute floor read as
        # an axis once the polygon was large
        P, _, _, _ = _hexagon()
        with pytest.raises(UndefinedBendAxis):
            bend(PolygonConfig(s * P.edges), range(1, 7), 0.7)

    @pytest.mark.parametrize("delta, defined", [(2e-9, True), (5e-10, False)])
    def test_bend_axis_threshold_is_relative(self, delta, defined):
        for s in (1e-20, 1.0, 1e20):
            P = PolygonConfig(s * np.array([[1.0, 0, 0], [delta - 1.0, 0, 0],
                                            [0, 1.0, 0], [-delta, -1.0, 0]]))
            if defined:
                bend(P, (1, 2), 0.5)
            else:
                with pytest.raises(UndefinedBendAxis):
                    bend(P, (1, 2), 0.5)

    def test_zero_fan_diagonal(self):
        # a folded square: edge 2 runs back along edge 1
        P = build_polygon((1, 1, 1, 1), (0.0,), (0.0,))
        assert np.allclose(P.side_lengths(), 1.0, rtol=0.0, atol=1e-15)
        assert diagonal_lengths(P, caterpillar_triangulation(4))[0] == 0.0
        with pytest.raises(UndefinedBendAxis):
            build_polygon((1, 1, 1, 1), (0.0,), (0.3,))


class TestOverflow:
    """Lengths whose squares overflow float64 are refused by name, with no
    numpy warning on the way."""

    def test_unclosed_polygon_of_huge_edges(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match="overflows float64"):
                PolygonConfig([[1e200, 0, 0], [0, 1e200, 0], [0, 0, 1e200]])

    @pytest.mark.parametrize("r, d", [([1e200] * 3, []), ([1e308] * 4, [1.4e308])])
    def test_build(self, r, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match="overflows float64"):
                build_polygon(r, d, [0.5] * len(d))

    def test_largest_accepted_square(self):
        # 3 (4 c)^2 is just finite: every run sum, the full one included,
        # has a finite squared norm, and bending stays finite
        c = 0.99 * np.sqrt(np.finfo(float).max / 3) / 4
        square = np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = PolygonConfig(c * square)
            assert diagonal_lengths(P, caterpillar_triangulation(4))[0] == pytest.approx(
                np.sqrt(2) * c)
            assert diagonal_lengths(P, Triangulation(4, ((1, 2, 3, 4),)))[0] == 0.0
            assert np.isfinite(bend(P, (1, 2), 0.3).edges).all()
            with pytest.raises(InvariantViolation, match="overflows float64"):
                PolygonConfig(1.02 * c * square)


@pytest.mark.parametrize("diagonal", [[1.5, 2.7], ["1", "2"], [np.nan, 2], [np.inf], "12"])
def test_diagonal_indices_must_be_integers(diagonal):
    P = build_polygon((1, 1, 1, 1), (np.sqrt(2),), (0.0,))
    with pytest.raises(InvariantViolation, match="expected integer"):
        bend(P, diagonal, 0.3)
    with pytest.raises(InvariantViolation, match="expected integer"):
        Triangulation(4, (diagonal,))


def test_integral_diagonal_indices_read_as_ints():
    P = build_polygon((1, 1, 1, 1), (np.sqrt(2),), (0.0,))
    expected = bend(P, (1, 2), 0.3).edges
    for diagonal in ([1.0, 2.0], [np.int64(1), np.int64(2)], np.array([1, 2])):
        assert (bend(P, diagonal, 0.3).edges == expected).all()
    assert Triangulation(5, [(2.0, np.int64(3))]).diagonals == ((2, 3),)
