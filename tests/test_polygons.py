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
