import csv
import dataclasses
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mflow
from mflow import serialize
from mflow import cli
from mflow import flow
from mflow import verify
from mflow.cli import main
from mflow.config import Config, env_var_name, flag_name
from mflow.errors import DomainError, InvariantViolation, ParseError
from mflow.flow import integrate_flow
from mflow.gelfand_tsetlin import GTPattern, gt_pattern


@pytest.fixture
def diag321(tmp_path):
    path = tmp_path / "A.json"
    serialize.save_matrix(str(path), np.diag([3.0, 2.0, 1.0]))
    return str(path)


class TestSerialize:
    def test_matrix_round_trip_bit_faithful(self, tmp_path):
        rng = np.random.default_rng(211)
        M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        path = str(tmp_path / "m.json")
        serialize.save_matrix(path, M)
        back = serialize.load_matrix(path)
        assert back.tobytes() == M.tobytes()

    def test_non_square_entries_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "entries": [[[1, 0]]]}))
        with pytest.raises(ParseError):
            serialize.load_matrix(str(path))

    def test_malformed_json_has_line_context(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2,\n  "entries": oops}')
        with pytest.raises(ParseError) as err:
            serialize.load_matrix(str(path))
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "nan"])
    def test_pattern_loader_refuses_non_finite(self, bad):
        with pytest.raises(ParseError, match="finite"):
            serialize.pattern_from_json({"rows": [[2.0, bad], [1.0]]})

    _SQUARE = [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]

    @pytest.mark.parametrize("load, obj", [
        (serialize.pattern_from_json, {"rows": [["2", 1], [1]]}),
        (serialize.pattern_from_json, {"rows": [[2, 1], [True]]}),
        (serialize.polygon_from_json, {"edges": [["1", 0, 0]] + _SQUARE[1:]}),
        (serialize.polygon_from_json, {"edges": [[True, 0, 0]] + _SQUARE[1:]}),
        (serialize.scenario_from_json, {"r": ["1", "1", "1", "1"]}),
        (serialize.scenario_from_json, {"r": [True, 1, 1, 1]}),
        (serialize.scenario_from_json, {"r": [1, 1, 1, 1], "d": [None]}),
        (serialize.scenario_from_json,
         {"r": [1, 1, 1, 1], "bends": [{"diagonal": [1, 2], "theta": "0.5"}]}),
        (serialize.scenario_from_json,
         {"r": [1, 1, 1, 1], "bends": [{"diagonal": [1.5, 2.7], "theta": 0.5}]}),
        (serialize.scenario_from_json,
         {"r": [1, 1, 1, 1], "bends": [{"diagonal": [1.0, 2.0], "theta": 0.5}]}),
        (serialize.scenario_from_json,
         {"r": [1, 1, 1, 1], "bends": [{"diagonal": [True, 2], "theta": 0.5}]}),
        (serialize.matrix_from_json, {"n": 1.9, "entries": [[[1, 0]]]}),
        (serialize.matrix_from_json, {"n": True, "entries": [[[1, 0]]]}),
        (serialize.matrix_from_json, {"n": "1", "entries": [[[1, 0]]]}),
        (serialize.matrix_from_json, {"n": 1, "entries": [[[True, False]]]}),
        (serialize.matrix_from_json, {"n": 0, "entries": []}),
        (serialize.matrix_from_json, {"n": -1, "entries": []}),
    ], ids=["pattern-string", "pattern-bool", "polygon-string", "polygon-bool",
            "scenario-string", "scenario-bool", "scenario-null", "theta-string",
            "diagonal-fraction", "diagonal-float", "diagonal-bool",
            "matrix-n-fraction", "matrix-n-bool", "matrix-n-string", "matrix-entry-bool",
            "matrix-n-zero", "matrix-n-negative"])
    def test_loaders_refuse_values_that_are_not_numbers(self, load, obj):
        with pytest.raises(ParseError):
            load(obj)

    def test_scenario_loader_reads_json_numbers(self):
        obj = {"r": [1, 1.5, 1, 1.5], "d": [2], "bends": [{"diagonal": [1, 2], "theta": 1}]}
        assert serialize.scenario_from_json(obj) == ([1.0, 1.5, 1.0, 1.5], [2.0], [0.0],
                                                     [([1, 2], 1.0)])

    def test_pattern_round_trip(self, tmp_path):
        P = gt_pattern(np.diag([3.0, 2.0, 1.0]))
        path = str(tmp_path / "p.json")
        serialize.save_pattern(path, P)
        assert serialize.load_pattern(path).rows == P.rows

    def test_polygon_round_trip(self, tmp_path):
        from mflow.polygons import build_polygon
        path = str(tmp_path / "poly.json")
        # the last two have a zero-length side, which the polygon monoid allows
        for r, d, angles in [((1, 1, 1, 1), (np.sqrt(2),), (0.4,)),
                             ((0, 1, 1), (), ()),
                             ((1, 1, 1, 1, 0), (np.sqrt(2), 1), (0.4, 0.3))]:
            P = build_polygon(r, d, angles)
            serialize.save_polygon(path, P)
            assert serialize.load_polygon(path).edges.tobytes() == P.edges.tobytes()

    def test_trajectory_csv_last_row_is_terminal(self, tmp_path):
        traj = integrate_flow(np.diag([2.0, 0.5]))
        path = str(tmp_path / "t.csv")
        serialize.save_trajectory(path, traj)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        header, last = rows[0], rows[-1]
        assert header[:3] == ["t", "re_00", "im_00"]
        assert header[-3:] == ["det_re", "det_im", "mu_drift"]
        values = dict(zip(header, map(float, last)))
        assert abs(values["re_00"] - np.sqrt(3.75)) < 1e-6
        assert abs(values["re_11"]) < 1e-6
        assert values["t"] == 1.0
        assert float(rows[1][0]) == 0.0

    def test_trajectory_resampling(self, tmp_path):
        traj = integrate_flow(np.diag([2.0, 0.5]))
        path = str(tmp_path / "t.csv")
        serialize.save_trajectory(path, traj, samples=11)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 1 + 11 + 1  # header + grid + terminal

    @staticmethod
    def _csv_values(path):
        with open(path) as fh:
            rows = list(csv.reader(fh))
        return rows[0], np.array(rows[1:], dtype=float)

    @staticmethod
    def _start():
        """A complex 3x3 start of det about 2, whose start_det differs from
        the LU determinant's real part in the last bits for m = 1, 2, 3."""
        rng = np.random.default_rng(4)
        B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        return 2 ** (1 / 3) * B / np.linalg.det(B) ** (1 / 3)

    def test_trajectory_csv_writes_the_trajectorys_diagnostics(self, tmp_path):
        traj = integrate_flow(self._start())
        path = str(tmp_path / "t.csv")
        serialize.save_trajectory(path, traj)
        header, values = self._csv_values(path)
        body = dict(zip(header, values[:-1].T))
        # the CSV's floats are reprs, so they read back bit for bit
        assert np.array_equal(body["t"], traj.times())
        assert np.array_equal(body["det_re"], traj.determinants().real)
        assert np.array_equal(body["det_im"], traj.determinants().imag)
        assert np.array_equal(body["mu_drift"], traj.momentum_drift())

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_trajectory_csv_terminal_time_is_start_det_root(self, tmp_path, m):
        traj = integrate_flow(self._start(), Config(m=m))
        path = str(tmp_path / "t.csv")
        serialize.save_trajectory(path, traj)
        _, values = self._csv_values(path)
        assert values[-1, 0] == traj.start_det ** (1 / m)
        assert np.array_equal(values[-1, 1:-3].view(complex), traj.terminal.ravel())

    def test_terminal_time_is_the_retimed_end_bit_for_bit(self):
        # the CSV writes the m-time of unit-rate time d0 as d0 ** (1 / m),
        # which is flow._retime(d0, 1, m, d0) bit for bit
        rng = np.random.default_rng(41)
        for d0 in [*np.exp(rng.uniform(-40.0, 40.0, 300)), 1.0, 2.0, 1e-300, 1e300]:
            for m in (1, 2, 3, 4):
                assert d0 ** (1.0 / m) == flow._retime(d0, 1, m, d0)
        assert not hasattr(serialize, "_retime")

    def test_trajectory_csv_without_samples_is_header_and_terminal(self, tmp_path):
        traj = integrate_flow(self._start())
        full, empty = str(tmp_path / "full.csv"), str(tmp_path / "empty.csv")
        serialize.save_trajectory(full, traj)
        serialize.save_trajectory(empty, traj, samples=0)
        header, values = self._csv_values(empty)
        assert values.shape == (1, len(header))
        # the terminal's drift is still measured from the start
        assert np.array_equal(values[0], self._csv_values(full)[1][-1])
        assert values[0, -1] > 0.0

    @pytest.mark.parametrize("samples", [None, 7, 0])
    def test_trajectory_csv_is_the_csv_writer_rendering(self, tmp_path, samples):
        src, out = str(tmp_path / "B.json"), tmp_path / "t.csv"
        serialize.save_matrix(src, self._start())
        argv = ["flow", "--in", src, "--out", str(out)]
        if samples is not None:
            argv += ["--samples", str(samples)]
        assert main(argv) == 0
        text = out.read_bytes().decode()
        header, *rows = csv.reader(io.StringIO(text, newline=""))
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows([float(x) for x in row] for row in rows)
        assert len(rows) == (len(integrate_flow(self._start()).points)
                             if samples is None else samples) + 1
        assert text == buf.getvalue()


# JSON-shaped values: what json.load can return, plus the float and integer
# extremes that overflow float() and int()
_JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=4)
                 | st.sampled_from([10 ** 400, -(10 ** 400), float("inf"), float("nan")]))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "entries", "rows", "edges", "r", "d", "angles",
                                       "bends", "diagonal", "theta"]), inner, max_size=3),
    max_leaves=24)
_JSON_OBJECTS = _JSON_VALUES | st.fixed_dictionaries(
    {}, optional={"n": _JSON_VALUES, "entries": _JSON_VALUES,
                  "rows": _JSON_VALUES, "edges": _JSON_VALUES,
                  "r": _JSON_VALUES, "d": _JSON_VALUES, "angles": _JSON_VALUES,
                  "bends": _JSON_VALUES})


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_JSON_OBJECTS)
@example({"n": 1, "entries": 5})
@example({"n": float("inf"), "entries": []})
@example({"n": 1, "entries": [[[10 ** 400, 0]]]})
@example({"n": 2, "entries": [[[1, 0], [0, 0]], 7]})
@example({"rows": [[10 ** 400]]})
@example({"edges": [[10 ** 400, 0, 0]] * 3})
@example([1, 1, 1, 1])
@example({"r": [1, 1, 1, 10 ** 400]})
@example({"r": [1, 1, 1, 1], "bends": [{"diagonal": [1, 2], "theta": float("nan")}]})
@example({"r": [1, 1, 1, 1], "bends": [{"diagonal": [float("inf")], "theta": 0}]})
@example({"r": [1, 1, 1, 1], "bends": ["diagonal"]})
def test_json_loader_fuzz_raises_only_documented_errors(obj):
    for load in (serialize.matrix_from_json, serialize.pattern_from_json,
                 serialize.polygon_from_json, serialize.scenario_from_json):
        try:
            load(obj)
        except (ParseError, DomainError):
            pass


_SQUARE = mflow.PolygonConfig(np.array([[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float))
_I64, _F64 = np.int64, np.float64


# Each call refuses numpy scalar arguments; its message must show them as
# plain numbers, not as their repr (`np.float64(nan)`).
@pytest.mark.parametrize("call", [
    lambda: mflow.flow_closed_form(np.eye(2), _F64("nan")),
    lambda: mflow.flow_closed_form(np.eye(2), _F64("inf")),
    lambda: mflow.star_action(np.diag([3.0, 2.0, 1.0]), _I64(5), [0.0]),
    lambda: mflow.star_action(np.diag([3.0, 2.0, 1.0]), _I64(1), [_F64("nan")]),
    lambda: mflow.OrbitFunction.gt_entry(_I64(0), _I64(1)),
    lambda: mflow.build_polygon(np.ones(4), np.array([3.0]), np.zeros(1)),
    lambda: mflow.bend(_SQUARE, [_I64(1), _I64(9)], 0.1),
    lambda: mflow.bend(_SQUARE, [_I64(1), _I64(3)], 0.1),
    lambda: mflow.bend(_SQUARE, [1, 2], _F64("inf")),
    lambda: mflow.Triangulation(_I64(5), ((_I64(1), _I64(2)), (_I64(2), _I64(3)))),
    lambda: mflow.pieri_admissible(np.array([1, 2]), np.array([3, 2, 1])),
    lambda: mflow.pieri_admissible(np.array([1]), np.array([3, 2, 1])),
    lambda: mflow.cg_multiplicity([_I64(1), _I64(-1)]),
    lambda: mflow.fiber_chain_member([np.array([1]), np.array([3, 2, 1])]),
    lambda: mflow.parse_newick("((1,2),(3,4))").vertex_of_label(_I64(9)),
    lambda: mflow.random_orbit_point([1.0, _F64("nan")], seed=1),
    lambda: mflow.integrate_flow(np.diag([2.0, 0.5])),
])
def test_messages_show_numpy_scalars_as_plain_numbers(call, monkeypatch):
    monkeypatch.setattr(flow, "MAX_STEPS", 1)     # the flow case runs out of steps
    with pytest.raises(DomainError) as err:
        call()
    assert "np." not in str(err.value)


# GT indices and star-action levels are read as branching reads integers: a
# fraction is refused, not truncated or left to fail later with IndexError.
@pytest.mark.parametrize("call", [
    lambda: mflow.OrbitFunction(1.5, 2),
    lambda: mflow.OrbitFunction.gt_entry(1, _F64(2.5)),
    lambda: mflow.OrbitFunction.gt_entry(float("nan"), 1),
    lambda: mflow.star_action(np.diag([3.0, 2.0, 1.0]), 1.5, [0.0]),
    lambda: mflow.star_action(np.diag([3.0, 2.0, 1.0]), "1", [0.0]),
])
def test_gt_indices_must_be_integers(call):
    with pytest.raises(InvariantViolation, match="expected integer"):
        call()


def test_gt_indices_are_stored_as_ints():
    for i, j in ((_I64(2), 2.0), (2.0, _I64(2))):
        f = mflow.OrbitFunction(i, j)
        assert (f.i, f.j) == (2, 2)
        assert type(f.i) is int and type(f.j) is int
    A = mflow.random_orbit_point([3.0, 1.0, -1.0], seed=4)
    out = mflow.star_action(A, 2, [0.3, -0.4])
    for level in (2.0, _I64(2)):
        assert mflow.star_action(A, level, [0.3, -0.4]).tobytes() == out.tobytes()


# The check names `mflow verify` printed before it printed measurements; a
# script that matches on them must keep finding each one.
_VERIFY_NAMES = [
    "eig-reconstruction", "eig-determinism", "polar-consistency", "section-momentum-round-trip",
    "adjugate-identity", "flow-decay-law", "flow-momentum-conservation", "flow-equivariance",
    "vfield-unit-rate", "contraction-matches-flow", "contraction-momentum", "same-fiber-cases",
    "star-action-preserves-pattern", "gt-count-identity", "gt-interlacing",
    "gt-poisson-commutativity", "tree-cg-identity", "chain-pattern-equivalence",
    "polygon-monoid-closure", "bending-invariance", "bending-commutativity", "build-polygon-fiber",
]


class TestCli:
    def test_gt_pattern_stdout(self, diag321, capsys):
        assert main(["gt-pattern", "--in", diag321]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rows"] == [[3.0, 2.0, 1.0], [3.0, 2.0], [3.0]]

    def test_gt_pattern_to_file(self, diag321, tmp_path, capsys):
        out = str(tmp_path / "p.json")
        assert main(["gt-pattern", "--in", diag321, "--out", out]) == 0
        assert serialize.load_pattern(out).rows[0] == (3.0, 2.0, 1.0)

    def test_flow_csv_endpoint(self, tmp_path, capsys):
        src = str(tmp_path / "B.json")
        serialize.save_matrix(src, np.diag([2.0, 0.5]))
        out = str(tmp_path / "traj.csv")
        assert main(["flow", "--in", src, "--m", "1", "--out", out]) == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        values = dict(zip(rows[0], map(float, rows[-1])))
        assert abs(values["re_00"] - np.sqrt(3.75)) < 1e-6
        assert abs(values["re_11"]) < 1e-6
        stats = integrate_flow(np.diag([2.0, 0.5])).step_stats
        first = capsys.readouterr().out.splitlines()[0]
        assert first == (f"steps accepted={stats.accepted} rejected={stats.rejected} "
                         f"min_step={stats.min_step:.3e} rhs_calls={stats.rhs_calls} "
                         f"err_rejects={stats.err_rejects} "
                         f"singular_rejects={stats.singular_rejects} "
                         f"det_rejects={stats.det_rejects} k=1")
        assert stats.rejected == stats.err_rejects + stats.singular_rejects
        serialize.save_matrix(src, np.eye(3))
        assert main(["flow", "--in", src]) == 0
        assert capsys.readouterr().out.splitlines()[0].endswith(" k=3")

    def test_flow_prints_t_last_in_the_clock_of_m(self, tmp_path, capsys):
        src = str(tmp_path / "B.json")
        B = np.diag([3.0, 0.5])
        serialize.save_matrix(src, B)
        t_last = {}
        for m in (1, 2):
            assert main(["flow", "--in", src, "--m", str(m)]) == 0
            terminal = capsys.readouterr().out.splitlines()[1]
            t_last[m] = float(terminal.split(" t_last=")[1])
            assert t_last[m] == integrate_flow(B, Config(m=m)).times()[-1]
        assert t_last[1] != t_last[2]

    def test_contract_stdout(self, tmp_path, capsys):
        src = str(tmp_path / "B.json")
        serialize.save_matrix(src, np.diag([2.0, 0.5]))
        assert main(["contract", "--in", src]) == 0
        M = serialize.matrix_from_json(json.loads(capsys.readouterr().out))
        assert np.allclose(M, np.diag([np.sqrt(3.75), 0.0]), atol=1e-12)

    def test_gt_count(self, capsys):
        assert main(["gt-count", "--weight", "2,1,0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "8"
        assert lines[1] == "weyl=8 MATCH"

    def test_branch_cg(self, capsys):
        assert main(["branch", "--cg", "1,1,2"]) == 0
        assert capsys.readouterr().out.strip() == "admissible=true multiplicity=1"

    def test_branch_pieri(self, capsys):
        assert main(["branch", "--pieri", "3,1:3,2,1"]) == 0
        assert capsys.readouterr().out.strip() == "admissible=true"

    def test_branch_dominance(self, capsys):
        assert main(["branch", "--dominance", "1,1,0:2,0,0"]) == 0
        assert capsys.readouterr().out.strip() == "member=true"

    def test_branch_chain(self, capsys):
        assert main(["branch", "--chain", "3:3,2:3,2,1"]) == 0
        assert capsys.readouterr().out.strip() == "member=true"

    def test_tree_count(self, capsys):
        assert main(["tree-count", "--tree", "((1,2),(3,4))", "--r", "1,1,1,1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["2", "cg=2 MATCH"]

    def test_polygon_flags(self, tmp_path, capsys):
        out = str(tmp_path / "poly.json")
        code = main(["polygon", "--r", "1,1,1,1", "--d", "1.4142135623730951",
                     "--angles", "0", "--out", out])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("sides 1 1 1 1")
        P = serialize.load_polygon(out)
        assert P.n == 4

    def test_polygon_scenario(self, tmp_path, capsys):
        sc = {"r": [1, 1, 1, 1], "d": [np.sqrt(2)], "angles": [0.0],
              "bends": [{"diagonal": [1, 2], "theta": 1.2}]}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(sc))
        assert main(["polygon", "--scenario", str(path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        diag = float(lines[1].split()[1])
        assert abs(diag - np.sqrt(2)) < 1e-9

    def test_lapack_failure_exit_1(self, diag321, monkeypatch, capsys):
        def fail(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "gt_pattern", fail)
        assert main(["gt-pattern", "--in", diag321]) == 1
        assert capsys.readouterr().err.startswith("LinAlgError")

    def test_deep_caterpillar_tree_count(self, capsys):
        n = 1500
        tree = "(" * (n - 1) + "1,2)" + "".join(f",{k})" for k in range(3, n + 1))
        assert main(["tree-count", "--tree", tree, "--r", ",".join(["0"] * n)]) == 0
        assert capsys.readouterr().out.split() == ["1", "cg=1", "MATCH"]

    def test_show_config(self, capsys):
        assert main(["--show-config"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["m = 1", "seed = 0"]
        assert [f.name for f in dataclasses.fields(Config)] == ["m", "seed"]

    def test_env_override_and_flag_precedence(self, monkeypatch, capsys):
        monkeypatch.setenv("MFLOW_M", "2")
        assert main(["--show-config"]) == 0
        assert "m = 2" in capsys.readouterr().out.splitlines()
        assert main(["--show-config", "flow", "--in", "B.json", "--m", "3"]) == 0
        assert "m = 3" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("command", ["flow", "verify", "tree-count", "branch", "gt-pattern"])
    def test_show_config_needs_no_inputs(self, command, capsys):
        assert main(["--show-config", command]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "m = 1" and "seed = 0" in out

    @pytest.mark.parametrize("kwargs", [
        {"m": float("nan")}, {"m": 2.5}, {"m": float("inf")}, {"m": "2"},
        {"seed": float("nan")}, {"seed": -float("inf")}, {"seed": 0.5},
    ])
    def test_config_refuses_values_that_are_not_integers(self, kwargs):
        with pytest.raises(InvariantViolation):
            Config(**kwargs)

    def test_config_stores_integral_values_as_ints(self):
        cfg = Config(m=np.float64(2.0), seed=np.int64(3))
        assert cfg == Config(m=2, seed=3)
        assert type(cfg.m) is int and type(cfg.seed) is int
        assert cfg.describe() == "m = 2\nseed = 3"

    def test_successive_calls_share_no_state(self, tmp_path, capsys):
        src = str(tmp_path / "B.json")
        serialize.save_matrix(src, np.diag([2.0, 0.5]))
        assert main(["flow", "--in", src, "--m", "2"]) == 0
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--in", src, "--m", "two"])
        assert exc.value.code == 2
        assert main(["flow", "--m", "3"]) == 2
        capsys.readouterr()
        assert main(["--show-config", "flow"]) == 0
        assert "m = 1" in capsys.readouterr().out.splitlines()
        # main builds its parser once; build_parser still returns a new one
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize("argv", [
        ["gt-count", "--weight", "2,1,0", "--tol-rel", "5"],
        ["contract", "--in", "B.json", "--seed", "1"],
        ["verify", "--m", "2"],
        ["flow", "--in", "B.json", "--tol-eig", "1e-7"],
        ["gt-pattern", "--in", "A.json", "--tol-gt", "1e-7"],
    ])
    def test_flags_only_on_the_subcommand_that_reads_them(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    # The flow's tolerances, stop fiber and step budget are constants of
    # mflow.flow: no flag or environment variable sets them.
    @pytest.mark.parametrize("flag", ["--tol-rel", "--tol-abs", "--tol-det-stop", "--max-steps"])
    def test_flow_has_no_tolerance_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["flow", "--in", "B.json", flag, "1e-6"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["MFLOW_TOL_REL", "MFLOW_TOL_ABS", "MFLOW_TOL_DET_STOP",
                                      "MFLOW_MAX_STEPS"])
    def test_flow_reads_no_tolerance_env_vars(self, name, monkeypatch, capsys):
        monkeypatch.setenv(name, "nan")
        assert main(["--show-config"]) == 0
        assert capsys.readouterr().out.splitlines() == ["m = 1", "seed = 0"]

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        lines = capsys.readouterr().out.splitlines()
        names = [m.name for m in verify.run_all(seed=0)]
        assert set(_VERIFY_NAMES) <= set(names)
        assert len(lines) == len(names)
        for name in names:
            hits = [line for line in lines if line.startswith(f"PASS {name} ")]
            assert len(hits) == 1, (name, hits)
            fields = dict(field.split("=") for field in hits[0].split()[2:])
            assert sorted(fields) == ["bound", "margin", "measured"]
            assert all(np.isfinite(float(v)) for v in fields.values())

    def test_verify_output_is_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            assert main(["verify", "--seed", "3"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_verify_fails_under_python_O(self):
        # python -O strips assert statements; a broken adjugate must still
        # make `mflow verify` report FAIL and exit 1
        src = os.path.dirname(os.path.dirname(os.path.abspath(mflow.__file__)))
        code = ("import sys; from mflow import verify; from mflow.cli import main; "
                "assert False, 'asserts are live'; "
                "verify.adjugate = lambda A: A; sys.exit(main(['verify']))")
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1, proc.stderr[-300:]
        fails = [line for line in proc.stdout.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1 and fails[0].startswith("FAIL adjugate-identity: residual"), fails

    def test_determinism_of_pattern_output(self, diag321, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["gt-pattern", "--in", diag321, "--out", a])
        main(["gt-pattern", "--in", diag321, "--out", b])
        assert open(a).read() == open(b).read()


# The subcommand that reads each Config field. A field missing here has no
# consumer, and its case of the test below fails.
_READER = {"m": "flow", "seed": "verify"}


class _Reads:
    """A Config stand-in that records every field its holder reads."""

    def __init__(self, cfg, seen):
        self._cfg, self._seen = cfg, seen

    def __getattr__(self, name):
        value = getattr(self._cfg, name)
        self._seen[name] = value
        return value


@pytest.mark.parametrize("field", dataclasses.fields(Config), ids=lambda f: f.name)
def test_config_field_reaches_its_consumer(field, tmp_path, monkeypatch, capsys):
    """An env value, then a flag value over it, reaches the code that reads
    the field: the trajectory CSV's time axis for m (the integration itself
    is the same for every m), run_all for the seed."""
    seen = {}
    real_flow = cli.integrate_flow
    monkeypatch.setattr(cli, "integrate_flow", lambda B0, cfg: real_flow(B0, _Reads(cfg, seen)))
    monkeypatch.setattr(cli, "run_all", lambda seed: seen.update(seed=seed) or [])
    src = str(tmp_path / "B.json")
    serialize.save_matrix(src, np.diag([2.0, 0.5]))
    flow_argv = ["flow", "--in", src, "--out", str(tmp_path / "t.csv")]
    argv = {"flow": flow_argv, "verify": ["verify"]}[_READER[field.name]]
    env_value, flag_value = field.default + 1, field.default + 3

    monkeypatch.setenv(env_var_name(field.name), str(env_value))
    assert main(["--show-config"]) == 0
    assert f"{field.name} = {env_value}" in capsys.readouterr().out.splitlines()
    assert main(argv) == 0
    assert seen.pop(field.name) == env_value
    assert main(argv + [flag_name(field.name), str(flag_value)]) == 0
    assert seen.pop(field.name) == flag_value


class TestPatternJsonShape:
    def test_rows_descend_in_length(self, tmp_path):
        P = GTPattern(((2.0, 1.0), (1.5,)))
        path = str(tmp_path / "p.json")
        serialize.save_pattern(path, P)
        obj = json.loads(open(path).read())
        assert [len(r) for r in obj["rows"]] == [2, 1]
