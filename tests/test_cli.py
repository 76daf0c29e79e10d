import csv
import dataclasses
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
from mflow.cli import main
from mflow.config import Config, env_var_name, flag_name
from mflow.errors import DomainError, ParseError
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

    def test_pattern_round_trip(self, tmp_path):
        P = gt_pattern(np.diag([3.0, 2.0, 1.0]))
        path = str(tmp_path / "p.json")
        serialize.save_pattern(path, P)
        assert serialize.load_pattern(path).rows == P.rows

    def test_polygon_round_trip(self, tmp_path):
        from mflow.polygons import build_polygon
        P = build_polygon((1, 1, 1, 1), (np.sqrt(2),), (0.4,))
        path = str(tmp_path / "poly.json")
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

    @pytest.mark.parametrize("text", [
        "[1, 1, 1, 1]",
        '{"r": [1, 1, 1, 1], "d": [' + "1" * 5000 + "]}",
        '{"d": [1.5]}',
        '{"r": [1, 1, 1, 1], "d": [1.4], "angles": [0], "bends": [{"diagonal": [1, 2]}]}',
    ], ids=["list", "5000-digit-integer", "no-sides", "bend-without-theta"])
    def test_bad_scenario_exit_2(self, text, tmp_path, capsys):
        path = tmp_path / "sc.json"
        path.write_text(text)
        assert main(["polygon", "--scenario", str(path)]) == 2
        assert capsys.readouterr().err.startswith("ParseError")

    def test_missing_file_exit_2(self, capsys):
        assert main(["gt-pattern", "--in", "/nonexistent/A.json"]) == 2

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["gt-pattern", "--in", str(path)]) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_domain_error_exit_1_names_error(self, tmp_path, capsys):
        src = str(tmp_path / "B.json")
        serialize.save_matrix(src, np.diag([1.0, -1.0]))  # det < 0
        assert main(["flow", "--in", src]) == 1
        assert "InvariantViolation" in capsys.readouterr().err

    def test_infeasible_polygon_exit_1(self, capsys):
        assert main(["polygon", "--r", "1,1,1,1", "--d", "3", "--angles", "0"]) == 1
        assert "TriangleInfeasible" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--r", "1,1,1,1", "--d", "nan", "--angles", "0"],
        ["--r", "nan,1,1,1", "--d", "1", "--angles", "0"],
        ["--r", "1,1,1,1", "--d", "1.4", "--angles", "inf"],
        ["--r", "1,1,1,inf", "--d", "1", "--angles", "0"],
    ])
    def test_non_finite_polygon_exit_1(self, argv, capsys):
        assert main(["polygon", *argv]) == 1
        assert capsys.readouterr().err.startswith("InvariantViolation")

    def test_negative_samples_exit_2(self, tmp_path, capsys):
        src = str(tmp_path / "B.json")
        serialize.save_matrix(src, np.diag([2.0, 0.5]))
        out = tmp_path / "t.csv"
        assert main(["flow", "--in", src, "--samples", "-1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("ParseError")
        assert not out.exists()

    def test_samples_without_out_exit_2(self, tmp_path, capsys):
        src = str(tmp_path / "B.json")
        serialize.save_matrix(src, np.diag([2.0, 0.5]))
        assert main(["flow", "--in", src, "--samples", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("ParseError")
        assert captured.out == ""

    def test_non_finite_spectrum_exit_1(self, tmp_path, capsys):
        # finite entries, but the spectrum overflows float64
        rng = np.random.default_rng(23)
        Z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        A = 0.5 * (Z + Z.conj().T)
        src = str(tmp_path / "A.json")
        serialize.save_matrix(src, A / np.max(np.abs(A)) * 1.5e308)
        assert main(["gt-pattern", "--in", src]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("InvariantViolation")
        assert captured.out == ""

    def test_lapack_failure_exit_1(self, diag321, monkeypatch, capsys):
        def fail(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "gt_pattern", fail)
        assert main(["gt-pattern", "--in", diag321]) == 1
        assert capsys.readouterr().err.startswith("LinAlgError")

    @pytest.mark.parametrize("depth", [2000, 100000])
    def test_deep_newick_exits_cleanly(self, depth, capsys):
        deep = "(" * depth + "1,2" + ")" * depth
        assert main(["tree-count", "--tree", deep, "--r", "1,1"]) == 1
        assert "InvariantViolation" in capsys.readouterr().err
        assert main(["tree-count", "--tree", deep + ")", "--r", "1,1"]) == 2
        err = capsys.readouterr().err
        assert "ParseError" in err
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("argv", [
        ["tree-count", "--tree", "(1,2,3)", "--r", "1234567890,1234567890,2"],
        ["branch", "--cg", "1234567890,1234567890,2"],
        ["gt-count", "--weight", "100000,0,0"],
        ["gt-count", "--weight", ",".join(str(v) for v in range(24, -1, -1))],
        ["gt-count", "--weight", ",".join(["0"] * 500)],
    ])
    def test_huge_weight_refused_quickly(self, argv):
        # in a child process capped at 2 GB of address space, so that without
        # the bound the test fails with MemoryError instead of exhausting RAM
        resource = pytest.importorskip("resource")
        src = os.path.dirname(os.path.dirname(os.path.abspath(mflow.__file__)))
        code = ("import sys, time; from mflow.cli import main; t = time.perf_counter(); "
                "rc = main(sys.argv[1:]); print(time.perf_counter() - t); sys.exit(rc)")

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, timeout=60, preexec_fn=cap_memory,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == 1, proc.stderr[-300:]
        assert proc.stderr.startswith("InvariantViolation")
        assert float(proc.stdout) < 1.0

    @pytest.mark.parametrize("text", [
        '{"n": 1, "entries": 5}',
        '{"n": 1e400, "entries": [[[1, 0]]]}',
        '{"n": 1, "entries": [[[1' + "0" * 400 + ', 0]]]}',
        '{"n": ' + "1" * 5000 + ', "entries": []}',
        "[" * 100000,
    ], ids=["entries-not-a-list", "n-overflows", "entry-overflows", "n-past-digit-limit",
            "deep-nesting"])
    def test_malformed_matrix_file_exit_2(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["contract", "--in", str(path)]) == 2
        assert "ParseError" in capsys.readouterr().err

    def test_deep_caterpillar_tree_count(self, capsys):
        n = 1500
        tree = "(" * (n - 1) + "1,2)" + "".join(f",{k})" for k in range(3, n + 1))
        assert main(["tree-count", "--tree", tree, "--r", ",".join(["0"] * n)]) == 0
        assert capsys.readouterr().out.split() == ["1", "cg=1", "MATCH"]

    def test_show_config(self, capsys):
        assert main(["--show-config"]) == 0
        out = capsys.readouterr().out
        assert "det_stop_tol = 1e-06" in out
        assert "seed = 0" in out
        shown = [line.split(" = ")[0] for line in out.splitlines()]
        assert shown == [f.name for f in dataclasses.fields(Config)]

    def test_env_override_and_flag_precedence(self, monkeypatch, capsys):
        monkeypatch.setenv("MFLOW_TOL_REL", "1e-7")
        assert main(["--show-config"]) == 0
        assert "rel_tol = 1e-07" in capsys.readouterr().out
        assert main(["--show-config", "flow", "--in", "B.json", "--tol-rel", "1e-6"]) == 0
        assert "rel_tol = 1e-06" in capsys.readouterr().out

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

    @pytest.mark.parametrize("env, argv, code, error", [
        ({"MFLOW_SEED": "abc"}, ["verify"], 2, "ParseError"),
        ({"MFLOW_M": "1.5"}, ["--show-config"], 2, "ParseError"),
        ({"MFLOW_TOL_REL": "-1"}, ["--show-config"], 1, "InvariantViolation"),
        ({"MFLOW_TOL_DET_STOP": "nan"}, ["--show-config"], 1, "InvariantViolation"),
        ({}, ["flow", "--in", "missing.json", "--m", "0"], 1, "InvariantViolation"),
        ({}, ["verify", "--seed", "-1"], 1, "InvariantViolation"),
    ], ids=["env-seed-abc", "env-m-float", "env-tol-negative", "env-tol-nan", "flag-m-0",
            "flag-seed-negative"])
    def test_config_errors_exit_codes(self, env, argv, code, error, monkeypatch, capsys):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert main(argv) == code
        assert capsys.readouterr().err.startswith(error)

    def test_verify_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 20

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
_READER = {"m": "flow", "rel_tol": "flow", "abs_tol": "flow", "det_stop_tol": "flow",
           "max_steps": "flow", "seed": "verify"}


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
    the field: integrate_flow for the flow fields, run_all for the seed."""
    seen = {}
    real_flow = cli.integrate_flow
    monkeypatch.setattr(cli, "integrate_flow", lambda B0, cfg: real_flow(B0, _Reads(cfg, seen)))
    monkeypatch.setattr(cli, "run_all", lambda seed: seen.update(seed=seed) or [])
    src = str(tmp_path / "B.json")
    serialize.save_matrix(src, np.diag([2.0, 0.5]))
    argv = {"flow": ["flow", "--in", src], "verify": ["verify"]}[_READER[field.name]]
    step = 1 if isinstance(field.default, int) else field.default
    env_value, flag_value = field.default + step, field.default + 3 * step

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


class TestContractedJson:
    def test_shape(self):
        from mflow.contraction import CotangentPoint, contract_point
        cp = contract_point(CotangentPoint(np.eye(3), np.diag([2.0, 2.0, 1.0])))
        obj = serialize.contracted_to_json(cp)
        assert obj["w"] == [2.0, 2.0, 1.0]
        assert obj["blocks"] == [[1, 2], [3, 3]]
        M = serialize.matrix_from_json(obj["g"])
        assert np.allclose(M, cp.g)
