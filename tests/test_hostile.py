"""The CLI's exit codes on hostile input, as one table, CORPUS, whose input
kinds README's table of refusals lists. Each row runs in a directory that
holds only its files. A refusal (exit 1 or 2) prints nothing on stdout and
one stderr line under 1 KiB that starts with the row's text (so a text that
ends in a newline is the whole line), and leaves no file behind."""

import json
import math
import os
import subprocess
import sys
import time
import warnings
from typing import NamedTuple

import numpy as np
import pytest

import mflow
from mflow import cli, serialize

# a child capped at 2 GB of address space (a weight without its bound fails
# with MemoryError, not by exhausting RAM) that prints main's seconds last
_TIMED = ("-c", "import sys, time; from mflow.cli import main; t = time.perf_counter(); "
                "rc = main(sys.argv[1:]); print(time.perf_counter() - t); sys.exit(rc)")
_MODULE = ("-m", "mflow.cli")     # the real entry point


class Row(NamedTuple):
    label: str
    argv: str           # split on whitespace
    code: int
    err: str            # the start of stderr; "" for exit 0, where stderr is empty
    kind: str           # README's input kind
    files: dict = {}    # file name -> text
    env: dict = {}
    python: tuple = ()  # run in-process by cli.main, or by these interpreter args
    seconds: float = None   # bound on the time of main


def _matrix(M) -> str:
    return json.dumps(serialize.matrix_to_json(M))


_NEWICK = {depth: "(" * depth + "1,2" + ")" * depth for depth in (2000, 100000)}
_X = np.random.default_rng(23).standard_normal((2, 12, 12))
_A = 0.5 * (_X[0] + 1j * _X[1] + (_X[0] + 1j * _X[1]).conj().T)    # its spectrum overflows


def _regular(n) -> str:
    """Scenario of the flat regular n-gon of unit sides."""
    return json.dumps({"r": [1] * n, "angles": [0] * (n - 3),
                       "d": [math.sin(k * math.pi / n) / math.sin(math.pi / n)
                             for k in range(2, n - 1)]})


_NUMBER, _SHAPE = "number out of range or fractional", "JSON of the wrong shape"
_OVERFLOW, _NONFINITE, _PHASE = "float64 overflow", "non-finite number", "det not real positive"
_CONFIG, _MISSING, _DEEP = "configuration value", "missing input flag", "deep nesting"
_POLYGON, _NO_FILE = "polygon --r 1,1,1,1 --d 3 --angles 0", "gt-pattern --in /nonexistent/A.json"

CORPUS = [
    Row("scenario-fractional-diagonal", "polygon --scenario sc.json", 2, "ParseError", _NUMBER,
        {"sc.json": json.dumps({"r": [1, 1, 1, 1], "d": [1.4], "angles": [0.3],
                                "bends": [{"diagonal": [1.5, 2.7], "theta": 0.5}]})}),
    *(Row(f"bad-scenario-{label}", "polygon --scenario sc.json", 2, "ParseError", kind,
          {"sc.json": text}) for label, kind, text in [
        ("list", _SHAPE, "[1, 1, 1, 1]"),
        ("5000-digit-integer", _NUMBER, '{"r": [1, 1, 1, 1], "d": [' + "1" * 5000 + "]}"),
        ("no-sides", _SHAPE, '{"d": [1.5]}'),
        ("bend-without-theta", _SHAPE,
         '{"r": [1, 1, 1, 1], "d": [1.4], "angles": [0], "bends": [{"diagonal": [1, 2]}]}')]),
    # every refusal names a run by its ends, not by its 20 000 indices
    Row("bend-of-20000-indices", "polygon --scenario sc.json", 1, "InvariantViolation: diagonal "
        "indices must lie in 1..4: 1..20000\n", "diagonal outside the polygon",
        {"sc.json": json.dumps({"r": [1, 1, 1, 1], "d": [1.4], "angles": [0],
                                "bends": [{"diagonal": list(range(1, 20001)), "theta": 0.5}]})}),
    Row("missing-file", _NO_FILE, 2, "FileNotFoundError", "missing file"),
    Row("malformed-json", "gt-pattern --in bad.json", 2, "ParseError", "malformed JSON",
        {"bad.json": "{not json"}),
    Row("nan-matrix-entry", "flow --in B.json", 1, "InvariantViolation", _NONFINITE,
        {"B.json": '{"n": 1, "entries": [[[NaN, 0]]]}'}),
    *(Row(f"overflowing-determinant-{scale:.0e}".replace("+", ""), "flow --in B.json", 1,
          "InvariantViolation", _OVERFLOW, {"B.json": _matrix(np.diag(np.full(5, scale)))})
      for scale in (1e200, 1e62)),
    # det = 1e200 is finite, but each adjugate entry is 1e160, so |adj|^2
    # overflows: the field must be refused, not read as 0
    Row("overflowing-gradient", "flow --in B.json", 1, "InvariantViolation", _OVERFLOW,
        {"B.json": _matrix(np.diag(np.full(5, 1e40)))}),
    # finite entries, but sigma_max^2 = 1e400: the contraction names the
    # overflow instead of failing on its own non-finite result
    Row("overflowing-square", "contract --in B.json", 1, "InvariantViolation: sigma_max^2 "
        "overflows float64; the contraction is undefined\n", _OVERFLOW,
        {"B.json": _matrix(np.diag([1e200, 1e-200, 1.0]))}),
    # det 1e-12 + 1e-10i is 89 degrees off the real axis
    Row("start-of-large-phase", "flow --in B.json", 1,
        "InvariantViolation: flow start needs real positive", _PHASE,
        {"B.json": _matrix(np.diag([1e-4 * (1 + 100j), 1e-4, 1e-4]))}),
    Row("negative-determinant", "flow --in B.json", 1, "InvariantViolation", _PHASE,
        {"B.json": _matrix(np.diag([1.0, -1.0]))}),
    Row("empty-matrix", "contract --in empty.json", 2,
        "ParseError: empty.json: n must be >= 1, got 0\n", _NUMBER,
        {"empty.json": '{"n": 0, "entries": []}'}),
    # the side lengths are finite, their squares are not
    Row("overflowing-polygon", "polygon --r 1e200,1e200,1e200", 1, "InvariantViolation: edge "
        "coordinate 1.000e+200 overflows float64 in a squared run length\n", _OVERFLOW),
    Row("infeasible-polygon", _POLYGON, 1, "TriangleInfeasible", "infeasible triangle"),
    *(Row(f"non-finite-polygon-{label}", f"polygon {argv}", 1, "InvariantViolation", _NONFINITE)
      for label, argv in [("d-nan", "--r 1,1,1,1 --d nan --angles 0"),
                          ("r-nan", "--r nan,1,1,1 --d 1 --angles 0"),
                          ("angles-inf", "--r 1,1,1,1 --d 1.4 --angles inf"),
                          ("r-inf", "--r 1,1,1,inf --d 1 --angles 0")]),
    *(Row(label, f"flow --in B.json {argv}", 2, "ParseError", "bad --samples",
          {"B.json": _matrix(np.diag([2.0, 0.5]))})
      for label, argv in [("negative-samples", "--samples -1 --out t.csv"),
                          ("samples-without-out", "--samples 5")]),
    Row("non-finite-spectrum", "gt-pattern --in A.json", 1, "InvariantViolation", _OVERFLOW,
        {"A.json": _matrix(_A / np.max(np.abs(_A)) * 1.5e308)}),
    Row("deep-newick-100000", f"tree-count --tree {_NEWICK[100000]} --r 1,1", 1,
        "InvariantViolation", _DEEP),
    *(Row(f"deep-newick-{depth}-unbalanced", f"tree-count --tree {_NEWICK[depth]}) --r 1,1", 2,
          "ParseError", _DEEP) for depth in (2000, 100000)),
    *(Row(f"huge-weight-{label}", argv, 1, "InvariantViolation", "weight past its bound",
          python=_TIMED, seconds=1.0) for label, argv in [
        ("tree-count", "tree-count --tree (1,2,3) --r 1234567890,1234567890,2"),
        ("cg", "branch --cg 1234567890,1234567890,2"),
        ("gt-spread", "gt-count --weight 100000,0,0"),
        ("gt-count", "gt-count --weight " + ",".join(str(v) for v in range(24, -1, -1))),
        ("gt-length", "gt-count --weight " + ",".join(["0"] * 500))]),
    *(Row(f"malformed-matrix-{label}", "contract --in bad.json", 2, "ParseError", kind,
          {"bad.json": text}) for label, kind, text in [
        ("entries-not-a-list", _SHAPE, '{"n": 1, "entries": 5}'),
        ("n-overflows", _NUMBER, '{"n": 1e400, "entries": [[[1, 0]]]}'),
        ("entry-overflows", _NUMBER, '{"n": 1, "entries": [[[1' + "0" * 400 + ', 0]]]}'),
        ("n-past-digit-limit", _NUMBER, '{"n": ' + "1" * 5000 + ', "entries": []}'),
        ("deep-nesting", _DEEP, "[" * 100000)]),
    *(Row(f"missing-input-{label}", argv, 2, f"ParseError: {argv.split()[0]} needs {flags}\n",
          _MISSING) for label, argv, flags in [
        ("flow", "flow --m 2", "--in"),
        ("gt-pattern", "gt-pattern", "--in"),
        ("contract", "contract --out C.json", "--in"),
        ("gt-count", "gt-count", "--weight"),
        ("tree-count-tree", "tree-count --r 1,1", "--tree"),
        ("tree-count-r", "tree-count --tree (1,2)", "--r"),
        ("branch", "branch", "one of --cg, --pieri, --dominance, --polygon-monoid, --chain")]),
    Row("show-config-out-of-range-override", "--show-config flow --m 0", 1,
        "InvariantViolation", _CONFIG),
    Row("config-env-seed-abc", "verify", 2, "ParseError", _CONFIG, env={"MFLOW_SEED": "abc"}),
    Row("config-env-m-float", "--show-config", 2, "ParseError", _CONFIG, env={"MFLOW_M": "1.5"}),
    Row("config-flag-m-0", "flow --in missing.json --m 0", 1, "InvariantViolation", _CONFIG),
    Row("config-flag-seed-negative", "verify --seed -1", 1, "InvariantViolation", _CONFIG),
    # The hostile items of the benchmark's cli-session workload. The matrix
    # loader lets a NaN entry through to the matrix check, so it exits 1, not
    # 2 (ROADMAP, "Carried over").
    Row("cli-session-nan-entry", "flow --in nan.json --out nan.csv", 1, "InvariantViolation",
        _NONFINITE, {"nan.json": '{"n": 3, "entries": [[[1, 0], [0, 0], [0, 0]], '
                                 '[[0, 0], [1, 0], [NaN, 0]], [[0, 0], [0, 0], [1, 0]]]}'}),
    Row("cli-session-malformed-json", "contract --in malformed.json", 2, "ParseError",
        "malformed JSON", {"malformed.json": '{"n": 2, "entries": [[[1, 0], [0, 0]], [[0, 0]'}),
    Row("cli-session-infeasible-triangle", "polygon --r 1,1,1,1 --d 5 --angles 0", 1,
        "TriangleInfeasible", "infeasible triangle"),
    Row("cli-session-deep-newick", f"tree-count --tree {_NEWICK[2000]} --r 1,1", 1,
        "InvariantViolation: leaf_labels must cover exactly the leaves\n", _DEEP),
    Row("module-missing-file", _NO_FILE, 2, "FileNotFoundError", "missing file", python=_MODULE),
    Row("module-infeasible-polygon", _POLYGON, 1, "TriangleInfeasible", "infeasible triangle",
        python=_MODULE),
    # the fan diagonals of n sides sum about n^2 / 2 edge rows, each diagonal
    # one slice of the edge array: 318 800 rows at 800 sides and 71 982 000
    # at 12 000, where the triangulation is 11 997 ranges
    Row("polygon-800-sides", "polygon --scenario sc.json", 0, "", "800 sides",
        {"sc.json": _regular(800)}, seconds=2.0),
    Row("polygon-12000-sides", "polygon --scenario sc.json", 0, "", "12 000 sides",
        {"sc.json": _regular(12000)}, python=_TIMED, seconds=5.0),
]


def _run(row, capsys):
    """(exit code, stdout, stderr, seconds of main or None)."""
    argv = row.argv.split()
    if not row.python:
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        return (code, *capsys.readouterr(), time.perf_counter() - start)
    resource = pytest.importorskip("resource")
    src = os.path.dirname(os.path.dirname(os.path.abspath(mflow.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error", *row.python, *argv], capture_output=True, text=True,
        timeout=60, env=dict(os.environ, PYTHONPATH=src, **row.env),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)))
    if row.python != _TIMED:
        return proc.returncode, proc.stdout, proc.stderr, None
    out, _, seconds = proc.stdout.rstrip("\n").rpartition("\n")
    return proc.returncode, out, proc.stderr, float(seconds)


@pytest.mark.parametrize("row", CORPUS, ids=lambda row: row.label)
def test_hostile_input(row, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for name, text in row.files.items():
        (tmp_path / name).write_text(text)
    for name, value in row.env.items():
        monkeypatch.setenv(name, value)
    code, out, err, elapsed = _run(row, capsys)
    assert code == row.code, err[-300:]
    if row.code == 0:
        assert err == ""
    else:
        assert out == "" and err.startswith(row.err), err[:300]
        assert err.count("\n") == 1 and err.endswith("\n") and len(err.encode()) < 1024
    assert sorted(os.listdir(tmp_path)) == sorted(row.files)
    if row.seconds is not None:
        assert elapsed < row.seconds
