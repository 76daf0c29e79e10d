"""File formats: matrix / pattern / polygon / polygon scenario JSON and the
trajectory CSV.

All writers are atomic (temp file + rename) and floats round-trip exactly
through JSON. Loaders raise ParseError with field context on malformed input.
"""

from __future__ import annotations

import json
import math
import os
import tempfile

import numpy as np

from .errors import ParseError
from .flow import FlowTrajectory, _diagnostics
from .gelfand_tsetlin import GTPattern
from .matrices import as_complex_matrix
from .polygons import PolygonConfig

__all__ = [
    "matrix_to_json", "matrix_from_json", "save_matrix", "load_matrix",
    "pattern_to_json", "pattern_from_json", "save_pattern", "load_pattern",
    "polygon_to_json", "polygon_from_json",
    "save_polygon", "load_polygon", "scenario_from_json", "load_scenario",
    "save_trajectory", "atomic_write_text",
]


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path unchanged (no newline translation) via a temp file
    and a rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".mflow-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:
        # an integer literal past int()'s digit limit, or nesting too deep
        raise ParseError(f"{path}: unreadable JSON ({type(exc).__name__})") from exc


def matrix_to_json(M) -> dict:
    A = as_complex_matrix(M)
    return {
        "n": int(A.shape[0]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in A],
    }


def matrix_from_json(obj, where: str = "matrix") -> np.ndarray:
    try:
        n = _integer(obj["n"])
        entries = obj["entries"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: expected fields 'n' and 'entries'") from exc
    if n < 1:
        raise ParseError(f"{where}: n must be >= 1, got {n}")
    try:
        square = len(entries) == n and all(len(row) == n for row in entries)
    except TypeError:       # entries or a row without a length
        square = False
    if not square:
        raise ParseError(f"{where}: entries are not an {n}x{n} array")
    try:
        M = np.array([[complex(_number(re), _number(im)) for re, im in row]
                      for row in entries])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: entries must be [re, im] pairs") from exc
    return M


def save_matrix(path: str, M) -> None:
    atomic_write_text(path, json.dumps(matrix_to_json(M)) + "\n")


def load_matrix(path: str) -> np.ndarray:
    return matrix_from_json(_load_json(path), where=path)


def pattern_to_json(P: GTPattern) -> dict:
    return {"rows": [[float(v) for v in row] for row in P.rows]}


def pattern_from_json(obj, where: str = "pattern") -> GTPattern:
    try:
        rows = obj["rows"]
        return GTPattern(tuple(tuple(_finite(v) for v in row) for row in rows))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: expected triangular 'rows' of finite numbers") from exc


def save_pattern(path: str, P: GTPattern) -> None:
    atomic_write_text(path, json.dumps(pattern_to_json(P)) + "\n")


def load_pattern(path: str) -> GTPattern:
    return pattern_from_json(_load_json(path), where=path)


def polygon_to_json(P: PolygonConfig) -> dict:
    return {"edges": [[float(x) for x in e] for e in P.edges]}


def polygon_from_json(obj, where: str = "polygon") -> PolygonConfig:
    try:
        edges = np.array([[_finite(x) for x in e] for e in obj["edges"]], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: expected an 'edges' list of finite 3-vectors") from exc
    return PolygonConfig(edges)


def save_polygon(path: str, P: PolygonConfig) -> None:
    atomic_write_text(path, json.dumps(polygon_to_json(P)) + "\n")


def load_polygon(path: str) -> PolygonConfig:
    return polygon_from_json(_load_json(path), where=path)


def _number(value) -> float:
    """A JSON number as a float, refusing strings and booleans. Matrix
    entries are read through it, so a NaN entry reaches the matrix check."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    return float(value)


def _finite(value) -> float:
    """A _number that is finite. The pattern, polygon and scenario loaders
    read their numbers through it, so anything else is a ParseError."""
    x = _number(value)
    if not math.isfinite(x):
        raise ValueError(f"non-finite number {x}")
    return x


def _integer(value) -> int:
    """A JSON integer, refusing booleans and numbers with a fraction part."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _list_of(value, kind) -> list:
    if not isinstance(value, list):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return [kind(v) for v in value]


def scenario_from_json(obj, where: str = "scenario"):
    """(r, d, angles, bends) of a polygon scenario object.

    r is required; d defaults to no diagonals, angles to zeros and bends to
    none. Each bend is a (diagonal, theta) pair, diagonal a list of integer
    edge indices.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: a scenario is a JSON object, got {type(obj).__name__}")
    if "r" not in obj:
        raise ParseError(f"{where}: missing side lengths 'r'")
    try:
        r = _list_of(obj["r"], _finite)
        d = _list_of(obj.get("d", []), _finite)
        angles = _list_of(obj.get("angles", [0.0] * max(0, len(r) - 3)), _finite)
        bends = [(_list_of(step["diagonal"], _integer), _finite(step["theta"]))
                 for step in _list_of(obj.get("bends", []), dict)]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"{where}: expected finite number lists 'r', 'd' and 'angles', and "
                         "'bends' as a list of {'diagonal': [integers], 'theta': t}") from exc
    return r, d, angles, bends


def load_scenario(path: str):
    return scenario_from_json(_load_json(path), where=path)


def save_trajectory(path: str, traj: FlowTrajectory, samples: int | None = None) -> None:
    """Write a flow trajectory as CSV.

    Columns: t, re_ij/im_ij row-major, det_re, det_im, mu_drift (max-norm
    drift of the traceless right momentum from t = 0). Rows are the accepted
    steps, or a uniform resampling when `samples` is given; the final row is
    always the snapped terminal at the nominal end time start_det^(1/m).
    """
    n = traj.terminal.shape[0]
    header = ["t"]
    for i in range(n):
        for j in range(n):
            header += [f"re_{i}{j}", f"im_{i}{j}"]
    header += ["det_re", "det_im", "mu_drift"]

    if samples is None:
        ts, mats = traj.times(), traj.points
    else:
        ts = np.linspace(0.0, traj.times()[-1], int(samples))
        mats = [traj.at(float(t)) for t in ts]
    # the start leads the stack as the drift's base; its row is not written
    Bs = np.stack([traj.points[0], *mats, traj.terminal])
    dets, drift = _diagnostics(Bs)
    d0 = traj.start_det
    # the unit-rate field reaches det = 0 at time d0, the m-field at d0^(1/m)
    ts = [0.0, *ts, d0 ** (1.0 / traj.config.m)]
    rows = np.column_stack([ts, Bs.view(float).reshape(len(Bs), -1),
                            dets.real, dets.imag, drift])
    # what csv.writer's excel dialect writes for these fields: no field needs
    # quoting, a float is its repr, and every row ends in \r\n
    lines = [",".join(header), *(",".join(map(repr, row)) for row in rows[1:].tolist()), ""]
    atomic_write_text(path, "\r\n".join(lines))
