"""The public API takes no tolerance knobs: the numerical tolerances are
module constants (README lists them). The one tolerance that stays a
parameter, because its callers pass different values, is the comparison
tolerance of the equality predicates. The walk covers the configuration
(Config) too."""

import ast
import importlib
import inspect
import pathlib
import pkgutil

import numpy as np

import mflow
from mflow.flow import integrate_flow

_COMPARISON_TOL = {"validate_interlacing", "same_fiber", "contracted_equal"}
_KNOBS = {"tol", "grad_floor", "scale", "integral", "traceless_part", "allow_degenerate"}


def _public():
    """(name, object) for every name exported by mflow or listed in the
    __all__ of one of its modules."""
    yield from ((name, getattr(mflow, name)) for name in dir(mflow) if not name.startswith("_"))
    for info in pkgutil.iter_modules(mflow.__path__):
        module = importlib.import_module(f"mflow.{info.name}")
        yield from ((name, getattr(module, name)) for name in getattr(module, "__all__", ()))


def _callables():
    """(qualified name, callable) for the public callables and the methods of
    the public classes."""
    for name, obj in _public():
        if not callable(obj):
            continue
        yield name, obj
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if callable(member) and not attr.startswith("__"):
                    yield f"{name}.{attr}", member


def test_no_public_callable_takes_a_tolerance_knob():
    knobs = []
    for name, fn in _callables():
        try:
            params = inspect.signature(fn).parameters
        except (TypeError, ValueError):     # builtins without a signature
            continue
        for p in params:
            if (p in _KNOBS or p.endswith("_tol")) and not (p == "tol" and name in _COMPARISON_TOL):
                knobs.append(f"{name}({p})")
    assert knobs == []


def test_walk_covers_the_api():
    names = dict(_callables())
    assert {"integrate_flow", "vfield", "OrbitFunction.gradient", "eig_hermitian",
            "check_hermitian", "eigenvalue_blocks", "polygon_monoid_member",
            "Config"} <= names.keys()
    assert _COMPARISON_TOL <= names.keys()


def test_benchmark_traced_names_resolve():
    """Every name that bench/spans.py traces is a callable of its mflow
    module; the benchmark itself only warns about a missing one. LAYERS is
    read from the file's source, so nothing under bench/ is executed."""
    source = (pathlib.Path(__file__).parents[1] / "bench" / "spans.py").read_text()
    layers = next(ast.literal_eval(node.value) for node in ast.parse(source).body
                  if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS")
    unresolved = []
    for module, attrs in layers.items():
        for attr in attrs:
            obj = importlib.import_module(f"mflow.{module}")
            for name in attr.split("."):     # "Class.method" names a method
                obj = getattr(obj, name, None)
            if not callable(obj):
                unresolved.append(f"{module}.{attr}")
    assert len(layers) > 5 and unresolved == []


def test_benchmark_trajectory_reads_resolve():
    """Every attribute that the benchmark reads off a trajectory (`traj`) or
    its step counts (`traj.step_stats`, `stats`) exists on a real
    integrate_flow result, so a refactor of FlowTrajectory fails here and
    not in the benchmark. The files are read with ast; nothing under bench/
    is executed."""
    bench = pathlib.Path(__file__).parents[1] / "bench"
    reads = {"traj": set(), "stats": set()}
    for path in ("workloads.py", "spans.py", "tests/test_bench.py"):
        for node in ast.walk(ast.parse((bench / path).read_text())):
            if not isinstance(node, ast.Attribute):
                continue
            owner = ast.unparse(node.value)
            if owner == "traj":
                reads["traj"].add(node.attr)
            elif owner in ("traj.step_stats", "stats"):
                reads["stats"].add(node.attr)
    traj = integrate_flow(np.diag([2.0, 0.5]))
    unresolved = [f"traj.{a}" for a in sorted(reads["traj"]) if not hasattr(traj, a)]
    unresolved += [f"stats.{a}" for a in sorted(reads["stats"])
                   if not hasattr(traj.step_stats, a)]
    assert {"samples", "terminal", "at"} <= reads["traj"]
    assert {"accepted", "rejected"} <= reads["stats"]
    assert unresolved == []
