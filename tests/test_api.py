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


def _conjugate_transpose_of(node):
    """The expression E when node is E.conj().T, E.T.conj(), or the same with
    conjugate(); else None."""
    calls = ("conj", "conjugate")
    if isinstance(node, ast.Attribute) and node.attr == "T":
        call = node.value
        if (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr in calls and not call.args):
            return call.func.value
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in calls and not node.args):
        inner = node.func.value
        if isinstance(inner, ast.Attribute) and inner.attr == "T":
            return inner.value
    return None


def _functions(directory):
    """(module name, function node) for every function of directory/*.py."""
    for path in sorted(directory.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.stem, node


def test_one_hermitian_part():
    """matrices._hermitian is the package's one symmetrization X + X*: a sum
    of an expression and its conjugate transpose anywhere else in src/mflow
    fails here (call _hermitian instead)."""
    found = []
    for module, func in _functions(pathlib.Path(mflow.__file__).parent):
        for node in ast.walk(func):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)):
                continue
            for a, b in ((node.left, node.right), (node.right, node.left)):
                base = _conjugate_transpose_of(b)
                if base is not None and ast.unparse(base) == ast.unparse(a):
                    found.append(f"{module}.{func.name}: {ast.unparse(node)}")
    assert found == ["matrices._hermitian: H + H.conj().T"]


def test_one_bending_implementation():
    """polygons._bend is the package's one rotation of polygon edges: bend
    and build_polygon (which bends its flat fan) both rotate through it, so
    a call of polygons._rodrigues from anywhere else in src/mflow fails
    here."""
    callers = {"_rodrigues": [], "_bend": []}
    for module, func in _functions(pathlib.Path(mflow.__file__).parent):
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and _callee(node) in callers:
                callers[_callee(node)].append(f"{module}.{func.name}")
    assert callers["_rodrigues"] == ["polygons._bend"]
    assert sorted(callers["_bend"]) == ["polygons.bend", "polygons.build_polygon"]


def _callee(call):
    return ast.unparse(call.func).split(".")[-1]


def test_one_hostile_input_corpus():
    """The CLI's exit codes 1 and 2 on hostile input are rows of CORPUS in
    tests/test_hostile.py: a test that compares main(...), or a name bound
    to it, with 1 or 2 fails here, but for a monkeypatched LAPACK failure
    and main's parser state between calls, which are no hostile input."""
    found = set()
    for module, func in _functions(pathlib.Path(__file__).parent):
        mains = [node for node in ast.walk(func)
                 if isinstance(node, ast.Call) and _callee(node) == "main"]
        names = {ast.unparse(node.targets[0]) for node in ast.walk(func)
                 if isinstance(node, ast.Assign) and node.value in mains}
        for node in ast.walk(func):
            sides = [node.left, *node.comparators] if isinstance(node, ast.Compare) else []
            if (any(s in mains or ast.unparse(s) in names for s in sides)
                    and any(isinstance(s, ast.Constant) and s.value in (1, 2) for s in sides)):
                found.add(f"{module}.{func.name}")
    assert sorted(found) == ["test_cli.test_lapack_failure_exit_1",
                             "test_cli.test_successive_calls_share_no_state"]
