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

import mflow

_COMPARISON_TOL = {"validate_interlacing", "same_fiber", "contracted_equal"}
_KNOBS = {"tol", "grad_floor", "scale", "integral", "traceless_part"}


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
