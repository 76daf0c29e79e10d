"""The public API takes no tolerance knobs: the numerical tolerances are
module constants (README lists them). The one tolerance that stays a
parameter, because its callers pass different values, is the comparison
tolerance of the equality predicates. The walk covers the configuration
(Config) too."""

import importlib
import inspect
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
