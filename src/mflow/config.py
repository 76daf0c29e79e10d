"""Run parameters of the determinant flow and of `mflow verify`, with
MFLOW_* environment overrides.

Precedence (resolved by the CLI): command-line flag > MFLOW_<NAME> env var
> built-in default. The numerical tolerances that no caller sets to a
second value are module constants next to the function that owns them
(`matrices.CLUSTER_TOL`, `polygons.CLOSURE_TOL`, ...), not fields here.
"""

from __future__ import annotations

import dataclasses
import math
import os

from .errors import InvariantViolation, ParseError


@dataclasses.dataclass(frozen=True)
class Config:
    """Normalization index m, the DP45 error tolerances, the stop fiber
    Re det = det_stop_tol and the budget of accepted plus rejected steps of
    the flow, and the seed of the invariant suite."""

    m: int = 1
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    det_stop_tol: float = 1e-6
    max_steps: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise InvariantViolation("normalization index m must be >= 1")
        tols = (self.rel_tol, self.abs_tol, self.det_stop_tol)
        if not all(math.isfinite(v) and v > 0 for v in tols):
            raise InvariantViolation("tolerances must be positive and finite")
        if self.seed < 0:
            raise InvariantViolation("seed must be >= 0")

    def describe(self) -> str:
        return "\n".join(f"{f.name} = {getattr(self, f.name)}" for f in dataclasses.fields(self))


ENV_PREFIX = "MFLOW_"


def _spelling(field: str) -> str:
    """TOL_REL for rel_tol, MAX_STEPS for max_steps, M for m: tolerance
    fields drop their "_tol" suffix behind a TOL_ marker."""
    if field.endswith("_tol"):
        field = "tol_" + field[:-len("_tol")]
    return field.upper()


def env_var_name(field: str) -> str:
    return ENV_PREFIX + _spelling(field)


def flag_name(field: str) -> str:
    """The command-line flag of a field: --tol-rel, --max-steps, --m."""
    return "--" + _spelling(field).lower().replace("_", "-")


def load_config(environ=None, **overrides) -> Config:
    """Build a Config from defaults, environment, then explicit overrides.

    Overrides with value None are ignored so CLI flags can be passed through
    unconditionally. An env value that does not parse as the field's type
    raises ParseError; an out-of-range value raises InvariantViolation.
    """
    environ = os.environ if environ is None else environ
    values = {}
    for f in dataclasses.fields(Config):
        raw = environ.get(env_var_name(f.name))
        if raw is not None:
            kind = type(f.default)
            try:
                values[f.name] = kind(raw)
            except ValueError:
                raise ParseError(f"{env_var_name(f.name)}={raw!r}: expected "
                                 f"{kind.__name__}") from None
    for name, value in overrides.items():
        if value is not None:
            values[name] = value
    return Config(**values)
