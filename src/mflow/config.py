"""Run parameters of the determinant flow and of `mflow verify`, with
MFLOW_* environment overrides.

Precedence (resolved by the CLI): command-line flag > MFLOW_<NAME> env var
> built-in default. The numerical tolerances and budgets that no caller
sets to a second value are module constants next to the function that owns
them (`flow.REL_TOL`, `matrices.CLUSTER_TOL`, ...), not fields here.
"""

from __future__ import annotations

import dataclasses
import os

from .branching import _integers
from .errors import InvariantViolation, ParseError


@dataclasses.dataclass(frozen=True)
class Config:
    """Normalization index m of the flow and the seed of the invariant
    suite."""

    m: int = 1
    seed: int = 0

    def __post_init__(self):
        # integral floats and numpy ints are stored as ints; NaN, infinities
        # and fractions raise InvariantViolation
        for f in dataclasses.fields(self):
            (value,) = _integers((getattr(self, f.name),), f.name)
            object.__setattr__(self, f.name, value)
        if self.m < 1:
            raise InvariantViolation("normalization index m must be >= 1")
        if self.seed < 0:
            raise InvariantViolation("seed must be >= 0")

    def describe(self) -> str:
        return "\n".join(f"{f.name} = {getattr(self, f.name)}" for f in dataclasses.fields(self))


ENV_PREFIX = "MFLOW_"


def env_var_name(field: str) -> str:
    return ENV_PREFIX + field.upper()


def flag_name(field: str) -> str:
    """The command-line flag of a field: --m, --seed."""
    return "--" + field


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
