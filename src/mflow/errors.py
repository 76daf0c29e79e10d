"""Exception hierarchy shared by all mflow modules.

The CLI maps these onto exit codes: DomainError subclasses give exit 1
(with the class name on stderr), ParseError and I/O problems give exit 2.
"""


class MFlowError(Exception):
    """Base class for all mflow errors."""


class DomainError(MFlowError):
    """A mathematically well-posed request outside an operation's domain."""


class InvariantViolation(DomainError):
    """Input fails a structural invariant (Hermitian, unitary, interlacing...)."""


class NotPositiveSemidefinite(DomainError):
    """Matrix has an eigenvalue below -PSD_TOL (1 + |H|) where a PSD matrix is required."""


class SingularLocus(DomainError):
    """Gradient vanished: the vector field is undefined at this point."""


class PrincipalStratumViolation(DomainError):
    """A referenced eigenvalue is degenerate; the operation needs simple spectrum."""


class TriangleInfeasible(DomainError):
    """Side/diagonal lengths violate a triangle inequality."""

    def __init__(self, triple, message=None):
        self.triple = tuple(float(x) for x in triple)
        super().__init__(message or f"triangle inequality violated by {self.triple}")


class UndefinedBendAxis(DomainError):
    """Bending diagonal has (numerically) zero length; no rotation axis."""


class FlowBudgetExceeded(DomainError):
    """Flow integration ran out of steps or the step size underflowed."""


class ParseError(MFlowError):
    """Malformed input file; carries file/field context in the message."""
