"""Exception hierarchy shared by all modules.

Every error raised by the library derives from RabiZetaError.  DomainError
and its siblings signal precondition violations (CLI exit code 2);
NoConvergence signals an honest failure to reach the requested tolerance
(CLI exit code 3).
"""


class RabiZetaError(Exception):
    """Base class for all library errors."""


class DomainError(RabiZetaError):
    """A precondition on the input parameters is violated."""


class PoleError(DomainError):
    """A parameter sits (numerically) on a pole of the requested quantity."""


class NearPole(DomainError):
    """A parameter is closer than the guard radius to an excluded point."""


class HalfIntegerPole(DomainError):
    """epsilon sits on a half-integer pole of an A/B coefficient family."""


class RadiusExceeded(DomainError):
    """The coupling lies outside the convergence radius of the power series."""


class InvalidDimension(DomainError):
    """A matrix/tensor dimension argument is out of range."""


class LengthMismatch(DomainError):
    """An argument list has the wrong length (expected 2m entries)."""


class NoConvergence(RabiZetaError):
    """An iteration hit its cap before reaching the requested tolerance."""


class NodeSingularity(RabiZetaError):
    """An integrand returned a non-finite value at an interior node."""


class SingularOperator(RabiZetaError):
    """A truncated operator is numerically singular (cannot be inverted)."""
