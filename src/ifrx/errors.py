"""Exception types shared across the package."""


class IfrxError(Exception):
    """Base class for all package errors."""


class InvalidInputError(IfrxError, ValueError):
    """An argument violates an operation's preconditions."""


class ParseError(InvalidInputError):
    """A text input (channel file, grid spec, CSV) could not be parsed."""


class SingularMatrixError(IfrxError):
    """A pivot fell below the singularity threshold during elimination."""


class ConvergenceError(IfrxError):
    """LAPACK's symmetric eigensolver (``eigh``) raised ``LinAlgError``."""


class DegenerateDirectionError(IfrxError):
    """A search direction is numerically zero in every coordinate."""


class InstanceTooLargeError(IfrxError):
    """An enumeration would hold more rows than its limit."""


class NotInvertibleModPError(IfrxError):
    """An integer matrix is singular over the requested prime field."""

