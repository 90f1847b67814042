"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes through its table ``cli._EXIT_CODES``:
parameter/usage problems (bad grid flags included) -> 1, file validation
problems -> 2, numerical failures -> 3.  A grid read from a file is wrapped
as FieldFormatError, so it stays a validation problem.
"""


class MosurfError(Exception):
    """Base class for all package errors."""


class ParameterError(MosurfError, ValueError):
    """Invalid parameter value (bad seed family, |v| >= 1, m = 0, ...)."""


class GridError(ParameterError):
    """Grid too small for the stencils, or a non-positive or absurd spacing."""


class DegenerateSeedError(ParameterError):
    """Seed parameters produce a degenerate surface (e.g. alpha0 = 0)."""


class FieldFormatError(MosurfError, ValueError):
    """Malformed or non-finite field/report file content."""


class SingularGridError(MosurfError, RuntimeError):
    """Numerical failure: all nodes singular/flagged, or non-finite output."""
