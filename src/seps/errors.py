"""Exception hierarchy shared across the package.

Every error raised on a user input path derives from SepsError so the CLI
can map it to a stable exit code; NumericalError subclasses map to the
numerical-failure code instead.
"""


class SepsError(Exception):
    """Base class for all package errors."""


class ShapeError(SepsError):
    """Operands have incompatible or unsupported shapes."""


class GraphError(SepsError):
    """Invalid use of the compute graph (e.g. gradient of a non-scalar)."""


class BankFormatError(SepsError):
    """Feature-bank file is malformed or not a bank at all."""


class BankInvariantError(SepsError):
    """In-memory bank violates a structural invariant."""


class ConfigError(SepsError):
    """Rejected configuration key or value."""


class NoPatchesSelectedError(SepsError):
    """Both decision branches dropped every patch."""


class DegenerateVectorError(SepsError):
    """A zero-norm vector reached a cosine computation."""


class NumericalError(SepsError):
    """Base class for runtime numerical failures."""


class NonFiniteError(NumericalError):
    """A public operation produced NaN or Inf."""


class DivergenceError(NumericalError):
    """Optimizer saw a non-finite gradient."""
