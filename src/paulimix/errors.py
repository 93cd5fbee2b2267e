"""Exception hierarchy shared across the package.

``ValidationError`` subclasses mark bad input caught before any real
computation starts (the CLI maps them to exit code 2); ``ComputationError``
subclasses mark failures of a well-formed request (exit code 1).
"""


class PaulimixError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(PaulimixError, ValueError):
    """Invalid input: bad flags, malformed weights, broken preconditions."""


class NotPrimePowerError(ValidationError):
    """The requested dimension is not a prime power, so no d+1 MUBs exist."""


class NegativeTimeError(ValidationError):
    """Decoherence functions are defined for t >= 0 only."""


class NonHermitianError(ValidationError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


class ComputationError(PaulimixError):
    """A well-formed request that cannot be completed."""


class RegimeMismatchError(ComputationError):
    """The decoherence parameter lies outside the regime the call requires."""


class RateSingularError(ComputationError):
    """The decay rate diverges at the requested time."""


class SingularAtTimeError(ComputationError):
    """The map is not invertible at the requested time."""


class SingularAtGridPointError(ComputationError):
    """A propagator grid point hits a zero eigenvalue of the map."""
