"""Exception hierarchy and the immutable-record base, shared across the package.

``ValidationError`` subclasses mark bad input caught before any real
computation starts (the CLI maps them to exit code 2); ``ComputationError``
subclasses mark failures of a well-formed request (exit code 1).

Every module loads this one, so ``Frozen`` lives here: the base of the
records that never change once built.
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


class Frozen:
    """Base of the immutable records: each sets its attributes once, in ``__init__``.

    ``__init__`` stores them with ``vars(self).update(...)``; after that,
    assigning or deleting an attribute raises AttributeError. Two records
    are equal when they are of the same class with equal attributes, and
    equal records hash alike. ``to_payload`` gives the attributes as a
    dict, in constructor order; a record whose JSON differs from its
    attributes overrides it.
    """

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def to_payload(self) -> dict:
        return dict(vars(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"
