"""The weight threshold g(d, n) that decides invertibility, its tolerances, and the regime of n.

Eigenvalue i of a mixture, 1 - d/(d-1) (1 - x_i) p(t), vanishes iff it does at
sup p; ``_reaches_zero`` decides that for every family. Where p attains its
sup, lambda there must be within ``EIGENVALUE_ATOL`` of 0, as in the numeric
scan. The exponential p only approaches 1/n, so its output map is invertible
iff every weight clears g(d, n) = 1 - n(d-1)/d less ``THRESHOLD_ATOL``
(``_invertible_floor``); its singular time, the Monte Carlo count and
``invertibility.output_invertible`` read that floor here, so they agree on
every weight and the eigenvalue commands run without ``paulimix.measure``.
g is exact for the float n (``_threshold_ratio``, an integer ratio that the
quadrature reads too) and rounded once, so no digit cancels at large d.

``classify_regime`` places n against the intermediate interval
[d^2/(d^2-1), d/(d-1)] (``_interval``, which the measure routes read too).
It lives here, beside g(d, n), so the ``regime`` command loads this module,
``finite_field`` and ``errors`` and nothing of ``measure``.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import Frozen, ValidationError
from .finite_field import factor_prime_power

# a weight this close below g(d, n) is on the boundary, which is invertible: the singular time diverges
THRESHOLD_ATOL = 1e-12
# an eigenvalue this close to 0 is 0, in the singularity rule, the scan and the CP check
EIGENVALUE_ATOL = 1e-12


def _check_n(n: float) -> None:
    if not (math.isfinite(n) and n >= 1):
        raise ValidationError(f"decoherence parameter must be finite and >= 1, got {n}")


def _threshold_ratio(d: int, n: float) -> tuple[int, int]:
    """g(d, n) = 1 - n(d-1)/d for the float n, exactly, as (numerator, denominator); d >= 2 and n >= 1."""
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    _check_n(n)
    a, b = n.as_integer_ratio()
    return b * d - a * (d - 1), b * d


def weight_threshold(d: int, n: float) -> float:
    """g(d, n) = 1 - n(d-1)/d, exact for the float n and rounded once (int true division rounds correctly)."""
    num, den = _threshold_ratio(d, n)
    return num / den


def _invertible_floor(d: int, n: float) -> float:
    """The smallest weight that keeps the output map invertible: g(d, n) - ``THRESHOLD_ATOL``."""
    return weight_threshold(d, n) - THRESHOLD_ATOL


def _reaches_zero(d: int, n_sup: float, attained: bool, x: float) -> bool:
    """Whether lambda = 1 - d/(d-1) (1 - x) p vanishes for some t, where sup p = 1/``n_sup``.

    A sup p only approaches needs x below ``_invertible_floor``; an attained
    one needs lambda there to be at most ``EIGENVALUE_ATOL``.
    """
    if attained:
        return 1.0 - d / (d - 1) * (1.0 - x) / n_sup <= EIGENVALUE_ATOL
    return x < _invertible_floor(d, n_sup)


# both ends of the interval exceed 1 for every d, but in floats d^2/(d^2-1)
# rounds to 1 from d = 94906266, where d^2 - 1 >= 2^53, and d/(d-1) from about
# 9e15; each end is kept at least the next float above 1
_ABOVE_ONE = 1.0 + 2.0**-52


def _interval(d: int) -> tuple[float, float]:
    return max(d * d / (d * d - 1.0), _ABOVE_ONE), max(d / (d - 1.0), _ABOVE_ONE)


class RegimeKind(str, Enum):
    INVERTIBLE_INPUTS = "invertible_inputs"
    INTERMEDIATE = "intermediate_noninvertible"
    ALWAYS_NONINVERTIBLE = "always_noninvertible_output"


class Regime(Frozen):
    """Where n sits relative to the interval [d^2/(d^2-1), d/(d-1)).

    Below ``lower`` = d^2/(d^2-1) every mixture is noninvertible; at or
    above ``upper`` = d/(d-1) the inputs, hence the outputs, are invertible.
    """

    def __init__(self, d: int, n: float, kind: RegimeKind, lower: float, upper: float) -> None:
        vars(self).update(d=d, n=n, kind=kind, lower=lower, upper=upper)

    def to_payload(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "classification": self.kind.value,
            "interval": {"lower": self.lower, "upper": self.upper},
        }


def classify_regime(d: int, n: float) -> Regime:
    """Classify n for a prime-power dimension d.

    The lower endpoint n = d^2/(d^2-1) counts as intermediate (the
    invertible set there is just the equal-mixing point, measure zero).
    """
    factor_prime_power(d)
    _check_n(n)
    lower, upper = _interval(d)
    if n >= upper:
        kind = RegimeKind.INVERTIBLE_INPUTS
    elif n < lower:
        kind = RegimeKind.ALWAYS_NONINVERTIBLE
    else:
        kind = RegimeKind.INTERMEDIATE
    return Regime(d=d, n=n, kind=kind, lower=lower, upper=upper)
