"""The weight threshold g(d, n) that decides invertibility, and the regime of n.

Eigenvalue i of a mixture, 1 - d/(d-1) (1 - x_i) p(t), vanishes iff it does at
sup p = 1/n_sup, where it is d(x_i - g)/((d-1) n_sup) with g = g(d, n_sup).
``_reaches_zero`` decides that exactly, for every family, from the gap g - x_i
as an integer ratio (``_gap``): x_i < g, or x_i = g where p attains its sup.
The singular times and ``invertibility.output_invertible`` read it, so the
eigenvalue commands run without ``paulimix.measure``. g is exact for the float
n (``_threshold_ratio``, which the quadrature reads too) and rounded once
(``weight_threshold``, the Monte Carlo threshold), so no digit cancels at large
d. ``EIGENVALUE_ATOL`` is the tolerance of the float routes only: the numeric
scan, the CP check and the generator.

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

# an eigenvalue this close to 0 is 0, in the numeric scan, the CP check and the generator
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


def _gap(d: int, n: float, x: float) -> tuple[int, int]:
    """g(d, n) - x for the float n and weight x, exactly, as (numerator, denominator > 0)."""
    num, den = _threshold_ratio(d, n)
    a, b = x.as_integer_ratio()
    return num * b - a * den, den * b


def _reaches_zero(d: int, n_sup: float, attained: bool, x: float) -> bool:
    """Whether lambda = 1 - d/(d-1) (1 - x) p vanishes for some t, where sup p = 1/``n_sup``; exact.

    At the sup, lambda = d(x - g)/((d-1) n_sup) with g = g(d, n_sup): it
    reaches 0 iff x < g, or x = g where p attains its sup.
    """
    gap = _gap(d, n_sup, x)[0]
    return gap > 0 or (attained and gap == 0)


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
