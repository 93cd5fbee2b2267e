"""The weight threshold g(d, n) that decides invertibility, and its tolerance.

For the exponential family the output map is invertible exactly when every
mixing weight clears g(d, n) = 1 - n(d-1)/d. The measure routes, the
families' singular times and ``invertibility.output_invertible`` all read
the threshold and its tolerance from here, so the eigenvalue commands run
without ``paulimix.measure``.
"""

from __future__ import annotations

import math

from .errors import ValidationError

# weights this close to the threshold g(d, n) count as on the boundary, which
# is invertible (the singular time diverges); absorbs float noise in g itself
THRESHOLD_ATOL = 1e-12


def _check_n(n: float) -> None:
    if not (math.isfinite(n) and n >= 1):
        raise ValidationError(f"decoherence parameter must be finite and >= 1, got {n}")


def weight_threshold(d: int, n: float) -> float:
    """g(d, n) = 1 - n(d-1)/d, after checking d >= 2 and n >= 1."""
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    _check_n(n)
    return 1.0 - n * (d - 1) / d
