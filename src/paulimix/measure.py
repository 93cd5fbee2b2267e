"""The fraction of the mixing simplex that yields invertible output maps.

For the exponential decoherence family the output map is invertible exactly
when every mixing weight clears g(d, n) = 1 - n(d-1)/d. Three independent
routes to the resulting simplex fraction live here:

  * ``delta_closed_form``: the closed form ((d^2 (n-1) - n)/d)^d on the
    intermediate interval [d^2/(d^2-1), d/(d-1)], clamped to 0/1 outside;
  * ``delta_quadrature``: the nested integral over the admissible region
    with per-level bounds [g, 1 - (d-j) g - sum of earlier weights],
    normalized by the full simplex volume 1/d! (Gauss-Legendre per level,
    exact for these polynomial integrands);
  * ``delta_monte_carlo``: uniform Dirichlet sampling with a min-weight
    test and a binomial error bar.

Plus the prime-power dimension sweep used for the superexponential-growth
table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import RegimeMismatchError, ValidationError
from .finite_field import factor_prime_power, is_prime_power

_MC_BATCH = 1 << 17

# weights this close to the threshold g(d, n) count as on the boundary, which
# is invertible (the singular time diverges); absorbs float noise in g itself
THRESHOLD_ATOL = 1e-12


@dataclass(frozen=True)
class Threshold:
    """The invertibility threshold g(d, n) = 1 - n(d-1)/d on each weight."""

    d: int
    n: float
    g: float


def g_threshold(d: int, n: float) -> Threshold:
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    if n < 1:
        raise ValidationError(f"decoherence parameter must be >= 1, got {n}")
    return Threshold(d=d, n=n, g=1.0 - n * (d - 1) / d)


@dataclass(frozen=True)
class MeasureResult:
    """An invertible-fraction value with its provenance."""

    d: int
    n: float
    delta: float
    method: str  # "closed_form" | "quadrature" | "monte_carlo"
    samples: Optional[int] = None
    stderr: Optional[float] = None
    seed: Optional[int] = None

    def to_payload(self) -> dict:
        return {
            "d": self.d,
            "n": self.n,
            "delta": self.delta,
            "method": self.method,
            "samples": self.samples,
            "stderr": self.stderr,
            "seed": self.seed,
        }


def _interval(d: int) -> tuple[float, float]:
    return d * d / (d * d - 1.0), d / (d - 1.0)


def delta_closed_form(d: int, n: float) -> MeasureResult:
    """Closed-form invertible fraction; 1 above the interval, 0 below."""
    factor_prime_power(d)
    if n < 1:
        raise ValidationError(f"decoherence parameter must be >= 1, got {n}")
    lower, upper = _interval(d)
    if n >= upper:
        delta = 1.0
    elif n <= lower:
        delta = 0.0
    else:
        delta = ((d * d * (n - 1.0) - n) / d) ** d
    return MeasureResult(d=d, n=n, delta=delta, method="closed_form")


def _nested_simplex_integral(d: int, g: float, order: int) -> float:
    """Iterated integral of 1 over {x_j >= g, sum_{j<=m} x_j <= 1 - (d-m) g}.

    Level j integrates x_{j+1} over [g, 1 - (d-j) g - X_j]; the innermost
    level contributes the interval length directly. The integrand at level
    j is a polynomial of degree d-j-1 in the partial sum, so Gauss-Legendre
    with ``order`` nodes is exact once 2*order - 1 >= d - 1.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    partial = np.zeros(1)
    factors = np.ones(1)
    for j in range(d - 1):
        upper = 1.0 - (d - j) * g - partial
        width = np.maximum(upper - g, 0.0)
        mid = 0.5 * (upper + g)
        half = 0.5 * width
        x = mid[:, None] + half[:, None] * nodes[None, :]
        partial = (partial[:, None] + x).reshape(-1)
        factors = (factors[:, None] * half[:, None] * weights[None, :]).reshape(-1)
    last = np.maximum(1.0 - g - partial - g, 0.0)
    return float(np.sum(factors * last))


def delta_quadrature(d: int, n: float, order: Optional[int] = None) -> MeasureResult:
    """Invertible fraction via the nested integral, normalized by 1/d!.

    Only defined on the closed intermediate interval; outside it raises
    RegimeMismatchError.
    """
    factor_prime_power(d)
    if n < 1:
        raise ValidationError(f"decoherence parameter must be >= 1, got {n}")
    lower, upper = _interval(d)
    if not lower <= n <= upper:
        raise RegimeMismatchError(
            f"n={n} outside the intermediate interval [{lower}, {upper}] for d={d}"
        )
    g = g_threshold(d, n).g
    if order is None:
        order = max(4, d // 2 + 2)
    raw = _nested_simplex_integral(d, g, order)
    delta = raw * math.factorial(d)
    return MeasureResult(d=d, n=n, delta=delta, method="quadrature")


def normalization_check(d: int) -> float:
    """The same recursion over the whole simplex (g = 0); must equal 1/d!."""
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    return _nested_simplex_integral(d, 0.0, max(4, d // 2 + 2))


def sample_simplex(n_coords: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from the probability simplex on ``n_coords`` coordinates."""
    e = rng.standard_exponential((samples, n_coords))
    return e / e.sum(axis=1, keepdims=True)


def delta_monte_carlo(d: int, n: float, samples: int, seed: int) -> MeasureResult:
    """Monte-Carlo invertible fraction over uniform simplex draws.

    Deterministic for a fixed seed. The draws come from the first stream
    spawned from the seed, not from the seed itself, so a seed gives the
    same numbers as in earlier releases.
    """
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    g = g_threshold(d, n).g
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    hits = 0
    remaining = samples
    while remaining > 0:
        batch = min(remaining, _MC_BATCH)
        draws = sample_simplex(d + 1, batch, rng)
        hits += int(np.count_nonzero(draws.min(axis=1) >= g - THRESHOLD_ATOL))
        remaining -= batch
    delta = hits / samples
    stderr = math.sqrt(delta * (1.0 - delta) / samples)
    return MeasureResult(
        d=d,
        n=n,
        delta=delta,
        method="monte_carlo",
        samples=samples,
        stderr=stderr,
        seed=seed,
    )


def prime_powers_in(lo: int, hi: int) -> list[int]:
    """All prime powers in [lo, hi], ascending."""
    if not 2 <= lo <= hi:
        raise ValidationError(f"need 2 <= lo <= hi, got lo={lo}, hi={hi}")
    return [d for d in range(lo, hi + 1) if is_prime_power(d)]


@dataclass(frozen=True)
class SweepRow:
    d: int
    delta: float
    log10_delta: float

    def to_payload(self) -> dict:
        return {"d": self.d, "delta": self.delta, "log10_delta": self.log10_delta}


def sweep(
    d_list,
    n: float,
    method: str = "closed_form",
    samples: int = 10**6,
    seed: int = 0,
) -> list[SweepRow]:
    """Invertible fraction per dimension at a fixed n.

    Every dimension must contain n in its closed intermediate interval;
    otherwise a RegimeMismatchError lists all offenders.
    """
    ds = [int(d) for d in d_list]
    offenders = []
    for d in ds:
        factor_prime_power(d)
        lower, upper = _interval(d)
        if not lower <= n <= upper:
            offenders.append(f"d={d} needs n in [{lower:.6g}, {upper:.6g}]")
    if offenders:
        raise RegimeMismatchError(
            f"n={n} outside the intermediate interval for: " + "; ".join(offenders)
        )
    rows = []
    for d in ds:
        if method == "closed_form":
            res = delta_closed_form(d, n)
        elif method == "quadrature":
            res = delta_quadrature(d, n)
        elif method == "monte_carlo":
            res = delta_monte_carlo(d, n, samples=samples, seed=seed)
        else:
            raise ValidationError(f"unknown method {method!r}")
        log10 = math.log10(res.delta) if res.delta > 0 else float("-inf")
        rows.append(SweepRow(d=d, delta=res.delta, log10_delta=log10))
    return rows
