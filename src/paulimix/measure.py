"""The fraction of the mixing simplex that yields invertible output maps.

For the exponential decoherence family the output map is invertible exactly
when every mixing weight clears g(d, n) = 1 - n(d-1)/d. Three independent
routes to the resulting simplex fraction live here:

  * ``delta_closed_form``: the closed form ((d^2 (n-1) - n)/d)^d on the
    intermediate interval [d^2/(d^2-1), d/(d-1)], clamped to 0/1 outside;
  * ``delta_quadrature``: the nested integral over the admissible region
    with per-level bounds [g, 1 - (d-j) g - sum of earlier weights],
    normalized by the full simplex volume 1/d! (exact iterated integral,
    O(d^2) rational operations);
  * ``delta_monte_carlo``: uniform Dirichlet sampling with a min-weight
    test and a binomial error bar.

Plus the prime-power dimension sweep used for the superexponential-growth
table.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .errors import RegimeMismatchError, ValidationError
from .finite_field import factor_prime_power, is_prime_power

# rows of exponential draws per batch: one reused buffer of this many rows
# stays in cache; numpy fills it in C order, so the stream, and with it every
# hit count, does not depend on the batch size
_MC_BATCH = 1 << 12

# weights this close to the threshold g(d, n) count as on the boundary, which
# is invertible (the singular time diverges); absorbs float noise in g itself
THRESHOLD_ATOL = 1e-12


@dataclass(frozen=True)
class Threshold:
    """The invertibility threshold g(d, n) = 1 - n(d-1)/d on each weight."""

    d: int
    n: float
    g: float


def _check_n(n: float) -> None:
    if not (math.isfinite(n) and n >= 1):
        raise ValidationError(f"decoherence parameter must be finite and >= 1, got {n}")


def g_threshold(d: int, n: float) -> Threshold:
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    _check_n(n)
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
    _check_n(n)
    lower, upper = _interval(d)
    if n >= upper:
        delta = 1.0
    elif n <= lower:
        delta = 0.0
    else:
        delta = ((d * d * (n - 1.0) - n) / d) ** d
    return MeasureResult(d=d, n=n, delta=delta, method="closed_form")


def _nested_simplex_integral(d: int, g: Fraction) -> Fraction:
    """Iterated integral of 1 over {x_j >= g, sum_{j<=m} x_j <= 1 - (d-m) g}, exactly.

    Level j integrates x_{j+1} over [g, 1 - (d-j) g - s], s the sum of the
    earlier weights: F_j(s) = G(1 - (d-j) g) - G(s + g), G the antiderivative
    of F_{j+1}, from F_{d-1}(s) = 1 - 2g - s. Each F_j is kept in v = s + (d-1-j) g,
    where the limits are [v, 1 - 2g] at every level, so the integral is O(d^2).
    """
    if (d + 1) * g >= 1:
        return Fraction(0)  # the region is empty or a single point
    top = 1 - 2 * g
    top_powers = [top**k for k in range(1, d + 1)]
    poly = [top, Fraction(-1)]
    for _ in range(d - 1):
        anti = [c / (k + 1) for k, c in enumerate(poly)]
        poly = [sum(a * t for a, t in zip(anti, top_powers))] + [-a for a in anti]
    return sum(c * ((d - 1) * g) ** k for k, c in enumerate(poly))


def delta_quadrature(d: int, n: float) -> MeasureResult:
    """Invertible fraction via the nested integral, normalized by 1/d!.

    Exact iterated integral, O(d^2) rational operations: g is taken exactly
    from the float n, so the result is the integral for that n rounded once.
    Only defined on the closed intermediate interval; outside it raises
    RegimeMismatchError.
    """
    factor_prime_power(d)
    _check_n(n)
    lower, upper = _interval(d)
    if not lower <= n <= upper:
        raise RegimeMismatchError(
            f"n={n} outside the intermediate interval [{lower}, {upper}] for d={d}"
        )
    g = 1 - Fraction(n) * (d - 1) / d
    delta = float(_nested_simplex_integral(d, g) * math.factorial(d))
    return MeasureResult(d=d, n=n, delta=delta, method="quadrature")


def normalization_check(d: int) -> float:
    """The same recursion over the whole simplex (g = 0); must equal 1/d!."""
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    return float(_nested_simplex_integral(d, Fraction(0)))


def sample_simplex(n_coords: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform draws from the probability simplex on ``n_coords`` coordinates."""
    e = rng.standard_exponential((samples, n_coords))
    return e / e.sum(axis=1, keepdims=True)


def _check_mc(samples: int, seed: int) -> None:
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


def _mc_hits(d: int, h: float, samples: int, seed: int) -> int:
    """How many of ``samples`` uniform simplex draws on d+1 coordinates have min weight >= h.

    A draw is a row of exponentials e over its sum. Dividing by a positive
    float is monotone under rounding, so min(e)/sum(e) equals min(e/sum(e))
    bit for bit and only the row vectors are divided. Touches no traced
    function, so it may run off the main thread.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    buf = np.empty((min(samples, _MC_BATCH), d + 1))
    hits = 0
    for start in range(0, samples, _MC_BATCH):
        e = buf[: samples - start]  # the last batch may be short
        rng.standard_exponential(out=e)
        hits += int(np.count_nonzero(e.min(axis=1) / e.sum(axis=1) >= h))
    return hits


def delta_monte_carlo(d: int, n: float, samples: int, seed: int) -> MeasureResult:
    """Monte-Carlo invertible fraction over uniform simplex draws.

    Deterministic for a fixed seed. The draws come from the first stream
    spawned from the seed, not from the seed itself, so a seed gives the
    same numbers as in earlier releases.
    """
    _check_mc(samples, seed)
    g = g_threshold(d, n).g
    delta = _mc_hits(d, g - THRESHOLD_ATOL, samples, seed) / samples
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
    otherwise a RegimeMismatchError lists all offenders. With
    ``method="monte_carlo"`` the dimensions run concurrently, and each row's
    delta is exactly ``delta_monte_carlo(d, n, samples, seed).delta``.
    """
    if method not in ("closed_form", "quadrature", "monte_carlo"):
        raise ValidationError(f"unknown method {method!r}")
    _check_n(n)
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
    if method == "closed_form":
        deltas = [delta_closed_form(d, n).delta for d in ds]
    elif method == "quadrature":
        deltas = [delta_quadrature(d, n).delta for d in ds]
    else:
        deltas = _mc_deltas(ds, n, samples, seed)
    rows = []
    for d, delta in zip(ds, deltas):
        log10 = math.log10(delta) if delta > 0 else float("-inf")
        rows.append(SweepRow(d=d, delta=delta, log10_delta=log10))
    return rows


def _mc_deltas(ds: list[int], n: float, samples: int, seed: int) -> list[float]:
    """``delta_monte_carlo(d, n, samples, seed).delta`` for each d, one thread per core.

    samples and seed are checked on the calling thread before the pool starts;
    the pool runs only ``_mc_hits``, whose numpy fills and reductions release
    the GIL. Each d has its own stream from the seed, so the result does not
    depend on the pool size.
    """
    _check_mc(samples, seed)
    if not ds:
        return []
    from concurrent.futures import ThreadPoolExecutor  # about 10 ms of import, MC only

    hs = [g_threshold(d, n).g - THRESHOLD_ATOL for d in ds]
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(ds), cores or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        hits = list(pool.map(_mc_hits, ds, hs, [samples] * len(ds), [seed] * len(ds)))
    return [k / samples for k in hits]
