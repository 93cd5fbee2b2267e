"""Singular times, regime classification, and CP-divisibility of mixtures.

The output map loses invertibility at the first time any eigenvalue
lambda_i(t) = 1 - d/(d-1) (1 - x_i) p(t) hits zero. This module provides
the closed-form singular times per decoherence family, a family-agnostic
numeric scan (grid + bisection) that only uses lambda_i(t) values, the
input/output regime classification in the decoherence parameter n, and a
stepwise CP check of the propagators between grid times. Every route works
on the d+1 eigenvalues; none builds a dense superoperator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .dynmaps import Cosine, Exponential, MixtureMap, Plateau
from .errors import (
    NotQubitError,
    SingularAtGridPointError,
    ValidationError,
)
from .finite_field import factor_prime_power
from .measure import THRESHOLD_ATOL, g_threshold

# --- analytic singular times --------------------------------------------------


def _check_weight(x_i: float) -> None:
    if not 0.0 <= x_i <= 1.0:
        raise ValidationError(f"mixing weight must lie in [0, 1], got {x_i}")


def singular_time_exponential(d: int, n: float, c: float, x_i: float) -> Optional[float]:
    """First zero of lambda_i for p(t) = (1 - e^{-ct})/n, or None.

    t* = (1/c) ln[ d(1-x_i) / (d(1-x_i) - n(d-1)) ] when the denominator is
    positive; at or above the threshold x_i = 1 - n(d-1)/d the eigenvalue
    never vanishes (the would-be singular time diverges).
    """
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    if n < 1:
        raise ValidationError(f"decoherence parameter must be >= 1, got {n}")
    if c <= 0:
        raise ValidationError(f"decay factor must be > 0, got {c}")
    _check_weight(x_i)
    numer = d * (1.0 - x_i)
    denom = numer - n * (d - 1)
    # a relative guard absorbs float noise at the boundary x_i = 1 - n(d-1)/d,
    # where the singular time diverges
    if denom <= THRESHOLD_ATOL * numer:
        return None
    return math.log(numer / denom) / c


def singular_time_cosine(omega: float, x_i: float, d: int = 2) -> Optional[float]:
    """First zero of lambda_i for p(t) = (1 - cos(omega t))/2, or None.

    lambda_i vanishes where cos(omega t) = 1 - 2(d-1)/(d(1-x_i)), so
    t* = arccos(1 - 2(d-1)/(d(1-x_i))) / omega when the right-hand side is
    at least -1. For d = 2 this is lambda_i(t) = x_i + (1 - x_i) cos(omega t)
    with t* = arccos(x_i / (x_i - 1)) / omega, which exists iff x_i <= 1/2.
    """
    if d < 2:
        raise ValidationError(f"dimension must be >= 2, got {d}")
    if omega <= 0:
        raise ValidationError(f"angular frequency must be > 0, got {omega}")
    _check_weight(x_i)
    if x_i == 1.0:
        return None
    target = 1.0 - 2.0 * (d - 1) / (d * (1.0 - x_i))
    if target < -1.0 - THRESHOLD_ATOL:
        return None
    return math.acos(max(target, -1.0)) / omega


def singular_time_plateau(
    ramp: Optional[Callable[[float], float]],
    t_sharp: float,
    x_i: float,
    d: int = 2,
) -> Optional[float]:
    """Qubit plateau family: singular iff p reaches 1/(2(1-x_i)).

    Since p tops out at 1/2, every strictly positive weight gives None; the
    degenerate single-map corner x_i = 0 is singular exactly at t_sharp.
    """
    if d != 2:
        raise NotQubitError(f"plateau singular time is defined for d=2, got d={d}")
    _check_weight(x_i)
    Plateau(t_sharp=t_sharp, ramp=ramp)  # enforces the ramp contract
    if x_i > 0.0:
        return None
    # target p = 1/2 is first reached exactly at t_sharp for a monotone ramp
    return t_sharp


# --- regimes ------------------------------------------------------------------


class RegimeKind(str, Enum):
    INVERTIBLE_INPUTS = "invertible_inputs"
    INTERMEDIATE = "intermediate_noninvertible"
    ALWAYS_NONINVERTIBLE = "always_noninvertible_output"


@dataclass(frozen=True)
class Regime:
    """Where n sits relative to the interval [d^2/(d^2-1), d/(d-1))."""

    d: int
    n: float
    kind: RegimeKind
    lower: float  # d^2 / (d^2 - 1), below this every mixture is noninvertible
    upper: float  # d / (d - 1), at or above this inputs (hence outputs) are invertible

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
    if n < 1:
        raise ValidationError(f"decoherence parameter must be >= 1, got {n}")
    lower = d * d / (d * d - 1.0)
    upper = d / (d - 1.0)
    if n >= upper:
        kind = RegimeKind.INVERTIBLE_INPUTS
    elif n < lower:
        kind = RegimeKind.ALWAYS_NONINVERTIBLE
    else:
        kind = RegimeKind.INTERMEDIATE
    return Regime(d=d, n=n, kind=kind, lower=lower, upper=upper)


def output_invertible(d: int, n: float, weights) -> bool:
    """True iff every weight clears the threshold g(d, n) = 1 - n(d-1)/d.

    The boundary x_i = g counts as invertible: the singular time diverges.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (d + 1,):
        raise ValidationError(f"need {d + 1} weights for dimension {d}, got {w.shape}")
    g = g_threshold(d, n).g
    return bool(np.all(w >= g - THRESHOLD_ATOL))


# --- reports ------------------------------------------------------------------


class Classification(str, Enum):
    INVERTIBLE = "invertible"
    NONINVERTIBLE = "noninvertible"
    SEMIGROUP_EQUAL_MIX = "semigroup_equal_mix_point"


@dataclass
class InvertibilityReport:
    """Per-index singular times plus an overall verdict."""

    classification: Classification
    singular_times: list[Optional[float]]
    t_star: Optional[float]
    method: str  # "analytic" | "numeric"
    warnings: list[str] = field(default_factory=list)

    def to_payload(self) -> dict:
        return {
            "classification": self.classification.value,
            "singular_times": [
                {"i": i, "t_star": t} for i, t in enumerate(self.singular_times)
            ],
            "method": self.method,
            "warnings": list(self.warnings),
        }


def _is_semigroup_point(m: MixtureMap) -> bool:
    if not isinstance(m.pf, Exponential):
        return False
    d = m.d
    magic = d * d / (d * d - 1.0)
    return (
        abs(m.pf.n - magic) <= 1e-12
        and float(np.max(np.abs(m.weights - 1.0 / (d + 1)))) <= 1e-12
    )


def _build_report(
    m: MixtureMap,
    times: list[Optional[float]],
    method: str,
    warnings: Optional[list[str]] = None,
) -> InvertibilityReport:
    if _is_semigroup_point(m):
        # lambda_i(t) = e^{-ct} exactly; any root located here is float noise
        return InvertibilityReport(
            classification=Classification.SEMIGROUP_EQUAL_MIX,
            singular_times=[None] * len(times),
            t_star=None,
            method=method,
            warnings=warnings or [],
        )
    finite = [t for t in times if t is not None]
    if finite:
        kind = Classification.NONINVERTIBLE
        t_star: Optional[float] = min(finite)
    else:
        kind = Classification.INVERTIBLE
        t_star = None
    return InvertibilityReport(
        classification=kind,
        singular_times=times,
        t_star=t_star,
        method=method,
        warnings=warnings or [],
    )


def analytic_singularity_report(m: MixtureMap) -> InvertibilityReport:
    """Closed-form singular times for every mixing index of a map."""
    d = m.d
    times: list[Optional[float]] = []
    for x in m.weights:
        if isinstance(m.pf, Exponential):
            times.append(singular_time_exponential(d, m.pf.n, m.pf.c, float(x)))
        elif isinstance(m.pf, Cosine):
            times.append(singular_time_cosine(m.pf.omega, float(x), d))
        elif isinstance(m.pf, Plateau):
            if d == 2:
                times.append(singular_time_plateau(m.pf.ramp, m.pf.t_sharp, float(x)))
            else:
                # p <= 1/2 < (d-1)/(d(1-x)) for every d > 2 and x >= 0
                times.append(None)
        else:
            raise ValidationError(
                f"no analytic singular time for the {m.pf.family} family"
            )
    return _build_report(m, times, method="analytic")


# --- numeric scan ---------------------------------------------------------------


def _bisect_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    f_lo = f(lo)
    if f_lo == 0.0:
        return lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-12 * max(1.0, abs(mid)):
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo > 0) != (f_mid > 0):
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def _refine_minimum(f: Callable[[float], float], lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimum of f on [lo, hi]."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d_ = a + inv_phi * (b - a)
    fc, fd = f(c), f(d_)
    for _ in range(120):
        if b - a <= 1e-13 * max(1.0, abs(b)):
            break
        if fc < fd:
            b, d_, fd = d_, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d_, fd
            d_ = a + inv_phi * (b - a)
            fd = f(d_)
    t_min = c if fc < fd else d_
    return t_min, min(fc, fd)


def numeric_singularity_scan(
    m: MixtureMap,
    t_max: float,
    grid_points: int,
    tol: float = 1e-12,
    restrict_to_period: bool = True,
    coarse_threshold: float = 0.1,
) -> InvertibilityReport:
    """Locate the first zero of each lambda_i(t) on [0, t_max] numerically.

    Sign changes on the grid are refined by bisection; a tangential dip
    (double root) is caught by minimizing lambda around interior grid
    minima and accepting |lambda| <= tol. Cosine-family scans are clamped
    to one period by default since the roots repeat. A GridTooCoarse
    advisory is attached when consecutive grid values jump by more than
    ``coarse_threshold``.
    """
    if t_max <= 0:
        raise ValidationError(f"t_max must be > 0, got {t_max}")
    if grid_points < 2:
        raise ValidationError(f"need at least 2 grid points, got {grid_points}")
    if restrict_to_period and isinstance(m.pf, Cosine):
        t_max = min(t_max, 2 * math.pi / m.pf.omega)

    grid = np.linspace(0.0, t_max, grid_points)
    p_vals = np.array([m.pf.value(t) for t in grid])
    d = m.d
    coefs = (d / (d - 1)) * (1.0 - m.weights)
    lam_grid = 1.0 - coefs[:, None] * p_vals[None, :]  # (d+1, grid)

    warnings: list[str] = []
    jump = float(np.max(np.abs(np.diff(lam_grid, axis=1)))) if grid_points > 1 else 0.0
    if jump > coarse_threshold:
        warnings.append(
            f"GridTooCoarse: consecutive eigenvalue samples jump by up to {jump:.3g}; "
            "double roots may be missed"
        )

    times: list[Optional[float]] = []
    for i in range(d + 1):
        coef = coefs[i]
        lam = lam_grid[i]

        def f(t: float, coef: float = coef) -> float:
            return 1.0 - coef * m.pf.value(t)

        root: Optional[float] = None
        # transversal roots must be certified by genuinely negative values;
        # near the divergence threshold the eigenvalue can underflow to a
        # zero-ish float without ever crossing, which is not a singularity
        below = np.flatnonzero(lam < -tol)
        if below.size:
            j_neg = int(below[0])
            positives = np.flatnonzero(lam[:j_neg] > tol)
            j_pos = int(positives[-1]) if positives.size else 0
            root = _bisect_root(f, float(grid[j_pos]), float(grid[j_neg]))
        else:
            # tangential dip (double root): refine around a strict interior
            # minimum; a flat run of zero-ish values is precision underflow
            # at the divergence threshold, not a singularity
            j = int(np.argmin(lam))
            if (
                0 < j < grid_points - 1
                and lam[j] < min(lam[0], coarse_threshold)
                and lam[j - 1] > lam[j] < lam[j + 1]
            ):
                t_min, f_min = _refine_minimum(f, float(grid[j - 1]), float(grid[j + 1]))
                if abs(f_min) <= tol:
                    root = t_min
        times.append(root)
    return _build_report(m, times, method="numeric", warnings=warnings)


# --- CP divisibility -------------------------------------------------------------


@dataclass(frozen=True)
class PropagatorStep:
    """CP diagnostics of the propagator between two grid times."""

    t_start: float
    t_end: float
    choi_min_eigenvalue: float
    cp: bool

    def to_payload(self) -> dict:
        return {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "choi_min_eigenvalue": self.choi_min_eigenvalue,
            "cp": self.cp,
        }


def cp_divisibility_check(
    m: MixtureMap, times, tol: float = 1e-10
) -> list[PropagatorStep]:
    """Check complete positivity of every intermediate propagator.

    The propagator K = Phi(t_next) Phi(t_prev)^-1 between consecutive grid
    times is again a generalized Pauli channel, with eigenvalues
    mu_i = lambda_i(t_next) / lambda_i(t_prev). Its Pauli probabilities are
    p_0 = (1 + (d-1) sum mu)/d^2 and p_i = (d-1)/d^2 (1 + d mu_i - sum mu),
    and its Choi matrix has the eigenvalues d p_0 and d p_i/(d-1), so the
    Choi minimum eigenvalue d min(p_0, min_i p_i/(d-1)) costs O(d) per step
    (Chruscinski & Siudzinska, PRA 94, 022118 (2016)). It decides the CP
    flag. The tests check it against the dense Choi matrix of K. Raises
    SingularAtGridPointError when the map is singular at any grid time.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size < 2:
        raise ValidationError("need an increasing grid of at least two times")
    if not np.all(np.isfinite(ts)):
        raise ValidationError("times must be finite")
    if np.any(np.diff(ts) < 0):
        raise ValidationError("times must be nondecreasing")
    lams = [m.eigenvalues(float(t)) for t in ts]
    for t, lam in zip(ts, lams):
        if float(np.min(np.abs(lam))) < 1e-12:
            raise SingularAtGridPointError(f"map is singular at grid time t={t}")

    d = m.d
    steps: list[PropagatorStep] = []
    for t_prev, t_next, lam_prev, lam_next in zip(ts[:-1], ts[1:], lams[:-1], lams[1:]):
        mu = lam_next / lam_prev
        total = float(np.sum(mu))
        p0 = (1.0 + (d - 1) * total) / d**2
        p = (d - 1) / d**2 * (1.0 + d * mu - total)
        lam_min = d * min(p0, float(np.min(p)) / (d - 1))
        steps.append(
            PropagatorStep(
                t_start=float(t_prev),
                t_end=float(t_next),
                choi_min_eigenvalue=lam_min,
                cp=lam_min >= -tol,
            )
        )
    return steps
