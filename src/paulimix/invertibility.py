"""Singular times, output invertibility, and CP-divisibility of mixtures.

The output map loses invertibility at the first time any eigenvalue
lambda_i(t) = 1 - s_i p(t), with the slopes s_i = d/(d-1) (1 - x_i) of
``MixtureMap.slopes``, hits zero. Each decoherence
family gives that time in closed form (``DecoherenceFunction.singular_time``
in ``paulimix.dynmaps``). This module gathers those times into a report,
next to a family-agnostic numeric scan (grid + bisection) that only uses
lambda_i(t) values, and a stepwise CP check of the propagators between grid
times. The scan reads p once per grid point for all d+1 eigenvalues, since
each lambda_i is a monotone function of p: 0.6-1.4 us a grid point at any
d <= 32 (2-core VM), about 5 ms for the default 4001 points at d = 32.
Every route works on the d+1 eigenvalues as Python floats; none builds a
dense superoperator, and none imports numpy. The grids are
numpy's ``linspace`` and the CP check's sums numpy's pairwise sums,
reproduced bit for bit by ``dynmaps._linspace`` and
``dynmaps._pairwise_sum``, so every result is the one the numpy version of
this module gave.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from enum import Enum
from itertools import accumulate
from operator import sub
from typing import Callable, Optional

from .dynmaps import Exponential, MixtureMap, _linspace, _pairwise_sum, _simplex_weights
from .errors import Frozen, SingularAtGridPointError, ValidationError
from .finite_field import factor_prime_power
from .threshold import EIGENVALUE_ATOL, _interval, _invertible_floor

# only scan minima below _COARSE_JUMP are refined, and a jump between samples
# above it earns the GridTooCoarse advisory
_COARSE_JUMP = 0.1

# --- output invertibility -----------------------------------------------------


def output_invertible(d: int, n: float, weights) -> bool:
    """True iff every weight clears the threshold g(d, n) = 1 - n(d-1)/d.

    The boundary x_i = g counts as invertible: the singular time diverges.
    So do weights up to 1e-12 below g (``threshold._invertible_floor``), as
    in the exponential singular time and the Monte Carlo count. Refuses
    what ``mixture_map`` refuses: a d that is no prime power, or bad weights.
    """
    factor_prime_power(d)
    w = _simplex_weights(weights, d)
    floor = _invertible_floor(d, n)
    return all(x >= floor for x in w)


# --- reports ------------------------------------------------------------------


class Classification(str, Enum):
    INVERTIBLE = "invertible"
    NONINVERTIBLE = "noninvertible"
    SEMIGROUP_EQUAL_MIX = "semigroup_equal_mix_point"


class InvertibilityReport:
    """Per-index singular times plus an overall verdict."""

    def __init__(
        self,
        classification: Classification,
        singular_times: list[Optional[float]],
        t_star: Optional[float],
        warnings: Optional[list[str]] = None,
    ) -> None:
        self.classification = classification
        self.singular_times = singular_times
        self.t_star = t_star
        self.warnings = [] if warnings is None else warnings


def _is_semigroup_point(m: MixtureMap) -> bool:
    if not isinstance(m.pf, Exponential):
        return False
    equal = 1.0 / (m.d + 1)
    return abs(m.pf.n - _interval(m.d)[0]) <= 1e-12 and max(abs(x - equal) for x in m.weights) <= 1e-12


def _build_report(
    m: MixtureMap, times: list[Optional[float]], warnings: Optional[list[str]] = None
) -> InvertibilityReport:
    if _is_semigroup_point(m):
        # lambda_i(t) = e^{-ct} exactly; any root located here is float noise
        kind, times = Classification.SEMIGROUP_EQUAL_MIX, [None] * len(times)
    elif any(t is not None for t in times):
        kind = Classification.NONINVERTIBLE
    else:
        kind = Classification.INVERTIBLE
    t_star = min((t for t in times if t is not None), default=None)
    return InvertibilityReport(kind, times, t_star, warnings or [])


def analytic_singularity_report(m: MixtureMap) -> InvertibilityReport:
    """Closed-form singular times for every mixing index of a map."""
    return _build_report(m, [m.pf.singular_time(m.d, x) for x in m.weights])


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
) -> InvertibilityReport:
    """Locate the first zero of each lambda_i(t) on [0, t_max] numerically.

    Sign changes on the grid are refined by bisection. A tangential dip
    (double root), around a strict interior grid minimum or where p holds
    its attained sup, is a root if |lambda| <= ``EIGENVALUE_ATOL`` there. A
    periodic family's scan stops at its horizon, one period, since the roots
    repeat. A GridTooCoarse advisory is attached when consecutive grid
    values jump by more than ``_COARSE_JUMP``.

    One pass over p serves every eigenvalue. With s_i >= 0 the float
    lambda_i = 1 - s_i p never increases as p grows, since rounding is
    monotone, so lambda_i at the running maximum of p never increases along
    the grid. The first grid index where lambda_i falls below a level is
    therefore a bisection on that running maximum, and at that index the
    running maximum is p itself: the index, and every value read there, are
    the ones a list of lambda_i on the grid would give. The cost is O(grid)
    for p and its running maximum, plus O(log grid) per eigenvalue and the
    few samples each refinement reads; where some slope's samples can jump
    by more than ``_COARSE_JUMP``, the exact jump costs O(grid) more, and a
    few samples per distinct such slope.
    """
    if not 0 < t_max < math.inf:
        raise ValidationError(f"t_max must be finite and > 0, got {t_max}")
    if grid_points < 2:
        raise ValidationError(f"need at least 2 grid points, got {grid_points}")
    if m.pf.periodic:
        t_max = min(t_max, m.pf.horizon())

    grid = _linspace(0.0, t_max, grid_points)
    p_vals = [m.pf.value(t) for t in grid]
    p_run = list(accumulate(p_vals, max))
    p_step = max(map(abs, map(sub, p_vals[1:], p_vals)))
    # each step of the samples of a slope s is within a few ulps of 1 + s p of s
    # times p's step there, so within slack
    slack = 1e-12 * (1.0 + max(m.slopes) * p_run[-1])

    jump = 0.0
    coarse = [s for s in set(m.slopes) if s * p_step + slack > _COARSE_JUMP]
    if coarse:
        # a slope s jumps most at a step of p within 2 slack / s of p_step. Each
        # such step is over _COARSE_JUMP / s, a sizable part of the variation of
        # p, so there are few of them, and the jump costs O(grid) for any d
        near = p_step - 2.0 * slack / min(coarse)
        widest = [j for j in range(grid_points - 1) if abs(p_vals[j + 1] - p_vals[j]) >= near]
        jump = max(abs((1.0 - s * p_vals[j + 1]) - (1.0 - s * p_vals[j])) for s in coarse for j in widest)

    times: list[Optional[float]] = []
    for slope in m.slopes:
        def f(t: float, slope: float = slope) -> float:
            return 1.0 - slope * m.pf.value(t)

        def at(j: int, slope: float = slope) -> float:
            return 1.0 - slope * p_vals[j]

        def drop(p: float, slope: float = slope) -> float:
            return -(1.0 - slope * p)  # -lambda, nondecreasing in p

        root: Optional[float] = None
        low = 1.0 - slope * p_run[-1]
        # transversal roots must be certified by genuinely negative values;
        # near the divergence threshold the eigenvalue can underflow to a
        # zero-ish float without ever crossing, which is not a singularity
        if low < -EIGENVALUE_ATOL:
            j_neg = bisect_right(p_run, EIGENVALUE_ATOL, key=drop)
            j_pos = next((j for j in range(j_neg - 1, -1, -1) if at(j) > EIGENVALUE_ATOL), 0)
            root = _bisect_root(f, grid[j_pos], grid[j_neg])
        else:
            # tangential dip (double root): refine around a strict interior
            # minimum. j is the first index where lambda reaches low, so every
            # earlier sample lies above it. A minimum held past grid[j] is a
            # root, where lambda first reaches it, only if p attains its sup (a
            # plateau); for an exponential p it is float underflow at the
            # divergence threshold
            j = bisect_left(p_run, -low, key=drop)
            if 0 < j and low < _COARSE_JUMP:
                if j < grid_points - 1 and low < at(j + 1):
                    t_min, f_min = _refine_minimum(f, grid[j - 1], grid[j + 1])
                    if abs(f_min) <= EIGENVALUE_ATOL:
                        root = t_min
                elif m.pf.attains_sup and abs(low) <= EIGENVALUE_ATOL:
                    root = _bisect_root(lambda t: (f(t) > low) - 0.5, grid[j - 1], grid[j])
        times.append(root)

    warnings: list[str] = []
    if jump > _COARSE_JUMP:
        warnings.append(
            f"GridTooCoarse: consecutive eigenvalue samples jump by up to {jump:.3g}; "
            "double roots may be missed"
        )
    return _build_report(m, times, warnings)


# --- CP divisibility -------------------------------------------------------------


class PropagatorStep(Frozen):
    """CP diagnostics of the propagator between two grid times."""

    def __init__(self, t_start: float, t_end: float, choi_min_eigenvalue: float, cp: bool) -> None:
        vars(self).update(t_start=t_start, t_end=t_end, choi_min_eigenvalue=choi_min_eigenvalue, cp=cp)


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
    SingularAtGridPointError when the map is singular at any grid time, and
    refuses a negative ``tol``, which would call a CP step non-CP.
    """
    if not tol >= 0:
        raise ValidationError(f"tol must be >= 0, got {tol}")
    try:
        ts = [float(t) for t in times]
    except (TypeError, ValueError) as exc:
        raise ValidationError("need an increasing grid of at least two times") from exc
    if len(ts) < 2:
        raise ValidationError("need an increasing grid of at least two times")
    if not all(map(math.isfinite, ts)):
        raise ValidationError("times must be finite")
    if any(b < a for a, b in zip(ts, ts[1:])):
        raise ValidationError("times must be nondecreasing")
    lams = [m.eigenvalues(t) for t in ts]
    for t, lam in zip(ts, lams):
        if min(map(abs, lam)) < EIGENVALUE_ATOL:
            raise SingularAtGridPointError(f"map is singular at grid time t={t}")

    d = m.d
    scale = (d - 1) / d**2
    steps: list[PropagatorStep] = []
    for t_prev, t_next, lam_prev, lam_next in zip(ts, ts[1:], lams, lams[1:]):
        mu = [b / a for a, b in zip(lam_prev, lam_next)]
        total = _pairwise_sum(mu)
        p0 = (1.0 + (d - 1) * total) / d**2
        p_min = min(scale * (1.0 + d * x - total) for x in mu)
        lam_min = d * min(p0, p_min / (d - 1))
        steps.append(
            PropagatorStep(
                t_start=t_prev,
                t_end=t_next,
                choi_min_eigenvalue=lam_min,
                cp=lam_min >= -tol,
            )
        )
    return steps
