"""Decoherence functions, dephasing-mixture maps, and their representations.

A mixture map is Phi(t) = sum_i x_i Phi_i(t) over the d+1 input maps

    Phi_i(t)[rho] = (1 - p(t)) rho + p(t)/(d-1) * sum_{k=1}^{d-1} U_i^k rho U_i^{-k},

driven by a shared decoherence function p(t). The 1/(d-1) weight on the
conjugation sum is what makes each input map trace preserving and gives the
output map the eigenvalue profile

    lambda_i(t) = 1 - d/(d-1) * (1 - x_i) * p(t)

on the eigenoperators U_i^k (k = 1..d-1). Every such map is a generalized
Pauli channel, fixed completely by these d+1 eigenvalues, and they are the
core of every computation: ``MixtureMap.eigenvalues`` feeds the generator
rates and the CP checks, and ``MixtureMap.apply`` is d+1 dephasings in the
MUB bases, since sum_{k=0}^{d-1} U_i^k rho U_i^{-k} = d * dephase_i(rho).
A ``MixtureMap`` holds no basis: only ``apply`` and ``dephased`` fetch the
(cached) bases from ``paulimix.mub``, which the eigenvalue routes never
import. The dense d^2 x d^2 representation (superoperator, Choi matrix,
Kraus sets) lives in ``paulimix.oracle``, built from the definition
independently of the eigenvalues; the tests compare the core against it,
and no command loads it.

The closed forms that depend on p(t) alone (singular times, the decay rate
of a single input map, the default scan span and finite-difference step) are
methods of each family.

The core is Python floats: the weights are a tuple, ``eigenvalues`` and
``generator_rates`` return tuples, and none of it imports numpy, so the
eigenvalue commands run without it. Where the core sums or spaces values
the way numpy did, ``_pairwise_sum`` and ``_linspace`` reproduce numpy's
results bit for bit. ``apply``, ``dephased`` and ``validate_density_matrix``
import numpy inside their own bodies.

Mixing indices are 0-based: weight x[i] goes with basis i of the MUB set
(basis 0 is computational).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from .errors import (
    Frozen,
    NegativeTimeError,
    RateSingularError,
    SingularAtTimeError,
    ValidationError,
)
from .finite_field import PrimePowerDim, factor_prime_power
from .threshold import EIGENVALUE_ATOL, _gap, _reaches_zero

if TYPE_CHECKING:
    import numpy as np


# --- float helpers that match numpy bit for bit ------------------------------


def _pairwise_sum(values: Sequence[float]) -> float:
    """The sum of ``values`` in the order of numpy's float64 add-reduce, bit for bit.

    numpy adds fewer than 8 values in one loop, up to 128 in eight
    interleaved accumulators, and splits longer runs in two at a multiple
    of 8 (``pairwise_sum`` in numpy/_core/src/umath/loops_utils.h.src); the
    reduction starts from 0.0. Python's ``sum`` and ``math.fsum`` round
    differently, and ``sum`` differs between Python versions.
    """
    return 0.0 + _pairwise(values)


def _pairwise(a: Sequence[float]) -> float:
    n = len(a)
    if n < 8:
        res = 0.0
        for x in a:
            res += x
        return res
    if n <= 128:
        r = list(a[:8])
        stop = n - n % 8
        for i in range(8, stop, 8):
            for j in range(8):
                r[j] += a[i + j]
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in a[stop:]:
            res += x
        return res
    half = n // 2
    half -= half % 8
    return _pairwise(a[:half]) + _pairwise(a[half:])


def _linspace(a: float, b: float, num: int) -> list[float]:
    """``np.linspace(a, b, num)`` for num >= 2, as floats, bit for bit.

    Value i is i*step + a with step = (b - a)/(num - 1), and the last value
    is b itself; when the step underflows to zero, numpy takes
    (i/(num - 1))*(b - a) + a instead, and so does this.
    """
    div = num - 1
    delta = b - a
    step = delta / div
    if step == 0:
        values = [i / div * delta + a for i in range(num)]
    else:
        values = [i * step + a for i in range(num)]
    values[-1] = b
    return values


# --- decoherence functions -------------------------------------------------


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be a finite number, got {value}")


def _finite(value: float, what: str, **params: float) -> float:
    """``value`` if it is finite; else a ValidationError naming the parameters it overflows at."""
    if not math.isfinite(value):
        at = ", ".join(f"{name}={v}" for name, v in params.items())
        raise ValidationError(f"{what} overflows at {at}")
    return value


class DecoherenceFunction(Frozen, ABC):
    """A decoherence profile p(t) with p(0) = 0 and values in [0, 1]; immutable.

    Each family states ``n_sup`` = 1/sup p and whether p ``attains_sup``,
    which decide whether a singular time exists, and gives its closed forms:
    the inverse formula behind ``singular_time``, ``decay_rate`` and
    ``horizon``, the default span of a singular-time scan. A ``periodic`` p
    repeats after its horizon, so no scan goes past it. ``kinks`` names the
    times where p' jumps, which no finite-difference stencil may straddle.
    """

    family: str
    n_sup: float
    attains_sup = True
    periodic = False

    def value(self, t: float) -> float:
        if t < 0:
            raise NegativeTimeError(f"p(t) is defined for t >= 0, got t={t}")
        return self._value(t)

    def derivative(self, t: float) -> float:
        if t < 0:
            raise NegativeTimeError(f"p'(t) is defined for t >= 0, got t={t}")
        return self._derivative(t)

    def singular_time(self, d: int, x: float) -> Optional[float]:
        """First zero of lambda(t) = 1 - d/(d-1) (1 - x) p(t), where p reaches (d-1)/(d(1-x)).

        None if lambda never vanishes (``threshold._reaches_zero``); ValidationError
        for d < 2, for x outside [0, 1], and where the time overflows.
        """
        if d < 2:
            raise ValidationError(f"dimension must be >= 2, got {d}")
        if not 0.0 <= x <= 1.0:
            raise ValidationError(f"mixing weight must lie in [0, 1], got {x}")
        if not _reaches_zero(d, self.n_sup, self.attains_sup, x):
            return None
        return self._singular_time(d, x)

    def kinks(self) -> dict[str, float]:
        """The times where p' jumps, by the parameter that sets each; none where p' is continuous."""
        return {}

    def decay_rate(self, t: float) -> float:
        """Closed-form decay rate gamma(t) of a single input map.

        RateSingularError where it diverges; ValidationError for a family without one.
        """
        if t < 0:
            raise NegativeTimeError(f"decay rate defined for t >= 0, got {t}")
        return self._decay_rate(t)

    def _decay_rate(self, t: float) -> float:
        raise ValidationError(f"decay rate has no closed form for the {self.family} family")

    @abstractmethod
    def horizon(self) -> float:
        """The default span [0, horizon] of a singular-time scan; ValidationError if it overflows."""

    @abstractmethod
    def default_step(self) -> float:
        """``generator``'s step without ``--h``: 1e-5 of the time scale, one rounding; ValidationError on overflow."""

    @abstractmethod
    def _value(self, t: float) -> float: ...

    @abstractmethod
    def _derivative(self, t: float) -> float: ...

    @abstractmethod
    def _singular_time(self, d: int, x: float) -> float: ...

    def describe(self) -> dict:
        """The family and its parameters, in the order its constructor takes them."""
        return {"family": self.family, **vars(self)}


class Exponential(DecoherenceFunction):
    """p(t) = (1 - exp(-c t)) / n, strictly increasing toward 1/n."""

    family = "exponential"
    attains_sup = False

    def __init__(self, n: float, c: float) -> None:
        _check_finite(n=n, c=c)
        if n < 1:
            raise ValidationError(f"decoherence parameter n must be >= 1, got {n}")
        if c <= 0:
            raise ValidationError(f"decay factor c must be > 0, got {c}")
        vars(self).update(n=n, c=c)

    n_sup = property(lambda self: self.n)  # sup p = 1/n, approached as t grows

    def _value(self, t: float) -> float:
        return (1.0 - math.exp(-self.c * t)) / self.n

    def _derivative(self, t: float) -> float:
        return self.c * math.exp(-self.c * t) / self.n

    def _singular_time(self, d: int, x: float) -> float:
        """t* = (1/c) ln[ d(1-x) / (d(g - x)) ], with the exact gap g - x > 0 (``threshold._gap``) rounded once."""
        num, den = _gap(d, self.n, x)
        return _finite(math.log(d * (1.0 - x) / (d * num / den)) / self.c, "the singular time", c=self.c)

    def _decay_rate(self, t: float) -> float:
        """gamma = c / ((n - 2) e^{c t} + 2); ValidationError once e^{c t} overflows."""
        try:
            growth = math.exp(self.c * t)
        except OverflowError:
            growth = math.inf
        growth = _finite(growth, "e^(c*t) in the decay rate", c=self.c, t=t)
        scale = abs(self.n - 2.0) * growth + 2.0
        denom = (self.n - 2.0) * growth + 2.0
        if abs(denom) < 1e-12 * scale:
            raise RateSingularError(f"decay rate diverges at t={t}")
        return self.c / denom

    def horizon(self) -> float:
        """50/c, by which e^{-ct} has fallen below 2e-22."""
        return _finite(50.0 / self.c, "the scan horizon 50/c", c=self.c)

    def default_step(self) -> float:
        return _finite(1e-5 / self.c, "the default step 1e-5/c", c=self.c)


class Cosine(DecoherenceFunction):
    """p(t) = (1 - cos(omega t)) / 2, oscillating through [0, 1]."""

    family = "cosine"
    n_sup = 1.0
    periodic = True

    def __init__(self, omega: float) -> None:
        _check_finite(omega=omega)
        if omega <= 0:
            raise ValidationError(f"angular frequency must be > 0, got {omega}")
        vars(self).update(omega=omega)

    def _phase(self, t: float) -> float:
        phase = self.omega * t
        if not math.isfinite(phase):
            raise ValidationError(f"the phase omega*t overflows at omega={self.omega}, t={t}")
        return phase

    def _value(self, t: float) -> float:
        return 0.5 * (1.0 - math.cos(self._phase(t)))

    def _derivative(self, t: float) -> float:
        return 0.5 * self.omega * math.sin(self._phase(t))

    def _singular_time(self, d: int, x: float) -> float:
        """t* = arccos(max(1 - 2(d-1)/(d(1-x)), -1)) / omega.

        ``_reaches_zero`` passes only x <= 1/d, where the argument is at least -1; the max guards its rounding.
        """
        target = 1.0 - 2.0 * (d - 1) / (d * (1.0 - x))
        return _finite(math.acos(max(target, -1.0)) / self.omega, "the singular time", omega=self.omega)

    def _decay_rate(self, t: float) -> float:
        """gamma = omega/2 * tan(omega t)."""
        phase = self._phase(t)
        if abs(math.cos(phase)) < 1e-12:
            raise RateSingularError(f"decay rate diverges at t={t}")
        return 0.5 * self.omega * math.tan(phase)

    def horizon(self) -> float:
        """One period, 2 pi/omega; the singular times repeat after it."""
        return _finite(2 * math.pi / self.omega, "the period 2*pi/omega", omega=self.omega)

    def default_step(self) -> float:
        return _finite(1e-5 / self.omega, "the default step 1e-5/omega", omega=self.omega)


class Plateau(DecoherenceFunction):
    """Linear ramp p(t) = t / (2 t_sharp) up to 1/2 at t_sharp, constant at 1/2 afterwards."""

    family = "plateau"
    n_sup = 2.0

    def __init__(self, t_sharp: float) -> None:
        _check_finite(t_sharp=t_sharp)
        if t_sharp <= 0:
            raise ValidationError(f"t_sharp must be > 0, got {t_sharp}")
        vars(self).update(t_sharp=t_sharp)

    def _value(self, t: float) -> float:
        if t >= self.t_sharp:
            return 0.5
        return t / (2.0 * self.t_sharp)

    def _derivative(self, t: float) -> float:
        if t >= self.t_sharp:
            return 0.0
        return 1.0 / (2.0 * self.t_sharp)

    def _singular_time(self, d: int, x: float) -> float:
        """t_sharp, where the ramp first reaches its sup 1/2; lambda is smallest from there on."""
        return self.t_sharp

    def kinks(self) -> dict[str, float]:
        """p' falls from 1/(2 t_sharp) to 0 at t_sharp."""
        return {"t_sharp": self.t_sharp}

    def horizon(self) -> float:
        """100 t_sharp, far into the plateau."""
        return _finite(100.0 * self.t_sharp, "the scan horizon 100*t_sharp", t_sharp=self.t_sharp)

    def default_step(self) -> float:
        step = 1e-5 * self.t_sharp  # at most 1.8e303, but 0 below t_sharp = 2.5e-319
        if step == 0:
            raise ValidationError(f"the default step 1e-5*t_sharp underflows to 0 at t_sharp={self.t_sharp}")
        return step

    def describe(self) -> dict:
        return {**super().describe(), "ramp": "linear"}


# --- density matrices -------------------------------------------------------


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """``rho`` as a complex array, if it is Hermitian and of trace 1 within 1e-10, with no eigenvalue below -1e-10."""
    import numpy as np

    tol = 1e-10
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"density matrix must be square, got shape {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValidationError("density matrix has non-finite entries")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > tol:
        raise ValidationError(f"not Hermitian (max deviation {herm:.3e})")
    tr_defect = abs(complex(np.trace(rho)) - 1.0)
    if tr_defect > tol:
        raise ValidationError(f"trace differs from 1 by {tr_defect:.3e}")
    lam_min = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    if lam_min < -tol:
        raise ValidationError(f"negative eigenvalue {lam_min:.3e}")
    return rho


# --- input maps and mixtures -------------------------------------------------


class MixtureMap:
    """A convex mixture of the d+1 dephasing input maps.

    It holds the dimension, the weights and p(t), which fix the d+1
    eigenvalues lambda_i(t) = 1 - s_i p(t). The slopes s_i = d/(d-1) (1 - x_i)
    are computed once, in ``__init__``, and kept as ``slopes``; the
    eigenvalues, the numeric scan and the analytic generator rates read
    them. The MUB bases are fetched from ``cached_mub`` only by
    ``apply`` and ``dephased``, on first use, so the eigenvalue routes
    build no basis.

    Weights may sit on the boundary of the simplex (zeros allowed), which
    covers the single-input-map limit, so a one-hot weight vector is a
    single input map; they must be finite, lie in [0, 1] and sum to one
    within 1e-12. They are kept as a tuple of floats.
    """

    def __init__(self, dim: PrimePowerDim, weights, pf: DecoherenceFunction) -> None:
        w = _simplex_weights(weights, dim.q)
        self.dim, self.weights, self.pf = dim, w, pf
        self.slopes = tuple(dim.q / (dim.q - 1) * (1.0 - x) for x in w)

    @property
    def d(self) -> int:
        return self.dim.q

    def eigenvalues(self, t: float) -> tuple[float, ...]:
        """lambda_i(t) = 1 - s_i p(t), indexed by mixing index i."""
        p = self.pf.value(t)
        return tuple(1.0 - s * p for s in self.slopes)

    def apply(self, t: float, rho: np.ndarray) -> np.ndarray:
        """Evolve a state: (1 - a) rho + a sum_i x_i dephase_i(rho), a = p d/(d-1)."""
        import numpy as np

        d = self.d
        a = self.pf.value(t) * d / (d - 1)
        rho = np.asarray(rho, dtype=complex)
        return (1.0 - a) * rho + a * self.dephased(rho)

    def dephased(self, rho: np.ndarray) -> np.ndarray:
        """sum_i x_i dephase_i(rho): what ``apply`` gives where a = 1.

        dephase_i(rho) = B_i diag(B_i^dag rho B_i) B_i^dag keeps the diagonal
        of rho in basis i; all d+1 of them come from two d x d(d+1) products.
        """
        import numpy as np

        cols = self._basis_columns
        populations = np.sum(cols.conj() * (rho @ cols), axis=0)  # <xi_j^i| rho |xi_j^i>
        coefs = np.repeat(self.weights, self.d) * populations
        return (cols * coefs) @ cols.conj().T

    @cached_property
    def _basis_columns(self) -> np.ndarray:
        """All d+1 bases side by side: column i*d + j is vector j of basis i."""
        from .mub import cached_mub

        return cached_mub(self.d).bases.transpose(1, 0, 2).reshape(self.d, -1)

    def superoperator(self, t: float) -> np.ndarray:
        """The dense superoperator at time t; see ``paulimix.oracle.superoperator``."""
        # stays a method: the acceptance suite calls m.superoperator(t), and
        # perfbench/tracer.py wraps MixtureMap.superoperator by name
        from .oracle import superoperator

        return superoperator(self, t)


def mixture_map(d: int, weights, pf: DecoherenceFunction) -> MixtureMap:
    """Build a mixture map for the prime-power dimension d; builds no basis."""
    return MixtureMap(dim=factor_prime_power(d), weights=weights, pf=pf)


def _simplex_weights(weights, d: int) -> tuple[float, ...]:
    """The d+1 weights of dimension d as floats, if finite, in [0, 1] and summing to 1 within 1e-12."""
    try:
        w = tuple(map(float, weights))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"need {d + 1} weights for dimension {d}: {exc}") from exc
    if len(w) != d + 1:
        raise ValidationError(f"need {d + 1} weights for dimension {d}, got ({len(w)},)")
    if not all(map(math.isfinite, w)):
        raise ValidationError("weights must be finite numbers")
    if any(x < 0 for x in w):
        raise ValidationError("weights must be nonnegative")
    if any(x > 1 for x in w):  # so every slope is >= 0, as the numeric scan needs
        raise ValidationError(f"mixing weight must lie in [0, 1], got {max(w)!r}")
    total = _pairwise_sum(w)
    if abs(total - 1.0) > 1e-12:
        raise ValidationError(f"weights must sum to 1, got {total!r}")
    return w


# --- the time-local generator ---------------------------------------------


def _invertible_eigenvalues(m: MixtureMap, t: float, h: float) -> tuple[float, ...]:
    """lambda(t), after checking the step, that every |lambda| >= 1e-12 and that p' does not jump in the stencil."""
    if h <= 0:
        raise ValidationError(f"step must be > 0, got {h}")
    if t + h == t:  # covers t - h == t too: the float spacing below t is at most that above
        raise ValidationError(f"step h={h} is below the float spacing at t={t}: t + h rounds to t")
    lam = m.eigenvalues(t)
    if min(map(abs, lam)) < EIGENVALUE_ATOL:
        raise SingularAtTimeError(f"an eigenvalue is within 1e-12 of 0 at t={t}")
    # the times _time_derivative reads: central, or forward where t - h < 0
    first, last = (t - h, t + h) if t - h >= 0 else (t, t + 2 * h)
    for name, kink in m.pf.kinks().items():
        if first < kink < last:
            raise ValidationError(
                f"p' jumps at {name}={kink}, inside the stencil [{first}, {last}] of t={t} with step h={h}; "
                f"pick t or h so that the stencil does not straddle it"
            )
    return lam


def _time_derivative(f: Callable[[float], Sequence], t: float, h: float) -> list:
    """df/dt at t with step h, entry by entry of the sequence f returns.

    Central differences away from t = 0; a second-order forward stencil
    when t < h keeps the O(h^2) accuracy without negative times. An entry
    may be a float or a numpy row.
    """
    if t - h >= 0:
        return [(a - b) / (2 * h) for a, b in zip(f(t + h), f(t - h))]
    return [(-3.0 * a + 4.0 * b - c) / (2 * h) for a, b, c in zip(f(t), f(t + h), f(t + 2 * h))]


def generator_rates(m: MixtureMap, t: float, h: float) -> tuple[float, ...]:
    """Per-index eigenvalue rates lambda_i'(t)/lambda_i(t) of the generator.

    The generator is diagonal on the eigenoperators U_i^k, so its rates are
    finite differences of the eigenvalues divided by the eigenvalues.
    Raises SingularAtTimeError when an eigenvalue is within 1e-12 of 0 at t, and
    ValidationError when the stencil moves no eigenvalue although p'(t) != 0.
    """
    lam = _invertible_eigenvalues(m, t, h)
    rates = tuple(s / x for s, x in zip(_time_derivative(m.eigenvalues, t, h), lam))
    # every rate is -s_i p'/lambda_i, and not every slope s_i is 0
    if not any(rates) and m.pf.derivative(t) != 0:
        raise ValidationError(f"step h={h} moves no eigenvalue at t={t} in floats, though p'(t) != 0")
    return rates
