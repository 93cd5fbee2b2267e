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

The dense d^2 x d^2 representation (``MixtureMap.superoperator``,
``to_choi``, ``is_cp``, ``numeric_generator``, ``KrausSet``) is built from
the definition, independently of the eigenvalues, and serves as the oracle
the tests compare the core against.

Conventions, fixed once for the whole package:
  * vectorization is column-stacking: vec(A B C) = (C^T kron A) vec(B),
    so a Kraus set {K} has superoperator sum conj(K) kron K;
  * the Choi matrix is sum_r vec(K_r) vec(K_r)^dag, Hermitian with trace d
    for trace-preserving maps, PSD exactly when the map is CP;
  * mixing indices are 0-based: weight x[i] goes with basis i of the MUB
    set (basis 0 is computational).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import (
    NegativeTimeError,
    NonHermitianError,
    RateSingularError,
    SingularAtTimeError,
    ValidationError,
)
from .finite_field import PrimePowerDim, factor_prime_power
from .mub import WeylUnitaries, cached_unitaries

# --- decoherence functions -------------------------------------------------


def _check_finite(**values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{name} must be a finite number, got {value}")


class DecoherenceFunction(ABC):
    """A decoherence profile p(t) with p(0) = 0 and values in [0, 1]."""

    family: str

    def value(self, t: float) -> float:
        if t < 0:
            raise NegativeTimeError(f"p(t) is defined for t >= 0, got t={t}")
        return self._value(t)

    __call__ = value

    def derivative(self, t: float) -> float:
        if t < 0:
            raise NegativeTimeError(f"p'(t) is defined for t >= 0, got t={t}")
        return self._derivative(t)

    @abstractmethod
    def _value(self, t: float) -> float: ...

    @abstractmethod
    def _derivative(self, t: float) -> float: ...

    @abstractmethod
    def describe(self) -> dict: ...


@dataclass(frozen=True)
class Exponential(DecoherenceFunction):
    """p(t) = (1 - exp(-c t)) / n, strictly increasing toward 1/n."""

    n: float
    c: float
    family = "exponential"

    def __post_init__(self) -> None:
        _check_finite(n=self.n, c=self.c)
        if self.n < 1:
            raise ValidationError(f"decoherence parameter n must be >= 1, got {self.n}")
        if self.c <= 0:
            raise ValidationError(f"decay factor c must be > 0, got {self.c}")

    def _value(self, t: float) -> float:
        return (1.0 - math.exp(-self.c * t)) / self.n

    def _derivative(self, t: float) -> float:
        return self.c * math.exp(-self.c * t) / self.n

    def describe(self) -> dict:
        return {"family": self.family, "n": self.n, "c": self.c}


@dataclass(frozen=True)
class Cosine(DecoherenceFunction):
    """p(t) = (1 - cos(omega t)) / 2, oscillating through [0, 1]."""

    omega: float
    family = "cosine"

    def __post_init__(self) -> None:
        _check_finite(omega=self.omega)
        if self.omega <= 0:
            raise ValidationError(f"angular frequency must be > 0, got {self.omega}")

    def _value(self, t: float) -> float:
        return 0.5 * (1.0 - math.cos(self.omega * t))

    def _derivative(self, t: float) -> float:
        return 0.5 * self.omega * math.sin(self.omega * t)

    def describe(self) -> dict:
        return {"family": self.family, "omega": self.omega}


@dataclass(frozen=True)
class Plateau(DecoherenceFunction):
    """Monotone ramp to 1/2 at t_sharp, constant at 1/2 afterwards.

    The default ramp is linear, f(t) = t / (2 t_sharp); any monotone
    callable with f(0) = 0 and f(t_sharp) = 1/2 may be supplied instead.
    """

    t_sharp: float
    ramp: Optional[Callable[[float], float]] = None
    family = "plateau"

    def __post_init__(self) -> None:
        _check_finite(t_sharp=self.t_sharp)
        if self.t_sharp <= 0:
            raise ValidationError(f"t_sharp must be > 0, got {self.t_sharp}")
        if self.ramp is not None:
            if abs(self.ramp(0.0)) > 1e-12 or abs(self.ramp(self.t_sharp) - 0.5) > 1e-12:
                raise ValidationError("ramp must satisfy f(0) = 0 and f(t_sharp) = 1/2")

    def _ramp_value(self, t: float) -> float:
        if self.ramp is None:
            return t / (2.0 * self.t_sharp)
        return self.ramp(t)

    def _value(self, t: float) -> float:
        if t >= self.t_sharp:
            return 0.5
        return self._ramp_value(t)

    def _derivative(self, t: float) -> float:
        if t >= self.t_sharp:
            return 0.0
        if self.ramp is None:
            return 1.0 / (2.0 * self.t_sharp)
        h = 1e-7 * self.t_sharp
        lo, hi = max(0.0, t - h), min(self.t_sharp, t + h)
        return (self._ramp_value(hi) - self._ramp_value(lo)) / (hi - lo)

    def describe(self) -> dict:
        return {
            "family": self.family,
            "t_sharp": self.t_sharp,
            "ramp": "linear" if self.ramp is None else "custom",
        }


# --- density matrices -------------------------------------------------------


def density_matrix_defects(rho: np.ndarray) -> tuple[float, float, float]:
    """(hermiticity defect, |trace - 1|, min eigenvalue) of a candidate state."""
    rho = np.asarray(rho, dtype=complex)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    tr = abs(complex(np.trace(rho)) - 1.0)
    lam_min = float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))))
    return herm, float(tr), lam_min


def validate_density_matrix(rho: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValidationError(f"density matrix must be square, got shape {rho.shape}")
    herm, tr_defect, lam_min = density_matrix_defects(rho)
    if herm > tol:
        raise ValidationError(f"not Hermitian (max deviation {herm:.3e})")
    if tr_defect > tol:
        raise ValidationError(f"trace differs from 1 by {tr_defect:.3e}")
    if lam_min < -tol:
        raise ValidationError(f"negative eigenvalue {lam_min:.3e}")
    return rho


def random_density_matrix(d: int, rng: np.random.Generator) -> np.ndarray:
    """Ginibre-induced random full-rank state."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


# --- vectorization ----------------------------------------------------------


def vec(mat: np.ndarray) -> np.ndarray:
    """Column-stack a matrix into a vector."""
    return np.asarray(mat).T.reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    d = int(round(math.sqrt(v.size)))
    return v.reshape(d, d).T


# --- input maps and mixtures -------------------------------------------------


@dataclass(eq=False)
class MixtureMap:
    """A convex mixture of the d+1 dephasing input maps.

    Weights may sit on the boundary of the simplex (zeros allowed), which
    covers the single-input-map limit, so a one-hot weight vector is a
    single input map; they must be finite, nonnegative and sum to one
    within 1e-12.
    """

    unitaries: WeylUnitaries
    weights: np.ndarray
    pf: DecoherenceFunction

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        d = self.unitaries.d
        if w.shape != (d + 1,):
            raise ValidationError(f"need {d + 1} weights for dimension {d}, got {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("weights must be finite numbers")
        if np.any(w < 0):
            raise ValidationError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValidationError(f"weights must sum to 1, got {w.sum()!r}")
        self.weights = w

    @property
    def dim(self) -> PrimePowerDim:
        return self.unitaries.dim

    @property
    def d(self) -> int:
        return self.unitaries.d

    def eigenvalues(self, t: float) -> np.ndarray:
        """lambda_i(t) = 1 - d/(d-1) (1 - x_i) p(t), indexed by mixing index i."""
        d = self.d
        return 1.0 - (d / (d - 1)) * (1.0 - self.weights) * self.pf.value(t)

    def apply(self, t: float, rho: np.ndarray) -> np.ndarray:
        """Evolve a state: (1 - a) rho + a sum_i x_i dephase_i(rho), a = p d/(d-1).

        dephase_i(rho) = B_i diag(B_i^dag rho B_i) B_i^dag keeps the diagonal
        of rho in basis i; all d+1 of them come from two d x d(d+1) products.
        """
        d = self.d
        a = self.pf.value(t) * d / (d - 1)
        rho = np.asarray(rho, dtype=complex)
        # all d+1 bases side by side: column i*d + j is vector j of basis i
        cols = self.unitaries.bases.transpose(1, 0, 2).reshape(d, -1)
        populations = np.sum(cols.conj() * (rho @ cols), axis=0)  # <xi_j^i| rho |xi_j^i>
        coefs = np.repeat(self.weights, d) * populations
        return (1.0 - a) * rho + a * ((cols * coefs) @ cols.conj().T)

    @cached_property
    def _conjugation_superop(self) -> np.ndarray:
        """sum_i x_i sum_k conj(U_i^k) kron U_i^k, the t-independent part."""
        d = self.d
        acc = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d + 1):
            x = self.weights[i]
            if x == 0.0:
                continue
            U = self.unitaries.unitaries[i]
            Uk = U
            for _ in range(d - 1):
                acc += x * np.kron(Uk.conj(), Uk)
                Uk = Uk @ U
        return acc

    def superoperator(self, t: float) -> np.ndarray:
        """Column-stacking superoperator matrix of the map at time t.

        Built from the definition as an independent oracle for the
        eigenvalue core; no command computes it.
        """
        d = self.d
        p = self.pf.value(t)
        return (1.0 - p) * np.eye(d * d, dtype=complex) + (p / (d - 1)) * self._conjugation_superop


def mixture_map(d: int, weights, pf: DecoherenceFunction) -> MixtureMap:
    """Build a mixture map for dimension d, constructing (cached) MUBs."""
    factor_prime_power(d)
    return MixtureMap(unitaries=cached_unitaries(d), weights=np.asarray(weights, dtype=float), pf=pf)


# --- Choi / CP --------------------------------------------------------------


def to_choi(superop: np.ndarray) -> np.ndarray:
    """Reshuffle a column-stacking superoperator into its Choi matrix.

    With S = sum_r conj(K_r) kron K_r this returns
    sum_r vec(K_r) vec(K_r)^dag (trace d for trace-preserving maps).
    """
    s = np.asarray(superop)
    d = int(round(math.sqrt(s.shape[0])))
    return s.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


def is_cp(choi: np.ndarray, tol: float = 1e-10, herm_tol: float = 1e-10) -> tuple[bool, float]:
    """CP test: (lambda_min(choi) >= -tol, lambda_min).

    Raises NonHermitianError when the input is not Hermitian within herm_tol.
    """
    c = np.asarray(choi)
    herm = float(np.max(np.abs(c - c.conj().T)))
    if herm > herm_tol:
        raise NonHermitianError(f"Choi matrix deviates from Hermiticity by {herm:.3e}")
    lam_min = float(np.min(np.linalg.eigvalsh(0.5 * (c + c.conj().T))))
    return lam_min >= -tol, lam_min


# --- Kraus sets and the dagger dual -----------------------------------------


@dataclass
class KrausSet:
    """A list of d x d Kraus operators."""

    operators: list[np.ndarray]

    def __post_init__(self) -> None:
        if not self.operators:
            raise ValidationError("a Kraus set needs at least one operator")
        self.operators = [np.asarray(k, dtype=complex) for k in self.operators]
        shape = self.operators[0].shape
        if shape[0] != shape[1] or any(k.shape != shape for k in self.operators):
            raise ValidationError("Kraus operators must all be square with the same shape")

    @property
    def d(self) -> int:
        return self.operators[0].shape[0]

    def completeness_defect(self) -> float:
        """max |sum K^dag K - I|; zero for trace-preserving maps."""
        acc = sum(k.conj().T @ k for k in self.operators)
        return float(np.max(np.abs(acc - np.eye(self.d))))

    def unitality_defect(self) -> float:
        """max |sum K K^dag - I|; zero for unital maps."""
        acc = sum(k @ k.conj().T for k in self.operators)
        return float(np.max(np.abs(acc - np.eye(self.d))))

    def to_superoperator(self) -> np.ndarray:
        acc = np.zeros((self.d**2, self.d**2), dtype=complex)
        for k in self.operators:
            acc += np.kron(k.conj(), k)
        return acc

    def apply(self, rho: np.ndarray) -> np.ndarray:
        rho = np.asarray(rho, dtype=complex)
        return sum(k @ rho @ k.conj().T for k in self.operators)


@dataclass
class DualMapResult:
    """The dagger-dual Kraus set plus validity flags for both directions.

    The dual {K^dag} is trace preserving exactly when the original map is
    unital, so both defects are reported instead of raising.
    """

    kraus: KrausSet
    original_tp_defect: float
    dual_tp_defect: float
    tol: float = 1e-10

    @property
    def original_trace_preserving(self) -> bool:
        return self.original_tp_defect <= self.tol

    @property
    def dual_trace_preserving(self) -> bool:
        return self.dual_tp_defect <= self.tol


def kraus_dagger_dual(k: KrausSet, tol: float = 1e-10) -> DualMapResult:
    """The map rho -> sum_j K_j^dag rho K_j, i.e. every operator daggered."""
    dual = KrausSet([op.conj().T for op in k.operators])
    return DualMapResult(
        kraus=dual,
        original_tp_defect=k.completeness_defect(),
        dual_tp_defect=dual.completeness_defect(),
        tol=tol,
    )


# --- decay rates and the time-local generator --------------------------------


def decay_rate(pf: DecoherenceFunction, t: float) -> float:
    """Single-input-map decay rate gamma(t) for the analytic families.

    Exponential: gamma = c / ((n - 2) e^{c t} + 2); cosine:
    gamma = omega/2 * tan(omega t). Raises RateSingularError where the
    denominator vanishes and ValidationError for the plateau family.
    """
    if t < 0:
        raise NegativeTimeError(f"decay rate defined for t >= 0, got {t}")
    if isinstance(pf, Exponential):
        scale = abs(pf.n - 2.0) * math.exp(pf.c * t) + 2.0
        denom = (pf.n - 2.0) * math.exp(pf.c * t) + 2.0
        if abs(denom) < 1e-12 * scale:
            raise RateSingularError(f"decay rate diverges at t={t}")
        return pf.c / denom
    if isinstance(pf, Cosine):
        cos = math.cos(pf.omega * t)
        if abs(cos) < 1e-12:
            raise RateSingularError(f"decay rate diverges at t={t}")
        return 0.5 * pf.omega * math.tan(pf.omega * t)
    raise ValidationError(f"decay rate has no closed form for the {pf.family} family")


def _invertible_eigenvalues(m: MixtureMap, t: float, h: float) -> np.ndarray:
    """lambda(t), after checking the step and that the map is invertible at t."""
    if h <= 0:
        raise ValidationError(f"step must be > 0, got {h}")
    lam = m.eigenvalues(t)
    if np.min(np.abs(lam)) < 1e-12:
        raise SingularAtTimeError(f"map has a zero eigenvalue at t={t}")
    return lam


def _time_derivative(f: Callable[[float], np.ndarray], t: float, h: float) -> np.ndarray:
    """df/dt at t with step h.

    Central differences away from t = 0; a second-order forward stencil
    when t < h keeps the O(h^2) accuracy without negative times.
    """
    if t - h >= 0:
        return (f(t + h) - f(t - h)) / (2 * h)
    return (-3.0 * f(t) + 4.0 * f(t + h) - f(t + 2 * h)) / (2 * h)


def numeric_generator(m: MixtureMap, t: float, h: float) -> np.ndarray:
    """Finite-difference time-local generator L(t) = dPhi/dt * Phi(t)^-1.

    The dense oracle for ``generator_rates``. Raises SingularAtTimeError
    when the map is not invertible at t.
    """
    _invertible_eigenvalues(m, t, h)
    return _time_derivative(m.superoperator, t, h) @ np.linalg.inv(m.superoperator(t))


def generator_rates(m: MixtureMap, t: float, h: float) -> np.ndarray:
    """Per-index eigenvalue rates lambda_i'(t)/lambda_i(t) of the generator.

    The generator is diagonal on the eigenoperators U_i^k, so its rates are
    finite differences of the eigenvalues divided by the eigenvalues.
    Raises SingularAtTimeError when the map is not invertible at t.
    """
    lam = _invertible_eigenvalues(m, t, h)
    return _time_derivative(m.eigenvalues, t, h) / lam
