"""The dense d^2 x d^2 representation of a mixture map, kept as an oracle.

Every map of ``paulimix.dynmaps`` is a generalized Pauli channel, fixed by
its d+1 eigenvalues, and no command needs more. This module rebuilds each
map from the definition instead,

    Phi(t) = (1 - p) id + p/(d-1) sum_i x_i sum_{k=1}^{d-1} U_i^k . U_i^{-k},

with the phase unitaries U_i = sum_j omega^j |xi_j^i><xi_j^i| of the MUB
bases (omega = exp(2 pi i / d)), so the tests can check the eigenvalue core
against an independent route: the superoperator and its Choi matrix, the CP
test, Kraus sets and their dagger dual, and the finite-difference generator.
Nothing here is cached, and no command imports this module.

Conventions:
  * vectorization is column-stacking: vec(A B C) = (C^T kron A) vec(B),
    so a Kraus set {K} has superoperator sum conj(K) kron K;
  * the Choi matrix is sum_r vec(K_r) vec(K_r)^dag, Hermitian with trace d
    for trace-preserving maps, PSD exactly when the map is CP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynmaps import MixtureMap, _invertible_eigenvalues, _time_derivative
from .errors import NonHermitianError, ValidationError
from .mub import cached_mub


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


# --- the dense map ------------------------------------------------------------


def phase_unitaries(d: int) -> np.ndarray:
    """The (d+1, d, d) array of U_i = sum_j omega^j P_j^(i), one per basis of ``cached_mub(d)``.

    U_i is diagonal in basis i, and its spectrum is the d-th roots of 1.
    """
    bases = cached_mub(d).bases
    phases = np.exp(2j * np.pi / d) ** np.arange(d)
    return (bases * phases) @ bases.conj().transpose(0, 2, 1)


def superoperator(m: MixtureMap, t: float) -> np.ndarray:
    """Column-stacking superoperator of ``m`` at time t, a sum of Kronecker products."""
    d = m.d
    p = m.pf.value(t)
    conjugations = np.zeros((d * d, d * d), dtype=complex)
    for x, U in zip(m.weights, phase_unitaries(d)):
        if x == 0.0:
            continue
        Uk = U
        for _ in range(d - 1):
            conjugations += x * np.kron(Uk.conj(), Uk)
            Uk = Uk @ U
    return (1.0 - p) * np.eye(d * d, dtype=complex) + (p / (d - 1)) * conjugations


def numeric_generator(m: MixtureMap, t: float, h: float) -> np.ndarray:
    """Finite-difference time-local generator L(t) = dPhi/dt * Phi(t)^-1.

    The dense counterpart of ``dynmaps.generator_rates``. Raises
    SingularAtTimeError when the map is not invertible at t.
    """
    _invertible_eigenvalues(m, t, h)
    dense = partial(superoperator, m)
    return np.array(_time_derivative(dense, t, h)) @ np.linalg.inv(dense(t))


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
