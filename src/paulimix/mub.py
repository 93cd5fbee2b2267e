"""Mutually unbiased bases: build, verify, cache and serialize.

For a prime-power dimension d this module constructs d+1 orthonormal bases
with |<a|b>|^2 = 1/d across any two distinct bases. ``MixtureMap.apply``
dephases in them, and ``paulimix.oracle`` builds from them the phase
unitaries whose powers are the eigenoperators of every map.

Constructions:
  * odd prime power q = p^k: quadratic Gauss-phase bases with amplitudes
    exp(2 pi i tr(a s^2 + b s) / p) / sqrt(q) over the field GF(q),
  * q = 2^k: quartic-phase bases i^tr((a + 2b) x) / sqrt(q) with a, b, x
    running over the Teichmuller set of the Galois ring Z4[x]/(f),
and basis 0 is always the computational basis. Nothing downstream trusts
the construction: ``verify_mub`` measures the actual deviations. Basis sets
are built or read only up to d = 128, where verifying one takes seconds.

Basis vectors are the *columns* of each basis matrix, and every vector's
first nonzero amplitude is normalized to be real positive so serialized
output is reproducible.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import Frozen, ValidationError
from .finite_field import (
    PrimePowerDim,
    _digits,
    _poly_mod,
    _poly_mul,
    _power_traces,
    factor_prime_power,
    galois_field,
)

MUB_TOLERANCE = 1e-12
# build_mub and mub_from_payload refuse d above this. verify_mub costs about
# d^5: 0.2 s at d = 64 and 4.7 s at d = 128 (build_mub 0.06 s and 0.3 s),
# in one process with one BLAS thread on a 2-core VM; the bases take
# (d+1) d^2 complex values, 34 MB at d = 128
_MAX_D = 128


class MubSet(Frozen):
    """d+1 bases for dimension d; ``bases[alpha][:, j]`` is vector j."""

    def __init__(self, dim: PrimePowerDim, bases: np.ndarray) -> None:
        vars(self).update(dim=dim, bases=bases)  # bases: shape (d+1, d, d), complex

    @property
    def d(self) -> int:
        return self.dim.q

    def to_payload(self) -> dict:
        from .serialization import complex_matrix_to_pairs

        return {
            "d": self.d,
            "bases": [complex_matrix_to_pairs(b) for b in self.bases],
        }


class MubVerification(Frozen):
    """Measured deviations of a candidate MUB set."""

    def __init__(
        self, d: int, tol: float, max_orthonormality_deviation: float, max_unbiasedness_deviation: float
    ) -> None:
        vars(self).update(
            d=d,
            tol=tol,
            max_orthonormality_deviation=max_orthonormality_deviation,
            max_unbiasedness_deviation=max_unbiasedness_deviation,
        )

    @property
    def passed(self) -> bool:
        return (
            self.max_orthonormality_deviation <= self.tol
            and self.max_unbiasedness_deviation <= self.tol
        )

    def to_payload(self) -> dict:
        return {
            "d": self.d,
            "tol": self.tol,
            "max_orthonormality_deviation": self.max_orthonormality_deviation,
            "max_unbiasedness_deviation": self.max_unbiasedness_deviation,
            "passed": self.passed,
        }


def _fix_phases(basis: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero entry is real positive."""
    pivots = basis[np.argmax(np.abs(basis) > 1e-14, axis=0), np.arange(basis.shape[1])]
    return basis * (np.abs(pivots) / pivots)


def _odd_prime_power_bases(dim: PrimePowerDim) -> np.ndarray:
    p, k, q = dim.p, dim.k, dim.q
    field = galois_field(p, k)

    # tr(a s^2 + b s) = tr(a s^2) + tr(b s), so the q^3 amplitude exponents
    # are numpy gathers from the multiplication table and the trace vector
    mul_idx = np.array([[field.mul(a, b) for b in range(q)] for a in range(q)], dtype=np.int64)
    trace_vec = np.array([field.trace(a) for a in range(q)], dtype=np.int64)
    square_idx = mul_idx.diagonal()
    tr_bs = trace_vec[mul_idx]  # [s, b] -> tr(b s)

    roots = np.exp(2j * np.pi * np.arange(p) / p)
    bases = np.empty((q + 1, q, q), dtype=complex)
    bases[0] = np.eye(q, dtype=complex)
    for a in range(q):
        tr_as2 = trace_vec[mul_idx[a, square_idx]]  # [s] -> tr(a s^2)
        bases[a + 1] = roots[(tr_as2[:, None] + tr_bs) % p] / np.sqrt(q)
    return bases


def _even_prime_power_bases(dim: PrimePowerDim) -> np.ndarray:
    """Quartic phases over the Galois ring GR(4, k) = Z4[x]/(f).

    f is the GF(2) modulus read mod 4: it is irreducible mod 2, so it lifts
    to GR(4, k).
    """
    k, q = dim.k, dim.q
    modulus = galois_field(2, k).modulus

    # Teichmuller lift t = r^(2^k) of each binary representative r; entry i
    # reduces mod 2 to the field element with index i
    lifts = []
    for i in range(q):
        t = _digits(i, 2, k)
        for _ in range(k):
            t = _poly_mod(_poly_mul(t, t, 4), modulus, 4)
        lifts.append(t + (0,) * (k - len(t)))

    # the trace is Z4-linear, so tr(s * x) = s^T M x with
    # M[i, j] = tr(x^(i+j)); one integer matrix product covers all triples
    tr_mono = _power_traces(modulus, 4, 2 * k - 1)
    tmat = np.array([[tr_mono[i + j] for j in range(k)] for i in range(k)], dtype=np.int64)

    tvecs = np.array(lifts, dtype=np.int64)  # (q, k)
    quartic_roots = np.array([1, 1j, -1, -1j], dtype=complex)
    bases = np.empty((q + 1, q, q), dtype=complex)
    bases[0] = np.eye(q, dtype=complex)
    for ia in range(q):
        phases = (tvecs[ia][None, :] + 2 * tvecs) % 4  # (q, k), row b -> a + 2b
        expo = (phases @ tmat @ tvecs.T) % 4  # (q_b, q_x)
        bases[ia + 1] = quartic_roots[expo].T / np.sqrt(q)
    return bases


def _check_dimension(d: int) -> None:
    if d > _MAX_D:
        raise ValidationError(
            f"MUB construction and verification are limited to d <= {_MAX_D}, got d={d}"
        )


def build_mub(dim: PrimePowerDim) -> MubSet:
    """Construct the d+1 bases for a prime-power dimension d <= _MAX_D.

    Basis 0 is the computational basis. Raises ValidationError beyond _MAX_D.
    """
    _check_dimension(dim.q)
    if dim.p == 2:
        bases = _even_prime_power_bases(dim)
    else:
        bases = _odd_prime_power_bases(dim)
    bases = np.stack([_fix_phases(b) for b in bases])
    bases.setflags(write=False)
    return MubSet(dim=dim, bases=bases)


def verify_mub(m: MubSet, tol: float = MUB_TOLERANCE) -> MubVerification:
    """Measure orthonormality and unbiasedness deviations of a basis set.

    Reports max |B^dag B - I| entry over bases and
    max | |<a|b>|^2 - 1/d | over all cross-basis vector pairs. A negative
    ``tol`` would fail every set, so it is refused.
    """
    if not tol >= 0:
        raise ValidationError(f"tol must be >= 0, got {tol}")
    d = m.bases.shape[1]
    ortho = 0.0
    eye = np.eye(d)
    for basis in m.bases:
        gram = basis.conj().T @ basis
        ortho = max(ortho, float(np.max(np.abs(gram - eye))))
    unbiased = 0.0
    n_bases = m.bases.shape[0]
    for alpha in range(n_bases):
        for beta in range(alpha + 1, n_bases):
            overlaps = m.bases[alpha].conj().T @ m.bases[beta]
            dev = np.max(np.abs(np.abs(overlaps) ** 2 - 1.0 / d))
            unbiased = max(unbiased, float(dev))
    return MubVerification(
        d=d,
        tol=tol,
        max_orthonormality_deviation=ortho,
        max_unbiasedness_deviation=unbiased,
    )


@lru_cache(maxsize=None)
def cached_mub(d: int) -> MubSet:
    """Cached construction keyed by dimension (treat the arrays as read-only)."""
    return build_mub(factor_prime_power(d))


def mub_from_payload(payload: dict) -> MubSet:
    """Rebuild a MubSet from the JSON wire format {d, bases}."""
    from .serialization import pairs_to_complex_matrix

    d = int(payload["d"])
    dim = factor_prime_power(d)
    _check_dimension(d)
    bases = np.stack([pairs_to_complex_matrix(b) for b in payload["bases"]])
    if bases.shape != (d + 1, d, d):
        raise ValueError(f"expected {(d + 1, d, d)} bases array, got {bases.shape}")
    return MubSet(dim=dim, bases=bases)
