"""Mutually unbiased bases and the phase unitaries built from them.

For a prime-power dimension d this module constructs d+1 orthonormal bases
with |<a|b>|^2 = 1/d across any two distinct bases, plus the unitaries
U_alpha = sum_j omega^j |xi_j><xi_j| (omega = exp(2 pi i / d)) whose powers
are the eigenoperators of every map downstream.

Constructions:
  * odd prime power q = p^k: quadratic Gauss-phase bases with amplitudes
    exp(2 pi i tr(a s^2 + b s) / p) / sqrt(q) over the field GF(q),
  * q = 2^k: quartic-phase bases i^tr((a + 2b) x) / sqrt(q) with a, b, x
    running over the Teichmuller set of the Galois ring Z4[x]/(f),
and basis 0 is always the computational basis. Nothing downstream trusts
the construction: ``verify_mub`` measures the actual deviations.

Basis vectors are the *columns* of each basis matrix, and every vector's
first nonzero amplitude is normalized to be real positive so serialized
output is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import UnsupportedDimensionError
from .finite_field import PrimePowerDim, factor_prime_power, galois_field

MUB_TOLERANCE = 1e-12


@dataclass(frozen=True)
class MubSet:
    """d+1 bases for dimension d; ``bases[alpha][:, j]`` is vector j."""

    dim: PrimePowerDim
    bases: np.ndarray  # shape (d+1, d, d), complex

    @property
    def d(self) -> int:
        return self.dim.q

    def to_payload(self) -> dict:
        from .serialization import complex_matrix_to_pairs

        return {
            "d": self.d,
            "bases": [complex_matrix_to_pairs(b) for b in self.bases],
        }


@dataclass(frozen=True)
class MubVerification:
    """Measured deviations of a candidate MUB set."""

    d: int
    tol: float
    max_orthonormality_deviation: float
    max_unbiasedness_deviation: float

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


@dataclass(frozen=True)
class WeylUnitaries:
    """The d+1 phase unitaries, one per basis, with spectrum = d-th roots of 1.

    ``unitaries[i]`` is diagonal in basis i of the MUB set it is built from.
    """

    dim: PrimePowerDim
    unitaries: np.ndarray  # shape (d+1, d, d), complex
    omega: complex

    @property
    def d(self) -> int:
        return self.dim.q


def _fix_phases(basis: np.ndarray) -> np.ndarray:
    """Rotate each column so its first nonzero entry is real positive."""
    out = basis.copy()
    d = basis.shape[0]
    for j in range(d):
        col = out[:, j]
        nz = np.flatnonzero(np.abs(col) > 1e-14)
        pivot = col[nz[0]]
        out[:, j] = col * (abs(pivot) / pivot)
    return out


def _odd_prime_power_bases(dim: PrimePowerDim) -> np.ndarray:
    p, k, q = dim.p, dim.k, dim.q
    field = galois_field(p, k)
    elements = field.elements()

    # index tables let the d^3 amplitude exponents come from numpy gathers
    add_idx = np.empty((q, q), dtype=np.int64)
    mul_idx = np.empty((q, q), dtype=np.int64)
    for a in elements:
        ia = a.index
        for b in elements:
            ib = b.index
            add_idx[ia, ib] = (a + b).index
            mul_idx[ia, ib] = (a * b).index
    trace_vec = np.array([field.trace(a) for a in elements], dtype=np.int64)
    square_idx = np.array([mul_idx[i, i] for i in range(q)], dtype=np.int64)

    roots = np.exp(2j * np.pi * np.arange(p) / p)
    bases = np.empty((q + 1, q, q), dtype=complex)
    bases[0] = np.eye(q, dtype=complex)
    s_idx = np.arange(q)
    bs_idx = mul_idx[s_idx[:, None], s_idx[None, :]]  # [s, b] -> index of b*s
    for a in range(q):
        as2_idx = mul_idx[a, square_idx]  # [s] -> index of a*s^2
        expo = trace_vec[add_idx[as2_idx[:, None], bs_idx]]  # [s, b]
        bases[a + 1] = roots[expo % p] / np.sqrt(q)
    return bases


# --- Galois ring GR(4, k) = Z4[x]/(f), f a monic lift of the GF(2) modulus ---


def _gr_mul(a: tuple[int, ...], b: tuple[int, ...], modulus: tuple[int, ...]) -> tuple[int, ...]:
    k = len(a)
    prod = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % 4
    for i in range(len(prod) - 1, k - 1, -1):
        coef = prod[i]
        if coef:
            for j in range(k + 1):
                prod[i - k + j] = (prod[i - k + j] - coef * modulus[j]) % 4
        prod[i] = 0
    return tuple(prod[:k])


def _gr_add(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple((x + y) % 4 for x, y in zip(a, b))


def _gr_pow2k(a: tuple[int, ...], k: int, modulus: tuple[int, ...]) -> tuple[int, ...]:
    out = a
    for _ in range(k):
        out = _gr_mul(out, out, modulus)
    return out


def _teichmuller_set(k: int, modulus: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Teichmuller lifts t = r^(2^k) of the 2^k binary representatives r.

    Ordered so that entry i reduces mod 2 to the field element with index i.
    """
    lifts = []
    for i in range(2**k):
        rep = tuple((i >> j) & 1 for j in range(k))
        lifts.append(_gr_pow2k(rep, k, modulus))
    return lifts


def _gr_frobenius(y: tuple[int, ...], k: int, modulus: tuple[int, ...]) -> tuple[int, ...]:
    """sigma(a + 2b) = a^2 + 2 b^2 with a, b the Teichmuller coordinates of y."""
    a = _gr_pow2k(y, k, modulus)
    diff = tuple((yi - ai) % 4 for yi, ai in zip(y, a))
    assert all(c % 2 == 0 for c in diff)
    b_rep = tuple(c // 2 for c in diff)
    b = _gr_pow2k(b_rep, k, modulus)
    a2 = _gr_mul(a, a, modulus)
    b2 = _gr_mul(b, b, modulus)
    return _gr_add(a2, tuple((2 * c) % 4 for c in b2))


def _gr_trace(y: tuple[int, ...], k: int, modulus: tuple[int, ...]) -> int:
    acc = (0,) * k
    term = y
    for _ in range(k):
        acc = _gr_add(acc, term)
        term = _gr_frobenius(term, k, modulus)
    assert all(c == 0 for c in acc[1:]), "ring trace left Z4"
    return acc[0]


def _even_prime_power_bases(dim: PrimePowerDim) -> np.ndarray:
    k, q = dim.k, dim.q
    field = galois_field(2, k)
    modulus = field.modulus  # reduction mod 2 is irreducible, so this lifts to GR(4, k)
    teich = _teichmuller_set(k, modulus)

    # the trace is Z4-linear, so tr(s * x) = s^T M x with
    # M[i, j] = tr(x^(i+j) mod f); one integer matrix product covers all triples
    powers = [(1,) + (0,) * (k - 1)]
    xgen = tuple(1 if i == 1 else 0 for i in range(k))
    for _ in range(2 * k - 2):
        powers.append(_gr_mul(powers[-1], xgen, modulus))
    tr_mono = [_gr_trace(powers[i], k, modulus) for i in range(2 * k - 1)]
    tmat = np.array([[tr_mono[i + j] for j in range(k)] for i in range(k)], dtype=np.int64)

    tvecs = np.array(teich, dtype=np.int64)  # (q, k)
    quartic_roots = np.array([1, 1j, -1, -1j], dtype=complex)
    bases = np.empty((q + 1, q, q), dtype=complex)
    bases[0] = np.eye(q, dtype=complex)
    for ia in range(q):
        phases = (tvecs[ia][None, :] + 2 * tvecs) % 4  # (q, k), row b -> a + 2b
        expo = (phases @ tmat @ tvecs.T) % 4  # (q_b, q_x)
        bases[ia + 1] = quartic_roots[expo].T / np.sqrt(q)
    return bases


def build_mub(dim: PrimePowerDim) -> MubSet:
    """Construct the d+1 bases for a prime-power dimension.

    Basis 0 is the computational basis. Raises UnsupportedDimensionError
    if no construction covers (p, k); with the two constructions here that
    never happens for a valid prime power.
    """
    if dim.q < 2:
        raise UnsupportedDimensionError(f"dimension {dim.q} < 2")
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
    max | |<a|b>|^2 - 1/d | over all cross-basis vector pairs.
    """
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


def build_unitaries(m: MubSet) -> WeylUnitaries:
    """U_alpha = sum_j omega^j P_j^(alpha) for each basis alpha."""
    d = m.d
    omega = np.exp(2j * np.pi / d)
    phases = omega ** np.arange(d)
    unitaries = np.empty_like(m.bases)
    for alpha, basis in enumerate(m.bases):
        unitaries[alpha] = (basis * phases[None, :]) @ basis.conj().T
    unitaries.setflags(write=False)
    return WeylUnitaries(dim=m.dim, unitaries=unitaries, omega=complex(omega))


@lru_cache(maxsize=None)
def cached_mub(d: int) -> MubSet:
    """Cached construction keyed by dimension (treat the arrays as read-only)."""
    return build_mub(factor_prime_power(d))


@lru_cache(maxsize=None)
def cached_unitaries(d: int) -> WeylUnitaries:
    return build_unitaries(cached_mub(d))


def mub_from_payload(payload: dict) -> MubSet:
    """Rebuild a MubSet from the JSON wire format {d, bases}."""
    from .serialization import pairs_to_complex_matrix

    d = int(payload["d"])
    dim = factor_prime_power(d)
    bases = np.stack([pairs_to_complex_matrix(b) for b in payload["bases"]])
    if bases.shape != (d + 1, d, d):
        raise ValueError(f"expected {(d + 1, d, d)} bases array, got {bases.shape}")
    return MubSet(dim=dim, bases=bases)
