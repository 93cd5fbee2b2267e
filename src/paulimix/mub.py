"""Mutually unbiased bases: build, verify, cache and serialize.

For a prime-power dimension d this module constructs d+1 orthonormal bases
with |<a|b>|^2 = 1/d across any two distinct bases. ``MixtureMap.apply``
dephases in them, and ``paulimix.oracle`` builds from them the phase
unitaries whose powers are the eigenoperators of every map.

Construction: one for every prime power q = p^k. Vector b of basis a+1
(a, b, x running over q elements) has amplitudes
w^(tr(a y(x)) + c tr(b x)) / sqrt(q), w = exp(2 pi i / m), where tr is an
integer bilinear trace form over Z_m:
  * odd q: m = p, y(x) = x^2 and c = 1, over the field GF(q) (the quadratic
    Gauss phases of Wootters & Fields, Ann. Phys. 191, 363, 1989),
  * q = 2^k: m = 4, y(x) = x and c = 2, over the Teichmuller set of the
    Galois ring GR(4, k) = Z4[x]/(f) (the quartic phases of Klappenecker &
    Roetteler, LNCS 2948, 2004),
and basis 0 is always the computational basis. Nothing downstream trusts
the construction: ``verify_mub`` measures the actual deviations. Basis sets
are built or read only up to d = 128, where verifying one takes seconds.

Basis vectors are the *columns* of each basis matrix. The first amplitude
of every vector is 1/sqrt(d) (basis 0: 1), by construction (x = 0 gives
exponent 0), so serialized output is reproducible without a phase pass.

The integer tables of the trace form come from one pure-Python helper,
``_trace_form``. ``_phase_bases`` multiplies them in numpy for every basis;
``_phase_row`` reads the exponents of one vector from them, which is all
``evolve`` needs for a ``mub:`` state. numpy is imported inside the
functions that use it, so importing this module loads none.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:
    import numpy as np

MUB_TOLERANCE = 1e-12
# build_mub and mub_from_payload refuse d above this. verify_mub costs about
# d^5: 0.2 s at d = 64 and 4.7 s at d = 128 (build_mub 9 ms and 80 ms),
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

        return {"d": self.d, "bases": complex_matrix_to_pairs(self.bases)}


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


def _trace_form(dim: PrimePowerDim) -> tuple[int, int, list, list, list]:
    """The integer tables of the construction, in Python ints: (m, c, elements, ys, tmat).

    ``elements[x]`` and ``ys[x]`` = y(x) are the digit vectors over Z_m of
    element x and of y(x). The trace is linear on them: tr(s t) = s^T tmat t
    with tmat[i][j] = tr(x^(i+j)).
    """
    p, k, q = dim.p, dim.k, dim.q
    field = galois_field(p, k)
    if p == 2:
        # the Teichmuller lift r^(2^k) in GR(4, k), whose modulus f mod 4 is
        # irreducible mod 2, of the binary representative r of each element
        m, c = 4, 2
        elements = []
        for i in range(q):
            t = _digits(i, 2, k)
            for _ in range(k):
                t = _poly_mod(_poly_mul(t, t, 4), field.modulus, 4)
            elements.append(t + (0,) * (k - len(t)))
        ys = elements
    else:
        m, c = p, 1
        elements = [_digits(x, p, k) for x in range(q)]
        ys = [elements[field.mul(x, x)] for x in range(q)]
    traces = _power_traces(field.modulus, m, 2 * k - 1)
    tmat = [[traces[i + j] for j in range(k)] for i in range(k)]
    return m, c, elements, ys, tmat


def _phase_bases(dim: PrimePowerDim) -> np.ndarray:
    """Basis 0 = I, then basis a+1 with entry [x, b] w^(tr(a y(x)) + c tr(b x)) / sqrt(q).

    The exponents of all bases come from two integer matrix products over
    the tables of ``_trace_form``.
    """
    import numpy as np

    q = dim.q
    m, c, elements, ys, tmat = _trace_form(dim)
    # -1j has real part -0.0; + 0.0 clears the sign
    roots = np.array([1, 1j, -1, -1j]) + 0.0 if m == 4 else np.exp(2j * np.pi * np.arange(m) / m)
    tmat = np.array(tmat, dtype=np.int64)
    vecs = np.array(elements, dtype=np.int64)  # (q, k)
    tr_ay = vecs @ tmat @ np.array(ys, dtype=np.int64).T  # [a, x] -> tr(a y(x))
    c_tr_xb = c * (vecs @ tmat @ vecs.T)  # [x, b] -> c tr(b x)

    bases = np.empty((q + 1, q, q), dtype=complex)
    bases[0] = np.eye(q, dtype=complex)
    for a in range(q):
        bases[a + 1] = roots[(tr_ay[a][:, None] + c_tr_xb) % m] / np.sqrt(q)
    return bases


def _phase_row(dim: PrimePowerDim, alpha: int, j: int) -> tuple[int, list[int]]:
    """(m, k) with vector j of basis alpha >= 1 equal to w^k[x] / sqrt(q), w = exp(2 pi i / m).

    The same exponents as ``_phase_bases`` (a = alpha - 1, b = j), from the
    same tables, in Python ints and without the other q^2 - 1 vectors.
    """
    m, c, elements, ys, tmat = _trace_form(dim)
    a, b = elements[alpha - 1], elements[j]
    a_t = [sum(ai * row[l] for ai, row in zip(a, tmat)) for l in range(len(b))]  # a^T tmat
    t_b = [sum(tl * bl for tl, bl in zip(row, b)) for row in tmat]  # tmat b
    return m, [
        (sum(u * y for u, y in zip(a_t, ys[x])) + c * sum(e * v for e, v in zip(elements[x], t_b))) % m
        for x in range(dim.q)
    ]


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
    bases = _phase_bases(dim)
    bases.setflags(write=False)
    return MubSet(dim=dim, bases=bases)


def verify_mub(m: MubSet, tol: float = MUB_TOLERANCE) -> MubVerification:
    """Measure orthonormality and unbiasedness deviations of a basis set.

    Reports max |B^dag B - I| entry over bases and
    max | |<a|b>|^2 - 1/d | over all cross-basis vector pairs. A negative
    ``tol`` would fail every set, so it is refused. The last digits of the
    deviations depend on the BLAS kernel (``OPENBLAS_CORETYPE``); ``passed`` does not.
    """
    import numpy as np

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
    import numpy as np

    from .serialization import pairs_to_complex_matrix

    d = int(payload["d"])
    dim = factor_prime_power(d)
    _check_dimension(d)
    bases = np.stack([pairs_to_complex_matrix(b) for b in payload["bases"]])
    if bases.shape != (d + 1, d, d):
        raise ValueError(f"expected {(d + 1, d, d)} bases array, got {bases.shape}")
    return MubSet(dim=dim, bases=bases)
