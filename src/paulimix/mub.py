"""Mutually unbiased bases: build, verify, cache and serialize.

For a prime-power dimension d this module constructs d+1 orthonormal bases
with |<a|b>|^2 = 1/d across any two distinct bases. ``MixtureMap.dephased``
dephases a state file in them, and ``paulimix.oracle`` builds from them the
phase unitaries whose powers are the eigenoperators of every map.

Construction: one for every prime power q = p^k. Vector b of basis a+1
(a, b, x running over q elements) has amplitudes
w^(tr(a y(x)) + c tr(b x)) / sqrt(q), w = exp(2 pi i / m), where tr is an
integer bilinear trace form over Z_m:
  * odd q: m = p, y(x) = x^2 and c = 1, over the field GF(q) (the quadratic
    Gauss phases of Wootters & Fields, Ann. Phys. 191, 363, 1989),
  * q = 2^k: m = 4, y(x) = x and c = 2, over the Teichmuller set of the
    Galois ring GR(4, k) = Z4[x]/(f) (the quartic phases of Klappenecker &
    Roetteler, LNCS 2948, 2004),
and basis 0 is always the computational basis. Basis sets are built or
read only up to d = 128.

Basis vectors are the *columns* of each basis matrix. The first amplitude
of every vector is 1/sqrt(d) (basis 0: 1), by construction (x = 0 gives
exponent 0), so serialized output is reproducible without a phase pass.

The trace form is evaluated once, in pure Python, by ``_trace_form``:
its exponent table gives every vector's exponents as a.w[x] + c b.u[x],
and every w^r comes from one root table, ``_roots``. A set from
``build_mub`` holds the table; ``_phase_bases`` forms its float array in
numpy only when ``bases`` is read. ``basis_state`` reads one vector from
the table, which is all ``evolve`` needs for a ``mub:`` state. numpy is
imported inside the functions that use it, so importing this module loads
none.

Nothing downstream trusts the construction: ``verify_mub`` measures the
deviations. For a set that holds tables it measures every overlap, in pure
Python, as a character sum over the root table: the exponents are linear
in the labels, so the overlap of two vectors depends only on the
difference of their labels (Klappenecker & Roetteler prove the bases
unbiased with these sums). For a set read from a file, which holds only
floats, all of them finite, it takes the Gram products of the array.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache
from operator import add, mul, sub
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
# build_mub and mub_from_payload refuse d above this. From a set's tables
# verify_mub takes 10 ms at d = 64, 0.29 s at d = 127 and 32 ms at d = 128
# (build_mub 2-7 ms); the Gram products of a set read from a file cost about
# d^5: 0.13 s at d = 64 and 2.0 s at d = 128, in one process with one BLAS
# thread on a 2-core VM. The bases take (d+1) d^2 complex values, 34 MB at
# d = 128
_MAX_D = 128


class MubSet(Frozen):
    """d+1 bases for dimension d; ``bases[alpha][:, j]`` is vector j.

    A set holds the ``_trace_form`` tables of the construction, or only its
    float array. With tables, ``bases`` is formed from them the first time
    it is read.
    """

    def __init__(self, dim: PrimePowerDim, bases: np.ndarray | None = None, tables: tuple | None = None) -> None:
        if bases is None and tables is None:
            raise ValueError("a MubSet needs its bases or its tables")
        vars(self).update(dim=dim, bases=bases, tables=tables)  # bases: shape (d+1, d, d), complex
        if bases is None:
            del vars(self)["bases"]

    @cached_property
    def bases(self) -> np.ndarray:
        bases = _phase_bases(self.dim, self.tables)
        bases.setflags(write=False)
        return bases

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
    """The exponent table of the construction, in Python ints: (m, c, labels, u, w).

    ``labels[x]`` is the digit vector over Z_m of element x. The trace is
    bilinear on them, tr(s t) = s^T tmat t with tmat[i][j] = tr(x^(i+j)), so
    with u[x] = tmat labels[x] and w[x] = tmat labels[y(x)] over Z_m,
    tr(b x) = b.u[x] and tr(a y(x)) = a.w[x]: vector b of basis a+1 has
    exponents a.w[x] + c b.u[x].
    """
    p, k, q = dim.p, dim.k, dim.q
    field = galois_field(p, k)
    if p == 2:
        # the Teichmuller lift r^(2^k) in GR(4, k), whose modulus f mod 4 is
        # irreducible mod 2, of the binary representative r of each element
        m, c = 4, 2
        labels = []
        for i in range(q):
            t = _digits(i, 2, k)
            for _ in range(k):
                t = _poly_mod(_poly_mul(t, t, 4), field.modulus, 4)
            labels.append(t + (0,) * (k - len(t)))
    else:
        m, c = p, 1
        labels = [_digits(x, p, k) for x in range(q)]
    traces = _power_traces(field.modulus, m, 2 * k - 1)
    tmat = [[traces[i + j] for j in range(k)] for i in range(k)]
    u = [_exponents(tmat, x, m) for x in labels]
    # y(x) = x for q = 2^k, else y(x) = x^2
    w = u if p == 2 else [u[field.mul(x, x)] for x in range(q)]
    return m, c, labels, u, w


def _roots(m: int) -> list[complex]:
    """The root table [w^r for r < m], w = exp(2 pi i / m), from math.cos and math.sin.

    The quarter roots (m = 4) are exact, with +0.0 for their zero parts.
    """
    if m == 4:
        return [complex(1.0, 0.0), complex(0.0, 1.0), complex(-1.0, 0.0), complex(0.0, -1.0)]
    return [complex(math.cos(2 * math.pi * r / m), math.sin(2 * math.pi * r / m)) for r in range(m)]


def _phase_bases(dim: PrimePowerDim, tables: tuple) -> np.ndarray:
    """Basis 0 = I, then basis a+1 with entry [x, b] w^(a.w[x] + c b.u[x]) / sqrt(q).

    The exponents of all bases come from two integer matrix products over
    the ``_trace_form`` table, and w^r from ``_roots``.
    """
    import numpy as np

    q = dim.q
    m, c, labels, u, w = tables
    roots = np.array(_roots(m))
    labels = np.array(labels, dtype=np.int64)  # (q, k)
    tr_ay = labels @ np.array(w, dtype=np.int64).T  # [a, x] -> a.w[x]
    c_tr_xb = c * (np.array(u, dtype=np.int64) @ labels.T)  # [x, b] -> c b.u[x]

    bases = np.empty((q + 1, q, q), dtype=complex)
    bases[0] = np.eye(q, dtype=complex)
    for a in range(q):
        bases[a + 1] = roots[(tr_ay[a][:, None] + c_tr_xb) % m] / np.sqrt(q)
    return bases


def basis_state(dim: PrimePowerDim, alpha: int, j: int) -> list:
    """|v><v| for vector j of basis alpha, as rows of [re, im] pairs, in pure Python.

    For alpha >= 1, v[x] = w^k[x] / sqrt(q) with k[x] = a.w[x] + c b.u[x]
    (a = alpha - 1, b = j) from the ``_trace_form`` table, so entry [x, y]
    is w^((k[x] - k[y]) mod m) / q, with w^r from ``_roots``: the same
    exponents and roots as ``_phase_bases``, without the other q^2 - 1
    vectors. For alpha = 0 it is |j><j|.
    """
    q = dim.q
    if alpha == 0:
        return [[[1.0 if x == y == j else 0.0, 0.0] for y in range(q)] for x in range(q)]
    m, c, labels, u, w = _trace_form(dim)
    a, b = labels[alpha - 1], labels[j]
    k = [(sum(map(mul, a, wx)) + c * sum(map(mul, b, ux))) % m for ux, wx in zip(u, w)]
    roots = [(r.real / q, r.imag / q) for r in _roots(m)]  # w^r / q
    return [[list(roots[(kx - ky) % m]) for ky in k] for kx in k]


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
    return MubSet(dim=dim, tables=_trace_form(dim))


def verify_mub(m: MubSet, tol: float = MUB_TOLERANCE) -> MubVerification:
    """Measure orthonormality and unbiasedness deviations of a basis set.

    Reports max |<u|v> - [u = v]| over the vector pairs of each basis (the
    entries of B^dag B - I) and max | |<u|v>|^2 - 1/d | over all cross-basis
    vector pairs. A set that holds tables is measured from them by
    ``_character_deviations``, in pure Python. A set that holds only floats
    is measured by the Gram products of its array, whose last digits depend
    on the BLAS kernel (``OPENBLAS_CORETYPE``); ``passed`` does not. A
    negative ``tol`` would fail every set, so it is refused.
    """
    if not tol >= 0:
        raise ValidationError(f"tol must be >= 0, got {tol}")
    if m.tables is None:
        ortho, unbiased = _gram_deviations(m.bases)
    else:
        ortho, unbiased = _character_deviations(m.d, m.tables)
    return MubVerification(
        d=m.d,
        tol=tol,
        max_orthonormality_deviation=ortho,
        max_unbiasedness_deviation=unbiased,
    )


def _gram_deviations(bases: np.ndarray) -> tuple[float, float]:
    """(orthonormality, unbiasedness) deviations from the products of every pair of bases, O(d^5)."""
    import numpy as np

    d = bases.shape[1]
    eye = np.eye(d)
    # a product past the float range is inf, and inf - inf or inf * 0 is NaN: a deviation without
    # bound, reported as inf and not as numpy's warnings. np.max keeps a NaN, which max would drop
    with np.errstate(invalid="ignore", over="ignore"):
        ortho = [np.max(np.abs(basis.conj().T @ basis - eye)) for basis in bases]
        unbiased = [np.max(np.abs(np.abs(bases[alpha].conj().T @ bases[beta]) ** 2 - 1.0 / d))
                    for alpha in range(len(bases)) for beta in range(alpha + 1, len(bases))]
    worst = [float(np.max(devs)) for devs in (ortho, unbiased)]
    return tuple(math.inf if math.isnan(dev) else dev for dev in worst)


def _character_deviations(q: int, tables: tuple) -> tuple[float, float]:
    """(orthonormality, unbiasedness) deviations of the set the tables define, from character sums.

    Vector b of basis a+1 is r^(a.w[x] + c b.u[x]) / sqrt(q) over the
    ``_trace_form`` table, r = ``_roots(m)``. So two vectors overlap by S/q
    with the character sum S = sum_x r^(g.w[x] + e.u[x]), which depends
    only on the labels' differences g = a' - a and e = c (b' - b). Basis 0
    against basis a+1 overlaps by one amplitude, a root over sqrt(q). Tables
    with m = 4, c = 2, labels distinct mod 2 and w = u mod 2, as for
    q = 2^k, take the sums by Walsh-Hadamard transforms (``_walsh_sums``);
    any others take them one by one (``_direct_sums``).
    """
    m, c, labels, u, w = tables
    roots = _roots(m)
    basis_0 = max(abs(r.real * r.real + r.imag * r.imag - 1.0) for r in roots) / q
    walsh = (
        m == 4
        and c == 2
        and len({tuple(v % 2 for v in x) for x in labels}) == q
        and all(wi % 2 == ui % 2 for wx, ux in zip(w, u) for wi, ui in zip(wx, ux))
    )
    sums = _walsh_sums(q, u, w) if walsh else _direct_sums(q, m, c, labels, u, w, roots)
    ortho = unbiased = 0.0
    for same, s in sums:
        if same is None:  # two vectors of different bases
            unbiased = max(unbiased, abs(s.real * s.real + s.imag * s.imag - q))
        else:  # two vectors of one basis, the same vector if ``same``
            re = s.real - q if same else s.real
            ortho = max(ortho, math.sqrt(re * re + s.imag * s.imag))
    return ortho / q, max(basis_0, unbiased / (q * q))


def _exponents(vecs: list, g, m: int) -> list[int]:
    """[g.v mod m for v in vecs]."""
    return [sum(gi * vi for gi, vi in zip(g, v)) % m for v in vecs]


def _direct_sums(q: int, m: int, c: int, labels: list, u: list, w: list, roots: list):
    """Each character sum once per pair of label differences (g, e), O(q) apiece: O(q^3) for odd q.

    Yields (same, S): ``same`` is None for two bases, else whether the two
    vectors of one basis are one. The sums are exactly rounded (math.fsum).
    """
    gs = {tuple((s - t) % m for s, t in zip(a, b)) for i, a in enumerate(labels)
          for j, b in enumerate(labels) if i != j}
    es = [_exponents(u, e, m) for e in {tuple(c * v % m for v in g) for g in gs}]
    # every exponent sum is below 2m, so the doubled table needs no reduction
    re = [r.real for r in roots] * 2
    im = [r.imag for r in roots] * 2

    def char_sum(s, t):
        idx = list(map(add, s, t))
        return complex(math.fsum(map(re.__getitem__, idx)), math.fsum(map(im.__getitem__, idx)))

    zeros = [0] * q
    yield True, char_sum(zeros, zeros)
    for t in es:
        yield False, char_sum(zeros, t)
    es.append(zeros)  # b' = b
    for g in gs:
        s = _exponents(w, g, m)
        for t in es:
            yield None, char_sum(s, t)


def _walsh(v: list) -> list:
    """The Walsh-Hadamard transform of v, len(v) a power of 2, in place: sum_z v[z] (-1)^popcount(j & z) at j."""
    n, h = len(v), 1
    while h < n:
        for i in range(0, n, 2 * h):
            lo, hi = v[i:i + h], v[i + h:i + 2 * h]
            v[i:i + h] = map(add, lo, hi)
            v[i + h:i + 2 * h] = map(sub, lo, hi)
        h *= 2
    return v


def _walsh_sums(q: int, u: list, w: list):
    """The character sums for m = 4 and c = 2, one Walsh-Hadamard transform per g mod 2: O(q^2 log q).

    Needs labels distinct mod 2, and w[x] = u[x] mod 2, as for y(x) = x.
    Split g = g0 + 2 g1 digit by digit; e = 2 (b' - b). Then
    S = sum_x i^(g0.w[x]) (-1)^((g1 + b' - b).u[x]), the transform at
    g1 + b' - b (mod 2) of i^(g0.w[x]) placed at u[x] mod 2. As b and b'
    run over the labels, b' - b runs over all of Z_2^k (0 only for b = b'),
    so the transform for g0 holds every overlap of every pair of bases whose
    labels differ by g0 mod 2: g0 = 0 for a basis with itself, every other
    g0 for two bases. Each sum is a Gaussian integer, exact in floats.
    """
    k = len(u[0])
    place = [sum((ui % 2) << i for i, ui in enumerate(ux)) for ux in u]
    powers_of_i = _roots(4) * k  # g0.w[x] < 4k
    exps = [[0] * q]  # exps[g0][x] = g0.w[x], g0 read as k bits
    for i in range(k):
        column = [wx[i] for wx in w]
        exps += [list(map(add, e, column)) for e in exps]
    for g0, e in enumerate(exps):
        v = [0j] * q
        for z, r in zip(place, e):
            v[z] += powers_of_i[r]
        for j, s in enumerate(_walsh(v)):
            yield (None if g0 else j == 0), s


@lru_cache(maxsize=None)
def cached_mub(d: int) -> MubSet:
    """Cached construction keyed by dimension (treat the arrays as read-only)."""
    return build_mub(factor_prime_power(d))


def mub_from_payload(payload: dict) -> MubSet:
    """Rebuild a MubSet from the JSON wire format {d, bases}; d must be an integer, and every entry finite."""
    import numpy as np

    from .serialization import pairs_to_complex_matrix

    d = payload["d"]
    if type(d) is not int:  # not a float, a string or a bool
        raise ValidationError(f"d must be an integer, got {d!r}")
    dim = factor_prime_power(d)
    _check_dimension(d)
    bases = np.stack([pairs_to_complex_matrix(b) for b in payload["bases"]])
    if bases.shape != (d + 1, d, d):
        raise ValueError(f"expected {(d + 1, d, d)} bases array, got {bases.shape}")
    if not np.isfinite(bases).all():  # json.loads takes NaN and Infinity
        raise ValidationError("basis entries must be finite numbers")
    return MubSet(dim=dim, bases=bases)
