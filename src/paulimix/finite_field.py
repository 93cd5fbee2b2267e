"""Exact arithmetic in GF(p^k) for small prime-power dimensions.

Elements are polynomials over GF(p) reduced modulo a fixed monic irreducible
polynomial. Coefficients are stored lowest degree first, so ``(c0, c1)``
means ``c0 + c1*x``. The modulus is the lexicographically smallest monic
irreducible (ordering the non-leading coefficients from the highest degree
down), which makes every field construction deterministic.

Intended scale: the dimensions of a desk-size sweep (q <= 32 exercised
exhaustively in the tests). Everything is pure and immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .errors import FieldMismatchError, NotPrimePowerError


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


@dataclass(frozen=True)
class PrimePowerDim:
    """A dimension d = p^k with p prime, k >= 1."""

    p: int
    k: int

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise NotPrimePowerError(f"{self.p} is not prime")
        if self.k < 1:
            raise NotPrimePowerError(f"exponent must be >= 1, got {self.k}")

    @property
    def q(self) -> int:
        return self.p**self.k


def factor_prime_power(d: int) -> PrimePowerDim:
    """Factor d as p^k, or raise NotPrimePowerError.

    >>> factor_prime_power(32)
    PrimePowerDim(p=2, k=5)
    """
    if not isinstance(d, (int,)) or isinstance(d, bool) or d < 2:
        raise NotPrimePowerError(f"{d!r} is not a prime power (need an integer >= 2)")
    p = None
    for cand in range(2, d + 1):
        if d % cand == 0:
            p = cand
            break
    assert p is not None
    rest, k = d, 0
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise NotPrimePowerError(f"{d} is not a prime power")
    return PrimePowerDim(p, k)


def is_prime_power(d: int) -> bool:
    try:
        factor_prime_power(d)
    except NotPrimePowerError:
        return False
    return True


# --- polynomials over GF(p): tuples of ints, lowest degree first ---


def _poly_trim(a: tuple[int, ...]) -> tuple[int, ...]:
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(tuple(out))


def _poly_mod(a: tuple[int, ...], modulus: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo a monic polynomial."""
    rem = list(a)
    deg_m = len(modulus) - 1
    for i in range(len(rem) - 1, deg_m - 1, -1):
        coef = rem[i] % p
        if coef:
            for j in range(deg_m + 1):
                rem[i - deg_m + j] = (rem[i - deg_m + j] - coef * modulus[j]) % p
        rem[i] = 0
    return _poly_trim(tuple(rem))


def _monic_polys(degree: int, p: int):
    for tail in product(range(p), repeat=degree):
        yield tail + (1,)


def _is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    degree = len(poly) - 1
    if degree == 1:
        return True
    for deg_f in range(1, degree // 2 + 1):
        for factor in _monic_polys(deg_f, p):
            if not _poly_mod(poly, factor, p):
                return False
    return True


def find_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over GF(p).

    Candidates are ordered by their non-leading coefficients read from the
    highest degree down; the return value is lowest degree first with the
    leading 1 included, e.g. (1, 1, 1) for x^2 + x + 1 over GF(2).
    """
    if not _is_prime(p):
        raise NotPrimePowerError(f"{p} is not prime")
    if k < 1:
        raise ValueError(f"degree must be >= 1, got {k}")
    for m in range(p**k):
        digits = []
        rest = m
        for _ in range(k):
            digits.append(rest % p)
            rest //= p
        # digit i of m is the coefficient of x^i, so ascending m walks the
        # candidates in dictionary order on (c_{k-1}, ..., c_0)
        candidate = tuple(digits) + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError("unreachable: irreducible polynomials exist for every (p, k)")


class GaloisField:
    """GF(p^k) in a polynomial basis over the canonical modulus.

    Elements are handed out as :class:`GfElement`. The element with index
    ``i`` has coefficients given by the base-p digits of ``i`` (lowest
    degree first), so index 0 is zero and index 1 is one.
    """

    def __init__(self, p: int, k: int) -> None:
        self.dim = PrimePowerDim(p, k)
        self.modulus = find_irreducible(p, k)

    @property
    def p(self) -> int:
        return self.dim.p

    @property
    def k(self) -> int:
        return self.dim.k

    @property
    def order(self) -> int:
        return self.dim.q

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GaloisField) and self.dim == other.dim

    def __hash__(self) -> int:
        return hash(self.dim)

    def __repr__(self) -> str:
        return f"GaloisField(p={self.p}, k={self.k})"

    def element(self, coeffs) -> "GfElement":
        tup = tuple(int(c) % self.p for c in coeffs)
        if len(tup) > self.k:
            raise ValueError(f"element needs at most {self.k} coefficients")
        tup = tup + (0,) * (self.k - len(tup))
        return GfElement(self, tup)

    def from_index(self, index: int) -> "GfElement":
        if not 0 <= index < self.order:
            raise ValueError(f"index {index} out of range for GF({self.order})")
        digits = []
        rest = index
        for _ in range(self.k):
            digits.append(rest % self.p)
            rest //= self.p
        return GfElement(self, tuple(digits))

    def zero(self) -> "GfElement":
        return GfElement(self, (0,) * self.k)

    def one(self) -> "GfElement":
        return GfElement(self, (1,) + (0,) * (self.k - 1))

    def elements(self) -> list["GfElement"]:
        return [self.from_index(i) for i in range(self.order)]

    # -- arithmetic --

    def _check(self, a: "GfElement", b: "GfElement") -> None:
        if a.field != self or b.field != self:
            raise FieldMismatchError(
                f"elements of {a.field!r} and {b.field!r} cannot mix with {self!r}"
            )

    def add(self, a: "GfElement", b: "GfElement") -> "GfElement":
        self._check(a, b)
        return GfElement(self, tuple((x + y) % self.p for x, y in zip(a.coeffs, b.coeffs)))

    def sub(self, a: "GfElement", b: "GfElement") -> "GfElement":
        self._check(a, b)
        return GfElement(self, tuple((x - y) % self.p for x, y in zip(a.coeffs, b.coeffs)))

    def mul(self, a: "GfElement", b: "GfElement") -> "GfElement":
        self._check(a, b)
        prod = _poly_mul(a.coeffs, b.coeffs, self.p)
        red = _poly_mod(prod, self.modulus, self.p)
        return self.element(red)

    def pow(self, a: "GfElement", exponent: int) -> "GfElement":
        if exponent < 0:
            raise ValueError("negative exponents unsupported; use inverse()")
        result = self.one()
        base = a
        e = exponent
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inverse(self, a: "GfElement") -> "GfElement":
        if a.is_zero():
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(a, self.order - 2)

    def trace(self, a: "GfElement") -> int:
        """Field trace to GF(p): a + a^p + ... + a^(p^(k-1)), as an int."""
        acc = self.zero()
        term = a
        for _ in range(self.k):
            acc = self.add(acc, term)
            term = self.pow(term, self.p)
        assert all(c == 0 for c in acc.coeffs[1:]), "trace left the prime subfield"
        return acc.coeffs[0]


@dataclass(frozen=True)
class GfElement:
    """An element of GF(p^k), coefficients lowest degree first."""

    field: GaloisField
    coeffs: tuple[int, ...]

    @property
    def index(self) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * self.field.p + c
        return acc

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "GfElement") -> "GfElement":
        return self.field.add(self, other)

    def __sub__(self, other: "GfElement") -> "GfElement":
        return self.field.sub(self, other)

    def __mul__(self, other: "GfElement") -> "GfElement":
        return self.field.mul(self, other)

    def __pow__(self, exponent: int) -> "GfElement":
        return self.field.pow(self, exponent)

    def trace(self) -> int:
        return self.field.trace(self)

    def __repr__(self) -> str:
        return f"GfElement{self.coeffs} in GF({self.field.order})"


@lru_cache(maxsize=None)
def galois_field(p: int, k: int) -> GaloisField:
    """Shared, cached field instance for (p, k)."""
    return GaloisField(p, k)
