"""Exact arithmetic in GF(p^k) for small prime-power dimensions.

Elements are polynomials over GF(p) reduced modulo a fixed monic irreducible
polynomial, handled as int indices whose base-p digits are the coefficients.
Polynomials are tuples stored lowest degree first, so ``(c0, c1)`` means
``c0 + c1*x``; the same helpers, taken mod 4, give the Galois ring GR(4, k)
of the MUB construction for q = 2^k. The modulus is the lexicographically
smallest monic irreducible (ordering the non-leading coefficients from the
highest degree down), which makes every field construction deterministic.

Intended scale: the dimensions of a desk-size sweep (q <= 32 exercised
exhaustively in the tests). Everything is pure and immutable.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .errors import Frozen, NotPrimePowerError


# Miller-Rabin with the first j primes as bases decides primality exactly
# below psi_j, the least strong pseudoprime to all of them (Sorenson &
# Webster, Math. Comp. 86 (2017) 985-1003); (psi_j, j) for the bands used
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BANDS = (
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)
_MR_EXACT_BELOW = _MR_BANDS[-1][0]


def _is_strong_probable_prime(n: int, bases) -> bool:
    """Miller-Rabin rounds on odd n > 2 to each base; False once one proves n composite."""
    odd, twos = n - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    for b in bases:
        x = pow(b, odd, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(twos - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < _MR_EXACT_BELOW."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    count = next((j for psi, j in _MR_BANDS if n < psi), len(_MR_BASES))
    return _is_strong_probable_prime(n, _MR_BASES[:count])


def _int_root(d: int, k: int) -> int:
    """floor(d ** (1/k)) for d >= 1, by Newton's method on integers."""
    x = 1 << -(-d.bit_length() // k)  # 2^ceil(bits/k) > d ** (1/k)
    while True:
        y = ((k - 1) * x + d // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class PrimePowerDim(Frozen):
    """A dimension d = p^k with p prime, k >= 1."""

    def __init__(self, p: int, k: int) -> None:
        if not _is_prime(p):
            raise NotPrimePowerError(f"{p} is not prime")
        if k < 1:
            raise NotPrimePowerError(f"exponent must be >= 1, got {k}")
        vars(self).update(p=p, k=k)

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
    p = next((b for b in _MR_BASES if d % b == 0), None)
    if p is None:
        # every prime factor exceeds 41 > 2^5, so d = p^k < 2^bits needs 5k < bits
        if d >= _MR_EXACT_BELOW:
            raise NotPrimePowerError(f"{d} is too large: need d < {_MR_EXACT_BELOW} or a factor <= 41")
        for k in range(1, (d.bit_length() - 1) // 5 + 1):
            root = _int_root(d, k)
            if root**k == d and _is_prime(root):
                return PrimePowerDim(root, k)
        raise NotPrimePowerError(f"{d} is not a prime power")
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


# --- polynomials over Z_m (m = p, or 4 for the Galois ring): tuples of ints, lowest degree first ---


def _digits(a: int, p: int, k: int) -> tuple[int, ...]:
    """The k base-p digits of a, lowest first: the coefficients of element a."""
    out = []
    for _ in range(k):
        a, c = divmod(a, p)
        out.append(c)
    return tuple(out)


def _index(coeffs: tuple[int, ...], p: int) -> int:
    """The element whose coefficients, lowest degree first, are coeffs."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


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
    """Remainder of a modulo a monic polynomial, coefficients mod p."""
    rem = list(a)
    deg_m = len(modulus) - 1
    for i in range(len(rem) - 1, deg_m - 1, -1):
        coef = rem[i] % p
        if coef:
            for j in range(deg_m + 1):
                rem[i - deg_m + j] = (rem[i - deg_m + j] - coef * modulus[j]) % p
        rem[i] = 0
    return _poly_trim(tuple(rem))


def _power_traces(modulus: tuple[int, ...], m: int, count: int) -> list[int]:
    """tr(x^j) for 0 <= j < count in Z_m[x]/(modulus), for a monic modulus.

    The trace of x^j is that of the j-th power of the modulus's companion
    matrix, mod m: the sum over i < k of the x^i coefficient of x^(i+j).
    With m = p and an irreducible modulus it is the trace of GF(p^k) to
    GF(p), which is linear in an element's coefficients. With m = 4 and a
    modulus irreducible mod 2 it is the trace of the Galois ring GR(4, k)
    to Z4.
    """
    k = len(modulus) - 1
    reduced = [_poly_mod((0,) * n + (1,), modulus, m) + (0,) * k for n in range(count + k - 1)]
    return [sum(reduced[i + j][i] for i in range(k)) % m for j in range(count)]


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
        # digit i of m is the coefficient of x^i, so ascending m walks the
        # candidates in dictionary order on (c_{k-1}, ..., c_0)
        candidate = _digits(m, p, k) + (1,)
        if _is_irreducible(candidate, p):
            return candidate
    raise AssertionError("unreachable: irreducible polynomials exist for every (p, k)")


class GaloisField:
    """GF(p^k) in a polynomial basis over the canonical modulus.

    An element is an int index in 0..q-1 whose base-p digits are its
    coefficients, lowest degree first, so index 0 is zero and index 1 is one.
    """

    def __init__(self, p: int, k: int) -> None:
        self.dim = PrimePowerDim(p, k)
        self.modulus = find_irreducible(p, k)
        self._monomial_traces = _power_traces(self.modulus, p, k)

    @property
    def p(self) -> int:
        return self.dim.p

    @property
    def k(self) -> int:
        return self.dim.k

    def add(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        return _index(tuple((x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))), p)

    def mul(self, a: int, b: int) -> int:
        p, k = self.p, self.k
        return _index(_poly_mod(_poly_mul(_digits(a, p, k), _digits(b, p, k), p), self.modulus, p), p)

    def trace(self, a: int) -> int:
        """Field trace to GF(p), a + a^p + ... + a^(p^(k-1)), as an int."""
        return sum(c * t for c, t in zip(_digits(a, self.p, self.k), self._monomial_traces)) % self.p


@lru_cache(maxsize=None)
def galois_field(p: int, k: int) -> GaloisField:
    """Shared, cached field instance for (p, k)."""
    return GaloisField(p, k)
