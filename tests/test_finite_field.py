import random
import time

import pytest

from paulimix.errors import NotPrimePowerError
from paulimix.finite_field import (
    _MR_BANDS,
    _MR_BASES,
    _MR_EXACT_BELOW,
    PrimePowerDim,
    _is_prime,
    _is_strong_probable_prime,
    _power_traces,
    factor_prime_power,
    find_irreducible,
    galois_field,
    is_prime_power,
)
from paulimix.measure import prime_powers_in

PRIME_POWERS_LE_32 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def test_factor_prime_power_examples():
    assert factor_prime_power(7) == PrimePowerDim(p=7, k=1)
    assert factor_prime_power(32) == PrimePowerDim(p=2, k=5)
    with pytest.raises(NotPrimePowerError):
        factor_prime_power(6)


def test_factor_prime_power_is_fast_on_large_primes():
    start = time.perf_counter()
    assert factor_prime_power(2147483647) == PrimePowerDim(p=2147483647, k=1)
    assert factor_prime_power(2147483647**2) == PrimePowerDim(p=2147483647, k=2)
    assert factor_prime_power(2**61 - 1) == PrimePowerDim(p=2**61 - 1, k=1)
    assert factor_prime_power(3**50) == PrimePowerDim(p=3, k=50)
    with pytest.raises(NotPrimePowerError, match="not a prime power"):
        factor_prime_power(2147483647 * 2147483629)
    assert factor_prime_power(2**100) == PrimePowerDim(p=2, k=100)
    with pytest.raises(NotPrimePowerError, match="too large"):
        factor_prime_power(2**89 - 1)
    assert time.perf_counter() - start < 0.5
    start = time.perf_counter()
    assert len(prime_powers_in(2, 20000)) == 2328
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "d, expected",
    [(43**2, (43, 2)), (43**3, (43, 3)), (101**4, (101, 4)), (1000003**2, (1000003, 2)),
     (43 * 47, None), (43**2 * 47, None), (1000003 * 1000033, None), (41**2 * 43, None)],
)
def test_factor_prime_power_without_small_factors(d, expected):
    if expected is None:
        assert not is_prime_power(d)
    else:
        dim = factor_prime_power(d)
        assert (dim.p, dim.k) == expected


def test_factor_prime_power_matches_naive_factorization():
    def naive(d):
        for p in range(2, d + 1):
            if any(p % f == 0 for f in range(2, p)):
                continue
            k = 0
            q = d
            while q % p == 0:
                q //= p
                k += 1
            if k and q == 1:
                return (p, k)
        return None

    for d in range(2, 200):
        expected = naive(d)
        if expected is None:
            assert not is_prime_power(d)
        else:
            dim = factor_prime_power(d)
            assert (dim.p, dim.k) == expected


def test_factor_rejects_bad_input():
    for bad in (1, 0, -4):
        with pytest.raises(NotPrimePowerError):
            factor_prime_power(bad)


def test_find_irreducible_examples():
    assert find_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert find_irreducible(2, 1) == (0, 1)  # x
    assert find_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1


def test_find_irreducible_gf4_by_exhaustion():
    # the four monic quadratics mod 2, factored by hand: only x^2+x+1 has no root
    def has_root(c0, c1):
        return any((s * s + c1 * s + c0) % 2 == 0 for s in (0, 1))

    irreducible = [(c0, c1) for c0 in (0, 1) for c1 in (0, 1) if not has_root(c0, c1)]
    assert irreducible == [(1, 1)]


def test_find_irreducible_has_no_roots():
    for p, k in [(3, 2), (5, 2), (3, 3), (2, 5)]:
        poly = find_irreducible(p, k)
        for s in range(p):
            value = sum(c * pow(s, i, p) for i, c in enumerate(poly)) % p
            assert value != 0, (p, k, s)


def _digits(a, p, k):
    return tuple(a // p**i % p for i in range(k))


def _power(field, a, e):
    """a^e by e multiplications."""
    out = 1
    for _ in range(e):
        out = field.mul(out, a)
    return out


def test_gf4_multiplication_table_brute_force():
    # independent oracle: expand the product and reduce x^2 -> x + 1 by hand
    def bf_mul(a, b):
        c0 = a[0] * b[0]
        c1 = a[0] * b[1] + a[1] * b[0]
        c2 = a[1] * b[1]
        return ((c0 + c2) % 2, (c1 + c2) % 2)

    field = galois_field(2, 2)
    for a in range(4):
        for b in range(4):
            assert _digits(field.mul(a, b), 2, 2) == bf_mul(_digits(a, 2, 2), _digits(b, 2, 2))


def test_gf_mul_x_times_x():
    field = galois_field(2, 2)
    x = 2  # coefficients (0, 1)
    assert _digits(field.mul(x, x), 2, 2) == (1, 1)  # x + 1


def test_gf_add_examples():
    f4 = galois_field(2, 2)
    assert f4.add(3, 3) == 0  # (1, 1) + (1, 1) = (0, 0)
    assert f4.add(1, 2) == 3  # (1, 0) + (0, 1) = (1, 1)
    f9 = galois_field(3, 2)
    assert f9.add(5, 8) == 1  # (2, 1) + (2, 2) = (1, 0)


def test_trace_examples():
    f4 = galois_field(2, 2)
    assert f4.trace(0) == 0
    # brute force: x + x^2 = x + (x + 1) = 1
    assert f4.trace(2) == 1
    f7 = galois_field(7, 1)
    for a in range(7):
        assert f7.trace(a) == a


@pytest.mark.parametrize("q", PRIME_POWERS_LE_32)
def test_field_axioms_exhaustive(q):
    dim = factor_prime_power(q)
    field = galois_field(dim.p, dim.k)
    assert field.dim.q == q
    n = q
    add = [[field.add(a, b) for b in range(n)] for a in range(n)]
    mul = [[field.mul(a, b) for b in range(n)] for a in range(n)]

    zero, one = 0, 1
    for i in range(n):
        assert add[i][zero] == i
        assert mul[i][one] == i
        assert mul[i][zero] == zero
        for j in range(n):
            assert 0 <= add[i][j] < n and 0 <= mul[i][j] < n
            assert add[i][j] == add[j][i]
            assert mul[i][j] == mul[j][i]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert add[add[i][j]][k] == add[i][add[j][k]]
                assert mul[mul[i][j]][k] == mul[i][mul[j][k]]
                assert mul[i][add[j][k]] == add[mul[i][j]][mul[i][k]]


@pytest.mark.parametrize("q", PRIME_POWERS_LE_32)
def test_inverse_law_exhaustive(q):
    dim = factor_prime_power(q)
    field = galois_field(dim.p, dim.k)
    # zero has no inverse; every other element has exactly one, a^(q-2)
    assert [b for b in range(q) if field.mul(0, b) == 1] == []
    for a in range(1, q):
        assert [b for b in range(q) if field.mul(a, b) == 1] == [_power(field, a, q - 2)]


@pytest.mark.parametrize("q", PRIME_POWERS_LE_32)
def test_trace_linear_and_frobenius_invariant(q):
    dim = factor_prime_power(q)
    field = galois_field(dim.p, dim.k)
    p = dim.p
    traces = [field.trace(a) for a in range(q)]
    assert all(0 <= t < p for t in traces)
    for a in range(q):
        assert traces[_power(field, a, p)] == traces[a]
        for b in range(q):
            assert traces[field.add(a, b)] == (traces[a] + traces[b]) % p


@pytest.mark.parametrize("k", range(1, 9))
def test_ring_trace_reduces_to_the_field_trace(k):
    # GR(4, k) maps onto GF(2^k) mod 2, and its trace onto the field trace
    modulus = find_irreducible(2, k)
    ring = _power_traces(modulus, 4, 2 * k - 1)
    field = galois_field(2, k)
    x = 2 if k > 1 else 0  # x = 0 in GF(2) = GF(2)[x]/(x)
    for j, t in enumerate(ring):
        assert t % 2 == field.trace(_power(field, x, j))
    assert ring[0] == k % 4  # tr(1) = k


def test_miller_rabin_bands_end_at_the_least_strong_pseudoprimes():
    # psi_j, the least strong pseudoprime to the first j prime bases, for j = 1..13
    psi = [2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
           341550071728321, 341550071728321, 3825123056546413051, 3825123056546413051,
           3825123056546413051, 318665857834031151167461, 3317044064679887385961981]
    for j, n in enumerate(psi, start=1):
        assert _is_strong_probable_prime(n, _MR_BASES[:j]), j
        if n < _MR_EXACT_BELOW:
            assert not _is_prime(n), j
    for bound, count in _MR_BANDS:
        assert psi[count - 1] == bound


def test_miller_rabin_bands_agree_with_all_13_bases():
    rng = random.Random(20170)
    lo = 43
    primes = 0
    for bound, _ in _MR_BANDS:
        for _ in range(400):
            n = rng.randrange(lo, bound) | 1
            expected = _is_strong_probable_prime(n, _MR_BASES)
            assert _is_prime(n) == expected, n
            primes += expected
        lo = bound
    assert primes > 20
