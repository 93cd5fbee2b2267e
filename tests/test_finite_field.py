import time

import pytest

from paulimix.errors import FieldMismatchError, NotPrimePowerError
from paulimix.finite_field import (
    PrimePowerDim,
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


def test_gf4_multiplication_table_brute_force():
    # independent oracle: expand the product and reduce x^2 -> x + 1 by hand
    def bf_mul(a, b):
        c0 = a[0] * b[0]
        c1 = a[0] * b[1] + a[1] * b[0]
        c2 = a[1] * b[1]
        return ((c0 + c2) % 2, (c1 + c2) % 2)

    field = galois_field(2, 2)
    for a in field.elements():
        for b in field.elements():
            assert (a * b).coeffs == bf_mul(a.coeffs, b.coeffs)


def test_gf_mul_x_times_x():
    field = galois_field(2, 2)
    x = field.element((0, 1))
    assert (x * x).coeffs == (1, 1)  # x + 1


def test_gf_add_examples():
    f4 = galois_field(2, 2)
    assert (f4.element((1, 1)) + f4.element((1, 1))).coeffs == (0, 0)
    assert (f4.element((1, 0)) + f4.element((0, 1))).coeffs == (1, 1)
    f9 = galois_field(3, 2)
    assert (f9.element((2, 1)) + f9.element((2, 2))).coeffs == (1, 0)


def test_field_mismatch_raises():
    a = galois_field(2, 2).one()
    b = galois_field(3, 1).one()
    with pytest.raises(FieldMismatchError):
        a + b
    with pytest.raises(FieldMismatchError):
        a * b


def test_trace_examples():
    f4 = galois_field(2, 2)
    assert f4.zero().trace() == 0
    x = f4.element((0, 1))
    # brute force: x + x^2 = x + (x + 1) = 1
    assert x.trace() == 1
    f7 = galois_field(7, 1)
    for a in f7.elements():
        assert a.trace() == a.coeffs[0]


@pytest.mark.parametrize("q", PRIME_POWERS_LE_32)
def test_field_axioms_exhaustive(q):
    dim = factor_prime_power(q)
    field = galois_field(dim.p, dim.k)
    els = field.elements()
    n = len(els)
    assert n == q
    add = [[(a + b).index for b in els] for a in els]
    mul = [[(a * b).index for b in els] for a in els]

    zero, one = field.zero().index, field.one().index
    assert zero == 0 and one == 1
    for i in range(n):
        assert add[i][zero] == i
        assert mul[i][one] == i
        assert mul[i][zero] == zero
        for j in range(n):
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
    one = field.one()
    for a in field.elements():
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                field.inverse(a)
            continue
        assert a * (a ** (q - 2)) == one
        assert field.inverse(a) * a == one


@pytest.mark.parametrize("q", PRIME_POWERS_LE_32)
def test_trace_linear_and_frobenius_invariant(q):
    dim = factor_prime_power(q)
    field = galois_field(dim.p, dim.k)
    els = field.elements()
    p = dim.p
    traces = {a.index: field.trace(a) for a in els}
    for a in els:
        assert traces[(a**p).index] == traces[a.index]
        for b in els:
            assert traces[(a + b).index] == (traces[a.index] + traces[b.index]) % p
