"""The Monte Carlo row test and the closed-form delta, against exact values in Fraction.

Each is computed twice: by the package in floats, and here exactly, from the
float inputs read as rationals. A row's verdict may differ from the exact
min/sum >= g(d, n) only in the band ``THRESHOLD_ATOL`` opens below g, on the
hit side, plus a few ulps of rounding. The closed form may differ from the
exact ((d^2 (n-1) - n)/d)^d of the float n only by the roundings of its
base, which the power multiplies by d. The bands are written out here, not
read from the package, so a change that widens one fails.
"""

import math
import sys
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimix.measure import _closed_form_delta, _exact_hits
from paulimix.threshold import _invertible_floor, _threshold_ratio

# THRESHOLD_ATOL, and the rounding of the row's sum, its quotient and g beside it
_BAND = Fraction(1e-12)
_ROUNDING = 8 * Fraction(math.ulp(1.0))

# rows up to 40 values take the column loop of _exact_hits, longer ones e.min(axis=1)
_SHORT = st.integers(2, 39)
_LONG = st.integers(40, 200)
# offsets from the boundary a few bands wide, and a few ulps wide
_OFFSET = st.one_of(st.floats(-3e-12, 3e-12), st.integers(-64, 64).map(lambda k: k * 2.0**-53))

_PRIME_POWERS_BELOW_200 = [
    2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61,
    64, 67, 71, 73, 79, 81, 83, 89, 97, 101, 103, 107, 109, 113, 121, 125, 127, 128, 131, 137, 139,
    149, 151, 157, 163, 167, 169, 173, 179, 181, 191, 193, 197, 199,
]


def _exact_ratio(row: np.ndarray) -> Fraction:
    return Fraction(float(row.min())) / sum(map(Fraction, row.tolist()))


@settings(max_examples=300, deadline=None)
@given(d=st.one_of(_SHORT, _LONG), seed=st.integers(0, 2**32 - 1), offset=_OFFSET)
def test_a_row_is_a_hit_iff_its_min_over_sum_clears_g_less_the_band(d, seed, offset):
    rng = np.random.default_rng(seed)
    row = rng.standard_exponential(d + 1)
    ratio = _exact_ratio(row)
    # n puts g(d, n) = 1 - n(d-1)/d about `offset` above the row's exact min/sum; n > 1 as ratio < 1/d
    n = float((1 - ratio - Fraction(offset)) * d / (d - 1))
    g = Fraction(*_threshold_ratio(d, n))
    # the row in orders whose float sums differ, all with the same exact min/sum
    rows = np.array([rng.permutation(row) for _ in range(8)])
    h = _invertible_floor(d, n)
    got = [_exact_hits(np, rows[k : k + 1], h) for k in range(len(rows))]
    assert sum(got) == _exact_hits(np, rows, h)
    exact = ratio >= g
    for verdict in got:
        if verdict != exact:
            # only a row just below g counts as a hit, never one above it as a miss
            assert verdict and 0 < g - ratio <= _BAND + _ROUNDING, (d, n, row.tolist())


# unit roundoff
_U = Fraction(2) ** -53


def _exact_closed_form(d: int, n: float) -> Fraction:
    return ((d * d * (Fraction(n) - 1) - Fraction(n)) / d) ** d


def _check_closed_form(d: int, n: float, band: Fraction) -> None:
    lower, upper = d * d / (d * d - 1), d / (d - 1)
    if not lower < n < upper:
        return
    exact = _exact_closed_form(d, n)
    if exact < Fraction(sys.float_info.min):
        return  # delta is 0 or subnormal as a float
    got = Fraction(_closed_form_delta(d, n))
    assert abs(got - exact) <= band * exact, (d, n, float(abs(got - exact) / exact))


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from(_PRIME_POWERS_BELOW_200), frac=st.floats(0.0, 1.0))
def test_the_closed_form_is_the_exact_power_within_d_plus_1_roundings(d, frac):
    # the base rounds up to three times (product, difference, quotient), and
    # the power multiplies its relative error by d and rounds once more:
    # 20000 draws over these d came to at most 2.5 (d+1) u
    lower, upper = d * d / (d * d - 1), d / (d - 1)
    _check_closed_form(d, lower + frac * (upper - lower), 4 * (d + 1) * _U)


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from([q for q in _PRIME_POWERS_BELOW_200 if q <= 32]), k=st.integers(1, 2000))
def test_the_closed_form_is_exact_to_d_plus_1_roundings_near_the_lower_end(d, k):
    # d^2 (n-1) and its difference with n are exact here, so only the base's
    # quotient and the power round: every such n came to at most 0.95 (d+1) u
    lower = d * d / (d * d - 1)
    _check_closed_form(d, lower + k * math.ulp(lower), 2 * (d + 1) * _U)
