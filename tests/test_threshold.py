"""The boundary rules that read g(d, n), against exact deciders in Fraction.

Each rule is decided twice: by the package, and here exactly, from the float
inputs read as rationals. g itself must be the exact value rounded once. A
verdict on whether lambda reaches 0, or on a weight row, must equal the exact
one on every input, however close to the boundary: no tolerance and no
rounding may open a band beside it. The examples sit 1e-13 from the
boundary, inside the 1e-12 band an earlier float rule opened, so a band that
reappears fails.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from paulimix.invertibility import output_invertible
from paulimix.threshold import _reaches_zero, weight_threshold

_D = st.one_of(st.integers(2, 10**6), st.integers(2, 33 * 10**23 - 1))
_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 16, 27, 31, 32, 127, 1024]
# offsets from the boundary a few 1e-12 wide, and a few ulps wide
_OFFSET = st.one_of(st.floats(-6e-12, 6e-12), st.integers(-64, 64).map(lambda k: k * 2.0**-53))


def _exact_g(d: int, n: float) -> Fraction:
    return 1 - Fraction(n) * (d - 1) / d


def _exact_reaches_zero(d: int, n_sup: float, attained: bool, x: float) -> bool:
    if attained:
        return _exact_lambda(d, n_sup, x) <= 0
    return Fraction(x) < _exact_g(d, n_sup)


def _exact_lambda(d: int, n_sup: float, x: float) -> Fraction:
    """lambda = 1 - d(1-x)/((d-1) n_sup) at the sup p = 1/n_sup."""
    return 1 - d * (1 - Fraction(x)) / ((d - 1) * Fraction(n_sup))


def _near(g: float, offset: float) -> float:
    return min(1.0, max(0.0, g + offset))


@settings(max_examples=400, deadline=None)
@given(d=_D, n=st.one_of(st.floats(1.0, 2.0), st.floats(1.0, 1e308)))
def test_g_is_the_exact_value_rounded_once(d, n):
    assert weight_threshold(d, n) == float(_exact_g(d, n))


@settings(max_examples=400, deadline=None)
@given(d=st.integers(2, 10**9), frac=st.floats(0.0, 1.0), offset=_OFFSET)
@example(d=3, frac=0.5, offset=-1e-13)
def test_an_approached_sup_reaches_zero_below_g_less_the_band(d, frac, offset):
    # the exponential family: sup p = 1/n is only approached, so lambda reaches 0 iff x < g
    n = 1.0 + frac * (d / (d - 1) - 1.0)
    x = _near(weight_threshold(d, n), offset)
    assert _reaches_zero(d, n, False, x) == _exact_reaches_zero(d, n, False, x), (d, n, x)


@pytest.mark.parametrize("n_sup", [1.0, 2.0], ids=["cosine", "plateau"])
@settings(max_examples=300, deadline=None)
@given(d=st.integers(2, 10**9), offset=_OFFSET)
@example(d=3, offset=-1e-13)
@example(d=3, offset=1e-13)
def test_an_attained_sup_reaches_zero_within_the_band_of_lambda(n_sup, d, offset):
    # lambda at the sup is (x - g(d, n_sup)) d / ((d - 1) n_sup): it vanishes at x = g(d, n_sup)
    x = _near(weight_threshold(d, n_sup), offset * n_sup)
    assert _reaches_zero(d, n_sup, True, x) == _exact_reaches_zero(d, n_sup, True, x), (d, x)


@settings(max_examples=300, deadline=None)
@given(
    d=st.sampled_from(_PRIME_POWERS),
    frac=st.floats(0.0, 1.0),
    offsets=st.lists(_OFFSET, min_size=1, max_size=4),
)
@example(d=3, frac=0.5, offsets=[-1e-13])
def test_a_row_is_invertible_iff_every_weight_clears_g_less_the_band(d, frac, offsets):
    lower, upper = d * d / (d * d - 1), d / (d - 1)
    n = lower + frac * (upper - lower)
    g = weight_threshold(d, n)
    near = [_near(g, offset) for offset in offsets[:d]]
    rest = d + 1 - len(near)
    weights = near + [(1.0 - sum(near)) / rest] * rest
    exact = all(Fraction(x) >= _exact_g(d, n) for x in weights)
    assert output_invertible(d, n, weights) == exact, (d, n, weights)
