import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimix.errors import NotPrimePowerError, RegimeMismatchError, ValidationError
from paulimix.invertibility import output_invertible
from paulimix.measure import (
    THRESHOLD_ATOL,
    delta_closed_form,
    delta_monte_carlo,
    delta_quadrature,
    g_threshold,
    normalization_check,
    prime_powers_in,
    sample_simplex,
    sweep,
)


# --- threshold -----------------------------------------------------------------


def test_g_threshold_examples():
    assert g_threshold(2, 4 / 3).g == pytest.approx(1 / 3, abs=1e-15)
    assert g_threshold(2, 2.0).g == pytest.approx(0.0, abs=1e-15)
    assert g_threshold(7, 1.03).g == pytest.approx(1 - 1.03 * 6 / 7, abs=1e-15)
    with pytest.raises(ValidationError):
        g_threshold(1, 1.5)
    with pytest.raises(ValidationError):
        g_threshold(2, 0.5)


def test_g_threshold_interval_characterization():
    for d in (2, 3, 5, 9):
        assert g_threshold(d, d * d / (d * d - 1) + 1e-9).g < 1 / (d + 1)
        assert g_threshold(d, d * d / (d * d - 1) - 1e-9).g > 1 / (d + 1)
        assert g_threshold(d, d / (d - 1)).g == pytest.approx(0.0, abs=1e-15)
        assert g_threshold(d, d / (d - 1) + 0.1).g < 0


# --- closed form ----------------------------------------------------------------


def test_closed_form_examples():
    assert delta_closed_form(2, 1.5).delta == pytest.approx(0.0625, abs=1e-15)
    assert delta_closed_form(3, 1.2).delta == pytest.approx(0.008, abs=1e-15)
    assert delta_closed_form(7, 1.03).delta == pytest.approx((0.44 / 7) ** 7, rel=1e-12)
    assert delta_closed_form(2, 2.0).delta == 1.0
    assert delta_closed_form(2, 1.1).delta == 0.0


def test_closed_form_boundary_exactness():
    for d in (2, 3, 4, 5, 7, 8, 9):
        assert abs(delta_closed_form(d, d / (d - 1)).delta - 1.0) <= 1e-12
        assert abs(delta_closed_form(d, d * d / (d * d - 1)).delta) <= 1e-12


def test_closed_form_requires_prime_power():
    with pytest.raises(NotPrimePowerError):
        delta_closed_form(6, 1.3)


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([2, 3, 4, 5, 7, 8]), frac=st.floats(0.0, 1.0))
def test_closed_form_equals_shrunk_simplex_volume(d, frac):
    lower, upper = d * d / (d * d - 1), d / (d - 1)
    n = lower + frac * (upper - lower)
    g = g_threshold(d, n).g
    expected = max(0.0, 1 - (d + 1) * g) ** d
    assert delta_closed_form(d, n).delta == pytest.approx(expected, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3, 5, 7]),
    fracs=st.tuples(st.floats(0.001, 0.999), st.floats(0.001, 0.999)),
)
def test_closed_form_monotone_in_n(d, fracs):
    lower, upper = d * d / (d * d - 1), d / (d - 1)
    n0, n1 = sorted(lower + f * (upper - lower) for f in fracs)
    d0 = delta_closed_form(d, n0).delta
    d1 = delta_closed_form(d, n1).delta
    assert 0.0 <= d0 <= d1 <= 1.0
    if n1 > n0:
        assert d1 >= d0


# --- quadrature ------------------------------------------------------------------


@pytest.mark.parametrize(
    "d,n",
    [
        (2, 1.4),
        (2, 1.5),
        (2, 1.9),
        (3, 1.15),
        (3, 1.2),
        (3, 1.4),
        (4, 1.1),
        (4, 1.2),
        (4, 1.3),
        (5, 1.05),
        (5, 1.1),
        (5, 1.2),
        (7, 1.03),
        (7, 1.1),
        (7, 1.16),
    ],
)
def test_quadrature_agrees_with_closed_form(d, n):
    closed = delta_closed_form(d, n).delta
    quad = delta_quadrature(d, n).delta
    assert abs(closed - quad) <= 1e-10


def test_quadrature_qubit_value_matches_hand_integral():
    # d=2, n=1.5: inner integral length 0.5 - x1 over x1 in [0.25, 0.5]
    # gives 1/32; dividing by mu = 1/2 yields 1/16
    assert delta_quadrature(2, 1.5).delta == pytest.approx(0.0625, abs=1e-12)


def test_quadrature_regime_guard():
    with pytest.raises(RegimeMismatchError):
        delta_quadrature(3, 1.1)  # below 9/8
    with pytest.raises(RegimeMismatchError):
        delta_quadrature(2, 2.5)
    # closed interval endpoints are allowed and exact
    assert delta_quadrature(3, 1.5).delta == pytest.approx(1.0, abs=1e-12)
    assert delta_quadrature(3, 9 / 8).delta == pytest.approx(0.0, abs=1e-12)


def test_quadrature_d3_example():
    assert delta_quadrature(3, 1.2).delta == pytest.approx(0.008, abs=1e-12)


def test_normalization_check_matches_factorial():
    for d in range(2, 9):
        assert abs(normalization_check(d) - 1 / math.factorial(d)) <= 1e-12


# --- Monte Carlo -----------------------------------------------------------------


def test_monte_carlo_matches_closed_form():
    for d, n in [(2, 1.5), (3, 1.2), (5, 1.1)]:
        res = delta_monte_carlo(d, n, samples=200_000, seed=99)
        closed = delta_closed_form(d, n).delta
        assert res.stderr > 0
        assert abs(res.delta - closed) <= 3 * res.stderr


def test_monte_carlo_degenerate_regimes():
    assert delta_monte_carlo(2, 2.0, samples=10_000, seed=1).delta == 1.0
    assert delta_monte_carlo(3, 4.0, samples=10_000, seed=1).delta == 1.0
    assert delta_monte_carlo(3, 9 / 8, samples=10_000, seed=1).delta == 0.0


def test_monte_carlo_deterministic_per_seed_and_workers():
    a = delta_monte_carlo(3, 1.2, samples=50_000, seed=7)
    b = delta_monte_carlo(3, 1.2, samples=50_000, seed=7)
    assert a.delta == b.delta


def test_monte_carlo_agrees_with_output_invertible_bitwise():
    d, n = 3, 1.2
    g = g_threshold(d, n).g
    rng = np.random.default_rng(123)
    draws = sample_simplex(d + 1, 20_000, rng)
    via_min = np.count_nonzero(draws.min(axis=1) >= g - THRESHOLD_ATOL)
    via_checker = sum(output_invertible(d, n, row) for row in draws)
    assert via_min == via_checker


def test_sample_simplex_is_normalized():
    rng = np.random.default_rng(5)
    draws = sample_simplex(6, 1000, rng)
    assert np.max(np.abs(draws.sum(axis=1) - 1)) < 1e-12
    assert np.all(draws > 0)


# --- sweep ------------------------------------------------------------------------


def test_prime_powers_in_examples():
    assert prime_powers_in(7, 32) == [7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
    assert prime_powers_in(2, 5) == [2, 3, 4, 5]
    assert prime_powers_in(33, 36) == []
    with pytest.raises(ValidationError):
        prime_powers_in(1, 5)


def test_sweep_reproduces_superexponential_growth():
    rows = sweep(prime_powers_in(7, 32), 1.03)
    assert len(rows) == 14
    deltas = [r.delta for r in rows]
    assert all(a < b for a, b in zip(deltas, deltas[1:]))
    logs = [r.log10_delta for r in rows]
    assert all(a < b for a, b in zip(logs, logs[1:]))
    assert rows[0].delta == pytest.approx(3.878e-9, rel=1e-3)
    assert rows[-1].delta == pytest.approx(9.09e-2, rel=1e-3)


def test_sweep_regime_mismatch_lists_offenders():
    with pytest.raises(RegimeMismatchError) as err:
        sweep([2, 3], 1.03)
    assert "d=2" in str(err.value)
    assert "d=3" in str(err.value)


def test_sweep_excludes_d5_at_low_n():
    # 1.03 < 25/24, so d=5 falls below its intermediate interval
    with pytest.raises(RegimeMismatchError):
        sweep([5], 1.03)
    assert sweep([5], 1.05)[0].delta > 0  # 25/24 < 1.05 < 5/4 is fine


def test_sweep_upper_boundary_gives_unity():
    rows = sweep([7], 7 / 6)
    assert rows[0].delta == pytest.approx(1.0, abs=1e-12)
    assert rows[0].log10_delta == pytest.approx(0.0, abs=1e-12)


def test_sweep_methods_agree():
    ds = [7, 8]
    closed = sweep(ds, 1.05, method="closed_form")
    quad = sweep(ds, 1.05, method="quadrature")
    mc = sweep(ds, 1.05, method="monte_carlo", samples=200_000, seed=3)
    for c_row, q_row, m_row in zip(closed, quad, mc):
        assert q_row.delta == pytest.approx(c_row.delta, abs=1e-10)
        assert abs(m_row.delta - c_row.delta) < 0.01
