import math
import re
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimix import measure as measure_mod
from paulimix.dynmaps import Exponential
from paulimix.errors import NotPrimePowerError, RegimeMismatchError, ValidationError
from paulimix.finite_field import factor_prime_power, is_prime_power
from paulimix.invertibility import output_invertible
from paulimix.measure import (
    _MC_CHUNK,
    _mc_hits,
    _nested_simplex_integral,
    delta_closed_form,
    delta_monte_carlo,
    delta_quadrature,
    prime_powers_in,
    sweep,
    sweep_dimensions,
)
from paulimix.threshold import classify_regime, weight_threshold


# --- threshold -----------------------------------------------------------------


def test_weight_threshold_examples():
    assert weight_threshold(2, 4 / 3) == pytest.approx(1 / 3, abs=1e-15)
    assert weight_threshold(2, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert weight_threshold(7, 1.03) == pytest.approx(1 - 1.03 * 6 / 7, abs=1e-15)
    with pytest.raises(ValidationError):
        weight_threshold(1, 1.5)
    with pytest.raises(ValidationError):
        weight_threshold(2, 0.5)


def test_weight_threshold_interval_characterization():
    for d in (2, 3, 5, 9):
        assert weight_threshold(d, d * d / (d * d - 1) + 1e-9) < 1 / (d + 1)
        assert weight_threshold(d, d * d / (d * d - 1) - 1e-9) > 1 / (d + 1)
        assert weight_threshold(d, d / (d - 1)) == pytest.approx(0.0, abs=1e-15)
        assert weight_threshold(d, d / (d - 1) + 0.1) < 0


def test_the_interval_ends_exceed_1_at_every_d():
    # unclamped below d = 94906266, where d^2 - 1 reaches 2^53
    for d in (2, 3, 1009, 10**6 + 3, 94906265):
        assert measure_mod._interval(d) == (d * d / (d * d - 1.0), d / (d - 1.0))
    for d in (94906266, 100000007, 9 * 10**15, 10000000000000061, 10**18 + 9):
        lower, upper = measure_mod._interval(d)
        assert 1.0 < lower <= upper
    # so n = 1 is below the interval: every weight would have to reach 1/d
    assert classify_regime(100000007, 1.0).kind.value == "always_noninvertible_output"
    assert delta_closed_form(10000000000000061, 1.0).delta == 0.0
    with pytest.raises(RegimeMismatchError, match=r"needs n in \[1\.0000000000000002, 1\.0000000000000002\]"):
        sweep(10**16, 10**16 + 1000, 1.0)


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
    g = weight_threshold(d, n)
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


# --- the decoherence parameter -------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: weight_threshold(2, n),
        lambda n: delta_closed_form(2, n),
        lambda n: delta_quadrature(2, n),
        lambda n: classify_regime(2, n),
        lambda n: Exponential(n=n, c=1.0).singular_time(2, 0.2),
        lambda n: sweep(7, 8, n),
    ],
    ids=["weight_threshold", "delta_closed_form", "delta_quadrature", "classify_regime",
         "singular_time_exponential", "sweep"],
)
def test_non_finite_n_is_refused(call, bad):
    with pytest.raises(ValidationError):
        call(bad)


# --- quadrature ------------------------------------------------------------------


def _across_interval(ds, fracs):
    """(d, n) at the given fractions of each d's intermediate interval."""
    points = []
    for d in ds:
        lower, upper = d * d / (d * d - 1), d / (d - 1)
        points += [(d, lower + f * (upper - lower)) for f in fracs]
    return points


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
    ]
    + _across_interval(prime_powers_in(8, 32), (1 / 20, 1 / 2, 19 / 20)),
)
def test_quadrature_agrees_with_closed_form(d, n):
    closed = delta_closed_form(d, n).delta
    quad = delta_quadrature(d, n).delta
    assert abs(closed - quad) <= 1e-10
    assert abs(closed - quad) <= 1e-12 * closed


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
    # the float 49/48 puts g just above 1/(d+1): the region is empty, not negative
    assert delta_quadrature(7, 49 / 48).delta == 0.0


def test_quadrature_d3_example():
    assert delta_quadrature(3, 1.2).delta == pytest.approx(0.008, abs=1e-12)


def test_normalization_check_matches_factorial():
    # the recursion over the whole simplex (g = 0) is its volume 1/d!
    for d in range(2, 33):
        assert _nested_simplex_integral(d, Fraction(0)) == Fraction(1, math.factorial(d))


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


def test_monte_carlo_deterministic_per_seed():
    a = delta_monte_carlo(3, 1.2, samples=50_000, seed=7)
    b = delta_monte_carlo(3, 1.2, samples=50_000, seed=7)
    assert a.delta == b.delta


# hit counts recorded from the per-batch-division loop with 2^17-row batches;
# sample counts below one batch, at and one past a multiple of the batch,
# and above the old batch size
MC_PINNED_HITS = [
    (3, 1.2, 1000, 7, 7),
    (2, 1.9, 1, 3, 1),
    (7, 1.15, 4096, 11, 1754),
    (16, 1.05, 4097, 12, 38),
    (2, 1.9, 8192, 4, 5922),
    (5, 1.1, 12288, 0, 19),
    (7, 1.15, 12289, 5, 5277),
    (32, 1.03, 131073, 917, 11953),
    (13, 1.08, 300_001, 2**31 - 1, 169071),
    # samples*(d+1) at, one below and one past a multiple of the 2^16-value
    # chunk of the shared stream, and one row wider than a chunk
    (7, 1.1, 8192, 21, 105),
    (16, 1.05, 65536, 8, 484),
    (2, 1.6, 21845, 5, 3506),
    (16, 1.06, 3855, 13, 647),
    (2, 1.7, 43691, 2, 13207),
    (4, 1.2, 52429, 17, 3262),
    (16, 1.045, 61681, 4, 68),
    (65537, 1.0000152585562425, 5, 6, 2),
]


@pytest.mark.parametrize("d, n, samples, seed, hits", MC_PINNED_HITS)
def test_monte_carlo_hits_are_pinned(d, n, samples, seed, hits):
    res = delta_monte_carlo(d, n, samples=samples, seed=seed)
    assert res.delta == hits / samples
    assert res.stderr == math.sqrt(res.delta * (1.0 - res.delta) / samples)


def test_monte_carlo_refuses_negative_seed():
    with pytest.raises(ValidationError):
        delta_monte_carlo(2, 1.5, samples=10, seed=-1)


def test_monte_carlo_agrees_with_output_invertible_bitwise():
    d, n, samples = 3, 1.2, 40_000
    g = weight_threshold(d, n)
    e = np.random.default_rng(123).standard_exponential((samples, d + 1))
    draws = e / e.sum(axis=1, keepdims=True)
    via_min = np.count_nonzero(draws.min(axis=1) >= g)
    via_checker = sum(output_invertible(d, n, row) for row in draws)
    assert via_min == via_checker
    # the row-minimum test divides only min(e) by sum(e); both give the same bits
    assert np.array_equal(e.min(axis=1) / e.sum(axis=1), draws.min(axis=1))
    # and _mc_hits, across several chunk boundaries, counts what the checker counts
    seed = 123
    stream = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    e = stream.standard_exponential((samples, d + 1))
    draws = e / e.sum(axis=1, keepdims=True)
    via_checker = sum(output_invertible(d, n, row) for row in draws)
    assert samples * (d + 1) > 2 * _MC_CHUNK
    assert _mc_hits([d], [g], samples, seed) == [via_checker]


def test_mc_hits_reads_one_stream_for_every_dimension():
    # rows of 3, of 8 and of one more value than a chunk, from one pass
    ds, samples, seed = [7, 2, _MC_CHUNK, 7], 9, 41
    hs = [0.05, 0.2, 1e-11, 0.01]
    hits = _mc_hits(ds, hs, samples, seed)
    assert hits == [_mc_hits([d], [h], samples, seed)[0] for d, h in zip(ds, hs)]
    stream = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    flat = stream.standard_exponential(samples * (_MC_CHUNK + 1))
    for d, h, k in zip(ds, hs, hits):
        e = flat[: samples * (d + 1)].reshape(samples, d + 1)
        assert k == np.count_nonzero(e.min(axis=1) / e.sum(axis=1) >= h)


def test_sweep_draws_the_stream_once(monkeypatch):
    made = []

    class Counting:
        def __init__(self, seed):
            self.rng = np.random.Generator(np.random.PCG64(seed))
            self.drawn = 0
            made.append(self)

        def standard_exponential(self, *args, **kwargs):
            out = self.rng.standard_exponential(*args, **kwargs)
            self.drawn += out.size
            return out

    monkeypatch.setattr(np.random, "default_rng", Counting)
    samples = 5001
    rows = sweep(7, 32, 1.03, method="monte_carlo", samples=samples, seed=3)
    assert len(made) == 1
    assert made[0].drawn == samples * 33
    monkeypatch.undo()
    assert rows == sweep(7, 32, 1.03, method="monte_carlo", samples=samples, seed=3)


# --- sweep ------------------------------------------------------------------------


def test_prime_powers_in_examples():
    assert prime_powers_in(7, 32) == [7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
    assert prime_powers_in(2, 5) == [2, 3, 4, 5]
    assert prime_powers_in(33, 36) == []
    with pytest.raises(ValidationError):
        prime_powers_in(1, 5)


@pytest.mark.parametrize(
    "lo, hi",
    [(2, 20000), (10**6 - 3000, 10**6 + 3000), (2**40 - 2000, 2**40 + 2000),
     (10**18 - 1500, 10**18 + 1500), (3 * 10**24, 3 * 10**24 + 1000)],
)
def test_prime_powers_in_is_the_prime_power_filter(lo, hi):
    # the last three ranges lie beyond the square of the sieve's largest prime
    assert prime_powers_in(lo, hi) == [d for d in range(lo, hi + 1) if is_prime_power(d)]


def test_a_sweep_wider_than_its_limit_is_refused():
    width = measure_mod._SWEEP_MAX_WIDTH
    assert len(prime_powers_in(10**12, 10**12 + width - 1)) > 0
    with pytest.raises(ValidationError, match=f"limited to {width} integers"):
        prime_powers_in(10**12, 10**12 + width)
    # n = 1 + 1e-13 lies in the interval of every d in [1e9, 1e12], so the regime lets the range through
    with pytest.raises(ValidationError, match=f"limited to {width} integers"):
        sweep(10**9, 10**12, 1.0000000000001)


def test_each_sweep_row_is_its_per_dimension_route():
    routes = {
        "closed_form": lambda d, n: delta_closed_form(d, n),
        "quadrature": lambda d, n: delta_quadrature(d, n),
        "monte_carlo": lambda d, n: delta_monte_carlo(d, n, samples=500, seed=4),
    }
    # a range, a long range by the closed form only, one dimension, and no prime power
    for lo, hi, n, methods in ((7, 32, 1.03, routes), (200, 5000, 1.0002, ["closed_form"]),
                               (13, 13, 1.05, routes), (33, 36, 1.2, routes)):
        for method in methods:
            rows = sweep(lo, hi, n, method=method, samples=500, seed=4)
            assert [row.d for row in rows] == prime_powers_in(lo, hi)
            for row in rows:
                assert row.delta == routes[method](row.d, n).delta
                if row.delta >= sys.float_info.min:
                    assert row.log10_delta == math.log10(row.delta)
                elif method == "monte_carlo":
                    assert row.log10_delta == -math.inf
                else:  # 0 or subnormal: the log of the exact value, ((d^2 (n-1) - n)/d)^d
                    assert row.log10_delta == pytest.approx(_exact_log10_delta(row.d, n), rel=1e-13)


def _exact_log10_delta(d, n):
    base = (d * d * (Fraction(n) - 1) - Fraction(n)) / d
    return d * (math.log10(base.numerator) - math.log10(base.denominator))


def test_a_sweep_row_whose_delta_underflows_keeps_a_finite_log():
    rows = sweep(1000, 1024, 1.000002)
    assert (rows[0].d, rows[0].delta) == (1009, 0.0)
    assert rows[0].log10_delta == -3015.360522566384
    assert rows[0].log10_delta == pytest.approx(_exact_log10_delta(1009, 1.000002), rel=1e-15)
    # the quadrature's exact Fraction and the closed form agree where delta underflows
    lower, upper = measure_mod._interval(101)
    n = lower + 1e-7 * (upper - lower)
    (quad,), (closed,) = sweep(101, 101, n, method="quadrature"), sweep(101, 101, n)
    assert quad.delta == closed.delta == 0.0
    assert quad.log10_delta == pytest.approx(closed.log10_delta, rel=1e-14)
    assert closed.log10_delta == pytest.approx(_exact_log10_delta(101, n), rel=1e-14)
    assert -708 < closed.log10_delta < -707
    # a Monte Carlo count of 0 still has log -inf
    (mc,) = sweep(101, 101, n, method="monte_carlo", samples=100)
    assert (mc.delta, mc.log10_delta) == (0.0, -math.inf)


def test_a_quadrature_sweep_integrates_once_per_row(monkeypatch):
    calls = []

    def counted(d, g):
        calls.append(d)
        return _nested_simplex_integral(d, g)

    monkeypatch.setattr(measure_mod, "_nested_simplex_integral", counted)
    # d = 97 underflows to 0 and d = 101 to a subnormal: both logs come from the one exact value
    rows = sweep(97, 101, 1.0001063925170068, method="quadrature")
    assert calls == [97, 101]
    assert [(r.d, r.delta, r.log10_delta) for r in rows] == [
        (97, 0.0, -486.28761926240054),
        (101, 3.4660234829868923e-311, -310.46016849918192),
    ]


def test_sweep_reproduces_superexponential_growth():
    rows = sweep(7, 32, 1.03)
    assert len(rows) == 14
    deltas = [r.delta for r in rows]
    assert all(a < b for a, b in zip(deltas, deltas[1:]))
    logs = [r.log10_delta for r in rows]
    assert all(a < b for a, b in zip(logs, logs[1:]))
    assert rows[0].delta == pytest.approx(3.878e-9, rel=1e-3)
    assert rows[-1].delta == pytest.approx(9.09e-2, rel=1e-3)


def test_sweep_regime_mismatch_lists_offenders():
    with pytest.raises(RegimeMismatchError) as err:
        sweep(2, 3, 1.03)
    assert "d=2" in str(err.value)
    assert "d=3" in str(err.value)


@settings(max_examples=60, deadline=None)
@given(
    lo=st.integers(2, 150),
    width=st.integers(0, 1200),
    n=st.floats(1.0, 2.5) | st.floats(1.0, 1.01),
)
def test_sweep_dimensions_checks_n_against_the_ends_of_the_range(lo, width, n):
    hi = lo + width
    ds = prime_powers_in(lo, hi)
    offenders = [d for d in ds if not d * d / (d * d - 1) <= n <= d / (d - 1)]
    if not offenders:
        assert sweep_dimensions(lo, hi, n) == ds
        return
    with pytest.raises(RegimeMismatchError) as err:
        sweep_dimensions(lo, hi, n)
    text = str(err.value)
    assert [int(x) for x in re.findall(r"d=(\d+) needs", text)] == offenders[:8]
    if len(offenders) > 8:
        ranges = re.findall(r"\[(\d+), (\d+)\]", text.split("every other prime power in")[1])
        assert [d for a, b in ranges for d in prime_powers_in(int(a), int(b))] == offenders[8:]
    else:
        assert "every other" not in text


def test_sweep_dimensions_does_not_enumerate_a_refused_range(monkeypatch):
    calls = []
    real = measure_mod.is_prime_power
    monkeypatch.setattr(measure_mod, "is_prime_power", lambda d: calls.append(d) or real(d))
    for lo, hi, n in ((2, 10**6, 1.5), (2, 10**6, 1.0001), (2, 10**20, 1.0000001)):
        with pytest.raises(RegimeMismatchError) as err:
            sweep_dimensions(lo, hi, n)
        assert len(str(err.value)) < 1024
    assert len(calls) < 500
    assert sweep_dimensions(33, 36, 1.2) == []
    with pytest.raises(ValidationError):
        sweep_dimensions(1, 5, 1.2)
    with pytest.raises(ValidationError):
        sweep_dimensions(2, 10**30, 1.5)  # beyond the exact primality test
    with pytest.raises(ValidationError):
        sweep_dimensions(7, 32, math.nan)


def test_sweep_excludes_d5_at_low_n():
    # 1.03 < 25/24, so d=5 falls below its intermediate interval
    with pytest.raises(RegimeMismatchError):
        sweep(5, 5, 1.03)
    assert sweep(5, 5, 1.05)[0].delta > 0  # 25/24 < 1.05 < 5/4 is fine


def test_sweep_upper_boundary_gives_unity():
    rows = sweep(7, 7, 7 / 6)
    assert rows[0].delta == pytest.approx(1.0, abs=1e-12)
    assert rows[0].log10_delta == pytest.approx(0.0, abs=1e-12)


def test_sweep_methods_agree():
    # 1.05 lies above d=32's interval [1024/1023, 32/31]
    for lo, hi, n in ((7, 8, 1.05), (32, 32, 1.03)):
        closed = sweep(lo, hi, n, method="closed_form")
        quad = sweep(lo, hi, n, method="quadrature")
        mc = sweep(lo, hi, n, method="monte_carlo", samples=200_000, seed=3)
        for c_row, q_row, m_row in zip(closed, quad, mc):
            assert q_row.delta == pytest.approx(c_row.delta, abs=1e-10)
            assert q_row.delta == pytest.approx(c_row.delta, rel=1e-12)
            assert abs(m_row.delta - c_row.delta) < 0.01


def test_sweep_monte_carlo_matches_delta_monte_carlo_row_for_row():
    rows = sweep(7, 32, 1.03, method="monte_carlo", samples=5001, seed=3)
    assert [r.d for r in rows] == SWEEP_DIMS
    for row in rows:
        assert row.delta == delta_monte_carlo(row.d, 1.03, samples=5001, seed=3).delta
    assert sweep(33, 36, 1.03, method="monte_carlo", samples=10, seed=0) == []


@pytest.mark.parametrize("samples, seed", [(0, 1), (-5, 1), (10, -1)])
def test_sweep_monte_carlo_checks_arguments_before_any_draw(monkeypatch, samples, seed):
    def no_draw(*args, **kwargs):
        raise AssertionError("a draw started before validation")

    monkeypatch.setattr(measure_mod, "_mc_hits", no_draw)
    with pytest.raises(ValidationError):
        sweep(7, 8, 1.05, method="monte_carlo", samples=samples, seed=seed)


# --- Monte Carlo: the shared path and its exact recheck ----------------------------

SWEEP_DIMS = [7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def _median_thresholds(ds):
    """The h at which half the draws on d+1 coordinates clear it: (1 - (d+1) h)^d = 1/2."""
    return [(1 - 0.5 ** (1 / d)) / (d + 1) for d in ds]


def _thresholds(ds, n):
    return [weight_threshold(d, n) for d in ds] if n else _median_thresholds(ds)


# _mc_hits counts recorded before the shared path existed, from the one-pass
# direct loop: (dimensions, n or None for the median thresholds, samples, seed,
# hits). 65536, 31775 and 33761 samples put samples*33 at, one below and one
# past a multiple of the 2^16-value chunk
MC_PINNED_SWEEPS = [
    (SWEEP_DIMS, 1.03, 100_000, 11, [0, 0, 0, 0, 0, 0, 0, 1, 4, 15, 92, 509, 3389, 9134]),
    (SWEEP_DIMS, 1.032, 100_000, 2024, [0, 0, 0, 0, 0, 1, 0, 2, 22, 114, 613, 3695, 27372, 76849]),
    (SWEEP_DIMS, 1.031, 65536, 5, [0, 0, 0, 1, 0, 0, 0, 3, 3, 31, 146, 876, 6527, 17670]),
    (SWEEP_DIMS, 1.031, 31775, 6, [0, 0, 0, 0, 0, 0, 0, 0, 2, 15, 68, 412, 3174, 8714]),
    (SWEEP_DIMS, 1.031, 33761, 7, [0, 0, 0, 0, 0, 0, 0, 0, 1, 23, 64, 503, 3299, 9312]),
    (SWEEP_DIMS, None, 65536, 5,
     [32952, 32910, 32909, 32874, 32690, 32845, 32662, 32768, 32818, 32774, 32692, 32744, 32834, 32853]),
    (SWEEP_DIMS, None, 31775, 6,
     [15982, 16061, 15955, 15942, 15967, 16013, 15974, 15964, 15925, 15910, 16002, 15981, 16039, 16014]),
    (SWEEP_DIMS, None, 33761, 7,
     [16997, 17058, 17069, 16964, 16964, 17068, 17055, 17042, 17003, 17000, 16991, 16992, 17065, 17010]),
    (SWEEP_DIMS, None, 100_000, 99,
     [50064, 50063, 50006, 49847, 49964, 49988, 49878, 49924, 50103, 49924, 49939, 49855, 49935, 49846]),
    ([13, 7, 32, 9, 8, 7], 1.03, 30001, 3, [0, 0, 2683, 0, 0, 0]),
    ([13, 7, 32, 9, 8, 7], None, 30001, 3, [15099, 15055, 15201, 15139, 15107, 15055]),
    ([2, 3, 4, 5] + SWEEP_DIMS, None, 20000, 8,
     [9976, 9861, 9870, 9879, 9880, 9972, 9998, 9988, 10001, 10015, 10001, 10020, 9997, 9983, 10038, 9996,
      9980, 9994]),
]


@pytest.fixture
def shared_chunks(monkeypatch):
    """Counts the chunks that the shared path serves."""
    calls = []
    real = measure_mod._shared_hits
    monkeypatch.setattr(measure_mod, "_shared_hits", lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize("ds, n, samples, seed, hits", MC_PINNED_SWEEPS)
def test_mc_hits_of_a_sweep_are_pinned(shared_chunks, ds, n, samples, seed, hits):
    assert _mc_hits(ds, _thresholds(ds, n), samples, seed) == hits
    assert shared_chunks


def test_shared_path_serves_chunks_that_enough_dimensions_read(shared_chunks):
    # at least two dimensions, and one per table level: [7] and [7, 8] need
    # three levels, [2, 3] two
    for ds, shared in (([7], False), ([7, 8], False), ([7, 8, 9], True), ([2], False), ([2, 3], True)):
        shared_chunks.clear()
        _mc_hits(ds, _median_thresholds(ds), 1000, 1)
        assert bool(shared_chunks) == shared, ds
    # a sweep of 7..32 serves its last chunks, read by 27..32 only, directly
    shared_chunks.clear()
    _mc_hits(SWEEP_DIMS, _median_thresholds(SWEEP_DIMS), 100_000, 1)
    chunks = math.ceil(100_000 * 33 / _MC_CHUNK)
    assert 0 < len(shared_chunks) < chunks


def test_mc_hits_counts_a_row_that_sits_on_its_threshold(shared_chunks):
    # each d's threshold is exactly min/sum of one of its rows, so that row is a
    # hit; min - h*S~ of that row is rounding noise and only the exact test decides it
    samples, seed = 3000, 17
    stream = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    flat = stream.standard_exponential(samples * (max(SWEEP_DIMS) + 1))
    hs, expected = [], []
    for d in SWEEP_DIMS:
        e = flat[: samples * (d + 1)].reshape(samples, d + 1)
        ratio = e.min(axis=1) / e.sum(axis=1)
        h = float(np.sort(ratio)[samples // 2 + d])
        hs.append(h)
        expected.append(int(np.count_nonzero(ratio >= h)))
    assert _mc_hits(SWEEP_DIMS, hs, samples, seed) == expected
    assert shared_chunks


def _pinned_cases():
    for d, n, samples, seed, hits in MC_PINNED_HITS:
        # enough copies of d for the shared path: one per table level, at least two
        copies = max(2, (d + 1).bit_length() - 1)
        yield [d] * copies, [weight_threshold(d, n)] * copies, samples, seed, [hits] * copies
    for ds, n, samples, seed, hits in MC_PINNED_SWEEPS[:1] + [c for c in MC_PINNED_SWEEPS if c[2] < 100_000]:
        yield ds, _thresholds(ds, n), samples, seed, hits


def test_exact_recheck_of_every_row_keeps_every_count(monkeypatch, shared_chunks):
    # a bound this wide leaves every row unsure, so every row goes to the exact test
    monkeypatch.setattr(measure_mod, "_MC_BOUND_SLACK", 1e300)
    for ds, hs, samples, seed, hits in _pinned_cases():
        shared_chunks.clear()
        assert _mc_hits(ds, hs, samples, seed) == hits, (ds, samples, seed)
        assert shared_chunks


def test_monte_carlo_refuses_work_beyond_the_limit(monkeypatch):
    def no_draw(*args, **kwargs):
        raise AssertionError("a draw started before validation")

    monkeypatch.setattr(measure_mod, "_mc_hits", no_draw)
    limit = measure_mod._MC_MAX_VALUES
    with pytest.raises(ValidationError, match=str(limit)):
        delta_monte_carlo(65537, 1.0000152585562425, samples=10**6, seed=0)
    with pytest.raises(ValidationError, match=str(limit)):
        delta_monte_carlo(7, 1.15, samples=limit // 8 + 1, seed=0)
    with pytest.raises(ValidationError, match=str(limit)):
        sweep(31, 32, 1.03, method="monte_carlo", samples=limit // 33 + 1, seed=0)


def test_monte_carlo_work_at_the_limit_is_accepted(monkeypatch):
    calls = []
    monkeypatch.setattr(measure_mod, "_mc_hits", lambda ds, hs, samples, seed: calls.append(samples) or [0] * len(ds))
    limit = measure_mod._MC_MAX_VALUES
    assert delta_monte_carlo(7, 1.15, samples=limit // 8, seed=0).delta == 0.0
    sweep(31, 32, 1.03, method="monte_carlo", samples=limit // 33, seed=0)
    assert calls == [limit // 8, limit // 33]


def test_monte_carlo_refuses_a_non_prime_power(monkeypatch):
    monkeypatch.setattr(measure_mod, "_mc_hits", lambda *args: pytest.fail("a draw started before validation"))
    with pytest.raises(NotPrimePowerError, match="6 is not a prime power"):
        delta_monte_carlo(6, 1.3, samples=1000, seed=0)


def test_monte_carlo_bounds_the_values_reduced_and_the_dimension(monkeypatch):
    calls = []
    monkeypatch.setattr(measure_mod, "_mc_hits", lambda ds, hs, samples, seed: calls.append(samples) or [0] * len(ds))
    reduced, max_d = measure_mod._MC_MAX_REDUCED, measure_mod._MC_MAX_D
    # 7, 8, 9, 11 and 13 read 8 + 9 + 10 + 12 + 14 = 53 values a sample
    sweep(7, 13, 1.05, method="monte_carlo", samples=reduced // 53, seed=0)
    with pytest.raises(ValidationError, match=str(reduced)):
        sweep(7, 13, 1.05, method="monte_carlo", samples=reduced // 53 + 1, seed=0)
    # d = 2^22 is allowed; 4194319, the next prime power, is not
    assert factor_prime_power(max_d)
    assert delta_monte_carlo(max_d, 1.5, samples=2, seed=0).delta == 0.0
    with pytest.raises(ValidationError, match=f"d <= {max_d}"):
        delta_monte_carlo(4194319, 1.5, samples=2, seed=0)
    with pytest.raises(ValidationError, match=f"d <= {max_d}"):
        delta_monte_carlo(500000003, 1.5, samples=2, seed=0)
    assert calls == [reduced // 53, 2]


def test_quadrature_refuses_large_dimensions():
    limit = measure_mod._QUADRATURE_MAX_D
    assert limit > 32 and factor_prime_power(limit)
    n = limit / (limit - 0.5)  # inside the interval [d^2/(d^2-1), d/(d-1)]
    assert delta_quadrature(limit, n).delta == pytest.approx(delta_closed_form(limit, n).delta, rel=1e-12)
    for d in (103, 1000003):
        n = d / (d - 0.5)
        with pytest.raises(ValidationError, match=f"d <= {limit}"):
            delta_quadrature(d, n)
    # outside the interval the regime answers first, as before
    with pytest.raises(RegimeMismatchError):
        delta_quadrature(1000003, 1.5)
