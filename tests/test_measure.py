import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimix import measure as measure_mod
from paulimix.errors import NotPrimePowerError, RegimeMismatchError, ValidationError
from paulimix.invertibility import classify_regime, output_invertible, singular_time_exponential
from paulimix.measure import (
    _MC_CHUNK,
    THRESHOLD_ATOL,
    _mc_hits,
    delta_closed_form,
    delta_monte_carlo,
    delta_quadrature,
    g_threshold,
    normalization_check,
    prime_powers_in,
    sample_simplex,
    sweep,
    sweep_dimensions,
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


# --- the decoherence parameter -------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: g_threshold(2, n),
        lambda n: delta_closed_form(2, n),
        lambda n: delta_quadrature(2, n),
        lambda n: classify_regime(2, n),
        lambda n: singular_time_exponential(2, n, 1.0, 0.2),
        lambda n: sweep([7, 8], n),
    ],
    ids=["g_threshold", "delta_closed_form", "delta_quadrature", "classify_regime",
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
    for d in range(2, 33):
        assert abs(normalization_check(d) - 1 / math.factorial(d)) <= 1e-12
        assert abs(normalization_check(d) * math.factorial(d) - 1) <= 1e-12


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
    g = g_threshold(d, n).g
    rng = np.random.default_rng(123)
    draws = sample_simplex(d + 1, samples, rng)
    via_min = np.count_nonzero(draws.min(axis=1) >= g - THRESHOLD_ATOL)
    via_checker = sum(output_invertible(d, n, row) for row in draws)
    assert via_min == via_checker
    # the row-minimum test divides only min(e) by sum(e); both give the same bits
    rng = np.random.default_rng(123)
    e = rng.standard_exponential((samples, d + 1))
    assert np.array_equal(e.min(axis=1) / e.sum(axis=1), draws.min(axis=1))
    # and _mc_hits, across several chunk boundaries, counts what the checker counts
    seed = 123
    stream = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    draws = sample_simplex(d + 1, samples, stream)
    via_checker = sum(output_invertible(d, n, row) for row in draws)
    assert samples * (d + 1) > 2 * _MC_CHUNK
    assert _mc_hits([d], [g - THRESHOLD_ATOL], samples, seed) == [via_checker]


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
    ds, samples = [13, 7, 32, 9, 8, 7], 5001
    rows = sweep(ds, 1.03, method="monte_carlo", samples=samples, seed=3)
    assert len(made) == 1
    assert made[0].drawn == samples * (max(ds) + 1)
    monkeypatch.undo()
    assert rows == sweep(ds, 1.03, method="monte_carlo", samples=samples, seed=3)


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


def test_sweep_caps_the_offender_list():
    ds = prime_powers_in(2, 200)
    with pytest.raises(RegimeMismatchError) as err:
        sweep(ds, 1.5)
    text = str(err.value)
    offenders = [d for d in ds if d > 3]  # 1.5 is in the intervals of d=2 and d=3 only
    assert [int(x) for x in re.findall(r"d=(\d+) needs", text)] == offenders[:8]
    assert text.endswith(f"; and {len(offenders) - 8} more")


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
        sweep([5], 1.03)
    assert sweep([5], 1.05)[0].delta > 0  # 25/24 < 1.05 < 5/4 is fine


def test_sweep_upper_boundary_gives_unity():
    rows = sweep([7], 7 / 6)
    assert rows[0].delta == pytest.approx(1.0, abs=1e-12)
    assert rows[0].log10_delta == pytest.approx(0.0, abs=1e-12)


def test_sweep_methods_agree():
    # 1.05 lies above d=32's interval [1024/1023, 32/31]
    for ds, n in (([7, 8], 1.05), ([32], 1.03)):
        closed = sweep(ds, n, method="closed_form")
        quad = sweep(ds, n, method="quadrature")
        mc = sweep(ds, n, method="monte_carlo", samples=200_000, seed=3)
        for c_row, q_row, m_row in zip(closed, quad, mc):
            assert q_row.delta == pytest.approx(c_row.delta, abs=1e-10)
            assert q_row.delta == pytest.approx(c_row.delta, rel=1e-12)
            assert abs(m_row.delta - c_row.delta) < 0.01


def test_sweep_monte_carlo_matches_delta_monte_carlo_row_for_row():
    ds = [13, 7, 32, 9, 8, 7]
    rows = sweep(ds, 1.03, method="monte_carlo", samples=5001, seed=3)
    assert [r.d for r in rows] == ds
    for row in rows:
        assert row.delta == delta_monte_carlo(row.d, 1.03, samples=5001, seed=3).delta
    assert sweep([], 1.03, method="monte_carlo", samples=10, seed=0) == []


@pytest.mark.parametrize("samples, seed", [(0, 1), (-5, 1), (10, -1)])
def test_sweep_monte_carlo_checks_arguments_before_any_thread(monkeypatch, samples, seed):
    import concurrent.futures

    import paulimix.measure as measure_mod

    def no_thread(*args, **kwargs):
        raise AssertionError("a thread pool or a draw started before validation")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_thread)
    monkeypatch.setattr(measure_mod, "_mc_hits", no_thread)
    with pytest.raises(ValidationError):
        sweep([7, 8], 1.05, method="monte_carlo", samples=samples, seed=seed)
