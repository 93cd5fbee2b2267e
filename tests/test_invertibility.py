import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from paulimix.dynmaps import Cosine, Exponential, Plateau, mixture_map
from paulimix.errors import SingularAtGridPointError, ValidationError
from paulimix.invertibility import (
    Classification,
    analytic_singularity_report,
    cp_divisibility_check,
    numeric_singularity_scan,
    output_invertible,
)
from paulimix.measure import RegimeKind, classify_regime, g_threshold
from paulimix.oracle import is_cp, to_choi


# --- analytic singular times -----------------------------------------------------


def test_exponential_singular_time_examples():
    # d=2, n=1, c=1, x=0: ln 2
    assert Exponential(n=1.0, c=1.0).singular_time(2, 0.0) == pytest.approx(math.log(2), abs=1e-15)
    # at or above the threshold: no finite singular time
    for d, n in [(2, 1.5), (3, 1.2), (7, 1.05)]:
        g = g_threshold(d, n).g
        assert Exponential(n=n, c=1.0).singular_time(d, g) is None
        assert Exponential(n=n, c=1.0).singular_time(d, min(1.0, g + 0.05)) is None
    with pytest.raises(ValidationError):
        Exponential(n=0.5, c=1.0).singular_time(2, 0.2)
    with pytest.raises(ValidationError):
        Exponential(n=1.5, c=-1.0).singular_time(2, 0.2)
    with pytest.raises(ValidationError):
        Exponential(n=1.5, c=1.0).singular_time(2, 1.2)


def test_exponential_singular_time_qubit_form():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = rng.uniform(1.0, 1.999)
        c = rng.uniform(0.2, 3.0)
        x = rng.uniform(0.0, 1.0)
        general = Exponential(n=n, c=c).singular_time(2, x)
        denom = 2 * (1 - x) - n
        direct = math.log(2 * (1 - x) / denom) / c if denom > 1e-12 * 2 * (1 - x) else None
        if direct is None:
            assert general is None
        else:
            assert general == pytest.approx(direct, rel=1e-12)


def test_exponential_singular_time_is_a_root():
    n, c, d, x = 1.2, 0.7, 5, 0.01  # x below g(5, 1.2) = 0.04
    pf = Exponential(n=n, c=c)
    t_star = pf.singular_time(d, x)
    lam = 1 - (d / (d - 1)) * (1 - x) * pf.value(t_star)
    assert abs(lam) < 1e-12


def test_cosine_singular_time_examples():
    assert Cosine(omega=1.0).singular_time(2, 0.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert Cosine(omega=2.0).singular_time(2, 1 / 3) == pytest.approx(math.pi / 3, abs=1e-12)
    assert Cosine(omega=1.0).singular_time(2, 0.6) is None
    assert Cosine(omega=1.0).singular_time(2, 0.5) == pytest.approx(math.pi, abs=1e-12)
    # d = 3: cos(omega t*) = 1 - 4/(3(1 - x)), reachable iff x <= 1/3
    assert Cosine(omega=1.0).singular_time(3, 0.0) == pytest.approx(math.acos(-1 / 3), abs=1e-15)
    assert Cosine(omega=1.0).singular_time(3, 0.5) is None
    with pytest.raises(ValidationError):
        Cosine(omega=1.0).singular_time(1, 0.2)


def test_cosine_singular_time_against_root_finder():
    # oracle: bracketed scalar root of x + (1-x) cos(omega t)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(0.0, 0.499)
        omega = rng.uniform(0.3, 4.0)

        def lam(t):
            return x + (1 - x) * math.cos(omega * t)

        t_hi = math.pi / omega
        oracle = brentq(lam, 1e-12, t_hi, xtol=1e-14)
        assert Cosine(omega=omega).singular_time(2, x) == pytest.approx(oracle, rel=1e-9)


def test_plateau_singular_time():
    assert Plateau(t_sharp=1.0).singular_time(2, 0.1) is None  # target 0.556 > 1/2
    assert Plateau(t_sharp=2.5).singular_time(2, 0.0) == 2.5
    for x in (0.01, 0.3, 0.9):
        assert Plateau(t_sharp=1.0).singular_time(2, x) is None
    # p <= 1/2 < (d-1)/(d(1-x)) for every d > 2
    assert Plateau(t_sharp=1.0).singular_time(3, 0.1) is None


# --- regimes ------------------------------------------------------------------------


def test_classify_regime_examples():
    r = classify_regime(7, 1.03)
    assert r.kind is RegimeKind.INTERMEDIATE
    assert r.lower == pytest.approx(49 / 48)
    assert r.upper == pytest.approx(7 / 6)
    assert classify_regime(3, 2.0).kind is RegimeKind.INVERTIBLE_INPUTS
    assert classify_regime(2, 1.2).kind is RegimeKind.ALWAYS_NONINVERTIBLE
    assert classify_regime(2, 1.5).kind is RegimeKind.INTERMEDIATE


def test_classify_regime_boundaries():
    for d in (2, 3, 5, 8):
        lower = d * d / (d * d - 1)
        upper = d / (d - 1)
        assert lower < upper
        assert classify_regime(d, upper).kind is RegimeKind.INVERTIBLE_INPUTS
        # the lower endpoint belongs to the intermediate regime (measure zero)
        assert classify_regime(d, lower).kind is RegimeKind.INTERMEDIATE


def test_output_invertible_examples():
    assert output_invertible(2, 4 / 3, [1 / 3, 1 / 3, 1 / 3])
    assert not output_invertible(2, 4 / 3, [0.5, 0.3, 0.2])
    rng = np.random.default_rng(2)
    for d in (2, 3, 7):
        n = d / (d - 1)
        for _ in range(10):
            assert output_invertible(d, n, rng.dirichlet(np.ones(d + 1)))
            assert output_invertible(d, n + 0.5, rng.dirichlet(np.ones(d + 1)))


@settings(max_examples=60, deadline=None)
@given(
    d=st.sampled_from([2, 3, 5, 7]),
    raw=st.lists(st.floats(0.01, 1.0), min_size=8, max_size=8),
    n0=st.floats(1.0, 1.6),
    bump=st.floats(0.0, 0.8),
)
def test_output_invertible_monotone_in_n(d, raw, n0, bump):
    weights = np.array(raw[: d + 1]) / sum(raw[: d + 1])
    if output_invertible(d, n0, weights):
        assert output_invertible(d, n0 + bump, weights)


# --- numeric scan ---------------------------------------------------------------------


def test_scan_matches_exponential_formula():
    rng = np.random.default_rng(3)
    for trial in range(24):
        d = [2, 3, 5, 7][trial % 4]
        n = rng.uniform(1.0, d / (d - 1))
        c = rng.uniform(0.5, 2.0)
        weights = rng.dirichlet(np.ones(d + 1))
        m = mixture_map(d, weights, Exponential(n=n, c=c))
        report = numeric_singularity_scan(m, t_max=50 / c, grid_points=2001)
        g = g_threshold(d, n).g
        for i in range(d + 1):
            analytic = Exponential(n=n, c=c).singular_time(d, float(weights[i]))
            numeric = report.singular_times[i]
            assert (numeric is None) == (analytic is None)
            assert (numeric is None) == bool(weights[i] >= g - 1e-12)
            if numeric is not None:
                assert numeric == pytest.approx(analytic, rel=1e-9)


def test_scan_reports_invertible_when_all_weights_clear_threshold():
    m = mixture_map(2, [0.4, 0.35, 0.25], Exponential(n=1.8, c=1))
    report = numeric_singularity_scan(m, t_max=50.0, grid_points=501)
    assert report.classification is Classification.INVERTIBLE
    assert report.t_star is None
    assert all(t is None for t in report.singular_times)


def test_scan_matches_cosine_root_finder():
    rng = np.random.default_rng(4)
    for _ in range(10):
        weights = rng.dirichlet(np.ones(3))
        omega = rng.uniform(0.5, 3.0)
        m = mixture_map(2, weights, Cosine(omega=omega))
        report = numeric_singularity_scan(m, t_max=100.0, grid_points=4001)
        for i in range(3):
            x = float(weights[i])
            if x > 0.5:
                assert report.singular_times[i] is None
                continue

            def lam(t):
                return x + (1 - x) * math.cos(omega * t)

            oracle = brentq(lam, 1e-12, math.pi / omega, xtol=1e-14)
            assert report.singular_times[i] == pytest.approx(oracle, rel=1e-9)


def test_scan_finds_tangential_touch():
    m = mixture_map(2, [0.5, 0.25, 0.25], Cosine(omega=1.0))
    report = numeric_singularity_scan(m, t_max=10.0, grid_points=2001)
    assert report.singular_times[0] == pytest.approx(math.pi, abs=1e-6)


def test_scan_plateau_never_singular_for_positive_weights():
    rng = np.random.default_rng(5)
    for _ in range(5):
        weights = rng.dirichlet(np.ones(3))
        m = mixture_map(2, weights, Plateau(t_sharp=1.0))
        report = numeric_singularity_scan(m, t_max=100.0, grid_points=2001)
        assert report.classification is Classification.INVERTIBLE


def test_scan_semigroup_point_classification():
    m = mixture_map(2, [1 / 3, 1 / 3, 1 / 3], Exponential(n=4 / 3, c=1))
    report = numeric_singularity_scan(m, t_max=50.0, grid_points=2001)
    assert report.classification is Classification.SEMIGROUP_EQUAL_MIX
    assert report.t_star is None
    analytic = analytic_singularity_report(m)
    assert analytic.classification is Classification.SEMIGROUP_EQUAL_MIX


def test_scan_grid_too_coarse_advisory():
    m = mixture_map(2, [0.05, 0.05, 0.9], Cosine(omega=40.0))
    report = numeric_singularity_scan(m, t_max=0.5, grid_points=12)
    assert any("GridTooCoarse" in w for w in report.warnings)


def test_scan_validates_arguments():
    m = mixture_map(2, [0.4, 0.3, 0.3], Exponential(n=1.5, c=1))
    for t_max in (0.0, math.inf, math.nan):
        with pytest.raises(ValidationError):
            numeric_singularity_scan(m, t_max=t_max, grid_points=100)
    with pytest.raises(ValidationError):
        numeric_singularity_scan(m, t_max=1.0, grid_points=1)


def test_analytic_report_payload_shape():
    m = mixture_map(2, [0.6, 0.2, 0.2], Exponential(n=1.2, c=1))
    payload = analytic_singularity_report(m).to_payload()
    assert payload["method"] == "analytic"
    assert payload["classification"] == "noninvertible"
    assert [entry["i"] for entry in payload["singular_times"]] == [0, 1, 2]
    assert payload["singular_times"][0]["t_star"] is None  # x=0.6 >= g


# --- CP divisibility -------------------------------------------------------------------


def test_cp_divisibility_semigroup_is_cp_everywhere():
    m = mixture_map(2, [1 / 3, 1 / 3, 1 / 3], Exponential(n=4 / 3, c=1))
    steps = cp_divisibility_check(m, np.linspace(0.0, 4.0, 17))
    assert all(s.cp for s in steps)


def test_cp_divisibility_single_map_invertible_inputs():
    m = mixture_map(2, [0.999, 5e-4, 5e-4], Exponential(n=2.0, c=1))
    steps = cp_divisibility_check(m, np.linspace(0.0, 3.0, 31))
    assert all(s.cp for s in steps)


def test_cp_divisibility_identity_step():
    m = mixture_map(3, [0.4, 0.3, 0.2, 0.1], Exponential(n=1.5, c=1))
    steps = cp_divisibility_check(m, [1.0, 1.0])
    assert len(steps) == 1
    assert steps[0].cp
    assert steps[0].choi_min_eigenvalue == pytest.approx(0.0, abs=1e-12)


def test_cp_divisibility_raises_at_singular_grid_point():
    n, c, x = 1.0, 1.0, 0.1
    m = mixture_map(2, [x, 0.45, 0.45], Exponential(n=n, c=c))
    t_star = Exponential(n=n, c=c).singular_time(2, 0.45)
    with pytest.raises(SingularAtGridPointError):
        cp_divisibility_check(m, [0.0, t_star, 2 * t_star])


def test_cp_divisibility_detects_backflow():
    # strongly uneven cosine mixture: the propagator leaves CP while the
    # eigenvalues recohere (lambda growing back toward 1)
    m = mixture_map(2, [0.8, 0.1, 0.1], Cosine(omega=1.0))
    times = np.linspace(0.0, 2 * math.pi * 0.45, 24)
    steps = cp_divisibility_check(m, times)
    assert any(not s.cp for s in steps)


@pytest.mark.parametrize("family", ["cosine", "exponential"])
@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 8, 9])
def test_cp_divisibility_matches_dense_choi(d, family):
    # oracle: the Choi matrix of the dense propagator S(t2) S(t1)^-1
    pf = Exponential(n=2.0, c=1.0) if family == "exponential" else Cosine(omega=1.0)
    t_max = 3.0 if family == "exponential" else 1.4  # every |lambda_i| stays above 0.1
    times = np.linspace(0.0, t_max, 13)
    uneven = np.full(d + 1, 0.2 / d)
    uneven[0] = 0.8
    rng = np.random.default_rng(80 + d)
    for weights in (rng.dirichlet(np.ones(d + 1)), uneven):
        m = mixture_map(d, weights, pf)
        steps = cp_divisibility_check(m, times)
        for step in steps:
            prop = m.superoperator(step.t_end) @ np.linalg.inv(m.superoperator(step.t_start))
            cp, lam_min = is_cp(to_choi(prop), tol=1e-10)
            assert abs(step.choi_min_eigenvalue - lam_min) <= 1e-12
            assert step.cp == cp
