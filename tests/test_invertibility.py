import math
from operator import sub

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from paulimix.dynmaps import Cosine, Exponential, Plateau, _linspace, mixture_map
from paulimix.errors import SingularAtGridPointError, ValidationError
from paulimix.invertibility import (
    _COARSE_JUMP,
    Classification,
    _bisect_root,
    _build_report,
    _refine_minimum,
    analytic_singularity_report,
    cp_divisibility_check,
    numeric_singularity_scan,
    output_invertible,
)
from paulimix.measure import prime_powers_in
from paulimix.oracle import is_cp, to_choi
from paulimix.threshold import EIGENVALUE_ATOL, RegimeKind, classify_regime, weight_threshold


# --- analytic singular times -----------------------------------------------------


def test_exponential_singular_time_examples():
    # d=2, n=1, c=1, x=0: ln 2
    assert Exponential(n=1.0, c=1.0).singular_time(2, 0.0) == pytest.approx(math.log(2), abs=1e-15)
    # at or above the threshold: no finite singular time
    for d, n in [(2, 1.5), (3, 1.2), (7, 1.05)]:
        g = weight_threshold(d, n)
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
        direct = math.log(2 * (1 - x) / denom) / c if x < weight_threshold(2, n) - 1e-12 else None
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
    # x = 1: lambda = 1 for all t, and the inverse formula's d(1 - x) is never divided by
    assert Cosine(omega=1.0).singular_time(2, 1.0) is None
    assert Cosine(omega=1.0).singular_time(5, 1.0) is None
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
    assert Plateau(t_sharp=1.0).singular_time(3, 0.0) is None
    # on the plateau lambda_0 = x at d = 2: zero within 1e-12, as the generator and cp-check take it
    assert Plateau(t_sharp=1.0).singular_time(2, 5e-13) == 1.0
    assert Plateau(t_sharp=1.0).singular_time(2, 2e-12) is None


@pytest.mark.parametrize("d, x", [(2, 0.0), (2, 5e-13), (2, 2e-12), (3, 0.0)])
def test_plateau_singular_time_and_scan_agree_at_the_plateau(d, x):
    # lambda_0 holds its minimum from t_sharp on; the scan takes that held
    # minimum for a root exactly where the closed form does
    pf = Plateau(t_sharp=1.0)
    m = mixture_map(d, [x] + [(1 - x) / d] * d, pf)
    analytic = analytic_singularity_report(m).singular_times[0]
    numeric = numeric_singularity_scan(m, pf.horizon(), 4001).singular_times[0]
    assert (analytic is not None) == (numeric is not None) == (d == 2 and x < 1e-12)
    if analytic is not None:
        assert numeric == pytest.approx(analytic, abs=1e-9)


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


@pytest.mark.parametrize(
    "d, n, weights",
    [
        (2, 4 / 3, [0.9, 0.9, 0.9]),
        (2, 4 / 3, [math.inf, 0.5, 0.5]),
        (2, 4 / 3, [-0.1, 0.6, 0.5]),
        (2, 4 / 3, [1.2, -0.1, -0.1]),
        (6, 1.1, [1 / 7] * 7),
    ],
)
def test_output_invertible_refuses_what_a_mixture_map_refuses(d, n, weights):
    with pytest.raises(ValidationError) as refused:
        mixture_map(d, weights, Exponential(n=n, c=1.0))
    with pytest.raises(type(refused.value)) as also:
        output_invertible(d, n, weights)
    assert str(also.value) == str(refused.value)


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


@pytest.mark.parametrize(
    "d, n, off, invertible",
    [(2, 1.5, 8e-13, True), (32, 1.01, 9.9e-13, True), (2, 1.5, 2e-12, False)],
)
def test_every_analytic_route_shares_the_boundary_band(d, n, off, invertible):
    # a weight up to 1e-12 below g is the boundary on every analytic route;
    # the singular time once used a relative guard, finite inside that band
    g = weight_threshold(d, n)
    weights = [g - off] + [(1 - g + off) / d] * d
    pf = Exponential(n=n, c=1.0)
    t_star = pf.singular_time(d, weights[0])
    assert (t_star is None) == invertible
    if not invertible:
        assert math.isfinite(t_star) and t_star > 0
    kind = analytic_singularity_report(mixture_map(d, weights, pf)).classification
    assert kind is (Classification.INVERTIBLE if invertible else Classification.NONINVERTIBLE)
    assert output_invertible(d, n, weights) == invertible


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 16, 32])
def test_cosine_singular_time_and_scan_share_the_band_at_the_sup(d):
    # lambda_0 at the sup p = 1 is d/(d-1) (x - 1/d); the scan takes a dip to
    # within 1e-12 of 0 for a root at the half period, and the closed form agrees
    pf = Cosine(omega=1.0)
    for k in range(-9, 10):
        x = 1 / d + k * 1e-13
        m = mixture_map(d, [x] + [(1 - x) / d] * d, pf)
        analytic = analytic_singularity_report(m).singular_times[0]
        numeric = numeric_singularity_scan(m, pf.horizon(), 4001).singular_times[0]
        assert (analytic is None) == (numeric is None), k


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
        g = weight_threshold(d, n)
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


def test_mixture_refuses_a_weight_above_one():
    # within the 1e-12 tolerance of the sum, a weight above 1 would give a
    # negative slope, which the closed form refuses and the scan cannot order
    with pytest.raises(ValidationError, match=r"mixing weight must lie in \[0, 1\]"):
        mixture_map(2, [1.0000000000005, 0, 0], Exponential(1.5, 1))
    m = mixture_map(2, [1.0, 0, 0], Exponential(1.5, 1))
    assert m.slopes[0] == 0.0 and min(m.slopes) >= 0


# --- the one-pass scan against the per-index scan ------------------------------------


def _per_index_scan(m, t_max, grid_points):
    """The scan as it was before the one-pass rewrite: one list of lambda_i per index, O(grid * d)."""
    if m.pf.periodic:
        t_max = min(t_max, m.pf.horizon())
    grid = _linspace(0.0, t_max, grid_points)
    p_vals = [m.pf.value(t) for t in grid]
    jump = 0.0
    times = []
    for slope in m.slopes:
        lam = [1.0 - slope * p for p in p_vals]
        jump = max(jump, max(map(abs, map(sub, lam[1:], lam))))

        def f(t, slope=slope):
            return 1.0 - slope * m.pf.value(t)

        root = None
        low = min(lam)
        if low < -EIGENVALUE_ATOL:
            j_neg = next(j for j, v in enumerate(lam) if v < -EIGENVALUE_ATOL)
            j_pos = next((j for j in range(j_neg - 1, -1, -1) if lam[j] > EIGENVALUE_ATOL), 0)
            root = _bisect_root(f, grid[j_pos], grid[j_neg])
        else:
            j = lam.index(low)
            if 0 < j and low < min(lam[0], _COARSE_JUMP) and lam[j - 1] > low:
                if j < grid_points - 1 and low < lam[j + 1]:
                    t_min, f_min = _refine_minimum(f, grid[j - 1], grid[j + 1])
                    if abs(f_min) <= EIGENVALUE_ATOL:
                        root = t_min
                elif m.pf.attains_sup and abs(low) <= EIGENVALUE_ATOL:
                    root = _bisect_root(lambda t: (f(t) > low) - 0.5, grid[j - 1], grid[j])
        times.append(root)
    warnings = []
    if jump > _COARSE_JUMP:
        warnings.append(
            f"GridTooCoarse: consecutive eigenvalue samples jump by up to {jump:.3g}; "
            "double roots may be missed"
        )
    return _build_report(m, times, warnings)


def _assert_scans_agree(m, t_max, grid_points):
    new = numeric_singularity_scan(m, t_max, grid_points)
    ref = _per_index_scan(m, t_max, grid_points)
    assert repr(new.singular_times) == repr(ref.singular_times)
    assert repr(new.t_star) == repr(ref.t_star)
    assert new.classification is ref.classification
    assert new.warnings == ref.warnings


_FAMILIES = ["exponential", "cosine", "plateau"]


def _family_and_band(family, d, n, scale):
    """A decoherence function and the weight at which an eigenvalue of it just reaches zero."""
    if family == "exponential":
        return Exponential(n=n, c=scale), 1.0 - n * (d - 1) / d
    if family == "cosine":
        return Cosine(omega=scale), 1.0 / d
    return Plateau(t_sharp=scale), 0.0


def _weights_near(d, band, offset, at):
    """Weight band + offset (clipped to [0, 1]) at index ``at``, the rest spread evenly."""
    x = min(1.0, max(0.0, band + offset))
    w = [(1.0 - x) / d] * (d + 1)
    w[at] = x
    return w


@pytest.mark.parametrize("family", _FAMILIES)
@pytest.mark.parametrize("d", prime_powers_in(2, 32))
def test_one_pass_scan_matches_the_per_index_scan_at_every_dimension(family, d):
    pf, band = _family_and_band(family, d, n=1.0 + 0.5 / d, scale=1.3)
    weightings = [[1.0 / (d + 1)] * (d + 1), [0.0] * d + [1.0]]
    weightings += [_weights_near(d, band, offset, 0) for offset in (-1e-13, 1e-13, 1e-3)]
    for w in weightings:
        _assert_scans_agree(mixture_map(d, w, pf), pf.horizon(), 4001)


@settings(max_examples=200, deadline=None)
@given(
    family=st.sampled_from(_FAMILIES),
    d=st.sampled_from(prime_powers_in(2, 32)),
    grid_points=st.sampled_from([2, 3, 12, 4001]),
    span=st.sampled_from([1.0, 0.37, 0.7, 2.5]),
    n_frac=st.floats(0.0, 1.0),
    scale=st.floats(0.05, 50.0),
    weighting=st.sampled_from(["band", "equal", "one-hot", "ramp"]),
    offset=st.floats(-14.0, -2.0),
    sign=st.sampled_from([-1.0, 0.0, 1.0]),
    at=st.integers(0, 32),
)
# past the half period p falls again: the first crossing, and the grid minimum
# of a double root, lie before the grid's middle index
@example("cosine", 3, 4001, 0.7, 0.0, 1.0, "band", -4.0, -1.0, 0)
@example("cosine", 3, 4001, 0.7, 0.0, 1.0, "band", -13.0, 1.0, 0)
def test_one_pass_scan_matches_the_per_index_scan(
    family, d, grid_points, span, n_frac, scale, weighting, offset, sign, at
):
    n = 1.0 + n_frac / (d - 1)  # inside [1, d/(d-1)], where g lies in [0, 1/d]
    pf, band = _family_and_band(family, d, n, scale)
    at %= d + 1
    if weighting == "equal":
        w = [1.0 / (d + 1)] * (d + 1)
    elif weighting == "one-hot":
        w = [0.0] * (d + 1)
        w[at] = 1.0
    elif weighting == "ramp":  # d+1 distinct slopes, 10^offset apart
        w = [1.0 + i * 10.0**offset for i in range(d + 1)]
        w = [x / math.fsum(w) for x in w]
    else:
        w = _weights_near(d, band, sign * 10.0**offset, at)
    # t_max at, below and above the horizon; a periodic scan stops at its horizon
    _assert_scans_agree(mixture_map(d, w, pf), span * pf.horizon(), grid_points)


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
