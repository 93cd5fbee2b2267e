"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
the captured output of failures) in addition to the usual pytest verdict.
Run with ``pytest tests/test_acceptance.py -v``.
"""

import functools
import math
import time

import numpy as np
from click.testing import CliRunner

from paulimix.cli import main as cli_main
from paulimix.dynmaps import (
    Exponential,
    Cosine,
    Plateau,
    generator_rates,
    mixture_map,
)
from paulimix.invertibility import (
    Classification,
    numeric_singularity_scan,
)
from paulimix.measure import (
    delta_closed_form,
    delta_monte_carlo,
    delta_quadrature,
    g_threshold,
)
from paulimix.mub import cached_mub, verify_mub
from paulimix.oracle import KrausSet, is_cp, kraus_dagger_dual, random_density_matrix, to_choi

PRIME_POWERS_LE_32 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]


def criterion(name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {name}: FAIL")
                raise
            print(f"[acceptance] {name}: PASS")

        return wrapper

    return deco


@criterion("01 closed form / quadrature / Monte Carlo agree")
def test_01_measure_three_way_agreement():
    points = [(2, 1.5), (2, 1.9), (3, 1.2), (5, 1.1), (7, 1.03)]
    for d, n in points:
        start = time.perf_counter()
        closed = delta_closed_form(d, n).delta
        quad = delta_quadrature(d, n).delta
        mc = delta_monte_carlo(d, n, samples=10**6, seed=20260809)
        elapsed = time.perf_counter() - start
        assert abs(closed - quad) <= 1e-9, (d, n, closed, quad)
        # sigma of a binomial draw at the closed-form value; the estimator's
        # plug-in stderr collapses to 0 when no hit lands (d=7: N*delta ~ 0.004)
        stderr = math.sqrt(closed * (1 - closed) / mc.samples)
        assert abs(closed - mc.delta) <= 3 * stderr, (d, n, closed, mc.delta, stderr)
        assert elapsed < 5.0, (d, n, elapsed)


@criterion("02 boundary values are exact")
def test_02_boundary_exactness():
    for d in (2, 3, 4, 5, 7, 8, 9):
        upper = d / (d - 1)
        lower = d * d / (d * d - 1)
        assert abs(delta_closed_form(d, upper).delta - 1.0) <= 1e-12, d
        assert abs(delta_closed_form(d, lower).delta - 0.0) <= 1e-12, d


@criterion("03 dimension sweep: 14 prime powers, superexponential growth")
def test_03_dimension_sweep():
    runner = CliRunner()
    start = time.perf_counter()
    result = runner.invoke(
        cli_main, ["sweep", "--lo", "7", "--hi", "32", "--n", "1.03"], catch_exceptions=False
    )
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "d,delta,log10_delta"
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
    deltas = [float(r[1]) for r in rows]
    logs = [float(r[2]) for r in rows]
    assert all(a < b for a, b in zip(deltas, deltas[1:]))
    assert all(a < b for a, b in zip(logs, logs[1:]))
    assert abs(deltas[0] / 3.878e-9 - 1) <= 1e-3
    assert abs(deltas[-1] / 9.09e-2 - 1) <= 1e-3
    assert elapsed < 1.0, elapsed


@criterion("04 qubit closed form is (3n-4)^2/4, confirmed by Monte Carlo")
def test_04_qubit_closed_form_resolution():
    for n in np.linspace(4 / 3, 2.0, 21):
        expected = ((3 * n - 4) / 2) ** 2
        assert abs(delta_closed_form(2, float(n)).delta - expected) <= 1e-12
    mc = delta_monte_carlo(2, 1.5, samples=10**6, seed=4)
    accepted = (3 * 1.5 - 4) ** 2 / 4  # 0.0625
    rejected = (4 - 3 * 1.5) ** 2 / 8  # 0.03125
    assert abs(mc.delta - accepted) <= 3 * mc.stderr
    assert abs(mc.delta - rejected) > 3 * mc.stderr
    assert delta_closed_form(2, 2.0).delta == 1.0


@criterion("05 numeric scan matches the exponential singular-time formula")
def test_05_singular_time_agreement():
    rng = np.random.default_rng(505)
    dims = [2, 3, 5, 7]
    for trial in range(200):
        d = dims[trial % 4]
        n = float(rng.uniform(1.0, d / (d - 1)))
        c = float(rng.uniform(0.5, 2.0))
        weights = rng.dirichlet(np.ones(d + 1))
        m = mixture_map(d, weights, Exponential(n=n, c=c))
        report = numeric_singularity_scan(m, t_max=50.0 / c, grid_points=4001)
        g = g_threshold(d, n).g
        for i in range(d + 1):
            analytic = m.pf.singular_time(d, float(weights[i]))
            numeric = report.singular_times[i]
            assert (numeric is None) == (analytic is None), (d, n, c, weights[i])
            assert (numeric is None) == bool(weights[i] >= g - 1e-12)
            if numeric is not None:
                assert abs(numeric - analytic) <= 1e-9 * analytic, (d, n, c, weights[i])


@criterion("06 cosine mixtures always singular; plateau mixtures never")
def test_06_cosine_and_plateau_families():
    rng = np.random.default_rng(606)
    omega = 1.3
    for _ in range(100):
        weights = rng.dirichlet(np.ones(3))
        assert np.min(weights) <= 0.5  # three positive weights cannot all exceed 1/2
        m = mixture_map(2, weights, Cosine(omega=omega))
        report = numeric_singularity_scan(m, t_max=2 * math.pi / omega, grid_points=2001)
        assert report.classification is Classification.NONINVERTIBLE
        assert report.t_star is not None and report.t_star > 0
    t_sharp = 0.7
    for _ in range(100):
        weights = rng.dirichlet(np.ones(3))
        assert np.all(weights > 0)
        m = mixture_map(2, weights, Plateau(t_sharp=t_sharp))
        report = numeric_singularity_scan(m, t_max=100 * t_sharp, grid_points=2001)
        assert report.classification is Classification.INVERTIBLE


@criterion("07 equal mixing at n = d^2/(d^2-1) is a semigroup")
def test_07_semigroup_point():
    c = 1.0
    for d in (2, 3, 5):
        n = d * d / (d * d - 1)
        m = mixture_map(d, np.full(d + 1, 1.0 / (d + 1)), Exponential(n=n, c=c))
        times = np.linspace(0.1, 3.0, 10)
        for t in times:
            lam = np.asarray(m.eigenvalues(float(t)))
            assert np.max(np.abs(lam - math.exp(-c * t))) <= 1e-12, (d, t)
        rate_samples = np.array([generator_rates(m, float(t), h=1e-5) for t in times])
        assert np.max(np.abs(rate_samples + c)) <= 1e-6, d
        assert np.max(rate_samples.max(axis=0) - rate_samples.min(axis=0)) <= 1e-6, d


@criterion("08 MUBs verify at 1e-12; mixture outputs are valid states and CP")
def test_08_mub_and_map_validity():
    for d in PRIME_POWERS_LE_32:
        report = verify_mub(cached_mub(d), tol=1e-12)
        assert report.passed, (d, report)
    rng = np.random.default_rng(808)
    for d in (2, 3, 4, 5, 7, 8, 9):
        for _ in range(50):
            weights = rng.dirichlet(np.ones(d + 1))
            n = float(rng.uniform(1.0, 2.5))
            t = float(rng.uniform(0.0, 4.0))
            m = mixture_map(d, weights, Exponential(n=n, c=1.0))
            rho = random_density_matrix(d, rng)
            out = m.apply(t, rho)
            assert abs(np.trace(out).real - 1.0) <= 1e-12
            assert np.min(np.linalg.eigvalsh(0.5 * (out + out.conj().T))) >= -1e-10
            cp_ok, lam_min = is_cp(to_choi(m.superoperator(t)), tol=1e-10)
            assert cp_ok, (d, n, t, lam_min)


@criterion("09 dagger-dual map preserves |det|; singular maps stay singular")
def test_09_teleportation_dual_determinant():
    rng = np.random.default_rng(909)
    for d in (2, 3):
        for _ in range(25):
            count = int(rng.integers(1, d * d + 1))
            ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(count)]
            gram = sum(k.conj().T @ k for k in ops)
            w, v = np.linalg.eigh(gram)
            inv_sqrt = v @ np.diag(1.0 / np.sqrt(w)) @ v.conj().T
            ks = KrausSet([k @ inv_sqrt for k in ops])
            det = np.linalg.det(ks.to_superoperator())
            det_dual = np.linalg.det(kraus_dagger_dual(ks).kraus.to_superoperator())
            assert abs(det_dual - np.conj(det)) <= 1e-10
    # complete dephasing at p = 1/2: a noninvertible map with a noninvertible dual
    dephasing = KrausSet(
        [math.sqrt(0.5) * np.eye(2), math.sqrt(0.5) * np.diag([1.0, -1.0])]
    )
    det = np.linalg.det(dephasing.to_superoperator())
    det_dual = np.linalg.det(kraus_dagger_dual(dephasing).kraus.to_superoperator())
    assert abs(det) <= 1e-12 and abs(det_dual) <= 1e-12


@criterion("10 numeric generator reproduces the analytic decay rate")
def test_10_generator_extraction():
    c = 1.0
    h = 1e-5 / c
    for n in (2.0, 3.0):
        pf = Exponential(n=n, c=c)
        m = mixture_map(2, [1.0, 0.0, 0.0], pf)
        for t in np.linspace(0.0, 3.0 / c, 10):
            gamma = pf.decay_rate(float(t))
            rates = generator_rates(m, float(t), h=h)
            for i in (1, 2):
                assert abs(-rates[i] / 2 - gamma) <= 1e-6 * abs(gamma), (n, t, rates[i])
