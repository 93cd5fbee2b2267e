"""The Python-float eigenvalue core gives numpy's results bit for bit.

``cp-check``, ``generator`` and ``singular-time`` once computed on numpy
arrays. The functions below transcribe those array formulas, and every
payload value of the three commands must equal them with ``==``, as must
``_pairwise_sum`` and ``_linspace`` equal ``np.sum`` and ``np.linspace``.
The closed-form singular time is the exception: it now exists exactly where
x < g(d, n_sup), or x = g where p attains its sup, decided in Fraction, and
its exponential denominator is d(g - x), exact and rounded once.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from paulimix.cli import main
from paulimix.dynmaps import _linspace, _pairwise_sum
from paulimix.invertibility import _bisect_root, _refine_minimum

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32, 127, 128]


# --- the helpers ------------------------------------------------------------------


def test_pairwise_sum_is_numpy_sum_at_every_length():
    rng = np.random.default_rng(11)
    for n in range(1, 301):
        for scale in (1.0, 1e-8, 1e8):
            values = rng.standard_normal(n) * scale * 10.0 ** rng.integers(-6, 7, size=n)
            assert _pairwise_sum(list(values)) == np.sum(values), n
    assert _pairwise_sum([]) == np.sum(np.zeros(0))


def test_linspace_is_numpy_linspace():
    rng = np.random.default_rng(12)
    cases = [(0.0, 0.0, 2), (0.0, 0.0, 31), (0.0, 3.0, 2), (0.0, 3.0, 31), (0.0, 5e-324, 3), (0.0, -2.5, 7)]
    cases += [(0.0, 5e-322, 1001), (-1e-322, 1e-322, 999)]  # steps that underflow to zero
    cases += [(0.0, float(t), int(k)) for t, k in zip(rng.uniform(0, 100, 50), rng.integers(2, 5000, 50))]
    cases += [(float(a), float(b), 11) for a, b in rng.uniform(-10, 10, (20, 2))]
    for a, b, num in cases:
        assert _linspace(a, b, num) == np.linspace(a, b, num).tolist(), (a, b, num)


# --- numpy transcriptions of the array formulas --------------------------------------


def _np_weights(text):
    parts = [float(tok) for tok in text.split(",")]
    return np.array(parts) / sum(parts)


def _p(pf, t):
    if pf["family"] == "exponential":
        return (1.0 - math.exp(-pf["c"] * t)) / pf["n"]
    if pf["family"] == "cosine":
        return 0.5 * (1.0 - math.cos(pf["omega"] * t))
    return 0.5 if t >= pf["t_sharp"] else t / (2.0 * pf["t_sharp"])


def _np_eigenvalues(d, w, pf, t):
    return 1.0 - (d / (d - 1)) * (1.0 - w) * _p(pf, t)


def _np_cp_check(d, w, pf, t_max, steps):
    ts = np.linspace(0.0, t_max, steps + 1)
    lams = [_np_eigenvalues(d, w, pf, float(t)) for t in ts]
    out = []
    for t_prev, t_next, lam_prev, lam_next in zip(ts[:-1], ts[1:], lams[:-1], lams[1:]):
        mu = lam_next / lam_prev
        total = float(np.sum(mu))
        p0 = (1.0 + (d - 1) * total) / d**2
        p = (d - 1) / d**2 * (1.0 + d * mu - total)
        out.append((float(t_prev), float(t_next), d * min(p0, float(np.min(p)) / (d - 1))))
    return out


def _np_generator(d, w, pf, t, h):
    f = lambda s: _np_eigenvalues(d, w, pf, s)  # noqa: E731
    lam = f(t)
    if t - h >= 0:
        slope = (f(t + h) - f(t - h)) / (2 * h)
    else:
        slope = (-3.0 * f(t) + 4.0 * f(t + h) - f(t + 2 * h)) / (2 * h)
    numeric = slope / lam
    dp = pf["c"] * math.exp(-pf["c"] * t) / pf["n"]
    rows = []
    for i in range(d + 1):
        analytic = -(d / (d - 1)) * (1.0 - w[i]) * dp / lam[i]
        num = float(numeric[i])
        rows.append((num, analytic, abs(num - analytic) / max(abs(analytic), 1e-30)))
    return rows


def _np_scan(d, w, pf, t_max, grid_points, tol=1e-12, coarse_threshold=0.1):
    grid = np.linspace(0.0, t_max, grid_points)
    p_vals = np.array([_p(pf, t) for t in grid])
    coefs = (d / (d - 1)) * (1.0 - w)
    lam_grid = 1.0 - coefs[:, None] * p_vals[None, :]
    jump = float(np.max(np.abs(np.diff(lam_grid, axis=1))))
    times = []
    for i in range(d + 1):
        coef, lam = coefs[i], lam_grid[i]

        def f(t, coef=coef):
            return 1.0 - coef * _p(pf, t)

        root = None
        below = np.flatnonzero(lam < -tol)
        if below.size:
            j_neg = int(below[0])
            positives = np.flatnonzero(lam[:j_neg] > tol)
            j_pos = int(positives[-1]) if positives.size else 0
            root = _bisect_root(f, float(grid[j_pos]), float(grid[j_neg]))
        else:
            j = int(np.argmin(lam))
            if 0 < j < grid_points - 1 and lam[j] < min(lam[0], coarse_threshold) and lam[j - 1] > lam[j] < lam[j + 1]:
                t_min, f_min = _refine_minimum(f, float(grid[j - 1]), float(grid[j + 1]))
                if abs(f_min) <= tol:
                    root = t_min
        times.append(root)
    return times, jump


def _analytic_time(d, pf, x):
    """The closed-form singular time per family, where the exact gap g(d, n_sup) - x says one exists."""
    n_sup = {"exponential": pf.get("n"), "cosine": 1.0, "plateau": 2.0}[pf["family"]]
    gap = 1 - Fraction(n_sup) * (d - 1) / d - Fraction(x)
    if pf["family"] == "exponential":
        return math.log(d * (1.0 - x) / float(d * gap)) / pf["c"] if gap > 0 else None
    if gap < 0:
        return None
    if pf["family"] == "cosine":
        target = 1.0 - 2.0 * (d - 1) / (d * (1.0 - x))
        return math.acos(max(target, -1.0)) / pf["omega"]
    return pf["t_sharp"]


def _gamma(pf, t):
    """The single-map decay rate, as the closed forms per family computed it."""
    if pf["family"] == "exponential":
        return pf["c"] / ((pf["n"] - 2.0) * math.exp(pf["c"] * t) + 2.0)
    return 0.5 * pf["omega"] * math.tan(pf["omega"] * t)


# --- the payloads ------------------------------------------------------------------


def _run(args):
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout)


def _exp_pf(rng, d):
    lower, upper = d * d / (d * d - 1), d / (d - 1)
    return {"family": "exponential", "n": float(lower + rng.uniform(0.0, 1.2) * (upper - lower)),
            "c": float(rng.uniform(0.5, 2.0))}


def _family_args(pf):
    if pf["family"] == "exponential":
        return ["--n", repr(pf["n"]), "--c", repr(pf["c"])]
    if pf["family"] == "cosine":
        return ["--family", "cosine", "--omega", repr(pf["omega"])]
    return ["--family", "plateau", "--t-sharp", repr(pf["t_sharp"])]


def _default_t_max(pf):
    if pf["family"] == "exponential":
        return 50.0 / pf["c"]
    if pf["family"] == "cosine":
        return 2 * math.pi / pf["omega"]
    return 100.0 * pf["t_sharp"]


def _weights_text(rng, d):
    return ",".join(repr(float(x)) for x in rng.dirichlet(np.ones(d + 1)))


@pytest.mark.parametrize("d", PRIME_POWERS)
def test_cp_check_payload_is_the_numpy_formula(d):
    rng = np.random.default_rng(700 + d)
    for steps, t_max in ((30, 3.0), (7, 0.0)):
        pf = _exp_pf(rng, d)
        text = _weights_text(rng, d)
        args = ["cp-check", "--d", str(d), *_family_args(pf), "--weights", text,
                "--t-max", repr(t_max), "--steps", str(steps)]
        payload = _run(args)
        assert payload["weights"] == _np_weights(text).tolist()
        got = [(s["t_start"], s["t_end"], s["choi_min_eigenvalue"]) for s in payload["steps"]]
        assert got == _np_cp_check(d, _np_weights(text), pf, t_max, steps)


@pytest.mark.parametrize("d", PRIME_POWERS)
def test_generator_payload_is_the_numpy_formula(d):
    rng = np.random.default_rng(800 + d)
    for t in (0.0, float(rng.uniform(0.1, 2.0))):
        pf = _exp_pf(rng, d)
        # weights above the threshold keep every eigenvalue away from zero
        g = 1.0 - pf["n"] * (d - 1) / d
        raw = max(g, 0.0) + 0.1 + rng.dirichlet(np.ones(d + 1))
        text = ",".join(repr(float(x)) for x in raw / raw.sum())
        h = 1e-5 / pf["c"]
        payload = _run(["generator", "--d", str(d), *_family_args(pf), "--t", repr(t), "--weights", text])
        w = _np_weights(text)
        got = [(r["rate_numeric"], r["rate_analytic"], r["rel_diff"]) for r in payload["rates"]]
        assert got == _np_generator(d, w, pf, t, h)
        assert [r["x"] for r in payload["rates"]] == w.tolist()
    if d == 2:  # a single input map also reports its decay rate gamma
        for t in (0.0, float(rng.uniform(0.05, 0.3))):
            for pf in (_exp_pf(rng, d), {"family": "cosine", "omega": float(rng.uniform(0.5, 2.0))}):
                payload = _run(["generator", "--d", "2", *_family_args(pf), "--t", repr(t)])
                numeric = -payload["rates"][1]["rate_numeric"] / 2.0
                analytic = _gamma(pf, t)
                assert payload["gamma"] == {"analytic": analytic, "numeric": numeric,
                                            "rel_diff": abs(numeric - analytic) / max(abs(analytic), 1e-30)}
                if pf["family"] == "exponential":
                    got = [(r["rate_numeric"], r["rate_analytic"], r["rel_diff"]) for r in payload["rates"]]
                    assert got == _np_generator(d, np.array([1.0, 0.0, 0.0]), pf, t, 1e-5 / pf["c"])


@pytest.mark.parametrize("d", PRIME_POWERS)
def test_singular_time_payload_is_the_numpy_formula(d):
    rng = np.random.default_rng(900 + d)
    families = [_exp_pf(rng, d), {"family": "cosine", "omega": float(rng.uniform(0.5, 2.0))},
                {"family": "plateau", "t_sharp": float(rng.uniform(0.5, 2.0))}]
    for pf in families:
        text = _weights_text(rng, d)
        payload = _run(["singular-time", "--d", str(d), *_family_args(pf), "--weights", text])
        times, jump = _np_scan(d, _np_weights(text), pf, _default_t_max(pf), 4001)
        assert [e["t_star_numeric"] for e in payload["entries"]] == times
        w = _np_weights(text).tolist()
        assert [e["t_star_analytic"] for e in payload["entries"]] == [_analytic_time(d, pf, x) for x in w]
        assert [e["x"] for e in payload["entries"]] == _np_weights(text).tolist()
        coarse = [w for w in payload["warnings"] if w.startswith("GridTooCoarse")]
        assert coarse == ([f"GridTooCoarse: consecutive eigenvalue samples jump by up to {jump:.3g}; "
                           "double roots may be missed"] if jump > 0.1 else [])
