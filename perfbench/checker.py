"""Output checks against references the benchmark computes itself.

Nothing here imports paulimix: every reference is an independent formula.

* eigenvalues lambda_i(t) = 1 - d/(d-1) (1 - x_i) p(t) of the mixture map;
* the CP test of the propagator with eigenvalues mu_i = lambda_i(t2)/lambda_i(t1)
  through its Pauli probabilities (Chruscinski & Siudzinska, PRA 94, 022118
  (2016)): p_0 = (1 + (d-1) sum mu)/d^2, p_i = (d-1)/d^2 (1 + d mu_i - sum mu),
  Choi lambda_min = d min(p_0, p_i/(d-1));
* the invertible fraction ((d^2(n-1) - n)/d)^d on the intermediate interval;
* closed-form singular times of the exponential and cosine families;
* for an evolved MUB state |xi_j^alpha>, the spectrum
  {lambda_alpha + (1 - lambda_alpha)/d, (1 - lambda_alpha)/d (d-1 times)}.

A check returns a list of problems; an empty list means the output is right.
"""

from __future__ import annotations

import json
import math

import numpy as np

# the acceptance gate's tolerances, where it has one
QUAD_REL = 1e-9
GENERATOR_REL = 1e-6
MUB_TOL = 1e-12
MC_SIGMAS = 5.0
CHOI_ABS = 1e-9
EXACT_REL = 1e-12
STATE_ABS = 1e-10
NUMERIC_ROOT_REL = 1e-6
SCAN_GRID = 4001


# --- references -----------------------------------------------------------------


def interval(d: int) -> tuple[float, float]:
    return d * d / (d * d - 1.0), d / (d - 1.0)


def p_of_t(pf: dict, t: float) -> float:
    fam = pf["family"]
    if fam == "exponential":
        return -math.expm1(-pf["c"] * t) / pf["n"]
    if fam == "cosine":
        return 0.5 * (1.0 - math.cos(pf["omega"] * t))
    return 0.5 if t >= pf["t_sharp"] else t / (2.0 * pf["t_sharp"])


def dp_of_t(pf: dict, t: float) -> float:
    """p'(t) for the exponential family."""
    return pf["c"] * math.exp(-pf["c"] * t) / pf["n"]


def eigenvalues(d: int, w, p: float) -> np.ndarray:
    return 1.0 - (d / (d - 1.0)) * (1.0 - np.asarray(w, dtype=float)) * p


def choi_min(d: int, mu: np.ndarray) -> float:
    s = float(np.sum(mu))
    p0 = (1.0 + (d - 1) * s) / d**2
    pi = (d - 1) / d**2 * (1.0 + d * mu - s)
    return d * min(p0, float(np.min(pi)) / (d - 1))


def delta_closed(d: int, n: float) -> float:
    lower, upper = interval(d)
    if n >= upper:
        return 1.0
    if n <= lower:
        return 0.0
    return ((d * d * (n - 1.0) - n) / d) ** d


def singular_time(d: int, pf: dict, x: float):
    fam = pf["family"]
    if fam == "exponential":
        numer = d * (1.0 - x)
        denom = numer - pf["n"] * (d - 1)
        return math.log(numer / denom) / pf["c"] if denom > 1e-12 * numer else None
    if fam == "cosine":
        if x >= 1.0:
            return None
        target = 1.0 - 2.0 * (d - 1) / (d * (1.0 - x))
        return math.acos(max(target, -1.0)) / pf["omega"] if target >= -1.0 else None
    # plateau: p <= 1/2 never reaches (d-1)/(d(1-x)) for x > 0
    return pf["t_sharp"] if (d == 2 and x == 0.0) else None


def default_t_max(pf: dict) -> float:
    fam = pf["family"]
    if fam == "exponential":
        return 50.0 / pf["c"]
    if fam == "cosine":
        return 2 * math.pi / pf["omega"]
    return 100.0 * pf["t_sharp"]


# --- helpers ----------------------------------------------------------------------


def _close(got, want, rel: float, abs_: float = 0.0) -> bool:
    return (
        isinstance(got, (int, float))
        and not isinstance(got, bool)
        and math.isfinite(got)
        and abs(got - want) <= max(rel * abs(want), abs_)
    )


def _has_nonfinite(obj) -> bool:
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, str):
        return obj in ("nan", "inf", "-inf")
    if isinstance(obj, dict):
        return any(_has_nonfinite(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_has_nonfinite(v) for v in obj)
    return False


def _pairs(obj) -> np.ndarray:
    arr = np.asarray(obj, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


# --- per-command checks -------------------------------------------------------------


def check_regime(p: dict, out: dict) -> list[str]:
    d, n = p["d"], p["n"]
    lower, upper = interval(d)
    kind = (
        "invertible_inputs" if n >= upper
        else "always_noninvertible_output" if n < lower
        else "intermediate_noninvertible"
    )
    bad = []
    if out.get("classification") != kind:
        bad.append(f"classification {out.get('classification')} != {kind}")
    iv = out.get("interval", {})
    if not (_close(iv.get("lower"), lower, EXACT_REL) and _close(iv.get("upper"), upper, EXACT_REL)):
        bad.append(f"interval {iv} != [{lower}, {upper}]")
    if not _close(out.get("g"), 1.0 - n * (d - 1) / d, EXACT_REL, 1e-15):
        bad.append(f"g {out.get('g')}")
    return bad


def check_singular_time(p: dict, out: dict) -> list[str]:
    d, pf, w = p["d"], p["pf"], p["w"]
    t_max = default_t_max(pf)
    if pf["family"] == "cosine":
        t_max = min(t_max, 2 * math.pi / pf["omega"])
    step = t_max / (SCAN_GRID - 1)
    bad = []
    entries = out.get("entries", [])
    if len(entries) != d + 1:
        return [f"{len(entries)} entries for d={d}"]
    for i, e in enumerate(entries):
        ref = singular_time(d, pf, w[i])
        ta, tn = e.get("t_star_analytic"), e.get("t_star_numeric")
        if ref is None:
            if ta is not None or tn is not None:
                bad.append(f"i={i}: expected no singular time, got {ta}, {tn}")
            continue
        if not _close(ta, ref, 1e-10):
            bad.append(f"i={i}: analytic t* {ta} != {ref}")
        if ref > t_max - 2 * step:
            # the root sits in the last grid cells or beyond the horizon
            if tn is not None and not _close(tn, ref, NUMERIC_ROOT_REL):
                bad.append(f"i={i}: numeric t* {tn} != {ref}")
        elif not _close(tn, ref, NUMERIC_ROOT_REL, 1e-9):
            bad.append(f"i={i}: numeric t* {tn} != {ref}")
    return bad


def check_measure_closed(p: dict, out: dict) -> list[str]:
    want = delta_closed(p["d"], p["n"])
    got = out.get("delta")
    return [] if _close(got, want, EXACT_REL, 1e-300) else [f"delta {got} != {want}"]


def _mc_ok(got: float, want: float, samples: int) -> bool:
    """Within MC_SIGMAS binomial sigmas of the reference, plus one count."""
    sigma = math.sqrt(want * (1.0 - want) / samples)
    return _close(got, want, 0.0, MC_SIGMAS * sigma + 1.0 / samples)


def check_measure_all(p: dict, out: dict) -> list[str]:
    d, n, samples = p["d"], p["n"], p["samples"]
    want = delta_closed(d, n)
    bad = []
    closed = (out.get("closed_form") or {}).get("delta")
    if not _close(closed, want, EXACT_REL, 1e-300):
        bad.append(f"closed_form {closed} != {want}")
    quad = (out.get("quadrature") or {}).get("delta")
    if not _close(quad, want, QUAD_REL):
        bad.append(f"quadrature {quad} != {want}")
    mc = out.get("monte_carlo") or {}
    if mc.get("samples") != samples or not _mc_ok(mc.get("delta"), want, samples):
        bad.append(f"monte_carlo {mc.get('delta')} ({mc.get('samples')} samples) vs {want}")
    return bad


def check_sweep(p: dict, text: str) -> list[str]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "d,delta,log10_delta":
        return ["missing CSV header"]
    ds = p["dims"]
    if len(lines) - 1 != len(ds):
        return [f"{len(lines) - 1} rows, expected {len(ds)}"]
    bad = []
    for d, line in zip(ds, lines[1:]):
        cells = line.split(",")
        if len(cells) != 3 or cells[0] != str(d):
            bad.append(f"row {line!r} for d={d}")
            continue
        got, log10 = float(cells[1]), float(cells[2])
        want = delta_closed(d, p["n"])
        ok = {
            "closed": _close(got, want, EXACT_REL),
            "quadrature": _close(got, want, QUAD_REL),
            "mc": _mc_ok(got, want, p["samples"]),
        }[p["method"]]
        if not ok:
            bad.append(f"d={d}: delta {got} vs {want}")
        if got > 0 and not _close(log10, math.log10(got), 1e-12):
            bad.append(f"d={d}: log10 {log10} vs {math.log10(got)}")
        if got == 0 and log10 != -math.inf:
            bad.append(f"d={d}: log10 of zero is {log10}")
    return bad


def check_cp_check(p: dict, out: dict) -> list[str]:
    d, pf, w, tol = p["d"], p["pf"], p["w"], p["tol"]
    grid = np.linspace(0.0, p["t_max"], p["steps"] + 1)
    steps = out.get("steps", [])
    if len(steps) != p["steps"]:
        return [f"{len(steps)} steps, expected {p['steps']}"]
    bad = []
    all_cp = True
    for k, s in enumerate(steps):
        t1, t2 = s.get("t_start"), s.get("t_end")
        if t1 != float(grid[k]) or t2 != float(grid[k + 1]):
            bad.append(f"step {k}: times {t1}, {t2}")
            continue
        mu = eigenvalues(d, w, p_of_t(pf, t2)) / eigenvalues(d, w, p_of_t(pf, t1))
        ref = choi_min(d, mu)
        got = s.get("choi_min_eigenvalue")
        if not _close(got, ref, 0.0, CHOI_ABS):
            bad.append(f"step {k}: choi_min {got} vs {ref}")
        # a reference within CHOI_ABS of the flag boundary accepts either flag
        if abs(ref + tol) > CHOI_ABS and s.get("cp") != (ref >= -tol):
            bad.append(f"step {k}: cp flag {s.get('cp')} vs lambda_min {ref}")
        all_cp = all_cp and bool(s.get("cp"))
    if out.get("all_cp") != all_cp:
        bad.append(f"all_cp {out.get('all_cp')} disagrees with the steps")
    return bad


def check_generator(p: dict, out: dict) -> list[str]:
    d, pf, w, t = p["d"], p["pf"], p["w"], p["t"]
    lam = eigenvalues(d, w, p_of_t(pf, t))
    dlam = -(d / (d - 1.0)) * (1.0 - np.asarray(w)) * dp_of_t(pf, t)
    ref = dlam / lam
    rates = out.get("rates", [])
    if len(rates) != d + 1:
        return [f"{len(rates)} rates for d={d}"]
    bad = []
    for i, r in enumerate(rates):
        if not _close(r.get("rate_numeric"), ref[i], GENERATOR_REL):
            bad.append(f"i={i}: rate_numeric {r.get('rate_numeric')} vs {ref[i]}")
        if not _close(r.get("rate_analytic"), ref[i], 1e-10):
            bad.append(f"i={i}: rate_analytic {r.get('rate_analytic')} vs {ref[i]}")
    return bad


def check_evolve(p: dict, out: dict) -> list[str]:
    d, pf, w = p["d"], p["pf"], p["w"]
    times = np.linspace(0.0, p["t_max"], p["steps"] + 1)
    if out.get("times") != [float(t) for t in times]:
        return [f"times {out.get('times')}"]
    eig, states = out.get("eigenvalues", []), out.get("states", [])
    if len(eig) != len(times) or len(states) != len(times):
        return ["eigenvalue or state count differs from the time grid"]
    bad = []
    for k, t in enumerate(times):
        lam = eigenvalues(d, w, p_of_t(pf, float(t)))
        if not np.allclose(np.asarray(eig[k], dtype=float), lam, rtol=EXACT_REL, atol=1e-14):
            bad.append(f"t={t}: eigenvalues differ from lambda_i(t)")
        rho = _pairs(states[k])
        if rho.shape != (d, d) or not np.all(np.isfinite(rho)):
            bad.append(f"t={t}: state not a finite {d}x{d} matrix")
            continue
        if np.max(np.abs(rho - rho.conj().T)) > STATE_ABS:
            bad.append(f"t={t}: state not Hermitian")
        if abs(np.trace(rho) - 1.0) > STATE_ABS:
            bad.append(f"t={t}: trace {np.trace(rho)}")
        spec = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        if spec[0] < -STATE_ABS:
            bad.append(f"t={t}: negative eigenvalue {spec[0]}")
        if p["state"] == "mub":
            la = lam[p["alpha"]]
            want = np.sort([(1.0 - la) / d] * (d - 1) + [la + (1.0 - la) / d])
            if np.max(np.abs(spec - want)) > STATE_ABS:
                bad.append(f"t={t}: spectrum of the evolved MUB state differs")
    return bad


def _mub_deviations(bases: np.ndarray) -> tuple[float, float]:
    d = bases.shape[1]
    ortho = max(float(np.max(np.abs(b.conj().T @ b - np.eye(d)))) for b in bases)
    unbiased = 0.0
    for a in range(len(bases)):
        for b in range(a + 1, len(bases)):
            ov = np.abs(bases[a].conj().T @ bases[b]) ** 2
            unbiased = max(unbiased, float(np.max(np.abs(ov - 1.0 / d))))
    return ortho, unbiased


def check_mub_verify(p: dict, out: dict) -> list[str]:
    bad = []
    if out.get("d") != p["d"]:
        bad.append(f"d {out.get('d')}")
    devs = (out.get("max_orthonormality_deviation"), out.get("max_unbiasedness_deviation"))
    if out.get("passed") is not True or not all(_close(x, 0.0, 0.0, MUB_TOL) for x in devs):
        bad.append(f"verification {out}")
    if "export" in p:
        with open(p["export"]) as fh:
            payload = json.load(fh)
        bases = np.stack([_pairs(b) for b in payload.get("bases", [])]) if payload.get("bases") else None
        d = p["d"]
        if payload.get("d") != d or bases is None or bases.shape != (d + 1, d, d):
            bad.append("exported basis set has the wrong shape")
        elif max(_mub_deviations(bases)) > MUB_TOL:
            bad.append(f"exported basis set is not a MUB set: {_mub_deviations(bases)}")
    return bad


CHECKS = {
    "regime": check_regime,
    "singular_time": check_singular_time,
    "measure_closed": check_measure_closed,
    "measure_all": check_measure_all,
    "cp_check": check_cp_check,
    "generator": check_generator,
    "evolve": check_evolve,
    "mub_verify": check_mub_verify,
}


def error_class(stderr: str) -> str:
    """The exception class named on the last line of a traceback, or ''."""
    lines = [ln for ln in stderr.strip().splitlines() if ln.strip()]
    if "Traceback (most recent call last)" not in stderr or not lines:
        return ""
    return lines[-1].split(":", 1)[0].rsplit(".", 1)[-1].strip()


def judge(check: str, params: dict, expect_exit: int, code: int, stdout: bytes, stderr: bytes):
    """Classify one finished operation: ("ok" | "failed" | "wrong", reason).

    "failed" is a run that produced no result (unexpected exit code, a
    traceback, a timeout); "wrong" is a result that is there but is not
    right. Both count as failed operations; only "wrong" makes the run
    incorrect.
    """
    err = stderr.decode(errors="replace")
    if code != expect_exit:
        kind = "wrong" if code == 0 and stdout.strip() else "failed"
        cls = error_class(err)
        return kind, f"exit {code} (expected {expect_exit})" + (f", {cls}" if cls else "")
    if "Traceback (most recent call last)" in err:
        return "failed", f"traceback: {error_class(err)}"
    if check == "rejected":
        if stdout.strip():
            return "wrong", "refused input printed a result"
        if not err.startswith("error:"):
            return "failed", "refusal without an 'error:' message"
        return "ok", ""
    text = stdout.decode(errors="replace")
    try:
        if check == "sweep":
            problems = check_sweep(params, text)
        else:
            out = json.loads(text)
            if not isinstance(out, dict):
                return "wrong", "stdout is not a JSON object"
            if _has_nonfinite(out):
                return "wrong", "non-finite value in the output"
            problems = CHECKS[check](params, out)
    except (ValueError, TypeError, KeyError, IndexError, AttributeError) as exc:
        return "wrong", f"malformed output: {type(exc).__name__}: {exc}"
    if problems:
        return "wrong", "; ".join(problems[:3]) + (f" (+{len(problems) - 3} more)" if len(problems) > 3 else "")
    return "ok", ""
