"""Command-line front end.

Every command prints deterministic, machine-readable JSON (CSV where noted)
with floats at 17 significant digits, so identical invocations are
byte-identical. Exit codes: 0 success, 1 computation-level failure (e.g. a
regime mismatch, or running out of memory), 2 usage or validation error,
which includes every non-finite number.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path
from typing import Optional

import click
import numpy as np

from . import measure as measure_mod
from .dynmaps import (
    Cosine,
    DecoherenceFunction,
    Exponential,
    Plateau,
    decay_rate,
    generator_rates,
    mixture_map,
    validate_density_matrix,
)
from .errors import PaulimixError, RegimeMismatchError, ValidationError
from .invertibility import (
    analytic_singularity_report,
    classify_regime,
    cp_divisibility_check,
    numeric_singularity_scan,
)
from .mub import build_mub_for, cached_mub, mub_from_payload, verify_mub
from .serialization import (
    complex_matrix_to_pairs,
    dumps_canonical,
    pairs_to_complex_matrix,
)


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValidationError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except (PaulimixError, MemoryError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return wrapper


class _FiniteFloat(click.types.FloatParamType):
    """A float option that refuses nan and +-inf as a usage error."""

    def convert(self, value, param, ctx):
        x = super().convert(value, param, ctx)
        if not math.isfinite(x):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        return x


_FINITE_FLOAT = _FiniteFloat()


def _emit(text: str, output: Optional[str]) -> None:
    if output:
        Path(output).write_text(text + "\n")
    else:
        click.echo(text)


def _emit_json(payload, output: Optional[str]) -> None:
    _emit(dumps_canonical(payload), output)


def _csv_float(x: float) -> str:
    return format(float(x), ".17g")


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"could not parse {what} {text!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"{what} must be finite numbers, got {text!r}")
    return values


def _parse_weights(text: str, d: int) -> np.ndarray:
    parts = _parse_floats(text, "weights")
    if len(parts) != d + 1:
        raise ValidationError(f"need {d + 1} comma-separated weights for d={d}, got {len(parts)}")
    if any(w <= 0 for w in parts):
        raise ValidationError(
            "weights must be strictly positive; replace zeros with a small epsilon (e.g. 5e-4)"
        )
    total = sum(parts)
    if abs(total - 1.0) > 1e-6:
        raise ValidationError(f"weights must sum to 1 (got {total!r})")
    if abs(total - 1.0) > 1e-9:
        click.echo(f"warning: weights sum to {total!r}; renormalizing", err=True)
    return np.array(parts) / total


def _build_pf(
    family: str,
    n: Optional[float],
    c: float,
    omega: float,
    t_sharp: float,
) -> DecoherenceFunction:
    if family == "exponential":
        if n is None:
            raise ValidationError("the exponential family requires --n")
        return Exponential(n=n, c=c)
    if family == "cosine":
        return Cosine(omega=omega)
    if family == "plateau":
        return Plateau(t_sharp=t_sharp)
    raise ValidationError(f"unknown family {family!r}")


_FAMILY_OPTIONS = [
    click.option(
        "--family",
        type=click.Choice(["exponential", "cosine", "plateau"]),
        default="exponential",
        show_default=True,
        help="Decoherence profile driving every input map.",
    ),
    click.option("--n", "n", type=_FINITE_FLOAT, default=None, help="Decoherence parameter (exponential)."),
    click.option("--c", "c", type=_FINITE_FLOAT, default=1.0, show_default=True, help="Decay factor (exponential)."),
    click.option("--omega", type=_FINITE_FLOAT, default=1.0, show_default=True, help="Angular frequency (cosine)."),
    click.option("--t-sharp", type=_FINITE_FLOAT, default=1.0, show_default=True, help="Plateau onset time."),
]


def _family_options(fn):
    for opt in reversed(_FAMILY_OPTIONS):
        fn = opt(fn)
    return fn


@click.group()
def main() -> None:
    """Mixtures of dephasing qudit maps: invertibility, measure, evolution."""


# --- regime -------------------------------------------------------------------


@main.command()
@click.option("--d", "d", type=int, required=True, help="Hilbert-space dimension (prime power).")
@click.option("--n", "n", type=_FINITE_FLOAT, required=True, help="Decoherence parameter.")
@click.option("--output", type=click.Path(), default=None)
@_guard
def regime(d: int, n: float, output: Optional[str]) -> None:
    """Classify n against the intermediate interval for dimension d."""
    reg = classify_regime(d, n)
    payload = reg.to_payload()
    payload["g"] = measure_mod.g_threshold(d, n).g
    _emit_json(payload, output)


# --- singular-time --------------------------------------------------------------


@main.command("singular-time")
@click.option("--d", "d", type=int, required=True)
@_family_options
@click.option("--weights", required=True, help="d+1 comma-separated positive weights.")
@click.option("--t-max", type=_FINITE_FLOAT, default=None, help="Scan horizon (family-specific default).")
@click.option("--grid", type=int, default=4001, show_default=True, help="Scan grid points.")
@click.option("--output", type=click.Path(), default=None)
@_guard
def singular_time(
    d: int,
    family: str,
    n: Optional[float],
    c: float,
    omega: float,
    t_sharp: float,
    weights: str,
    t_max: Optional[float],
    grid: int,
    output: Optional[str],
) -> None:
    """Per-index singular times: closed form plus numeric confirmation."""
    w = _parse_weights(weights, d)
    pf = _build_pf(family, n, c, omega, t_sharp)
    m = mixture_map(d, w, pf)
    if t_max is None:
        if family == "exponential":
            t_max = 50.0 / c
        elif family == "cosine":
            t_max = 2 * math.pi / omega
        else:
            t_max = 100.0 * t_sharp
    analytic = analytic_singularity_report(m)
    numeric = numeric_singularity_scan(m, t_max=t_max, grid_points=grid)
    payload = {
        "d": d,
        "family": pf.describe(),
        "weights": [float(x) for x in w],
        "entries": [
            {
                "i": i,
                "x": float(w[i]),
                "t_star_analytic": analytic.singular_times[i],
                "t_star_numeric": numeric.singular_times[i],
            }
            for i in range(d + 1)
        ],
        "classification_analytic": analytic.classification.value,
        "classification_numeric": numeric.classification.value,
        "warnings": numeric.warnings,
    }
    _emit_json(payload, output)


# --- measure --------------------------------------------------------------------


@main.command("measure")
@click.option("--d", "d", type=int, required=True)
@click.option("--n", "n", type=_FINITE_FLOAT, required=True)
@click.option(
    "--method",
    type=click.Choice(["closed", "quadrature", "mc", "all"]),
    default="closed",
    show_default=True,
)
@click.option("--samples", type=int, default=10**6, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--output", type=click.Path(), default=None)
@_guard
def measure(
    d: int,
    n: float,
    method: str,
    samples: int,
    seed: int,
    output: Optional[str],
) -> None:
    """Invertible fraction of the mixing simplex for the exponential family."""
    if method == "closed":
        payload = measure_mod.delta_closed_form(d, n).to_payload()
    elif method == "quadrature":
        payload = measure_mod.delta_quadrature(d, n).to_payload()
    elif method == "mc":
        payload = measure_mod.delta_monte_carlo(d, n, samples, seed).to_payload()
    else:
        closed = measure_mod.delta_closed_form(d, n)
        try:
            quad = measure_mod.delta_quadrature(d, n).to_payload()
        except RegimeMismatchError:
            quad = None
        mc = measure_mod.delta_monte_carlo(d, n, samples, seed)
        payload = {
            "closed_form": closed.to_payload(),
            "quadrature": quad,
            "monte_carlo": mc.to_payload(),
        }
    _emit_json(payload, output)


# --- sweep ----------------------------------------------------------------------


@main.command("sweep")
@click.option("--lo", type=int, required=True)
@click.option("--hi", type=int, required=True)
@click.option("--n", "n", type=_FINITE_FLOAT, required=True)
@click.option(
    "--method",
    type=click.Choice(["closed", "quadrature", "mc"]),
    default="closed",
    show_default=True,
)
@click.option("--samples", type=int, default=10**6, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--output", type=click.Path(), default=None)
@_guard
def sweep_cmd(
    lo: int,
    hi: int,
    n: float,
    method: str,
    samples: int,
    seed: int,
    fmt: str,
    output: Optional[str],
) -> None:
    """Invertible fraction per prime-power dimension in [lo, hi] at fixed n."""
    method_name = {"closed": "closed_form", "quadrature": "quadrature", "mc": "monte_carlo"}[method]
    d_list = measure_mod.prime_powers_in(lo, hi)
    rows = measure_mod.sweep(d_list, n, method=method_name, samples=samples, seed=seed)
    if fmt == "csv":
        lines = ["d,delta,log10_delta"]
        for row in rows:
            lines.append(f"{row.d},{_csv_float(row.delta)},{_csv_float(row.log10_delta)}")
        _emit("\n".join(lines), output)
    else:
        payload = {"n": n, "method": method_name, "rows": [r.to_payload() for r in rows]}
        _emit_json(payload, output)


# --- evolve ---------------------------------------------------------------------


def _initial_state(spec: str, d: int) -> np.ndarray:
    if spec == "max-mixed":
        return np.eye(d, dtype=complex) / d
    if spec.startswith("mub:"):
        try:
            _, alpha_s, j_s = spec.split(":")
            alpha, j = int(alpha_s), int(j_s)
        except ValueError as exc:
            raise ValidationError(f"state spec {spec!r} is not mub:ALPHA:J") from exc
        bases = cached_mub(d).bases
        if not (0 <= alpha <= d and 0 <= j < d):
            raise ValidationError(f"mub state indices out of range for d={d}: {spec!r}")
        v = bases[alpha][:, j]
        return np.outer(v, v.conj())
    path = Path(spec)
    if not path.exists():
        raise ValidationError(f"state file {spec!r} not found")
    rho = pairs_to_complex_matrix(json.loads(path.read_text()))
    if rho.shape != (d, d):
        raise ValidationError(f"state has shape {rho.shape}, expected {(d, d)}")
    return validate_density_matrix(rho)


@main.command("evolve")
@click.option("--d", "d", type=int, required=True)
@_family_options
@click.option("--weights", required=True)
@click.option(
    "--state",
    default="max-mixed",
    show_default=True,
    help="max-mixed | mub:ALPHA:J | path to a JSON [re, im] matrix.",
)
@click.option("--times", default=None, help="Comma-separated times (overrides --t-max/--steps).")
@click.option("--t-max", type=_FINITE_FLOAT, default=5.0, show_default=True)
@click.option("--steps", type=int, default=10, show_default=True)
@click.option("--output", type=click.Path(), default=None)
@_guard
def evolve(
    d: int,
    family: str,
    n: Optional[float],
    c: float,
    omega: float,
    t_sharp: float,
    weights: str,
    state: str,
    times: Optional[str],
    t_max: float,
    steps: int,
    output: Optional[str],
) -> None:
    """Trajectory of a state under the mixture map, with the eigenvalue profile."""
    w = _parse_weights(weights, d)
    pf = _build_pf(family, n, c, omega, t_sharp)
    m = mixture_map(d, w, pf)
    rho0 = _initial_state(state, d)
    if times is not None:
        ts = _parse_floats(times, "times")
    else:
        if steps < 1:
            raise ValidationError(f"steps must be >= 1, got {steps}")
        ts = list(np.linspace(0.0, t_max, steps + 1))
    if any(t < 0 for t in ts):
        raise ValidationError("times must be nonnegative")
    payload = {
        "d": d,
        "family": pf.describe(),
        "weights": [float(x) for x in w],
        "times": ts,
        "eigenvalues": [[float(v) for v in m.eigenvalues(t)] for t in ts],
        "states": [complex_matrix_to_pairs(m.apply(t, rho0)) for t in ts],
    }
    _emit_json(payload, output)


# --- mub ------------------------------------------------------------------------


@main.group()
def mub() -> None:
    """Mutually unbiased basis utilities."""


@mub.command("verify")
@click.option("--d", "d", type=int, default=None, help="Dimension to construct and verify.")
@click.option("--tol", type=_FINITE_FLOAT, default=1e-12, show_default=True)
@click.option("--input", "input_path", type=click.Path(), default=None, help="Verify a basis-set JSON file instead of constructing.")
@click.option("--export", type=click.Path(), default=None, help="Write the basis set as JSON.")
@click.option("--output", type=click.Path(), default=None)
@_guard
def mub_verify(
    d: Optional[int],
    tol: float,
    input_path: Optional[str],
    export: Optional[str],
    output: Optional[str],
) -> None:
    """Verify orthonormality and pairwise unbiasedness of a basis set."""
    if input_path is not None:
        m = mub_from_payload(json.loads(Path(input_path).read_text()))
    elif d is not None:
        m = build_mub_for(d)
    else:
        raise ValidationError("provide --d or --input")
    report = verify_mub(m, tol=tol)
    if export:
        Path(export).write_text(dumps_canonical(m.to_payload()) + "\n")
    _emit_json(report.to_payload(), output)


# --- cp-check -------------------------------------------------------------------


@main.command("cp-check")
@click.option("--d", "d", type=int, required=True)
@_family_options
@click.option("--weights", required=True)
@click.option("--t-max", type=_FINITE_FLOAT, default=3.0, show_default=True)
@click.option("--steps", type=int, default=30, show_default=True)
@click.option("--tol", type=_FINITE_FLOAT, default=1e-10, show_default=True)
@click.option("--output", type=click.Path(), default=None)
@_guard
def cp_check(
    d: int,
    family: str,
    n: Optional[float],
    c: float,
    omega: float,
    t_sharp: float,
    weights: str,
    t_max: float,
    steps: int,
    tol: float,
    output: Optional[str],
) -> None:
    """Complete positivity of the propagators between consecutive grid times."""
    w = _parse_weights(weights, d)
    pf = _build_pf(family, n, c, omega, t_sharp)
    m = mixture_map(d, w, pf)
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    records = cp_divisibility_check(m, np.linspace(0.0, t_max, steps + 1), tol=tol)
    payload = {
        "d": d,
        "family": pf.describe(),
        "weights": [float(x) for x in w],
        "tol": tol,
        "steps": [r.to_payload() for r in records],
        "all_cp": all(r.cp for r in records),
    }
    _emit_json(payload, output)


# --- generator ------------------------------------------------------------------


@main.command("generator")
@click.option("--d", "d", type=int, required=True)
@_family_options
@click.option("--t", "t", type=_FINITE_FLOAT, required=True)
@click.option("--h", "h", type=_FINITE_FLOAT, default=None, help="Finite-difference step (default 1e-5/c).")
@click.option("--weights", default=None, help="Omit to analyze a single input map.")
@click.option("--output", type=click.Path(), default=None)
@_guard
def generator(
    d: int,
    family: str,
    n: Optional[float],
    c: float,
    omega: float,
    t_sharp: float,
    t: float,
    h: Optional[float],
    weights: Optional[str],
    output: Optional[str],
) -> None:
    """Numeric time-local generator rates versus the analytic profile."""
    pf = _build_pf(family, n, c, omega, t_sharp)
    single = weights is None
    if single:
        w = np.zeros(d + 1)
        w[0] = 1.0
    else:
        w = _parse_weights(weights, d)
    if h is None:
        h = 1e-5 / c if family == "exponential" else 1e-5
    m = mixture_map(d, w, pf)
    numeric = generator_rates(m, t, h)
    lam = m.eigenvalues(t)
    dp = pf.derivative(t)
    entries = []
    for i in range(d + 1):
        analytic = -(d / (d - 1)) * (1.0 - w[i]) * dp / lam[i]
        num = float(numeric[i])
        denom = max(abs(analytic), 1e-30)
        entries.append(
            {
                "i": i,
                "x": float(w[i]),
                "rate_numeric": num,
                "rate_analytic": analytic,
                "rel_diff": abs(num - analytic) / denom,
            }
        )
    payload = {
        "d": d,
        "family": pf.describe(),
        "t": t,
        "h": h,
        "rates": entries,
    }
    if single and d == 2 and family in ("exponential", "cosine"):
        gamma_analytic = decay_rate(pf, t)
        gamma_numeric = -float(numeric[1]) / 2.0
        payload["gamma"] = {
            "analytic": gamma_analytic,
            "numeric": gamma_numeric,
            "rel_diff": abs(gamma_numeric - gamma_analytic) / max(abs(gamma_analytic), 1e-30),
        }
    _emit_json(payload, output)


if __name__ == "__main__":
    main()
