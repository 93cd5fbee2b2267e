"""Command-line front end.

Every command prints deterministic, machine-readable JSON (CSV where noted)
with floats at 17 significant digits, so identical invocations are
byte-identical. Exit codes: 0 success, 1 computation-level failure (e.g. a
regime mismatch, or running out of memory), 2 usage or validation error,
which includes every non-finite number. An error prints nothing on stdout
and one ``error:`` line on stderr; a group given no command prints its help
there instead. A stdout pipe whose reader has closed it
(``paulimix regime --d 7 --n 1.1 | true``), or closes partway through a long
output, ends the command with exit 1 and nothing on stderr.

The commands are one table at the end of this module: a row per command
with its callback (whose docstring is its help) and its options, each with
a flag, a converter, a default, whether it is required, and a help text.
``main`` parses argv against that table. The token after an option is
its value even when it starts with ``-``, ``--opt=value`` is accepted, a
repeated option keeps its last value, option names are never abbreviated,
choices are case-sensitive, and ``--help`` prints to stdout and exits 0.
Floats must be finite. A missing, unknown, extra or malformed
argument exits 2, as does a group (``paulimix``, ``paulimix mub``) given no
command. ``main(args=None, prog_name=None)`` reads ``sys.argv[1:]`` when
``args`` is None, and ``main.commands`` maps each name to its row, whose
``callback`` is read when the command runs.

The CLI imports nothing outside the standard library except numpy, and each
command imports the modules it reads inside its own body, so a process
loads only what its command uses:

  * ``--help`` and a usage error: this module and ``paulimix.errors``;
  * ``regime``: ``threshold``, ``finite_field`` and ``serialization``;
  * ``measure`` and ``sweep``: ``measure`` as well, and numpy only for
    the Monte Carlo draws;
  * ``singular-time``, ``cp-check`` and ``generator``, which work on the
    d+1 eigenvalues as Python floats: ``dynmaps``, ``invertibility`` and
    ``threshold``; never numpy, ``paulimix.mub`` or ``paulimix.measure``;
  * ``evolve``: these and ``paulimix.mub``'s trace-form tables for a
    ``mub:`` or ``max-mixed`` state, which need no numpy and no basis; a
    state file adds numpy and the bases, once its weights and family are
    valid;
  * ``mub verify``: numpy, ``mub``, ``finite_field`` and ``serialization``.

The package's records are plain classes, so no command loads the stdlib
``dataclasses`` (and with it ``inspect``); only numpy brings ``inspect`` in.
An ``--output`` or ``--export`` path that cannot be opened for writing is
a usage error: exit 2, one ``error:`` line, and nothing on stdout or in a file.

Importing this module sets OPENBLAS_NUM_THREADS to 1 unless it is already
set, before any command imports numpy: up to d = 32 no command multiplies
matrices larger than 32 x 1056, and OpenBLAS would otherwise start a
spinning thread per core in every process that loads numpy. A value the
user sets is kept.

The eigenvalue commands and ``evolve`` refuse, before their work per time
starts, to compute more than ``_MAX_VALUES`` values: the d+1 eigenvalues at each of the
``--steps`` + 1 times of ``cp-check`` and the five times of a single-map
``generator``, and for ``evolve`` the eigenvalues and the d*d state entries
at each time. ``singular-time`` counts one value per ``--grid`` point, where
its scan reads p once for all d+1 eigenvalues, plus ``_ENTRY_VALUES`` for
each of its d+1 entries.
"""

from __future__ import annotations

import math
import os
import sys
from typing import TYPE_CHECKING, Optional

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import PaulimixError, RegimeMismatchError, ValidationError  # noqa: E402

if TYPE_CHECKING:
    import numpy as np

    from .dynmaps import DecoherenceFunction, MixtureMap

# the eigenvalue commands and evolve are refused beyond this many values,
# times * (values per time). One value costs 1.6 us in cp-check at d=32, and
# 11-15 us in cp-check and evolve at d=2, where the JSON of each time
# dominates; so this is 1.7-16 s of work, and 130-430 MB at the top (one
# process, 2-core VM). singular-time counts one value per grid point, as its
# scan reads p once per grid point for all d+1 eigenvalues: 2^20 - d - 1
# points took 0.5-1.1 s and 79-111 MB at d = 2 and 32, each of the three
# families. Each of its d+1 entries counts _ENTRY_VALUES = 64 values: an entry
# (bisection, closed form, JSON) took up to 50 us, 8-37 us outside the
# exponential family, with every weight singular at d = 16319 and 16384
# (median of 5, one process). So the default grid answers up to d = 16319, in
# at most 0.72 s, and refuses 16333, the next prime power
_MAX_VALUES = 1 << 20
_ENTRY_VALUES = 64


def _check_work(times: int, per_time: int, entries: int = 0) -> None:
    """Refuses a command that would compute ``per_time`` values at each of ``times`` times, and ``entries`` entries."""
    work = times * per_time + entries * _ENTRY_VALUES
    if work > _MAX_VALUES:
        more = f" and {entries} entries of {_ENTRY_VALUES} values each" if entries else ""
        raise ValidationError(
            f"{times} times of {per_time} values each{more} make {work} values, over the limit of {_MAX_VALUES}; "
            "use fewer steps, times or grid points"
        )


def _emit(text: str, output: Optional[str]) -> None:
    """Writes ``text`` and a newline, uncopied, to ``output`` or else to stdout: all command output goes here."""
    if output:
        _write_files([(text, output)])
        return
    # the newline is a write of its own: under PYTHONUNBUFFERED=1 stdout writes
    # through to the raw file, and a reader that closes partway through a long
    # text cuts that write short without an error (TextIOWrapper.write ignores
    # the short count), so the newline's write fails with EPIPE and main exits 1
    sys.stdout.write(text)
    sys.stdout.write("\n")


def _write_files(writes: list[tuple[str, str]]) -> None:
    """Writes each text to its path, once every path is open.

    A path that cannot be opened is a ValidationError that leaves every file
    as it was: the files are opened for appending, which truncates none of
    them, and one created before the failure is removed again.
    """
    opened = []  # (whether the file was there before, its handle)
    try:
        for _, path in writes:
            opened.append((os.path.lexists(path), open(path, "a")))
        for (_, fh), (text, path) in zip(opened, writes):
            with fh:
                fh.truncate(0)
                fh.write(text)
                fh.write("\n")
    except OSError as exc:
        if len(opened) < len(writes):  # an open failed, so nothing is written yet
            for existed, fh in opened:
                fh.close()
                if not existed:
                    os.remove(fh.name)
        raise ValidationError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _emit_json(payload, output: Optional[str]) -> None:
    from .serialization import dumps_canonical

    _emit(dumps_canonical(payload), output)


def _csv_float(x: float) -> str:
    return format(float(x), ".17g")


def _read_json_input(path: str, decode, what: str):
    import json

    try:
        with open(path) as fh:
            return decode(json.loads(fh.read()))
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ValidationError(f"cannot read {what} {path!r}: {exc}") from exc


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"could not parse {what} {text!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ValidationError(f"{what} must be finite numbers, got {text!r}")
    return values


def _parse_weights(text: str, d: int) -> list[float]:
    parts = _parse_floats(text, "weights")
    if len(parts) != d + 1:
        raise ValidationError(f"need {d + 1} comma-separated weights for d={d}, got {len(parts)}")
    if any(w <= 0 for w in parts):
        raise ValidationError(
            "weights must be strictly positive; replace zeros with a small epsilon (e.g. 5e-4)"
        )
    total = 0.0
    for w in parts:  # left to right: from Python 3.12 on, sum() compensates and rounds differently
        total += w
    if abs(total - 1.0) > 1e-6:
        raise ValidationError(f"weights must sum to 1 (got {total!r})")
    if abs(total - 1.0) > 1e-9:
        print(f"warning: weights sum to {total!r}; renormalizing", file=sys.stderr)
    return [x / total for x in parts]


def _build_pf(family: str, n: Optional[float], c: float, omega: float, t_sharp: float) -> DecoherenceFunction:
    """The decoherence function of the ``--family`` options; the parser has checked the name."""
    from .dynmaps import Cosine, Exponential, Plateau

    if family == "cosine":
        return Cosine(omega=omega)
    if family == "plateau":
        return Plateau(t_sharp=t_sharp)
    if n is None:
        raise ValidationError("the exponential family requires --n")
    return Exponential(n=n, c=c)


def _mixture(d: int, weights: str, family: dict) -> MixtureMap:
    """The map of ``--weights`` and the ``--family`` options, checked in that order."""
    from .dynmaps import mixture_map

    w = _parse_weights(weights, d)
    return mixture_map(d, w, _build_pf(**family))


def _map_payload(m: MixtureMap, **fields) -> dict:
    return {"d": m.d, "family": m.pf.describe(), "weights": m.weights, **fields}


def _time_grid(t_max: float, steps: int, per_time: int) -> list[float]:
    """The ``steps`` + 1 times from 0 to ``t_max``, once ``per_time`` values at each are within the limit."""
    from .dynmaps import _linspace

    if t_max < 0:
        raise ValidationError(f"--t-max must be >= 0, got {t_max}")
    if steps < 1:
        raise ValidationError(f"steps must be >= 1, got {steps}")
    _check_work(steps + 1, per_time)
    return _linspace(0.0, t_max, steps + 1)


def _rel_diff(numeric: float, analytic: float) -> float:
    return abs(numeric - analytic) / max(abs(analytic), 1e-30)


# --- regime -------------------------------------------------------------------


def regime(d: int, n: float, output: Optional[str]) -> None:
    """Classify n against the intermediate interval for dimension d."""
    from .threshold import classify_regime, weight_threshold

    payload = classify_regime(d, n).to_payload()
    payload["g"] = weight_threshold(d, n)
    _emit_json(payload, output)


# --- singular-time --------------------------------------------------------------


def singular_time(
    d: int, weights: str, t_max: Optional[float], grid: int, output: Optional[str], **family
) -> None:
    """Per-index singular times: closed form plus numeric confirmation."""
    from .invertibility import analytic_singularity_report, numeric_singularity_scan

    m = _mixture(d, weights, family)
    _check_work(grid, 1, d + 1)
    if t_max is None:
        t_max = m.pf.horizon()
    analytic = analytic_singularity_report(m)
    numeric = numeric_singularity_scan(m, t_max=t_max, grid_points=grid)
    payload = _map_payload(
        m,
        entries=[
            {
                "i": i,
                "x": x,
                "t_star_analytic": analytic.singular_times[i],
                "t_star_numeric": numeric.singular_times[i],
            }
            for i, x in enumerate(m.weights)
        ],
        classification_analytic=analytic.classification.value,
        classification_numeric=numeric.classification.value,
        warnings=numeric.warnings,
    )
    _emit_json(payload, output)


# --- measure --------------------------------------------------------------------


def measure(d: int, n: float, method: str, samples: int, seed: int, output: Optional[str]) -> None:
    """Invertible fraction of the mixing simplex for the exponential family."""
    from . import measure as measure_mod

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


def sweep_cmd(
    lo: int, hi: int, n: float, method: str, samples: int, seed: int, fmt: str, output: Optional[str]
) -> None:
    """Invertible fraction per prime-power dimension in [lo, hi] at fixed n."""
    from . import measure as measure_mod

    method_name = {"closed": "closed_form", "quadrature": "quadrature", "mc": "monte_carlo"}[method]
    rows = measure_mod.sweep(lo, hi, n, method=method_name, samples=samples, seed=seed)
    if fmt == "csv":
        lines = ["d,delta,log10_delta"]
        for row in rows:
            lines.append(f"{row.d},{_csv_float(row.delta)},{_csv_float(row.log10_delta)}")
        _emit("\n".join(lines), output)
    else:
        payload = {"n": n, "method": method_name, "rows": [r.to_payload() for r in rows]}
        _emit_json(payload, output)


# --- evolve ---------------------------------------------------------------------


def _initial_state(spec: str, d: int) -> tuple[list, Optional[range]]:
    """The ``--state`` as rows of [re, im] pairs, and the bases whose dephasing keeps it.

    ``max-mixed`` is I/d, which every basis keeps. ``mub:ALPHA:J`` is vector
    J of basis ALPHA, which basis ALPHA keeps; its entries are
    w^((k_x - k_y) mod m)/d with the integer phase row k of
    ``mub._phase_row`` (for ALPHA = 0, |J><J|). Neither imports numpy or
    builds a basis. A state file is read and validated with numpy, and no
    basis is known to keep it (None). Every refusal of the state comes here,
    before any work.
    """
    if spec == "max-mixed":
        return [[[1.0 / d if x == y else 0.0, 0.0] for y in range(d)] for x in range(d)], range(d + 1)
    if spec.startswith("mub:"):
        from .finite_field import factor_prime_power
        from .mub import _check_dimension, _phase_row

        try:
            _, alpha_s, j_s = spec.split(":")
            alpha, j = int(alpha_s), int(j_s)
        except ValueError as exc:
            raise ValidationError(f"state spec {spec!r} is not mub:ALPHA:J") from exc
        _check_dimension(d)
        if not (0 <= alpha <= d and 0 <= j < d):
            raise ValidationError(f"mub state indices out of range for d={d}: {spec!r}")
        if alpha == 0:
            rho0 = [[[1.0 if x == y == j else 0.0, 0.0] for y in range(d)] for x in range(d)]
        else:
            m, k = _phase_row(factor_prime_power(d), alpha, j)
            # w^r / d; for m = 4 the roots are exact and their zeros are +0.0
            roots = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)] if m == 4 else [
                (math.cos(2 * math.pi * r / m), math.sin(2 * math.pi * r / m)) for r in range(m)]
            roots = [(re / d, im / d) for re, im in roots]
            rho0 = [[list(roots[(kx - ky) % m]) for ky in k] for kx in k]
        return rho0, range(alpha, alpha + 1)
    from .dynmaps import validate_density_matrix
    from .serialization import complex_matrix_to_pairs, pairs_to_complex_matrix

    rho = _read_json_input(spec, pairs_to_complex_matrix, "state file")
    if rho.shape != (d, d):
        raise ValidationError(f"state has shape {rho.shape}, expected {(d, d)}")
    return complex_matrix_to_pairs(validate_density_matrix(rho)), None


def _dephased(m: MixtureMap, rho0: list, kept: Optional[range]) -> list:
    """M = sum_i x_i dephase_i(rho0), as rows of [re, im] pairs.

    Each basis in ``kept`` leaves rho0 as it is. Every other basis sends it
    to I/d, since rho0 is I/d or a vector of a basis unbiased with that one
    (Wootters & Fields, Ann. Phys. 191, 363, 1989). So M = x_kept rho0 +
    x_rest I/d, with the weights as given, in pure Python. With ``kept``
    None, M comes from the numpy products of ``MixtureMap.dephased``, whose
    last digits depend on the BLAS kernel.
    """
    if kept is None:
        from .serialization import complex_matrix_to_pairs, pairs_to_complex_matrix

        return complex_matrix_to_pairs(m.dephased(pairs_to_complex_matrix(rho0)))
    from .mub import _check_dimension

    _check_dimension(m.d)  # max-mixed builds no basis, but is refused where apply's bases are
    x_kept = x_rest = 0.0
    for i, x in enumerate(m.weights):
        if i in kept:
            x_kept += x
        else:
            x_rest += x
    rest = x_rest / m.d
    return [[[x_kept * re + (rest if r == c else 0.0), x_kept * im] for c, (re, im) in enumerate(row)]
            for r, row in enumerate(rho0)]


def evolve(
    d: int,
    weights: str,
    state: str,
    times: Optional[str],
    t_max: float,
    steps: int,
    output: Optional[str],
    **family,
) -> None:
    """Trajectory of a state under the mixture map, with the eigenvalue profile.

    M = sum_i x_i dephase_i(rho0) is formed once, and each time is then
    (1 - a) rho0 + a M with a = p(t) d/(d-1), as in MixtureMap.apply. A mub:
    or max-mixed state gets M in closed form, without numpy or a basis, so
    its bytes depend on no BLAS kernel; a state file gets M from numpy
    products, whose last digits do.
    """
    m = _mixture(d, weights, family)
    rho0, kept = _initial_state(state, d)
    if times is not None:
        ts = _parse_floats(times, "times")
        _check_work(len(ts), d * d + d + 1)
    else:
        ts = _time_grid(t_max, steps, d * d + d + 1)
    if any(t < 0 for t in ts):
        raise ValidationError("times must be nonnegative")
    mixed = _dephased(m, rho0, kept)
    states = []
    for t in ts:
        a = m.pf.value(t) * d / (d - 1)
        b = 1.0 - a
        states.append([[[b * r + a * s, b * i + a * u] for (r, i), (s, u) in zip(row0, row1)]
                       for row0, row1 in zip(rho0, mixed)])
    payload = _map_payload(m, times=ts, eigenvalues=[m.eigenvalues(t) for t in ts], states=states)
    _emit_json(payload, output)


# --- mub ------------------------------------------------------------------------


def mub_verify(
    d: Optional[int],
    tol: float,
    input_path: Optional[str],
    export: Optional[str],
    output: Optional[str],
) -> None:
    """Verify orthonormality and pairwise unbiasedness of a basis set."""
    from .finite_field import factor_prime_power
    from .mub import build_mub, mub_from_payload, verify_mub
    from .serialization import dumps_canonical

    if (d is None) == (input_path is None):
        raise ValidationError("provide exactly one of --d and --input")
    if input_path is not None:
        m = _read_json_input(input_path, mub_from_payload, "basis file")
    else:
        m = build_mub(factor_prime_power(d))
    report = dumps_canonical(verify_mub(m, tol=tol).to_payload())
    writes = [(dumps_canonical(m.to_payload()), export)] if export else []
    _write_files(writes + ([(report, output)] if output else []))
    if not output:
        _emit(report, None)


# --- cp-check -------------------------------------------------------------------


def cp_check(
    d: int, weights: str, t_max: float, steps: int, tol: float, output: Optional[str], **family
) -> None:
    """Complete positivity of the propagators between consecutive grid times."""
    from .invertibility import cp_divisibility_check

    m = _mixture(d, weights, family)
    records = cp_divisibility_check(m, _time_grid(t_max, steps, d + 1), tol=tol)
    payload = _map_payload(
        m, tol=tol, steps=[r.to_payload() for r in records], all_cp=all(r.cp for r in records)
    )
    _emit_json(payload, output)


# --- generator ------------------------------------------------------------------


def generator(
    d: int, t: float, h: Optional[float], weights: Optional[str], output: Optional[str], **family
) -> None:
    """Numeric time-local generator rates versus the analytic profile."""
    from .dynmaps import generator_rates, mixture_map
    from .finite_field import factor_prime_power

    pf = _build_pf(**family)  # before the weights, unlike the other map commands
    single = weights is None
    if single:
        factor_prime_power(d)  # d sizes the one-hot weights
        _check_work(5, d + 1)  # lambda(t) twice and the stencil's two or three times
        w = [1.0] + [0.0] * d
    else:
        w = _parse_weights(weights, d)
    if h is None:
        h = 1e-5 / pf.c if pf.family == "exponential" else 1e-5
        if not math.isfinite(h):
            raise ValidationError(f"the default step 1e-5/c overflows at c={pf.c}; pass --h")
    m = mixture_map(d, w, pf)
    numeric = generator_rates(m, t, h)
    lam = m.eigenvalues(t)
    dp = pf.derivative(t)
    entries = []
    for i in range(d + 1):
        analytic = -m.slopes[i] * dp / lam[i]
        entries.append(
            {
                "i": i,
                "x": w[i],
                "rate_numeric": numeric[i],
                "rate_analytic": analytic,
                "rel_diff": _rel_diff(numeric[i], analytic),
            }
        )
    payload = {"d": d, "family": pf.describe(), "t": t, "h": h, "rates": entries}
    if single and d == 2 and pf.family in ("exponential", "cosine"):
        gamma_analytic = pf.decay_rate(t)
        gamma_numeric = -numeric[1] / 2.0
        payload["gamma"] = {
            "analytic": gamma_analytic,
            "numeric": gamma_numeric,
            "rel_diff": _rel_diff(gamma_numeric, gamma_analytic),
        }
    numbers = [v for entry in entries for v in entry.values()] + list(payload.get("gamma", {}).values())
    if not all(map(math.isfinite, numbers)):
        scales = ", ".join(f"{k}={v}" for k, v in pf.describe().items() if isinstance(v, float))
        raise ValidationError(f"the rates overflow a float at t={t}, h={h} with {scales}")
    _emit_json(payload, output)


# --- the parser -----------------------------------------------------------------


def _finite_float(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise ValueError(f"{text!r} is not a finite number")
    return x


def _choice(*names: str):
    """A case-sensitive converter that accepts only ``names``."""

    def convert(text: str) -> str:
        if text not in names:
            raise ValueError(f"{text!r} is not one of {', '.join(names)}")
        return text

    convert.metavar = f"[{'|'.join(names)}]"
    return convert


class _Option:
    """One option row; the callback receives its converted value as ``dest``."""

    def __init__(self, flag, convert, default=None, required=False, help="", dest=None):
        self.flag, self.convert, self.default, self.required, self.help = flag, convert, default, required, help
        self.dest = dest or flag[2:].replace("-", "_")
        self.metavar = {int: "INTEGER", str: "TEXT", _finite_float: "FLOAT"}.get(convert) or convert.metavar

    def describe(self) -> tuple[str, str]:
        """The option's two columns in ``--help``."""
        note = "[required]" if self.required else "" if self.default is None else f"[default: {self.default}]"
        return f"{self.flag} {self.metavar}", "  ".join(s for s in (self.help, note) if s)


_HELP_ROW = ("--help", "Show this message and exit.")


class _Command:
    """One command row: a callback, its option rows, and the callback's docstring as help."""

    def __init__(self, callback, *options: _Option):
        self.callback, self.options, self.help = callback, options, callback.__doc__.rstrip()

    def parse(self, args: list[str], prog: str) -> Optional[dict]:
        """The callback's keyword arguments from ``args``, or None once ``--help`` is printed."""
        flags = {o.flag: o for o in self.options}
        given: dict[str, str] = {}
        extra: list[str] = []
        show_help = False
        tokens = iter(args)
        for tok in tokens:
            if tok == "--":
                extra += tokens
            elif tok[:1] != "-" or tok == "-":
                extra.append(tok)
            elif tok == "--help":
                show_help = True
            else:
                flag, eq, value = tok.partition("=")
                if flag not in flags:
                    raise ValidationError(f"no such option: {flag}")
                if not eq:
                    value = next(tokens, None)
                    if value is None:
                        raise ValidationError(f"option {flag} requires an argument")
                given[flag] = value
        if show_help:
            rows = [o.describe() for o in self.options] + [_HELP_ROW]
            _emit(_help_text(f"{prog} [OPTIONS]", self.help, [("Options:", rows)]), None)
            return None
        kwargs = {}
        for o in self.options:
            if o.flag not in given:
                if o.required:
                    raise ValidationError(f"missing option {o.flag}")
                kwargs[o.dest] = o.default
                continue
            try:
                kwargs[o.dest] = o.convert(given[o.flag])
            except ValueError as exc:
                raise ValidationError(f"invalid value for {o.flag}: {exc}") from None
        if extra:
            raise ValidationError(f"unexpected extra argument(s): {' '.join(extra)}")
        return kwargs


class _Group:
    """A table of commands; ``main(args, prog_name)`` parses ``args`` and runs the one they name."""

    def __init__(self, name: str, help: str, commands: dict):
        self.name, self.help, self.commands = name, help, commands

    def run(self, args: list[str], prog: str) -> None:
        show_help = False
        while args and args[0][:1] == "-" and args[0] != "-":
            tok, args = args[0], args[1:]
            if tok == "--":
                break
            if tok != "--help":
                raise ValidationError(f"no such option: {tok}")
            show_help = True
        if show_help or not args:
            listing = [(name, cmd.help.split("\n")[0]) for name, cmd in sorted(self.commands.items())]
            text = _help_text(f"{prog} [OPTIONS] COMMAND [ARGS]...", self.help,
                              [("Options:", [_HELP_ROW]), ("Commands:", listing)])
            if show_help:
                _emit(text, None)
                return
            print(text, file=sys.stderr)
            sys.exit(2)
        name, args = args[0], args[1:]
        cmd = self.commands.get(name)
        if cmd is None:
            raise ValidationError(f"no such command {name!r}; the commands are {', '.join(sorted(self.commands))}")
        if isinstance(cmd, _Group):
            cmd.run(args, f"{prog} {name}")
            return
        kwargs = cmd.parse(args, f"{prog} {name}")
        if kwargs is not None:
            cmd.callback(**kwargs)

    def main(self, args=None, prog_name: Optional[str] = None) -> None:
        """Runs the command ``args`` (default ``sys.argv[1:]``) name; exits 2 or 1 on an error."""
        args = sys.argv[1:] if args is None else list(args)
        try:
            self.run(args, prog_name or os.path.basename(sys.argv[0]))
            sys.stdout.flush()
        except (PaulimixError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(2 if isinstance(exc, ValidationError) else 1)
        except BrokenPipeError:  # stdout to devnull, so the flush at exit cannot fail (Python signal docs)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(1)

    __call__ = main


def _help_text(usage: str, help: str, sections: list) -> str:
    """Usage, the help text, and each section's rows in two columns."""
    lines = [f"Usage: {usage}", "", f"  {help}"]
    for title, rows in sections:
        width = min(max(len(key) for key, _ in rows), 30) + 2
        lines += ["", title]
        for key, text in rows:
            if len(key) >= width and text:  # a long key puts its text on the next line
                lines.append(f"  {key}")
                key = ""
            lines.append(f"  {key:<{width}}{text}".rstrip())
    return "\n".join(lines)


# --- the command table ------------------------------------------------------------

_OUTPUT = _Option("--output", str)
# a map command collects these as **family, the keyword arguments of _build_pf
_FAMILY = (
    _Option("--family", _choice("exponential", "cosine", "plateau"), "exponential",
            help="Decoherence profile driving every input map."),
    _Option("--n", _finite_float, help="Decoherence parameter (exponential)."),
    _Option("--c", _finite_float, 1.0, help="Decay factor (exponential)."),
    _Option("--omega", _finite_float, 1.0, help="Angular frequency (cosine)."),
    _Option("--t-sharp", _finite_float, 1.0, help="Plateau onset time."),
)
_SAMPLES_SEED = (_Option("--samples", int, 10**6), _Option("--seed", int, 0))

main = _Group("main", "Mixtures of dephasing qudit maps: invertibility, measure, evolution.", {
    "regime": _Command(
        regime,
        _Option("--d", int, required=True, help="Hilbert-space dimension (prime power)."),
        _Option("--n", _finite_float, required=True, help="Decoherence parameter."),
        _OUTPUT,
    ),
    "singular-time": _Command(
        singular_time,
        _Option("--d", int, required=True),
        *_FAMILY,
        _Option("--weights", str, required=True, help="d+1 comma-separated positive weights."),
        _Option("--t-max", _finite_float, help="Scan horizon (family-specific default)."),
        _Option("--grid", int, 4001, help="Scan grid points."),
        _OUTPUT,
    ),
    "measure": _Command(
        measure,
        _Option("--d", int, required=True),
        _Option("--n", _finite_float, required=True),
        _Option("--method", _choice("closed", "quadrature", "mc", "all"), "closed"),
        *_SAMPLES_SEED,
        _OUTPUT,
    ),
    "sweep": _Command(
        sweep_cmd,
        _Option("--lo", int, required=True),
        _Option("--hi", int, required=True),
        _Option("--n", _finite_float, required=True),
        _Option("--method", _choice("closed", "quadrature", "mc"), "closed"),
        *_SAMPLES_SEED,
        _Option("--format", _choice("csv", "json"), "csv", dest="fmt"),
        _OUTPUT,
    ),
    "evolve": _Command(
        evolve,
        _Option("--d", int, required=True),
        *_FAMILY,
        _Option("--weights", str, required=True),
        _Option("--state", str, "max-mixed", help="max-mixed | mub:ALPHA:J | path to a JSON [re, im] matrix."),
        _Option("--times", str, help="Comma-separated times (overrides --t-max/--steps)."),
        _Option("--t-max", _finite_float, 5.0),
        _Option("--steps", int, 10),
        _OUTPUT,
    ),
    "mub": _Group("mub", "Mutually unbiased basis utilities.", {
        "verify": _Command(
            mub_verify,
            _Option("--d", int, help="Dimension to construct and verify."),
            _Option("--tol", _finite_float, 1e-12),
            _Option("--input", str, help="Verify a basis-set JSON file instead of constructing.", dest="input_path"),
            _Option("--export", str, help="Write the basis set as JSON."),
            _OUTPUT,
        ),
    }),
    "cp-check": _Command(
        cp_check,
        _Option("--d", int, required=True),
        *_FAMILY,
        _Option("--weights", str, required=True),
        _Option("--t-max", _finite_float, 3.0),
        _Option("--steps", int, 30),
        _Option("--tol", _finite_float, 1e-10),
        _OUTPUT,
    ),
    "generator": _Command(
        generator,
        _Option("--d", int, required=True),
        *_FAMILY,
        _Option("--t", _finite_float, required=True),
        _Option("--h", _finite_float, help="Finite-difference step (default 1e-5/c)."),
        _Option("--weights", str, help="Omit to analyze a single input map."),
        _OUTPUT,
    ),
})


if __name__ == "__main__":
    main()
