"""The operation lists of the three workloads, generated from the workload seed.

Every random choice (weights, n inside each dimension's interval, decay
constants, MC seeds, state files) comes from ``random.Random(seed)``, so the
same seed gives the same command lines on every machine. The program only
ever sees the generated CLI arguments.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from checker import interval as _interval

WORKLOADS = ("dense_maps", "simplex_measure", "interactive")

# every prime power the package claims, 2..32
PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32)

# cp-check steps at d=32: 30 steps there cost about 50 s of dense Choi
# eigensolves per process on the 2-core reference machine, which does not
# fit one run; d=16 keeps the full 30-step grid
DENSE_STEPS = {16: 30, 32: 4}
# inputs per command at each d: the cheap d=16 commands run on three inputs
# each, so the median operation of a pass is one of several d=16 samples
DENSE_INPUTS = {16: 3, 32: 1}


@dataclass
class Op:
    """One CLI invocation and what its output must satisfy."""

    label: str  # stable across seeds: the per-command key for medians
    argv: list[str]
    check: str  # checker name in checker.CHECKS
    params: dict = field(default_factory=dict)
    expect_exit: int = 0


def _f(x: float) -> str:
    return repr(float(x))


def _join(xs) -> str:
    return ",".join(_f(x) for x in xs)


def _dirichlet(rng: random.Random, k: int) -> list[float]:
    e = [rng.expovariate(1.0) for _ in range(k)]
    s = sum(e)
    return [x / s for x in e]


def _normalized(parts: list[float]) -> list[float]:
    """What the CLI does to parsed weights: divide by their float sum."""
    total = sum(parts)
    return [x / total for x in parts]


def _weights_above_threshold(rng: random.Random, d: int, n: float) -> list[float]:
    """Weights that all clear g(d, n) by a margin, so no time is singular."""
    g = 1.0 - n * (d - 1) / d
    floor = max(g, 0.0) + 0.1 * (1.0 / (d + 1) - max(g, 0.0))
    return [floor + (1.0 - (d + 1) * floor) * x for x in _dirichlet(rng, d + 1)]


def _cosine_weights(rng: random.Random, d: int) -> list[float]:
    """Dirichlet weights kept 1e-3 (relative) away from x = 1/d.

    At x = 1/d the cosine-family eigenvalue only touches zero (a double
    root); within a hair of it the dip is below the resolution of the
    4001-point scan grid, which the scan reports as a grid advisory rather
    than a root.
    """
    while True:
        w = _dirichlet(rng, d + 1)
        if all(abs(x * d - 1.0) > 1e-3 for x in w):
            return w


def _family_args(family: str, pf: dict) -> list[str]:
    if family == "exponential":
        return ["--family", "exponential", "--n", _f(pf["n"]), "--c", _f(pf["c"])]
    if family == "cosine":
        return ["--family", "cosine", "--omega", _f(pf["omega"])]
    return ["--family", "plateau", "--t-sharp", _f(pf["t_sharp"])]


def _exp_pf(rng: random.Random, d: int, lo_frac: float = 0.5) -> dict:
    lower, upper = _interval(d)
    n = lower + (lo_frac + (0.95 - lo_frac) * rng.random()) * (upper - lower)
    return {"family": "exponential", "n": n, "c": 0.5 + 1.5 * rng.random()}


def _mub_state(rng: random.Random, d: int) -> tuple[str, int]:
    alpha = rng.randrange(d + 1)
    return f"mub:{alpha}:{rng.randrange(d)}", alpha


# --- dense_maps -----------------------------------------------------------------


def dense_maps(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for d in (16, 32):
        for _ in range(DENSE_INPUTS[d]):
            ops += _dense_ops(rng, d)
    return ops


def _dense_ops(rng: random.Random, d: int) -> list[Op]:
    """cp-check, generator and evolve on one exponential-family input."""
    ops = []
    pf = _exp_pf(rng, d)
    w = _weights_above_threshold(rng, d, pf["n"])
    fam = _family_args("exponential", pf)
    steps, t_max = DENSE_STEPS[d], 3.0
    ops.append(Op(
        f"cp-check d={d}",
        ["cp-check", "--d", str(d), *fam, "--weights", _join(w),
         "--t-max", _f(t_max), "--steps", str(steps)],
        "cp_check",
        {"d": d, "pf": pf, "w": _normalized(w), "t_max": t_max, "steps": steps, "tol": 1e-10},
    ))
    t = 0.1 + 1.9 * rng.random()
    ops.append(Op(
        f"generator d={d}",
        ["generator", "--d", str(d), *fam, "--t", _f(t), "--weights", _join(w)],
        "generator",
        {"d": d, "pf": pf, "w": _normalized(w), "t": t},
    ))
    state, alpha = _mub_state(rng, d)
    ops.append(Op(
        f"evolve d={d}",
        ["evolve", "--d", str(d), *fam, "--weights", _join(w), "--state", state,
         "--t-max", "5.0", "--steps", "10"],
        "evolve",
        {"d": d, "pf": pf, "w": _normalized(w), "t_max": 5.0, "steps": 10,
         "state": "mub", "alpha": alpha},
    ))
    return ops


# --- simplex_measure ------------------------------------------------------------

SWEEP_LO, SWEEP_HI = 7, 32
SWEEP_DIMS = [d for d in PRIME_POWERS if SWEEP_LO <= d <= SWEEP_HI]


def sweep_interval() -> tuple[float, float]:
    """The n that lie inside every intermediate interval for d in [7, 32]."""
    return max(_interval(d)[0] for d in SWEEP_DIMS), min(_interval(d)[1] for d in SWEEP_DIMS)


def simplex_measure(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    for d in (7, 9, 11, 13):
        lower, upper = _interval(d)
        # upper part of the interval, where delta is large enough for MC
        n = lower + (0.6 + 0.35 * rng.random()) * (upper - lower)
        seed = rng.randrange(2**31)
        ops.append(Op(
            f"measure all d={d}",
            ["measure", "--d", str(d), "--n", _f(n), "--method", "all", "--seed", str(seed)],
            "measure_all",
            {"d": d, "n": n, "samples": 10**6},
        ))
    lo, hi = sweep_interval()
    for method in ("closed", "quadrature", "mc"):
        n = lo + (0.05 + 0.9 * rng.random()) * (hi - lo)
        seed = rng.randrange(2**31)
        ops.append(Op(
            f"sweep {method}",
            ["sweep", "--lo", str(SWEEP_LO), "--hi", str(SWEEP_HI), "--n", _f(n),
             "--method", method, "--seed", str(seed)],
            "sweep",
            {"n": n, "method": method, "samples": 10**6, "dims": SWEEP_DIMS},
        ))
    return ops


# --- interactive ----------------------------------------------------------------


def _random_state_file(rng: random.Random, d: int, path: Path) -> None:
    """A full-rank Ginibre state written as the CLI's [re, im] JSON."""
    g = [[complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(d)] for _ in range(d)]
    rho = [[sum(g[i][k] * g[j][k].conjugate() for k in range(d)) for j in range(d)] for i in range(d)]
    tr = sum(rho[i][i].real for i in range(d))
    rho = [[0.5 * (rho[i][j] + rho[j][i].conjugate()) / tr for j in range(d)] for i in range(d)]
    path.write_text(json.dumps([[[z.real, z.imag] for z in row] for row in rho]))


def interactive(rng: random.Random, workdir: Path) -> list[Op]:
    ops = []
    # regime: two dimensions, one n in each of the three regimes
    for d in rng.sample([d for d in PRIME_POWERS if d > 2], 2):
        lower, upper = _interval(d)
        for n in (1.0 + (lower - 1.0) * rng.random(),
                  lower + (upper - lower) * rng.random(),
                  upper + rng.random()):
            ops.append(Op(f"regime d={d}", ["regime", "--d", str(d), "--n", _f(n)],
                          "regime", {"d": d, "n": n}))
    # singular-time: each family at d in {2, 7, 16, 32}
    for family in ("exponential", "cosine", "plateau"):
        for d in (2, 7, 16, 32):
            if family == "exponential":
                pf = _exp_pf(rng, d, lo_frac=0.0)
                w = _dirichlet(rng, d + 1)
            elif family == "cosine":
                pf = {"family": "cosine", "omega": 0.5 + 1.5 * rng.random()}
                w = _cosine_weights(rng, d)
            else:
                pf = {"family": "plateau", "t_sharp": 0.5 + 1.5 * rng.random()}
                w = _dirichlet(rng, d + 1)
            ops.append(Op(
                f"singular-time {family} d={d}",
                ["singular-time", "--d", str(d), *_family_args(family, pf), "--weights", _join(w)],
                "singular_time",
                {"d": d, "pf": pf, "w": _normalized(w)},
            ))
    for d in PRIME_POWERS:
        ops.append(Op(f"mub verify d={d}", ["mub", "verify", "--d", str(d)], "mub_verify", {"d": d}))
    export = workdir / "mub27.json"
    ops.append(Op("mub verify export d=27",
                  ["mub", "verify", "--d", "27", "--export", str(export)],
                  "mub_verify", {"d": 27, "export": str(export)}))
    ops.append(Op("mub verify input d=27", ["mub", "verify", "--input", str(export)],
                  "mub_verify", {"d": 27}))
    for d, inside in ((rng.choice([7, 9, 11, 13]), True), (rng.choice([5, 8, 16]), False)):
        lower, upper = _interval(d)
        n = lower + (upper - lower) * rng.random() if inside else upper + rng.random()
        ops.append(Op(f"measure closed d={d}",
                      ["measure", "--d", str(d), "--n", _f(n), "--method", "closed"],
                      "measure_closed", {"d": d, "n": n}))
    for d, state_kind in ((2, "mub"), (3, "file")):
        pf = _exp_pf(rng, d, lo_frac=0.0)
        w = _weights_above_threshold(rng, d, pf["n"])
        params = {"d": d, "pf": pf, "w": _normalized(w), "t_max": 5.0, "steps": 10, "state": state_kind}
        if state_kind == "mub":
            state, params["alpha"] = _mub_state(rng, d)
        else:
            path = workdir / f"state{d}.json"
            _random_state_file(rng, d, path)
            state = str(path)
        ops.append(Op(f"evolve d={d}",
                      ["evolve", "--d", str(d), *_family_args("exponential", pf),
                       "--weights", _join(w), "--state", state],
                      "evolve", params))
    # documented refusals: usage errors exit 2, regime mismatches exit 1
    lo, hi = sweep_interval()
    ops += [
        Op("reject regime d=6", ["regime", "--d", "6", "--n", _f(1.0 + rng.random())],
           "rejected", expect_exit=2),
        Op("reject measure d=12", ["measure", "--d", "12", "--n", _f(1.0 + rng.random())],
           "rejected", expect_exit=2),
        Op("reject sweep n outside",
           ["sweep", "--lo", str(SWEEP_LO), "--hi", str(SWEEP_HI), "--n", _f(hi + 0.1 + rng.random())],
           "rejected", expect_exit=1),
        Op("reject evolve weight count",
           ["evolve", "--d", "3", "--n", "2.0", "--weights", _join(_dirichlet(rng, 3))],
           "rejected", expect_exit=2),
    ]
    return ops


GENERATORS = {"dense_maps": dense_maps, "simplex_measure": simplex_measure, "interactive": interactive}


def make_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The workload's operation list for this seed; writes its input files."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), workdir)


def warmup_op(workload: str, seed: int) -> Op:
    """The untimed invocation that ends set-up: a light command that loads the CLI."""
    rng = random.Random(f"warmup:{workload}:{seed}")
    d = rng.choice(PRIME_POWERS)
    n = 1.0 + rng.random()
    return Op("warmup regime", ["regime", "--d", str(d), "--n", _f(n)], "regime", {"d": d, "n": n})

