import hashlib
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from paulimix import cli as cli_mod
from paulimix import dynmaps, invertibility, serialization
from paulimix import measure as measure_mod
from paulimix import mub as mub_mod
from paulimix.cli import main
from paulimix.finite_field import is_prime_power
from paulimix.oracle import random_density_matrix
from paulimix.serialization import complex_matrix_to_pairs, pairs_to_complex_matrix

ROOT = Path(__file__).resolve().parents[1]
SRC = str(ROOT / "src")


@pytest.fixture()
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.stdout)


# --- regime ---------------------------------------------------------------------


def test_regime_intermediate(runner):
    payload = run_ok(runner, ["regime", "--d", "7", "--n", "1.03"])
    assert payload["classification"] == "intermediate_noninvertible"
    assert payload["interval"]["lower"] == pytest.approx(49 / 48)
    assert payload["interval"]["upper"] == pytest.approx(7 / 6)


def test_regime_invertible_inputs(runner):
    payload = run_ok(runner, ["regime", "--d", "2", "--n", "3"])
    assert payload["classification"] == "invertible_inputs"


def test_regime_non_prime_power_exits_2(runner):
    result = runner.invoke(main, ["regime", "--d", "6", "--n", "1.1"])
    assert result.exit_code == 2
    assert "prime power" in result.stderr


@pytest.mark.parametrize("d", ["2147483647", str(2147483647**2), str(2**89 - 1)])
def test_regime_large_dimension_answers_or_refuses_promptly(runner, d):
    start = time.perf_counter()
    result = runner.invoke(main, ["regime", "--d", d, "--n", "1.5"])
    assert time.perf_counter() - start < 2.0
    assert result.exit_code in (0, 1, 2), result.output
    assert isinstance(result.exception, (SystemExit, type(None)))
    assert "Traceback" not in result.output


def test_n_1_lies_below_the_interval_at_every_large_dimension(runner):
    # d^2/(d^2-1) and d/(d-1) round to 1 in floats from d = 94906266 and about 9e15
    payload = run_ok(runner, ["regime", "--d", "100000007", "--n", "1"])
    assert payload["classification"] == "always_noninvertible_output"
    assert payload["interval"]["lower"] > 1
    assert run_ok(runner, ["measure", "--d", "10000000000000061", "--n", "1"])["delta"] == 0
    result = runner.invoke(main, ["sweep", "--lo", "10000000000000000", "--hi", "10000000000001000", "--n", "1"])
    assert (result.exit_code, result.stdout) == (1, "")
    assert "d=10000000000000061 needs n in [1.0000000000000002, 1.0000000000000002]" in result.stderr


@pytest.mark.parametrize(
    "d, n, g",
    [
        # 1/d, where 1.0 - n * (d - 1) / d kept 9.9999992730914755e-09
        ("100000007", "1", "9.9999993000000496e-09"),
        ("1000000000039", "1", "9.9999999996099991e-13"),
        # -3n/4, where the float product n * (d - 1) overflowed to inf
        ("4", "1e308", "-7.5000000000000001e+307"),
    ],
)
def test_regime_prints_g_exact_for_the_float_n(runner, d, n, g):
    result = runner.invoke(main, ["regime", "--d", d, "--n", n])
    assert result.exit_code == 0, result.output
    assert result.stdout.endswith(f'"g": {g}}}\n')


# --- singular-time --------------------------------------------------------------


def test_singular_time_exponential_table(runner):
    payload = run_ok(
        runner,
        ["singular-time", "--d", "2", "--family", "exponential", "--n", "1",
         "--c", "1", "--weights", "0.2,0.3,0.5"],
    )
    entries = payload["entries"]
    for entry in entries[:2]:
        x = entry["x"]
        expected = math.log(2 * (1 - x) / (2 * (1 - x) - 1))
        assert entry["t_star_analytic"] == pytest.approx(expected, rel=1e-12)
        assert entry["t_star_numeric"] == pytest.approx(expected, rel=1e-9)
    # x = 0.5 sits exactly on the threshold: no finite singular time
    assert entries[2]["t_star_analytic"] is None
    assert entries[2]["t_star_numeric"] is None


def test_singular_time_cosine_table(runner):
    payload = run_ok(
        runner,
        ["singular-time", "--d", "2", "--family", "cosine", "--omega", "1",
         "--weights", "0.6,0.2,0.2"],
    )
    entries = payload["entries"]
    assert entries[0]["t_star_analytic"] is None
    for entry in entries[1:]:
        assert entry["t_star_analytic"] is not None
        assert entry["t_star_numeric"] == pytest.approx(entry["t_star_analytic"], rel=1e-9)
    assert payload["classification_numeric"] == "noninvertible"


def test_singular_time_plateau_all_none(runner):
    payload = run_ok(
        runner,
        ["singular-time", "--d", "2", "--family", "plateau", "--t-sharp", "1.0",
         "--weights", "0.5,0.3,0.2"],
    )
    for entry in payload["entries"]:
        assert entry["t_star_analytic"] is None
        assert entry["t_star_numeric"] is None
    assert payload["classification_analytic"] == "invertible"


# each family scale overflows a float in the command's horizon, singular time,
# default step or rates: (argv, the parameter the refusal names)
_OVERFLOWING_SCALES = {
    "singular-time-horizon": (["singular-time", "--d", "2", "--n", "1.5", "--c", "1e-320",
                               "--weights", "0.1,0.45,0.45"], "c=1e-320"),
    "singular-time-analytic": (["singular-time", "--d", "2", "--n", "1.5", "--c", "1e-320",
                                "--weights", "0.1,0.45,0.45", "--t-max", "10"], "c=1e-320"),
    "singular-time-period": (["singular-time", "--d", "2", "--family", "cosine", "--omega", "1e-320",
                              "--weights", "0.1,0.45,0.45"], "omega=1e-320"),
    "singular-time-plateau": (["singular-time", "--d", "2", "--family", "plateau", "--t-sharp", "1e307",
                               "--weights", "0.1,0.45,0.45"], "t_sharp=1e+307"),
    "generator-step": (["generator", "--d", "2", "--n", "1.5", "--c", "1e-320", "--t", "1"], "c=1e-320"),
    "generator-rate-c": (["generator", "--d", "2", "--n", "1", "--c", "1.7e308", "--t", "0"], "c=1.7e+308"),
    "generator-step-omega": (["generator", "--d", "2", "--family", "cosine", "--omega", "1e-320", "--t", "1"],
                             "omega=1e-320"),
    # 1e-5 * t_sharp underflows to 0
    "generator-step-t-sharp": (["generator", "--d", "2", "--family", "plateau", "--t-sharp", "1e-320", "--t", "1"],
                               "t_sharp=1e-320"),
    # the default step 1e-5/omega would be below the float spacing at t
    "generator-rate-omega": (["generator", "--d", "2", "--family", "cosine", "--omega", "1e308", "--t", "0.5",
                              "--h", "1e-5"], "omega=1e+308"),
    # p'(t) underflows to 0 first, so only e^(c t) in the single map's decay rate overflows
    "generator-decay-rate": (["generator", "--d", "2", "--n", "3", "--c", "1", "--t", "800"], "t=800.0"),
}


@pytest.mark.parametrize("args, named", _OVERFLOWING_SCALES.values(), ids=_OVERFLOWING_SCALES.keys())
def test_an_overflowing_family_scale_is_refused(runner, args, named):
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2, result.output
    assert named in result.stderr and "nan" not in result.stderr
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
    assert result.stdout == ""


@pytest.mark.parametrize("family", [["--n", "1.5", "--c", "1e-320"], ["--family", "cosine", "--omega", "1e-320"]],
                         ids=["exponential", "cosine"])
@pytest.mark.parametrize("command", ["cp-check", "evolve"])
def test_a_tiny_family_scale_still_evolves(runner, command, family):
    payload = run_ok(runner, [command, "--d", "2", *family, "--weights", "0.1,0.45,0.45"])
    assert payload["family"]["family"] == ("cosine" if "cosine" in family else "exponential")


# --- measure --------------------------------------------------------------------


def test_measure_all_three_way(runner):
    payload = run_ok(
        runner,
        ["measure", "--d", "2", "--n", "1.5", "--method", "all",
         "--samples", "200000", "--seed", "11"],
    )
    assert payload["closed_form"]["delta"] == pytest.approx(0.0625, abs=1e-15)
    assert payload["quadrature"]["delta"] == pytest.approx(0.0625, abs=1e-10)
    mc = payload["monte_carlo"]
    assert abs(mc["delta"] - 0.0625) <= 3 * mc["stderr"]


def test_measure_closed_examples(runner):
    assert run_ok(runner, ["measure", "--d", "3", "--n", "1.2"])["delta"] == pytest.approx(0.008)
    assert run_ok(runner, ["measure", "--d", "2", "--n", "2"])["delta"] == 1.0


def test_measure_quadrature_out_of_regime_exits_1(runner):
    result = runner.invoke(main, ["measure", "--d", "3", "--n", "1.1", "--method", "quadrature"])
    assert result.exit_code == 1
    assert "intermediate" in result.stderr


@pytest.mark.parametrize(
    "args, limit",
    [
        (["--d", "1000003", "--n", "1.0000001", "--method", "all", "--samples", "10"],
         measure_mod._QUADRATURE_MAX_D),
        (["--d", "211", "--n", "1.004", "--method", "quadrature"], measure_mod._QUADRATURE_MAX_D),
        (["--d", "65537", "--n", "1.00001", "--method", "mc"], measure_mod._MC_MAX_VALUES),
        (["--d", "7", "--n", "1.15", "--method", "mc", "--samples", str(10**9)], measure_mod._MC_MAX_VALUES),
    ],
    ids=["all-d-1000003", "quadrature-d-211", "mc-d-65537", "mc-samples"],
)
def test_measure_refuses_work_beyond_its_limit_at_once(runner, args, limit):
    start = time.perf_counter()
    result = runner.invoke(main, ["measure", *args])
    assert time.perf_counter() - start < 3.0
    assert result.exit_code == 2, result.output
    assert str(limit) in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("method", ["mc", "all"])
def test_measure_refuses_a_non_prime_power(runner, method):
    result = runner.invoke(main, ["measure", "--d", "6", "--n", "1.3", "--method", method, "--samples", "1000"])
    assert result.exit_code == 2, result.output
    assert "6 is not a prime power" in result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize(
    "args, limit",
    [
        (["sweep", "--lo", "101", "--hi", "9973", "--n", "1.0001", "--method", "mc", "--samples", "100000"],
         measure_mod._MC_MAX_REDUCED),
        (["measure", "--d", "500000003", "--n", "1.5", "--method", "mc", "--samples", "2"], measure_mod._MC_MAX_D),
    ],
    ids=["sweep-101-9973", "mc-d-500000003"],
)
def test_monte_carlo_refuses_work_and_memory_beyond_its_limits_at_once(runner, monkeypatch, args, limit):
    def no_draw(*args, **kwargs):
        raise AssertionError("a draw started before validation")

    monkeypatch.setattr(measure_mod, "_mc_hits", no_draw)
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 3.0
    assert result.exit_code == 2, result.output
    assert str(limit) in result.stderr
    assert result.stdout == ""
    # again under tracemalloc, which slows the range enumeration too much to time
    tracemalloc.start()
    try:
        again = runner.invoke(main, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again.stderr == result.stderr
    assert peak < 2**20  # bytes: the refusal allocates no buffer


# one call per command whose work is over the limit: (argv, the function doing the work)
_OVER_THE_WORK_LIMIT = {
    "cp-check-steps": (["cp-check", "--d", "2", "--n", "1.5", "--weights", "0.5,0.3,0.2", "--steps", "1000000"],
                       (invertibility, "cp_divisibility_check")),
    "singular-time-grid": (["singular-time", "--d", "32", "--n", "1.03", "--weights", ",".join([repr(1 / 33)] * 33),
                            "--grid", "1048576"], (invertibility, "numeric_singularity_scan")),
    "evolve-steps": (["evolve", "--d", "32", "--n", "1.03", "--weights", ",".join([repr(1 / 33)] * 33),
                      "--steps", "1000"], (dynmaps.MixtureMap, "apply")),
    "evolve-times": (["evolve", "--d", "2", "--n", "1.5", "--weights", "0.5,0.3,0.2",
                      "--times", ",".join(["1.0"] * 150000)], (dynmaps.MixtureMap, "apply")),
    "generator-d": (["generator", "--d", "1000003", "--n", "1.5", "--t", "0.5"], (dynmaps, "generator_rates")),
}


@pytest.mark.parametrize("args, worker", _OVER_THE_WORK_LIMIT.values(), ids=_OVER_THE_WORK_LIMIT.keys())
def test_map_commands_refuse_work_beyond_their_limit_at_once(runner, monkeypatch, args, worker):
    def no_work(*args, **kwargs):
        raise AssertionError("the work started before the refusal")

    monkeypatch.setattr(*worker, no_work)
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 3.0
    assert result.exit_code == 2, result.output
    assert f"over the limit of {cli_mod._MAX_VALUES}" in result.stderr
    assert result.stdout == ""
    if args[0] == "generator":  # the one-hot weights of a large d are never built
        tracemalloc.start()
        try:
            runner.invoke(main, args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_map_commands_answer_up_to_their_limit(runner):
    # singular-time counts one value per grid point and _ENTRY_VALUES per entry, whatever d
    weights = ",".join([repr(1 / 258)] * 258)
    payload = run_ok(runner, ["singular-time", "--d", "257", "--n", "1.004", "--weights", weights])
    assert len(payload["entries"]) == 258
    for d, grid in ((2, 349526), (32, 31776)):  # grid * (d + 1) is over the limit, grid and the entries are not
        args = ["singular-time", "--d", str(d), "--n", "1.03", "--weights", ",".join([repr(1 / (d + 1))] * (d + 1))]
        assert runner.invoke(main, args + ["--grid", str(grid)]).exit_code == 0
    grid = cli_mod._MAX_VALUES - 3 * cli_mod._ENTRY_VALUES  # the grid and 3 entries at d = 2
    args = ["singular-time", "--d", "2", "--n", "1.5", "--weights", "0.5,0.3,0.2", "--grid"]
    assert runner.invoke(main, args + [str(grid)]).exit_code == 0
    assert runner.invoke(main, args + [str(grid + 1)]).exit_code == 2


def test_singular_time_default_grid_answers_up_to_its_edge(runner, monkeypatch):
    # 4001 grid points and _ENTRY_VALUES per entry fit d = 16319, not the next prime power 16333
    assert [d for d in range(16319, 16334) if is_prime_power(d)] == [16319, 16333]
    assert 4001 + cli_mod._ENTRY_VALUES * 16320 <= cli_mod._MAX_VALUES < 4001 + cli_mod._ENTRY_VALUES * 16334

    def run(d):
        weights = ",".join([repr(1 / (d + 1))] * (d + 1))
        return runner.invoke(main, ["singular-time", "--d", str(d), "--n", "1.00001", "--weights", weights])

    assert len(json.loads(run(16319).stdout)["entries"]) == 16320

    def no_p(*args, **kwargs):
        raise AssertionError("p(t) was read before the refusal")

    monkeypatch.setattr(dynmaps.DecoherenceFunction, "value", no_p)
    monkeypatch.setattr(invertibility, "numeric_singularity_scan", no_p)
    result = run(16333)
    assert result.exit_code == 2, result.output
    assert f"16334 entries of {cli_mod._ENTRY_VALUES} values each" in result.stderr
    assert f"over the limit of {cli_mod._MAX_VALUES}" in result.stderr
    assert result.stdout == ""


def test_sweep_refuses_a_range_wider_than_its_limit(runner):
    width = measure_mod._SWEEP_MAX_WIDTH
    start = time.perf_counter()
    # n = 1 + 1e-13 lies in the interval of every d in [1e8, 1e9], so the regime lets the range through
    result = runner.invoke(main, ["sweep", "--lo", "100000000", "--hi", "1000000000", "--n", "1.0000000000001"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert f"limited to {width} integers" in result.stderr
    assert result.stdout == ""
    # n = 1 + 1e-6 lies in the interval of every d in [1000, 1e6]
    result = runner.invoke(main, ["sweep", "--lo", "1000", "--hi", "1000000", "--n", "1.00000100001"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert len(lines) == 1 + len(measure_mod.prime_powers_in(1000, 1000000))
    assert lines[1].startswith("1009,") and lines[-1].startswith("999983,")


def test_quadrature_sweep_refuses_before_its_first_row(runner, monkeypatch):
    def no_row(*args, **kwargs):
        raise AssertionError("a row was computed before the refusal")

    monkeypatch.setattr(measure_mod, "_nested_simplex_integral", no_row)
    start = time.perf_counter()
    # n = 121/120 lies in the interval of every d in [11, 121]
    args = ["sweep", "--lo", "11", "--hi", "121", "--n", "1.0083333333333333", "--method", "quadrature"]
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2, result.output
    assert f"limited to d <= {measure_mod._QUADRATURE_MAX_D}, got d=103" in result.stderr
    assert result.stdout == ""


# --- sweep ----------------------------------------------------------------------


def test_sweep_csv_shape_and_monotonicity(runner):
    result = runner.invoke(main, ["sweep", "--lo", "7", "--hi", "32", "--n", "1.03"])
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "d,delta,log10_delta"
    assert len(lines) == 15
    rows = [line.split(",") for line in lines[1:]]
    assert [int(r[0]) for r in rows] == [7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29, 31, 32]
    deltas = [float(r[1]) for r in rows]
    logs = [float(r[2]) for r in rows]
    assert all(a < b for a, b in zip(deltas, deltas[1:]))
    assert all(a < b for a, b in zip(logs, logs[1:]))
    assert deltas[0] == pytest.approx(3.878e-9, rel=1e-3)
    assert deltas[-1] == pytest.approx(9.09e-2, rel=1e-3)


def test_a_sweep_row_whose_delta_underflows_prints_a_finite_log(runner):
    result = runner.invoke(main, ["sweep", "--lo", "1000", "--hi", "1024", "--n", "1.000002"])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[:2] == ["d,delta,log10_delta", "1009,0,-3015.3605225663841"]


def test_sweep_json_format(runner):
    payload = run_ok(runner, ["sweep", "--lo", "7", "--hi", "9", "--n", "1.05", "--format", "json"])
    assert [row["d"] for row in payload["rows"]] == [7, 8, 9]


def test_sweep_regime_mismatch_exits_1(runner):
    result = runner.invoke(main, ["sweep", "--lo", "2", "--hi", "3", "--n", "1.03"])
    assert result.exit_code == 1
    assert "d=2" in result.stderr and "d=3" in result.stderr


def test_sweep_refuses_a_long_range_at_once(runner):
    start = time.perf_counter()
    result = runner.invoke(main, ["sweep", "--lo", "2", "--hi", "1000000", "--n", "1.5"])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 1
    assert result.stdout == ""
    assert len(result.stderr.encode()) < 1024
    assert "d=4 needs n in [1.06667, 1.33333]" in result.stderr
    assert result.stderr.endswith("and every other prime power in [17, 999983]\n")


@pytest.mark.parametrize("bad", [["--samples", "0"], ["--seed", "-1"]])
def test_sweep_mc_bad_samples_or_seed_exits_2(runner, bad):
    args = ["sweep", "--lo", "7", "--hi", "32", "--n", "1.03", "--method", "mc"]
    result = runner.invoke(main, args + bad)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stdout == ""


def test_sweep_single_dimension_near_upper_boundary(runner):
    result = runner.invoke(main, ["sweep", "--lo", "7", "--hi", "7", "--n", "1.1666"])
    lines = result.stdout.strip().splitlines()
    assert len(lines) == 2
    assert float(lines[1].split(",")[1]) == pytest.approx(0.9968, rel=1e-3)


def test_sweep_writes_output_file(runner, tmp_path):
    out = tmp_path / "rows.csv"
    result = runner.invoke(main, ["sweep", "--lo", "7", "--hi", "8", "--n", "1.05", "--output", str(out)])
    assert result.exit_code == 0
    assert out.read_text().startswith("d,delta,log10_delta\n7,")


# --- evolve ---------------------------------------------------------------------


def test_evolve_max_mixed_is_constant(runner):
    payload = run_ok(
        runner,
        ["evolve", "--d", "3", "--n", "1.2", "--weights", "0.4,0.3,0.2,0.1",
         "--state", "max-mixed", "--times", "0,0.5,2.0"],
    )
    for state in payload["states"]:
        rho = pairs_to_complex_matrix(state)
        assert np.max(np.abs(rho - np.eye(3) / 3)) < 1e-12


def test_evolve_reads_state_file_and_contracts_bloch(runner, tmp_path):
    rho0 = random_density_matrix(2, np.random.default_rng(0))
    state_file = tmp_path / "rho.json"
    state_file.write_text(json.dumps(complex_matrix_to_pairs(rho0)))
    third = "0.3333333333333333"
    payload = run_ok(
        runner,
        ["evolve", "--d", "2", "--n", str(4 / 3), "--c", "1",
         "--weights", ",".join([third] * 3),
         "--state", str(state_file), "--times", "0,1,2"],
    )
    states = [pairs_to_complex_matrix(s) for s in payload["states"]]
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.diag([1.0, -1.0])
    def bloch(r):
        return np.array([np.trace(r @ s).real for s in (sx, sy, sz)])
    b0 = bloch(states[0])
    for t, state in zip((0.0, 1.0, 2.0), states):
        assert np.max(np.abs(bloch(state) - math.exp(-t) * b0)) < 1e-9


def test_evolve_eigenvalue_columns(runner):
    payload = run_ok(
        runner,
        ["evolve", "--d", "2", "--n", "2", "--weights", "0.5,0.25,0.25",
         "--t-max", "1.0", "--steps", "2"],
    )
    assert payload["times"] == [0.0, 0.5, 1.0]
    assert payload["eigenvalues"][0] == [1.0, 1.0, 1.0]
    p = (1 - math.exp(-0.5)) / 2
    assert payload["eigenvalues"][1][0] == pytest.approx(1 - 2 * 0.5 * p, rel=1e-12)


def test_evolve_mub_state_spec(runner):
    payload = run_ok(
        runner,
        ["evolve", "--d", "2", "--n", "2", "--weights", "0.5,0.25,0.25",
         "--state", "mub:1:0", "--times", "0"],
    )
    rho = pairs_to_complex_matrix(payload["states"][0])
    assert np.max(np.abs(rho - 0.5 * np.ones((2, 2)))) < 1e-12


# (d, --state); None is a random state file
_EVOLVE_STATES = {
    "max-mixed": (3, "max-mixed"),
    "mub-basis-0": (4, "mub:0:2"),
    "mub-d2": (2, "mub:2:1"),
    "mub-d9": (9, "mub:4:7"),
    "mub-d16": (16, "mub:16:5"),
    "mub-d27": (27, "mub:27:26"),
    "file-d5": (5, None),
}


@pytest.mark.parametrize("d, state", _EVOLVE_STATES.values(), ids=_EVOLVE_STATES.keys())
def test_evolve_states_match_apply(runner, tmp_path, d, state):
    rng = np.random.default_rng(d)
    if state is None:
        rho0 = random_density_matrix(d, rng)
        state = str(tmp_path / "rho.json")
        Path(state).write_text(json.dumps(complex_matrix_to_pairs(rho0)))
    elif state == "max-mixed":
        rho0 = np.eye(d) / d
    else:
        _, alpha, j = state.split(":")
        v = mub_mod.cached_mub(d).bases[int(alpha)][:, int(j)]
        rho0 = np.outer(v, v.conj())
    weights = rng.dirichlet(np.ones(d + 1)).tolist()
    weights[0] += 1e-13  # the CLI divides by the sum, and the payload holds the quotients
    payload = run_ok(runner, ["evolve", "--d", str(d), "--n", "1.1", "--weights", ",".join(map(repr, weights)),
                              "--state", state, "--steps", "5"])
    m = dynmaps.mixture_map(d, payload["weights"], dynmaps.Exponential(n=1.1, c=1.0))
    for t, got in zip(payload["times"], payload["states"]):
        assert np.max(np.abs(pairs_to_complex_matrix(got) - m.apply(t, rho0))) <= 1e-15


@pytest.mark.parametrize("off", [0.0, 1e-13, -1e-13])
@pytest.mark.parametrize("d", [2, 3, 4, 8, 9, 27, 32])
def test_the_closed_form_dephasing_matches_the_numpy_products(d, off):
    rng = np.random.default_rng(d)
    weights = rng.dirichlet(np.ones(d + 1)).tolist()
    weights[0] += off  # taken as given: MixtureMap accepts a sum within 1e-12 of 1
    m = dynmaps.mixture_map(d, weights, dynmaps.Exponential(n=1.1, c=1.0))
    alpha, j = int(rng.integers(1, d + 1)), int(rng.integers(d))
    for spec in ("max-mixed", f"mub:0:{d - 1}", f"mub:{d}:0", f"mub:{alpha}:{j}"):
        rho0, mixed = cli_mod._initial_state(spec, m)
        want = m.dephased(pairs_to_complex_matrix(rho0))
        assert np.max(np.abs(pairs_to_complex_matrix(mixed) - want)) <= 1e-15, spec


def test_a_state_file_is_decoded_once_after_the_dimension_check(runner, monkeypatch, tmp_path):
    calls = []
    decode, check = serialization.pairs_to_complex_matrix, mub_mod._check_dimension
    monkeypatch.setattr(serialization, "pairs_to_complex_matrix", lambda obj: calls.append("decode") or decode(obj))
    monkeypatch.setattr(mub_mod, "_check_dimension", lambda d: calls.append("check") or check(d))
    path = tmp_path / "state.json"
    path.write_text(json.dumps([[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]))
    run_ok(runner, ["evolve", "--d", "2", "--n", "1.5", "--weights", "0.4,0.3,0.3", "--times", "0,1",
                    "--state", str(path)])
    # building the bases for M may check the dimension again
    assert calls.count("decode") == 1 and calls.index("check") < calls.index("decode")


_QUTRIT_STATE = ["evolve", "--d", "3", "--n", "1.5", "--weights", "0.4,0.3,0.2,0.1", "--state"]


@pytest.mark.parametrize("state, message", [
    ("mub:1", "state spec 'mub:1' is not mub:ALPHA:J"),
    ("mub:a:0", "state spec 'mub:a:0' is not mub:ALPHA:J"),
    ("mub:4:0", "mub state indices out of range for d=3: 'mub:4:0'"),
    ("mub:-1:0", "mub state indices out of range for d=3: 'mub:-1:0'"),
    ("mub:1:3", "mub state indices out of range for d=3: 'mub:1:3'"),
    ("{qubit}", "state has shape (2, 2), expected (3, 3)"),
], ids=["malformed", "not-an-integer", "alpha-too-large", "alpha-negative", "j-too-large", "wrong-shape"])
def test_evolve_refuses_a_bad_state_before_any_work(runner, monkeypatch, tmp_path, state, message):
    def no_work(*args, **kwargs):
        raise AssertionError("the state was formed or dephased before the refusal")

    monkeypatch.setattr(mub_mod, "basis_state", no_work)
    monkeypatch.setattr(dynmaps.MixtureMap, "dephased", no_work)
    qubit = tmp_path / "qubit.json"
    qubit.write_text(json.dumps([[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]))
    result = runner.invoke(main, _QUTRIT_STATE + [state.format(qubit=qubit)])
    assert result.exit_code == 2
    assert result.stderr == f"error: {message}\n"
    assert result.stdout == ""


# --- mub verify ------------------------------------------------------------------


def test_mub_verify_d16(runner):
    payload = run_ok(runner, ["mub", "verify", "--d", "16"])
    assert payload["passed"] is True
    assert payload["max_orthonormality_deviation"] <= 1e-12
    assert payload["max_unbiasedness_deviation"] <= 1e-12


def test_mub_verify_export_then_input_roundtrip(runner, tmp_path):
    exported = tmp_path / "mub5.json"
    run_ok(runner, ["mub", "verify", "--d", "5", "--export", str(exported)])
    payload = run_ok(runner, ["mub", "verify", "--input", str(exported)])
    assert payload["passed"] is True
    assert payload["d"] == 5


def test_mub_verify_needs_d_or_input(runner):
    result = runner.invoke(main, ["mub", "verify"])
    assert result.exit_code == 2


def test_mub_verify_refuses_both_d_and_input(runner, tmp_path):
    exported = tmp_path / "mub5.json"
    run_ok(runner, ["mub", "verify", "--d", "5", "--export", str(exported)])
    result = runner.invoke(main, ["mub", "verify", "--d", "7", "--input", str(exported)])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error:") and result.stderr.count("\n") == 1
    assert "--d" in result.stderr and "--input" in result.stderr


def test_mub_verify_refuses_a_negative_tolerance(runner):
    result = runner.invoke(main, ["mub", "verify", "--d", "4", "--tol", "-1"])
    assert result.exit_code == 2, result.output
    assert "-1.0" in result.stderr
    assert result.stdout == ""
    assert run_ok(runner, ["mub", "verify", "--d", "4", "--tol", "0"])["tol"] == 0.0


# one way each to ask for the bases of the first prime power past the limit, 131
_PAST_THE_MUB_LIMIT = {
    "mub-verify-d": ["mub", "verify", "--d", "131"],
    "mub-verify-input": ["mub", "verify", "--input", "{file}"],
    "evolve": ["evolve", "--d", "131", "--n", "1.01", "--weights", ",".join([repr(1 / 132)] * 132)],
    "evolve-mub-state": ["evolve", "--d", "131", "--n", "1.01", "--weights", ",".join([repr(1 / 132)] * 132),
                         "--state", "mub:1:0"],
    "evolve-state-file": ["evolve", "--d", "131", "--n", "1.01", "--weights", ",".join([repr(1 / 132)] * 132),
                          "--state", "{file}"],
}


@pytest.mark.parametrize("args", _PAST_THE_MUB_LIMIT.values(), ids=_PAST_THE_MUB_LIMIT.keys())
def test_mub_work_beyond_its_limit_is_refused_at_once(runner, monkeypatch, tmp_path, args):
    def no_build(*args, **kwargs):
        raise AssertionError("the bases were built before the refusal")

    monkeypatch.setattr(mub_mod, "_phase_bases", no_build)
    monkeypatch.setattr(serialization, "pairs_to_complex_matrix", no_build)
    path = tmp_path / "mub131.json"
    path.write_text('{"d": 131, "bases": [[[[1, 0]]]]}')
    start = time.perf_counter()
    result = runner.invoke(main, [str(path) if a == "{file}" else a for a in args])
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2, result.output
    assert f"limited to d <= {mub_mod._MAX_D}, got d=131" in result.stderr
    assert result.stdout == ""


# --- input files ----------------------------------------------------------------


_MUB_INPUT = ["mub", "verify", "--input"]
# `mub verify --d 2 --export` writes these bases; json.loads takes NaN and Infinity
_D2_BASES = ('{"d": 2, "bases": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[0.70710678118654746, 0], '
             '[0.70710678118654746, 0]], [[0.70710678118654746, 0], [-0.70710678118654746, 0]]], '
             '[[[0.70710678118654746, 0], [0.70710678118654746, 0]], [[0, 0.70710678118654746], '
             '[0, -0.70710678118654746]]]]}')
_EVOLVE_STATE = ["evolve", "--d", "2", "--n", "1.5", "--weights", "0.4,0.3,0.3", "--times", "0,1", "--state"]


@pytest.mark.parametrize(
    "args,content",
    [
        (_MUB_INPUT, None),
        (_EVOLVE_STATE, None),
        (_MUB_INPUT, "not json"),
        (_EVOLVE_STATE, "not json"),
        (_MUB_INPUT, '{"d": 3, "bases": []}'),
        (_MUB_INPUT, '{"bases": []}'),
        (_EVOLVE_STATE, '{"d": 2, "bases": []}'),
        (_EVOLVE_STATE, "[[[NaN, 0], [0, 0]], [[0, 0], [NaN, 0]]]"),
        (_MUB_INPUT, _D2_BASES.replace("[0.70710678118654746, 0]", "[NaN, 0]", 1)),
        (_MUB_INPUT, json.dumps({"d": 2, "bases": [[[[math.nan] * 2] * 2] * 2] * 3})),
        (_MUB_INPUT, _D2_BASES.replace("[1, 0]", "[Infinity, 0]", 1)),
        (_MUB_INPUT, _D2_BASES.replace('"d": 2', '"d": 2.9')),
        (_MUB_INPUT, _D2_BASES.replace('"d": 2', '"d": 2.0')),
        (_MUB_INPUT, _D2_BASES.replace('"d": 2', '"d": "2"')),
        (_MUB_INPUT, _D2_BASES.replace('"d": 2', '"d": true')),
    ],
    ids=["missing-basis", "missing-state", "text-basis", "text-state", "no-bases",
         "no-d", "object-as-state", "nan-state", "nan-basis-entry", "nan-basis", "inf-basis-entry",
         "float-d", "integral-float-d", "string-d", "bool-d"],
)
def test_bad_input_file_exits_2(runner, tmp_path, args, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    result = runner.invoke(main, args + [str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stdout == ""
    assert result.stderr.startswith("error:")


# commands whose last option names a file to write
_WRITERS = {
    "regime-output": ["regime", "--d", "7", "--n", "1.1", "--output"],
    "sweep-output": ["sweep", "--lo", "7", "--hi", "9", "--n", "1.1", "--output"],
    "mub-export": ["mub", "verify", "--d", "5", "--export"],
    "mub-output": ["mub", "verify", "--d", "5", "--output"],
}


@pytest.mark.parametrize("where", ["missing-directory", "a-directory"])
@pytest.mark.parametrize("args", _WRITERS.values(), ids=_WRITERS.keys())
def test_an_unwritable_output_path_exits_2(runner, tmp_path, args, where):
    path = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    result = runner.invoke(main, args + [str(path)])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: cannot write {str(path)!r}: ")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("args", [_WRITERS["regime-output"], _WRITERS["mub-export"]], ids=["regime", "mub-verify"])
def test_an_unwritable_output_path_is_one_line_in_a_whole_process(tmp_path, args):
    path = str(tmp_path / "missing" / "x.json")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "paulimix.cli", *args, path], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: cannot write ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def test_a_refused_mub_verify_leaves_its_export_as_it_was(tmp_path):
    export = tmp_path / "ok.json"
    args = ["mub", "verify", "--d", "5", "--export", str(export), "--output", str(tmp_path / "missing" / "x.json")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    for before in (None, "kept\n"):
        if before is not None:
            export.write_text(before)
        proc = subprocess.run([sys.executable, "-m", "paulimix.cli", *args], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: cannot write ") and proc.stderr.count("\n") == 1
        assert (export.read_text() if export.exists() else None) == before


def test_mub_verify_exports_the_same_bases_under_another_blas_kernel(tmp_path):
    # neither the bases nor a --d report comes from a BLAS product
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("OPENBLAS_CORETYPE", None)
    runs = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Sandybridge"}):
        export = tmp_path / f"mub27-{len(runs)}.json"
        proc = subprocess.run([sys.executable, "-m", "paulimix.cli", "mub", "verify", "--d", "27", "--export",
                               str(export)], env={**env, **kernel}, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        runs.append((export.read_bytes(), proc.stdout))
    assert runs[0] == runs[1]
    assert json.loads(runs[0][1])["passed"] is True


_TO_A_CLOSED_PIPE = {
    "help": ["--help"],
    "regime": ["regime", "--d", "7", "--n", "1.1"],
    "sweep": ["sweep", "--lo", "7", "--hi", "32", "--n", "1.03"],
    "mub-verify": ["mub", "verify", "--d", "2"],
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", _TO_A_CLOSED_PIPE.values(), ids=_TO_A_CLOSED_PIPE.keys())
def test_a_closed_stdout_pipe_exits_1_with_nothing_on_stderr(args, unbuffered):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the command writes
    try:
        proc = subprocess.run([sys.executable, "-m", "paulimix.cli", *args], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")


# outputs of 2-15 MB, far longer than a pipe holds
_WEIGHTS_33 = ",".join([repr(1 / 33)] * 33)
_LONG_OUTPUTS = {
    "evolve": ["evolve", "--d", "32", "--n", "1.03", "--weights", _WEIGHTS_33, "--steps", "300"],
    "sweep": ["sweep", "--lo", "1000", "--hi", "1000000", "--n", "1.00000100001"],
    "cp-check": ["cp-check", "--d", "2", "--n", "1.5", "--weights", "0.4,0.3,0.3", "--steps", "20000"],
}


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("args", _LONG_OUTPUTS.values(), ids=_LONG_OUTPUTS.keys())
def test_a_reader_that_closes_partway_through_a_long_output_gives_exit_1(args, unbuffered):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-m", "paulimix.cli", *args], env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    _, stderr = proc.communicate(timeout=60)
    assert (proc.returncode, stderr) == (1, b"")


def _console_script_step() -> str:
    """The ``run:`` block of the workflow's "Console script" step, dedented."""
    lines = (ROOT / ".github" / "workflows" / "tests.yml").read_text().splitlines()
    start = lines.index("      - name: Console script") + 1
    assert lines[start].strip() == "run: |"
    indent = lines[start].index("run:") + 2
    block = []
    for line in lines[start + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) < indent:
            break
        block.append(line[indent:])
    return "\n".join(block) + "\n"


@pytest.mark.skipif(shutil.which("bash") is None, reason="the workflow's run: blocks are bash")
def test_the_console_script_step_of_the_workflow_passes(tmp_path):
    # the step's default shell is bash -e; `paulimix` and `python` are shims for this interpreter
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, argv in (("paulimix", '-m paulimix.cli "$@"'), ("python", '"$@"')):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {argv}\n')
        shim.chmod(0o755)
    script = tmp_path / "step.sh"
    script.write_text(_console_script_step())
    env = dict(os.environ, PATH=os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")]), TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(["bash", "-e", str(script)], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


# --- cp-check ---------------------------------------------------------------------


def test_cp_check_positive_rate_regime(runner):
    payload = run_ok(
        runner,
        ["cp-check", "--d", "2", "--n", "2", "--c", "1",
         "--weights", "0.999,5e-4,5e-4", "--t-max", "3", "--steps", "10"],
    )
    assert payload["all_cp"] is True
    assert len(payload["steps"]) == 10


def test_cp_check_detects_non_cp_steps(runner):
    payload = run_ok(
        runner,
        ["cp-check", "--d", "2", "--family", "cosine", "--omega", "1",
         "--weights", "0.8,0.1,0.1", "--t-max", "2.8", "--steps", "20"],
    )
    assert payload["all_cp"] is False


def test_cp_check_refuses_a_negative_tolerance(runner):
    args = ["cp-check", "--d", "3", "--n", "1.5", "--weights", "0.3,0.3,0.2,0.2", "--steps", "2"]
    result = runner.invoke(main, args + ["--tol", "-1"])
    assert result.exit_code == 2, result.output
    assert "-1.0" in result.stderr
    assert result.stdout == ""
    assert run_ok(runner, args + ["--tol", "0"])["all_cp"] is True


@pytest.mark.parametrize("command", ["cp-check", "evolve"])
def test_a_negative_t_max_is_refused_by_name(runner, command):
    args = [command, "--d", "2", "--n", "1.5", "--weights", "0.4,0.3,0.3", "--steps", "2"]
    result = runner.invoke(main, args + ["--t-max", "-1"])
    assert result.exit_code == 2, result.output
    assert "--t-max must be >= 0, got -1.0" in result.stderr
    assert result.stdout == ""
    assert run_ok(runner, args + ["--t-max", "0"])
    # a grid given by --times keeps its own check
    if command == "evolve":
        result = runner.invoke(main, args + ["--times", "0,-1"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert "times must be nonnegative" in result.stderr
        # the times are checked before the state
        result = runner.invoke(main, args + ["--times", "0,-1", "--state", "mub:9:9"])
        assert "times must be nonnegative" in result.stderr


# --- generator --------------------------------------------------------------------


def test_generator_single_map_gamma(runner):
    payload = run_ok(runner, ["generator", "--d", "2", "--n", "3", "--c", "1", "--t", "0.5"])
    gamma = payload["gamma"]
    assert gamma["analytic"] == pytest.approx(1 / (math.exp(0.5) + 2), rel=1e-12)
    assert gamma["rel_diff"] <= 1e-6
    for entry in payload["rates"]:
        assert entry["rel_diff"] <= 1e-6 or entry["rate_analytic"] == 0


def test_generator_with_weights(runner):
    payload = run_ok(
        runner,
        ["generator", "--d", "3", "--n", "1.5", "--c", "2", "--t", "0.3",
         "--weights", "0.4,0.3,0.2,0.1"],
    )
    assert "gamma" not in payload
    for entry in payload["rates"]:
        assert entry["rel_diff"] <= 1e-6


@pytest.mark.parametrize(
    "family, h",
    [(["--family", "cosine", "--omega", "1e6", "--t", "3e-6"], 1e-5 / 1e6),
     # mid-ramp: a flat step of 1e-5 would straddle the kink at t_sharp
     (["--family", "plateau", "--t-sharp", "1e-6", "--t", "5e-7"], 1e-5 * 1e-6)],
    ids=["cosine-fast", "plateau-short"],
)
def test_generator_default_step_follows_the_family_time_scale(runner, family, h):
    payload = run_ok(runner, ["generator", "--d", "2", *family])
    assert payload["h"] == h
    for entry in payload["rates"]:
        assert entry["rel_diff"] <= 1e-10
    assert payload.get("gamma", {"rel_diff": 0})["rel_diff"] <= 1e-10


@pytest.mark.parametrize(
    "args, named",
    [(["generator", "--d", "2", "--n", "1.5", "--t", "0.5", "--h", "5e-324", "--weights", "0.1,0.45,0.45"],
      "is below the float spacing at t="),
     # the default step 1e-5 is below the float spacing at t = 1e12
     (["generator", "--d", "2", "--family", "cosine", "--omega", "1", "--t", "1e12"],
      "is below the float spacing at t="),
     # the forward stencil at t = 0 moves t to h and 2h, but p stays 0
     (["generator", "--d", "2", "--n", "1.5", "--t", "0", "--h", "5e-324", "--weights", "0.1,0.45,0.45"],
      "h=5e-324 moves no eigenvalue at t=0.0"),
     # p(700 +- 1e-5) rounds to 1/n, while p'(700) = e^-700/n is not 0
     (["generator", "--d", "2", "--n", "1.5", "--t", "700"], "h=1e-05 moves no eigenvalue at t=700.0")],
    ids=["tiny-step", "default-step-at-large-t", "forward-stencil-at-t0", "far-tail"],
)
def test_generator_refuses_a_step_that_does_not_move_t(runner, args, named):
    start = time.perf_counter()
    result = runner.invoke(main, args)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2, result.output
    assert named in result.stderr
    assert result.stdout == ""


def test_generator_answers_zero_rates_on_a_plateau(runner):
    payload = run_ok(runner, ["generator", "--d", "2", "--family", "plateau", "--t-sharp", "1", "--t", "2",
                              "--weights", "0.1,0.45,0.45"])
    assert [entry["rate_numeric"] for entry in payload["rates"]] == [0, 0, 0]
    assert [entry["rel_diff"] for entry in payload["rates"]] == [0, 0, 0]


@pytest.mark.parametrize(
    "args, stencil",
    [(["--d", "3", "--t", "1.0"], "[0.99999, 1.00001] of t=1.0 with step h=1e-05"),
     (["--d", "2", "--t", "0.999995"], "[0.999985, 1.000005] of t=0.999995 with step h=1e-05"),
     # the forward stencil reads t, t + h and t + 2h
     (["--d", "2", "--t", "0", "--h", "0.75"], "[0.0, 1.5] of t=0.0 with step h=0.75")],
    ids=["central-at-kink", "central-across-kink", "forward-across-kink"],
)
def test_generator_refuses_a_stencil_across_the_plateau_kink(runner, args, stencil):
    result = runner.invoke(main, ["generator", "--family", "plateau", *args])
    assert result.exit_code == 2, result.output
    assert f"p' jumps at t_sharp=1.0, inside the stencil {stencil}" in result.stderr
    assert result.stdout == ""


# --- weights validation & determinism ------------------------------------------------


def test_zero_weight_rejected_with_guidance(runner):
    result = runner.invoke(main, ["singular-time", "--d", "2", "--n", "1.5",
                                  "--weights", "1,0,0"])
    assert result.exit_code == 2
    assert "epsilon" in result.stderr


def test_bad_weight_sum_rejected(runner):
    result = runner.invoke(main, ["evolve", "--d", "2", "--n", "1.5", "--weights", "0.5,0.2,0.2"])
    assert result.exit_code == 2
    assert "sum to 1" in result.stderr


def test_weight_sum_near_one_renormalized_with_warning(runner):
    result = runner.invoke(
        main,
        ["evolve", "--d", "2", "--n", "1.5", "--weights", "0.4,0.3,0.3000005",
         "--times", "0"],
    )
    assert result.exit_code == 0
    assert "renormalizing" in result.stderr


def test_weights_renormalize_by_a_left_to_right_sum():
    # these sum to 1.0000000000000002 left to right, and to 1.0 by the compensated sum() of Python 3.12+
    assert cli_mod._parse_weights("0.1,0.3,0.2,0.15,0.15,0.1", 5) == [
        0.09999999999999998, 0.29999999999999993, 0.19999999999999996,
        0.14999999999999997, 0.14999999999999997, 0.09999999999999998,
    ]


def test_wrong_weight_count_rejected(runner):
    result = runner.invoke(main, ["evolve", "--d", "3", "--n", "1.5", "--weights", "0.5,0.5"])
    assert result.exit_code == 2


# the map commands check the weights, then the family, then the rest; generator
# checks the family first
_MAP_COMMANDS = ("singular-time", "evolve", "cp-check")


@pytest.mark.parametrize("command", _MAP_COMMANDS)
def test_a_map_command_checks_the_weights_before_the_family(runner, command):
    result = runner.invoke(main, [command, "--d", "3", "--weights", "0.5,0.5"])
    assert result.exit_code == 2
    assert result.stderr == "error: need 4 comma-separated weights for d=3, got 2\n"


@pytest.mark.parametrize(
    "command, extra",
    [(c, []) for c in _MAP_COMMANDS]
    + [("cp-check", ["--steps", "0"]), ("evolve", ["--steps", "0"]), ("evolve", ["--state", "mub:9:9"])],
)
def test_a_map_command_checks_the_family_before_the_rest(runner, command, extra):
    result = runner.invoke(main, [command, "--d", "2", "--weights", "0.4,0.3,0.3", *extra])
    assert result.exit_code == 2
    assert result.stderr == "error: the exponential family requires --n\n"
    assert result.stdout == ""


def test_generator_checks_the_family_before_the_weights(runner):
    result = runner.invoke(main, ["generator", "--d", "2", "--t", "0.5", "--weights", "0.5,0.5"])
    assert result.exit_code == 2
    assert result.stderr == "error: the exponential family requires --n\n"


def test_byte_identical_reruns(runner):
    args = ["measure", "--d", "2", "--n", "1.5", "--method", "all",
            "--samples", "50000", "--seed", "21"]
    first = runner.invoke(main, args, catch_exceptions=False).stdout
    second = runner.invoke(main, args, catch_exceptions=False).stdout
    assert first == second
    sweep_args = ["sweep", "--lo", "7", "--hi", "32", "--n", "1.03"]
    assert runner.invoke(main, sweep_args).stdout == runner.invoke(main, sweep_args).stdout


# sha256 of stdout for one fixed call of each command that prints no float from
# BLAS or a random stream; a change that alters any printed byte fails here.
# The digests were taken on Linux: the singular times and rates, and the roots
# of unity of an evolved MUB state and of a verified MUB set at odd d, go through its libm.
# The singular-time calls at d = 32, on a coarse grid and within 1e-13 of a
# family's band were pinned from the per-index scan, before the one-pass rewrite.
# evolve with a MUB or maximally mixed state is pure Python; a state file is not.
_D32_WEIGHTS = ",".join(["0.01"] * 16 + ["0.05"] * 16 + ["0.04"])
_D27_WEIGHTS = ",".join(["0.025"] * 20 + ["0.0625"] * 8)
_STDOUT_SHA256 = {
    "regime": (["regime", "--d", "7", "--n", "1.1"],
               "9c7aad65be8e1209a8336b6263fa6de36c84dff87758b4091df397b863c3b603"),
    "singular-time-exponential": (
        ["singular-time", "--d", "3", "--n", "1.15", "--weights", "0.05,0.4,0.3,0.25"],
        "4c8d6bed099618010179ff0dd3eccc770a29710cb0441c824ffd7d330e696c03"),
    "singular-time-cosine": (
        ["singular-time", "--d", "4", "--family", "cosine", "--omega", "1.3", "--weights", "0.1,0.2,0.3,0.15,0.25"],
        "e70a4e68fcfdd4480b0f5c9b5f961467acc40a756b50ec7a3e92edb642268085"),
    "singular-time-plateau": (
        ["singular-time", "--d", "2", "--family", "plateau", "--t-sharp", "0.7", "--weights", "0.2,0.3,0.5"],
        "4edef9f71b55849b83e7e3f81b2f80487ba9b0d061d4ee711c06ce2194ccc968"),
    "singular-time-d32-exponential": (
        ["singular-time", "--d", "32", "--n", "1.02", "--weights", _D32_WEIGHTS],
        "7cffef97a70674d35ec1a1b183c2e83f1e5e98d2b8785a88f987280cac555560"),
    "singular-time-d32-cosine": (
        ["singular-time", "--d", "32", "--family", "cosine", "--omega", "1.3", "--weights", _D32_WEIGHTS],
        "9398c1848a1a00afbb0fe1adc74fdb4ec64be4e89c3e962ffe4610bfd9ccbc8c"),
    "singular-time-d32-plateau": (
        ["singular-time", "--d", "32", "--family", "plateau", "--t-sharp", "0.7", "--weights", _D32_WEIGHTS],
        "d4d6b0b6fc8f3b4efadfd2322b3a7b84824cc02e8d39ca3cfa8eb878c962023d"),
    "singular-time-grid-too-coarse": (
        ["singular-time", "--d", "2", "--family", "cosine", "--omega", "40", "--grid", "12", "--t-max", "0.5",
         "--weights", "0.05,0.05,0.9"],
        "66bb7119f64ab0f0d98d454c3a2c27a9720c38ba6ce986dc8f3e7070102b9edb"),
    "singular-time-cosine-band": (
        ["singular-time", "--d", "4", "--family", "cosine", "--omega", "1.3",
         "--weights", "0.25000000000005,0.1874999999999875,0.1874999999999875,0.1874999999999875,0.1874999999999875"],
        "12162707a3d3b6b7ae9714cc3ea25d98b2052a501a403b2112d42f30cb50ae72"),
    "singular-time-plateau-band": (
        ["singular-time", "--d", "2", "--family", "plateau", "--t-sharp", "1",
         "--weights", "5e-13,0.49999999999975,0.49999999999975"],
        "e6d5a9bb7a9c1f19ab97e08d1b17ec31e1066df4b43ccde38c79b1c5f511651f"),
    "cp-check": (
        ["cp-check", "--d", "5", "--n", "1.1", "--c", "0.8", "--weights", "0.1,0.3,0.2,0.15,0.15,0.1", "--steps", "12"],
        "53c2d6e35b71a3e94965b58c42d2da6a1b5c60ab9b454545b3314402bcd06d46"),
    "generator-weighted": (
        ["generator", "--d", "4", "--n", "1.2", "--t", "0.7", "--weights", "0.1,0.2,0.3,0.15,0.25"],
        "9cd0f53b4aaedbf740caff610c871311b8ce236d35fa51d9ab05efe526abdfce"),
    "generator-single-map": (["generator", "--d", "2", "--n", "3", "--t", "0.5"],
                             "a2dc2237be14cade0bafb511ba1ec0cf273325d1cf6c77b166049683592c2ef2"),
    "measure-closed": (["measure", "--d", "7", "--n", "1.03", "--method", "closed"],
                       "f205c87ccb6856da40036e56f58854889f2f4338a79c91b89d7eb94cf8c59ceb"),
    "measure-quadrature": (["measure", "--d", "7", "--n", "1.03", "--method", "quadrature"],
                           "11948560d68c923320bf2bcfc2d28d54976ec2e3ceae1c15320f6e867f326299"),
    "sweep-csv": (["sweep", "--lo", "7", "--hi", "32", "--n", "1.03"],
                  "d14385d74a4d328a0c0856d981edbe2d31ab8d3c5ffc63a7feb8c3c561eb9afd"),
    "sweep-json": (["sweep", "--lo", "7", "--hi", "32", "--n", "1.03", "--format", "json"],
                   "6e49563039ce6021244af8a1e154847b774b88bc4b4828cd4fab3729d7b5fb9c"),
    "evolve-d2-mub": (
        ["evolve", "--d", "2", "--n", "1.5", "--weights", "0.2,0.3,0.5", "--state", "mub:2:1", "--steps", "4"],
        "155d7b2254d54ab6074ed3d5a3abcd9a3d5feb5b26145410378342192c4fdc7d"),
    "evolve-d8-mub": (
        ["evolve", "--d", "8", "--n", "1.1", "--c", "0.7", "--weights", "0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.15,0.15",
         "--state", "mub:5:3", "--steps", "3"],
        "3a3af1af623cd2582084e2aa0fba3e14d150d63b30156f6c613f0d40492b997f"),
    "evolve-d27-mub": (
        ["evolve", "--d", "27", "--family", "cosine", "--omega", "1.3", "--weights", _D27_WEIGHTS,
         "--state", "mub:13:20", "--times", "0,0.4,2.5"],
        "d66894fc739d3cac5b44e8889335105ab0b9287f9730715f6644ffd18705070c"),
    "evolve-d32-mub": (
        ["evolve", "--d", "32", "--n", "1.02", "--weights", _D32_WEIGHTS, "--state", "mub:32:31", "--times", "0,1.5"],
        "d7fc2df0b6360e00d3cc91be6b3064878d0b1ad8eff6d828fceaef316c0837f4"),
    # the top of the closed-form range, pinned before M moved into _initial_state
    "evolve-d125-mub": (
        ["evolve", "--d", "125", "--n", "1.01", "--weights", ",".join([repr(1 / 126)] * 126), "--state", "mub:7:99",
         "--times", "0,1.5"],
        "e8443e557549248e1938e82fde8c267b110279d43c6effa8f69073719489aaaa"),
    "evolve-d128-max-mixed": (
        ["evolve", "--d", "128", "--n", "1.01", "--weights", ",".join([repr(1 / 129)] * 129), "--state", "max-mixed",
         "--times", "0,1.5"],
        "93aeedf7ff90c992345f4f1b23bf2a4d4272a7e06bf4e216ccde5aec267b8dde"),
    "evolve-max-mixed": (
        ["evolve", "--d", "4", "--family", "plateau", "--t-sharp", "0.7", "--weights", "0.1,0.2,0.3,0.15,0.25",
         "--steps", "3"],
        "179e6e2c79d649729749d0349c013354d0250961d8ba6106acef5aa9af21cac4"),
    # mub verify --d is pure Python: character sums in math.fsum, exact for 2^k
    "mub-verify-d27": (["mub", "verify", "--d", "27"],
                       "4fa808f275c6662028870296eafc710b216c01cab92db2c8d79a9958059141ab"),
    "mub-verify-d32": (["mub", "verify", "--d", "32"],
                       "c2eee35e69a713040d84841826b72e4677c2e30a93d3dae3577a3741dde57887"),
}


@pytest.mark.parametrize("args, digest", _STDOUT_SHA256.values(), ids=_STDOUT_SHA256.keys())
def test_numpy_free_commands_print_the_pinned_bytes(runner, args, digest):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest


def _other_interpreters() -> list[Path]:
    """Each pyenv ``bin/python`` other than this one that is at the requires-python floor and imports paulimix.

    The binaries are called directly: the pyenv shims need PYENV_VERSION.
    """
    floor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups()
    probe = f"import sys, paulimix; sys.exit(sys.version_info < ({floor[0]}, {floor[1]}))"
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    return [python for python in sorted(Path.home().glob(".pyenv/versions/*/bin/python"))
            if python.parent.parent.name != platform.python_version()
            and subprocess.run([python, "-c", probe], env=env, capture_output=True, timeout=60).returncode == 0]


def test_the_pinned_bytes_under_every_other_interpreter():
    # from 3.12 on sum() over floats is compensated, and libm differs between builds
    pythons = _other_interpreters()
    if not pythons:
        pytest.skip("no other Python at the requires-python floor under ~/.pyenv/versions imports paulimix")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONDONTWRITEBYTECODE="1")
    wrong = []
    for python in pythons:
        for name, (args, digest) in _STDOUT_SHA256.items():
            proc = subprocess.run([python, "-m", "paulimix.cli", *args], env=env, capture_output=True, timeout=120)
            if proc.returncode != 0 or hashlib.sha256(proc.stdout).hexdigest() != digest:
                wrong.append((python.parent.parent.name, name, proc.returncode, proc.stderr[-300:]))
    assert wrong == []


# --- non-finite numbers and resource failures ----------------------------------------

# one valid invocation per command, and every float-valued option it takes
_VALID_ARGS = {
    "regime": ["regime", "--d", "2", "--n", "1.5"],
    "singular-time": ["singular-time", "--d", "2", "--n", "1.5", "--weights", "0.4,0.3,0.3"],
    "measure": ["measure", "--d", "2", "--n", "1.5"],
    "sweep": ["sweep", "--lo", "7", "--hi", "8", "--n", "1.05"],
    "evolve": ["evolve", "--d", "2", "--n", "1.5", "--weights", "0.4,0.3,0.3", "--times", "0,1"],
    "mub-verify": ["mub", "verify", "--d", "2"],
    "cp-check": ["cp-check", "--d", "2", "--n", "1.5", "--weights", "0.4,0.3,0.3", "--steps", "2"],
    "generator": ["generator", "--d", "2", "--n", "3", "--t", "0.5"],
}
_FAMILY_FLOATS = ["--n", "--c", "--omega", "--t-sharp"]
_FLOAT_OPTIONS = {
    "regime": ["--n"],
    "singular-time": _FAMILY_FLOATS + ["--t-max", "--weights"],
    "measure": ["--n"],
    "sweep": ["--n"],
    "evolve": _FAMILY_FLOATS + ["--t-max", "--weights", "--times"],
    "mub-verify": ["--tol"],
    "cp-check": _FAMILY_FLOATS + ["--t-max", "--tol", "--weights"],
    "generator": _FAMILY_FLOATS + ["--t", "--h", "--weights"],
}


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command,option", [(cmd, opt) for cmd, opts in _FLOAT_OPTIONS.items() for opt in opts]
)
def test_non_finite_numbers_exit_2(runner, command, option, bad):
    args = _VALID_ARGS[command]
    assert runner.invoke(main, args).exit_code == 0
    # list options get the bad number as their last entry; a repeated option overrides
    value = {"--weights": f"0.5,0.5,{bad}", "--times": f"0,{bad}"}.get(option, bad)
    result = runner.invoke(main, args + [option, value])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.stdout == ""


def test_memory_error_is_a_computation_failure(runner, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 TiB for an array")

    monkeypatch.setattr(measure_mod, "delta_quadrature", out_of_memory)
    result = runner.invoke(main, ["measure", "--d", "13", "--n", "1.01", "--method", "quadrature"])
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert result.stderr == "error: Unable to allocate 1.00 TiB for an array\n"
    assert result.stdout == ""


# --- the boundary of the numeric commands, as a property ------------------------------


def _any_float(draw, sane):
    """Any float, often one from the ``sane`` strategy."""
    return draw(sane | st.floats(allow_nan=True, allow_infinity=True))


def _weights(draw, d):
    """d+1 normalized positive weights, sometimes miscounted or with one bad entry."""
    count = max(d, 2) + 1 + draw(st.sampled_from([0, 0, 0, -1, 1]))
    raw = draw(st.lists(st.floats(1e-3, 1.0), min_size=count, max_size=count))
    w = [x / sum(raw) for x in raw]
    if draw(st.booleans()):
        w[draw(st.integers(0, count - 1))] = _any_float(draw, st.sampled_from([0.0, -0.1, 1.0, 5e-324]))
    return ",".join(repr(x) for x in w)


# family scales whose horizon, period, singular time or default step may overflow
_TINY = st.floats(5e-324, 1e-300)
_HUGE = st.floats(1e300, 1.7976931348623157e308)


def _family_args(draw):
    """A decoherence family with any float for each of its parameters, often a sane one."""
    family = draw(st.sampled_from(["exponential", "cosine", "plateau"]))
    args = ["--family", family]
    if family == "exponential":
        args += ["--n", repr(_any_float(draw, st.floats(1.0, 3.0))),
                 "--c", repr(_any_float(draw, st.floats(1e-3, 10.0) | _TINY))]
    elif family == "cosine":
        args += ["--omega", repr(_any_float(draw, st.floats(1e-3, 10.0) | _TINY))]
    else:
        args += ["--t-sharp", repr(_any_float(draw, st.floats(1e-3, 10.0) | _HUGE))]
    return args


def _optional(draw, option, value):
    return [option, value] if draw(st.booleans()) else []


def _singular_time_query(draw, d):
    args = ["singular-time", "--d", str(d), *_family_args(draw), "--weights", _weights(draw, d)]
    args += _optional(draw, "--t-max", repr(_any_float(draw, st.floats(1e-3, 100.0))))
    args += _optional(draw, "--grid", str(draw(st.integers(-1, 200))))
    return args


def _evolve_query(draw, d):
    args = ["evolve", "--d", str(d), *_family_args(draw), "--weights", _weights(draw, d)]
    index = st.integers(-1, max(d, 0) + 1)
    state = draw(st.sampled_from(["max-mixed", "mub", "mub:1", "pure"]))
    if state == "mub":
        state = f"mub:{draw(index)}:{draw(index)}"
    args += _optional(draw, "--state", state)
    if draw(st.booleans()):
        times = draw(st.lists(st.floats(0.0, 10.0), min_size=1, max_size=4))
        times[-1] = _any_float(draw, st.sampled_from([times[-1], -1.0, 0.0]))
        args += ["--times", ",".join(repr(t) for t in times)]
    else:
        args += _optional(draw, "--t-max", repr(_any_float(draw, st.floats(0.0, 20.0))))
        args += _optional(draw, "--steps", str(draw(st.integers(-1, 30))))
    return args


def _cp_check_query(draw, d):
    args = ["cp-check", "--d", str(d), *_family_args(draw), "--weights", _weights(draw, d)]
    args += _optional(draw, "--t-max", repr(_any_float(draw, st.floats(0.0, 20.0))))
    args += _optional(draw, "--steps", str(draw(st.integers(-1, 30))))
    args += _optional(draw, "--tol", repr(_any_float(draw, st.floats(0.0, 1e-6))))
    return args


def _generator_query(draw, d):
    args = ["generator", "--d", str(d), *_family_args(draw),
            "--t", repr(_any_float(draw, st.floats(0.0, 20.0)))]
    args += _optional(draw, "--h", repr(_any_float(draw, st.floats(1e-8, 1e-2))))
    args += _optional(draw, "--weights", _weights(draw, d))
    return args


_MAP_QUERIES = {
    "singular-time": _singular_time_query,
    "evolve": _evolve_query,
    "cp-check": _cp_check_query,
    "generator": _generator_query,
}


@st.composite
def _numeric_query(draw):
    """A numeric command with any d in -2..40 and any float arguments, often valid ones."""
    command = draw(st.sampled_from(["regime", "measure", "sweep", "mub verify", *_MAP_QUERIES]))
    d = draw(st.sampled_from(measure_mod.prime_powers_in(2, 40)) | st.integers(-2, 40))
    if command in _MAP_QUERIES:
        return _MAP_QUERIES[command](draw, d)
    if command == "mub verify":
        return ["mub", "verify", "--d", str(d)]
    n_any = st.floats(allow_nan=True, allow_infinity=True)
    if d >= 2:
        lower, upper = d * d / (d * d - 1), d / (d - 1)
        n_any = n_any | st.floats(lower, upper)
    n = draw(n_any)
    if command == "regime":
        return ["regime", "--d", str(d), "--n", repr(n)]
    tail = ["--n", repr(n), "--samples", str(draw(st.integers(-1, 1000))),
            "--seed", str(draw(st.integers(-2, 2) | st.integers(0, 2**40)))]
    if command == "measure":
        method = draw(st.sampled_from(["closed", "quadrature", "mc", "all"]))
        return ["measure", "--d", str(d), "--method", method] + tail
    method = draw(st.sampled_from(["closed", "quadrature", "mc"]))
    fmt = draw(st.sampled_from(["csv", "json"]))
    hi = str(d + draw(st.integers(-1, 8)))
    return ["sweep", "--lo", str(d), "--hi", hi, "--method", method, "--format", fmt] + tail


@settings(max_examples=150, deadline=None)
@given(args=_numeric_query())
def test_numeric_commands_answer_or_refuse_cleanly(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.exception)
    if result.exit_code == 0:
        text = result.stdout
        assert "nan" not in text, (args, text)
        if args[0] in ("singular-time", "generator"):
            assert "inf" not in text, (args, text)
        if args[0] == "sweep" and "csv" in args:
            lines = text.strip().splitlines()
            assert lines[0] == "d,delta,log10_delta"
            for line in lines[1:]:
                assert len([float(cell) for cell in line.split(",")]) == 3
        else:
            assert isinstance(json.loads(text), dict)
    else:
        assert result.stdout == ""
        assert "Traceback" not in result.output


# --- the parser --------------------------------------------------------------------


def test_a_value_that_starts_with_a_dash_reaches_the_program(runner):
    result = runner.invoke(main, ["singular-time", "--d", "2", "--family", "cosine", "--omega", "-1e-3",
                                  "--weights", "0.4,0.3,0.3"])
    assert result.exit_code == 2, result.output
    assert "angular frequency must be > 0, got -0.001" in result.stderr
    result = runner.invoke(main, ["cp-check", "--d", "2", "--n", "1.5", "--weights", "-0.1,0.6,0.5"])
    assert result.exit_code == 2, result.output
    assert "weights must be strictly positive" in result.stderr


def test_an_equals_sign_joins_an_option_to_its_value(runner):
    assert run_ok(runner, ["regime", "--d=3", "--n=1.2"]) == run_ok(runner, ["regime", "--d", "3", "--n", "1.2"])


def test_the_last_of_a_repeated_option_wins(runner):
    repeated = runner.invoke(main, ["regime", "--d", "3", "--n", "1.5", "--n", "1.2"])
    assert repeated.exit_code == 0
    assert repeated.stdout == runner.invoke(main, ["regime", "--d", "3", "--n", "1.2"]).stdout


_USAGE_ERRORS = {
    "abbreviated-option": ["cp-check", "--d", "2", "--n", "1.5", "--weights", "0.4,0.3,0.3", "--st", "3"],
    "unknown-option": ["regime", "--d", "3", "--nn", "1"],
    "extra-argument": ["regime", "--d", "3", "--n", "1.2", "extra"],
    "unknown-command": ["bogus", "--d", "3"],
    "missing-option": ["regime", "--d", "3"],
    "missing-value": ["regime", "--d", "3", "--n"],
    "bad-choice": ["measure", "--d", "7", "--n", "1.1", "--method", "bogus"],
    "choice-case": ["measure", "--d", "7", "--n", "1.1", "--method", "CLOSED"],
    "float-as-int": ["regime", "--d", "2.0", "--n", "1.1"],
    "nan-float": ["regime", "--d", "3", "--n", "nan"],
    "no-command": [],
    "no-mub-command": ["mub"],
    "unknown-mub-command": ["mub", "bogus"],
    "single-dash-option": ["regime", "-d", "3", "--n", "1.2"],
}


@pytest.mark.parametrize("args", _USAGE_ERRORS.values(), ids=_USAGE_ERRORS.keys())
def test_a_usage_error_exits_2_without_output(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert "Traceback" not in result.output


# every option of every command, with the default its help shows (None: no default shown)
_FAMILY_HELP = {"--family": "exponential", "--n": None, "--c": "1.0", "--omega": "1.0", "--t-sharp": "1.0"}
_HELP = {
    ("regime",): {"--d": None, "--n": None, "--output": None},
    ("singular-time",): {"--d": None, **_FAMILY_HELP, "--weights": None, "--t-max": None, "--grid": "4001",
                         "--output": None},
    ("measure",): {"--d": None, "--n": None, "--method": "closed", "--samples": "1000000", "--seed": "0",
                   "--output": None},
    ("sweep",): {"--lo": None, "--hi": None, "--n": None, "--method": "closed", "--samples": "1000000",
                 "--seed": "0", "--format": "csv", "--output": None},
    ("evolve",): {"--d": None, **_FAMILY_HELP, "--weights": None, "--state": "max-mixed", "--times": None,
                  "--t-max": "5.0", "--steps": "10", "--output": None},
    ("mub", "verify"): {"--d": None, "--tol": "1e-12", "--input": None, "--export": None, "--output": None},
    ("cp-check",): {"--d": None, **_FAMILY_HELP, "--weights": None, "--t-max": "3.0", "--steps": "30",
                    "--tol": "1e-10", "--output": None},
    ("generator",): {"--d": None, **_FAMILY_HELP, "--t": None, "--h": None, "--weights": None, "--output": None},
}


@pytest.mark.parametrize("command", _HELP, ids=[" ".join(c) for c in _HELP])
def test_help_lists_every_option_with_its_default(runner, command):
    result = runner.invoke(main, [*command, "--help"])
    assert result.exit_code == 0, result.output
    text = " ".join(result.stdout.split())
    for option, default in _HELP[command].items():
        assert f" {option} " in text, option
        if default is not None:
            assert f"[default: {default}]" in text, option
    # --help wins over a value that would not convert
    first = next(iter(_HELP[command]))
    assert runner.invoke(main, [*command, first, "x", "--help"]).stdout == result.stdout


@pytest.mark.parametrize("group, commands", [((), ["regime", "singular-time", "measure", "sweep", "evolve", "mub",
                                                   "cp-check", "generator"]), (("mub",), ["verify"])],
                         ids=["paulimix", "mub"])
def test_group_help_lists_every_command(runner, group, commands):
    result = runner.invoke(main, [*group, "--help"])
    assert result.exit_code == 0, result.output
    listed = {line.split()[0] for line in result.stdout.split("Commands:")[1].splitlines() if line.strip()}
    assert listed == set(commands)
