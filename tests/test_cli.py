import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from paulimix import measure as measure_mod
from paulimix.cli import main
from paulimix.dynmaps import random_density_matrix
from paulimix.serialization import complex_matrix_to_pairs, pairs_to_complex_matrix


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


def test_sweep_json_format(runner):
    payload = run_ok(runner, ["sweep", "--lo", "7", "--hi", "9", "--n", "1.05", "--format", "json"])
    assert [row["d"] for row in payload["rows"]] == [7, 8, 9]


def test_sweep_regime_mismatch_exits_1(runner):
    result = runner.invoke(main, ["sweep", "--lo", "2", "--hi", "3", "--n", "1.03"])
    assert result.exit_code == 1
    assert "d=2" in result.stderr and "d=3" in result.stderr


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


def test_wrong_weight_count_rejected(runner):
    result = runner.invoke(main, ["evolve", "--d", "3", "--n", "1.5", "--weights", "0.5,0.5"])
    assert result.exit_code == 2


def test_byte_identical_reruns(runner):
    args = ["measure", "--d", "2", "--n", "1.5", "--method", "all",
            "--samples", "50000", "--seed", "21"]
    first = runner.invoke(main, args, catch_exceptions=False).stdout
    second = runner.invoke(main, args, catch_exceptions=False).stdout
    assert first == second
    sweep_args = ["sweep", "--lo", "7", "--hi", "32", "--n", "1.03"]
    assert runner.invoke(main, sweep_args).stdout == runner.invoke(main, sweep_args).stdout


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
