"""What a process loads: each command imports only the modules it reads.

Every CLI call is a fresh process, so the modules a command imports are
part of its run time. These tests run each command in a child interpreter
and read ``sys.modules`` after it. Importing the package itself loads no
submodule, and each public name lives in the module that defines it.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import paulimix
from paulimix.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# runs argv[2:] as the paulimix CLI, then writes its exit code and sys.modules to argv[1]
_PROBE = """
import json, sys
from paulimix.cli import main
try:
    main(sys.argv[2:], prog_name="paulimix")
    code = 0
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules)}, fh)
"""


def _python(code, *args):
    """Runs ``code`` in a fresh interpreter that imports paulimix from this tree."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, check=True, timeout=60)


def _run_isolated(args, tmp_path):
    """(exit code, loaded module names) of one CLI call in a fresh interpreter."""
    report = tmp_path / "report.json"
    _python(_PROBE, str(report), *args)
    doc = json.loads(report.read_text())
    return doc["code"], set(doc["modules"])


_WEIGHTS = "0.3,0.3,0.2,0.2"

# command -> (argv, exit code)
WITHOUT_MUB = {
    "cp-check": (["cp-check", "--d", "3", "--n", "1.5", "--weights", _WEIGHTS, "--steps", "3"], 0),
    "generator": (["generator", "--d", "3", "--n", "1.5", "--t", "0.5", "--weights", _WEIGHTS], 0),
    "singular-time": (["singular-time", "--d", "3", "--n", "1.5", "--weights", _WEIGHTS], 0),
}
WITHOUT_NUMPY = {
    "regime": (["regime", "--d", "7", "--n", "1.03"], 0),
    "regime-refused": (["regime", "--d", "6", "--n", "1.1"], 2),
    "measure-closed": (["measure", "--d", "7", "--n", "1.1", "--method", "closed"], 0),
    "measure-quadrature": (["measure", "--d", "7", "--n", "1.1", "--method", "quadrature"], 0),
    "sweep-closed": (["sweep", "--lo", "7", "--hi", "32", "--n", "1.03", "--method", "closed"], 0),
    "sweep-quadrature": (["sweep", "--lo", "7", "--hi", "32", "--n", "1.03", "--method", "quadrature"], 0),
    "usage-error": (["measure", "--d", "seven", "--n", "1.1"], 2),
    **WITHOUT_MUB,
    "single-map-generator": (["generator", "--d", "2", "--n", "3", "--t", "0.5"], 0),
    "cosine-singular-time": (
        ["singular-time", "--d", "4", "--family", "cosine", "--weights", "0.1,0.2,0.3,0.2,0.2"], 0),
    "evolve-weight-count": (["evolve", "--d", "3", "--n", "2.0", "--weights", "0.5,0.5"], 2),
    # a MUB or maximally mixed state is dephased in closed form, without a basis
    "evolve-max-mixed": (["evolve", "--d", "3", "--n", "1.5", "--weights", _WEIGHTS, "--steps", "2"], 0),
    "evolve-mub-state": (
        ["evolve", "--d", "8", "--n", "1.1", "--weights", ",".join(["0.1"] * 7 + ["0.15"] * 2), "--state", "mub:3:5"],
        0),
    # a --d set is verified from its integer tables, without its float array
    "mub-verify": (["mub", "verify", "--d", "3"], 0),
    "mub-verify-d8": (["mub", "verify", "--d", "8"], 0),
}


@pytest.mark.parametrize("args, code", WITHOUT_NUMPY.values(), ids=WITHOUT_NUMPY.keys())
def test_light_commands_never_import_numpy(tmp_path, args, code):
    got, modules = _run_isolated(args, tmp_path)
    assert got == code
    assert "numpy" not in modules
    assert "paulimix.oracle" not in modules


@pytest.mark.parametrize("args, code", WITHOUT_MUB.values(), ids=WITHOUT_MUB.keys())
def test_eigenvalue_commands_never_import_the_bases(tmp_path, args, code):
    got, modules = _run_isolated(args, tmp_path)
    assert got == code
    assert "paulimix.mub" not in modules
    assert "paulimix.dynmaps" in modules


_EIGENVALUE_COMMANDS = {
    **WITHOUT_MUB,
    "single-map-generator": WITHOUT_NUMPY["single-map-generator"],
    "cosine-singular-time": WITHOUT_NUMPY["cosine-singular-time"],
}


# g(d, n) is computed in Python ints: importing fractions alone costs about 3 ms
_RATIONAL_MODULES = {"fractions", "decimal", "_decimal", "_pydecimal"}


@pytest.mark.parametrize("args, code", _EIGENVALUE_COMMANDS.values(), ids=_EIGENVALUE_COMMANDS.keys())
def test_eigenvalue_commands_never_load_the_measure(tmp_path, args, code):
    got, modules = _run_isolated(args, tmp_path)
    assert got == code
    assert "paulimix.measure" not in modules
    assert "paulimix.threshold" in modules
    assert not modules & _RATIONAL_MODULES


# one call of every command, its help, a usage error, and no command at all
EVERY_COMMAND = {
    **WITHOUT_NUMPY,
    "measure-mc": (["measure", "--d", "3", "--n", "1.2", "--method", "mc", "--samples", "100"], 0),
    "evolve": (["evolve", "--d", "3", "--n", "1.5", "--weights", _WEIGHTS, "--steps", "2"], 0),
    "help": (["--help"], 0),
    "command-help": (["cp-check", "--help"], 0),
    "unknown-option": (["regime", "--d", "7", "--bogus", "1"], 2),
    "no-command": ([], 2),
}


# every command that never imports numpy, its help, and the refusals
NUMPY_FREE = {
    **WITHOUT_NUMPY,
    "help": (["--help"], 0),
    "command-help": (["cp-check", "--help"], 0),
    "no-command": ([], 2),
}


@pytest.mark.parametrize("args, code", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
def test_commands_without_numpy_never_load_dataclasses(tmp_path, args, code):
    # the stdlib dataclasses module imports inspect, ast, dis and tokenize, and
    # each @dataclass compiles its methods with exec: about 20 ms of start-up
    got, modules = _run_isolated(args, tmp_path)
    assert got == code
    assert not modules & {"dataclasses", "inspect"}


REGIME = {
    "regime": (["regime", "--d", "7", "--n", "1.03"], 0),
    "regime-refused-d": (["regime", "--d", "6", "--n", "1.1"], 2),
    "regime-refused-n": (["regime", "--d", "7", "--n", "0.5"], 2),
}


@pytest.mark.parametrize("args, code", REGIME.values(), ids=REGIME.keys())
def test_regime_loads_only_the_threshold(tmp_path, args, code):
    got, modules = _run_isolated(args, tmp_path)
    assert got == code
    assert not modules & ({"paulimix.measure", "paulimix.dynmaps"} | _RATIONAL_MODULES)
    loaded = {m for m in modules if m.startswith("paulimix.")}
    assert loaded <= {"paulimix.cli", "paulimix.errors", "paulimix.threshold", "paulimix.finite_field",
                      "paulimix.serialization"}


@pytest.mark.parametrize("args, code", EVERY_COMMAND.values(), ids=EVERY_COMMAND.keys())
def test_no_command_loads_click(tmp_path, args, code):
    got, modules = _run_isolated(args, tmp_path)
    assert got == code
    assert not {m for m in modules if m == "click" or m.startswith("click.")}


def test_the_console_entry_point_reads_argv():
    out = _python("from paulimix.cli import main; main()", "regime", "--d", "7", "--n", "1.03")
    assert json.loads(out.stdout)["classification"] == "intermediate_noninvertible"


def _state_file(tmp_path):
    """A qutrit state file, the one kind of evolve state that reads the bases."""
    path = tmp_path / "rho.json"
    path.write_text(json.dumps([[[0.5, 0], [0, 0.25], [0, 0]], [[0, -0.25], [0.5, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]))
    return str(path)


def test_eigenvalue_commands_never_ask_for_a_basis(monkeypatch, tmp_path):
    from paulimix import mub

    calls = []
    for name in ("cached_mub", "build_mub"):
        real = getattr(mub, name)
        monkeypatch.setattr(mub, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    for args, code in WITHOUT_MUB.values():
        assert CliRunner().invoke(main, args).exit_code == code
    assert calls == []
    # the probe sees the commands that do read a basis
    evolve = ["evolve", "--d", "3", "--n", "1.5", "--weights", _WEIGHTS, "--state", _state_file(tmp_path)]
    assert CliRunner().invoke(main, evolve).exit_code == 0
    assert "cached_mub" in calls


# prints the OpenBLAS thread count the environment holds once paulimix.cli is imported
_BLAS_PROBE = """
import os, paulimix.cli
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("2", "2")])
def test_the_cli_starts_openblas_with_one_thread_unless_told_otherwise(monkeypatch, preset, seen):
    if preset is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", preset)
    assert _python(_BLAS_PROBE).stdout.decode().strip() == seen


def test_mub_verify_loads_no_map_or_measure_module(tmp_path):
    code, modules = _run_isolated(["mub", "verify", "--d", "5"], tmp_path)
    assert code == 0
    assert "paulimix.mub" in modules
    assert not modules & {"paulimix.dynmaps", "paulimix.invertibility", "paulimix.measure", "paulimix.oracle"}


def test_mub_verify_loads_numpy_to_write_or_read_the_bases(tmp_path):
    export = str(tmp_path / "mub5.json")
    for args in (["mub", "verify", "--d", "5", "--export", export], ["mub", "verify", "--input", export]):
        code, modules = _run_isolated(args, tmp_path)
        assert code == 0
        assert "numpy" in modules


def test_evolve_reads_the_bases_but_never_loads_the_dense_oracle(tmp_path):
    evolve = ["evolve", "--d", "3", "--n", "1.5", "--weights", _WEIGHTS, "--state", _state_file(tmp_path)]
    code, modules = _run_isolated(evolve, tmp_path)
    assert code == 0
    assert "paulimix.mub" in modules
    assert "paulimix.oracle" not in modules


def test_the_cli_alone_loads_no_other_submodule(tmp_path):
    code, modules = _run_isolated(["--help"], tmp_path)
    assert code == 0
    assert {m for m in modules if m.startswith("paulimix.")} == {"paulimix.cli", "paulimix.errors"}


# every public name of the package, by the module that defines it
EXPORTS = {
    "dynmaps": [
        "Cosine", "DecoherenceFunction", "Exponential", "MixtureMap", "Plateau", "generator_rates",
        "mixture_map", "validate_density_matrix",
    ],
    "errors": [
        "ComputationError", "NegativeTimeError", "NonHermitianError",
        "NotPrimePowerError", "PaulimixError", "RateSingularError",
        "RegimeMismatchError", "SingularAtGridPointError", "SingularAtTimeError",
        "ValidationError",
    ],
    "finite_field": [
        "GaloisField", "PrimePowerDim", "factor_prime_power", "find_irreducible",
        "galois_field", "is_prime_power",
    ],
    "invertibility": [
        "Classification", "InvertibilityReport", "PropagatorStep", "analytic_singularity_report",
        "cp_divisibility_check", "numeric_singularity_scan", "output_invertible",
    ],
    "measure": [
        "MeasureResult", "SweepRow", "delta_closed_form", "delta_monte_carlo", "delta_quadrature",
        "prime_powers_in", "sweep", "sweep_dimensions",
    ],
    "mub": [
        "MubSet", "MubVerification", "build_mub", "cached_mub", "verify_mub",
    ],
    "oracle": [
        "DualMapResult", "KrausSet", "is_cp", "kraus_dagger_dual", "numeric_generator", "phase_unitaries",
        "random_density_matrix", "superoperator", "to_choi", "unvec", "vec",
    ],
    "threshold": ["Regime", "RegimeKind", "classify_regime", "weight_threshold"],
}


def test_every_public_name_is_defined_by_its_module():
    for module, names in EXPORTS.items():
        defined = importlib.import_module(f"paulimix.{module}")
        for name in names:
            assert getattr(defined, name).__module__ == defined.__name__, name


def test_importing_the_package_loads_no_submodule():
    assert paulimix.__version__ == "0.1.0"
    out = _python("import json, sys, paulimix; print(json.dumps(sorted(sys.modules)))")
    assert not any(m.startswith("paulimix.") for m in json.loads(out.stdout))
