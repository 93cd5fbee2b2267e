"""What a process loads: each command imports only the modules it reads.

Every CLI call is a fresh process, so the modules a command imports are
part of its run time. These tests run each command in a child interpreter
and read ``sys.modules`` after it, and check the lazily resolved package
names.
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


def test_eigenvalue_commands_never_ask_for_a_basis(monkeypatch):
    from paulimix import mub

    calls = []
    for name in ("cached_mub", "build_mub"):
        real = getattr(mub, name)
        monkeypatch.setattr(mub, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
    for args, code in WITHOUT_MUB.values():
        assert CliRunner().invoke(main, args).exit_code == code
    assert calls == []
    # the probe sees the commands that do read a basis
    assert CliRunner().invoke(main, ["evolve", "--d", "3", "--n", "1.5", "--weights", _WEIGHTS]).exit_code == 0
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


def test_evolve_reads_the_bases_but_never_loads_the_dense_oracle(tmp_path):
    code, modules = _run_isolated(["evolve", "--d", "3", "--n", "1.5", "--weights", _WEIGHTS], tmp_path)
    assert code == 0
    assert "paulimix.mub" in modules
    assert "paulimix.oracle" not in modules


def test_the_cli_alone_loads_no_other_submodule(tmp_path):
    code, modules = _run_isolated(["--help"], tmp_path)
    assert code == 0
    assert {m for m in modules if m.startswith("paulimix.")} == {"paulimix.cli", "paulimix.errors"}


# every public name of the package, by defining module
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
        "MeasureResult", "Regime", "RegimeKind", "SweepRow", "Threshold", "classify_regime",
        "delta_closed_form", "delta_monte_carlo", "delta_quadrature", "g_threshold",
        "normalization_check", "prime_powers_in", "sample_simplex", "sweep", "sweep_dimensions",
    ],
    "mub": [
        "MubSet", "MubVerification", "build_mub", "cached_mub", "verify_mub",
    ],
    "oracle": [
        "DualMapResult", "KrausSet", "is_cp", "kraus_dagger_dual", "numeric_generator", "phase_unitaries",
        "random_density_matrix", "superoperator", "to_choi", "unvec", "vec",
    ],
}


def test_every_public_name_resolves_to_its_module_object():
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(paulimix, name) is getattr(importlib.import_module(f"paulimix.{module}"), name), name
            assert name in dir(paulimix), name


def test_the_package_lists_exactly_its_public_names():
    names = sorted(n for names in EXPORTS.values() for n in names)
    assert sorted(paulimix.__all__) == names
    assert paulimix.__version__ == "0.1.0"
    # dir() lists every name before any is resolved, and listing imports nothing
    out = _python("import json, sys, paulimix; print(json.dumps([dir(paulimix), sorted(sys.modules)]))")
    listed, modules = json.loads(out.stdout)
    assert set(names) <= set(listed)
    assert not any(m.startswith("paulimix.") for m in modules)


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        paulimix.no_such_name
