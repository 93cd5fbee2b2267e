"""Tests of the benchmark itself, on reduced operation lists.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

# one or two cheap operations from each workload's real list
REDUCED = {
    "dense_maps": lambda op: op.label == "evolve d=16",
    "simplex_measure": lambda op: op.label in ("sweep closed", "measure all d=7"),
    "interactive": lambda op: op.label in ("mub verify d=3", "reject regime d=6")
    or op.label.startswith("singular-time cosine d=2"),
}


def _reduced(name: str, seed: int = 3):
    return lambda work: [op for op in workloads.make_ops(name, seed, work) if REDUCED[name](op)]


@pytest.fixture
def runner(tmp_path):
    return run.Runner(tmp_path, deadline=float("inf"))


def _run_and_judge(runner, op: Op, trace: bool = False) -> run.Sample:
    s = runner.run(op, trace=trace)
    runner.judge(s)
    return s


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(name):
    res = run.run_workload(name, seed=3, seconds=0, trace=False, ops_override=_reduced(name))
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.report(res, trace=False)
    text = buf.getvalue()
    assert res["correct"] and res["failed"] == 0, text
    for key, unit in run.END_TO_END.items():
        value = res["metrics"][key]
        assert value > 0, key
        assert f"{name}.{key} = {value!r} {unit}  (" in text


def test_traced_run_reports_every_layer_and_keeps_stdout(tmp_path):
    res = run.run_workload("interactive", seed=3, seconds=0, trace=True,
                           ops_override=_reduced("interactive"))
    assert res["correct"], [(s.op.label, s.reason) for s in res["samples"] if s.status != "ok"]
    assert set(run.PER_LAYER) <= set(res["layers"])
    assert res["layers"]["mub.build_mub.self_s"] > 0
    assert res["layers"]["dynmaps.pf_evals"] > 0


def test_traced_stdout_is_byte_identical(runner, tmp_path):
    ops = workloads.make_ops("interactive", 4, tmp_path)
    picked = [op for op in ops if op.check in ("regime", "mub_verify", "evolve", "singular_time")][::4]
    assert picked
    for op in picked:
        plain = _run_and_judge(runner, op)
        traced = _run_and_judge(runner, op, trace=True)
        assert plain.status == "ok", plain.reason
        assert traced.stdout == plain.stdout, op.label
        names = {span[0] for span in traced.trace["spans"]}
        assert "cli.main" in names and any(n.startswith("cli.") and n != "cli.main" for n in names)


def _small_cp_op() -> Op:
    pf = {"family": "exponential", "n": 1.3, "c": 1.0}
    w = [0.4, 0.35, 0.25]
    return Op("cp-check d=2",
              ["cp-check", "--d", "2", "--n", "1.3", "--weights", "0.4,0.35,0.25", "--steps", "6"],
              "cp_check", {"d": 2, "pf": pf, "w": w, "t_max": 3.0, "steps": 6, "tol": 1e-10})


def test_checker_accepts_real_output_and_rejects_a_corrupted_one(runner):
    op = _small_cp_op()
    s = _run_and_judge(runner, op)
    assert s.status == "ok", s.reason
    payload = json.loads(s.stdout)
    payload["steps"][2]["choi_min_eigenvalue"] += 1e-6
    corrupted = json.dumps(payload).encode()
    status, reason = checker.judge(op.check, op.params, 0, 0, corrupted, b"")
    assert status == "wrong" and "choi_min" in reason
    assert checker.judge(op.check, op.params, 0, 0, s.stdout[: len(s.stdout) // 2], b"")[0] == "wrong"
    assert checker.judge(op.check, op.params, 0, 0, b"[1, 2]", b"")[0] == "wrong"


def test_checker_rejects_exit_code_mismatches():
    op = _small_cp_op()
    trace = b'Traceback (most recent call last):\n  ...\nnumpy._core._exceptions._ArrayMemoryError: x\n'
    assert checker.judge(op.check, op.params, 0, 1, b"", trace) == (
        "failed", "exit 1 (expected 0), _ArrayMemoryError")
    # a refusal that was accepted instead is a wrong result
    status, _ = checker.judge("rejected", {}, 2, 0, b'{"d": 6}', b"")
    assert status == "wrong"
    status, _ = checker.judge("rejected", {}, 2, 1, b"", b"error: no\n")
    assert status == "failed"


def test_repeated_command_with_different_bytes_is_wrong(runner):
    op = _small_cp_op()
    first = _run_and_judge(runner, op)
    assert first.status == "ok", first.reason
    second = runner.run(op)
    second.stdout = first.stdout + b" "
    runner.judge(second)
    assert second.status == "wrong"


def test_inputs_depend_only_on_the_seed(tmp_path):
    dirs = [tmp_path / x for x in "abc"]
    argvs = []
    for seed, work in zip((9, 9, 10), dirs):
        work.mkdir()
        ops = workloads.make_ops("interactive", seed, work)
        argvs.append([[x.replace(str(work), "<work>") for x in op.argv] for op in ops])
    assert argvs[0] == argvs[1] != argvs[2]
    assert (dirs[0] / "state3.json").read_bytes() == (dirs[1] / "state3.json").read_bytes()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interactive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
