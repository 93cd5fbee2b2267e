#!/usr/bin/env python3
"""paulimix benchmark: closed-loop CLI workloads whose outputs are checked.

One client runs the workload's operations one after another, each as a
fresh ``paulimix`` process (import included, as every user invocation pays
it), and checks every output against references computed here.

    python3 perfbench/run.py --workload dense_maps --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --all --seed 1            # every workload, exit 1 on a wrong output

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` every operation runs once untraced and once under the span
tracer, and the last line holds the per-layer metrics. See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

CHILD = HERE / "child.py"
# address-space cap every child sets on itself before it imports anything
CHILD_AS_LIMIT = int(1.5 * 2**30)
SETUP_REPEATS = 5
OP_TIMEOUT_S = 120.0
# no new operation starts after this many seconds, so a run ends within 180 s
RUN_BUDGET_S = 150.0
TAIL_LADDER = (0.999, 0.99, 0.95, 0.9, 0.75, 0.5)

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "slowest_op_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

# name -> (unit, how it is obtained)
PER_LAYER = {
    "cli.import_s": ("s", "measured"),
    "cli.self_s": ("s", "measured"),
    "finite_field.galois_field.self_s": ("s", "measured"),
    "finite_field.gf_ops": ("count", "measured"),
    "mub.build_mub.self_s": ("s", "measured"),
    "mub.verify_mub.self_s": ("s", "measured"),
    "mub.build_unitaries.self_s": ("s", "measured"),
    "mub.cache_hit_ratio": ("ratio", "measured"),
    "dynmaps.superoperator.self_s": ("s", "measured"),
    "dynmaps.superoperator.calls": ("count", "measured"),
    "dynmaps.numeric_generator.self_s": ("s", "measured"),
    "dynmaps.generator_rates.self_s": ("s", "measured"),
    "dynmaps.apply.self_s": ("s", "measured"),
    "dynmaps.superop_bytes": ("bytes", "computed"),
    "dynmaps.pf_evals": ("count", "measured"),
    "invertibility.cp_divisibility_check.self_s": ("s", "measured"),
    "invertibility.cp_steps": ("count", "measured"),
    "invertibility.numeric_singularity_scan.self_s": ("s", "measured"),
    "invertibility.analytic_singularity_report.self_s": ("s", "measured"),
    "measure.delta_quadrature.self_s": ("s", "measured"),
    "measure.delta_quadrature.failed": ("count", "measured"),
    "measure.quadrature_nodes": ("count", "computed"),
    "measure.peak_alloc_mb": ("MB", "measured"),
    "measure.delta_monte_carlo.self_s": ("s", "measured"),
    "measure.mc_samples_per_s": ("1/s", "measured"),
    "serialization.dumps_canonical.self_s": ("s", "measured"),
    "serialization.bytes_out": ("bytes", "measured"),
    "serialization.pairs_to_complex_matrix.self_s": ("s", "measured"),
    "trace.wall_s": ("s", "measured"),
    "trace.overhead_s": ("s", "measured"),
}


@dataclass
class Sample:
    op: Op
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    killed: bool
    trace: dict | None = None
    status: str = "unchecked"  # then "ok" | "failed" | "wrong"
    reason: str = ""


# --- child processes ------------------------------------------------------------------


def spawn(argv: list[str], env: dict, out: Path, err: Path, timeout: float):
    """Run one child; return (exit code, wall s, cpu s, max RSS MB, timed out).

    CPU time and max-RSS come from wait4 on this child alone; RUSAGE_CHILDREN
    would fold every earlier child into a running maximum.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    killed = threading.Event()
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)

    def _kill() -> None:
        killed.set()
        os.kill(pid, signal.SIGKILL)

    timer = threading.Timer(max(timeout, 0.1), _kill)
    timer.start()
    try:
        _, status, ru = os.wait4(pid, 0)
    except BaseException:
        # interrupted (SIGTERM, Ctrl-C): leave no child behind
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    return code, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, killed.is_set()


class Runner:
    """Runs operations as child processes; checks their outputs afterwards.

    Checking waits until the timed loop is over, so that the checker's own
    numpy work never competes with a timed child for the CPUs.
    """

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env["PERFBENCH_AS_LIMIT"] = str(CHILD_AS_LIMIT)
        self.env.pop("PERFBENCH_TRACE", None)
        self.seen: dict[tuple, str] = {}  # argv -> sha256 of the first stdout
        self.n = 0

    def run(self, op: Op, trace: bool = False) -> Sample:
        self.n += 1
        out, err = self.workdir / f"{self.n}.out", self.workdir / f"{self.n}.err"
        env = self.env
        trace_path = self.workdir / f"{self.n}.trace.json"
        if trace:
            env = dict(env, PERFBENCH_TRACE=str(trace_path))
        timeout = min(OP_TIMEOUT_S, self.deadline + 25.0 - time.perf_counter())
        code, wall, cpu, rss, killed = spawn(
            [sys.executable, str(CHILD), *op.argv], env, out, err, timeout
        )
        doc = None
        if trace and trace_path.exists():
            doc = json.loads(trace_path.read_text())
        return Sample(op, wall, cpu, rss, code, out.read_bytes(), err.read_bytes(), killed, doc)

    def judge(self, s: Sample) -> None:
        """Check one output, and that a repeated command printed the same bytes."""
        if s.killed:
            s.status, s.reason = "failed", "killed at the time limit"
            return
        s.status, s.reason = checker.judge(
            s.op.check, s.op.params, s.op.expect_exit, s.code, s.stdout, s.stderr
        )
        if s.status == "ok" and s.code == 0:
            digest = hashlib.sha256(s.stdout).hexdigest()
            if self.seen.setdefault(tuple(s.op.argv), digest) != digest:
                s.status, s.reason = "wrong", "stdout differs from an earlier run of the same command"


# --- metrics ----------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it (nearest rank).

    With fewer than 20 samples no percentile qualifies, and the median
    (as in op_p50_s) is reported with percentile 0.5.
    """
    xs = sorted(values)
    n = len(xs)
    for q in TAIL_LADDER:
        k = math.ceil(q * n)
        if n - k >= 10:
            return xs[k - 1], q
    return statistics.median(xs), 0.5


def end_to_end(setups: list[float], passes: list[list[Sample]]) -> tuple[dict, dict]:
    samples = [s for p in passes for s in p]
    full = [p for p in passes if len(p) == len(passes[0])] or passes
    walls = [s.wall for s in samples]
    by_cmd: dict[tuple, list[float]] = defaultdict(list)
    for s in samples:
        by_cmd[tuple(s.op.argv)].append(s.wall)
    tail_value, tail_q = tail(walls)
    ok = sum(s.status == "ok" for s in samples)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(s.wall for s in p) for p in full),
        "cpu_s": statistics.median(sum(s.cpu for s in p) for p in full),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail_value,
        "slowest_op_s": max(statistics.median(v) for v in by_cmd.values()),
        "peak_rss_mb": max(s.rss_mb for s in samples),
        "ok_frac": ok / len(samples),
    }
    notes = {
        "samples": len(samples),
        "passes": len(passes),
        "setup_repeats": len(setups),
        "op_tail_percentile": tail_q,
        "failed_frac": 1.0 - ok / len(samples),
    }
    return metrics, notes


def self_times(spans: list) -> list[float]:
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def per_layer(traced: list[Sample], untraced_wall: float, traced_wall: float, n_passes: int):
    """Per-layer metrics (per pass unless noted) and the MUB cache lookup count."""
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    errors: dict[str, int] = defaultdict(int)
    totals: dict[str, float] = defaultdict(float)
    peak_alloc = 0
    hits = misses = 0
    imports = []
    for s in traced:
        doc = s.trace
        if doc is None:
            continue
        imports.append(doc["import_s"])
        for span, own in zip(doc["spans"], self_times(doc["spans"])):
            name = span[0]
            self_s[name] += own
            incl_s[name] += span[2] - span[1]
            calls[name] += 1
            errors[name] += span[4] is not None
        for key, v in {**doc["counts"], **doc["extra"]}.items():
            totals[key] += v
        peak_alloc = max(peak_alloc, doc["extra"]["measure.peak_alloc_bytes"])
        for key in ("mub.cached_mub", "mub.cached_unitaries"):
            key_hits, key_misses = doc["caches"].get(key, (0, 0))
            hits, misses = hits + key_hits, misses + key_misses
    per = max(n_passes, 1)
    m: dict[str, float] = {}
    for name in PER_LAYER:
        base, _, field = name.rpartition(".")
        if field == "self_s" and base != "cli":
            m[name] = self_s[base] / per
    m["cli.import_s"] = statistics.median(imports) if imports else 0.0
    m["cli.self_s"] = sum(v for k, v in self_s.items() if k.startswith("cli.")) / per
    m["dynmaps.superoperator.calls"] = calls["dynmaps.superoperator"] / per
    m["measure.delta_quadrature.failed"] = errors["measure.delta_quadrature"] / per
    m["mub.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m["measure.peak_alloc_mb"] = peak_alloc / 2**20
    mc_time = incl_s["measure.delta_monte_carlo"]
    m["measure.mc_samples_per_s"] = totals["measure.mc_samples"] / mc_time if mc_time else 0.0
    for key in ("finite_field.gf_ops", "dynmaps.pf_evals", "dynmaps.superop_bytes",
                "invertibility.cp_steps", "measure.quadrature_nodes", "serialization.bytes_out"):
        m[key] = float(totals[key]) / per
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m, hits + misses


# --- environment ------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes

    import numpy

    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        return ref
    return ref


def environment(seed: int) -> dict:
    from importlib import metadata

    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                            if k in os.environ},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "seed": seed,
        "child_as_limit_bytes": CHILD_AS_LIMIT,
    }


# --- one workload -----------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, ops_override=None) -> dict:
    """Set up, run whole passes until ``seconds`` have elapsed, and check every output."""
    start_all = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(work, start_all + RUN_BUDGET_S)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            ops = ops_override(work) if ops_override else workloads.make_ops(name, seed, work)
            runner.run(workloads.warmup_op(name, seed))
            setups.append(time.perf_counter() - t0)
        passes: list[list[Sample]] = []
        traced_passes: list[list[Sample]] = []
        t_start = time.perf_counter()
        last_pass = 0.0
        # whole passes only; another one starts while it is expected to end
        # no later than half a pass after the measuring time
        while not passes or time.perf_counter() - t_start + 0.5 * last_pass <= seconds:
            pass_start = time.perf_counter()
            cur, cur_traced = [], []
            for op in ops:
                if time.perf_counter() > runner.deadline:
                    break
                cur.append(runner.run(op))
                if trace:
                    cur_traced.append(runner.run(op, trace=True))
            passes.append(cur)
            traced_passes.append(cur_traced)
            last_pass = time.perf_counter() - pass_start
            if time.perf_counter() > runner.deadline:
                break
        for p, tp in zip(passes, traced_passes):
            for s in p:
                runner.judge(s)
            for s, t in zip(p, tp):
                runner.judge(t)
                if t.status == "ok" and t.stdout != s.stdout:
                    t.status, t.reason = "wrong", "traced stdout differs from the untraced run"
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's directory
            work.parent.rmdir()

    metrics, notes = end_to_end(setups, passes)
    samples = [s for p in passes for s in p] + [s for p in traced_passes for s in p]
    result = {
        "workload": name,
        "metrics": metrics,
        "notes": notes,
        "attempted": len(samples),
        "failed": sum(s.status != "ok" for s in samples),
        "correct": not any(s.status == "wrong" for s in samples),
        "samples": samples,
        "elapsed_s": time.perf_counter() - start_all,
    }
    if trace:
        traced_metrics, _ = end_to_end(setups, traced_passes)
        result["layers"], result["cache_lookups"] = per_layer(
            [s for p in traced_passes for s in p],
            metrics["wall_s"], traced_metrics["wall_s"], len(traced_passes),
        )
    return result


# --- reporting ----------------------------------------------------------------------------


def report(res: dict, trace: bool) -> None:
    name = res["workload"]
    notes = res["notes"]
    print(f"== {name}: {notes['samples']} operations in {notes['passes']} pass(es), "
          f"{res['elapsed_s']:.1f} s, closed loop with one client")
    n, passes = notes["samples"], notes["passes"]
    how = {
        "setup_s": f"median of {notes['setup_repeats']} set-ups",
        "wall_s": f"median of {passes} passes",
        "cpu_s": f"median of {passes} passes",
        "op_p50_s": f"{n} samples",
        "op_tail_s": f"p{100 * notes['op_tail_percentile']:g} of {n} samples",
        "slowest_op_s": f"per-command medians over {passes} passes",
        "peak_rss_mb": f"max over {n} children",
        "ok_frac": f"failed_frac {notes['failed_frac']:.6g}; {res['failed']} of {res['attempted']} failed",
    }
    for key, unit in END_TO_END.items():
        print(f"{name}.{key} = {res['metrics'][key]!r} {unit}  ({how[key]})")
    if trace:
        layers = res["layers"]
        for key, (unit, how) in PER_LAYER.items():
            extra = f"  (base {res['cache_lookups']} lookups)" if key == "mub.cache_hit_ratio" else ""
            print(f"{name}.{key} = {layers[key]!r} {unit} [{how}]{extra}")
    failures: dict[str, list[str]] = defaultdict(list)
    for s in res["samples"]:
        if s.status != "ok":
            failures[s.op.label].append(f"{s.status}: {s.reason}")
    for label, reasons in failures.items():
        print(f"FAILED {name} '{label}' x{len(reasons)}: {reasons[0]}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "paulimix" / "cli.py").is_file():
        print(f"error: no paulimix source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if bool(args.all) == bool(args.workload):
        ap.error("give exactly one of --workload and --all")
    trace = bool(args.trace)
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    names = WORKLOADS if args.all else (args.workload,)
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, trace)
        report(res, trace)
        results.append(res)
        sys.stdout.flush()
    correct = all(r["correct"] for r in results)
    if args.all:
        metrics = {f"{r['workload']}.{k}": {"value": v, "unit": END_TO_END[k]}
                   for r in results for k, v in r["metrics"].items()}
    elif trace:
        metrics = {k: {"value": results[0]["layers"][k], "unit": u} for k, (u, _) in PER_LAYER.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in results[0]["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 1 if args.all and not correct else 0


if __name__ == "__main__":
    sys.exit(main())
