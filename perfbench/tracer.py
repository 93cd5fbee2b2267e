"""Span tracer for one paulimix process, installed from outside the package.

``install`` wraps, by replacing module and class attributes:

* every public function (and ``lru_cache`` function) defined in the layer
  modules below, and every copy of it that another paulimix module imported
  under its own name (``paulimix.cli`` re-binds most of them);
* the methods ``MixtureMap.superoperator`` and ``MixtureMap.apply``;
* every CLI command callback, plus a root span around ``paulimix.cli.main``.

Each wrapped call records a span [name, start, end, parent, error]. The hot
scalar methods ``DecoherenceFunction.value`` and ``GaloisField.add/mul/trace``
are only counted. Calls into ``measure`` run under tracemalloc so their peak
allocation can be reported. Spans stay in memory and are written once, as
one JSON document, when the process exits. Nothing is printed, so stdout is
the same as without the tracer.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
import sys
import time
import tracemalloc

LAYERS = ("finite_field", "mub", "dynmaps", "invertibility", "measure", "serialization")
# called once per float inside dumps_canonical; its time stays in the caller
SKIP = {"serialization.format_float"}
CACHES = ("finite_field.galois_field", "mub.cached_mub", "mub.cached_unitaries")


class Tracer:
    def __init__(self, path: str, import_s: float) -> None:
        self.path = path
        self.import_s = import_s
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts = {"dynmaps.pf_evals": 0, "finite_field.gf_ops": 0}
        self.extra = {
            "dynmaps.superop_bytes": 0,
            "measure.quadrature_nodes": 0,
            "measure.mc_samples": 0,
            "measure.peak_alloc_bytes": 0,
            "invertibility.cp_steps": 0,
            "serialization.bytes_out": 0,
        }
        self.cache_fns: dict = {}
        self._maps_seen: set[int] = set()

    def wrap(self, name: str, fn, before=None, after=None):
        tracer = self
        spans, stack = self.spans, self.stack
        watch_alloc = name.startswith("measure.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            own_alloc = watch_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[4] = type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if own_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = "measure.peak_alloc_bytes"
                    tracer.extra[key] = max(tracer.extra[key], peak)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def count(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that record the counters named in the per-layer report --

    def _add(self, key: str, amount: int) -> None:
        self.extra[key] += amount

    def _superop_bytes(self, args, kwargs) -> None:
        m = args[0]
        if id(m) not in self._maps_seen:
            self._maps_seen.add(id(m))
            self._add("dynmaps.superop_bytes", 16 * m.d**4)  # complex128 d^2 x d^2

    def _quadrature_nodes(self, args, kwargs) -> None:
        d = kwargs.get("d", args[0] if args else None)
        order = kwargs.get("order", args[2] if len(args) > 2 else None)
        if order is None:
            order = max(4, d // 2 + 2)  # the default order delta_quadrature uses
        self._add("measure.quadrature_nodes", order ** (d - 1))

    def _mc_samples(self, args, kwargs) -> None:
        self._add("measure.mc_samples", kwargs.get("samples", args[2] if len(args) > 2 else 0))

    def write(self) -> None:
        doc = {
            "import_s": self.import_s,
            "spans": self.spans,
            "counts": self.counts,
            "extra": self.extra,
            "caches": {k: [fn.cache_info().hits, fn.cache_info().misses] for k, fn in self.cache_fns.items()},
        }
        with open(self.path, "w") as fh:
            json.dump(doc, fh)

    def run_cli(self, main) -> None:
        atexit.register(self.write)
        self.wrap("cli.main", main)(prog_name="paulimix")


def _commands(group, prefix=""):
    for name, cmd in group.commands.items():
        if hasattr(cmd, "commands"):
            yield from _commands(cmd, f"{prefix}{name}.")
        else:
            yield f"{prefix}{name}", cmd


def install(path: str, import_s: float) -> Tracer:
    t = Tracer(path, import_s)
    cli = importlib.import_module("paulimix.cli")
    dynmaps = importlib.import_module("paulimix.dynmaps")
    finite_field = importlib.import_module("paulimix.finite_field")

    before = {
        "measure.delta_quadrature": t._quadrature_nodes,
        "measure.delta_monte_carlo": t._mc_samples,
    }
    after = {
        "invertibility.cp_divisibility_check": lambda a, k, r: t._add("invertibility.cp_steps", len(r)),
        "serialization.dumps_canonical": lambda a, k, r: t._add("serialization.bytes_out", len(r.encode())),
    }
    replaced: dict[int, tuple] = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"paulimix.{layer}")
        for name, obj in list(vars(mod).items()):
            key = f"{layer}.{name}"
            if name.startswith("_") or key in SKIP or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
                if key in CACHES:
                    t.cache_fns[key] = obj
                replaced[id(obj)] = (obj, t.wrap(key, obj, before.get(key), after.get(key)))
    for modname, mod in list(sys.modules.items()):
        if modname == "paulimix" or modname.startswith("paulimix."):
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    mm = dynmaps.MixtureMap
    mm.superoperator = t.wrap("dynmaps.superoperator", mm.superoperator, t._superop_bytes)
    mm.apply = t.wrap("dynmaps.apply", mm.apply)
    df = dynmaps.DecoherenceFunction
    df.value = t.count("dynmaps.pf_evals", df.value)
    gf = finite_field.GaloisField
    for meth in ("add", "mul", "trace"):
        setattr(gf, meth, t.count("finite_field.gf_ops", getattr(gf, meth)))
    for name, cmd in _commands(cli.main):
        cmd.callback = t.wrap(f"cli.{name}", cmd.callback)

    return t
