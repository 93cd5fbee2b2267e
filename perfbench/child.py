"""One paulimix CLI process, as the harness starts it.

    python3 perfbench/child.py <paulimix arguments...>

It caps its own address space (the cap is in the environment variable
PERFBENCH_AS_LIMIT, in bytes) and then runs ``paulimix.cli.main`` exactly as
the ``paulimix`` console script does. With PERFBENCH_TRACE=<file> set, it
installs the span tracer from ``tracer.py`` between the import and the call
and writes the spans to that file when the process exits.
"""

import os
import resource
import time

limit = int(os.environ.get("PERFBENCH_AS_LIMIT", "0"))
if limit > 0:
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

trace_path = os.environ.get("PERFBENCH_TRACE")
t0 = time.perf_counter()
import paulimix.cli  # noqa: E402  (the import is part of what is measured)

import_s = time.perf_counter() - t0
if trace_path:
    import tracer

    tracer.install(trace_path, import_s).run_cli(paulimix.cli.main)
else:
    paulimix.cli.main(prog_name="paulimix")
