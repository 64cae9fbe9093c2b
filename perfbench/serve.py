"""Start ``repro.service`` for the benchmark, optionally with span wrappers.

Usage::

    python3 perfbench/serve.py [--trace-out FILE] -- <python -m repro.service arguments>

With ``--trace-out`` the :mod:`perfbench.tracing` wrappers are installed
before the service's ``main`` runs, so every request, executor hop and
engine call is recorded; after the graceful shutdown (SIGTERM) the spans and
the solver counters are written to ``FILE`` as JSON.  Executor workers,
forked from the service, inherit the wrappers and write their own spans to
``FILE.<pid>`` when the pool shuts them down.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from multiprocessing import util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402,F401 - loads every module the wrappers patch
from repro.service.__main__ import main as service_main  # noqa: E402

from perfbench.tracing import SERVICE_TARGETS, TARGETS, Tracer  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace-out", help="write the recorded spans here on exit")
    parser.add_argument("service_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    service_args = [arg for arg in args.service_args if arg != "--"]
    if args.trace_out is None:
        return service_main(service_args)
    tracer = Tracer()
    tracer.install(TARGETS + SERVICE_TARGETS)

    def in_worker(tracer: Tracer) -> None:
        tracer.restart_in_child()
        path = f"{args.trace_out}.{os.getpid()}"
        util.Finalize(None, _write, args=(tracer, path), exitpriority=10)

    # Runs in each process multiprocessing starts, after it has cleared the
    # finalizers inherited from this one.
    util.register_after_fork(tracer, in_worker)
    try:
        code = service_main(service_args)
    finally:
        tracer.uninstall()
    _write(tracer, args.trace_out)
    return code


def _write(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as out:
        json.dump({"spans": tracer.spans, "solver_work": dict(tracer.solver_work)}, out)


if __name__ == "__main__":
    sys.exit(main())
