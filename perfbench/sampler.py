"""Host-speed sampler that runs beside the service workload.

Usage::

    python3 perfbench/sampler.py SERVER_PID

Every ``INTERVAL_S`` it times one :func:`perfbench.measure.yardstick_chunk`
and reads the CPU time of the server and its executor workers, printing
``start duration cpu_seconds`` (``time.perf_counter`` seconds, comparable
across processes on Linux) per line until its standard input closes.  Running in its own process, its
samples are not stretched by the load generator's threads holding the GIL.
"""

from __future__ import annotations

import select
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.measure import tree_cpu_seconds, yardstick_chunk  # noqa: E402

INTERVAL_S = 0.1


def main() -> int:
    pid = int(sys.argv[1])
    while True:
        started = time.perf_counter()
        duration = yardstick_chunk()
        print(f"{started:.6f} {duration:.6f} {tree_cpu_seconds(pid):.2f}", flush=True)
        readable, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if readable and not sys.stdin.read(1):
            return 0


if __name__ == "__main__":
    sys.exit(main())
