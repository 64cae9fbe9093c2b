"""Timing helpers shared by every workload: quantiles, host speed, memory."""

from __future__ import annotations

import gc
import os
import resource
import time
from typing import Sequence


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile of ``values`` (linear interpolation, inclusive)."""
    if not values:
        raise ValueError("quantile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class _Probe:
    __slots__ = ("key", "value")

    def __init__(self, key: object, value: int) -> None:
        self.key = key
        self.value = value


def yardstick_chunk(iterations: int = 1500) -> float:
    """Seconds taken by a fixed slice of pure-Python work (GC paused).

    The work mimics what the deciders spend their time on -- tuple keys,
    string formatting, dict and set updates, small objects, short sorts --
    but calls nothing in ``repro``, so no change to the program can move it.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        counts: dict[tuple[int, str, int], int] = {}
        seen: set[frozenset[int]] = set()
        objects: list[_Probe] = []
        for i in range(iterations):
            key = (i % 97, "k%d" % (i % 53), i % 7)
            counts[key] = counts.get(key, 0) + 1
            seen.add(frozenset((key[0], key[2])))
            objects.append(_Probe(key, i))
            if len(objects) > 256:
                objects.clear()
            sorted((i % 13, i % 5, i % 3))
        return time.perf_counter() - started
    finally:
        if paused:
            gc.enable()


#: Median :func:`yardstick_chunk` time on the 2-CPU reference host.  Times
#: are reported at this host speed: each is multiplied by ``NOMINAL /
#: measured``, the measurement taken interleaved with the timed work.
YARDSTICK_NOMINAL_S = 0.003


class HostSpeed:
    """Yardstick samples taken while a workload runs.

    The host this benchmark was built on changes speed by up to 1.8x within
    minutes (other tenants); the same process-wide slow-down shows in the
    yardstick, so dividing it out keeps the figures comparable between runs.
    The raw figures and the factors are reported beside them.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(yardstick_chunk())

    def factor(self) -> float:
        """``nominal / measured``: multiply a time by it, divide a rate."""
        return YARDSTICK_NOMINAL_S / (sum(self.samples) / len(self.samples))


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant (e.g. a server's executor workers)."""
    tree, pending = [], [pid]
    while pending:
        current = pending.pop()
        tree.append(current)
        try:
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children", encoding="ascii") as children:
                    pending.extend(int(child) for child in children.read().split())
        except FileNotFoundError:  # ended while being read
            continue
    return tree


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident set size of a process and its live descendants."""
    return sum(process_peak_rss_mb(member) for member in process_tree(pid))


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU time of a live process, all threads included."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def tree_cpu_seconds(pid: int) -> float:
    """CPU time of a process and its live descendants (see :func:`process_tree`)."""
    total = 0.0
    for member in process_tree(pid):
        try:
            total += process_cpu_seconds(member)
        except FileNotFoundError:
            continue
    return total
