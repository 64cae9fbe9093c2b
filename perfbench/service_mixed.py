"""The ``service_mixed`` workload: ``repro.service`` under mixed traffic.

The server runs in its own process (``perfbench/serve.py``, which calls the
service's ``main``) with its default configuration, the process executor:
a decide that misses the cache hops to a forked worker, which rebuilds a
replica of the session whenever the session version moved.  Four registry
sessions serve the traffic: ``r0`` and ``r2`` are read-mostly (never
updated), ``r1`` and ``s0`` take the updates, and ``s0`` uses
``engine="sat"``.  The operations:

* ``hit`` -- a repeated decide on a read-mostly session, answered from the
  decision cache after the set-up warmed it;
* ``fresh`` -- a decide that misses and hops to the executor: a distinct
  extension ``limit`` per request, or, on the SAT session, a witness-free
  consistency or count decide after an update evicted it (answered by the
  session's live solver); some arrive as an identical pair on both
  connections at once, which single-flight merges;
* ``update`` -- the next step of the session's Adom-stable
  ``update_stream_workload`` script: it evicts cache entries and bumps the
  session version;
* ``stream`` -- a ``/worlds?limit=2`` NDJSON stream.

The mix of kinds, sessions and shapes is assumed, not taken from recorded
traffic (the repository has none); the diagnostics report each kind's
latencies separately, so a verdict can be read without the weights.

One process generates the load over two connections (one per CPU).  The
requests of an updated session always travel over the same connection in
order, so the answer each should get is fixed by the seed; every answer is
checked against in-process facades that replay the same operations.

The traffic is an open loop of independent users at a fixed reference rate
with Poisson arrivals.  Each request is timed from when it was due, so a
stall also delays the requests queued behind it.  Under an open loop the
completed rate equals the offered one, so capacity is measured instead as
requests per CPU-second of the server process and its executor workers
(user plus system time from ``/proc``): the rate the server could sustain
if it had the CPU time to itself.

The schedule is a run of consecutive blocks (segments) that each hold the
same requests, and every metric is the median over the segments.  Each
segment is put at a nominal host speed by the yardstick of
:mod:`perfbench.measure`, timed beside the traffic by
``perfbench/sampler.py``: latencies and server CPU time are multiplied by
its ``nominal / measured`` factor over the segment.

Known program defect: after an ``update``, the process executor's workers
rebuild their replica from the session's original spec, not from the
updated c-instance, so a decide that misses the cache afterwards is answered
on stale data.  The answer check counts those answers as wrong, and the run
exits non-zero until the service is fixed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Any

from repro.api import Database
from repro.ctables.possible_worlds import models
from repro.exceptions import ServiceError
from repro.search.registry import EngineConfig
from repro.service.client import ServiceClient
from repro.service.plugins import SessionSpec, get_service_plugin
from repro.service.problems import (
    invoke,
    parse_decision,
    parse_engine,
    parse_rows,
    result_payload,
    update_payload,
)
from repro.service.server import world_payload
from repro.workloads.generator import update_stream_workload

from perfbench import measure
from perfbench.tracing import durations, layer_of, self_times

#: Open-loop reference rate (requests per second): a small fraction of the
#: server's capacity on a 2-CPU host (several hundred requests per server
#: CPU-second, see ``ops_per_s``), so latency reflects service time plus
#: ordinary queueing rather than saturation.  The schedule lasts
#: ``--seconds`` at this rate.
REFERENCE_RATE = 80
#: Server starts per run; ``setup_s`` is their median.
SETUP_STARTS = 5
#: A request that takes longer fails (and counts as missing any limit).
REQUEST_TIMEOUT_S = 30.0
#: Generator lag p99 above this flags the run: the load generator, not the
#: server, fell behind the schedule.
GENERATOR_LAG_LIMIT_MS = 5.0
LANES = 2

#: session -> (registry parameters without the seed, engine, fixed lane)
SESSIONS: dict[str, tuple[dict[str, int], str | None, int | None]] = {
    "r0": ({"master_size": 6, "db_rows": 3, "variable_count": 1}, None, None),
    "r2": ({"master_size": 5, "db_rows": 4, "variable_count": 2}, None, None),
    "r1": ({"master_size": 6, "db_rows": 3, "variable_count": 1}, None, 1),
    "s0": ({"master_size": 6, "db_rows": 3, "variable_count": 1}, "sat", 0),
}
READ_MOSTLY = ("r0", "r2")
UPDATED = ("r1", "s0")

HOT_BODIES: tuple[dict[str, Any], ...] = (
    {"problem": "consistency", "witness": False},
    {"problem": "count"},
    {"problem": "complete", "query": "point"},
    {"problem": "certain", "query": "full"},
    {"problem": "rcqp", "query": "point"},
)
#: Decide shapes that miss the cache.  Those with a ``limit`` get a distinct
#: one per request; on the SAT session the witness-free consistency and
#: count decides miss whenever an update came in between, and are answered
#: by the session's live solver.
PROPAGATING_FRESH: tuple[dict[str, Any], ...] = (
    {"problem": "complete", "query": "point", "model": "strong", "limit": 0},
    {"problem": "complete", "query": "full", "model": "strong", "limit": 0},
    {"problem": "minp", "query": "point", "model": "strong", "limit": 0},
)
SAT_FRESH: tuple[dict[str, Any], ...] = (
    {"problem": "consistency", "witness": False},
    {"problem": "count"},
)
#: One block of the schedule: each kind with the number of copies of each of
#: its (session, shape) combinations.  A ``pair`` is one fresh decide sent on
#: both connections at once.  Every block holds exactly these 156 requests
#: (64% hits, 22% fresh decides, 9% updates, 5% streams), so the blocks and
#: the seeds differ only in order, connections and arrival times.
BLOCK = (("hit", 10), ("fresh", 2), ("pair", 1), ("update", 7), ("stream", 2))
STREAM_LIMIT = 2
#: Per-layer figures the traced server does not expose: the envelopes carry
#: no pruning, duplicate-world, CNF-variable or library solver-call counts,
#: and the engines run in the executor workers.  They are reported as 0 and
#: listed in the diagnostics.
UNOBSERVED = (
    "search.pruned",
    "search.prune_share",
    "search.duplicate_share",
    "cnf.variables",
    "dpll.library_solve_calls",
    "dpll.counter_gap",
    "sat.duplicate_share",
)


@dataclass
class Op:
    """One request of the generated traffic."""

    index: int
    kind: str
    session: str
    lane: int
    due: float = 0.0
    body: dict[str, Any] | None = None


@dataclass
class Outcome:
    """What happened to one request (times from ``time.perf_counter``)."""

    op: Op
    due: float
    sent: float
    done: float
    payload: Any = None
    error: str | None = None


class Traffic:
    """The seeded request generator: sessions, scripts and the mix."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"service_mixed:{seed}")
        self.params = {
            name: {**params, "seed": self._rng.randrange(1 << 30)}
            for name, (params, _engine, _lane) in SESSIONS.items()
        }
        self._scripts = {
            name: update_stream_workload(steps=4000, **self.params[name]).script
            for name in UPDATED
        }
        self._steps = dict.fromkeys(UPDATED, 0)
        self._fresh = itertools.count(1000)
        self._index = itertools.count()

    def _op(self, kind: str, session: str, lane: int, body: dict[str, Any] | None) -> Op:
        return Op(next(self._index), kind, session, lane, body=body)

    def _update_body(self, session: str) -> dict[str, Any]:
        step = self._scripts[session][self._steps[session]]
        self._steps[session] += 1
        key = "add_rows" if step.kind == "add" else "drop_rows"
        return {key: {step.relation: [list(step.row)]}}

    def _fresh_body(self, shape: dict[str, Any]) -> dict[str, Any]:
        body = dict(shape)
        if "limit" in body:
            body["limit"] = next(self._fresh)
        return body

    def block(self, start: float) -> list[Op]:
        """One :data:`BLOCK` at Poisson due times (``REFERENCE_RATE``) after ``start``."""
        rng = self._rng
        plan = [
            (kind, session, shape)
            for kind, copies in BLOCK
            for session, shape in _combos(kind) * copies
        ]
        rng.shuffle(plan)
        made: list[Op] = []
        due = start
        for kind, session, shape in plan:
            due += rng.expovariate(REFERENCE_RATE)
            if kind == "hit":
                batch = [self._op("hit", session, rng.randrange(LANES), dict(shape))]
            elif kind == "pair":
                body = self._fresh_body(shape)
                batch = [self._op("fresh", session, lane, dict(body)) for lane in range(LANES)]
            elif kind == "fresh":
                batch = [self._op("fresh", session, self._lane(session), self._fresh_body(shape))]
            elif kind == "update":
                body = self._update_body(session)
                batch = [self._op("update", session, self._lane(session), body)]
            else:
                batch = [self._op("stream", session, self._lane(session), None)]
            for op in batch:
                op.due = due
            made.extend(batch)
        return made

    def _lane(self, session: str) -> int:
        fixed = SESSIONS[session][2]
        return fixed if fixed is not None else self._rng.randrange(LANES)


def _combos(kind: str) -> list[tuple[str, Any]]:
    """The (session, body or decide shape) combinations of one request kind."""
    if kind == "hit":
        return [(s, body) for s in READ_MOSTLY for body in HOT_BODIES]
    if kind == "fresh":
        combos = [(s, shape) for s in ("r0", "r1", "r2") for shape in PROPAGATING_FRESH]
        return combos + [("s0", shape) for shape in SAT_FRESH]
    if kind == "pair":
        return [(s, shape) for s in READ_MOSTLY for shape in PROPAGATING_FRESH]
    if kind == "update":
        return [(s, None) for s in UPDATED]
    return [(s, None) for s in SESSIONS]


#: Requests in one block (a pair is two).
BLOCK_REQUESTS = sum(
    copies * len(_combos(kind)) * (LANES if kind == "pair" else 1) for kind, copies in BLOCK
)


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------
@dataclass
class Server:
    process: subprocess.Popen[str]
    url: str
    setup_seconds: float = 0.0
    setup_factor: float = 1.0


def start_server(
    root: Path,
    env: dict[str, str],
    traffic: Traffic,
    trace_out: Path | None = None,
) -> Server:
    """Spawn the service, create the sessions and warm the hot decides."""
    command = [sys.executable, str(root / "perfbench" / "serve.py")]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    command += ["--", "--host", "127.0.0.1", "--port", "0"]
    host = measure.HostSpeed()
    host.sample()
    started = time.perf_counter()
    process = subprocess.Popen(
        command, cwd=root, env=env, stdout=subprocess.PIPE, text=True
    )
    watchdog = threading.Timer(60.0, process.kill)
    watchdog.start()
    try:
        assert process.stdout is not None
        line = process.stdout.readline()
    finally:
        watchdog.cancel()
    marker = "listening on "
    if marker not in line:
        stop_server(process)
        raise RuntimeError(f"service did not start: {line!r}")
    server = Server(process, line.split(marker, 1)[1].strip())
    try:
        client = ServiceClient(server.url, timeout=REQUEST_TIMEOUT_S)
        for name, (_params, engine, _lane) in SESSIONS.items():
            client.create_session(name, "registry", traffic.params[name], engine)
        for session in READ_MOSTLY:
            for body in HOT_BODIES:
                client.request("POST", f"/sessions/{session}/decide", body)
    except BaseException:
        stop_server(process)
        raise
    server.setup_seconds = time.perf_counter() - started
    host.sample()
    server.setup_factor = host.factor()
    return server


def stop_server(process: subprocess.Popen[str]) -> None:
    """SIGTERM (graceful drain), then kill if it does not exit in time."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=30)
    if process.stdout is not None:
        process.stdout.close()


# ---------------------------------------------------------------------------
# the load generator
# ---------------------------------------------------------------------------
def _execute(client: ServiceClient, op: Op) -> Any:
    if op.kind in ("hit", "fresh"):
        return client.request("POST", f"/sessions/{op.session}/decide", op.body)
    if op.kind == "update":
        return client.request("POST", f"/sessions/{op.session}/update", op.body)
    with client.stream_worlds(op.session, limit=STREAM_LIMIT) as stream:
        worlds = list(stream)
        return {"worlds": worlds, "summary": stream.summary}


def _lane(url: str, ops: list[Op], origin: float, out: list[Outcome]) -> None:
    client = ServiceClient(url, timeout=REQUEST_TIMEOUT_S)
    clock = time.perf_counter
    for op in ops:
        due = origin + op.due
        delay = due - clock()
        if delay > 0:
            time.sleep(delay)
        sent = clock()
        try:
            payload = _execute(client, op)
        except (ServiceError, OSError, ValueError) as err:
            out.append(Outcome(op, due, sent, clock(), error=f"{type(err).__name__}: {err}"))
            continue
        out.append(Outcome(op, due, sent, clock(), payload))


@dataclass
class Sample:
    """One sampler line: when, how long the yardstick took, server CPU."""

    at: float
    yardstick: float
    server_cpu: float


@dataclass
class Phase:
    """The outcomes of one driven schedule and the host samples beside it."""

    outcomes: list[Outcome]
    seconds: float
    samples: list[Sample]

    def factor_between(self, start: float, end: float) -> float:
        """Yardstick ``nominal / measured`` over ``[start, end)``: for CPU time."""
        inside = [s for s in self.samples if start <= s.at < end]
        if not inside:
            inside = [min(self.samples, key=lambda s: abs(s.at - (start + end) / 2))]
        return measure.YARDSTICK_NOMINAL_S / statistics.median([s.yardstick for s in inside])

    @property
    def factor(self) -> float:
        return self.factor_between(-math.inf, math.inf)


def _start_sampler(root: Path, env: dict[str, str], pid: int) -> subprocess.Popen[str]:
    return subprocess.Popen(
        [sys.executable, str(root / "perfbench" / "sampler.py"), str(pid)],
        cwd=root,
        env=env,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )


def _stop_sampler(sampler: subprocess.Popen[str]) -> list[Sample]:
    try:
        output, _ = sampler.communicate(input="", timeout=30)
    except subprocess.TimeoutExpired:
        sampler.kill()
        output, _ = sampler.communicate(timeout=30)
    samples = []
    for line in output.splitlines():
        at, yardstick, cpu = (float(field) for field in line.split())
        samples.append(Sample(at, yardstick, cpu))
    return samples


def drive(server: Server, ops: list[Op], root: Path, env: dict[str, str]) -> Phase:
    """Send ``ops`` over the connections while the sampler times the host."""
    per_lane: list[list[Op]] = [[] for _ in range(LANES)]
    for op in ops:
        per_lane[op.lane].append(op)
    results: list[list[Outcome]] = [[] for _ in range(LANES)]
    sampler = _start_sampler(root, env, server.process.pid)
    try:
        time.sleep(0.2)  # the first samples precede the schedule
        origin = time.perf_counter() + 0.01
        threads = [
            threading.Thread(target=_lane, args=(server.url, per_lane[lane], origin, results[lane]))
            for lane in range(LANES)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=REQUEST_TIMEOUT_S * len(ops) + 60)
            if thread.is_alive():
                raise RuntimeError("a load-generator connection did not finish")
        elapsed = time.perf_counter() - origin
    finally:
        samples = _stop_sampler(sampler)
    outcomes = [outcome for lane in results for outcome in lane]
    return Phase(outcomes, elapsed, samples)


def latency_ms(outcome: Outcome, factor: float = 1.0) -> float:
    """Milliseconds from when the request was due, times the host ``factor``.

    Failed requests count as missing any latency limit.
    """
    if outcome.error is not None:
        return REQUEST_TIMEOUT_S * 1000.0
    return (outcome.done - outcome.due) * 1000.0 * factor


def engine_work(outcomes: list[Outcome]) -> dict[str, int]:
    """Engine counters summed over the decides that ran an engine.

    Each distinct fresh decide runs once: its single-flight followers and
    later repeats carry the same stats and are skipped, so the sum depends
    on the schedule only, not on timing.
    """
    work = {"runs": 0, "nodes": 0, "clauses": 0, "worlds": 0}
    for outcome in outcomes:
        payload = outcome.payload
        if outcome.error is not None or outcome.op.kind not in ("hit", "fresh"):
            continue
        if payload.get("cache_hit") or payload.get("deduplicated"):
            continue
        stats = payload["result"].get("stats", {})
        work["runs"] += 1
        for key in ("nodes", "clauses", "worlds"):
            work[key] += stats.get(key) or 0
    return work


def generator_lag_ms(outcomes: list[Outcome]) -> list[float]:
    """How late each request left, beyond its due time and its connection.

    A request waits for its connection's previous request; any further delay
    between being due and being sent is the generator's own.
    """
    lags = []
    by_lane: dict[int, list[Outcome]] = {}
    for outcome in outcomes:
        by_lane.setdefault(outcome.op.lane, []).append(outcome)
    for lane_outcomes in by_lane.values():
        previous_done = 0.0
        for outcome in sorted(lane_outcomes, key=lambda o: o.sent):
            ready = max(outcome.due, previous_done)
            lags.append(max(0.0, outcome.sent - ready) * 1000.0)
            previous_done = outcome.done
    return lags


# ---------------------------------------------------------------------------
# answer checking
# ---------------------------------------------------------------------------
def _normal(value: Any) -> Any:
    return json.loads(json.dumps(value, sort_keys=True, default=str))


def _semantic(result: dict[str, Any]) -> Any:
    if result.get("kind") == "decision":
        return _normal({key: result.get(key) for key in ("holds", "value", "exact", "problem")})
    return _normal(result)


def count_wrong(traffic: Traffic, ops: list[Op], outcomes: list[Outcome]) -> int:
    """Replay ``ops`` in order on in-process facades; count differing answers."""
    specs: dict[str, SessionSpec] = {
        name: get_service_plugin("workload", "registry")(**traffic.params[name])
        for name in SESSIONS
    }
    facades = {
        name: Database(spec.cinstance, spec.master, spec.constraints, engine=SESSIONS[name][1])
        for name, spec in specs.items()
    }
    by_op: dict[int, list[Outcome]] = {}
    for outcome in outcomes:
        by_op.setdefault(outcome.op.index, []).append(outcome)
    wrong = 0
    for op in sorted(ops, key=lambda op: op.index):
        db, spec = facades[op.session], specs[op.session]
        answered = [o for o in by_op.get(op.index, []) if o.error is None]
        if op.kind in ("hit", "fresh"):
            request = parse_decision(spec, op.body)
            value = invoke(db, request, parse_engine(op.body or {}))
            expected = _semantic(result_payload(value))
            got = [_semantic(o.payload["result"]) for o in answered]
        elif op.kind == "update":
            body = op.body or {}
            add = parse_rows(body.get("add_rows"), "add_rows")
            drop = parse_rows(body.get("drop_rows"), "drop_rows")
            expected = _normal(update_payload(db.update(add, drop)))
            got = [_normal(o.payload["update"]) for o in answered]
        else:
            engine = EngineConfig.coerce(SESSIONS[op.session][1])
            worlds = models(
                db.cinstance,
                db.master,
                db.constraints,
                db.adom(),
                engine=engine,
                checker=db.checker,
            )
            expected = _normal([world_payload(world) for world in islice(worlds, STREAM_LIMIT)])
            got = [
                _normal(o.payload["worlds"])
                for o in answered
                if o.payload["summary"]
                == {"kind": "summary", "worlds": len(o.payload["worlds"])}
            ]
        wrong += len(answered) - sum(answer == expected for answer in got)
    return wrong


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------
def _summary(phase: Phase) -> dict[str, Any]:
    """Diagnostics of one open-loop phase, at the nominal host speed."""
    outcomes = phase.outcomes
    latencies = [latency_ms(o, phase.factor) for o in outcomes]
    lags = generator_lag_ms(outcomes)
    per_kind = {}
    for kind in ("hit", "fresh", "update", "stream"):
        of_kind = [latency_ms(o, phase.factor) for o in outcomes if o.op.kind == kind]
        if of_kind:
            per_kind[kind] = {
                "samples": len(of_kind),
                "ms_p50": measure.quantile(of_kind, 0.5),
                "ms_p90": measure.quantile(of_kind, 0.9),
            }
    return {
        "requests": len(outcomes),
        "seconds": phase.seconds,
        "host_factor": phase.factor,
        "request_ms_p50": measure.quantile(latencies, 0.5),
        "request_ms_p90": measure.quantile(latencies, 0.9),
        "request_ms_p99": measure.quantile(latencies, 0.99),
        "per_kind": per_kind,
        "raw_request_ms_p50": measure.quantile([latency_ms(o) for o in outcomes], 0.5),
        "generator_lag_ms_p99": measure.quantile(lags, 0.99),
        "generator_behind": measure.quantile(lags, 0.99) > GENERATOR_LAG_LIMIT_MS,
        "kinds": {
            kind: sum(o.op.kind == kind for o in outcomes)
            for kind in ("hit", "fresh", "update", "stream")
        },
    }


def _cpu_at(samples: list[Sample], at: float) -> float:
    """The server's CPU time at ``at``, interpolated between samples."""
    before = [s for s in samples if s.at <= at]
    after = [s for s in samples if s.at > at]
    if not before:
        return samples[0].server_cpu
    if not after:
        return before[-1].server_cpu
    low, high = before[-1], after[0]
    weight = (at - low.at) / (high.at - low.at)
    return low.server_cpu + weight * (high.server_cpu - low.server_cpu)


def schedule(traffic: Traffic, seconds: float) -> list[list[Op]]:
    """The open-loop schedule: consecutive blocks lasting about ``seconds``."""
    blocks: list[list[Op]] = []
    due = 0.0
    for _ in range(max(1, round(REFERENCE_RATE * seconds / BLOCK_REQUESTS))):
        block = traffic.block(due)
        due = max(op.due for op in block)
        blocks.append(block)
    return blocks


def segment_figures(phase: Phase, blocks: list[list[Op]]) -> list[dict[str, float]]:
    """Per segment: host factors, server rate and latency quantiles."""
    by_index = {outcome.op.index: outcome for outcome in phase.outcomes}
    figures = []
    for block in blocks:
        part = [by_index[op.index] for op in block if op.index in by_index]
        start = min(o.due for o in part)
        end = max(o.done for o in part)
        factor = phase.factor_between(start, end)
        cpu = _cpu_at(phase.samples, end) - _cpu_at(phase.samples, start)
        latencies = [latency_ms(o, factor) for o in part]
        raw = [latency_ms(o) for o in part]
        figures.append(
            {
                "raw_p50": measure.quantile(raw, 0.5),
                "raw_p90": measure.quantile(raw, 0.9),
                "raw_ops": len(part) / cpu if cpu > 0 else 0.0,
                "requests": len(part),
                "host_factor": factor,
                "server_cpu_s": cpu,
                "ops_per_s": len(part) / cpu / factor if cpu > 0 else 0.0,
                "op_ms_p50": measure.quantile(latencies, 0.5),
                "op_ms_p90": measure.quantile(latencies, 0.9),
            }
        )
    return figures


def run_untraced(
    root: Path, seed: int, seconds: int, env: dict[str, str]
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The end-to-end run; times are reported at the nominal host speed."""
    setups = []
    for start in range(SETUP_STARTS):
        traffic = Traffic(seed)
        server = start_server(root, env, traffic)
        setups.append((server.setup_seconds, server.setup_factor))
        if start < SETUP_STARTS - 1:
            stop_server(server.process)
    try:
        blocks = schedule(traffic, seconds)
        ops = [op for block in blocks for op in block]
        reference = drive(server, ops, root, env)
        service_metrics = ServiceClient(server.url).metrics()
        peak_rss = measure.tree_peak_rss_mb(server.process.pid)
    finally:
        stop_server(server.process)

    wrong = count_wrong(traffic, ops, reference.outcomes)
    errors = [o.error for o in reference.outcomes if o.error is not None]
    segments = segment_figures(reference, blocks)

    def over_segments(name: str) -> float:
        return statistics.median([segment[name] for segment in segments])

    result = {
        "correct": wrong == 0 and not errors,
        "attempted": len(reference.outcomes),
        "failed": wrong + len(errors),
        "metrics": {
            "setup_s": (statistics.median([t * f for t, f in setups]), "s"),
            "ops_per_s": (over_segments("ops_per_s"), "1/s"),
            "op_ms_p50": (over_segments("op_ms_p50"), "ms"),
            "op_ms_p90": (over_segments("op_ms_p90"), "ms"),
            "peak_rss_mb": (peak_rss, "MB"),
        },
    }
    diagnostics = {
        "workload": "service_mixed",
        "seed": seed,
        "setup": [{"seconds": t, "host_factor": f} for t, f in setups],
        "segments": segments,
        "open_loop": {**_summary(reference), "reference_rate": REFERENCE_RATE},
        "engine_work": engine_work(reference.outcomes),
        "service_metrics": service_metrics,
        "wrong_answers": wrong,
        "errors": errors[:5],
    }
    return result, diagnostics


def _span_metrics(
    trace: dict[str, Any],
    outcomes: list[Outcome],
    service_metrics: dict[str, Any],
    factor: float,
) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced schedule (times at nominal host speed)."""
    scale = factor / 1e6  # ns of server wall time -> ms at nominal speed
    spans = [tuple(span) for span in trace["spans"]]
    totals, calls = self_times(spans)  # type: ignore[arg-type]
    per_layer: dict[str, int] = {}
    for name, nanoseconds in totals.items():
        per_layer[layer_of(name)] = per_layer.get(layer_of(name), 0) + nanoseconds

    def ms(layer: str) -> float:
        return per_layer.get(layer, 0) * scale

    def mean_ms(name: str) -> float:
        values = durations(spans, name)  # type: ignore[arg-type]
        return sum(values) / len(values) * scale if values else 0.0

    solver = trace["solver_work"]
    fresh = [
        o
        for o in outcomes
        if o.error is None and o.op.kind == "fresh" and not o.payload.get("cache_hit")
        and not o.payload.get("deduplicated")
    ]
    stats = [o.payload["result"].get("stats", {}) for o in fresh]
    sat_stats = [s for o, s in zip(fresh, stats) if o.op.session == "s0"]
    nodes = sum(s.get("nodes") or 0 for s in stats)
    overhead = [
        ((o.done - o.sent) - s.get("wall_time", 0.0)) * 1000.0 * factor
        for o, s in zip(fresh, stats)
    ]
    decisions = service_metrics["decisions"]
    misses = decisions - service_metrics["cache_hits"]
    executor = durations(spans, "service.executor")  # type: ignore[arg-type]
    invoked = durations(spans, "service.invoke")  # type: ignore[arg-type]
    requests = max(1, len(durations(spans, "service.request")))  # type: ignore[arg-type]

    def share(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    return {
        "ctables.adom_ms": (ms("ctables"), "ms"),
        "ctables.adom_calls": (float(calls.get("ctables.adom", 0)), "count"),
        "search.ms": (ms("search"), "ms"),
        "search.nodes": (nodes, "count"),
        "search.pruned": (0, "count"),
        "search.prune_share": (0.0, "share"),
        "search.us_per_node": (share(1000.0 * ms("search"), nodes), "us"),
        "search.duplicate_share": (0.0, "share"),
        "completeness.ms": (ms("completeness"), "ms"),
        "completeness.searches_per_decision": (
            share(sum(s.get("searches") or 0 for s in stats), len(stats)),
            "count",
        ),
        "completeness.candidates_examined": (
            sum(s.get("candidates_examined") or 0 for s in stats),
            "count",
        ),
        "queries.eval_ms": (ms("queries"), "ms"),
        "queries.eval_calls": (
            float(sum(n for name, n in calls.items() if name.startswith("queries."))),
            "count",
        ),
        "cnf.encode_ms": (ms("cnf"), "ms"),
        "cnf.clauses": (sum(s.get("clauses") or 0 for s in sat_stats), "count"),
        "cnf.variables": (0, "count"),
        "dpll.solve_ms": (ms("dpll"), "ms"),
        "dpll.solve_calls": (solver.get("solve_calls", 0), "count"),
        "dpll.propagations": (solver.get("propagations", 0), "count"),
        "dpll.conflicts": (solver.get("conflicts", 0), "count"),
        "dpll.learned_clauses": (solver.get("learned_clauses", 0), "count"),
        "dpll.library_solve_calls": (0, "count"),
        "dpll.counter_gap": (0.0, "flag"),
        "sat.ms": (ms("sat"), "ms"),
        "sat.worlds": (sum(s.get("worlds") or 0 for s in sat_stats), "count"),
        "sat.duplicate_share": (0.0, "share"),
        "sat.cegar_rounds": (sum(s.get("cegar_rounds") or 0 for s in sat_stats), "count"),
        "sat.components": (sum(s.get("components") or 0 for s in sat_stats), "count"),
        "sat.reused_solver_share": (
            share(sum(bool(s.get("reused_solver")) for s in sat_stats), len(sat_stats)),
            "share",
        ),
        "incremental.update_ms": (mean_ms("incremental.update"), "ms"),
        "incremental.cache_ms": (totals.get("incremental.cache", 0) * scale, "ms"),
        "incremental.evictions_per_update": (
            share(service_metrics["cache_evictions"], service_metrics["updates"]),
            "count",
        ),
        "incremental.cache_hit_share": (share(service_metrics["cache_hits"], decisions), "share"),
        "service.overhead_ms_p50": (measure.quantile(overhead, 0.5) if overhead else 0.0, "ms"),
        "service.executor_ms": (sum(executor) / len(executor) * scale if executor else 0.0, "ms"),
        "service.hop_ms": (
            (sum(executor) - sum(invoked)) / len(executor) * scale if executor else 0.0,
            "ms",
        ),
        "service.http_ms": (totals.get("service.http", 0) * scale / requests, "ms"),
        "service.dedup_share": (share(service_metrics["singleflight_followers"], misses), "share"),
        "service.engine_runs": (float(service_metrics["engine_runs"]), "count"),
        "service.replica_rebuilds": (float(replica_rebuilds(spans)), "count"),
        "trace.unattributed_ms": (totals.get("service.request", 0) * scale, "ms"),
    }


def _read_trace(trace_out: Path) -> dict[str, Any]:
    """The server's spans merged with those its executor workers wrote."""
    spans: list[Any] = []
    solver_work: dict[str, int] = {}
    files = [trace_out, *sorted(trace_out.parent.glob(f"{trace_out.name}.*"))]
    for path in files:
        with open(path, encoding="utf-8") as spans_file:
            part = json.load(spans_file)
        spans += part["spans"]
        for key, value in part["solver_work"].items():
            solver_work[key] = solver_work.get(key, 0) + value
    return {"spans": spans, "solver_work": solver_work, "processes": len(files)}


def replica_rebuilds(spans: list[Any]) -> int:
    """Facades built inside ``_replica``: the workers' replica rebuilds."""
    replicas = {span_id for span_id, name, *_rest in spans if name == "service.replica"}
    return sum(
        name == "service.facade" and parent in replicas
        for _id, name, _start, _end, parent, _root in spans
    )


def run_traced(
    root: Path, seed: int, seconds: int, env: dict[str, str]
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Per-layer run: one open-loop schedule untraced, then the same traced."""
    phases: dict[str, tuple[Phase, dict[str, Any]]] = {}
    trace_dir = root / ".perfbench"
    trace_dir.mkdir(exist_ok=True)
    trace_out = trace_dir / f"spans-{os.getpid()}.json"
    wrong = 0
    errors: list[str] = []
    attempted = 0
    try:
        for name, out in (("untraced", None), ("traced", trace_out)):
            traffic = Traffic(seed)
            server = start_server(root, env, traffic, out)
            try:
                ops = [op for block in schedule(traffic, seconds / 2) for op in block]
                phase = drive(server, ops, root, env)
                service_metrics = ServiceClient(server.url).metrics()
            finally:
                stop_server(server.process)
            wrong += count_wrong(traffic, ops, phase.outcomes)
            errors += [o.error for o in phase.outcomes if o.error is not None]
            attempted += len(phase.outcomes)
            phases[name] = (phase, service_metrics)
        trace = _read_trace(trace_out)
    finally:
        for path in trace_dir.glob(f"{trace_out.name}*"):
            path.unlink()
        if trace_dir.exists() and not any(trace_dir.iterdir()):
            trace_dir.rmdir()

    plain, _plain_metrics = phases["untraced"]
    traced, traced_metrics = phases["traced"]
    metrics = _span_metrics(trace, traced.outcomes, traced_metrics, traced.factor)
    plain_p50 = measure.quantile([latency_ms(o, plain.factor) for o in plain.outcomes], 0.5)
    traced_p50 = measure.quantile([latency_ms(o, traced.factor) for o in traced.outcomes], 0.5)
    metrics["service.generator_lag_ms_p99"] = (
        measure.quantile(generator_lag_ms(plain.outcomes), 0.99),
        "ms",
    )
    metrics["trace.pass_ms"] = (1000.0 * traced.seconds * traced.factor, "ms")
    metrics["trace.overhead_share"] = (traced_p50 / plain_p50 - 1.0, "share")
    metrics["host.factor"] = (traced.factor, "ratio")
    result = {
        "correct": wrong == 0 and not errors,
        "attempted": attempted,
        "failed": wrong + len(errors),
        "metrics": metrics,
    }
    diagnostics = {
        "workload": "service_mixed",
        "seed": seed,
        "untraced": _summary(plain),
        "traced": _summary(traced),
        "spans": len(trace["spans"]),
        "traced_processes": trace["processes"],
        "engine_work": engine_work(traced.outcomes),
        "solver_work": trace["solver_work"],
        "unobserved": list(UNOBSERVED),
        "service_metrics": traced_metrics,
        "wrong_answers": wrong,
        "errors": errors[:5],
    }
    return result, diagnostics
