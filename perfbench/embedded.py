"""The embedded workloads: ``facade_decide``, ``sat_count`` and ``facade_update``.

One caller runs a closed loop over a seeded corpus.  A *pass* builds a
fresh :class:`~repro.api.Database` per instance and makes every call of
the instance once, so the decision cache never hits and every pass does the
same work; ``facade_update`` interleaves updates with the decides, so there
the cache serves what an update did not evict.  Only the facade calls are
timed individually; the pass time also covers building the facades.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.decision import Decision
from repro.incremental import UpdateResult
from repro.search.engine import SearchStats
from repro.search.registry import collect_searches
from repro.search.sat_engine import SATSearchStats

from perfbench import measure
from perfbench.corpus import CORPORA, ENGINES, ORACLE, Instance, answer_of
from perfbench.tracing import Tracer, durations, layer_of, self_times

#: Expected seconds per pass on a 2-CPU host; ``--seconds`` divided by it
#: fixes the number of passes, so the work of a run never depends on speed.
NOMINAL_PASS_SECONDS = {"facade_decide": 2.5, "sat_count": 2.5, "facade_update": 2.0}

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 7

#: Yardstick samples per pass, spread over the gaps between instances.
HOST_SAMPLES_PER_PASS = 40


@dataclass
class PassRecord:
    """What one pass over the corpus did (raw seconds and the host factors).

    ``factor`` is the pass's host factor; ``latency_factors`` holds one per
    call, from the yardstick samples taken just before and just after the
    call's instance, so a host that changes speed within a pass is divided
    out where the call ran.
    """

    seconds: float = 0.0
    factor: float = 1.0
    latencies: list[float] = field(default_factory=list)
    latency_factors: list[float] = field(default_factory=list)
    answers: list[Any] = field(default_factory=list)
    work: Counter[str] = field(default_factory=Counter)
    errors: int = 0

    @property
    def normalised_seconds(self) -> float:
        return self.seconds * self.factor


def pass_count(workload: str, seconds: int) -> int:
    return max(3, round(seconds / NOMINAL_PASS_SECONDS[workload]))


def _fold_work(work: Counter[str], sink: list[Any], result: Any) -> None:
    """Add the engine counters of one call to the pass's work counts."""
    if isinstance(result, UpdateResult):
        work["incremental.updates"] += 1
        work["incremental.evictions"] += result.invalidated
        return
    work["decisions"] += 1
    if isinstance(result, Decision):
        work["incremental.cache_hits"] += result.stats.cache_hit
        work["completeness.searches"] += result.stats.searches
        work["completeness.candidates_examined"] += result.stats.candidates_examined or 0
    for search in sink:
        stats = search.stats
        if isinstance(stats, SearchStats):
            work["search.searches"] += 1
            work["search.nodes"] += stats.nodes
            work["search.pruned"] += stats.pruned
            work["search.worlds"] += stats.worlds
            work["search.duplicate_worlds"] += stats.duplicate_worlds
        elif isinstance(stats, SATSearchStats):
            work["sat.searches"] += 1
            work["sat.worlds"] += stats.worlds
            work["sat.duplicate_worlds"] += stats.duplicate_worlds
            work["sat.components"] += stats.components or 0
            work["sat.reused_solver"] += bool(stats.reused_solver)
            if stats.encoding is not None:
                encoding = stats.encoding
                work["cnf.clauses"] += encoding.clauses
                work["cnf.variables"] += (
                    encoding.selector_variables
                    + encoding.grounding_variables
                    + encoding.presence_variables
                )
                work["sat.cegar_rounds"] += encoding.cegar_rounds
            if stats.solver is not None:
                work["dpll.library_solve_calls"] += stats.solver.solve_calls
                work["dpll.library_propagations"] += stats.solver.propagations


def run_pass(corpus: list[Instance], engine: str | None) -> PassRecord:
    """One pass; yardstick samples between the instances give the factors."""
    record = PassRecord()
    host = measure.HostSpeed()
    per_gap = max(2, HOST_SAMPLES_PER_PASS // len(corpus))
    clock = time.perf_counter
    calls_of = []
    for instance in corpus:
        for _ in range(per_gap):
            host.sample()
        calls_of.append(len(instance.calls))
        started = clock()
        db = instance.facade(engine)
        for call in instance.calls:
            sink: list[Any] = []
            began = clock()
            try:
                with collect_searches(sink):
                    result = call.invoke(db, None)
            except Exception as err:  # noqa: BLE001 - counted as a failed operation
                record.latencies.append(clock() - began)
                record.errors += 1
                record.answers.append(f"error: {type(err).__name__}: {err}")
                continue
            record.latencies.append(clock() - began)
            record.answers.append(answer_of(result))
            _fold_work(record.work, sink, result)
        record.seconds += clock() - started
    for _ in range(per_gap):
        host.sample()
    record.factor = host.factor()
    for gap, calls in enumerate(calls_of):
        around = host.samples[gap * per_gap : (gap + 2) * per_gap]
        local = measure.YARDSTICK_NOMINAL_S / (sum(around) / len(around))
        record.latency_factors += [local] * calls
    return record


def expected_answers(corpus: list[Instance]) -> list[Any]:
    """Closed-form answers, or the naive engine's where none exists."""
    expected = []
    for instance in corpus:
        oracle_db = None
        for call in instance.calls:
            if call.expected is ORACLE:
                if oracle_db is None:
                    oracle_db = instance.facade("naive")
                expected.append(answer_of(call.invoke(oracle_db, "naive")))
            else:
                expected.append(call.expected)
    return expected


def count_wrong(records: list[PassRecord], expected: list[Any]) -> int:
    """Calls over all passes whose answer differs from the expected one."""
    return sum(
        answer != want
        for record in records
        for answer, want in zip(record.answers, expected)
    )


def setup_seconds(
    root: Path, workload: str, seed: int, env: dict[str, str]
) -> tuple[list[float], list[float]]:
    """Wall time of fresh processes that import, generate and build facades.

    Returns the raw times and the host factor of each (from yardstick
    samples taken just before and after it).
    """
    command = [
        sys.executable,
        str(root / "perfbench" / "setup_probe.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    times, factors = [], []
    for _probe in range(SETUP_PROBES):
        host = measure.HostSpeed()
        host.sample()
        started = time.perf_counter()
        subprocess.run(command, cwd=root, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - started)
        host.sample()
        factors.append(host.factor())
    return times, factors


def _passes(corpus: list[Instance], engine: str | None, count: int) -> list[PassRecord]:
    records = []
    for _ in range(count):
        gc.collect()
        records.append(run_pass(corpus, engine))
    return records


def call_medians_ms(records: list[PassRecord], normalise: bool = True) -> list[float]:
    """Each call's median latency over the passes, in ms.

    The latency quantiles are taken over these, one value per distinct call
    of the corpus: a host stall during one pass moves no quantile, and with
    few distinct calls (``sat_count`` makes 11) a quantile lands on one call
    instead of jumping between the two calls it falls between.
    """
    return [
        1000.0
        * statistics.median(
            [r.latencies[i] * (r.latency_factors[i] if normalise else 1.0) for r in records]
        )
        for i in range(len(records[0].latencies))
    ]


def run_untraced(
    root: Path, workload: str, seed: int, seconds: int, env: dict[str, str]
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The end-to-end run: returns (result, diagnostics).

    Every time is reported at the nominal host speed (see
    :class:`perfbench.measure.HostSpeed`); the raw figures go to the
    diagnostics.
    """
    setups, setup_factors = setup_seconds(root, workload, seed, env)
    corpus = CORPORA[workload](seed)
    engine = ENGINES[workload]
    run_pass(corpus, engine)  # warm-up: imports, lazy tables, allocator
    records = _passes(corpus, engine, pass_count(workload, seconds))
    peak_rss_mb = measure.own_peak_rss_mb()  # before the oracle runs

    expected = expected_answers(corpus)
    wrong = count_wrong(records, expected)
    errors = sum(record.errors for record in records)
    latencies_ms = call_medians_ms(records)
    raw_ms = call_medians_ms(records, normalise=False)
    attempted = sum(len(record.latencies) for record in records)
    rates = [len(record.latencies) / record.normalised_seconds for record in records]
    metrics = {
        "setup_s": (statistics.median([t * f for t, f in zip(setups, setup_factors)]), "s"),
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms_p50": (measure.quantile(latencies_ms, 0.5), "ms"),
        "op_ms_p90": (measure.quantile(latencies_ms, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "passes": len(records),
        "samples": attempted,
        "host_factors": [round(record.factor, 4) for record in records],
        "pass_seconds": [round(record.normalised_seconds, 4) for record in records],
        "raw": {
            "pass_seconds": [round(record.seconds, 4) for record in records],
            "setup_seconds": [round(value, 4) for value in setups],
            "op_ms_p50": measure.quantile(raw_ms, 0.5),
            "op_ms_p90": measure.quantile(raw_ms, 0.9),
        },
        "work_per_pass": dict(sorted(records[0].work.items())),
        "work_repeats": all(record.work == records[0].work for record in records),
        "wrong_answers": wrong,
        "errors": errors,
    }
    result = {
        "correct": wrong == 0 and errors == 0,
        "attempted": attempted,
        "failed": wrong + errors,
        "metrics": metrics,
    }
    return result, diagnostics


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    tracer: Tracer, work: Counter[str], traced: list[PassRecord]
) -> dict[str, tuple[float, str]]:
    """Per-layer figures of the traced passes, per pass, at nominal host speed."""
    passes = len(traced)
    factor = statistics.median([record.factor for record in traced])
    pass_ms = 1000.0 * sum(record.seconds for record in traced) * factor / passes
    totals, calls = self_times(tracer.spans)
    per_layer: Counter[str] = Counter()
    for name, nanoseconds in totals.items():
        per_layer[layer_of(name)] += nanoseconds

    def ms(layer: str) -> float:
        return per_layer[layer] * factor / 1e6 / passes

    def calls_of(prefix: str) -> float:
        return sum(n for name, n in calls.items() if name.startswith(prefix)) / passes

    solver = tracer.solver_work
    decisions = work["decisions"]
    nodes = work["search.nodes"]
    named_layers_ms = sum(
        ms(layer) for layer in per_layer if layer not in ("api", "service")
    )
    sat_worlds = work["sat.worlds"]
    update_ns = durations(tracer.spans, "incremental.update")
    return {
        "ctables.adom_ms": (ms("ctables"), "ms"),
        "ctables.adom_calls": (calls_of("ctables.adom"), "count"),
        "search.ms": (ms("search"), "ms"),
        "search.nodes": (nodes, "count"),
        "search.pruned": (work["search.pruned"], "count"),
        "search.prune_share": (_share(work["search.pruned"], nodes), "share"),
        "search.us_per_node": (_share(1000.0 * ms("search"), nodes), "us"),
        "search.duplicate_share": (
            _share(work["search.duplicate_worlds"], work["search.worlds"]),
            "share",
        ),
        "completeness.ms": (ms("completeness"), "ms"),
        "completeness.searches_per_decision": (
            _share(work["completeness.searches"], decisions),
            "count",
        ),
        "completeness.candidates_examined": (
            work["completeness.candidates_examined"],
            "count",
        ),
        "queries.eval_ms": (ms("queries"), "ms"),
        "queries.eval_calls": (calls_of("queries."), "count"),
        "cnf.encode_ms": (ms("cnf"), "ms"),
        "cnf.clauses": (work["cnf.clauses"], "count"),
        "cnf.variables": (work["cnf.variables"], "count"),
        "dpll.solve_ms": (ms("dpll"), "ms"),
        "dpll.solve_calls": (solver["solve_calls"] / passes, "count"),
        "dpll.propagations": (solver["propagations"] / passes, "count"),
        "dpll.conflicts": (solver["conflicts"] / passes, "count"),
        "dpll.learned_clauses": (solver["learned_clauses"] / passes, "count"),
        "dpll.library_solve_calls": (work["dpll.library_solve_calls"], "count"),
        "dpll.counter_gap": (
            float(work["dpll.library_solve_calls"] != solver["solve_calls"] / passes),
            "flag",
        ),
        "sat.ms": (ms("sat"), "ms"),
        "sat.worlds": (sat_worlds, "count"),
        "sat.duplicate_share": (
            _share(work["sat.duplicate_worlds"], sat_worlds),
            "share",
        ),
        "sat.cegar_rounds": (work["sat.cegar_rounds"], "count"),
        "sat.components": (work["sat.components"], "count"),
        "sat.reused_solver_share": (
            _share(work["sat.reused_solver"], work["sat.searches"]),
            "share",
        ),
        "incremental.update_ms": (_share(sum(update_ns), len(update_ns)) * factor / 1e6, "ms"),
        "incremental.cache_ms": (
            totals.get("incremental.cache", 0) * factor / 1e6 / passes,
            "ms",
        ),
        "incremental.evictions_per_update": (
            _share(work["incremental.evictions"], work["incremental.updates"]),
            "count",
        ),
        "incremental.cache_hit_share": (
            _share(work["incremental.cache_hits"], decisions),
            "share",
        ),
        "service.overhead_ms_p50": (0.0, "ms"),
        "service.executor_ms": (0.0, "ms"),
        "service.hop_ms": (0.0, "ms"),
        "service.http_ms": (0.0, "ms"),
        "service.dedup_share": (0.0, "share"),
        "service.engine_runs": (0.0, "count"),
        "service.replica_rebuilds": (0.0, "count"),
        "service.generator_lag_ms_p99": (0.0, "ms"),
        "trace.pass_ms": (pass_ms, "ms"),
        "trace.unattributed_ms": (pass_ms - named_layers_ms, "ms"),
    }


def run_traced(
    workload: str, seed: int, seconds: int
) -> tuple[dict[str, Any], dict[str, Any]]:
    """The per-layer run: untraced passes, then the same passes traced."""
    corpus = CORPORA[workload](seed)
    engine = ENGINES[workload]
    run_pass(corpus, engine)
    each = max(2, pass_count(workload, seconds) // 2)
    plain = _passes(corpus, engine, each)
    tracer = Tracer()
    tracer.install()
    try:
        traced = _passes(corpus, engine, each)
    finally:
        tracer.uninstall()
    expected = expected_answers(corpus)
    records = plain + traced
    wrong = count_wrong(records, expected)
    errors = sum(record.errors for record in records)
    plain_s = statistics.median([record.normalised_seconds for record in plain])
    traced_s = statistics.median([record.normalised_seconds for record in traced])
    metrics = layer_metrics(tracer, traced[0].work, traced)
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "share")
    metrics["host.factor"] = (
        statistics.median([record.factor for record in records]),
        "ratio",
    )
    attempted = sum(len(record.latencies) for record in records)
    diagnostics = {
        "workload": workload,
        "seed": seed,
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "spans": len(tracer.spans),
        "work_per_pass": dict(sorted(traced[0].work.items())),
        "work_repeats": all(record.work == records[0].work for record in records),
        "solver_work_per_pass": {
            key: value / len(traced) for key, value in sorted(tracer.solver_work.items())
        },
        "wrong_answers": wrong,
        "errors": errors,
    }
    result = {
        "correct": wrong == 0 and errors == 0,
        "attempted": attempted,
        "failed": wrong + errors,
        "metrics": metrics,
    }
    return result, diagnostics
