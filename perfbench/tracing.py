"""Spans around the public functions of each ``repro`` layer, from outside.

A :class:`Tracer` replaces layer entry points with wrappers that record one
span per call: name, start, end, the span that caused it and the root span
(the decision or request) it belongs to.  Spans stay in memory until the
run ends.  A layer's *self time* is its spans' duration minus the time
their child spans cover, so nested layers are never counted twice.

Functions are patched at every module that bound them by name (``from x
import y``), found by identity over the loaded ``repro`` modules; methods
are patched on their class.  Generator functions get one span per resumed
segment, so the time a consumer spends between two items is not charged to
the producer.  :mod:`perfbench.serve` installs the same wrappers in the
service process before it starts serving; its forked executor workers
inherit them and write their own spans when they exit.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import os
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterable, Iterator

#: (module, attribute path, span name).  The span name's first dotted part
#: is the layer the per-layer metrics are reported under.
TARGETS: tuple[tuple[str, str, str], ...] = (
    # the facade: one root span per decision
    ("repro.api", "Database.is_consistent", "api.is_consistent"),
    ("repro.api", "Database.count", "api.count"),
    ("repro.api", "Database.complete", "api.complete"),
    ("repro.api", "Database.minp", "api.minp"),
    ("repro.api", "Database.rcqp", "api.rcqp"),
    ("repro.api", "Database.certain_answers", "api.certain_answers"),
    # ctables: the Prop. 3.3 active domain
    ("repro.ctables.possible_worlds", "default_active_domain", "ctables.adom"),
    # the propagating search (propagation, joinplan and indexing run inside)
    ("repro.search.engine", "WorldSearch.__init__", "search.setup"),
    ("repro.search.engine", "WorldSearch.search", "search.descend"),
    # completeness: the deciders and the extension searches
    ("repro.completeness.consistency", "is_consistent", "completeness.consistency"),
    ("repro.completeness.rcdp", "is_relatively_complete", "completeness.rcdp"),
    ("repro.completeness.minp", "is_minimal_complete", "completeness.minp"),
    ("repro.completeness.rcqp", "rcqp", "completeness.rcqp"),
    ("repro.completeness.certain", "certain_answer_over_models", "completeness.certain"),
    (
        "repro.completeness.certain",
        "certain_answer_over_extensions",
        "completeness.certain_extensions",
    ),
    ("repro.completeness.extensions", "single_tuple_extensions", "completeness.extensions"),
    ("repro.completeness.extensions", "tableau_extensions", "completeness.extensions"),
    ("repro.completeness.extensions", "bounded_extensions", "completeness.extensions"),
    (
        "repro.completeness.extensions",
        "has_partially_closed_extension",
        "completeness.extensions",
    ),
    # queries
    ("repro.queries.evaluation", "evaluate", "queries.evaluate"),
    ("repro.queries.evaluation", "evaluate_cq", "queries.evaluate"),
    # CNF encoding
    ("repro.search.cnf_encoding", "encode_world_search", "cnf.encode"),
    ("repro.search.cnf_encoding", "IncrementalEncoder.__init__", "cnf.encode"),
    ("repro.search.cnf_encoding", "IncrementalEncoder.add_ground", "cnf.encode"),
    ("repro.search.cnf_encoding", "IncrementalEncoder.drop_ground", "cnf.encode"),
    # the SAT engine around the solver
    ("repro.search.sat_engine", "SATWorldSearch.search", "sat.search"),
    ("repro.search.sat_engine", "SATWorldSearch.has_world", "sat.has_world"),
    ("repro.search.sat_engine", "SATWorldSearch.count_worlds", "sat.count_worlds"),
    ("repro.search.sat_engine", "IncrementalSATSession.search", "sat.search"),
    ("repro.search.sat_engine", "IncrementalSATSession.has_world", "sat.has_world"),
    ("repro.search.sat_engine", "IncrementalSATSession.count_worlds", "sat.count_worlds"),
    ("repro.search.sat_engine", "IncrementalSATSession.apply", "sat.apply"),
    # incremental: updates and the decision cache
    ("repro.api", "Database.update", "incremental.update"),
    ("repro.incremental", "DecisionCache.get", "incremental.cache"),
    ("repro.incremental", "DecisionCache.put", "incremental.cache"),
    ("repro.incremental", "DecisionCache.invalidate", "incremental.cache"),
)

#: Service-process boundaries: request handling, HTTP framing, the pool.
SERVICE_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.service.server", "DecisionService._handle_connection", "service.request"),
    ("repro.service.http", "read_request", "service.http"),
    ("repro.service.http", "send_json", "service.http"),
    ("repro.service.pool", "DatabasePool.decide", "service.decide"),
    ("repro.service.pool", "DatabasePool._compute", "service.executor"),
    ("repro.service.pool", "DatabasePool.update", "service.update"),
    ("repro.service.pool", "_replica", "service.replica"),
    # a facade built inside ``_replica`` is a replica rebuild
    ("repro.api", "Database.__init__", "service.facade"),
    ("repro.service.problems", "invoke", "service.invoke"),
)

#: Solver counters read before and after every ``DPLLSolver.solve`` call.
SOLVER_COUNTERS = ("propagations", "conflicts", "learned_clauses", "decisions")

#: One recorded span: (id, name, start ns, end ns, parent id, root id).
Span = tuple[int, str, int, int, int, int]


class Tracer:
    """Records spans from wrapped layer entry points; see the module doc."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: solver work seen by the ``DPLLSolver.solve`` wrapper itself.
        self.solver_work: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[tuple[int, int]] = contextvars.ContextVar(
            "perfbench_span", default=(0, 0)
        )
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _enter(self) -> tuple[int, int, int, contextvars.Token[tuple[int, int]]]:
        span_id = next(self._ids)
        parent, root = self._current.get()
        if parent == 0:
            root = span_id
        token = self._current.set((span_id, root))
        return span_id, parent, root, token

    def _wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        spans = self.spans
        enter = self._enter
        current = self._current
        clock = time.perf_counter_ns

        if inspect.isgeneratorfunction(function):

            @functools.wraps(function)
            def generator_wrapper(*args: Any, **kwargs: Any) -> Iterator[Any]:
                inner = function(*args, **kwargs)
                try:
                    while True:
                        span_id, parent, root, token = enter()
                        start = clock()
                        try:
                            item = next(inner)
                        except StopIteration:
                            return
                        finally:
                            spans.append((span_id, name, start, clock(), parent, root))
                            current.reset(token)
                        yield item
                finally:
                    inner.close()

            return generator_wrapper

        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def coroutine_wrapper(*args: Any, **kwargs: Any) -> Any:
                span_id, parent, root, token = enter()
                start = clock()
                try:
                    return await function(*args, **kwargs)
                finally:
                    spans.append((span_id, name, start, clock(), parent, root))
                    current.reset(token)

            return coroutine_wrapper

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span_id, parent, root, token = enter()
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                spans.append((span_id, name, start, clock(), parent, root))
                current.reset(token)

        return wrapper

    def _wrap_solve(self, function: Callable[..., Any]) -> Callable[..., Any]:
        """``DPLLSolver.solve`` with the solver's own counters read around it.

        Solvers built without the session's ``stats=`` ledger still count
        into their private ``stats``; reading it here sees that work even
        where the library's collected counters stay at zero.
        """
        timed = self._wrap("dpll.solve", function)
        work = self.solver_work

        @functools.wraps(function)
        def solve(solver: Any, *args: Any, **kwargs: Any) -> Any:
            stats = solver.stats
            before = [getattr(stats, counter) for counter in SOLVER_COUNTERS]
            try:
                return timed(solver, *args, **kwargs)
            finally:
                work["solve_calls"] += 1
                for counter, old in zip(SOLVER_COUNTERS, before):
                    work[counter] += getattr(stats, counter) - old

        return solve

    def restart_in_child(self) -> None:
        """Forget the parent's spans in a freshly forked process.

        Span ids continue from a range of the child's own (its pid), so the
        spans of several processes can be merged, and the child's spans
        start new roots: a parent span of another process is not theirs.
        """
        self.spans.clear()
        self.solver_work.clear()
        self._ids = itertools.count(os.getpid() << 32)
        self._current.set((0, 0))

    # ------------------------------------------------------------------
    # installing and removing the wrappers
    # ------------------------------------------------------------------
    def install(self, targets: Iterable[tuple[str, str, str]] = TARGETS) -> None:
        """Patch every target and the solver; undo with :meth:`uninstall`."""
        for module_name, path, name in targets:
            module = importlib.import_module(module_name)
            owner_name, _, attribute = path.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attribute]
                self._patch(owner, attribute, self._wrap(name, original))
            else:
                original = getattr(module, attribute)
                wrapped = self._wrap(name, original)
                for importer in _repro_modules():
                    for key, value in list(vars(importer).items()):
                        if value is original:
                            self._patch(importer, key, wrapped)
        dpll = importlib.import_module("repro.reductions.dpll")
        solver_class = dpll.DPLLSolver
        self._patch(solver_class, "solve", self._wrap_solve(solver_class.__dict__["solve"]))

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def _repro_modules() -> list[Any]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def self_times(spans: Iterable[Span]) -> tuple[dict[str, int], Counter[str]]:
    """Self time (ns) and call count per span name."""
    spans = list(spans)
    covered: defaultdict[int, int] = defaultdict(int)
    for _span_id, _name, start, end, parent, _root in spans:
        if parent:
            covered[parent] += end - start
    totals: defaultdict[str, int] = defaultdict(int)
    calls: Counter[str] = Counter()
    for span_id, name, start, end, _parent, _root in spans:
        totals[name] += end - start - covered[span_id]
        calls[name] += 1
    return dict(totals), calls


def durations(spans: Iterable[Span], name: str) -> list[int]:
    """Full durations (ns) of every span with the given name."""
    return [end - start for _id, span_name, start, end, _p, _r in spans if span_name == name]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]
