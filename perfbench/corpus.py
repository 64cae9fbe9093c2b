"""Seeded inputs of the embedded workloads and the answers they must give.

A corpus is a list of :class:`Instance` objects, each holding one
c-instance with its master data and constraints plus the facade calls to
make on it.  Every call carries its expected answer where a closed form
exists (pigeonhole consistency and world counts, component counts, the
never-firing wide and skewed constraints, the paper's Figure 1 verdict);
the remaining calls are checked against the naive engine, the repository's
reference enumeration, outside the timed passes.  An update is a call too:
the naive facade replays it in the same order, so every decision after it
is checked against the updated c-instance.

The registry instances are *stratified*: every seed gets the same multiset
of instance shapes (master 4-6 rows, 2-4 database rows, 1-2 missing
values) and the seed only picks which registry rows each instance holds.
Two seeds therefore do nearly the same work, so the spread between runs on
different seeds measures the host and the program, not the draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.api import Database
from repro.completeness.models import CompletenessModel
from repro.constraints.containment import ContainmentConstraint
from repro.ctables.cinstance import CInstance
from repro.decision import Decision
from repro.incremental import UpdateResult
from repro.relational.master import MasterData
from repro.workloads.generator import (
    disconnected_components_workload,
    registry_workload,
    skewed_join_workload,
    update_stream_workload,
    wide_constraint_workload,
    wide_pool_workload,
)
from repro.workloads.patients import build_patient_scenario

STRONG = CompletenessModel.STRONG
WEAK = CompletenessModel.WEAK
VIABLE = CompletenessModel.VIABLE

#: Marks a call whose answer is checked against the naive engine.
ORACLE = object()


def answer_of(result: Any) -> Any:
    """The comparable part of a facade result: verdict and value, or rows."""
    if isinstance(result, Decision):
        return (result.holds, result.value)
    if isinstance(result, frozenset):
        return sorted(result)
    if isinstance(result, UpdateResult):
        return ("update", len(result.added), len(result.dropped), sorted(result.touched))
    raise TypeError(f"unexpected facade result {type(result).__name__}")


@dataclass(frozen=True)
class Call:
    """One facade call: ``invoke(db, engine)`` returns the facade result."""

    label: str
    invoke: Callable[[Database, str | None], Any]
    expected: Any = ORACLE


@dataclass
class Instance:
    """One c-instance with the calls a pass makes on a fresh facade."""

    name: str
    cinstance: CInstance
    master: MasterData
    constraints: list[ContainmentConstraint]
    calls: list[Call] = field(default_factory=list)
    #: The engine of this instance's facades when it differs from the
    #: workload's (see :data:`ENGINES`).
    engine: str | None = None

    def facade(self, engine: str | None) -> Database:
        return Database(
            self.cinstance, self.master, self.constraints, engine=self.engine or engine
        )


def _consistent(witness: bool) -> Callable[[Database, str | None], Any]:
    return lambda db, engine: db.is_consistent(witness=witness, engine=engine)


def _count(db: Database, engine: str | None) -> Any:
    return db.count(engine=engine)


def _registry_calls(workload: Any) -> list[Call]:
    point, full = workload.point_query, workload.full_query
    return [
        Call("consistency_nowitness", _consistent(False)),
        Call("consistency", _consistent(True)),
        Call("count", _count),
        Call("rcdp_strong", lambda db, e: db.complete(point, STRONG, engine=e)),
        Call("rcdp_weak", lambda db, e: db.complete(full, WEAK, engine=e)),
        Call("rcdp_viable", lambda db, e: db.complete(full, VIABLE, engine=e)),
        Call("minp_strong", lambda db, e: db.minp(point, STRONG, engine=e)),
        Call("rcqp_strong", lambda db, e: db.rcqp(point, STRONG, engine=e)),
        Call("certain_answers", lambda db, e: db.certain_answers(full, engine=e)),
    ]


def _registry_instances(rng: random.Random, copies: int) -> list[Instance]:
    instances = []
    for master_size in (4, 5, 6):
        for db_rows in (2, 3, 4):
            for variables in (1, 2):
                for copy in range(copies):
                    workload = registry_workload(
                        master_size=master_size,
                        db_rows=db_rows,
                        variable_count=variables,
                        seed=rng.randrange(1 << 30),
                    )
                    instances.append(
                        Instance(
                            f"registry-m{master_size}-r{db_rows}-v{variables}-{copy}",
                            workload.cinstance,
                            workload.master,
                            workload.constraints,
                            _registry_calls(workload),
                        )
                    )
    return instances


def _closed_count(worlds: int) -> tuple[bool, int]:
    return (worlds > 0, worlds)


def _wide_pool(rows: int, values: int, *, count: bool) -> Instance:
    workload = wide_pool_workload(rows, values)
    if count:
        worlds = math.perm(values, rows) if rows <= values else 0
        call = Call("count", _count, _closed_count(worlds))
    else:
        call = Call(
            "consistency_nowitness", _consistent(False), (workload.consistent, None)
        )
    kind = "count" if count else "exists"
    return Instance(
        f"wide-pool-{rows}x{values}-{kind}",
        workload.cinstance,
        workload.master,
        workload.constraints,
        [call],
    )


def _wide_constraint(ground_rows: int, calls: tuple[str, ...]) -> Instance:
    workload = wide_constraint_workload(ground_rows=ground_rows)
    # The Allowed relation holds every value combination, so the constraint
    # never fires and every valuation of the variable rows is a world.
    worlds = workload.values**workload.variable_rows
    return Instance(
        f"wide-constraint-{ground_rows}",
        workload.cinstance,
        workload.master,
        workload.constraints,
        _fixed_calls(calls, worlds),
    )


def _skewed(hub_degree: int, calls: tuple[str, ...]) -> Instance:
    workload = skewed_join_workload(hub_degree)
    # Reach holds every source/destination pair: the chain never fires.
    worlds = workload.values**workload.variable_rows
    return Instance(
        f"skewed-join-{hub_degree}",
        workload.cinstance,
        workload.master,
        workload.constraints,
        _fixed_calls(calls, worlds),
    )


def _fixed_calls(calls: tuple[str, ...], worlds: int) -> list[Call]:
    made = []
    for label in calls:
        if label == "count":
            made.append(Call("count", _count, _closed_count(worlds)))
        else:
            made.append(Call("consistency", _consistent(True), (worlds > 0, None)))
    return made


def _components(components: int, rows: int, values: int) -> Instance:
    workload = disconnected_components_workload(
        components=components, rows_per_component=rows, values=values
    )
    return Instance(
        f"components-{components}x{rows}-v{values}",
        workload.cinstance,
        workload.master,
        workload.constraints,
        [Call("count", _count, _closed_count(workload.world_count))],
    )


def _patients() -> Instance:
    scenario = build_patient_scenario()
    q1 = scenario.q1
    return Instance(
        "patients-figure1",
        scenario.figure1,
        scenario.master,
        scenario.constraints,
        # Recorded reference: the Figure 1 c-instance is strongly complete
        # for Q1 (naive, propagating and SAT engines agree).
        [Call("rcdp_strong", lambda db, e: db.complete(q1, STRONG, engine=e), (True, None))],
    )


def _update_call(step: Any) -> Call:
    rows = {step.relation: [step.row]}
    if step.kind == "add":
        return Call("update", lambda db, e: db.update(add_rows=rows))
    return Call("update", lambda db, e: db.update(drop_rows=rows))


def _update_stream(rng: random.Random, shape: dict[str, int], sat: bool) -> Instance:
    """A registry instance whose calls alternate updates and re-asked decides.

    The same decides follow every update: those the update's dependency
    scope evicted run the engine again, the others (RCQP's, which depend on
    no relation) are answered from the decision cache.  A SAT instance asks
    only what its live incremental session answers (consistency and count),
    so its solver is reused across the updates.
    """
    stream = update_stream_workload(
        steps=UPDATE_STEPS, seed=rng.randrange(1 << 30), **shape
    )
    base = stream.base
    if sat:
        reads = [
            Call("consistency_nowitness", _consistent(False)),
            Call("count", _count),
        ]
    else:
        point, full = base.point_query, base.full_query
        reads = [
            Call("consistency_nowitness", _consistent(False)),
            Call("count", _count),
            Call("rcdp_strong", lambda db, e: db.complete(point, STRONG, engine=e)),
            Call("rcqp_strong", lambda db, e: db.rcqp(point, STRONG, engine=e)),
            Call("certain_answers", lambda db, e: db.certain_answers(full, engine=e)),
        ]
    calls = list(reads)
    for step in stream.script:
        calls += [_update_call(step), *reads]
    label = "-".join(f"{key[0]}{value}" for key, value in sorted(shape.items()))
    return Instance(
        f"update-{'sat' if sat else 'prop'}-{label}",
        base.cinstance,
        base.master,
        base.constraints,
        calls,
        engine="sat" if sat else None,
    )


#: Updates per ``facade_update`` instance.
UPDATE_STEPS = 10


def facade_update_corpus(seed: int) -> list[Instance]:
    """Inputs of ``facade_update``: update streams with re-asked decides.

    Stratified like the registry instances of ``facade_decide``: every seed
    gets the same shapes (master 5-6, rows 3-4, 1-2 missing values), once
    with the propagating engine and once with the SAT engine.
    """
    rng = random.Random(f"facade_update:{seed}")
    instances = [
        _update_stream(
            rng,
            {"master_size": master, "db_rows": rows, "variable_count": variables},
            sat,
        )
        for master in (5, 6)
        for rows in (3, 4)
        for variables in (1, 2)
        for sat in (False, True)
        for _copy in range(2)
    ]
    rng.shuffle(instances)
    return instances


def facade_decide_corpus(seed: int) -> list[Instance]:
    """Inputs of ``facade_decide``: about 330 decisions per pass."""
    rng = random.Random(f"facade_decide:{seed}")
    instances = _registry_instances(rng, copies=2)
    instances += [
        _wide_constraint(18, ("count", "consistency")),
        _skewed(24, ("count", "consistency")),
        _wide_pool(6, 5, count=False),
        _patients(),
    ]
    rng.shuffle(instances)
    return instances


def sat_count_corpus(seed: int) -> list[Instance]:
    """Inputs of ``sat_count``: counting and pigeonhole families."""
    rng = random.Random(f"sat_count:{seed}")
    instances = [
        _wide_pool(5, 5, count=True),
        _wide_pool(6, 5, count=True),
        _wide_pool(5, 6, count=True),
        _wide_pool(6, 6, count=True),
        _wide_pool(6, 5, count=False),
        _wide_pool(7, 6, count=False),
        _components(3, 3, 4),
        _components(4, 3, 4),
        _wide_constraint(12, ("count",)),
        _wide_constraint(18, ("count",)),
        _skewed(48, ("count",)),
    ]
    rng.shuffle(instances)
    return instances


CORPORA: dict[str, Callable[[int], list[Instance]]] = {
    "facade_decide": facade_decide_corpus,
    "sat_count": sat_count_corpus,
    "facade_update": facade_update_corpus,
}

#: The engine each embedded workload's facades are built with (``None`` is
#: the facade default, the propagating engine).
ENGINES: dict[str, str | None] = {
    "facade_decide": None,
    "sat_count": "sat",
    "facade_update": None,
}
