"""A CDCL satisfiability solver on flat literal codes.

The lower-bound reductions (:mod:`repro.reductions.sat`) and the SAT-backed
world-search engine (:mod:`repro.search.sat_engine`) both need a propositional
solver that scales past the handful of variables the brute-force
``itertools.product`` scan can enumerate.  :class:`DPLLSolver` is a classic
trail-based DPLL procedure hardened with the standard machinery of modern
solvers:

* **unit propagation via two watched literals** — each clause of length ≥ 2
  watches two of its literals and is only inspected when one of them is
  falsified, so propagation cost is proportional to the clauses that can
  actually become unit, not to the clause database size;
* **first-UIP conflict-driven clause learning** — every propagation records
  its reason clause, so a conflict is analysed on the implication graph:
  resolving backwards over the current decision level until one literal of
  that level remains (the first unique implication point) yields an
  asserting clause, which is shrunk further by recursive self-subsumption
  minimisation and installed with a non-chronological backjump to its
  asserting level;
* **conflict-driven restarts** — after a geometrically growing number of
  conflicts the trail is reset to level zero; the learned clauses (and the
  saved phases and variable activities) carry the progress across the
  restart, so restarts redirect the search without losing completeness;
* **dynamic variable activities with phase saving** — variables involved in
  recent conflicts are branched on first (highest activity, ties to the
  smallest variable), and unassigned variables remember the polarity they
  last held.

Literals follow the DIMACS convention used by :mod:`repro.reductions.sat`
at the interface: a literal is a non-zero integer, ``+v`` for variable ``v``
and ``-v`` for its negation.  Variable identifiers may be arbitrary (sparse)
positive integers.  Internally every literal is a *code* in the style of
MiniSat (Eén & Sörensson, "An Extensible SAT-solver", SAT 2003): ``2v`` for
``+v`` and ``2v + 1`` for ``-v``, so negation is ``code ^ 1`` and the
variable is ``code >> 1``.  Codes index flat lists directly — the per-literal
values and watch lists, and the per-variable level, reason, phase and
activity — which grow to the largest variable seen; identifiers in the gaps
are never mentioned, never branched on and never reported.

The solver is incremental in the way the world-search engine needs: clauses
may be added between ``solve()`` calls (e.g. blocking clauses during model
enumeration), and the level-0 trail — every literal the clause database
implies on its own — is kept across calls.  :meth:`DPLLSolver.add_clause`
returns the solver to level 0 and simplifies the new clause there: a clause
already true at level 0 is dropped, literals false at level 0 are removed,
a clause left with one literal is asserted at level 0, and an empty one
makes the instance permanently unsatisfiable (as does a conflict at level
0).  Each ``solve()`` then only has to search above level 0, keeping the
learned clauses, activities and phases.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import ReductionError

#: Activity decay applied after every conflict (MiniSat-style bumping).
_ACTIVITY_INC_FACTOR = 1.0 / 0.95
#: Rescale threshold preventing float overflow of activities.
_ACTIVITY_RESCALE = 1e100
#: First restart after this many conflicts; grows geometrically afterwards.
_RESTART_BASE = 64
_RESTART_FACTOR = 1.5
#: The order heap is rebuilt once stale entries make it this many times
#: larger than the number of variables (plus a small constant), so its size
#: stays linear in the variable count however long the solver lives.
_HEAP_SLACK = 2
_HEAP_SLACK_MIN = 64


@dataclass
class SolverStats:
    """Counters describing the work done across all ``solve()`` calls."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    solve_calls: int = 0


class DPLLSolver:
    """Trail-based CDCL with watched literals, learning and restarts."""

    def __init__(
        self,
        clauses: Iterable[Sequence[int]] = (),
        *,
        stats: SolverStats | None = None,
    ) -> None:
        self._num_clauses = 0
        self._unsat = False

        # Per literal code: True / False / None (unassigned), the clauses of
        # length ≥ 3 watching the code, and the binary clauses holding it as
        # ``(other literal, clause)`` pairs — a binary clause never moves its
        # watches, so its lists are never rewritten.
        self._values: list[bool | None] = [None, None]
        self._watches: list[list[list[int]]] = [[], []]
        self._binary: list[list[tuple[int, list[int]]]] = [[], []]
        # Per variable.  ``_mentioned`` marks identifiers the clause database
        # (or an assumption) has used; only those are branched on.
        self._mentioned: list[bool] = [False]
        self._level: list[int] = [0]
        self._reason: list[list[int] | None] = [None]
        self._phase: list[bool] = [False]
        self._activity: list[float] = [0.0]
        self._activity_inc = 1.0
        self._num_vars = 0

        # Order heap: ``(-activity, var)`` entries, so the smallest entry is
        # the most active variable with ties to the smallest identifier.
        # Entries are lazy: a bump leaves the variable's old entry behind, to
        # be skipped when it surfaces, and backtracking pushes a fresh one.
        # ``_in_heap[v]`` says whether ``v`` has an entry carrying its
        # current activity; every unassigned mentioned variable has one.
        self._heap: list[tuple[float, int]] = []
        self._in_heap: list[bool] = [False]

        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0

        # A caller-supplied ``stats`` lets several solver instances fold
        # their counters into one ledger (the world-search engines build a
        # fresh solver per enumeration but report one set of totals).
        self.stats = SolverStats() if stats is None else stats
        for clause in clauses:
            self.add_clause(clause)

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def _grow(self, var: int) -> None:
        """Extend every per-variable and per-literal list past ``var``."""
        old = len(self._level)
        extra = max(var + 1, 2 * old) - old
        self._values.extend([None] * (2 * extra))
        self._watches.extend([] for _ in range(2 * extra))
        self._binary.extend([] for _ in range(2 * extra))
        self._mentioned.extend([False] * extra)
        self._level.extend([0] * extra)
        self._reason.extend([None] * extra)
        self._phase.extend([False] * extra)
        self._activity.extend([0.0] * extra)
        self._in_heap.extend([False] * extra)

    def _mention(self, var: int) -> None:
        """Register a variable the first time a clause or assumption uses it."""
        if var >= len(self._mentioned):
            self._grow(var)
        self._mentioned[var] = True
        self._num_vars += 1
        self._in_heap[var] = True
        heapq.heappush(self._heap, (-self._activity[var], var))

    def _codes(self, literals: Iterable[int]) -> list[int]:
        """Literal codes of DIMACS literals, registering their variables."""
        codes: list[int] = []
        for lit in literals:
            if lit > 0:
                var = lit
                code = lit << 1
            elif lit < 0:
                var = -lit
                code = (var << 1) | 1
            else:
                raise ReductionError("literal 0 is not allowed (DIMACS convention)")
            if var >= len(self._mentioned) or not self._mentioned[var]:
                self._mention(var)
            codes.append(code)
        return codes

    # ------------------------------------------------------------------
    # clause database
    # ------------------------------------------------------------------
    def add_clause(self, literals: Sequence[int]) -> None:
        """Add a clause; duplicates are merged and tautologies dropped.

        Clauses may be added between ``solve()`` calls (the next call picks
        them up).  The clause is simplified against the level-0 trail: it is
        dropped when already true there, loses its literals false there,
        and is asserted at level 0 when one literal remains.  Adding a
        clause with no literal left (the empty clause included) marks the
        instance unsatisfiable.
        """
        if self._trail_lim:
            self._backtrack(0)
        mentioned = self._mentioned
        values = self._values
        free: list[int] = []
        satisfied = False
        # One pass converts to codes, registers new variables and splits
        # off the literals already decided at level 0.  It repeats _codes
        # inline: building the clause database dominates small solves.
        for lit in literals:
            if lit > 0:
                var = lit
                code = lit << 1
            elif lit < 0:
                var = -lit
                code = (var << 1) | 1
            else:
                raise ReductionError("literal 0 is not allowed (DIMACS convention)")
            if var >= len(mentioned) or not mentioned[var]:
                self._mention(var)  # grows the lists in place
            value = values[code]
            if value is None:
                free.append(code)
            elif value:
                satisfied = True  # keep going: every variable gets registered
        if satisfied:
            return  # true at level 0: satisfied for good
        size = len(free)
        if size == 2:
            first, second = free
            if first == second:
                free.pop()
                size = 1
            elif first ^ 1 == second:
                return  # tautology: always satisfied
        elif size > 2:
            unique = set(free)
            if len(unique) < size:
                free = list(dict.fromkeys(free))
                size = len(free)
            for code in free:
                if code ^ 1 in unique:
                    return  # tautology: always satisfied
        if size >= 2:
            self._attach(free)
        elif size:
            self._assign(free[0], None)
        else:
            self._unsat = True

    def _attach(self, clause: list[int]) -> None:
        """Store a (length ≥ 2) clause and watch its first two literals."""
        self._num_clauses += 1
        first, second = clause[0], clause[1]
        if len(clause) == 2:
            self._binary[first].append((second, clause))
            self._binary[second].append((first, clause))
        else:
            self._watches[first].append(clause)
            self._watches[second].append(clause)

    @property
    def num_clauses(self) -> int:
        """Clauses in the database (input + learned), excluding units and
        clauses already satisfied at level 0 when added."""
        return self._num_clauses

    @property
    def variables(self) -> frozenset[int]:
        """All variable identifiers mentioned by the clauses or assumptions."""
        return frozenset(
            var for var, mentioned in enumerate(self._mentioned) if mentioned
        )

    # ------------------------------------------------------------------
    # assignment trail
    # ------------------------------------------------------------------
    def _assign(self, code: int, reason: list[int] | None) -> None:
        """Assert an unassigned literal at the current decision level.

        ``reason`` is the clause that forced the literal (``None`` for
        decisions, assumption installs and level-0 units); first-UIP
        analysis resolves over these antecedents.
        """
        values = self._values
        values[code] = True
        values[code ^ 1] = False
        var = code >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(code)

    def _backtrack(self, target_level: int) -> None:
        """Undo all assignments above ``target_level``, saving phases."""
        trail_lim = self._trail_lim
        if len(trail_lim) <= target_level:
            return
        cut = trail_lim[target_level]
        trail = self._trail
        values = self._values
        phase = self._phase
        in_heap = self._in_heap
        activity = self._activity
        heap = self._heap
        for code in trail[cut:]:
            var = code >> 1
            values[code] = None
            values[code ^ 1] = None
            phase[var] = not code & 1
            if not in_heap[var]:
                in_heap[var] = True
                heapq.heappush(heap, (-activity[var], var))
        del trail[cut:]
        del trail_lim[target_level:]
        self._qhead = min(self._qhead, len(trail))

    # ------------------------------------------------------------------
    # propagation (two watched literals)
    # ------------------------------------------------------------------
    def _propagate(self) -> list[int] | None:
        """Exhaust unit propagation; return a conflicting clause or ``None``."""
        trail = self._trail
        values = self._values
        watches = self._watches
        binary = self._binary
        level = self._level
        reason = self._reason
        current = len(self._trail_lim)
        qhead = self._qhead
        propagations = 0
        conflict: list[int] | None = None
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            for other, clause in binary[false_lit]:
                value = values[other]
                if value is None:
                    propagations += 1
                    values[other] = True
                    values[other ^ 1] = False
                    var = other >> 1
                    level[var] = current
                    reason[var] = clause
                    trail.append(other)
                elif value is False:
                    conflict = clause
                    break
            if conflict is not None:
                break
            watchers = watches[false_lit]
            if not watchers:
                continue
            kept: list[list[int]] = []
            for cursor, clause in enumerate(watchers):
                # Normalise: the falsified watch sits at position 1.
                other = clause[0]
                if other == false_lit:
                    other = clause[1]
                    clause[0] = other
                    clause[1] = false_lit
                if values[other] is True:
                    kept.append(clause)
                    continue
                for position in range(2, len(clause)):
                    candidate = clause[position]
                    if values[candidate] is not False:
                        clause[1] = candidate
                        clause[position] = false_lit
                        watches[candidate].append(clause)
                        break
                else:
                    kept.append(clause)
                    if values[other] is False:
                        kept.extend(watchers[cursor + 1 :])
                        conflict = clause
                        break
                    propagations += 1
                    values[other] = True
                    values[other ^ 1] = False
                    var = other >> 1
                    level[var] = current
                    reason[var] = clause
                    trail.append(other)
            watches[false_lit] = kept
            if conflict is not None:
                break
        self._qhead = qhead
        self.stats.propagations += propagations
        return conflict

    # ------------------------------------------------------------------
    # heuristics
    # ------------------------------------------------------------------
    def _bump(self, variables: Iterable[int]) -> None:
        """Raise the activity of the (assigned) variables of a conflict."""
        activity = self._activity
        in_heap = self._in_heap
        for var in variables:
            bumped = activity[var] + self._activity_inc
            activity[var] = bumped
            # Any heap entry of ``var`` is stale now.  The variable took part
            # in the conflict, so it is assigned, and backtracking gives it
            # a fresh entry when it unassigns it.
            in_heap[var] = False
            if bumped > _ACTIVITY_RESCALE:
                for key in range(len(activity)):
                    activity[key] *= 1.0 / _ACTIVITY_RESCALE
                self._activity_inc *= 1.0 / _ACTIVITY_RESCALE
                self._rebuild_heap()
        self._activity_inc *= _ACTIVITY_INC_FACTOR
        if len(self._heap) > _HEAP_SLACK * self._num_vars + _HEAP_SLACK_MIN:
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        """One current entry per unassigned mentioned variable, nothing else."""
        values = self._values
        activity = self._activity
        in_heap = self._in_heap
        entries: list[tuple[float, int]] = []
        for var, mentioned in enumerate(self._mentioned):
            free = mentioned and values[var << 1] is None
            in_heap[var] = free
            if free:
                entries.append((-activity[var], var))
        heapq.heapify(entries)
        self._heap[:] = entries

    def _pick_branch_variable(self) -> int:
        """The most active unassigned variable (ties: smallest), or 0."""
        heap = self._heap
        values = self._values
        activity = self._activity
        while heap:
            negated, var = heapq.heappop(heap)
            if -negated != activity[var]:
                continue  # stale: a fresher entry for ``var`` exists
            self._in_heap[var] = False
            if values[var << 1] is None:
                return var
        return 0

    # ------------------------------------------------------------------
    # conflict handling (first-UIP learning + backjumping)
    # ------------------------------------------------------------------
    def _learn(self, conflict: list[int]) -> None:
        """First-UIP analysis over the implication graph, then backjump.

        Starting from the conflicting clause, repeatedly resolve out the
        most recently assigned current-level literal against its reason
        clause until exactly one current-level literal remains — the first
        unique implication point.  The resulting clause is resolution-derived
        from the clause database alone, so it is globally entailed even when
        the conflict arose under assumptions.  It is installed after a
        backjump to its asserting level, where its first literal is then
        asserted with the clause as reason.
        """
        level = self._level
        reason_of = self._reason
        trail = self._trail
        current_level = len(self._trail_lim)
        seen: set[int] = set()
        others: list[int] = []  # learned literals below the current level
        to_bump: list[int] = []
        path = 0  # current-level literals still awaiting resolution
        uip = 0
        p = -1  # the trail literal just resolved out (skip it in its reason)
        reason = conflict
        index = len(trail) - 1
        while True:
            # Reason clauses alias the (watch-swapped, mutable) clause lists,
            # so the resolved literal is skipped by value, never by position.
            for code in reason:
                if code == p:
                    continue
                var = code >> 1
                if var in seen:
                    continue
                var_level = level[var]
                if var_level == 0:
                    continue  # falsified at level 0: resolved away for free
                seen.add(var)
                to_bump.append(var)
                if var_level >= current_level:
                    path += 1
                else:
                    others.append(code)
            while trail[index] >> 1 not in seen:
                index -= 1
            uip = trail[index]
            index -= 1
            seen.discard(uip >> 1)
            path -= 1
            if path <= 0:
                break
            antecedent = reason_of[uip >> 1]
            if antecedent is None:  # pragma: no cover - decisions end the walk
                raise ReductionError(
                    "conflict analysis reached a decision before the UIP"
                )
            reason = antecedent
            p = uip
        self._bump(to_bump)
        # ``seen`` now holds exactly the variables of ``others``; use it to
        # drop literals whose negations are implied by the rest of the clause.
        if others:
            cache: dict[int, bool] = {}
            others = [
                code
                for code in others
                if not self._literal_redundant(code, seen, cache)
            ]
        asserting = uip ^ 1
        self.stats.learned_clauses += 1
        if not others:
            # A learned unit is entailed by the clause database: it joins
            # the permanent level-0 trail.
            self._backtrack(0)
            self._assign(asserting, None)
            return
        learned = [asserting, *others]
        # Backjump to the asserting level: the deepest level among the other
        # literals.  Put one literal of that level at position 1 so the two
        # watches sit on the two deepest literals of the clause.
        jump = 0
        deepest = 1
        for position in range(1, len(learned)):
            var_level = level[learned[position] >> 1]
            if var_level > jump:
                jump = var_level
                deepest = position
        learned[1], learned[deepest] = learned[deepest], learned[1]
        self._backtrack(jump)
        self._attach(learned)
        self._assign(asserting, learned)

    def _literal_redundant(
        self, code: int, clause_vars: set[int], cache: dict[int, bool]
    ) -> bool:
        """Recursive learned-clause minimisation (iterative implementation).

        A learned literal is redundant when every antecedent of its variable
        is, transitively, either fixed at level 0 or another variable of the
        learned clause — then the literal is self-subsumed by the rest of
        the clause.  Implemented with an explicit stack: antecedent chains
        can exceed Python's recursion limit on deep implication graphs.
        """
        level = self._level
        reason_of = self._reason

        def antecedent_vars(var: int) -> list[int] | None:
            reason = reason_of[var]
            if reason is None:
                return None  # a decision (or assumption): not derivable
            return [
                q >> 1
                for q in reason
                if q >> 1 != var and level[q >> 1] > 0
            ]

        root = code >> 1
        first = antecedent_vars(root)
        if first is None:
            return False
        work: list[tuple[int, list[int], int]] = [(root, first, 0)]
        while work:
            var, ants, pos = work.pop()
            descended = False
            while pos < len(ants):
                ant = ants[pos]
                pos += 1
                if ant in clause_vars or cache.get(ant) is True:
                    continue
                if cache.get(ant) is False:
                    for frame_var, _ants, _pos in work:
                        cache[frame_var] = False
                    cache[var] = False
                    return False
                child = antecedent_vars(ant)
                if child is None:
                    # Bottoms out in a decision: everything on the stack
                    # (including the root) fails.
                    cache[ant] = False
                    for frame_var, _ants, _pos in work:
                        cache[frame_var] = False
                    cache[var] = False
                    return False
                work.append((var, ants, pos))
                work.append((ant, child, 0))
                descended = True
                break
            if descended:
                continue
            cache[var] = True
        return True

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> dict[int, bool] | None:
        """A satisfying assignment of every variable, or ``None`` (UNSAT).

        The model maps every mentioned variable to its value, in trail
        (assignment) order.  Each call resumes from the level-0 trail, which
        holds across calls, and keeps learned clauses, variable activities
        and saved phases.

        ``assumptions`` are literals the search must satisfy for *this call
        only*: they are installed as the first decisions (in order), so a
        ``None`` result means "unsatisfiable under the assumptions", not
        necessarily globally.  Learned clauses remain globally sound under
        assumptions: first-UIP clauses are resolution-derived from the
        clause database alone (assumptions enter only as decisions, never as
        resolvents), and the level-0 trail only ever holds consequences of
        the clause database.  Both therefore persist safely into later calls
        with different assumptions — this is what lets one solver outlive a
        stream of incremental updates (:mod:`repro.search.sat_engine`'s
        guarded re-encoding).
        """
        stats = self.stats
        stats.solve_calls += 1
        assumed = self._codes(assumptions)
        self._backtrack(0)
        if self._unsat:
            return None
        values = self._values
        trail_lim = self._trail_lim
        conflicts_until_restart = _RESTART_BASE
        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                if not trail_lim:
                    # Refuted by the clause database alone: for good.
                    self._unsat = True
                    return None
                self._learn(conflict)
                conflicts_until_restart -= 1
                if conflicts_until_restart <= 0:
                    stats.restarts += 1
                    self._backtrack(0)
                    conflicts_until_restart = int(
                        _RESTART_BASE * _RESTART_FACTOR ** (stats.restarts)
                    )
                continue
            # Assumptions first: install each pending assumption as its own
            # decision level before any heuristic branching.  A falsified
            # assumption (by propagation or a learned clause) means UNSAT
            # under the assumptions.
            pending = -1
            for code in assumed:
                value = values[code]
                if value is False:
                    return None
                if value is None:
                    pending = code
                    break
            if pending < 0:
                var = self._pick_branch_variable()
                if not var:
                    return {code >> 1: not code & 1 for code in self._trail}
                pending = var << 1 if self._phase[var] else (var << 1) | 1
            stats.decisions += 1
            trail_lim.append(len(self._trail))
            self._assign(pending, None)

    def enumerate_models(
        self, project_onto: Sequence[int] | None = None
    ) -> Iterator[dict[int, bool]]:
        """Enumerate satisfying assignments via blocking clauses.

        With ``project_onto`` given, models are enumerated up to their
        restriction to those variables (each projection appears exactly once);
        otherwise full models are blocked one by one.  Projected variables
        the clause database has never seen are don't-care: they contribute no
        blocking literal (and do not appear in the yielded models), so an
        unconstrained selector cannot crash the enumeration.  The blocking
        clauses stay in the solver, so interleaving with :meth:`add_clause`
        is safe.
        """
        while True:
            model = self.solve()
            if model is None:
                return
            yield model
            scope = project_onto if project_onto is not None else sorted(model)
            blocking = [
                -var if model[var] else var for var in scope if var in model
            ]
            if not blocking:
                return  # nothing to block: the projection admits one model
            self.add_clause(blocking)


def solve_cnf(clauses: Iterable[Sequence[int]]) -> dict[int, bool] | None:
    """One-shot convenience wrapper: solve a clause list with a fresh solver."""
    return DPLLSolver(clauses).solve()


def brute_force_satisfiable(
    clauses: Sequence[Sequence[int]], assignment_limit: int = 1 << 22
) -> bool:
    """Exhaustive satisfiability check, used to cross-validate the solver.

    Kept deliberately independent of :class:`DPLLSolver` (and of
    :class:`repro.reductions.sat.CNFFormula`) so the two implementations share
    no code paths; refuses instances whose assignment space exceeds
    ``assignment_limit``.
    """
    import itertools

    variables = sorted({abs(lit) for clause in clauses for lit in clause})
    if 2 ** len(variables) > assignment_limit:
        raise ReductionError(
            f"brute-force check over {len(variables)} variables exceeds the "
            "assignment limit; use DPLLSolver instead"
        )
    for values in itertools.product((False, True), repeat=len(variables)):
        assignment: Mapping[int, bool] = dict(zip(variables, values))
        if all(
            any(
                assignment[abs(lit)] == (lit > 0)
                for lit in clause
            )
            for clause in clauses
        ):
            return True
    return False
