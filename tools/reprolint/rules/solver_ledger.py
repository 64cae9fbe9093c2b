"""R007 — every search-layer solver counts into its owner's ledger.

The world-search engines report solver work through a ledger the caller
reads after the call (``SATSearchStats.solver``).  A ``DPLLSolver`` built
without ``stats=`` counts into a private ledger that nobody reads, so its
work silently disappears from every report — the historical
``IncrementalSATSession._throwaway_solver`` bug, which made every facade
SAT count report zero solver calls however many blocking-clause solves it
ran.

The rule flags any ``DPLLSolver(...)`` call under ``src/repro/search/``
that passes no ``stats=`` keyword (a ``**kwargs`` splat is given the benefit
of the doubt).  Solvers elsewhere — the reductions' one-shot satisfiability
checks — have no ledger to feed and are out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.reprolint.core import Rule, Violation, register_rule


def _is_solver_constructor(func: ast.expr) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "DPLLSolver"
    return isinstance(func, ast.Attribute) and func.attr == "DPLLSolver"


@register_rule
class SolverLedgerRule(Rule):
    code = "R007"
    name = "unledgered-solver"
    rationale = (
        "a search-layer DPLLSolver built without stats= counts into a "
        "private ledger nobody reads, so its solves vanish from the "
        "engine's reported work — pass the owner's ledger"
    )
    fixture_path = "src/repro/search/example.py"

    must_flag = (
        # The historical session bug: the throwaway enumeration solver.
        "def _throwaway_solver(self):\n"
        "    solver = DPLLSolver(self._encoder.encoding.clauses)\n"
        "    for literal in self._encoder.assumptions():\n"
        "        solver.add_clause((literal,))\n"
        "    return solver\n",
        # Same shape through a module attribute, with other keywords.
        "def build(clauses):\n"
        "    return dpll.DPLLSolver(clauses, phase=True)\n",
    )
    must_pass = (
        # The fixed shape: the solver shares the call's ledger.
        "def _throwaway_solver(self, ledger):\n"
        "    return DPLLSolver(self._encoder.encoding.clauses, stats=ledger)\n",
        # A forwarded keyword splat may carry the ledger.
        "def build(clauses, **options):\n"
        "    return DPLLSolver(clauses, **options)\n",
        # Other constructors are somebody else's business.
        "def build(clauses):\n"
        "    return CNFFormula(clauses)\n",
    )

    def applies_to(self, path: str) -> bool:
        return "src/repro/search/" in path

    def check(self, tree: ast.Module, path: str) -> Iterator[Violation]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or not _is_solver_constructor(node.func):
                continue
            if any(kw.arg in ("stats", None) for kw in node.keywords):
                continue
            yield self.violation(
                node,
                path,
                "DPLLSolver built without stats=; its work is lost to every "
                "report — pass the owning search's ledger",
            )
