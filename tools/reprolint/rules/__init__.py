"""Built-in reprolint rules; importing this package registers them all."""

from tools.reprolint.rules import (  # noqa: F401  (imported for registration)
    decision_discipline,
    determinism,
    fork_safety,
    registry_contract,
    session_balance,
    solver_ledger,
    stats_rebinding,
)
