"""Self-check: two runs with one seed do the same work and answer correctly.

Run with ``python3 -m pytest perfbench`` from the root of the checkout (the
tier-1 suite does not collect this directory; each case starts the
benchmark four times in fresh processes, so the file takes a few minutes).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any

import pytest

ROOT = Path(__file__).resolve().parent.parent

EMBEDDED = ("facade_decide", "sat_count", "facade_update")


def _run(workload: str, seed: int, trace: int) -> tuple[dict[str, Any], dict[str, Any]]:
    completed = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            "2",
            "--trace",
            str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    *_, diagnostics_line, result_line = completed.stdout.strip().splitlines()
    result = json.loads(result_line)
    assert completed.returncode == 0, (result, completed.stderr)
    return result, json.loads(diagnostics_line)["diagnostics"]


@pytest.mark.parametrize("workload", EMBEDDED)
def test_same_seed_same_work(workload: str) -> None:
    """Engine counts and the solver work the wrappers see repeat exactly."""
    runs = [_run(workload, 7, trace) for trace in (0, 0, 1, 1)]
    for result, diagnostics in runs:
        assert result["correct"] and result["failed"] == 0
        assert diagnostics["work_repeats"], "passes of one run did different work"
    (plain, plain_d), (again, again_d), (traced, traced_d), (retraced, retraced_d) = runs
    assert plain["attempted"] == again["attempted"]
    assert plain_d["work_per_pass"] == again_d["work_per_pass"]
    assert traced_d["work_per_pass"] == retraced_d["work_per_pass"] == plain_d["work_per_pass"]
    assert traced_d["solver_work_per_pass"] == retraced_d["solver_work_per_pass"]
    assert plain_d["work_per_pass"]["decisions"] > 0
    work = plain_d["work_per_pass"]
    assert work.get("search.nodes", 0) + work.get("cnf.clauses", 0) > 0


def test_service_same_seed_same_work() -> None:
    """The engine runs behind the service's answers repeat exactly.

    Fails while the process executor answers decides after an update on
    the pre-update c-instance (see :mod:`perfbench.service_mixed`).
    """
    (first, first_d), (second, second_d) = (_run("service_mixed", 7, 0) for _ in range(2))
    assert first["attempted"] == second["attempted"]
    assert first_d["engine_work"] == second_d["engine_work"]
    assert first_d["engine_work"]["nodes"] + first_d["engine_work"]["clauses"] > 0
    traced = [_run("service_mixed", 7, 1)[1] for _ in range(2)]
    assert traced[0]["engine_work"] == traced[1]["engine_work"]
    assert traced[0]["solver_work"] == traced[1]["solver_work"]


def test_exits_nonzero_without_the_program(tmp_path: Path) -> None:
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for source in (ROOT / "perfbench").glob("*.py"):
        (bench / source.name).write_text(source.read_text())
    command = ["perfbench/run.py", "--workload", "sat_count", "--seed", "1", "--seconds", "1"]
    completed = subprocess.run(
        [sys.executable, *command],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        check=False,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
