"""Run one benchmark workload and print its metrics (see ``perfbench``).

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload facade_decide --seed 1 --seconds 20 --trace 0

The last line of standard output is the result object; the line before it
is a diagnostics object.  Exit code 0 means every answer was right and no
operation failed; 1 means some answer was wrong or some operation failed;
2 means the checkout holds no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("facade_decide", "sat_count", "facade_update", "service_mixed")


def _environment() -> dict[str, str]:
    """The environment of every child process: ``src`` first on the path."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + inherited if inherited else "")
    return env


def _load_program() -> None:
    """Put the checkout's ``src`` first on the path and check it is used."""
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: no {package.relative_to(ROOT)} in {ROOT}; nothing to measure")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro

    loaded = Path(repro.__file__).resolve()
    if loaded != package.resolve():
        raise SystemExit(f"perfbench: imported repro from {loaded}, not from {package}")


def _format(result: dict[str, Any], trace: int) -> str:
    """The result line, its metrics in ``BENCHMARK.json`` order.

    Raises when the measured names or units differ from the declared ones.
    """
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = declared["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    if {spec["name"] for spec in specs} != set(measured):
        raise RuntimeError(
            f"measured metrics {sorted(measured)} differ from BENCHMARK.json's"
        )
    metrics = {}
    for spec in specs:
        value, unit = measured[spec["name"]]
        if unit != spec["unit"]:
            raise RuntimeError(f"{spec['name']} measured in {unit}, declared in {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    return json.dumps({**result, "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # String hashing orders some of the program's internal iteration (the
    # SAT encoding's variable numbering, hence the solver's search), so the
    # hash seed is part of the input: fix it from --seed, so that one seed
    # always does the same work, and re-run under it.
    hash_seed = str(args.seed % 2**32)
    if os.environ.get("PYTHONHASHSEED") != hash_seed:
        argv = sys.argv[1:] if argv is None else argv
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)
    try:
        _load_program()
    except SystemExit as stop:
        print(stop.code, file=sys.stderr)
        return 2

    if args.workload == "service_mixed":
        from perfbench import service_mixed

        if args.trace:
            result, diagnostics = service_mixed.run_traced(
                ROOT, args.seed, args.seconds, _environment()
            )
        else:
            result, diagnostics = service_mixed.run_untraced(
                ROOT, args.seed, args.seconds, _environment()
            )
    else:
        from perfbench import embedded

        if args.trace:
            result, diagnostics = embedded.run_traced(args.workload, args.seed, args.seconds)
        else:
            result, diagnostics = embedded.run_untraced(
                ROOT, args.workload, args.seed, args.seconds, _environment()
            )
    line = _format(result, args.trace)
    print(json.dumps({"diagnostics": diagnostics}))
    print(line, flush=True)
    return 0 if result["correct"] and result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
