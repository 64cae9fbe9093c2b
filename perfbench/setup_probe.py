"""One fresh-process set-up of an embedded workload (timed by the caller).

Imports ``repro``, generates the seeded corpus and builds one facade per
instance, then exits: the cost a caller pays before its first decision.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.corpus import CORPORA, ENGINES  # noqa: E402 - needs the path above


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(CORPORA))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    corpus = CORPORA[args.workload](args.seed)
    facades = [instance.facade(ENGINES[args.workload]) for instance in corpus]
    return 0 if facades else 1


if __name__ == "__main__":
    sys.exit(main())
