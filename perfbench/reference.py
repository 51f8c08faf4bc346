"""Regenerate perfbench/reference.json from the program in this checkout.

  python3 perfbench/reference.py

Runs every op of every workload once, with all of run.py's output checks
except the reference itself, and stores the sha256 of each op's CLI stdout.
run.py then requires byte-identical stdout.  Regenerating is a change to the
benchmark, never part of a change that claims a speed-up.
"""

from __future__ import annotations

import json
import os
import sys
import time

import run
import workloads as W


def main() -> int:
    root = os.getcwd()
    digests: dict[str, str] = {}
    for workload in W.WORKLOADS:
        done = run.run_pass(root, W.ops_for(workload), None, digests, time.perf_counter() + 3600)
        for op_id, cause in done.failures.items():
            print(f"{op_id}: {cause}", file=sys.stderr)
        if done.failures:
            return 1
    with open(os.path.join(run.HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(digests.items())), fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(digests)} stdout digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
