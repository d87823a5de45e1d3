"""Benchmark entry point for xrlat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, times set-up, the Poincare
embedding and closed-loop train/eval cycles for about S seconds, checks the
outputs, and prints one JSON object as the last line: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1. BLAS and xrlat worker
threads are pinned to 1 before numpy is imported. Run it from any directory;
it reads and writes only inside the checkout that holds it (``.perfbench/``).
"""

from __future__ import annotations

import argparse
import os
import sys

from workloads import THREAD_VARS, WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "xrlat", "__init__.py")):
        print(f"error: no xrlat package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import xrlat

    if os.path.dirname(os.path.dirname(os.path.abspath(xrlat.__file__))) != src:
        print(f"error: imported xrlat from {xrlat.__file__}, not {src}", file=sys.stderr)
        return 2
    import harness

    return harness.run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
