#!/usr/bin/env python3
"""Run one workload of the qsigns benchmark and print its metrics.

    python3 perfbench/run.py --workload pentagonal --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository; it imports qsigns from ``src/``
next to this directory.  One process runs the workload's jobs one at a
time, a closed loop with one client.  A warm-up pass comes first, then
timed passes until ``--seconds`` have gone.  Every output of every pass
is checked (see workloads.py), and a job that fails, raises or exits
non-zero counts as failed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (tracing.py),
including the tracing overhead.  Outputs must be identical with tracing
on and off, and the computed counts identical between traced passes.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The exit status is 0 only when every
check passed.  ``--out FILE`` also appends the run, with its metadata,
to a BENCH trajectory file (see compare.py).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def add_source_tree() -> bool:
    """Put the checkout's src/ first on sys.path; False when it holds no qsigns."""
    if not (SRC / "qsigns" / "__init__.py").is_file():
        print(f"error: no qsigns sources at {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description="run one qsigns benchmark workload")
    parser.add_argument("--workload", required=True,
                        choices=("pentagonal", "binomial", "dissection", "dense"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append this run to a BENCH file")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not add_source_tree():
        return 2

    import harness

    return harness.bench(args.workload, args.seed, args.seconds, bool(args.trace), SRC, args.out)


if __name__ == "__main__":
    sys.exit(main())
