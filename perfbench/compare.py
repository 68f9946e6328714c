#!/usr/bin/env python3
"""Compare two BENCH files written by ``run.py --out``, metric by metric.

    python3 perfbench/compare.py perfbench/BENCH_0.json BENCH_new.json

A speed-up only counts against the same exact answer on the same
kernels, so the comparison is refused when the runs used different
backends, or when one workload and seed gave different digests.  For
each workload and metric it prints the median over the runs of each
file, the quartile spread of the first file's runs as a share of their
median, and the change of the median.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path: str) -> list[dict]:
    return json.loads(Path(path).read_text())["runs"]


def by_metric(runs: list[dict]) -> dict:
    values = defaultdict(list)
    for run in runs:
        for name, m in run["metrics"].items():
            values[(run["meta"]["workload"], name, m["unit"])].append(m["value"])
    return values


def spread(values: list[float]) -> float | None:
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    before, after = load(argv[0]), load(argv[1])
    backends = {run["meta"]["backend"] for run in before + after}
    if len(backends) != 1:
        print(f"error: runs of different backends {sorted(backends)} are not compared",
              file=sys.stderr)
        return 1
    digests = {}
    for run in before + after:
        meta = run["meta"]
        if digests.setdefault((meta["workload"], meta["seed"]), meta["digest"]) != meta["digest"]:
            print(f"error: {meta['workload']} seed {meta['seed']} gave different outputs",
                  file=sys.stderr)
            return 1
    old, new = by_metric(before), by_metric(after)
    print(f"{'workload':12s} {'metric':30s} {'before':>12s} {'spread':>7s} "
          f"{'after':>12s} {'change':>8s}  unit")
    for key in sorted(old.keys() & new.keys()):
        workload, name, unit = key
        b, a = statistics.median(old[key]), statistics.median(new[key])
        s = spread(old[key])
        change = f"{(a - b) / b:+.1%}" if b else "-"
        print(f"{workload:12s} {name:30s} {b:12.6g} {'-' if s is None else f'{s:.1%}':>7s} "
              f"{a:12.6g} {change:>8s}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
