#!/usr/bin/env python3
"""Write golden.json: the sha256 of the output of every job any seed can draw.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are known good, and only when the
job lists in workloads.py change.  It refuses to record a job whose
verdict or identity check fails, so a digest is never taken of a wrong
answer.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import add_source_tree


def main() -> int:
    if not add_source_tree():
        return 2
    import workloads

    golden = {}
    for job in workloads.all_jobs():
        out = workloads.run(job)
        problems = workloads.check(job, out, workloads.reference(job))
        if problems:
            print(f"FAIL {job.key}: {'; '.join(problems)}", file=sys.stderr)
            return 1
        golden[job.key] = workloads.digest(out)
    path = Path(__file__).resolve().parent / "golden.json"
    path.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"{len(golden)} digests written to {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
