"""Measurement loop of the benchmark: passes, checks, metrics and run records."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import COUNTS, PER_LAYER, Tracer

from qsigns import backend_name

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 21
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import qsigns.cli; "
    "qsigns.cli.build_parser(); print(time.perf_counter() - t0)"
)

# The reference loop, whose run time is the unit "ref": REF_ITERATIONS
# steps of small-integer arithmetic, then a Cauchy product of two lists of
# REF_TERMS integers of about 630 bits, the two kinds of work qsigns does.
# One run takes about 1 ms on a 2-vCPU x86-64 VM with CPython 3.11.
REF_ITERATIONS = 2500
REF_TERMS = 24
REF_BIG = [(3 ** 400 + 7 * i) * (-1) ** i for i in range(REF_TERMS)]

# name -> unit of every end-to-end metric
END_TO_END = {
    "wall_ref": "ref",
    "coeffs_per_ref": "1/ref",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
    "setup_s": "s",
}


def measure_setup(src: Path) -> float:
    """Median time of fresh interpreters to import qsigns.cli and build its parser."""
    env = dict(os.environ, PYTHONPATH=str(src))
    times = []
    # one extra run first: it may have to compile the bytecode
    for _ in range(SETUP_RUNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def reference_loop() -> float:
    """Time one run of a fixed pure-Python loop: the host's speed right now.

    It uses nothing from qsigns, so no change to the program moves it.  On
    a shared host the speed of the CPU drifts by a fifth within seconds,
    and a job's time divided by the loop's time next to it drifts far less.
    """
    t0 = time.perf_counter()
    acc, xs = 0, []
    for i in range(REF_ITERATIONS):
        acc += (i * 2654435761) % 1000003
        xs.append(acc)
    out = [0] * (2 * REF_TERMS)
    for i, x in enumerate(REF_BIG):
        for j, y in enumerate(REF_BIG):
            out[i + j] += x * y
    return time.perf_counter() - t0


class Runner:
    """Runs a job list pass after pass and checks every output."""

    def __init__(self, jobs: list, golden: dict):
        self.jobs = jobs
        self.golden = golden
        self.refs = {job.key: workloads.reference(job) for job in jobs}
        self.digests: dict[str, str] = {}
        # per job, its time in refs in every untraced pass; and every ref time
        self.job_refs: list[list[float]] = [[] for _ in jobs]
        self.ref_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failed checks of the run as a whole

    def run_pass(self, tracer: Tracer | None = None) -> float:
        """Run every job once; return the time spent inside the jobs.

        An untraced pass also times the reference loop before the first job
        and after each job, and records each job's time divided by the mean
        of the two reference times beside it.
        """
        outs = []
        wall = 0.0
        ref = None if tracer else reference_loop()
        for i, job in enumerate(self.jobs):
            t0 = time.perf_counter()
            try:
                out = tracer.job(workloads.run, job) if tracer else workloads.run(job)
            except Exception:
                traceback.print_exc()
                out = None
            took = time.perf_counter() - t0
            wall += took
            outs.append(out)
            if tracer is None:
                after = reference_loop()
                self.job_refs[i].append(2 * took / (ref + after))
                self.ref_times.append(after)
                ref = after
        for job, out in zip(self.jobs, outs):
            self._check(job, out)
            if tracer is not None and isinstance(out, tuple):
                tracer.counts["cli.report_bytes"] += len(out[1].encode())
        return wall

    def _check(self, job, out) -> None:
        self.attempted += 1
        if out is None:
            problems = ["raised"]
        else:
            problems = workloads.check(job, out, self.refs[job.key])
            got = workloads.digest(out)
            if self.golden.get(job.key) != got:
                problems.append("digest differs from golden.json")
            if self.digests.setdefault(job.key, got) != got:
                problems.append("output differs from the first pass")
        if problems:
            self.failed += 1
            print(f"FAIL {job.key}: {'; '.join(problems)}", file=sys.stderr)

    def wall_ref(self) -> float:
        """One pass in refs: the sum over jobs of each job's median time in refs."""
        return sum(statistics.median(refs) for refs in self.job_refs)

    def combined_digest(self) -> str:
        lines = "".join(f"{key} {d}\n" for key, d in sorted(self.digests.items()))
        return hashlib.sha256(lines.encode()).hexdigest()


def timed_rounds(runner: Runner, seconds: float, traced: bool):
    """Passes until the budget is spent; in trace mode each round adds a traced pass."""
    plain, traced_walls, tracers = [], [], []
    min_rounds = 2 if traced else 3
    deadline = time.perf_counter() + seconds
    while True:
        start = time.perf_counter()
        plain.append(runner.run_pass())
        if traced:
            with Tracer() as tracer:
                traced_walls.append(runner.run_pass(tracer))
            tracers.append(tracer)
        now = time.perf_counter()
        if len(plain) >= min_rounds and now + (now - start) > deadline:
            return plain, traced_walls, tracers


def layer_metrics(runner: Runner, plain: list, traced_walls: list, tracers: list) -> dict:
    per_pass = []
    for t, wall in zip(tracers, traced_walls):
        m = t.metrics()
        # the benchmark's own layer also takes the time between job spans,
        # so the self times of all layers add up to the traced pass time
        m["bench.self_s"] += wall - sum(t.selfs.values())
        per_pass.append(m)
    for name in COUNTS:
        if len({m[name] for m in per_pass}) != 1:
            runner.problems.append(f"count {name} differs between traced passes")
    out ={name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    out.update((name, per_pass[0][name]) for name in COUNTS)  # exact, checked above
    out["trace.wall_s"] = statistics.median(traced_walls)
    out["trace.untraced_wall_s"] = statistics.median(plain)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["bench.ref_s"] = statistics.median(runner.ref_times)
    return out


def append_record(path: Path, record: dict) -> None:
    """Add one run to a BENCH file; runs of another backend are refused."""
    doc = json.loads(path.read_text()) if path.exists() else {"runs": []}
    backends = {run["meta"]["backend"] for run in doc["runs"]}
    if backends - {record["meta"]["backend"]}:
        raise SystemExit(f"error: {path} holds runs of backend {sorted(backends)}, "
                         f"this run used {record['meta']['backend']}")
    doc["runs"].append(record)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def bench(workload: str, seed: int, seconds: float, trace: bool, src: Path,
          out: Path | None) -> int:
    setup = None if trace else measure_setup(src)
    golden = json.loads((HERE / "golden.json").read_text())
    jobs = workloads.plan(workload, seed)
    runner = Runner(jobs, golden)
    runner.run_pass()  # warm-up, checked like every other pass
    runner.job_refs = [[] for _ in jobs]
    runner.ref_times = []
    plain, traced_walls, tracers = timed_rounds(runner, seconds, trace)
    # ru_maxrss is in KiB on Linux
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if trace:
        values = layer_metrics(runner, plain, traced_walls, tracers)
    else:
        wall_ref = runner.wall_ref()
        values = {
            "wall_ref": wall_ref,
            "coeffs_per_ref": sum(job.coeffs for job in jobs) / wall_ref,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup,
        }
    if seed == 0 and workload == "pentagonal":
        # the default seed also checks the paper's full-size census, untimed
        gate = Runner(workloads.paper_gate(), golden)
        gate.run_pass()
        runner.attempted += gate.attempted
        runner.failed += gate.failed
    attempted, failed = runner.attempted, runner.failed
    correct = failed == 0 and not runner.problems
    for problem in runner.problems:
        print(f"FAIL {problem}", file=sys.stderr)
    values["pass_ratio"] = (attempted - failed) / attempted
    units = PER_LAYER if trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    meta = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "backend": backend_name(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "passes": len(plain),
        "traced_passes": len(traced_walls),
        "jobs": [job.key for job in jobs],
        "digest": runner.combined_digest(),
    }
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  backend {meta['backend']}  "
          f"python {meta['python']}  nproc {meta['nproc']}")
    print(f"jobs {len(jobs)}  digest {meta['digest'][:16]}")
    print(f"reference loop median {statistics.median(runner.ref_times) * 1e3:.3f} ms")
    print(f"pass times untraced {' '.join(f'{w:.3f}' for w in plain)} s"
          + (f"; traced {' '.join(f'{w:.3f}' for w in traced_walls)} s" if trace else ""))
    print(f"fail_ratio {failed / attempted:g} ({failed} of {attempted} jobs)")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    if out is not None:
        append_record(out, {"meta": meta, "metrics": metrics,
                            "attempted": attempted, "failed": failed})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1
