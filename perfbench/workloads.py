"""The benchmark's workloads: seeded job lists, how to run each job, how to check it.

A workload is a list of slots.  Each slot holds the candidate jobs a seed
can draw from, and the candidates of one slot cost about the same, so the
time of a pass does not depend on the seed.  Seed 0 takes the first
candidate of every slot, which is the paper's parameters (with horizons
scaled down so that one pass takes seconds, not minutes).

Every job is checked three ways where they apply: the verdict the
program reports (PASS, reassembly true), an identity against an
independent expansion computed before timing starts, and the sha256 of
its output against ``golden.json``, which holds the digest of every
candidate job as computed at the seed commit.

Library calls go through module attributes (``products.eta_quotient``,
not a name imported from it) so that the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass

from qsigns import cli, dissect, products, signs

# A few horizons per slot, so that seeds also differ in T; a spread of
# three coefficients keeps the cost of candidates within a fraction of a percent.
JITTER = (0, 1, 2, 3)

MODULI = (2, 4, 5, 7, 8, 10, 11, 13)

# per (p, i): the class string and the least n from which it holds (the paper's table)
QUOTIENT_TABLE = {
    (5, 2): ("+0-0-", 0),
    (5, 3): ("+-0-0", 2),
    (5, 4): ("+00--", 4),
    (7, 2): ("+0-+-00", 4),
    (7, 3): ("++0-00-", 9),
    (7, 4): ("+-00-0+", 14),
    (11, 2): ("+0-+-000-0+", 20),
    (11, 3): ("+-0-+0-000+", 35),
    (11, 4): ("+000--+0-+0", 50),
    (13, 2): ("++-0-+0000+-0", 32),
    (13, 3): ("+++-00-0+0-00", 54),
    (13, 4): ("+0+0-00+--+00", 76),
}

# the 42 (negative, zero, positive) triples of the paper's census at m=7, K=7142
CENSUS_PAPER = {
    "2^5 7^-1": (
        (0, 0, 7142), (7141, 1, 0), (3319, 504, 3319), (7141, 1, 0),
        (3285, 507, 3350), (3279, 509, 3354), (0, 0, 7142),
    ),
    "3^5 7^-1": (
        (0, 0, 7142), (7140, 2, 0), (0, 1, 7141), (3300, 518, 3324),
        (3294, 525, 3323), (7141, 1, 0), (3292, 524, 3326),
    ),
}

# census precision m*K - 1 stays just under this, whatever m the seed draws;
# m = 13 is left out because its census of 3^5 13^-1 costs a quarter less
CENSUS_COEFFS = 14000
CENSUS_MODULI = (7, 11)
VERIFY_T = 5000
CATALOG_T = 1500
BINOMIAL_T = 1200
BINOMIAL_ENTRIES = ("rr-quotient", "octic-quotient", "hirschhorn-a", "hirschhorn-b")
TRIPLE_PERIODS = (5, 7, 8, 10, 12)
VANISHING_SPEC = "1^7 2^-2 3^-1"
VANISHING_T = 3000
DISSECT_T = 300
SMALL_DISSECTION_T = 500
DENSE_T = 1000
# the paper's exponents of (q;q); seeds vary only T, because the cost of
# power() moves by up to a half between neighbouring exponents
POWERS = (-24, -7, 5)
# 1/theta as a product spec, for each theta series with a product form
THETA_INVERSES = {
    "theta_alt_squares": "1^-2 2^1",
    "theta_triangular": "2^-2 1^1",
    "theta_squares": "2^-5 1^2 4^2",
    "theta_weighted": "1^-2 6^-1 2^1 3^1",
}


@dataclass(frozen=True)
class Job:
    """One closed-loop request: a CLI command or a library call."""

    kind: str
    params: tuple
    horizon: int
    coeffs: int  # exact coefficients delivered: T+1 summed over the job's expansions
    expect: tuple = ()

    @property
    def key(self) -> str:
        return " ".join([self.kind, *map(str, self.params)])


def _jittered(make, top: int, step: int = 1) -> list[Job]:
    return [make(top - step * d) for d in JITTER]


def _census(spec: str, m: int, K: int, expect: tuple = ()) -> Job:
    return Job("census", (spec, m, K), m * K - 1, m * K, expect)


def _pentagonal() -> list[list[Job]]:
    slots = [
        [_census(f"{a}^5 {m}^-1", m, CENSUS_COEFFS // m) for m in CENSUS_MODULI]
        for a in (2, 3)
    ]
    for (p, i), expect in QUOTIENT_TABLE.items():
        slots.append(_jittered(lambda T: Job("verify", (p, i, T), T, T + 1, expect), VERIFY_T))
    slots.append(_jittered(lambda T: Job("catalog", (T,), T, 16 * (T + 1)), CATALOG_T))
    return slots


def _binomial() -> list[list[Job]]:
    slots = [
        _jittered(lambda T: Job("corpus", (name, T), T, T + 1), BINOMIAL_T)
        for name in BINOMIAL_ENTRIES
    ]
    slots.append(_jittered(lambda T: Job("vanishing", (T,), T, T + 1), VANISHING_T))
    for b in TRIPLE_PERIODS:
        T = BINOMIAL_T
        slots.append([Job("triple", (a, b, T), T, T + 1) for a in range(1, b)])
    return slots


def _dissection() -> list[list[Job]]:
    slots = []
    for M in range(3, 9):
        for m in MODULI:
            slots.append([
                Job("dissect", (M, j, m, T), T, (m + 1) * (T + 1))
                for j in range(1, (M + 1) // 2)
                for T in (DISSECT_T - d for d in JITTER)
            ])
    for m in MODULI:
        slots.append(_jittered(lambda T: Job("qq", (m, T), T, m * (T + 1)), SMALL_DISSECTION_T))
    slots.append(_jittered(lambda T: Job("three", (T,), T, 3 * (T + 1)), SMALL_DISSECTION_T))
    slots.append(_jittered(lambda T: Job("three_cube", (T,), T, 2 * (T + 1)), SMALL_DISSECTION_T))
    slots.append(_jittered(lambda T: Job("five", (T,), T, 3 * (T + 1)), SMALL_DISSECTION_T))
    return slots


def _dense() -> list[list[Job]]:
    slots = [_jittered(lambda T: Job("power", (d, T), T, T + 1), DENSE_T) for d in POWERS]
    for name in THETA_INVERSES:
        slots.append(_jittered(lambda T: Job("theta_inverse", (name, T), T, T + 1), DENSE_T))
    # the cubic identities need T divisible by 3
    top = DENSE_T - DENSE_T % 3
    slots.append(_jittered(lambda T: Job("cubic", (T,), T, 3 * (T + 1)), top, step=3))
    return slots


WORKLOADS = {
    "pentagonal": _pentagonal,
    "binomial": _binomial,
    "dissection": _dissection,
    "dense": _dense,
}


def plan(workload: str, seed: int) -> list[Job]:
    """The job list of one pass: one candidate per slot, drawn from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    slots = WORKLOADS[workload]()
    if seed == 0:
        return [slot[0] for slot in slots]
    return [rng.choice(slot) for slot in slots]


def paper_gate() -> list[Job]:
    """The paper's census at full size, checked against its 42 triples verbatim."""
    return [_census(spec, 7, 7142, rows) for spec, rows in CENSUS_PAPER.items()]


def all_jobs() -> list[Job]:
    """Every job any seed can draw, plus the paper gate: the keys of golden.json."""
    jobs = [job for make in WORKLOADS.values() for slot in make() for job in slot]
    return jobs + paper_gate()


# ----------------------------------------------------------------------
# Running jobs
# ----------------------------------------------------------------------

def _cli(*argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main([str(a) for a in argv] + ["--format", "json"])
    return rc, buf.getvalue()


def _corpus(name: str, T: int) -> dict:
    entry = next(e for e in signs.corpus() if e.name == name)
    series = products.eta_quotient(entry.spec, T)
    report = signs.verify_pattern(series, entry.pattern, T)
    detected = signs.detect_pattern(series, entry.pattern.modulus, T)
    return {
        "series": (series,),
        "passed": report.passed,
        "detected": detected.class_string,
        "expected": entry.pattern.class_string,
    }


def _vanishing(T: int) -> dict:
    series = products.eta_quotient(VANISHING_SPEC, T)
    cs = series.coefficients
    ok = all((cs[n] == 0) == signs.vanishing_predicate(n) for n in range(1, T + 1))
    return {"series": (series,), "passed": ok}


def _cubic(T: int) -> dict:
    a3 = products.borwein_a(T // 3).dilate(3, cap=T)
    b3 = products.borwein_b(T // 3).dilate(3, cap=T)
    c3 = products.borwein_c3(T)
    return {"series": (a3 - c3, a3.power(3), b3.power(3) + c3.power(3))}


def _summed(parts: tuple) -> dict:
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return {"series": parts + (total,)}


RUN = {
    "census": lambda spec, m, K: _cli("census", "--spec", spec, "--m", m, "--K", K),
    "verify": lambda p, i, T: _cli("verify", "--p", p, "--i", i, "--T", T),
    "catalog": lambda T: _cli("catalog", "--T", T),
    "dissect": lambda M, j, m, T: _cli("dissect", "--M", M, "--j", j, "--m", m, "--T", T),
    "corpus": _corpus,
    "vanishing": _vanishing,
    "triple": lambda a, b, T: {
        "series": (products.eta_quotient(f"{a}.{b} {b - a}.{b} {b}", T),)
    },
    "power": lambda d, T: {"series": (products.pochhammer(1, 1, T).power(d),)},
    "theta_inverse": lambda name, T: {"series": (getattr(products, name)(T).invert(),)},
    "cubic": _cubic,
    "qq": lambda m, T: {"series": (dissect.assemble(dissect.qq_components(m), T),)},
    "three": lambda T: _summed(dissect.three_dissection_qq(T)),
    "three_cube": lambda T: _summed(dissect.three_dissection_qq3(T)),
    "five": lambda T: _summed(dissect.ramanujan5(T)),
}


def run(job: Job):
    return RUN[job.kind](*job.params)


# ----------------------------------------------------------------------
# References: independent expansions, computed once before timing
# ----------------------------------------------------------------------

def _jacobi_triple(a: int, b: int, T: int) -> tuple:
    """sum_k (-1)^k q^{b k(k-1)/2 + a k}, summed directly from its exponents."""
    out = [0] * (T + 1)
    for start, step in ((0, 1), (-1, -1)):
        k = start
        while True:
            e = b * k * (k - 1) // 2 + a * k
            if e > T:
                break
            out[e] += -1 if k % 2 else 1
            k += step
    return tuple(out)


def _expand(spec: str, T: int) -> tuple:
    return products.eta_quotient(spec, T).coefficients


def _cubic_reference(T: int) -> tuple:
    b = _expand("1^3 3^-1", T)
    b_cubed = _expand("3^9 9^-3", T)
    c_cubed = (0, 0, 0) + tuple(27 * c for c in _expand("9^9 3^-3", T - 3))
    return b, tuple(x + y for x, y in zip(b_cubed, c_cubed))


REFERENCE = {
    "triple": _jacobi_triple,
    "power": lambda d, T: _expand(f"1^{d}", T),
    "theta_inverse": lambda name, T: _expand(THETA_INVERSES[name], T),
    "cubic": _cubic_reference,
    "qq": lambda m, T: _expand("1", T),
    "three": lambda T: _expand("1", T),
    "three_cube": lambda T: _expand("1^3", T),
    "five": lambda T: _expand("1", T),
}


def reference(job: Job):
    make = REFERENCE.get(job.kind)
    return make(*job.params) if make else None


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def payload(out) -> bytes:
    """The bytes a job's digest covers: the report, or every coefficient tuple."""
    if isinstance(out, tuple):
        return out[1].encode()
    return "\n".join(",".join(map(str, s.coefficients)) for s in out["series"]).encode()


def digest(out) -> str:
    return hashlib.sha256(payload(out)).hexdigest()


def _check_report(job: Job, out) -> list[str]:
    rc, text = out
    if rc != 0:
        return [f"exit code {rc}"]
    doc = json.loads(text)
    if job.kind == "census":
        m, K = job.params[1], job.params[2]
        rows = tuple((r["negative"], r["zero"], r["positive"]) for r in doc["rows"])
        if len(rows) != m or any(sum(row) != K for row in rows):
            return ["census rows do not cover K terms per class"]
        if job.expect and rows != job.expect:
            return ["census differs from the paper's triples"]
    elif job.kind == "verify":
        classes, n_from = job.expect
        if not doc["passed"]:
            return ["verify FAIL"]
        if doc["pattern"] != classes or doc["onset"] + 1 != n_from:
            return [f"pattern {doc['pattern']} onset {doc['onset']} differ from the table"]
    elif job.kind == "catalog":
        if not doc["passed"] or len(doc["cases"]) != 16:
            return ["catalog FAIL"]
    elif job.kind == "dissect":
        if doc["reassembly"] is not True or len(doc["components"]) != job.params[2]:
            return ["reassembly FAIL"]
    return []


def _supported(series, r: int, m: int) -> bool:
    return all(c == 0 for n, c in enumerate(series.coefficients) if n % m != r)


def _check_series(job: Job, out: dict, ref) -> list[str]:
    cs = [s.coefficients for s in out["series"]]
    kind = job.kind
    if kind == "corpus":
        ok = out["passed"] and out["detected"] == out["expected"]
    elif kind == "vanishing":
        ok = out["passed"]
    elif kind == "cubic":
        ok = cs[0] == ref[0] and cs[1] == cs[2] == ref[1]
    elif kind in ("three", "three_cube", "five"):
        m = 5 if kind == "five" else 3
        parts = out["series"][:-1]
        ok = cs[-1] == ref and all(_supported(s, r, m) for r, s in enumerate(parts))
    else:
        ok = cs[0] == ref
    return [] if ok else [f"{kind} identity FAIL"]


def check(job: Job, out, ref) -> list[str]:
    """Problems with one job's verdicts and identities; empty when they hold."""
    if isinstance(out, tuple):
        return _check_report(job, out)
    return _check_series(job, out, ref)
