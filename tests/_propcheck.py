"""Seeded randomized checks shared by the property and acceptance suites.

Each check runs a fixed number of rounds from a seed and returns a list
of failure descriptions; an empty list means the property held on every
round.
"""

from __future__ import annotations

import contextlib
import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

from qsigns import (
    DissectionComponent,
    EtaQuotientSpec,
    InvalidParameter,
    NonUnitConstantTerm,
    PochhammerFactor,
    Series,
    SignClass,
    SignPattern,
    detect_pattern,
    eta_quotient,
    predict_quotient_pattern,
    vanishing_predicate,
)
from qsigns import _backend, products
from qsigns._backend import div_sparse, invert_dense, mul_dense
from qsigns.dissect import check_quintuple
from qsigns.plan import THETA_ATOMS, ExpansionPlan
from qsigns.products import _apply_factor


def random_series(rng: random.Random, max_len: int = 24, unit: bool = False) -> Series:
    n = rng.randint(1, max_len)
    cs = [rng.randint(-9, 9) for _ in range(n)]
    if unit:
        cs[0] = rng.choice((1, -1))
    return Series(cs)


def check_ring_laws(seed: int, rounds: int = 40) -> list[str]:
    rng = random.Random(seed)
    failures = []
    for k in range(rounds):
        x = random_series(rng)
        y = random_series(rng)
        z = random_series(rng)
        if x * y != y * x:
            failures.append(f"round {k}: commutativity")
        if (x * y) * z != x * (y * z):
            failures.append(f"round {k}: associativity")
        if x * (y + z) != x * y + x * z:
            failures.append(f"round {k}: distributivity")
    return failures


def check_inverse_round_trip(seed: int, rounds: int = 30) -> list[str]:
    rng = random.Random(seed)
    failures = []
    for k in range(rounds):
        s = random_series(rng, unit=True)
        if s * s.invert() != Series.one(s.precision):
            failures.append(f"round {k}: s * s^-1 != 1 for {s!r}")
    return failures


def check_dissection_completeness(seed: int, rounds: int = 30) -> list[str]:
    rng = random.Random(seed)
    failures = []
    for k in range(rounds):
        s = random_series(rng, max_len=30)
        m = rng.randint(1, 6)
        if s.precision + 1 < m:
            continue
        parts = [
            s.slice(r, m).dilate(m, cap=s.precision - r).shift(r) for r in range(m)
        ]
        total = parts[0]
        for p in parts[1:]:
            total = total + p
        if total != s.truncate(total.precision):
            failures.append(f"round {k}: slices of {s!r} mod {m} do not reassemble")
    return failures


def check_power_additivity(seed: int, rounds: int = 20) -> list[str]:
    rng = random.Random(seed)
    failures = []
    for k in range(rounds):
        s = random_series(rng, max_len=14, unit=True)
        a = rng.randint(-4, 4)
        b = rng.randint(-4, 4)
        if s.power(a + b) != s.power(a) * s.power(b):
            failures.append(f"round {k}: power additivity for a={a}, b={b}")
    return failures


def check_nonneg_inverse_products(seed: int, rounds: int = 12,
                                  precision: int = 200) -> list[str]:
    """Products with all factors inverted have nonnegative coefficients."""
    rng = random.Random(seed)
    failures = []
    for k in range(rounds):
        nf = rng.randint(1, 4)
        factors = tuple(
            PochhammerFactor(rng.randint(1, 6), rng.randint(1, 6), -1)
            for _ in range(nf)
        )
        series = eta_quotient(EtaQuotientSpec(factors), precision)
        if any(c < 0 for c in series.coefficients):
            failures.append(f"round {k}: negative coefficient in 1/{factors}")
    return failures


def check_unit_lower_bound(seed: int, rounds: int = 12,
                           precision: int = 200) -> list[str]:
    """(1 + nonneg series in q^m) / (1 - q^m) stays >= 1 on multiples of m."""
    rng = random.Random(seed)
    failures = []
    for k in range(rounds):
        m = rng.randint(2, 6)
        coeffs = [0] * (precision + 1)
        coeffs[0] = 1
        for e in range(m, precision + 1, m):
            coeffs[e] = rng.randint(0, 5)
        product = Series(coeffs) * Series.from_terms([(0, 1), (m, -1)], precision).invert()
        if any(product.coefficient(e) < 1 for e in range(0, precision + 1, m)):
            failures.append(f"round {k}: coefficient < 1 on a multiple of {m}")
    return failures


def check_certificate_invariants(
    primes=(5, 7, 11, 13, 17, 19), exponents=range(2, 10)
) -> list[str]:
    """Offset congruences and sign-parity coherence across the (p, i) sweep."""
    failures = []
    for p in primes:
        for i in exponents:
            if i % p == 0:
                continue
            cert = predict_quotient_pattern(p, i)
            for r in range(p):
                if cert.offsets[r] % p != (6 * r * r + r) % p:
                    failures.append(f"(p={p}, i={i}): offset congruence at r={r}")
                if (i * cert.offsets[r]) % p != cert.residue_map[r]:
                    failures.append(f"(p={p}, i={i}): residue map at r={r}")
            parity_by_residue: dict[int, int] = {}
            for r in range(p):
                rho = cert.residue_map[r]
                parity = cert.sign_exponents[r] % 2
                if parity_by_residue.setdefault(rho, parity) != parity:
                    failures.append(f"(p={p}, i={i}): parity clash on residue {rho}")
    return failures


def binomial_expansion(spec: EtaQuotientSpec, precision: int) -> Series:
    """The reference expansion: every factor through the binomial path, in spec order.

    (q^a;q^a) too is expanded one binomial 1 - q^(a*k) at a time, with no kernel.
    """
    n = precision + 1
    cur = [1] + [0] * precision
    for f in spec.factors:
        cur = _apply_factor(cur, f.a, f.b, f.delta, n)
    return Series(cur)


# -- the per-coefficient pattern scan ---------------------------------------

def scan_detect_pattern(series: Series, modulus: int, horizon: int) -> SignPattern:
    """The reference for `detect_pattern`: one scan over per-coefficient signs.

    Residue r's class comes from the signs in its tail window, exponents
    above horizon/2 (its last sign when there are none there), and the
    onset is the largest exponent whose sign its class rejects, or -1.
    """
    cs = series.coefficients
    classes = []
    onset = -1
    for r in range(modulus):
        exps = range(r, horizon + 1, modulus)
        signs = [(cs[n] > 0) - (cs[n] < 0) for n in exps]
        window = [s for n, s in zip(exps, signs) if 2 * n > horizon] or signs[-1:]
        has_pos = any(s > 0 for s in window)
        has_neg = any(s < 0 for s in window)
        if has_pos and has_neg:
            classes.append(SignClass.MIXED)
            continue
        cls = SignClass.POS if has_pos else SignClass.NEG if has_neg else SignClass.ZERO
        classes.append(cls)
        for n, s in zip(exps, signs):
            if not cls.matches(s):
                onset = max(onset, n)
    return SignPattern(modulus, tuple(classes), onset)


def check_vanishing_predicate(seed: int, rounds: int = 3000, limit: int = 200_000) -> list[str]:
    """vanishing_predicate against its definition, at every n below 600, at seeded
    n below limit, and at n = 2^a times a prime or a square of one.

    The oracle reads each n's factorisation off a sieve of least prime
    factors up to limit, so it shares no trial division with the predicate.
    """
    rng = random.Random(seed)
    least = list(range(limit))
    for p in range(2, math.isqrt(limit - 1) + 1):
        if least[p] == p:
            for multiple in range(p * p, limit, p):
                if least[multiple] == multiple:
                    least[multiple] = p

    def oracle(n: int) -> bool:
        exponents: dict = {}
        while n > 1:
            exponents[least[n]] = exponents.get(least[n], 0) + 1
            n //= least[n]
        return any(p % 4 == 3 and e % 2 for p, e in exponents.items())

    primes = [p for p in range(3, 400) if least[p] == p]
    ns = list(range(1, 600)) + [rng.randrange(1, limit) for _ in range(rounds)]
    ns += [2 ** rng.randint(1, 8) * rng.choice(primes) ** rng.randint(1, 2) for _ in range(rounds // 10)]
    return [f"n={n}" for n in ns if n < limit and vanishing_predicate(n) is not (n % 3 == 2 and oracle(n))]


def check_detect_matches_scan(seed: int, rounds: int = 40) -> list[str]:
    """detect_pattern against the scan, for every modulus and horizon of random series.

    Each residue class draws its coefficients from one sign pool, and a
    few coefficients are noise, so every class, violations late and early,
    and clean patterns all occur.
    """
    rng = random.Random(seed)
    pools = ((1, 2, 5), (-3, -1), (0,), (-2, 0, 3))
    failures = []
    seen = dict.fromkeys(
        ("class +", "class -", "class 0", "class ?", "onset -1", "onset >= 0",
         "empty tail window"), 0)
    for k in range(rounds):
        n = rng.randint(1, 40)
        period = rng.randint(1, 6)
        pool = [rng.choice(pools) for _ in range(period)]
        noise = rng.choice((0.0, 0.05, 0.2))
        cs = [rng.randint(-9, 9) if rng.random() < noise else rng.choice(pool[e % period])
              for e in range(n)]
        series = Series(cs)
        for modulus in range(1, n + 1):
            for horizon in range(modulus - 1, n):
                got = detect_pattern(series, modulus, horizon)
                expected = scan_detect_pattern(series, modulus, horizon)
                if got != expected:
                    failures.append(f"round {k}: {cs}, modulus {modulus}, horizon {horizon}")
                for c in set(expected.class_string):
                    seen[f"class {c}"] += 1
                seen["onset -1" if expected.onset < 0 else "onset >= 0"] += 1
                if modulus > horizon - horizon // 2:
                    seen["empty tail window"] += 1
    failures += [f"no case with {feature}" for feature, count in seen.items() if count == 0]
    return failures


# -- the closed forms of the (q;q) dissection ---------------------------------
# The m-dissection of (q;q), M = 4 and j = 1, written out branch by branch
# in m mod 3 and the position of 12r against multiples of m.  It is the
# reference for `qq_components` and the predictions, which the package
# derives from the general quintuple dissection.

def closed_form_offset(m: int, r: int) -> int:
    """Prefactor exponent of residue r in the m-dissection of (q;q)."""
    check_quintuple(4, 1, m)
    if not 0 <= r < m:
        raise InvalidParameter(f"residue {r} not in [0, {m})")
    base = 6 * r * r + r
    if m % 3 == 1:
        if 12 * r <= 4 * m - 1:
            return base
        if 12 * r <= 10 * m - 1:
            return base - 8 * m * r + (8 * m * m - 2 * m) // 3
        return base - 12 * m * r + 6 * m * m - m
    if 12 * r <= 2 * m - 1:
        return base
    if 12 * r <= 8 * m - 1:
        return base - 4 * m * r + (2 * m * m - m) // 3
    return base - 12 * m * r + 6 * m * m - m


def closed_form_sign_exp(m: int, r: int) -> int:
    """Sign exponent of residue r in the m-dissection of (q;q)."""
    check_quintuple(4, 1, m)
    if not 0 <= r < m:
        raise InvalidParameter(f"residue {r} not in [0, {m})")
    if m % 3 == 1:
        lo, hi = 4 * m - 1, 10 * m - 1
    else:
        lo, hi = 2 * m - 1, 8 * m - 1
    if 12 * r <= lo:
        return 0
    return 1 if 12 * r <= hi else 2


def _closed_form_t1(m: int, r: int) -> int:
    if m % 3 == 1:
        if 12 * r < 10 * m - 1:
            return (2 * m * m + m) // 3 + 4 * m * r
        return (-10 * m * m + m) // 3 + 4 * m * r
    if 12 * r < 2 * m - 1:
        return (2 * m * m - m) // 3 - 4 * m * r
    return (14 * m * m - m) // 3 - 4 * m * r


def _closed_form_t2(m: int, r: int) -> int:
    if m % 3 == 1:
        if 12 * r < 4 * m - 1:
            return (16 * m * m + 2 * m) // 3 + 8 * m * r
        return (-8 * m * m + 2 * m) // 3 + 8 * m * r
    if 12 * r < 8 * m - 1:
        return (8 * m * m + 2 * m) // 3 + 8 * m * r
    return (-16 * m * m + 2 * m) // 3 + 8 * m * r


def closed_form_components(m: int) -> tuple[DissectionComponent, ...]:
    """The m-dissection of (q;q) via the explicit closed forms."""
    check_quintuple(4, 1, m)
    comps = []
    for r in range(m):
        comps.append(
            DissectionComponent(
                r=r,
                sign_exp=closed_form_sign_exp(m, r),
                offset=closed_form_offset(m, r),
                t1=_closed_form_t1(m, r),
                t2=_closed_form_t2(m, r),
                period1=4 * m * m,
                period2=8 * m * m,
            )
        )
    return tuple(comps)


def _random_factors(rng: random.Random) -> list[PochhammerFactor]:
    """One building block of a random spec, chosen to reach every branch of the plan."""
    b = rng.randint(2, 12)
    a = rng.randint(1, b - 1)
    d = rng.choice((-3, -2, -1, 1, 2, 3))
    kind = rng.randrange(8)
    if kind == 0:  # partners, same or opposite sign
        return [PochhammerFactor(a, b, d), PochhammerFactor(b - a, b, rng.choice((-2, -1, 1, 2)))]
    if kind == 1:  # (q^h;q^{2h}), netted into eulers, odd or even exponent
        h = rng.randint(1, 6)
        return [PochhammerFactor(h, 2 * h, rng.randint(-5, 5))]
    if kind == 2:  # offset beyond the period
        return [PochhammerFactor(b + rng.randint(1, 6), b, d)]
    if kind == 3:  # repeated tokens that cancel
        return [PochhammerFactor(a, b, d), PochhammerFactor(a, b, -d)]
    if kind == 4:
        return [PochhammerFactor(b, b, d)]
    if kind == 5:  # a quintuple product, or its two thetas with other exponents
        M = rng.randint(3, 12)
        j = rng.randint(1, (M - 1) // 2)
        wide = rng.choice((d, d, -2, -1, 1, 2))
        return [
            PochhammerFactor(j, M, d), PochhammerFactor(M - j, M, d),
            *([PochhammerFactor(M, M, d)] if wide == d else []),
            PochhammerFactor(M - 2 * j, 2 * M, wide), PochhammerFactor(M + 2 * j, 2 * M, wide),
        ]
    if kind == 6:  # a theta atom in q^s to a positive or negative power, or part of one
        signature = THETA_ATOMS[rng.choice(list(THETA_ATOMS))]
        s = rng.randint(1, 6)
        exps = {s * c: d * x for c, x in signature.items()}
        if rng.random() < 0.5:
            exps[rng.choice(list(exps))] += rng.choice((-2, -1, 1, 2))
        return [PochhammerFactor(c, c, x) for c, x in exps.items()]
    return [PochhammerFactor(a, b, d)]


def _atom_features(plan: ExpansionPlan) -> set[str]:
    """The theta atoms the plan takes: to which power, in which q^s, and whether in part."""
    powers = [*([plan.seed] if plan.seed else []), *plan.powers]
    eulers = {params[0]: k for form, params, k in powers if form == "euler"}
    features = set()
    for name, (s,), k in (p for p in powers if p[0] in THETA_ATOMS):
        features.add(f"{name} atom, {'positive' if k > 0 else 'negative'}")
        if s > 1:
            features.add(f"{name} atom, dilated")
        if any(eulers.get(s * c) for c in THETA_ATOMS[name]):
            features.add(f"{name} atom, partial")
    return features


def _seed_feature(plan: ExpansionPlan) -> str:
    """How eta_quotient starts: a scatter of a power 1, Miller's recurrence, or 1."""
    if plan.seed is None:
        return "no seed"
    return "seed by scatter" if plan.seed[2] == 1 else "seed by Miller"


# the order in which plans applied their powers before the cost estimate picked it
_FIXED_ORDER = {**dict.fromkeys(THETA_ATOMS, 0), "jtp": 1, "euler": 2}


def _order_features(plan: ExpansionPlan) -> set[str]:
    ranks = [_FIXED_ORDER[form] for form, _, _ in plan.powers]
    return {"reordered plan"} if ranks != sorted(ranks) else set()


@contextlib.contextmanager
def _lattice_log(seen: set, T: int):
    """Note, while it lasts, each strided scatter, each run of several passes on one
    packed integer, and each division eta_quotient runs in q^d with d > 1, that
    is at fewer than T + 1 coefficients."""
    mul, div = products.mul_sparse, products.div_sparse

    def strided(xs, exps, cofs, n, stride=1, k=1):
        if stride > 1:
            seen.add("strided scatter")
        # a strided first pass is not on the packed integer of the passes in q
        if k - (stride > 1) > 1:
            seen.add("run of passes")
        return mul(xs, exps, cofs, n, stride, k)

    def coarse(xs, exps, cofs, n):
        if n <= T:
            seen.add("division in a coarse lattice")
        return div(xs, exps, cofs, n)

    products.mul_sparse, products.div_sparse = strided, coarse
    try:
        yield
    finally:
        products.mul_sparse, products.div_sparse = mul, div


def _spec_features(spec: EtaQuotientSpec) -> set[str]:
    net: dict[tuple[int, int], int] = {}
    for f in spec.factors:
        net[f.a, f.b] = net.get((f.a, f.b), 0) + f.delta
    features = set()
    for (a, b), d in net.items():
        if a > b:
            features.add("a > b")
        if b == 2 * a and d:
            features.add("b = 2a, odd" if d % 2 else "b = 2a, even")
        if a < b and d * net.get((b - a, b), 0) < 0:
            features.add("opposite partners")
        if d == 0:
            features.add("cancelling repeats")
        if 2 * a < b:
            features |= _quintuple_features(net, a, b)
    return features


def _quintuple_features(net: dict[tuple[int, int], int], j: int, M: int) -> set[str]:
    """How the two thetas of the quintuple product Q(M,j) appear in a netted spec."""
    def jtp(a: int, b: int) -> int:
        """The exponent of JTP(a,b) that pairing (q^a;q^b) with (q^{b-a};q^b) gives."""
        x, y = net.get((a, b), 0), net.get((b - a, b), 0)
        return 0 if x * y <= 0 else min(x, y) if x > 0 else max(x, y)

    narrow, wide = jtp(j, M), jtp(M - 2 * j, 2 * M)
    if narrow * wide < 0:
        return {"quintuple thetas of opposite signs"}
    if narrow * wide == 0:
        return set()
    features = {"negative quintuple thetas" if narrow < 0 else "positive quintuple thetas"}
    full = {net.get(f, 0) for f in ((j, M), (M - j, M), (M, M), (M - 2 * j, 2 * M), (M + 2 * j, 2 * M))}
    if full == {narrow}:
        features.add("full quintuple product")
    if narrow != wide:
        features.add("partial quintuple overlap")
    return features


def check_plan_matches_binomial_oracle(seed: int, rounds: int = 1000,
                                       max_precision: int = 150) -> list[str]:
    """eta_quotient equals the factor-by-factor binomial expansion on random specs."""
    rng = random.Random(seed)
    failures = []
    seen = dict.fromkeys(
        ("a > b", "b = 2a, odd", "b = 2a, even", "opposite partners",
         "cancelling repeats", "T = 0", "full quintuple product", "partial quintuple overlap",
         "positive quintuple thetas", "negative quintuple thetas",
         "quintuple thetas of opposite signs", "seed by scatter", "seed by Miller", "no seed",
         "strided scatter", "run of passes", "division in a coarse lattice", "reordered plan",
         *(f"{name} atom, {how}" for name in THETA_ATOMS
           for how in ("positive", "negative", "dilated", "partial"))), 0)
    for k in range(rounds):
        factors = []
        for _ in range(rng.randint(1, 4)):
            factors += _random_factors(rng)
        rng.shuffle(factors)
        spec = EtaQuotientSpec(tuple(factors))
        T = 0 if rng.random() < 0.05 else rng.randint(1, max_precision)
        plan = ExpansionPlan.of(spec)
        features = _spec_features(spec) | _atom_features(plan) | _order_features(plan)
        features |= {_seed_feature(plan)} | ({"T = 0"} if T == 0 else set())
        with _lattice_log(features, T):
            expanded = eta_quotient(spec, T)
        for feature in features:
            seen[feature] += 1
        if expanded != binomial_expansion(spec, T):
            failures.append(f"round {k}: {spec} at T={T}")
    failures += [f"no spec with {feature}" for feature, count in seen.items() if count == 0]
    return failures


def _random_base(rng: random.Random) -> tuple[list[int], set[str]]:
    """A base for the power and inverse checks, and the categories it falls in."""
    T = rng.randint(0, 40)
    big = rng.random() < 0.3
    bound = 10**40 if big else 9
    if rng.random() < 0.05:
        return [0] * (T + 1), {"all zero"}
    dense = rng.random() < 0.5
    cs = [0] * (T + 1)
    for i in range(T + 1):
        if dense or rng.random() < 0.15:
            cs[i] = rng.randint(-bound, bound)
    v = rng.randint(1, 4) if rng.random() < 0.25 else 0
    cs = ([0] * v + cs)[: T + 1]
    if v == 0:
        cs[0] = rng.choice((1, -1, rng.choice((2, -3, 7, bound))))
    elif v <= T:
        cs[v] = cs[v] or rng.choice((1, -1, 5))
    if not any(cs):
        return cs, {"all zero"}
    features = {"dense" if dense else "sparse"}
    if big:
        features.add("coefficients ~ 10^40")
    if v:
        features.add("leading zeros")
    else:
        features.add({1: "c0 = 1", -1: "c0 = -1"}.get(cs[0], "non-unit c0"))
    return cs, features


def _power_oracle(cs: list[int], e: int) -> "list[int] | None":
    """cs^e by |e| schoolbook products, of cs^-1 when e < 0; None if that cannot exist."""
    n = len(cs)
    if e < 0 and cs[0] not in (1, -1):
        return None
    base = invert_dense(cs, n) if e < 0 else cs
    acc = [1] + [0] * (n - 1)
    for _ in range(abs(e)):
        acc = mul_dense(acc, base, n)
    return acc


def check_power_and_inverse_match_oracle(seed: int, rounds: int = 400) -> list[str]:
    """Series.power and Series.invert against repeated mul_dense products and invert_dense."""
    rng = random.Random(seed)
    failures = []
    seen = dict.fromkeys(
        ("c0 = 1", "c0 = -1", "non-unit c0", "leading zeros", "all zero", "v*e > T",
         "sparse", "dense", "coefficients ~ 10^40", "negative e, non-unit c0"), 0)
    for k in range(rounds):
        cs, features = _random_base(rng)
        e = rng.randint(-12, 12)
        nonzero = [i for i, c in enumerate(cs) if c]
        if e > 0 and nonzero and nonzero[0] * e >= len(cs):
            features.add("v*e > T")
        if e < 0 and cs[0] not in (1, -1):
            features.add("negative e, non-unit c0")
        for feature in features:
            seen[feature] += 1
        s = Series(cs)
        for name, compute, expected in (
            (f"power({e})", lambda: s.power(e), _power_oracle(cs, e)),
            ("invert()", s.invert, _power_oracle(cs, -1)),
        ):
            try:
                got = list(compute().coefficients)
            except NonUnitConstantTerm:
                got = None
            if got != expected:
                failures.append(f"round {k}: {name} of {cs}")
    failures += [f"no base with {feature}" for feature, count in seen.items() if count == 0]
    return failures


def check_mul_matches_dense_oracle(seed: int, rounds: int = 400) -> list[str]:
    """Series.__mul__, either way round, against the schoolbook mul_dense."""
    rng = random.Random(seed)
    failures = []
    seen = dict.fromkeys(
        ("sparse x dense", "dense x dense", "sparse x sparse", "unequal lengths",
         "zero operand"), 0)
    for k in range(rounds):
        (xs, fx), (ys, fy) = _random_base(rng), _random_base(rng)
        kinds = sorted("zero" if "all zero" in f else "dense" if "dense" in f else "sparse"
                       for f in (fx, fy))
        seen["zero operand" if "zero" in kinds else f"{kinds[1]} x {kinds[0]}"] += 1
        if len(xs) != len(ys):
            seen["unequal lengths"] += 1
        expected = mul_dense(xs, ys, min(len(xs), len(ys)))
        x, y = Series(xs), Series(ys)
        if list((x * y).coefficients) != expected or list((y * x).coefficients) != expected:
            failures.append(f"round {k}: {xs} * {ys}")
    failures += [f"no pair with {feature}" for feature, count in seen.items() if count == 0]
    return failures


def check_divisions_from_threads(seed: int) -> list[str]:
    """div_sparse from four threads at once, each quotient against a serial run.

    Each thread makes 2000 divisions of one dividend by short divisors
    drawn from a pool four times `_STEPS_KEPT` long, so compiled steps
    are dropped and compiled again while the other threads divide; a
    switch interval of 1 us makes the threads interleave inside the
    kernel.
    """
    rng = random.Random(seed)
    n = 16
    pool = []
    for _ in range(4 * _backend._STEPS_KEPT):
        exps = [0, 1, *sorted(rng.sample(range(2, n), 3))]
        pool.append((exps, [rng.choice((1, -1)) for _ in exps]))
    xs = [rng.randint(-9, 9) for _ in range(n)]
    serial = [div_sparse(xs, *divisor, n) for divisor in pool]
    draws = [[rng.randrange(len(pool)) for _ in range(2000)] for _ in range(4)]

    def divide(drawn: list[int]) -> list[int]:
        return [i for i in drawn if div_sparse(xs, *pool[i], n) != serial[i]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(len(draws)) as executor:
            futures = [executor.submit(divide, drawn) for drawn in draws]
            wrong = [i for future in futures for i in future.result(timeout=120)]
    finally:
        sys.setswitchinterval(interval)
    return [f"quotient by {pool[i]} differs from the serial one" for i in sorted(set(wrong))]


# -- the cubic theta functions, term by term -----------------------------------
# Two box loops over the lattice, the Lambert series summed term by term, and
# Borwein's c(q^3) as an eta quotient expanded one binomial at a time: the
# references for the lattice walk of `products`.

def box_borwein_a(T: int) -> Series:
    """a(q) = sum over m^2 + mn + n^2 <= T, counting representations in a square box."""
    out = [0] * (T + 1)
    # m^2+mn+n^2 >= (3/4) max(|m|,|n|)^2, so this box is exhaustive; the
    # assert is the "+1 ring adds nothing" guarantee in integer form.
    B = math.isqrt((4 * T) // 3) + 1
    assert 3 * (B + 1) * (B + 1) > 4 * T
    for m in range(-B, B + 1):
        mm = m * m
        for n in range(-B, B + 1):
            e = mm + m * n + n * n
            if e <= T:
                out[e] += 1
    return Series(out)


def box_threevar(T: int) -> Series:
    """The zero-sum three-variable theta: exponents 3(m1^2+m1*m2+m2^2) - 2*m1 - m2.

    This is the m1+m2+m3 = 0 sublattice sum with m3 eliminated; the
    exponent is a nonnegative integer on all of it.
    """
    out = [0] * (T + 1)
    B = math.isqrt((4 * T) // 3) + 2
    # exponent >= (9/4)x^2 - 3x at x = max(|m1|,|m2|); outside the box it exceeds T
    assert 9 * (B + 1) * (B + 1) - 12 * (B + 1) > 4 * T
    for m1 in range(-B, B + 1):
        for m2 in range(-B, B + 1):
            e = 3 * (m1 * m1 + m1 * m2 + m2 * m2) - 2 * m1 - m2
            if 0 <= e <= T:
                out[e] += 1
            else:
                assert e > T, f"negative exponent at ({m1}, {m2})"
    return Series(out)


def lambert_series(T: int) -> Series:
    """1 + 6 sum_{n>=1} q^{3n} (1-q^{3n}) / (1-q^{9n}), each term expanded exactly."""
    out = [0] * (T + 1)
    out[0] = 1
    n = 1
    while 3 * n <= T:
        e = 3 * n
        while e <= T:
            out[e] += 6
            if e + 3 * n <= T:
                out[e + 3 * n] -= 6
            e += 9 * n
        n += 1
    return Series(out)


def binomial_borwein_c3(T: int) -> Series:
    """3q (q^9;q^9)^3 / (q^3;q^3), one binomial at a time."""
    quotient = binomial_expansion(EtaQuotientSpec.parse("9^3 3^-1"), T)
    return Series([3 * c for c in quotient.coefficients]).shift(1)
