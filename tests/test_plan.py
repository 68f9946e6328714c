"""The expansion plan of eta_quotient and the Miller power kernel, against the binomial path."""

import importlib.util
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from _propcheck import (
    _power_oracle,
    binomial_expansion,
    check_divisions_from_threads,
    check_plan_matches_binomial_oracle,
)

from qsigns import EtaQuotientSpec, Series, corpus, eta_quotient, pattern_catalog, theta_alt_squares, theta_weighted
from qsigns import quintuple_components
from qsigns import quintuple_product
from qsigns import products, ramanujan5, three_dissection_qq
from qsigns import _backend, cli, cost, plan
from qsigns._backend import (
    _BLOCK,
    _PACK_MAX,
    div_sparse,
    invert_dense,
    mul_dense,
    mul_sparse,
    pow_sparse,
)
from qsigns.dissect import assemble
from qsigns.plan import (
    FORMS,
    THETA_ATOMS,
    ExpansionPlan,
    PochhammerFactor,
    growth,
    jacobi_triple_terms,
    pentagonal_terms,
    quintuple_terms,
    theta_terms,
)


# -- differential suite ---------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1])
def test_plan_matches_binomial_oracle(seed):
    assert check_plan_matches_binomial_oracle(seed, rounds=500) == []


def test_binomial_oracle_reports_atom_kinds_it_never_drew():
    assert "no spec with phi(q) atom, partial" in check_plan_matches_binomial_oracle(0, rounds=1)


# -- pow_sparse -------------------------------------------------------------------

N = 121
BASES = {
    "(q;q)": pentagonal_terms(1, N - 1),
    "(q^3;q^3)": pentagonal_terms(3, N - 1),
    "JTP(1,5)": jacobi_triple_terms(1, 5, N - 1),
    "JTP(1,2)": jacobi_triple_terms(1, 2, N - 1),
    "JTP(3,6)": jacobi_triple_terms(3, 6, N - 1),
}


@pytest.mark.parametrize("name", BASES)
def test_pow_sparse_equals_repeated_passes(name):
    exps, cofs = BASES[name]
    for k in range(-12, 13):
        expected = [1] + [0] * (N - 1)
        for _ in range(abs(k)):
            expected = (div_sparse if k < 0 else mul_sparse)(expected, exps, cofs, N)
        assert pow_sparse(exps, cofs, k, N) == expected, k


@pytest.mark.parametrize("name", BASES)
@pytest.mark.parametrize("c0", [2, -3, 10**40])
def test_pow_sparse_non_unit_constant_term_equals_repeated_passes(name, c0):
    exps, cofs = BASES[name]
    cofs = [c0] + cofs[1:]
    expected = [1] + [0] * (N - 1)
    for k in range(13):
        assert pow_sparse(exps, cofs, k, N) == expected, k
        expected = mul_sparse(expected, exps, cofs, N)


def test_pow_sparse_short_and_degenerate():
    exps, cofs = BASES["(q;q)"]
    assert pow_sparse(exps, cofs, 5, 1) == [1]
    assert pow_sparse([0], [1], -7, 4) == [1, 0, 0, 0]
    # (q - 1)^2: a constant term of -1 is a unit like 1
    assert pow_sparse([0, 1], [-1, 1], 2, 4) == [1, -2, 1, 0]
    with pytest.raises(ValueError):
        pow_sparse([0, 1], [0, 1], 2, 4)
    with pytest.raises(ValueError):
        pow_sparse([1, 2], [1, 1], 2, 4)
    with pytest.raises(ValueError):
        pow_sparse([0, 1], [3, 1], -1, 4)
    with pytest.raises(ValueError, match="pow_sparse needs a nonzero constant term"):
        pow_sparse([], [], 2, 4)


@pytest.mark.parametrize("k", [-24, -3, -2, -1, 0, 1, 2, 40])
@pytest.mark.parametrize("name", ["(q;q)", "JTP(1,5)"])
def test_pow_sparse_of_no_coefficients_is_empty(name, k):
    """Like mul_sparse and div_sparse, pow_sparse below q^0 is [], on every route."""
    assert pow_sparse(*BASES[name], k, 0) == []


def _count_power_passes(monkeypatch):
    """Record (n, k) for each power k that pow_sparse raises by one mul_sparse
    call of k - 1 passes onto the base, below q^n."""
    calls = []
    passes = _backend.mul_sparse

    def count(xs, exps, cofs, n, stride=1, k=1):
        if sys._getframe(1).f_code is pow_sparse.__code__:
            calls.append((n, k + 1))
        return passes(xs, exps, cofs, n, stride, k)

    monkeypatch.setattr(_backend, "mul_sparse", count)
    return calls


def _repeated_mul_dense(exps, cofs, k, n):
    """f^k below q^n by k schoolbook products, f the sum of c*q^e."""
    base = [0] * n
    for e, c in zip(exps, cofs):
        if e < n:
            base[e] = c
    return _power_oracle(base, k)


def _slot_edge_powers(rng):
    """Bases c0 + c*X*y + 30 terms +-y^j, y = q^d, whose pass bound
    (X + 31) * (X * (X + 31)^(k-2) + 1) is just below 2^(W-1), or reaches it,
    for W = 32, 64 and 72.  [y^k] f^k is (c*X)^k plus smaller terms, so the
    power reaches into the top byte of a W-bit slot."""
    for width in (32, 64, 72):
        for past in (0, 1):
            k, d, m = rng.randint(2, 5 if width == 32 else 9), rng.randint(1, 5), 40
            fill = sorted(rng.sample(range(2, m), 30))

            def bound(X):
                return (X + 1 + len(fill)) * (X * (X + 1 + len(fill)) ** (k - 2) + 1)

            lo, hi = 1, 2**width
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if bound(mid) < 2 ** (width - 1) else (lo, mid)
            X = lo + past
            exps = [0, d, *(d * j for j in fill)]
            cofs = [rng.choice((1, -1)), rng.choice((1, -1)) * X, *(rng.choice((1, -1)) for _ in fill)]
            yield exps, cofs, k, d * (m - 1) + rng.randint(1, d), bound(X), width, past


@pytest.mark.parametrize("seed", [0, 1])
def test_pow_sparse_matches_repeated_mul_dense(seed, monkeypatch):
    """pow_sparse to k = 2..9 of bases in q^d, d = 1..5, with +-1 or wide
    coefficients, against k products by mul_dense.  Narrow bases go by k - 1
    passes of mul_sparse and wide ones by Miller's recurrence.  At the slot
    edges the passes' bound norm * (max|c| * norm^(k-2) + 1) is just below
    2^(W-1), W = 32, 64 and 72, and the power reaches the slot's top byte, or
    the bound reaches 2^(W-1)."""
    packed = _count_power_passes(monkeypatch)
    rng = random.Random(seed)
    routes = set()
    for _ in range(80):
        d, k, m = rng.randint(1, 5), rng.randint(2, 9), rng.randint(1, 50)
        big, density = rng.choice((1, 10**40)), rng.choice((0.1, 0.5, 1))
        ys = [rng.choice((1, -1)) * rng.randint(1, big) if rng.random() < density else 0 for _ in range(m)]
        ys[0] = rng.choice((1, -1, rng.randint(2, big + 2)))
        exps, cofs = [d * j for j, c in enumerate(ys) if c], [c for c in ys if c]
        n = d * (m - 1) + rng.randint(1, d) if rng.random() < 0.8 else rng.randint(1, d * m + 9)
        calls = len(packed)
        assert pow_sparse(exps, cofs, k, n) == _repeated_mul_dense(exps, cofs, k, n), (d, k, n)
        routes.add(len(packed) > calls)
    assert routes == {True, False}
    for exps, cofs, k, n, bound, width, past in _slot_edge_powers(rng):
        packed.clear()
        out = pow_sparse(exps, cofs, k, n)
        assert out == _repeated_mul_dense(exps, cofs, k, n), (width, past, k)
        assert packed == [(-(-n // exps[1]), k)]
        assert (bound >= 2 ** (width - 1)) == past
        assert past or max(map(abs, out)) >= 2 ** (width - 9), (width, k)


def test_packed_power_reaches_the_bound_exactly(monkeypatch):
    """A constant c0 raised by k - 1 passes has the pass bound |c0|^k + |c0|:
    below 2^(W-1), W = 32, 64 and 72, c0^k reaches its slot's top byte."""
    packed = _count_power_passes(monkeypatch)
    for width in (32, 64, 72):
        for k in (2, 3, 5):
            c0 = math.isqrt(2 ** (width - 1) - 1) if k == 2 else 2 ** ((width - 2) // k)
            bound = c0**k + c0
            assert bound < 2 ** (width - 1) and _backend._slot_bytes(bound.bit_length()) * 8 == width
            assert c0**k >= 2 ** (width - 8)
            for sign in (1, -1):
                packed.clear()
                assert pow_sparse([0], [sign * c0], k, 5) == [(sign * c0) ** k, 0, 0, 0, 0], (width, k)
                assert packed == [(5, k)]


def _load_workloads(monkeypatch):
    """The benchmark's perfbench/workloads.py, imported for this test only."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_powers_take_the_estimated_route(monkeypatch):
    """In seed-1 passes of the four benchmark workloads only the dense pass
    raises a power k >= 2: (q;q)^5 at 999 coefficients and the cubes of a(q^3),
    b(q^3) and c(q^3), each in q^3, each one mul_sparse call of k - 1 passes.
    (q;q)^7 at 1000 coefficients takes passes at 64-bit slots, 6 * 64 < 1800,
    and (q;q)^24 Miller's recurrence, where 23 passes at 136-bit slots cost more."""
    packed = _count_power_passes(monkeypatch)
    workloads = _load_workloads(monkeypatch)
    for name in ("pentagonal", "binomial", "dissection", "dense"):
        for job in workloads.plan(name, 1):
            workloads.run(job)
        assert packed == ([(999, 5), (331, 3), (331, 3), (330, 3)] if name == "dense" else []), name
    exps, cofs = pentagonal_terms(1, 999)
    assert pow_sparse(exps, cofs, 7, 1000) == _repeated_mul_dense(exps, cofs, 7, 1000)
    assert packed == [(999, 5), (331, 3), (331, 3), (330, 3), (1000, 7)]
    assert pow_sparse(exps, cofs, 24, 1000) == _repeated_mul_dense(exps, cofs, 24, 1000)
    assert packed == [(999, 5), (331, 3), (331, 3), (330, 3), (1000, 7)]


def test_packing_is_priced_at_the_exact_slot_width(monkeypatch):
    """k - 1 passes at w-byte slots pay while (k - 1) * 8w < 30 * _MILLER_STEP
    = 1800.  1 + q + q^2 to k = 29 has the pass bound 3^28 + 3, 45 bits, so 28
    passes at 64-bit slots, 1792; to k = 30 it has 29 passes at 64 bits, 1856,
    and takes Miller's recurrence, though its lower bound, 30 bits, would price
    32-bit slots.  1 + q + ... + q^5 to k = 25 has 24 passes at 64 bits, 1536,
    and to k = 26 25 passes at 72 bits, 1800 exactly: Miller's recurrence.  On
    both routes the power equals k schoolbook products.  (q;q) to k = 10^6 at
    50 coefficients, 11 live terms, is priced out by the lower bound
    (10^6 - 1) * 3 + 1 bits before 11^(10^6 - 1) is computed."""
    assert 30 * _backend._MILLER_STEP == 1800
    packed = _count_power_passes(monkeypatch)
    for terms, k, bits, width in ((3, 29, 45, 64), (3, 30, 46, 64), (6, 25, 63, 64), (6, 26, 65, 72)):
        exps, cofs = list(range(terms)), [1] * terms
        assert (terms ** (k - 1) + terms).bit_length() == bits and _backend._slot_bytes(bits) * 8 == width
        packed.clear()
        assert pow_sparse(exps, cofs, k, 40) == _repeated_mul_dense(exps, cofs, k, 40), (terms, k)
        assert packed == ([(40, k)] if (k - 1) * width < 1800 else []), (terms, k)
    k = 10**6
    out = pow_sparse(*pentagonal_terms(1, 49), k, 50)
    assert packed == []
    assert out[:3] == [1, -k, k * (k - 3) // 2]


def _count_miller(monkeypatch):
    """Record (n, k) for each run of Miller's recurrence, below q^n."""
    calls = []
    miller = _backend._miller

    def count(out, terms, k, c0, stop):
        calls.append((len(out), k))
        return miller(out, terms, k, c0, stop)

    monkeypatch.setattr(_backend, "_miller", count)
    return calls


def _miller_bases(rng, n):
    """(label, exps, cofs) of bases below q^n: (q;q) and phi(-q), whose
    coefficients past the constant one are shared by many terms, J = (q;q)^3,
    whose coefficients (-1)^j (2j+1) are all distinct, random bases with
    coefficients of +-1, +-2 and 7, and 1 - q^5 - q^7 and 1 + q^5 - q^7, whose
    powers are zero at 1, 2, 3, 4, 6, ..., 23 and, for k > 0, past q^(7k),
    which n passes at k = 40."""
    yield "(q;q)", *pentagonal_terms(1, n - 1)
    yield "phi(-q)", *theta_terms(((2, 0, 0, -1, 1),), n - 1)
    J = [j for j in range(n) if j * (j + 1) // 2 < n]
    yield "J", [j * (j + 1) // 2 for j in J], [(-1) ** j * (2 * j + 1) for j in J]
    for _ in range(3):
        exps = [0, *sorted(rng.sample(range(1, n), rng.randint(3, 30)))]
        yield "mixed", exps, [1, *(rng.choice((1, -1, 2, -2, 7)) for _ in exps[1:])]
    yield "1 - q^5 - q^7", [0, 5, 7], [1, -1, -1]
    yield "1 + q^5 - q^7", [0, 5, 7], [1, 1, -1]


@pytest.mark.parametrize("seed", [0, 1])
def test_miller_matches_repeated_mul_dense(seed, monkeypatch):
    """Miller's recurrence, against |k| schoolbook products by mul_dense, of the
    base's inverse by invert_dense when k < 0: c0 = +-1 to k = -2..-30, and
    c0 = 3 to k = 20..40, where the passes' slots are too wide to pay.  Only
    (q;q) to k = -2 and -3 takes another route, the table and divisions."""
    miller = _count_miller(monkeypatch)
    passes = _count_power_passes(monkeypatch)
    rng = random.Random(seed)
    for label, exps, cofs in _miller_bases(rng, rng.randint(60, 120)):
        n = rng.randint(7 * 40 + 2, 300) if label.startswith("1 ") else rng.randint(exps[-1] + 1, 130)
        for c0, ks in ((rng.choice((1, -1)), range(-2, -31, -1)), (3, range(20, 41))):
            for k in rng.sample(ks, 4):
                base = [c0, *cofs[1:]]
                if c0 == 3 and _backend._passes_pay(k, (k - 1) * (sum(map(abs, base)).bit_length() - 1)):
                    continue
                miller.clear()
                assert pow_sparse(exps, base, k, n) == _repeated_mul_dense(exps, base, k, n), (label, c0, k, n)
                table = label == "(q;q)" and k in (-2, -3) and c0 == 1
                assert miller == ([] if table else [(n, k)]) and passes == [], (label, c0, k, n)


def test_small_negative_powers_of_euler_divide(monkeypatch):
    """(q^3;q^3)^-2 below q^1500 is one read of the partition table and one
    division in q, once the base is taken in q; ^-3 divides twice.  ^-4, and
    JTP(1,5)^-2, which the table does not invert, run Miller's recurrence."""
    reads = _count_table(monkeypatch)
    routes = _count_routes(monkeypatch)
    miller = _count_miller(monkeypatch)
    n, m = 1500, 500
    euler = pentagonal_terms(3, n - 1)
    for k, divisions in ((-2, 1), (-3, 2), (-4, 0)):
        for calls in (reads, routes, miller):
            calls.clear()
        assert pow_sparse(*euler, k, n) == _repeated_mul_dense(*euler, k, n), k
        assert reads == [m] * (divisions > 0), k
        assert routes == [("divide", m)] * divisions, k
        assert miller == ([] if divisions else [(m, k)]), k
    for calls in (reads, routes, miller):
        calls.clear()
    jtp = jacobi_triple_terms(1, 5, 299)
    assert pow_sparse(*jtp, -2, 300) == _repeated_mul_dense(*jtp, -2, 300)
    assert reads == routes == [] and miller == [(300, -2)]


def test_small_negative_powers_of_euler_take_the_priced_route(monkeypatch):
    """(q;q)^k, k = -2 and -3, by the partition table and |k| - 1 divisions or by
    Miller's recurrence, whichever `cost.price` prices lower.  Timed, the
    divisions take 0.38-0.57 of Miller's time at k = -2 from 300 coefficients,
    1.02-1.07 at k = -3 and 300 coefficients, and 0.80-0.88 at k = -3 from 600
    to 4000 (best of 5-7, Python 3.11, 2 vCPUs on a shared host): so at 300
    only k = -2 divides, and at 1000, 2000 and 4000 both do."""
    reads = _count_table(monkeypatch)
    routes = _count_routes(monkeypatch)
    miller = _count_miller(monkeypatch)
    for n, k, divides in ((300, -2, True), (300, -3, False), (1000, -2, True), (1000, -3, True),
                          (2000, -2, True), (2000, -3, True), (4000, -2, True), (4000, -3, True)):
        for calls in (reads, routes, miller):
            calls.clear()
        euler = pentagonal_terms(1, n - 1)
        assert pow_sparse(*euler, k, n) == _repeated_mul_dense(*euler, k, n), (n, k)
        assert routes == ([("divide", n)] * (-k - 1) if divides else []), (n, k)
        assert miller == ([] if divides else [(n, k)]), (n, k)
        assert bool(reads) == divides, (n, k)


def _slot_edge_calls(rng, max_stride=5):
    """mul_sparse calls whose bound max|xs| * sum|c| over the live terms is
    2^(W-1) - 1 or 2^(W-1), for the slot widths W = 8, 16, 32, 64 and 72,
    and whose output reaches +-bound; strides up to max_stride.

    The live terms share one residue mod the stride, and xs is a run of
    +X then a run of -X, longer than the terms' span, so every live term
    meets the same value at some output coefficient of each run.
    """
    for width in (8, 16, 32, 64, 72):
        for bound in (2 ** (width - 1) - 1, 2 ** (width - 1)):
            if bound % 2:
                X = rng.choice((1, bound))
            else:
                X = 2 ** rng.randint(0, width - 1)
            total = bound // X
            cuts = sorted({rng.randint(1, total - 1) for _ in range(3)}) if total > 1 else []
            weights = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
            stride, r, sign = rng.randint(1, max_stride), rng.randint(0, 4), rng.choice((1, -1))
            r %= stride
            length = rng.randint(12, 40)
            exps = sorted(r + stride * s for s in rng.sample(range(length // 3), len(weights)))
            n = r + stride * (length - 1) + 1
            # a term beyond the output, which does not count toward the bound
            exps.append(n + rng.randint(0, 9))
            cofs = [sign * w for w in weights] + [rng.randint(-(10**30), 10**30)]
            xs = [X] * (length // 2) + [-X] * (length - length // 2)
            yield xs, exps, cofs, n, stride, bound


def _dense_product(xs, exps, cofs, n, stride):
    """mul_dense of xs spread onto q^stride by the dense form of the sparse terms."""
    dilated, ys = [0] * n, [0] * (exps[-1] + 1)
    dilated[: stride * len(xs): stride] = xs[: (n - 1) // stride + 1]
    for e, c in zip(exps, cofs):
        ys[e] = c
    return mul_dense(dilated, ys, n)


@pytest.mark.parametrize("seed", [0, 1])
def test_strided_mul_sparse_matches_mul_dense(seed):
    """mul_sparse of a series in q^stride against mul_dense of that series spread onto q."""
    rng = random.Random(seed)
    for _ in range(300):
        stride, n = rng.randint(1, 13), rng.randint(1, 150)
        bound = rng.choice((1, 9, 10**40))
        xs = [rng.randint(-bound, bound) for _ in range(rng.randint(1, (n - 1) // stride + 1))]
        exps = sorted(rng.sample(range(n + 20), rng.randint(1, 10)))
        cofs = [rng.choice((1, -1, rng.choice((-1, 1)) * rng.randint(2, bound + 2))) for _ in exps]
        if rng.random() < 0.1:
            xs = [0] * len(xs)
        assert mul_sparse(xs, exps, cofs, n, stride) == _dense_product(xs, exps, cofs, n, stride), (stride, n)
    for xs, exps, cofs, n, stride, bound in _slot_edge_calls(rng):
        out = mul_sparse(xs, exps, cofs, n, stride)
        assert out == _dense_product(xs, exps, cofs, n, stride), (stride, n, bound)
        assert (max(out), min(out)) == (bound, -bound), (stride, n, bound)


def _guard_edge_calls(rng, max_stride=5):
    """mul_sparse calls whose guard slot reaches its bound (max|xs| + 1) * sum|c|,
    2^(W-1) - 1 or 2^(W-1), for W = 8, 16, 32, 64 and 72; strides up to max_stride.

    xs is -X throughout, shorter or longer than the width, and every live term
    has a negative coefficient and drops a tail of -X slots, whose floor is -1:
    each term adds |c| * (X + 1) to the guard.  Strides reach classes with n_r
    below the width, and one term lies past n.
    """
    for width in (8, 16, 32, 64, 72):
        for bound in (2 ** (width - 1) - 1, 2 ** (width - 1)):
            weight = 1 if bound % 2 else 2 ** rng.randint(0, 3)
            X = bound // weight - 1
            cuts = sorted(rng.sample(range(1, weight), min(weight - 1, 2)))
            weights = [b - a for a, b in zip([0, *cuts], [*cuts, weight])]
            stride, m = rng.randint(1, max_stride), rng.randint(8, 30)
            n = stride * m - rng.randrange(stride)
            r = rng.randrange(stride)
            n_r, wide = len(range(r, n, stride)), -(-n // stride)
            length = rng.choice((wide + rng.randint(0, 5), wide - rng.randint(1, 3)))
            lo = max(2 - (wide - n_r), n_r + 2 - min(length, wide), 0)
            shifts = sorted(rng.sample(range(lo, n_r), len(weights)))
            exps = [r + stride * s for s in shifts] + [n + rng.randint(0, 9)]
            cofs = [-w for w in weights] + [rng.randint(-(10**30), 10**30)]
            yield [-X] * length, exps, cofs, n, stride, bound


def test_mul_sparse_guard_slot_at_its_edge():
    """mul_sparse against mul_dense where the guard slot holds its bound, and on
    all-zero input or with no live term."""
    rng = random.Random(3)
    for xs, exps, cofs, n, stride, bound in _guard_edge_calls(rng):
        assert mul_sparse(xs, exps, cofs, n, stride) == _dense_product(xs, exps, cofs, n, stride), (stride, n, bound)
    assert mul_sparse([0] * 9, [0, 2], [1, -5], 20, 2) == [0] * 20
    assert mul_sparse([3, -4], [20, 21], [1, -5], 20, 2) == [0] * 20


def _powers(xs, exps, cofs, n, stride, k):
    """mul_dense by the dense form of f, k times: first of xs spread onto q^stride, then in q."""
    out = _dense_product(xs, exps, cofs, n, stride)
    for _ in range(k - 1):
        out = _dense_product(out, exps, cofs, n, 1)
    return out


@pytest.mark.parametrize("seed", [0, 1])
def test_mul_sparse_powers_match_mul_dense(seed):
    """mul_sparse(xs, exps, cofs, n, stride, k) against k products by mul_dense, the
    first of xs spread onto q^stride, for k = 1..4 and stride 1..5: pentagonal and
    triple-product series, random sparse polynomials with terms past n, a factor with
    no live term, and xs up to 10^40, shorter or longer than the width, or all zero."""
    rng = random.Random(seed)
    for _ in range(200):
        stride, k, n = rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 120)
        big = rng.choice((1, 9, 10**40))
        width = -(-n // stride)
        xs = [rng.randint(-big, big) for _ in range(rng.randint(1, width + 5))]
        if rng.random() < 0.1:
            xs = [0] * len(xs)
        kind = rng.random()
        if kind < 0.3:
            exps, cofs = pentagonal_terms(rng.randint(1, 3), n + 9)
        elif kind < 0.5:
            b = rng.randint(2, 7)
            exps, cofs = jacobi_triple_terms(rng.randint(1, b - 1), b, n + 9)
        elif kind < 0.55:
            exps, cofs = [n + rng.randint(0, 9)], [rng.randint(2, 9)]
        else:
            exps = sorted(rng.sample(range(n + 20), rng.randint(1, 8)))
            cofs = [rng.choice((1, -1, rng.randint(-big - 2, big + 2) or 1)) for _ in exps]
        out = mul_sparse(xs, exps, cofs, n, stride, k)
        assert out == _powers(xs, exps, cofs, n, stride, k), (stride, k, n)


def _last_pass_edges(rng):
    """mul_sparse calls of k = 2..4 passes, the first strided or not, whose last
    pass meets an edge of W-bit slots, W = 8, 16, 32, 64 and 72: its output
    reaches +-bound, or its guard slot reaches -bound, the bound weight * (top +
    1) that sizes the slots of the passes in q; bound is 2^(W-1) - 1 or 2^(W-1),
    or, for a guard at weight 2 or 3, below 2^(W-1) by less than weight^k + weight.

    Every live term of f has a positive coefficient and one residue r mod the
    stride, so no product cancels: with |xs| <= X and weight the sum of the
    coefficients, the last pass's operand reaches top = weight^(k-1) * X, and
    its output weight^k * X.  For the output, xs is a run of +X then one of -X,
    each longer than the span of f^k, and weight^k * X = bound.  For the guard,
    xs is -X throughout and every live exponent exceeds the stride, so every
    term drops a negative tail and adds weight * (top + 1) to the guard.  One
    term lies past n.
    """
    for width in (8, 16, 32, 64, 72):
        for past in (0, 1):
            edge = 2 ** (width - 1) - 1 + past
            for guard in (False, True):
                for stride in (1, rng.randint(2, 5)):
                    k, r, span = rng.randint(2, 4), rng.randrange(stride), rng.randint(1, 4)
                    if guard:
                        weight = 1 if past or rng.random() < 0.5 else rng.randint(2, 3)
                        X = (edge // weight - 1) // weight ** (k - 1)
                        bound, low = weight * (weight ** (k - 1) * X + 1), 1 if r else 2
                    else:
                        j = rng.randint(1, (width - 1) // k) if past else 0
                        weight, X, bound, low = 2**j, edge >> j * k, edge, 0
                    cuts = sorted(rng.sample(range(1, weight), min(weight - 1, span - 1)))
                    weights = [b - a for a, b in zip([0, *cuts], [*cuts, weight])]
                    us = sorted(rng.sample(range(low, low + span + 2), len(weights)))
                    runs = k * (us[-1] - us[0]) + 1 + rng.randint(0, 3)
                    if guard:
                        n = k * r + stride * (k * us[-1] + runs)
                        xs = [-X] * (-(-n // stride) + rng.randint(0, 3))
                    else:
                        n = k * r + stride * (runs + k * us[-1]) + 1 + rng.randrange(stride)
                        xs = [X] * runs + [-X] * runs
                    exps = [r + stride * u for u in us] + [n + rng.randint(0, 9)]
                    cofs = weights + [rng.randint(-(10**30), 10**30)]
                    yield xs, exps, cofs, n, stride, k, bound, width, past, guard


def _guard_slot(xs, exps, cofs, n):
    """The guard slot's value of one pass in q of f over xs, n coefficients: each live
    term c*q^e adds c * (xs[n-e] + floor), floor -1 when the slots it drops, xs[n-e+1:],
    are negative as one packed number, and xs[n] is the zero guard below them."""
    guard = 0
    for e, c in zip(exps, cofs):
        if e < n:
            tail = next((x for x in xs[n - e + 1:] if x), 0)
            guard += c * ((xs + [0])[n - e] - (tail < 0))
    return guard


def test_mul_sparse_last_pass_at_slot_and_guard_edges():
    """mul_sparse against mul_dense for k passes whose last one meets its slot or
    guard edge (`_last_pass_edges`), with a strided first pass or without; a guard
    bound below 2^(W-1) sizes W-bit slots for the passes in q."""
    rng = random.Random(4)
    for xs, exps, cofs, n, stride, k, bound, width, past, guard in _last_pass_edges(rng):
        label = (width, past, guard, stride, k, n)
        out = mul_sparse(xs, exps, cofs, n, stride, k)
        assert out == _powers(xs, exps, cofs, n, stride, k), label
        if guard:
            operand = _powers(xs, exps, cofs, n, stride, k - 1)
            assert _guard_slot(operand, exps, cofs, n) == -bound, label
            assert past or 8 * _backend._slot_bytes(bound.bit_length()) == width, label
        else:
            assert (max(out), min(out)) == (bound, -bound), label
        assert (bound >= 2 ** (width - 1)) == past, label


@pytest.mark.parametrize("seed", [0, 1])
def test_div_sparse_matches_mul_dense_by_invert_dense(seed):
    """div_sparse against the schoolbook product of xs and the inverse of the divisor,
    at output lengths around the block length and with terms on both sides of it,
    and at the edges of the compiled step (`_step_edges`)."""
    rng = random.Random(seed)
    B = _BLOCK
    for n in (B - 1, B, B + 1, 2 * B + 1):
        for _ in range(6):
            exps = sorted({0, B - 1, B, n, n + rng.randint(1, 9), *rng.sample(range(1, 2 * B + 9), 12)})
            big = rng.choice((9, 10**40))
            cofs = [rng.choice((1, -1))]
            cofs += [rng.choice((1, -1, rng.choice((-1, 1)) * rng.randint(2, big))) for _ in exps[1:]]
            xs = [rng.randint(-big, big) for _ in range(rng.randint(1, n + 5))]
            assert div_sparse(xs, exps, cofs, n) == _dense_quotient(xs, exps, cofs, n), n
    for exps, cofs, n in _step_edges(rng):
        xs = [rng.randint(-10**40, 10**40) for _ in range(rng.randint(1, n + 5))]
        assert div_sparse(xs, exps, cofs, n) == _dense_quotient(xs, exps, cofs, n), (n, exps[:9], cofs[:9])


def _step_edges(rng):
    """Divisors (exps, cofs) and lengths n at the edges of the compiled division step:
    only far terms, so an empty step, with c0 = -1; only near terms; a term at every
    exponent below _BLOCK, the longest step; |c| = 2 and 3 of both signs, each |c|
    one shared product, with c0 = -1; n below the largest near exponent; and
    coefficients of 10^40.  Every divisor has gcd 1, so it divides in q."""
    B = _BLOCK
    signs = lambda k: [rng.choice((1, -1)) for _ in range(k)]
    far = sorted({B, B + 1, *rng.sample(range(B + 2, 3 * B), 6)})
    yield [0, *far], [-1, *signs(len(far))], 2 * B + 7
    near = sorted({1, *rng.sample(range(2, B), 8)})
    yield [0, *near], [1, *signs(len(near))], 2 * B + 7
    yield list(range(B)), signs(B), B + 5
    yield [*range(8), B + 4], [-1, 2, -2, 3, -3, 2, 1, -3, 2], B + 9
    for n in (1, 2, 7):
        yield [0, 1, 3, B - 1, B], [1, -1, 2, 1, -1], n
    big = 10**40
    yield [0, 1, 5, 200, B - 1, B + 3], [1, 1, -3, big, -big, big], 2 * B + 1


def test_division_steps_are_kept_per_divisor():
    """Divisors of equal exponents but other coefficients or another c0 each get
    their own compiled step, and each matches the oracle when divided after the
    others; one divisor at two lengths, both past _BLOCK, reuses its step."""
    _backend._step.cache_clear()
    rng = random.Random(7)
    B = _BLOCK
    exps = [0, 1, 2, 5, 7, B - 1, B + 2]
    divisors = ([1, -1, -1, 1, 1, -1, 1], [1, -1, 2, 1, 1, -1, 1], [-1, -1, -1, 1, 1, -1, 1], [-1, 1, 1, -1, -1, 1, -1])
    for n in (2 * B + 1, B + 1):
        for cofs in divisors:
            xs = [rng.randint(-9, 9) for _ in range(n)]
            assert div_sparse(xs, exps, cofs, n) == _dense_quotient(xs, exps, cofs, n), (n, cofs)
    info = _backend._step.cache_info()
    assert info.misses == info.hits == info.currsize == len(divisors)


def test_division_steps_drop_the_least_recently_used():
    """A divisor divided before and after each of 40 other divisors, more than the
    _STEPS_KEPT steps kept, compiles once: the step dropped is the least recently
    used, not the oldest."""
    _backend._step.cache_clear()
    rng = random.Random(5)
    n = 60
    kept = ([0, 1, 4, 9], [1, -1, 2, -1])
    others = [([0, 1, 10 + i], [1, 1, -1]) for i in range(40)]
    assert len(others) > _backend._STEPS_KEPT
    for divisor in [d for other in others for d in (kept, other)] + [kept]:
        xs = [rng.randint(-9, 9) for _ in range(n)]
        assert div_sparse(xs, *divisor, n) == _dense_quotient(xs, *divisor, n), divisor
    info = _backend._step.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1 + len(others), len(others), _backend._STEPS_KEPT)


def test_divisions_from_several_threads_match_serial():
    assert check_divisions_from_threads(0) == []


def _dense_quotient(xs, exps, cofs, n):
    """mul_dense of xs by invert_dense of the dense form of the sparse divisor."""
    divisor = [0] * (exps[-1] + 1)
    for e, c in zip(exps, cofs):
        divisor[e] = c
    return mul_dense(xs, invert_dense(divisor, n), n)


def _lattice_divisions(rng, d):
    """div_sparse calls whose divisor lives in q^d: n below d, a multiple of d or
    not; xs shorter or longer than n, all zero, in one residue class mod d, in
    some or in all; c0 = +-1, non-unit terms, terms at and past n; xs up to 10^40.
    The first call at d = 2 packs every class at more than 2 * _BLOCK
    coefficients in y, so that the packed recurrence has far terms and the
    quotient is decoded in more than one block."""
    for i in range(12):
        first = d == 2 and i == 0
        m = 2 * _BLOCK + 1 if first else rng.choice((1, 2, rng.randint(3, 24), 12))
        n = d * m - rng.choice((0, rng.randint(0, d - 1)))
        if rng.random() < 0.15 and not first:
            n = rng.randint(1, d)
        exps = sorted({0, d, *(d * rng.randint(1, m + 2) for _ in range(rng.randint(0, 5 + 4 * first)))})
        exps = sorted({*exps, n, n + rng.randint(1, 9)} if rng.random() < 0.5 else exps)
        big = rng.choice((9, 10**40))
        cofs = [rng.choice((1, -1))]
        cofs += [rng.choice((1, -1, rng.choice((-1, 1)) * rng.randint(2, 9))) for _ in exps[1:]]
        xs = [rng.randint(-big, big) for _ in range(rng.randint(1, n + 2 * d))]
        kept = "all" if first else rng.choice(("all", "some", "one", "none"))
        if kept != "all":
            classes = {rng.randrange(d)} if kept == "one" else set(rng.sample(range(d), rng.randint(1, d)))
            xs = [x if kept != "none" and i % d in classes else 0 for i, x in enumerate(xs)]
        yield xs, exps, cofs, n


# the slot widths in bits the packed division is checked at: it packs at any width
DIVISION_EDGES = (3, 8, 13, 16, 32, 33, 64, 71, 72)


def _slot_edge_divisions(rng):
    """div_sparse calls by c0 * (1 - c*q^d), every residue class mod d nonzero, whose slot
    bound max_r ||x_r||_1 * max_i |g_i| is 2^(W-1) - 1 or 2^(W-1) for W in
    DIVISION_EDGES, where g = 1/(c0 - c0*c*y), and whose quotient reaches +-bound.

    With c = 2, |g_i| = 2^i and class 0 is X * q^0, so its quotient reaches
    X * 2^(m-1) = bound at its last coefficient; with c = 1, g_i = c0 and class 0
    is positive, so its quotient's last coefficient is c0 times its sum, the bound.
    Every other class is a single +-1.
    """
    for width in DIVISION_EDGES:
        for bound in (2 ** (width - 1) - 1, 2 ** (width - 1)):
            d, m = rng.randint(2, 13), rng.randint(3, min(40, width))
            n = d * (m - 1) + rng.randint(1, d)
            c0 = rng.choice((1, -1))
            if bound % 2:
                c = 1
                cuts = sorted({rng.randint(1, bound - 1) for _ in range(min(m - 1, 3))})
                head = [b - a for a, b in zip([0, *cuts], [*cuts, bound])]
                head += [0] * (m - len(head))
                rng.shuffle(head)
            else:
                c = 2
                head = [bound >> (m - 1)] + [0] * (m - 1)
            xs = [0] * n
            xs[::d] = head
            for r in range(1, d):
                xs[r + d * rng.randrange(len(range(r, n, d)))] = rng.choice((1, -1))
            # a divisor term past the output, which does not count toward the bound
            exps, cofs = [0, d, n + rng.randint(0, 9)], [c0, -c0 * c, rng.randint(-(10**30), 10**30)]
            yield xs, exps, cofs, n, bound


@pytest.mark.parametrize("seed", [0, 1])
def test_div_sparse_in_q_d_matches_mul_dense_by_invert_dense(seed, monkeypatch):
    """div_sparse by divisors in q^d, d = 2..13, each residue class on its own or all
    packed in one pass, against the schoolbook product of xs and the divisor's inverse."""
    routes = _count_routes(monkeypatch)
    rng = random.Random(seed)
    for d in range(2, 14):
        for xs, exps, cofs, n in _lattice_divisions(rng, d):
            assert div_sparse(xs, exps, cofs, n) == _dense_quotient(xs, exps, cofs, n), (d, n)
    packed = [route[1:] for route in routes if route[0] == "packed"]
    assert len(packed) >= 20 and min(packed)[0] == 2 and max(m for _, m in packed) > 2 * _BLOCK
    routes.clear()
    for xs, exps, cofs, n, bound in _slot_edge_divisions(rng):
        out = div_sparse(xs, exps, cofs, n)
        assert out == _dense_quotient(xs, exps, cofs, n), (n, bound)
        assert max(map(abs, out)) == bound, (n, bound)
    assert [route[0] for route in routes] == ["packed"] * 2 * len(DIVISION_EDGES)


def _count_routes(monkeypatch):
    """Record the route of each division: ("packed", d, m) for a call of
    _backend._divide_packed, m the length in y, and ("divide", length) for a call
    of _backend._divide that neither _divide_packed nor _partition_numbers makes."""
    routes = []
    depth = [0]

    def wrap(name, route):
        kernel = getattr(_backend, name)

        def run(*args):
            if not depth[0] and route:
                routes.append(route(*args))
            depth[0] += 1
            try:
                return kernel(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(_backend, name, run)

    wrap("_divide", lambda out, terms, c0: ("divide", len(out)))
    wrap("_divide_packed", lambda out, d, terms, c0: ("packed", d, len(out) // d))
    wrap("_partition_numbers", None)
    return routes


@pytest.mark.parametrize("seed", [0, 1])
def test_div_sparse_route_follows_the_nonzero_classes(seed, monkeypatch):
    """A dividend on one residue class r mod d, r = 0 or not, is divided in y at
    len(range(r, n, d)) coefficients, at any d; one on several classes is packed in
    one pass at d <= _PACK_MAX and divided in q past it.  Every quotient matches the
    dense oracle."""
    routes = _count_routes(monkeypatch)
    rng = random.Random(seed)
    for d in (2, 3, 7, _PACK_MAX, _PACK_MAX + 1, 50):
        m = rng.randint(3, 12)
        n = d * (m - 1) + rng.randint(1, d)
        exps = [0, d, *sorted(rng.sample(range(2 * d, (m + 2) * d, d), 3))]
        cofs = [rng.choice((1, -1))] + [rng.choice((1, -1, rng.randint(-9, 9) or 2)) for _ in exps[1:]]
        xs = [rng.randint(-(10**20), 10**20) or 1 for _ in range(n)]
        some = set(rng.sample(range(d), rng.randint(2, d)))
        for classes in ({0}, {rng.randrange(1, d)}, {0, rng.randrange(1, d)}, some, set(range(d))):
            kept = [x if i % d in classes else 0 for i, x in enumerate(xs)]
            assert div_sparse(kept, exps, cofs, n) == _dense_quotient(kept, exps, cofs, n), (d, n, classes)
            if len(classes) == 1:
                expected = [("divide", len(range(min(classes), n, d)))]
            else:
                expected = [("packed", d, m)] if d <= _PACK_MAX else [("divide", n)]
            assert routes == expected, (d, n, classes)
            routes.clear()


@pytest.mark.parametrize("seed", [0, 1])
def test_div_sparse_with_thousands_of_classes(seed, monkeypatch):
    """div_sparse by divisors in q^d, d in the thousands, at two to four coefficients in y.

    A dividend on one residue class is divided in y.  One on three classes, on two
    up to half of the d, or on all of them is divided in q, and packed in one pass
    over d slots when _PACK_MAX is raised past d.  Each quotient times the divisor,
    by mul_sparse, is xs.
    """
    routes = _count_routes(monkeypatch)
    rng = random.Random(seed)
    for pack_max in (_PACK_MAX, 10**9):
        monkeypatch.setattr(_backend, "_PACK_MAX", pack_max)
        for kept in ("all", "one", "three", "half", "all"):
            d, m = rng.randint(1000, 5000), rng.randint(2, 4)
            n = d * (m - 1) + rng.randint(1, d)
            exps = [0, d, *sorted(rng.sample(range(2 * d, (m + 2) * d, d), rng.randint(0, m)))]
            cofs = [rng.choice((1, -1))] + [rng.choice((1, -1, rng.randint(-9, 9) or 2)) for _ in exps[1:]]
            xs = [rng.randint(-(10**40), 10**40) or 1 for _ in range(rng.randint(d, n + d))]
            if kept != "all":
                count = {"one": 1, "three": 3}.get(kept) or rng.randint(2, d // 2)
                classes = set(rng.sample(range(d), count))
                xs = [x if i % d in classes else 0 for i, x in enumerate(xs)]
            out = div_sparse(xs, exps, cofs, n)
            assert mul_sparse(out, exps, cofs, n) == xs[:n] + [0] * (n - len(xs)), (d, n, kept)
            if kept == "one":
                expected = [("divide", len(range(min(classes), n, d)))]
            else:
                expected = [("packed", d, m)] if pack_max > _PACK_MAX else [("divide", n)]
            assert routes == expected, (d, n, kept)
            routes.clear()


def test_benchmark_divisions_take_their_routes(monkeypatch, capsys):
    """With the partition table grown, the census of 2^5 7^-1 at K = 60 packs once at
    (d, m) = (7, 60), verify --p 7 --i 2 divides only by reading the table, and
    inverting phi(-q) at 1001 coefficients runs one recurrence in q."""
    monkeypatch.delenv("QSIGNS_PRECISION", raising=False)
    monkeypatch.setattr(_backend, "_partitions", [1])
    _backend._partition_numbers(_backend._PARTITIONS_KEPT)
    reads = _count_table(monkeypatch)
    routes = _count_routes(monkeypatch)
    assert cli.main(["census", "--spec", "2^5 7^-1", "--m", "7", "--K", "60"]) == 0
    assert routes == [("packed", 7, 60)]
    routes.clear()
    reads.clear()
    assert cli.main(["verify", "--p", "7", "--i", "2"]) == 0
    assert routes == [] and reads
    assert theta_alt_squares(1000).invert().coefficients[:4] == (1, 2, 4, 8)
    assert routes == [("divide", 1001)]
    capsys.readouterr()


# -- the partition-number table -------------------------------------------------------

def test_dividing_one_by_euler_reads_the_partition_table(monkeypatch):
    """1/(q^d;q^d), d = 1..13, with 1 as [1] and padded with zeros, against invert_dense,
    at lengths below, at and above the table's length, and again after a reset."""
    for lengths in ((200, 200, 77, 201, 300), (150,)):
        monkeypatch.setattr(_backend, "_partitions", [1])
        longest = 1
        for n in lengths:
            for d in range(1, 14):
                exps, cofs = pentagonal_terms(d, n - 1)
                expected = _dense_quotient([1], exps, cofs, n)
                assert div_sparse([1], exps, cofs, n) == expected, (d, n)
                assert div_sparse([1] + [0] * (n + d), exps, cofs, n) == expected, (d, n)
            longest = max(longest, n)
            assert len(_backend._partitions) == longest
    assert div_sparse([1], *pentagonal_terms(1, 100), 101)[100] == 190569292


def _count_table(monkeypatch):
    """Record m for each call of _backend._partition_numbers."""
    calls = []
    partition_numbers = _backend._partition_numbers

    def count(m):
        calls.append(m)
        return partition_numbers(m)

    monkeypatch.setattr(_backend, "_partition_numbers", count)
    return calls


def test_only_one_over_euler_reads_the_partition_table(monkeypatch):
    """-(y;y), (y;y) with one term changed or one added below y^m, and dividends
    other than 1 are divided by a recurrence, and match the dense oracle."""
    calls = _count_table(monkeypatch)
    routes = _count_routes(monkeypatch)
    n = 80
    for d in (1, 3, 5):
        exps, cofs = pentagonal_terms(d, n - 1)
        m = -(-n // d)
        assert div_sparse([1], exps, cofs, n) == _dense_quotient([1], exps, cofs, n) and calls == [m]
        assert routes == []
        calls.clear()
        divisors = [(exps, [-c for c in cofs]), (exps, [-1] + cofs[1:])]
        for i in range(1, len(exps)):
            divisors += [(exps, cofs[:i] + [c] + cofs[i + 1:]) for c in (-cofs[i], 2 * cofs[i])]
        for e in range(d, n, d):
            if e not in exps:
                added = sorted({**dict(zip(exps, cofs)), e: 1}.items())
                divisors.append(([e for e, _ in added], [c for _, c in added]))
        cases = [([1], *divisor) for divisor in divisors]
        cases += [(xs, exps, cofs) for xs in ([2], [-1], [1, 0, 0, 1], [0, 1], [1] + [0] * (d - 1) + [1])]
        for xs, dexps, dcofs in cases:
            assert div_sparse(xs, dexps, dcofs, n) == _dense_quotient(xs, dexps, dcofs, n), (d, xs, dcofs)
            assert len(routes) == 1, (d, xs, dcofs)
            routes.clear()


def _partitions_dense(m):
    """p(0..m-1), by invert_dense of the dense (q;q)."""
    euler = [0] * m
    for e, c in zip(*pentagonal_terms(1, m - 1)):
        euler[e] = c
    return invert_dense(euler, m)


def test_packed_division_by_euler_reaches_the_table_bound(monkeypatch):
    """Census-shaped divisions by (q^7;q^7), every class nonzero, whose slot bound
    ||x_0||_1 * p(m-1) is at most 2^(W-1) - 1 or just past 2^(W-1), W = 64 and 72:
    class 0 is X * q^0, so its quotient X * p(k) reaches the bound at k = m - 1.
    A bound at most 2^(W-1) - 1 puts the quotient in the top bit of a W-bit slot."""
    routes = _count_routes(monkeypatch)
    rng = random.Random(7)
    d, m = 7, 300
    n = d * (m - 1) + 3
    exps, cofs = pentagonal_terms(d, n - 1)
    partitions = _partitions_dense(m)
    for w, past in ((8, 0), (8, 1), (9, 0), (9, 1)):
        monkeypatch.setattr(_backend, "_partitions", [1])
        X = (2 ** (8 * w - 1) - 1) // partitions[-1] + past
        bound = X * partitions[-1]
        xs = [0] * n
        xs[0] = X
        for r in range(1, d):
            xs[r + d * rng.randrange(len(range(r, n, d)))] = rng.choice((1, -1))
        out = div_sparse(xs, exps, cofs, n)
        assert out[::d] == [X * p for p in partitions]
        assert mul_sparse(out, exps, cofs, n) == xs
        assert max(map(abs, out)) == bound and _backend._slot_bytes(bound.bit_length()) == w + past
        assert bound.bit_length() == 8 * w - 1 + past
        assert routes == [("packed", d, m)] and len(_backend._partitions) == m
        routes.clear()


def test_dividing_one_by_euler_runs_no_recurrence_once_the_table_is_long(monkeypatch):
    n = 5 * 400
    exps, cofs = pentagonal_terms(5, n - 1)
    expected = [0] * n
    expected[::5] = _partitions_dense(400)
    calls = []
    divide = _backend._divide

    def count(out, terms, c0):
        calls.append(len(out))
        return divide(out, terms, c0)

    monkeypatch.setattr(_backend, "_divide", count)
    monkeypatch.setattr(_backend, "_partitions", [1])
    _backend._partition_numbers(500)
    assert calls == [500]
    calls.clear()
    assert div_sparse([1], exps, cofs, n) == expected and calls == []


def test_partition_table_keeps_at_most_its_cap(monkeypatch):
    """A division of 1 by (y;y) longer than _PARTITIONS_KEPT builds its table for
    that call only and keeps the first _PARTITIONS_KEPT numbers, which a shorter
    division then reads with no recurrence; a cap of 100 gives the same numbers."""
    monkeypatch.setattr(_backend, "_partitions", [1])
    cap = _backend._PARTITIONS_KEPT
    assert cap == 1 << 14
    series = eta_quotient("1^-1", 40000)
    kept = _backend._partitions
    assert len(kept) == cap and list(series.coefficients[:cap]) == kept
    calls = []
    divide = _backend._divide
    monkeypatch.setattr(_backend, "_divide", lambda out, terms, c0: calls.append(len(out)) or divide(out, terms, c0))
    fifth = eta_quotient("5^-1", 40000)
    assert fifth.coefficients[::5] == series.coefficients[:8001] and calls == []
    assert _backend._partitions is kept
    monkeypatch.setattr(_backend, "_PARTITIONS_KEPT", 100)
    monkeypatch.setattr(_backend, "_partitions", [1])
    partitions = _partitions_dense(300)
    longest = 1
    for m in (50, 150, 300, 120, 80):
        longest = max(longest, m)
        assert _backend._partition_numbers(m)[:m] == partitions[:m], m
        assert _backend._partitions == partitions[:min(100, longest)], m


def test_partition_table_only_grows(monkeypatch):
    """A kept table that grows past m while a table of m numbers is computed, as when
    another thread grows it meanwhile, stays kept; the request gets its own table."""
    monkeypatch.setattr(_backend, "_partitions", [1])
    longer = _partitions_dense(300)
    divide = _backend._divide

    def grown_meanwhile(out, terms, c0):
        _backend._partitions = longer
        return divide(out, terms, c0)

    monkeypatch.setattr(_backend, "_divide", grown_meanwhile)
    assert _backend._partition_numbers(100) == longer[:100]
    assert _backend._partitions is longer


def test_pack_round_trips_wide_slots():
    """_pack is sum xs[i] * 2^(8w*i) and _unpack inverts it, at every slot width
    from 1 byte, through those array packs, to 40 bytes, with slots at
    +-(2^(8w-1) - 1) and -2^(8w-1)."""
    rng = random.Random(0)
    for w in range(1, 41):
        half = 1 << (8 * w - 1)
        xs = [half - 1, -(half - 1), -half, 0, 1, -1] + [rng.randint(-half, half - 1) for _ in range(20)]
        rng.shuffle(xs)
        packed = _backend._pack(xs, w)
        assert packed == sum(x << 8 * w * i for i, x in enumerate(xs)), w
        assert _backend._unpack(packed, w, len(xs)) == xs, w
        assert _backend._pack([], w) == 0 and _backend._unpack(0, w, 0) == [], w


@pytest.mark.parametrize("seed", [0, 1])
def test_binomial_factors_match_dense_oracle(seed):
    """_apply_factor with a != b against mul_dense by each dense 1 - q^e, or by invert_dense of it."""
    rng = random.Random(seed)
    for _ in range(60):
        n, a, b = rng.randint(1, 80), rng.randint(1, 12), rng.randint(1, 12)
        if a == b:
            b += 1
        delta = rng.choice((-3, -2, -1, 1, 2, 3))
        cur = [rng.randint(-(10**12), 10**12) for _ in range(n)]
        expected = cur
        for _ in range(abs(delta)):
            for e in range(a, n, b):
                binomial = [1] + [0] * (e - 1) + [-1]
                expected = mul_dense(expected, invert_dense(binomial, n) if delta < 0 else binomial, n)
        before = list(cur)
        assert products._apply_factor(cur, a, b, delta, n) == expected, (a, b, delta, n)
        assert cur == before


@pytest.mark.parametrize("delta", [-13, -5, -1, 1, 5, 13, 10**9, -(10**9)])
def test_binomial_powers_match_series_power(delta):
    """(q^2;q^5)^delta to q^10 is ((1 - q^2)(1 - q^7))^delta, by Miller's recurrence."""
    base = Series.from_terms([(0, 1), (2, -1), (7, -1), (9, 1)], 10)
    assert eta_quotient(f"2.5^{delta}", 10) == base.power(delta)


@pytest.mark.parametrize("k", [18, -18, 10**9, -(10**9)])
def test_powers_longer_than_their_pass_are_raised_once(monkeypatch, k):
    """(q;q)^k (q^2;q^2)^k to q^4: each power above the 5 coefficients of its
    pass is raised once and multiplied in by one pass, whatever k is; a
    mul_sparse call counts its k passes."""
    expected = eta_quotient("1 2", 4).power(k)
    passes = []

    def recording(kernel, count=lambda *args: 1):
        return lambda *args: passes.extend([kernel.__name__] * count(*args)) or kernel(*args)

    monkeypatch.setattr(products, "mul_sparse", recording(mul_sparse, lambda xs, exps, cofs, n, stride=1, k=1: k))
    monkeypatch.setattr(products, "div_sparse", recording(div_sparse))
    assert eta_quotient(f"1^{k} 2^{k}", 4) == expected
    assert 1 <= len(passes) <= 2, passes


def test_div_sparse_rejects_a_divisor_without_a_unit_constant_term():
    with pytest.raises(ValueError, match="cannot divide by constant term 2"):
        div_sparse([1, 0, 0, 0, 0], [0, 1], [2, 1], 5)
    with pytest.raises(ValueError, match="needs a nonzero constant term"):
        div_sparse([1, 0, 0, 0, 0], [1, 2], [1, 1], 5)


# the limits the closed forms are swept at: every one up to 80, and 400
SWEPT_LIMITS = (*range(81), 400)


def assert_terms_expand(exps, cofs, oracle, limit, label):
    """The terms up to limit are sorted, distinct and nonnegative, nonzero, and equal the oracle there."""
    assert exps == sorted(set(exps)) and all(0 <= e <= limit for e in exps), (label, limit)
    assert len(cofs) == len(exps) and 0 not in cofs, (label, limit)
    assert Series.from_terms(zip(exps, cofs), limit) == oracle.truncate(limit), (label, limit)


def test_theta_terms_equal_a_brute_force_sum():
    # one or two sums (A, B, C, eps, c) with A > 0, A + B even and -A <= B < 3A, against
    # the sum over every n with |n| <= limit + 5, past which both sides exceed the limit
    rng = random.Random(0)
    for _ in range(500):
        sums = []
        for _ in range(rng.randint(1, 2)):
            A = rng.randint(1, 6)
            B = rng.choice(range(-A, 3 * A, 2))
            sums.append((A, B, rng.randint(0, 3), rng.choice((1, -1)), rng.choice((1, -1, 2))))
        limit = rng.randint(0, 80)
        brute: dict = {}
        for A, B, C, eps, c in sums:
            for n in range(-limit - 5, limit + 6):
                e = (A * n * n + B * n) // 2 + C
                if e <= limit:
                    brute[e] = brute.get(e, 0) + c * eps ** abs(n)
        exps = sorted(e for e, k in brute.items() if k)
        assert theta_terms(sums, limit) == (exps, [brute[e] for e in exps]), (sums, limit)


def test_jacobi_triple_terms_merge_colliding_exponents():
    # JTP(1,2) = sum_n (-1)^n q^{n^2}
    assert jacobi_triple_terms(1, 2, 16) == ([0, 1, 4, 9, 16], [1, -2, 2, -2, 2])
    assert jacobi_triple_terms(1, 5, 13) == ([0, 1, 4, 7, 13], [1, -1, -1, 1, 1])
    assert pentagonal_terms(1, 12) == ([0, 1, 2, 5, 7, 12], [1, -1, -1, 1, 1, -1])
    # every JTP(a,b) with b <= 8, the colliding b = 2a among them, at every swept limit
    for b in range(2, 9):
        for a in range(1, b):
            oracle = binomial_expansion(EtaQuotientSpec.parse(f"{a}.{b} {b - a}.{b} {b}"), 400)
            for limit in SWEPT_LIMITS:
                assert_terms_expand(*jacobi_triple_terms(a, b, limit), oracle, limit, (a, b))


def test_quintuple_terms_merge_colliding_exponents():
    # M = 3j and M = 6j are the periods where the two sums of Cooper's form meet
    assert quintuple_terms(3, 1, 28) == ([0, 1, 3, 6, 10, 15, 21, 28], [1, -2, 1, 1, -2, 1, 1, -2])
    assert quintuple_terms(6, 1, 16) == ([0, 1, 4, 9, 16], [1, -1, -1, 2, -1])
    # Q(4,1) = (q;q)
    assert quintuple_terms(4, 1, 26) == pentagonal_terms(1, 26)
    assert quintuple_terms(5, 2, -1) == ([], [])


def test_quintuple_terms_at_limits_below_the_terms_of_n_nonzero():
    # below q^(M-2j) only n = 0 contributes, 1 - q^j; the loop at a longer limit is the oracle
    cases = [(M, j) for M in range(3, 40) for j in range(1, (M + 1) // 2)]
    for M, j in cases + [(605, 1), (605, 88), (605, 302)]:
        exps, cofs = quintuple_terms(M, j, 2 * M)
        for limit in range(-1, M + 1):
            k = sum(e <= limit for e in exps)
            assert quintuple_terms(M, j, limit) == (exps[:k], cofs[:k]), (M, j, limit)


def test_quintuple_product_equals_binomial_expansion():
    for M in range(3, 25):
        for j in range(1, (M + 1) // 2):
            spec = EtaQuotientSpec.parse(f"{j}.{M} {M - j}.{M} {M} {M - 2 * j}.{2 * M} {M + 2 * j}.{2 * M}")
            oracle = binomial_expansion(spec, 400)
            for limit in SWEPT_LIMITS:
                assert_terms_expand(*quintuple_terms(M, j, limit), oracle, limit, (M, j))
                assert quintuple_product(M, j, limit) == oracle.truncate(limit), (M, j, limit)


# -- coefficient growth ---------------------------------------------------------------

def _random_product(rng):
    """Factors of a random product of eulers (q^b;q^b)^k and JTP(a,b)^k, b <= 12, |k| <= 3."""
    factors = []
    for _ in range(rng.randint(1, 4)):
        k = rng.choice((-3, -2, -1, 1, 2, 3))
        if rng.random() < 0.5:
            b = rng.randint(1, 12)
            factors.append(PochhammerFactor(b, b, k))
        else:
            b = rng.randint(2, 12)
            a = rng.randint(1, b - 1)
            factors += [PochhammerFactor(a, b, k), PochhammerFactor(b - a, b, k), PochhammerFactor(b, b, k)]
    return EtaQuotientSpec(tuple(factors))


def test_growth_estimates_the_largest_coefficient():
    """At T = 2000, 9.07 sqrt(X T) bits, rounded down, is 0.7-1.4 times the bits of
    the largest coefficient of random products of eulers and JTPs with X > 0, and a
    product with X <= 0 has no coefficient past 32 bits."""
    rng = random.Random(36)
    T = 2000
    positive = small = 0
    for _ in range(60):
        spec = _random_product(rng)
        X = growth(spec)
        bits = max(map(abs, eta_quotient(spec, T).coefficients)).bit_length()
        if X > 0:
            estimate = cost.bits(X.numerator, X.denominator, T)
            assert 7 * bits <= 10 * estimate <= 14 * bits, (str(spec), X, estimate, bits)
            positive += 1
        else:
            assert bits <= 32, (str(spec), X, bits)
            small += 1
    assert positive >= 30 and small >= 5


def test_growth_exact_values():
    """1/(q;q) has X = 1/6 (Hardy and Ramanujan); (q;q)^k for k > 0 and every theta
    atom, dilated too, have X <= 0; JTP(a,b)^-1 has its largest order at the
    cusp 0, 3/(6b); and growth is exact, a Fraction."""
    assert growth("1^-1") == Fraction(1, 6)
    assert growth(EtaQuotientSpec.parse("3^-2")) == Fraction(1, 9)
    for k in range(1, 9):
        assert growth(f"1^{k}") == Fraction(-k, 6)
    for name, signature in THETA_ATOMS.items():
        for s in (1, 2, 3):
            assert growth(" ".join(f"{s * b}^{x}" for b, x in signature.items())) <= 0, (name, s)
    for b in range(2, 9):
        for a in range(1, b):
            assert growth(f"{a}.{b}^-1 {b - a}.{b}^-1 {b}^-1") == Fraction(1, 2 * b), (a, b)


def test_cusp_search_is_bounded():
    """Moduli whose lcm is 99,400,891 = 9967 * 9973, and a 20-digit modulus: a
    factor whose b is past the reference horizon is bounded alone, with no b
    factored, so the plan takes milliseconds.  X of the first is at least the
    order at the cusp 0, 3/(6 * 9967) - 3/(6 * 9973), and 1/JTP(1,b) keeps its
    exact X = 1/(2b), the sum of its factors' orders at the cusp 0, alone."""
    big = 12345678901234567891
    for spec in ("1.9973 9972.9973 9973 2.9967^-1 9965.9967^-1 9967^-1",
                 f"1.{big} {big - 1}.{big}", f"1.{big}^-1 {big - 1}.{big}^-1 {big}^-1 2.7^-1"):
        plan._plan.cache_clear()
        start = time.perf_counter()
        ExpansionPlan.of(spec)
        assert time.perf_counter() - start < 0.05, spec
        growth(spec)
        assert time.perf_counter() - start < 0.05, spec
    assert growth("1.9973 9972.9973 9973 2.9967^-1 9965.9967^-1 9967^-1") >= (
        Fraction(3, 6 * 9967) - Fraction(3, 6 * 9973))
    assert growth(f"1.{big}^-1 {big - 1}.{big}^-1 {big}^-1") == Fraction(1, 2 * big)
    assert growth(f"1.{cost.REFERENCE_T + 1}^-1 {cost.REFERENCE_T}.{cost.REFERENCE_T + 1}^-1 "
                  f"{cost.REFERENCE_T + 1}^-1 1^-1") == Fraction(1, 6) + Fraction(1, 2 * cost.REFERENCE_T + 2)


def test_many_moduli_plan_quickly():
    """(q^b;q^b)^-1 for b = 1..40: the lcm of the b's has more divisors than the
    cusp search tries, so every factor is bounded alone, and the widths of the
    search's sets of powers are each found from one set before, so the plan takes
    well under a second (0.2 s here)."""
    plan._plan.cache_clear()
    start = time.perf_counter()
    ExpansionPlan.of(" ".join(f"{b}^-1" for b in range(1, 41)))
    assert time.perf_counter() - start < 2


# -- plan shapes --------------------------------------------------------------------

# (seed, powers) of each corpus entry; the spec has no binomial left
CORPUS_PLANS = {
    "period8-quartic": (
        None,
        (("euler", (4,), -1), ("J", (1,), 1), ("euler", (1,), 1), ("phi(-q)", (2,), 1)),
    ),
    "period9-ninth": (("euler", (3,), -5), (("J", (1,), 3),)),
    "rr-quotient": (("jtp", (2, 5), 1), (("jtp", (1, 5), -1),)),
    "octic-quotient": (("jtp", (3, 8), 1), (("jtp", (1, 8), -1),)),
    # the division by JTP(1,5) or JTP(2,5) runs in q where the growth of the
    # powers applied so far is <= 0, and 1/(q^10;q^10)^4 is a table read and
    # one packed division by J(q^10)
    "hirschhorn-a": (
        None,
        (("euler", (10,), -1), ("jtp", (2, 10), 1), ("jtp", (1, 10), 3), ("jtp", (1, 5), -1),
         ("euler", (5,), 1), ("J", (10,), -1)),
    ),
    "hirschhorn-b": (
        None,
        (("euler", (10,), -1), ("jtp", (4, 10), 1), ("jtp", (3, 10), 3), ("jtp", (2, 5), -1),
         ("euler", (5,), 1), ("J", (10,), -1)),
    ),
}


def test_corpus_plans_are_pinned():
    for entry in corpus():
        seed, powers = CORPUS_PLANS[entry.name]
        assert ExpansionPlan.of(entry.spec) == ExpansionPlan(seed, powers, ()), entry.name


# (seed, powers) of the paper's quotients: the census specs, the verify
# table's (q^i;q^i)/(q^p;q^p), and every catalog case; none has a binomial
PAPER_PLANS = {
    # the census multiplies in q^a first and divides last; J(q^a) by a scatter
    # and two passes in q^a cost less than Miller's (q^a;q^a)^5
    "2^5 7^-1": (("J", (2,), 1), (("euler", (2,), 2), ("euler", (7,), -1))),
    "3^5 7^-1": (("J", (3,), 1), (("euler", (3,), 2), ("euler", (7,), -1))),
    "2^5 11^-1": (("J", (2,), 1), (("euler", (2,), 2), ("euler", (11,), -1))),
    "3^5 11^-1": (("J", (3,), 1), (("euler", (3,), 2), ("euler", (11,), -1))),
    # the verify quotients start in q^p: 1/(q^p;q^p) at T/p + 1 coefficients,
    # then (q^i;q^i) as one strided scatter
    **{
        f"{i}^1 {p}^-1": (None, (("euler", (p,), -1), ("euler", (i,), 1)))
        for p in (5, 7, 11, 13) for i in (2, 3, 4)
    },
    "2^2 1^-1 3^-1": (None, (("euler", (3,), -1), ("psi", (1,), 1))),
    "2^2 1^-1 5^-1": (None, (("euler", (5,), -1), ("psi", (1,), 1))),
    "2^2 1^-1 7^-1": (None, (("euler", (7,), -1), ("psi", (1,), 1))),
    "1^2 2^-1 4^-1": (None, (("euler", (4,), -1), ("phi(-q)", (1,), 1))),
    "1^2 2^-1 12^-1": (None, (("euler", (12,), -1), ("phi(-q)", (1,), 1))),
    "1^2 2^-1 20^-1": (None, (("euler", (20,), -1), ("phi(-q)", (1,), 1))),
    "1^2 2^-1 28^-1": (None, (("euler", (28,), -1), ("phi(-q)", (1,), 1))),
    "1^3 3^-2": (("euler", (3,), -2), (("J", (1,), 1),)),
    "1^2 2^-1 3^-2": (("euler", (3,), -2), (("phi(-q)", (1,), 1),)),
    "1^4 2^-2 4^-1": (None, (("euler", (4,), -1), ("phi(-q)", (1,), 2))),
    "2^10 1^-4 4^-5": (None, (("euler", (4,), -1), ("phi(q)", (1,), 2))),
    "1^2 5^-3": (None, (("J", (5,), -1), ("euler", (1,), 2))),
    "1^9 3^-9": (("J", (3,), -3), (("J", (1,), 3),)),
    "1^9 3^-11": (("euler", (3,), -11), (("J", (1,), 3),)),
    "1^9 3^-12": (("J", (3,), -4), (("J", (1,), 3),)),
    "1^9 3^-13": (("euler", (3,), -13), (("J", (1,), 3),)),
}


def test_paper_plans_are_pinned():
    catalog = {str(case.spec) for case in pattern_catalog()}
    assert catalog <= set(PAPER_PLANS) and len(PAPER_PLANS) == 4 + 12 + 16
    for spec, (seed, powers) in PAPER_PLANS.items():
        assert ExpansionPlan.of(spec) == ExpansionPlan(seed, powers, ()), spec


def _stable_ids(cases, *columns):
    """Ids "spec-column0-..." for each case, the names these cases had when the
    plan was pinned by per-kind columns, so the test names stay stable."""
    return ["-".join([case[0], *(f"{column}{i}" for column in columns)]) for i, case in enumerate(cases)]


PLAN_SHAPES = [
    ("1 1^-1", None, (), ()),
    ("2.5^1 2.5^-1 3.5", None, (), ((3, 5, 1),)),
    ("2.5 3.5^-1", None, (), ((2, 5, 1), (3, 5, -1))),
    ("3.5^2 2.5 5^-1", ("euler", (5,), -2), (("jtp", (2, 5), 1),), ((3, 5, 1),)),
    ("1.4^-3 3.4^-2", ("euler", (4,), 2), (("jtp", (1, 4), -2),), ((1, 4, -1),)),
    # (q^a;q^{2a}) = (q^a;q^a) / (q^{2a};q^{2a}), so these are eulers and theta atoms
    ("1.2^3", ("euler", (2,), -2), (("euler", (1,), 1), ("phi(-q)", (1,), 1)), ()),
    ("1.2^-4", ("euler", (1,), -2), (("psi", (1,), 2),), ()),
    ("3.6^-1", None, (("euler", (3,), -1), ("euler", (6,), 1)), ()),
    ("7.5 2.5", None, (), ((7, 5, 1), (2, 5, 1))),
    # partners of opposite signs form no JTP
    (
        "1.4 3.4 2.8^-1 6.8^-1",
        None,
        (("euler", (4,), -1), ("euler", (8,), 1), ("jtp", (2, 8), -1), ("jtp", (1, 4), 1)),
        (),
    ),
]


@pytest.mark.parametrize(
    "spec,seed,powers,binomials", PLAN_SHAPES,
    ids=_stable_ids(PLAN_SHAPES, "thetas", "eulers", "binomials"),
)
def test_plan_shapes(spec, seed, powers, binomials):
    assert ExpansionPlan.of(spec) == ExpansionPlan(seed, powers, binomials)


THETA_ATOM_PLANS = [
    ("1^9 3^-13", ("euler", (3,), -13), (("J", (1,), 3),)),
    ("2^10 1^-4 4^-5", None, (("euler", (4,), -1), ("phi(q)", (1,), 2))),
    ("2^2 1^-1 5^-1", None, (("euler", (5,), -1), ("psi", (1,), 1))),
    ("1^2 2^-1 28^-1", None, (("euler", (28,), -1), ("phi(-q)", (1,), 1))),
    # dilated, and to a negative power
    ("9^3 3^-1", None, (("euler", (3,), -1), ("J", (9,), 1))),
    # (q^4;q^4)^-2, a table read and one division in q^4, and a pass of
    # (q^2;q^2) cost less than psi(q^2)^-1
    ("4^-2 2", ("euler", (4,), -2), (("euler", (2,), 1),)),
    # two atoms take all of (q;q)^7 (q^2;q^2)^-2
    ("1^7 2^-2 3^-1", None, (("euler", (3,), -1), ("J", (1,), 1), ("phi(-q)", (1,), 2))),
    # 1/(q^6;q^6)^2 is a table read and one division in q^6; psi(q^3)^-1 is not taken
    ("6^-2 3", ("euler", (6,), -2), (("euler", (3,), 1),)),
    # partial: what the atom leaves stays with the eulers
    ("1^5 3^-1", None, (("euler", (3,), -1), ("J", (1,), 1), ("euler", (1,), 2))),
]


@pytest.mark.parametrize(
    "spec,seed,powers", THETA_ATOM_PLANS, ids=_stable_ids(THETA_ATOM_PLANS, "eulers", "atoms"),
)
def test_plan_theta_atoms(spec, seed, powers):
    assert ExpansionPlan.of(spec) == ExpansionPlan(seed, powers, ())


@pytest.mark.parametrize("spec", ["2^5 7^-1", "3^5 7^-1", "2^5 11^-1", "3^5 11^-1"])
def test_census_specs_seed_the_J_atom(spec):
    # J(q^a) by a scatter and two passes of (q^a;q^a), in q^a, cost less than
    # Miller's (q^a;q^a)^5 there; the division, into q itself, comes last
    a, m = (int(token.split("^")[0]) for token in spec.split())
    assert ExpansionPlan.of(spec) == ExpansionPlan(
        ("J", (a,), 1), (("euler", (a,), 2), ("euler", (m,), -1)), ()
    )


def test_plans_are_cached_per_parsed_spec():
    spec = EtaQuotientSpec.parse("1^5 3^-1")
    assert ExpansionPlan.of("1^5 3^-1") is ExpansionPlan.of(spec) is ExpansionPlan.of("1^5 3^-1")


# ids: the names these cases had when the seed was pinned first
@pytest.mark.parametrize("spec,seed", [
    pytest.param("2^5 7^-1", (2, 1), id="2^5 7^-1-seed0"),
    # Miller at n/3 coefficients beats 13 divisions at n/3
    pytest.param("1^9 3^-13", (3, -13), id="1^9 3^-13-seed1"),
    # 1/(q^4;q^4) at n/4 first, then phi(q)^2 strided; so too a division by (q^5;q^5)
    pytest.param("2^10 1^-4 4^-5", None, id="2^10 1^-4 4^-5-seed2"),
    pytest.param("2 5^-1", None, id="2 5^-1-seed3"),
    # a power -1 is no seed: the first pass divides 1, here by reading the table
    pytest.param("1^-1 3^-1", None, id="1^-1 3^-1-seed4"),
    pytest.param("1^-1", None, id="1^-1-None"),
    # the table and one division at n/3 raise (q^3;q^3)^-2; as the first pass
    # they cost the same, and the seed is kept
    pytest.param("1^3 3^-2", (3, -2), id="1^3 3^-2-seed6"),
])
def test_seed_is_the_cheapest(monkeypatch, spec, seed):
    """The seed that eta_quotient raises outright, as (step of its series, power).

    The seed is raised in q^step, at 300 // step + 1 coefficients.
    """
    seeds = []

    def recording(exps, cofs, k, n):
        seeds.append((300 // (n - 1), k))
        return pow_sparse(exps, cofs, k, n)

    monkeypatch.setattr(products, "pow_sparse", recording)
    assert eta_quotient(spec, 300) == binomial_expansion(EtaQuotientSpec.parse(spec), 300)
    assert seeds == ([seed] if seed else [])


@pytest.mark.parametrize("name", THETA_ATOMS)
def test_theta_atom_terms_equal_binomial_expansion(name):
    signature, terms = THETA_ATOMS[name], FORMS[name]
    for s in range(1, 7):
        spec = EtaQuotientSpec.parse(" ".join(f"{s * b}^{x}" for b, x in signature.items()))
        oracle = binomial_expansion(spec, 400)
        for limit in SWEPT_LIMITS:
            assert_terms_expand(*terms(s, limit), oracle, limit, (name, s))


def test_theta_weighted_terms_equal_binomial_expansion(monkeypatch):
    made = []

    def recording(sums, limit):
        made.append(theta_terms(sums, limit))
        return made[-1]

    monkeypatch.setattr(products, "theta_terms", recording)
    oracle = binomial_expansion(EtaQuotientSpec.parse("1^2 6^1 2^-1 3^-1"), 400)
    for limit in SWEPT_LIMITS:
        assert theta_weighted(limit) == oracle.truncate(limit), limit
        assert_terms_expand(*made.pop(), oracle, limit, "theta_weighted")


def refuse_binomials(*args):
    raise AssertionError(f"binomial path reached with {args[1:]}")


def test_quintuple_specs_expand_without_binomials(monkeypatch):
    monkeypatch.setattr(products, "_apply_factor", refuse_binomials)
    for M in range(3, 13):
        for j in range(1, (M + 1) // 2):
            spec = f"{j}.{M} {M - j}.{M} {M} {M - 2 * j}.{2 * M} {M + 2 * j}.{2 * M}"
            assert eta_quotient(spec, 400) == quintuple_product(M, j, 400), (M, j)


def test_factors_with_b_twice_a_plan_no_binomials():
    # (q^a;q^{2a}) alone, and twice with (q^{2a};q^{2a}) as in JTP(a,2a)
    for a in range(1, 7):
        for d in (*range(-5, 0), *range(1, 6)):
            for text in (f"{a}.{2 * a}^{d}", f"{a}.{2 * a}^{d} {a}.{2 * a}^{d} {2 * a}^{d}"):
                spec = EtaQuotientSpec.parse(text)
                assert ExpansionPlan.of(spec).binomials == (), text
                assert eta_quotient(spec, 120) == binomial_expansion(spec, 120), text


def test_paper_products_never_take_the_binomial_path(monkeypatch):
    monkeypatch.setattr(products, "_apply_factor", refuse_binomials)
    for entry in corpus():
        eta_quotient(entry.spec, 200)
    for M in range(3, 9):
        for j in range(1, (M + 1) // 2):
            quintuple_product(M, j, 200)
            assemble(quintuple_components(M, j, 5), 200)
    three_dissection_qq(200)
    ramanujan5(200)
