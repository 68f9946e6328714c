"""Constructors for infinite products and theta series.

Everything here returns an exact truncated :class:`~qsigns.series.Series`.
`eta_quotient` plans a spec before expanding it:

* **Net exponents.** The exponents of repeated factors (q^a;q^b) are
  summed, so repeats merge and cancelling factors drop out.
* **Jacobi triple products.** By the triple product identity
  (q^a;q^b)(q^{b-a};q^b) = JTP(a,b) / (q^b;q^b), where
  JTP(a,b) = sum_k (-1)^k q^{b k(k-1)/2 + a k} has O(sqrt(T/b)) terms.
  Partners whose net exponents share a sign are paired that many times
  (a factor with b = 2a pairs with itself), and each pair moves its
  (q^b;q^b) into that factor's net exponent.
* **Quintuple products.** By the quintuple product identity in Cooper's
  form, JTP(j,M) JTP(M-2j,2M) = Q(M,j) (q^{2M};q^{2M}) for 1 <= j < M/2,
  where Q(M,j) = (q^j, q^{M-j}, q^M; q^M)(q^{M-2j}, q^{M+2j}; q^{2M})
  = sum_n q^{M n(3n+1)/2} (q^{-3jn} - q^{j(3n+1)}) also has O(sqrt(T/M))
  terms.  Two such thetas whose exponents share a sign become one atom
  Q(M,j)^k, k their common part, and k is added to the net exponent of
  (q^{2M};q^{2M}).  A quintuple product, and so every dissection
  component, plans as the single atom Q(M,j)^1, which is one scatter.
* **Sparse powers.** What is left of the (q^b;q^b) factors is the
  pentagonal series.  The sparse base with the largest |exponent| seeds
  the result in one pass of Miller's power recurrence (`pow_sparse`);
  every other base is multiplied or divided in once per unit of its
  exponent, at O(T) per sparse term and pass.
* **Binomial fallback.** Unpaired factors and factors with a > b are
  multiplied or divided one binomial 1-q^{a+kb} at a time
  (`_apply_factor`), which also serves the tests as the reference
  expansion of any spec.

Spec grammar for quotients of such products (also used by the CLI):
whitespace-separated tokens ``a.b^d`` meaning (q^a;q^b)^d and the
shorthand ``j^d`` meaning (q^j;q^j)^d; ``^d`` defaults to 1.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from ._backend import div_sparse, mul_sparse, pow_sparse
from .series import InvalidParameter, Series, _check_precision

__all__ = [
    "PochhammerFactor",
    "EtaQuotientSpec",
    "ExpansionPlan",
    "pochhammer",
    "eta_quotient",
    "quintuple_product",
    "theta_alt_squares",
    "theta_triangular",
    "theta_squares",
    "theta_weighted",
    "borwein_a",
    "borwein_b",
    "borwein_c3",
    "lambert_cubic",
    "theta_threevar",
]


# ----------------------------------------------------------------------
# Factor specifications
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(r"^(\d+)(?:\.(\d+))?(?:\^(-?\d+))?$")


@dataclass(frozen=True)
class PochhammerFactor:
    """One factor (q^a; q^b)^delta of a product."""

    a: int
    b: int
    delta: int = 1

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise InvalidParameter(f"factor offsets must be >= 1, got ({self.a}, {self.b})")

    def __str__(self) -> str:
        base = str(self.a) if self.a == self.b else f"{self.a}.{self.b}"
        return f"{base}^{self.delta}"


@dataclass(frozen=True)
class EtaQuotientSpec:
    """A finite product of Pochhammer factors, prod (q^a;q^b)^delta."""

    factors: tuple[PochhammerFactor, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise InvalidParameter("product spec needs at least one factor")

    @classmethod
    def parse(cls, text: str) -> "EtaQuotientSpec":
        """Parse the ``a.b^d`` / ``j^d`` token grammar."""
        factors = []
        for token in text.split():
            m = _TOKEN_RE.match(token)
            if m is None:
                raise InvalidParameter(f"bad factor token {token!r}")
            a = int(m.group(1))
            b = int(m.group(2)) if m.group(2) else a
            d = int(m.group(3)) if m.group(3) else 1
            factors.append(PochhammerFactor(a, b, d))
        return cls(tuple(factors))

    def __str__(self) -> str:
        return " ".join(str(f) for f in self.factors)


def _as_spec(spec: "EtaQuotientSpec | str") -> EtaQuotientSpec:
    return EtaQuotientSpec.parse(spec) if isinstance(spec, str) else spec


# ----------------------------------------------------------------------
# Product expansion
# ----------------------------------------------------------------------

def jacobi_triple_terms(a: int, b: int, limit: int) -> tuple[list[int], list[int]]:
    """Sparse JTP(a,b) = (q^a, q^{b-a}, q^b; q^b) = sum_k (-1)^k q^{b k(k-1)/2 + a k}.

    Terms up to exponent limit, sorted; terms of k and -k that meet (b = 2a)
    are merged, so exponents are distinct and coefficients nonzero.
    """
    terms: dict[int, int] = {}
    for k, step in ((0, 1), (-1, -1)):
        while (e := b * k * (k - 1) // 2 + a * k) <= limit:
            terms[e] = terms.get(e, 0) + (-1 if k % 2 else 1)
            k += step
    exps = sorted(e for e, c in terms.items() if c)
    return exps, [terms[e] for e in exps]


def quintuple_terms(M: int, j: int, limit: int) -> tuple[list[int], list[int]]:
    """Sparse Q(M,j) = (q^j, q^{M-j}, q^M; q^M)(q^{M-2j}, q^{M+2j}; q^{2M}), 1 <= j < M/2.

    By the quintuple product identity (S. Cooper, Int. J. Number Theory 2,
    2006) Q(M,j) = sum_n q^{M n(3n+1)/2} (q^{-3jn} - q^{j(3n+1)}).  Both
    exponents are nonnegative and grow with |n| on each side of n = 0.
    Terms up to exponent limit, sorted, with colliding terms merged, so
    exponents are distinct and coefficients nonzero.
    """
    terms: dict[int, int] = {}
    for n, step in ((0, 1), (-1, -1)):
        while True:
            base = M * n * (3 * n + 1) // 2
            live = False
            for e, c in ((base - 3 * j * n, 1), (base + j * (3 * n + 1), -1)):
                if e <= limit:
                    terms[e] = terms.get(e, 0) + c
                    live = True
            if not live:
                break
            n += step
    exps = sorted(e for e, c in terms.items() if c)
    return exps, [terms[e] for e in exps]


def pentagonal_terms(step: int, limit: int) -> tuple[list[int], list[int]]:
    """Sparse expansion of (q^step; q^step): exponents step*k(3k+-1)/2, signs (-1)^k."""
    return jacobi_triple_terms(step, 3 * step, limit)


def _apply_factor(cur: list, a: int, b: int, delta: int, n: int) -> list:
    """Multiply cur by (q^a;q^b)^delta, truncated to n coefficients."""
    if delta == 0:
        return cur
    reps, divide = abs(delta), delta < 0
    if a == b:
        exps, cofs = pentagonal_terms(b, n - 1)
        for _ in range(reps):
            cur = div_sparse(cur, exps, cofs, n) if divide else mul_sparse(cur, exps, cofs, n)
    else:
        for _ in range(reps):
            for e in range(a, n, b):
                if divide:
                    cur = div_sparse(cur, [0, e], [1, -1], n)
                else:
                    cur = mul_sparse(cur, [0, e], [1, -1], n)
    return cur


@dataclass(frozen=True)
class ExpansionPlan:
    """A spec rewritten as the product `eta_quotient` expands.

    The product is JTP(a,b)^k over (a, b, k) in thetas, with a <= b - a,
    times (q^b;q^b)^d over (b, d) in eulers, times (q^a;q^b)^d over
    (a, b, d) in binomials, which go one binomial at a time, times
    Q(M,j)^k over (M, j, k) in quintuples.  Since JTP(j,M) JTP(M-2j,2M)
    = Q(M,j) (q^{2M};q^{2M}), each atom replaces the thetas JTP(j,M)^k
    and JTP(M-2j,2M)^k, and k is added to the exponent of (q^{2M};q^{2M})
    in eulers.
    """

    thetas: tuple[tuple[int, int, int], ...]
    eulers: tuple[tuple[int, int], ...]
    binomials: tuple[tuple[int, int, int], ...]
    quintuples: tuple[tuple[int, int, int], ...] = ()

    @classmethod
    def of(cls, spec: "EtaQuotientSpec | str") -> "ExpansionPlan":
        """Net the exponents of the spec's factors, pair partners into JTPs,
        then pair JTPs into quintuple products."""
        net: dict[tuple[int, int], int] = {}
        for f in _as_spec(spec).factors:
            net[f.a, f.b] = net.get((f.a, f.b), 0) + f.delta
        thetas: dict[tuple[int, int], int] = {}
        for a, b in list(net):
            if a >= b:
                continue
            d, partner = net[a, b], net.get((b - a, b), 0)
            if b == 2 * a:
                k = d // 2 if d > 0 else -(-d // 2)
                net[a, b] -= 2 * k
            elif d * partner > 0:
                k = _common(d, partner)
                net[a, b] -= k
                net[b - a, b] -= k
            else:
                continue
            if k:
                thetas[min(a, b - a), b] = k
                net[b, b] = net.get((b, b), 0) - k
        # JTP(j,M) JTP(M-2j,2M) = Q(M,j) (q^{2M};q^{2M})
        quintuples = []
        for j, M in list(thetas):
            k, partner = thetas[j, M], thetas.get((M - 2 * j, 2 * M), 0)
            if 2 * j < M and k * partner > 0:
                k = _common(k, partner)
                thetas[j, M] -= k
                thetas[M - 2 * j, 2 * M] -= k
                quintuples.append((M, j, k))
                net[2 * M, 2 * M] = net.get((2 * M, 2 * M), 0) + k
        return cls(
            thetas=tuple((a, b, k) for (a, b), k in thetas.items() if k),
            eulers=tuple((b, d) for (a, b), d in net.items() if a == b and d),
            binomials=tuple((a, b, d) for (a, b), d in net.items() if a != b and d),
            quintuples=tuple(quintuples),
        )


def _common(d: int, e: int) -> int:
    """The part two exponents of one sign have in common: the one nearer zero."""
    return min(d, e) if d > 0 else max(d, e)


def eta_quotient(spec: "EtaQuotientSpec | str", precision: int) -> Series:
    """Exact truncated expansion of a product of (q^a;q^b)^delta factors."""
    _check_precision(precision)
    plan = ExpansionPlan.of(spec)
    n = precision + 1
    bases = [(*quintuple_terms(M, j, precision), k) for M, j, k in plan.quintuples]
    bases += [(*jacobi_triple_terms(a, b, precision), k) for a, b, k in plan.thetas]
    bases += [(*pentagonal_terms(b, precision), d) for b, d in plan.eulers]
    # the seed is a power computed outright; f^1 is f itself, and f^-1
    # costs less as a division than as a power
    seed = max(bases, key=lambda base: (abs(base[2]), base[2], len(base[0])), default=None)
    if seed is not None and seed[2] != -1:
        bases.remove(seed)
        cur = pow_sparse(*seed, n)
    else:
        cur = [1] + [0] * precision
    for exps, cofs, k in bases:
        for _ in range(abs(k)):
            cur = div_sparse(cur, exps, cofs, n) if k < 0 else mul_sparse(cur, exps, cofs, n)
    for a, b, d in plan.binomials:
        cur = _apply_factor(cur, a, b, d, n)
    return Series(cur)


def pochhammer(a: int, b: int, precision: int) -> Series:
    """(q^a; q^b) = prod_{k>=0} (1 - q^{a+kb}), truncated."""
    if a < 1 or b < 1:
        raise InvalidParameter(f"pochhammer needs a >= 1 and b >= 1, got ({a}, {b})")
    return eta_quotient(EtaQuotientSpec((PochhammerFactor(a, b, 1),)), precision)


def _check_quintuple(M: int, j: int) -> None:
    if M < 3:
        raise InvalidParameter(f"need M >= 3, got {M}")
    if not 1 <= j or not 2 * j < M:
        raise InvalidParameter(f"need 1 <= j < M/2, got j={j}, M={M}")


def quintuple_product(M: int, j: int, precision: int) -> Series:
    """(q^j, q^{M-j}, q^M; q^M) (q^{M-2j}, q^{M+2j}; q^{2M}), truncated."""
    _check_quintuple(M, j)
    spec = EtaQuotientSpec(
        (
            PochhammerFactor(j, M),
            PochhammerFactor(M - j, M),
            PochhammerFactor(M, M),
            PochhammerFactor(M - 2 * j, 2 * M),
            PochhammerFactor(M + 2 * j, 2 * M),
        )
    )
    return eta_quotient(spec, precision)


# ----------------------------------------------------------------------
# Theta series
# ----------------------------------------------------------------------

def theta_alt_squares(precision: int) -> Series:
    """sum_{n in Z} (-1)^n q^{n^2} = 1 + 2 sum_{n>=1} (-1)^n q^{n^2}."""
    _check_precision(precision)
    terms = [(0, 1)]
    n = 1
    while n * n <= precision:
        terms.append((n * n, -2 if n % 2 else 2))
        n += 1
    return Series.from_terms(terms, precision)


def theta_triangular(precision: int) -> Series:
    """sum_{n>=0} q^{n(n+1)/2}, the triangular-number indicator."""
    _check_precision(precision)
    terms = []
    n = 0
    while n * (n + 1) // 2 <= precision:
        terms.append((n * (n + 1) // 2, 1))
        n += 1
    return Series.from_terms(terms, precision)


def theta_squares(precision: int) -> Series:
    """sum_{n in Z} q^{n^2} = 1 + 2 sum_{n>=1} q^{n^2}."""
    _check_precision(precision)
    terms = [(0, 1)]
    n = 1
    while n * n <= precision:
        terms.append((n * n, 2))
        n += 1
    return Series.from_terms(terms, precision)


_WEIGHT_MOD_6 = {1: 1, 3: -2, 5: 1}


def theta_weighted(precision: int) -> Series:
    """sum over odd n >= 1 of w(n) q^{(n^2-1)/8} with w = 1, -2, 1 for n = 1, 3, 5 mod 6.

    Folding +-n (equal weights) absorbs the 1/2 in the two-sided form.
    """
    _check_precision(precision)
    terms = []
    n = 1
    while (n * n - 1) // 8 <= precision:
        terms.append(((n * n - 1) // 8, _WEIGHT_MOD_6[n % 6]))
        n += 2
    return Series.from_terms(terms, precision)


def borwein_a(precision: int) -> Series:
    """Lattice sum over m^2 + mn + n^2 <= T, counting representations."""
    _check_precision(precision)
    T = precision
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


def borwein_b(precision: int) -> Series:
    """(q;q)^3 / (q^3;q^3)."""
    return eta_quotient("1^3 3^-1", precision)


def borwein_c3(precision: int) -> Series:
    """The third cubic theta function with q -> q^3 applied: 3q (q^9;q^9)^3 / (q^3;q^3).

    Only this substituted form exists here; the unsubstituted function has
    exponents in 1/3 + Z, which this integral-exponent carrier cannot hold.
    """
    return Series([3 * c for c in eta_quotient("9^3 3^-1", precision).coefficients]).shift(1)


def lambert_cubic(precision: int) -> Series:
    """1 + 6 sum_{n>=1} q^{3n} (1-q^{3n}) / (1-q^{9n}), each term expanded exactly."""
    _check_precision(precision)
    T = precision
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


def theta_threevar(precision: int) -> Series:
    """Zero-sum three-variable theta: exponents 3(m1^2+m1*m2+m2^2) - 2*m1 - m2.

    This is the m1+m2+m3 = 0 sublattice sum with m3 eliminated; the
    exponent is a nonnegative integer on all of it.
    """
    _check_precision(precision)
    T = precision
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
