"""Constructors for infinite products and theta series.

Everything here returns an exact truncated :class:`~qsigns.series.Series`.
`eta_quotient` follows the recipe `ExpansionPlan.of` writes for a spec.
Its accumulator is a series in q^d, kept as its T/d + 1 coefficients,
where d is the gcd of the steps of the series applied so far.  It raises
the plan's seed to its power with `pow_sparse` (Miller's recurrence, or
packed squaring where that is estimated cheaper) in the seed's own
step, or else starts from 1 in the step of the first power.  It then
multiplies or divides in each power once per unit, in the plan's
order; a power |k| above the length of its pass is instead raised once
with `pow_sparse` and multiplied in as one sparse series.  A power in a
coarser q^{d'} runs at T/d + 1 coefficients, a multiplication into a
finer lattice writes straight into it (`mul_sparse` with a stride),
and a division into one spreads the accumulator onto it; `div_sparse`
then divides in the divisor's own q^{d'}.  At the end it spreads the
result onto q and applies the binomials one at a time by slice
arithmetic (`_apply_factor`), with no kernel.  `qsigns.plan` holds
the spec grammar and, in `FORMS`, the sparse closed forms.
"""

from __future__ import annotations

import math
from operator import add, sub

from ._backend import div_sparse, mul_sparse, pow_sparse
from .plan import (
    FORMS,
    EtaQuotientSpec,
    ExpansionPlan,
    PochhammerFactor,
    quintuple_terms,
)
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
# Product expansion
# ----------------------------------------------------------------------

def _apply_factor(cur: list, a: int, b: int, delta: int, n: int) -> list:
    """Multiply cur, a list of n coefficients, by (q^a;q^b)^delta, truncated to n.

    Each binomial 1 - q^e is one slice subtraction per unit of delta, and
    its inverse 1/(1 - q^e) = prod_{j>=0} (1 + q^(e*2^j)) one slice
    addition per factor below q^n.  To a power |delta| above (n-1)//e,
    the number of multiples of e below q^n, a binomial is multiplied in
    as its truncated binomial series instead, one slice multiply-add per
    term, so that the work does not grow with delta.
    """
    if delta == 0:
        return cur
    cur = list(cur)
    for e in range(a, n, b):
        if abs(delta) > (n - 1) // e:
            # (1 - q^e)^delta = sum_j (-1)^j C(delta, j) q^(e*j), and for
            # delta < 0, (-1)^j C(delta, j) = C(j - delta - 1, j)
            out = list(cur)
            for j in range(1, (n - 1) // e + 1):
                c = (-1) ** j * math.comb(delta, j) if delta > 0 else math.comb(j - delta - 1, j)
                out[e * j:] = map(add, out[e * j:], map(c.__mul__, cur[:n - e * j]))
            cur = out
        elif delta < 0:
            for _ in range(-delta):
                s = e
                while s < n:
                    cur[s:] = map(add, cur[s:], cur[:n - s])
                    s *= 2
        else:
            for _ in range(delta):
                cur[e:] = map(sub, cur[e:], cur[:n - e])
    return cur


def eta_quotient(spec: "EtaQuotientSpec | str", precision: int) -> Series:
    """Exact truncated expansion of a product of (q^a;q^b)^delta factors."""
    _check_precision(precision)
    plan = ExpansionPlan.of(spec)
    T = precision
    powers = [(*FORMS[form](*params, T), k) for form, params, k in plan.powers]
    # the accumulator cur holds the T // d + 1 coefficients of a series in q^d
    if plan.seed:
        form, params, k = plan.seed
        exps, cofs = FORMS[form](*params, T)
        d = math.gcd(*exps) or 1
        cur = pow_sparse([e // d for e in exps], cofs, k, T // d + 1)
    else:
        d = (math.gcd(*powers[0][0]) or 1) if powers else 1
        cur = [1] + [0] * (T // d)
    for exps, cofs, k in powers:
        g = math.gcd(d, *exps)
        exps, m = [e // g for e in exps], T // g + 1
        if abs(k) > m:
            # more passes than coefficients: raise the power once, and multiply it in
            power = pow_sparse(exps, cofs, k, m)
            exps = [e for e, c in enumerate(power) if c]
            cofs, k = [power[e] for e in exps], 1
        if k < 0:
            cur, d = _spread(cur, d // g, m), g
        for _ in range(abs(k)):
            cur = div_sparse(cur, exps, cofs, m) if k < 0 else mul_sparse(cur, exps, cofs, m, d // g)
            d = g
    cur = _spread(cur, d, T + 1)
    for a, b, delta in plan.binomials:
        cur = _apply_factor(cur, a, b, delta, T + 1)
    return Series(cur)


def _spread(cur: list, r: int, m: int) -> list:
    """The series in q^r with coefficients cur, as the m coefficients of a series in q."""
    if r == 1:
        return cur
    out = [0] * m
    out[::r] = cur
    return out


def pochhammer(a: int, b: int, precision: int) -> Series:
    """(q^a; q^b) = prod_{k>=0} (1 - q^{a+kb}), truncated; `PochhammerFactor` checks a, b >= 1."""
    return eta_quotient(EtaQuotientSpec((PochhammerFactor(a, b, 1),)), precision)


def _check_quintuple(M: int, j: int) -> None:
    if M < 3:
        raise InvalidParameter(f"need M >= 3, got {M}")
    if not 1 <= j or not 2 * j < M:
        raise InvalidParameter(f"need 1 <= j < M/2, got j={j}, M={M}")


def quintuple_product(M: int, j: int, precision: int) -> Series:
    """(q^j, q^{M-j}, q^M; q^M) (q^{M-2j}, q^{M+2j}; q^{2M}), truncated.

    It is the sparse series Q(M,j) (`plan.quintuple_terms`), so it needs no plan.
    """
    _check_quintuple(M, j)
    _check_precision(precision)
    return Series.from_terms(zip(*quintuple_terms(M, j, precision)), precision)


# ----------------------------------------------------------------------
# Theta series
# ----------------------------------------------------------------------

def _atom_series(name: str, precision: int) -> Series:
    """The theta atom of that name, undilated, as a series."""
    _check_precision(precision)
    return Series.from_terms(zip(*FORMS[name](1, precision)), precision)


def theta_alt_squares(precision: int) -> Series:
    """phi(-q) = sum_{n in Z} (-1)^n q^{n^2} = 1 + 2 sum_{n>=1} (-1)^n q^{n^2}."""
    return _atom_series("phi(-q)", precision)


def theta_triangular(precision: int) -> Series:
    """psi(q) = sum_{n>=0} q^{n(n+1)/2}, the triangular-number indicator."""
    return _atom_series("psi", precision)


def theta_squares(precision: int) -> Series:
    """phi(q) = sum_{n in Z} q^{n^2} = 1 + 2 sum_{n>=1} q^{n^2}."""
    return _atom_series("phi(q)", precision)


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
