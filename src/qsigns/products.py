"""Constructors for infinite products and theta series.

Everything here returns an exact truncated :class:`~qsigns.series.Series`.
`eta_quotient` follows the recipe `ExpansionPlan.of` writes for a spec.
Its accumulator is a series in q^d, kept as its T/d + 1 coefficients,
where d is the gcd of the steps of the series applied so far.  It raises
the plan's seed to its power with `pow_sparse` (Miller's recurrence, or
`mul_sparse` passes onto the seed where those are priced lower) in its own
step, or else starts from 1 in the step of the first power.  It then
multiplies or divides in each power once per unit, in the plan's
order; a power |k| above the length of its pass is instead raised once
with `pow_sparse` and multiplied in as one sparse series.  All the
passes of a positive power are one `mul_sparse` call, which keeps the
accumulator packed from pass to pass; into a finer lattice its first
pass writes straight into it, with a stride.  A power in a coarser
q^{d'} runs at T/d + 1 coefficients, and a division into a finer
lattice spreads the accumulator onto it; `div_sparse` then divides in
the divisor's own q^{d'}.  At the end it spreads the result onto q and
applies the binomials one at a time by slice arithmetic
(`_apply_factor`), with no kernel.  `qsigns.plan` holds the spec
grammar, in `FORMS` the sparse closed forms, and every price.

`eta_quotients` expands several specs at one precision and shares their
work, in the run order `plan._schedule` picks.  A spec either goes to
`eta_quotient` or starts from an earlier result times the powers of a
plan that only multiplies; that plan's seed is then an ordinary power,
and the pass loop `_apply_powers`, which `eta_quotient` runs too,
multiplies it all in.  A result is kept only while a later spec still
starts from it.

The Borweins' cubic theta functions a(q) and c~(q) = (q^3;q^3)^3/(q;q)
are one lattice sum, sum_{(m,n) in Z^2} q^{m^2+mn+n^2+s(m+n)} at s = 0
and (a third of it) at s = 1, which `_lattice` walks row by row, and
b(q) = (q;q)^3/(q^3;q^3) is a(q^3) - c(q^3).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Iterator
from operator import add, sub

from ._backend import div_sparse, mul_sparse, pow_sparse, theta_terms
from .plan import (
    FORMS,
    EtaQuotientSpec,
    ExpansionPlan,
    PochhammerFactor,
    _as_spec,
    _check_quintuple,
    _schedule,
    quintuple_terms,
)
from .series import Series, _check_precision

__all__ = [
    "PochhammerFactor",
    "EtaQuotientSpec",
    "ExpansionPlan",
    "pochhammer",
    "eta_quotient",
    "eta_quotients",
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
    powers = _terms(plan.powers, T)
    # the accumulator cur holds the T // d + 1 coefficients of a series in q^d
    if plan.seed:
        form, params, k = plan.seed
        exps, cofs = FORMS[form](*params, T)
        d = math.gcd(*exps) or 1
        cur = pow_sparse([e // d for e in exps], cofs, k, T // d + 1)
    else:
        d = (math.gcd(*powers[0][0]) or 1) if powers else 1
        cur = [1] + [0] * (T // d)
    cur = _apply_powers(cur, d, powers, T)
    for a, b, delta in plan.binomials:
        cur = _apply_factor(cur, a, b, delta, T + 1)
    return Series(cur)


def _terms(powers, T: int) -> list:
    """Each (form, params, k) of a plan as (exponents, coefficients, k), its terms up to q^T."""
    return [(*FORMS[form](*params, T), k) for form, params, k in powers]


def _apply_powers(cur: list, d: int, powers: list, T: int) -> list:
    """Multiply or divide cur, a series in q^d, by each (exps, cofs, k) of powers; the T + 1 coefficients in q."""
    for exps, cofs, k in powers:
        g = math.gcd(d, *exps)
        exps, m = [e // g for e in exps], T // g + 1
        if abs(k) > m:
            # more passes than coefficients: raise the power once, and multiply it in
            power = pow_sparse(exps, cofs, k, m)
            exps = [e for e, c in enumerate(power) if c]
            cofs, k = [power[e] for e in exps], 1
        if k < 0:
            cur = _spread(cur, d // g, m)
            for _ in range(-k):
                cur = div_sparse(cur, exps, cofs, m)
        else:
            cur = mul_sparse(cur, exps, cofs, m, d // g, k)
        d = g
    return _spread(cur, d, T + 1)


def eta_quotients(specs: "Iterable[EtaQuotientSpec | str]", precision: int) -> Iterator[tuple[int, Series]]:
    """Expand several specs at one precision, yielding (index, series) pairs in the order they run.

    Each series equals `eta_quotient(specs[index], precision)`.  A spec
    that is an earlier one times sparse series may start from that one's
    result instead; `plan._schedule` says when.
    """
    _check_precision(precision)
    specs = tuple(map(_as_spec, specs))
    steps = _schedule(specs)
    uses = Counter(start for _, start, _ in steps if start is not None)
    kept: dict = {}
    for i, start, powers in steps:
        if start is None:
            series = eta_quotient(specs[i], precision)
        else:
            cur = list(kept[start].coefficients)
            series = Series(_apply_powers(cur, 1, _terms(powers, precision), precision))
            uses[start] -= 1
            if not uses[start]:
                del kept[start]
        if uses[i]:
            kept[i] = series
        yield i, series


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


def theta_weighted(precision: int) -> Series:
    """sum over odd n >= 1 of w(n) q^{(n^2-1)/8} with w = 1, -2, 1 for n = 1, 3, 5 mod 6.

    `theta_terms` makes it from two sums over k in Z.  The sum
    (9, 3, 0, 1) is n = 6k+1 with weight 1, which meets each odd n = +-1
    mod 6 once, as |n|; the sum (9, 9, 1, 1) with c = -1 is n = 6k+3 with
    weight -1, which meets each n = 3 mod 6 twice, once from each sign.
    """
    _check_precision(precision)
    return Series.from_terms(zip(*theta_terms(((9, 3, 0, 1, 1), (9, 9, 1, 1, -1)), precision)), precision)


def _lattice(s: int, T: int) -> list:
    """The T + 1 coefficients of sum_{(m,n) in Z^2} q^{m^2+mn+n^2+s(m+n)}, for s = 0 or 1.

    Twice the exponent is (m+n+s)^2 + m^2 + n^2 - s, so none is negative.
    Four times it is (2n+m+s)^2 + 3m^2 + 2sm - s^2, so in row m the
    exponent is at most T exactly when (2n+m+s)^2 <= D = 4T - 3m^2 - 2sm
    + s^2: the row walks the n with |2n+m+s| <= isqrt(D), and from n to
    n + 1 its exponent steps by 2n + 1 + m + s.  A row with D < 0 holds
    no term.  For |m| >= 1, 3(|m|-1)^2 <= 3m^2 + 2sm - s^2, so every row
    with D >= 0 has |m| <= isqrt(4T // 3) + 1.
    """
    out = [0] * (T + 1)
    B = math.isqrt(4 * T // 3) + 1
    for m in range(-B, B + 1):
        D = 4 * T - 3 * m * m - 2 * s * m + s * s
        if D < 0:
            continue
        r = math.isqrt(D)
        lo, hi = -((r + m + s) // 2), (r - m - s) // 2
        e = m * m + m * lo + lo * lo + s * (m + lo)
        for step in range(2 * lo + 1 + m + s, 2 * hi + 2 + m + s, 2):
            out[e] += 1
            e += step
    return out


def borwein_a(precision: int) -> Series:
    """a(q) = sum_{(m,n) in Z^2} q^{m^2+mn+n^2}, the Borweins' first cubic theta function."""
    _check_precision(precision)
    return Series(_lattice(0, precision))


def borwein_b(precision: int) -> Series:
    """b(q) = (q;q)^3 / (q^3;q^3) = a(q^3) - c(q^3), the Borweins' second cubic theta function.

    The difference is their identity (J. M. and P. B. Borwein, Trans. AMS
    323, 1991), so b(q) comes from the lattice sum, with no expansion.
    """
    return lambert_cubic(precision) - borwein_c3(precision)


def borwein_c3(precision: int) -> Series:
    """The third cubic theta function with q -> q^3 applied: c(q^3) = 3q (q^9;q^9)^3 / (q^3;q^3).

    It is 3q c~(q^3), with c~ = `theta_threevar` a third of the shifted
    lattice sum, so the sum itself sits on the exponents 1 mod 3.  Only
    this substituted form exists here; the unsubstituted function has
    exponents in 1/3 + Z, which this integral-exponent carrier cannot hold.
    """
    _check_precision(precision)
    out = [0] * (precision + 1)
    if precision:
        out[1::3] = _lattice(1, (precision - 1) // 3)
    return Series(out)


def lambert_cubic(precision: int) -> Series:
    """a(q^3) = 1 + 6 sum_{n>=1} q^{3n} (1-q^{3n}) / (1-q^{9n}), the cubic Lambert series.

    It is `borwein_a` to ceil(T/3) in q^3: with floor(T/3) the top
    coefficients would fall off whenever 3 does not divide T.
    """
    _check_precision(precision)
    return borwein_a(-(-precision // 3)).dilate(3, cap=precision)


def theta_threevar(precision: int) -> Series:
    """c~(q) = (q^3;q^3)^3 / (q;q), a third of the lattice sum over m^2+mn+n^2+m+n.

    The map (m, n) -> (n, -m-n-1) keeps the exponent m^2+mn+n^2+m+n,
    has order 3 and fixes no point (that would need 3m = -1), so it
    splits the lattice into orbits of three with one exponent each, and
    every count is divisible by 3.
    """
    _check_precision(precision)
    return Series([c // 3 for c in _lattice(1, precision)])
