"""m-dissections of quintuple products, of (q;q) and of (q;q)^3.

The general m-dissection writes the five-factor quintuple product as a
signed sum of m narrower quintuple products, one per residue class: the
component for residue r is

    (-1)^{s(r)} q^{L(r)} (q^{t1}, q^{P1-t1}, q^{P1}; q^{P1}) (q^{t2}, q^{P2-t2}; q^{P2})

with periods P1 = m^2*M and P2 = 2*m^2*M.  The t parameters carry a
sign eps fixed by m mod 3: eps = +1 when m = 1 (mod 3) and eps = -1 when
m = 2 (mod 3).  Then m + eps*(6r - 1) is divisible by 3, and it is even
whenever m is odd, so m*M*(m + eps*(6r - 1)) is divisible by 6 for every
M and r, and t1 and t2 are integers.  `quintuple_component(M, j, m, r)`
computes the component of one residue and is the only place this
arithmetic lives; it is pure arithmetic and expands nothing.  Integral
t's and offsets and nonnegative offsets are still checked, and a failure
raises `QSignsError`; the reassembly checks in the CLI and the tests
compare the result with a direct expansion.  `quintuple_components` is
the tuple of all m components.  (q;q) is the quintuple product
(M=4, j=1), (q, q^3, q^4; q^4)(q^2, q^6; q^8), so `qq_components` is
this general dissection at those parameters, and the prediction of
quotient sign patterns reads `quintuple_component(4, 1, p, r)` residue
by residue.

Offsets are evaluated scaled by 24*P2, which makes every term an
integer, and the sign thresholds are compared after multiplying out
their denominators, so all of it is exact integer arithmetic; no
fractions and no floats anywhere.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain

from .plan import quintuple_terms
from .products import _check_quintuple, eta_quotient, lambert_cubic, pochhammer
from .series import InvalidParameter, QSignsError, Series, _check_precision

__all__ = [
    "DissectionComponent",
    "check_quintuple",
    "quintuple_component",
    "quintuple_components",
    "qq_components",
    "assemble",
    "three_dissection_qq",
    "three_dissection_qq3",
    "ramanujan5",
]

@dataclass(frozen=True)
class DissectionComponent:
    """One residue-class term of an m-dissection."""

    r: int
    sign_exp: int
    offset: int
    t1: int
    t2: int
    period1: int
    period2: int

    def __post_init__(self) -> None:
        if self.sign_exp not in (0, 1, 2):
            raise InvalidParameter(f"sign exponent must be 0, 1 or 2, got {self.sign_exp}")
        if self.offset < 0:
            raise InvalidParameter(f"offset must be nonnegative, got {self.offset}")
        # reduction never lands on the boundary for valid parameters; a zero
        # t would degenerate a factor to (1;.) = 0
        if not 0 < self.t1 < self.period1:
            raise InvalidParameter(f"t1={self.t1} outside (0, {self.period1})")
        if not 0 < self.t2 < self.period2:
            raise InvalidParameter(f"t2={self.t2} outside (0, {self.period2})")
        # the five factors are the quintuple product (period1, j), j below
        if self.period2 != 2 * self.period1 or abs(self.t2 - self.period1) != 2 * self.j:
            raise InvalidParameter(
                f"(t1={self.t1}, t2={self.t2}; {self.period1}, {self.period2}) "
                "is not a quintuple product"
            )

    @property
    def sign(self) -> int:
        return -1 if self.sign_exp % 2 else 1

    @property
    def j(self) -> int:
        """The quintuple parameter: t1 or period1 - t1, whichever is smaller."""
        return min(self.t1, self.period1 - self.t1)


# ----------------------------------------------------------------------
# General quintuple dissection
# ----------------------------------------------------------------------

def _check_modulus(m: int) -> None:
    if m < 2:
        raise InvalidParameter(f"need m >= 2, got {m}")
    if m % 3 == 0:
        raise InvalidParameter(f"modulus must not be divisible by 3, got {m}")


def check_quintuple(M: int, j: int, m: int) -> None:
    """Reject M, j and m that the dissection does not accept; `quintuple_components` also caps m."""
    _check_quintuple(M, j)
    _check_modulus(m)


def quintuple_component(M: int, j: int, m: int, r: int, *, _eps: int = 0) -> DissectionComponent:
    """The component of residue r in the m-dissection of the (M, j) quintuple product.

    Requires M >= 3, 1 <= j < M/2, m >= 2 not divisible by 3, and
    0 <= r < m.  The sign choice is eps = +1 for m = 1 (mod 3) and -1 for
    m = 2 (mod 3).  ``_eps`` forces a choice, for tests that probe the
    other one; a choice that does not suit m raises `QSignsError` or gives
    components that do not reassemble.

    The offset L = 7*P1/24 + t1*(t1/P1 - 1)/2 + t2*(t2/P2 - 1)/2 - ref is
    computed as 24*P2*L, which clears every denominator since P2 = 2*P1
    and P2 = 2*m^2*M.
    """
    check_quintuple(M, j, m)
    if not 0 <= r < m:
        raise InvalidParameter(f"residue {r} not in [0, {m})")
    eps = _eps or (1 if m % 3 == 1 else -1)
    P1 = m * m * M
    P2 = 2 * P1
    a = m * M * (m + eps * (6 * r - 1))
    # t1 needs a divisible by 6 and t2 by 3, so one test covers both
    if a % 6:
        raise QSignsError(f"non-integral t for (M={M}, j={j}, m={m}, r={r}, eps={eps})")
    t1 = (a // 6 + eps * j * m) % P1
    t2 = (P1 + 2 * j * m + eps * (a // 3)) % P2
    ref = 7 * M * P2 + 24 * m * m * j * (j - M) - 12 * m * m * (M * M - 4 * j * j)
    offset, rest = divmod(7 * P1 * P2 + 24 * t1 * (t1 - P1) + 12 * t2 * (t2 - P2) - ref, 24 * P2)
    if rest:
        raise QSignsError(f"non-integral offset for (M={M}, j={j}, m={m}, r={r}, eps={eps})")
    # r <= (k*M - 6j) / (6M), for k = lo and k = hi
    lo, hi = (2 * m + 1, 5 * m + 1) if m % 3 == 1 else (m + 1, 4 * m + 1)
    s = 0 if 6 * M * r <= lo * M - 6 * j else (1 if 6 * M * r <= hi * M - 6 * j else 2)
    # a zero t or a negative offset fails the component's own range checks
    return DissectionComponent(
        r=r, sign_exp=s, offset=offset, t1=t1, t2=t2, period1=P1, period2=P2
    )


def quintuple_components(M: int, j: int, m: int) -> tuple[DissectionComponent, ...]:
    """The m-dissection of the (M, j) quintuple product: its component for each r < m.

    The m components are capped like a precision, before the first is built.
    """
    check_quintuple(M, j, m)
    _check_precision(m, "m")
    # a list first: tuple() of a generator grows by reallocation, and
    # repeated calls then fragment the heap (max RSS climbed ~1 MB over
    # 800 passes of the `dissect` jobs, flat with the list)
    return tuple([quintuple_component(M, j, m, r) for r in range(m)])


# ----------------------------------------------------------------------
# (q;q) = Q(4, 1)
# ----------------------------------------------------------------------

def qq_components(m: int) -> tuple[DissectionComponent, ...]:
    """The m-dissection of (q;q), the quintuple product (4, 1)."""
    return quintuple_components(4, 1, m)


def _component_terms(comp: DissectionComponent, precision: int):
    """The (exponent, coefficient) terms of one component up to q^precision.

    They are the terms of the quintuple product (period1, j) up to
    precision - offset, shifted by the offset and signed; a component whose
    offset is above precision has none.  Lazy, so `Series.from_terms`
    checks the precision before any term is made.
    """
    limit = precision - comp.offset
    if limit < 0:
        return
    exps, cofs = quintuple_terms(comp.period1, comp.j, limit)
    for e, c in zip(exps, cofs):
        yield e + comp.offset, comp.sign * c


def assemble(components: Iterable[DissectionComponent], precision: int) -> Series:
    """Sum the components; equals the target product when the dissection is exact.

    The sum is one sparse scatter of the components' terms, about
    sqrt(precision) per component, into the precision + 1 coefficients.
    One component on its own is its expansion: shifted, signed, truncated.
    """
    return Series.from_terms(
        chain.from_iterable(_component_terms(c, precision) for c in components), precision
    )


# ----------------------------------------------------------------------
# 3-dissections and the classical 5-dissection
# ----------------------------------------------------------------------

def three_dissection_qq(precision: int) -> tuple[Series, Series, Series]:
    """The three signed summands of the 3-dissection of (q;q).

    Summand k is supported on exponents = k (mod 3) and the plain sum of
    the three equals (q;q).  Each summand is a single triple product:
    (q^12,q^15,q^27;q^27), -q (q^6,q^21,q^27;q^27), -q^2 (q^3,q^24,q^27;q^27).
    """
    s0 = eta_quotient("12.27 15.27 27", precision)
    s1 = -eta_quotient("6.27 21.27 27", precision).shift(1)
    s2 = -eta_quotient("3.27 24.27 27", precision).shift(2)
    return s0, s1, s2


def three_dissection_qq3(precision: int) -> tuple[Series, Series]:
    """The two signed summands of the 3-dissection of (q;q)^3.

    (q^3;q^3) times the cubic Lambert series, and -3q (q^9;q^9)^3; their
    sum equals (q;q)^3.
    """
    s0 = pochhammer(3, 3, precision) * lambert_cubic(precision)
    s1 = Series([-3 * c for c in eta_quotient("9^3", precision).coefficients]).shift(1)
    return s0, s1


def ramanujan5(precision: int) -> tuple[Series, Series, Series]:
    """The three signed summands of Ramanujan's 5-dissection of (q;q).

    Summand k is supported on exponents = k (mod 5); the sum equals (q;q).
    """
    s0 = eta_quotient("25 10.25 15.25 5.25^-1 20.25^-1", precision)
    s1 = -pochhammer(25, 25, precision).shift(1)
    s2 = -eta_quotient("25 5.25 20.25 10.25^-1 15.25^-1", precision).shift(2)
    return s0, s1, s2
