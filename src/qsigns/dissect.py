"""m-dissections of quintuple products, of (q;q) and of (q;q)^3.

The general m-dissection writes the five-factor quintuple product as a
signed sum of m narrower quintuple products, one per residue class: the
component for residue r is

    (-1)^{s(r)} q^{L(r)} (q^{t1}, q^{P1-t1}, q^{P1}; q^{P1}) (q^{t2}, q^{P2-t2}; q^{P2})

with periods P1 = m^2*M and P2 = 2*m^2*M.  The t parameters carry a
sign eps = +1 when m = 1 (mod 3) and -1 when m = 2 (mod 3).  Then
m + eps*(6r - 1) is divisible by 3, and even whenever m is odd, so
m*M*(m + eps*(6r - 1)) is divisible by 6 and t1 and t2 are integers.
`_residues` is the only place this arithmetic lives: exact integers,
no expansion, and `QSignsError` on a non-integral t or offset.  Each
dissection is validated once: `quintuple_components` checks M, j and m
and caps m, then each component checks its own ranges.  (q;q) is the
quintuple product (4, 1): `qq_components` and the quotient sign
predictions read the dissection there.
`assemble` is a direct scatter of the components' terms, which the CLI
and the tests compare with a direct expansion.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

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

def check_quintuple(M: int, j: int, m: int) -> None:
    """Reject M, j and m that the dissection does not accept; `quintuple_components` also caps m."""
    _check_quintuple(M, j)
    if m < 2:
        raise InvalidParameter(f"need m >= 2, got {m}")
    if m % 3 == 0:
        raise InvalidParameter(f"modulus must not be divisible by 3, got {m}")


def _residues(M: int, j: int, m: int, rs, eps: int = 0):
    """(r, sign_exp, offset, t1, t2, P1, P2) of each r in rs, all unchecked.

    The offset L = 7*P1/24 + t1*(t1/P1 - 1)/2 + t2*(t2/P2 - 1)/2 - ref is
    computed as 24*P2*L, which clears every denominator.
    """
    eps = eps or (1 if m % 3 == 1 else -1)
    P1 = m * m * M
    P2 = 2 * P1
    ref = 7 * M * P2 + 24 * m * m * j * (j - M) - 12 * m * m * (M * M - 4 * j * j)
    # s counts the bounds that 6M*r passes
    k = 2 * m if m % 3 == 1 else m
    lo, hi = (k + 1) * M - 6 * j, (k + 3 * m + 1) * M - 6 * j
    for r in rs:
        a = m * M * (m + eps * (6 * r - 1))
        # t1 needs a divisible by 6 and t2 by 3, so one test covers both
        if a % 6:
            raise QSignsError(f"non-integral t for (M={M}, j={j}, m={m}, r={r}, eps={eps})")
        t1 = (a // 6 + eps * j * m) % P1
        t2 = (P1 + 2 * j * m + eps * (a // 3)) % P2
        offset, rest = divmod(7 * P1 * P2 + 24 * t1 * (t1 - P1) + 12 * t2 * (t2 - P2) - ref,
                              24 * P2)
        if rest:
            raise QSignsError(f"non-integral offset for (M={M}, j={j}, m={m}, r={r}, eps={eps})")
        s = 0 if 6 * M * r <= lo else (1 if 6 * M * r <= hi else 2)
        yield r, s, offset, t1, t2, P1, P2


def quintuple_component(M: int, j: int, m: int, r: int, *, _eps: int = 0) -> DissectionComponent:
    """The component of residue r in the m-dissection of the (M, j) quintuple product.

    Requires M >= 3, 1 <= j < M/2, m >= 2 not divisible by 3 and 0 <= r < m.
    ``_eps`` forces the sign choice, for tests; one that does not suit m
    raises `QSignsError` or gives components that do not reassemble.
    """
    check_quintuple(M, j, m)
    if not 0 <= r < m:
        raise InvalidParameter(f"residue {r} not in [0, {m})")
    return DissectionComponent(*next(_residues(M, j, m, (r,), _eps)))


def quintuple_components(M: int, j: int, m: int) -> tuple[DissectionComponent, ...]:
    """The m-dissection of the (M, j) quintuple product: its component for each r < m.

    M, j and m are checked and m capped once, before any component is built.
    """
    check_quintuple(M, j, m)
    _check_precision(m, "m")
    # tuple() of a generator grows by reallocation and fragments the heap
    return tuple([DissectionComponent(*row) for row in _residues(M, j, m, range(m))])


# ----------------------------------------------------------------------
# (q;q) = Q(4, 1)
# ----------------------------------------------------------------------

def qq_components(m: int) -> tuple[DissectionComponent, ...]:
    """The m-dissection of (q;q), the quintuple product (4, 1)."""
    return quintuple_components(4, 1, m)


def assemble(components: Iterable[DissectionComponent], precision: int) -> Series:
    """Sum the components; equals the target product when the dissection is exact.

    The precision is checked before anything is allocated.  Then the
    terms of each component, those of the quintuple product (period1, j)
    up to precision - offset, are shifted, signed and added straight into
    one list of precision + 1 coefficients: a direct scatter.
    """
    _check_precision(precision)
    out = [0] * (precision + 1)
    for c in components:
        offset, sign = c.offset, c.sign
        exps, cofs = quintuple_terms(c.period1, c.j, precision - offset)
        for e, k in zip(exps, cofs):
            out[e + offset] += sign * k
    return Series(out)


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
