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

The 3- and 5-dissections of (q;q) split its pentagonal series
(q;q) = sum_k (-1)^k q^{k(3k-1)/2} by s = k mod m, for odd m, with s
taken from the window of m integers that starts at -floor((3m-1)/6).
Writing k = s + m*n, piece s is

    (-1)^s q^{s(3s-1)/2} JTP(A_s, 3m^2),    A_s = m(3m + 6s - 1)/2,

and the window is the one where 0 < A_s < 3m^2.  m must be odd: only
then is the sign (-1)^{s+mn} a triple product's (-1)^s (-1)^n, and every
exponent m*n(3mn + 6s - 1)/2 of the triple product a multiple of m, so
that piece s lies on the one residue s(3s-1)/2 mod m.  At m = 5 no piece
lies on residues 3 and 4: 24*k(3k-1)/2 + 1 = (6k-1)^2 is a square, and
squares are 0, 1 or 4 mod 5.

The 3-dissection of (q;q)^3 splits Jacobi's cube
(q;q)^3 = sum_{n>=0} (-1)^n (2n+1) q^{n(n+1)/2} by exponent mod 3.
n(n+1)/2 is 0 mod 3 unless n = 1 mod 3, where it is 1, so there are two
summands.  By Borwein's identity they are (q^3;q^3) a(q^3), with a(q)
the cubic theta function `products.borwein_a`, and -3q (q^9;q^9)^3; the
tests check both.

Every summand, like `assemble`, is a scatter of signed, shifted
closed-form terms, each into the list of its own residue; nothing is
planned or expanded.
"""

from __future__ import annotations

from collections.abc import Iterable

from ._record import Record, setfield
from .plan import _check_quintuple, jacobi_cube_terms, jacobi_triple_terms, quintuple_terms
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

class DissectionComponent(Record):
    """One residue-class term of an m-dissection."""

    __slots__ = ("r", "sign_exp", "offset", "t1", "t2", "period1", "period2")

    def __init__(self, r: int, sign_exp: int, offset: int, t1: int, t2: int,
                 period1: int, period2: int) -> None:
        setfield(self, "r", r)
        setfield(self, "sign_exp", sign_exp)
        setfield(self, "offset", offset)
        setfield(self, "t1", t1)
        setfield(self, "t2", t2)
        setfield(self, "period1", period1)
        setfield(self, "period2", period2)
        if sign_exp not in (0, 1, 2):
            raise InvalidParameter(f"sign exponent must be 0, 1 or 2, got {sign_exp}")
        if offset < 0:
            raise InvalidParameter(f"offset must be nonnegative, got {offset}")
        # reduction never lands on the boundary for valid parameters; a zero
        # t would degenerate a factor to (1;.) = 0
        if not 0 < t1 < period1:
            raise InvalidParameter(f"t1={t1} outside (0, {period1})")
        if not 0 < t2 < period2:
            raise InvalidParameter(f"t2={t2} outside (0, {period2})")
        # the five factors are the quintuple product (period1, j), j below
        if period2 != 2 * period1 or abs(t2 - period1) != 2 * self.j:
            raise InvalidParameter(
                f"(t1={t1}, t2={t2}; {period1}, {period2}) is not a quintuple product"
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


def _residues(M: int, j: int, m: int, rs):
    """(r, sign_exp, offset, t1, t2, P1, P2) of each r in rs, all unchecked.

    The offset L = 7*P1/24 + t1*(t1/P1 - 1)/2 + t2*(t2/P2 - 1)/2 - ref is
    computed as 24*P2*L, which clears every denominator.
    """
    eps = 1 if m % 3 == 1 else -1
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
            raise QSignsError(f"non-integral t for (M={M}, j={j}, m={m}, r={r})")
        t1 = (a // 6 + eps * j * m) % P1
        t2 = (P1 + 2 * j * m + eps * (a // 3)) % P2
        offset, rest = divmod(7 * P1 * P2 + 24 * t1 * (t1 - P1) + 12 * t2 * (t2 - P2) - ref,
                              24 * P2)
        if rest:
            raise QSignsError(f"non-integral offset for (M={M}, j={j}, m={m}, r={r})")
        s = 0 if 6 * M * r <= lo else (1 if 6 * M * r <= hi else 2)
        yield r, s, offset, t1, t2, P1, P2


def quintuple_component(M: int, j: int, m: int, r: int) -> DissectionComponent:
    """The component of residue r in the m-dissection of the (M, j) quintuple product.

    Requires M >= 3, 1 <= j < M/2, m >= 2 not divisible by 3 and 0 <= r < m.
    """
    check_quintuple(M, j, m)
    if not 0 <= r < m:
        raise InvalidParameter(f"residue {r} not in [0, {m})")
    return DissectionComponent(*next(_residues(M, j, m, (r,))))


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

    Each component contributes the terms of the quintuple product
    (period1, j), shifted by its offset and signed: a direct scatter.
    The precision is checked before any terms are made.
    """
    pieces = [(c.sign, c.offset, quintuple_terms, (c.period1, c.j)) for c in components]
    return _scatter(pieces, 1, precision)[0]


def _scatter(pieces, m: int, precision: int) -> list[Series]:
    """The sum of the pieces, as one series of precision + 1 coefficients per residue mod m.

    A piece (c, offset, terms, params) is c q^offset times the sparse
    series terms(*params, precision - offset); each of its terms is
    added straight into the list of its own residue.  The precision is
    checked before any terms are made.
    """
    _check_precision(precision)
    outs = [[0] * (precision + 1) for _ in range(m)]
    for c, offset, terms, params in pieces:
        exps, cofs = terms(*params, precision - offset)
        for e, k in zip(exps, cofs):
            e += offset
            outs[e % m][e] += c * k
    return [Series(out) for out in outs]


def _qq_split(m: int, precision: int) -> list[Series]:
    """The m-dissection of (q;q) for odd m, summand r on residue r: the pentagonal split above."""
    w = (3 * m - 1) // 6
    pieces = [(-1 if s % 2 else 1, s * (3 * s - 1) // 2, jacobi_triple_terms,
               (m * (3 * m + 6 * s - 1) // 2, 3 * m * m)) for s in range(-w, m - w)]
    return _scatter(pieces, m, precision)


# ----------------------------------------------------------------------
# 3-dissections and the classical 5-dissection
# ----------------------------------------------------------------------

def three_dissection_qq(precision: int) -> tuple[Series, Series, Series]:
    """The three signed summands of the 3-dissection of (q;q).

    Summand k is supported on exponents = k (mod 3) and the plain sum of
    the three equals (q;q).  Each summand is a single triple product:
    (q^12,q^15,q^27;q^27), -q (q^6,q^21,q^27;q^27), -q^2 (q^3,q^24,q^27;q^27).
    """
    return tuple(_qq_split(3, precision))


def three_dissection_qq3(precision: int) -> tuple[Series, Series]:
    """The two signed summands of the 3-dissection of (q;q)^3: Jacobi's cube split by residue.

    Summand k is supported on exponents = k (mod 3) and the sum equals
    (q;q)^3.  By Borwein's identity they are (q^3;q^3) a(q^3), with a(q)
    the cubic theta function `products.borwein_a`, and -3q (q^9;q^9)^3.
    """
    return tuple(_scatter([(1, 0, jacobi_cube_terms, (1,))], 3, precision)[:2])


def ramanujan5(precision: int) -> tuple[Series, Series, Series]:
    """The three signed summands of Ramanujan's 5-dissection of (q;q).

    Summand k is supported on exponents = k (mod 5); the sum equals (q;q).
    They are (q^10,q^15;q^25)/(q^5,q^20;q^25) (q^25;q^25), -q (q^25;q^25)
    and -q^2 (q^5,q^20;q^25)/(q^10,q^15;q^25) (q^25;q^25).
    """
    return tuple(_qq_split(5, precision)[:3])
