"""Sign-pattern prediction, detection, verification and census.

The central object is a :class:`SignPattern`: a modulus, one sign class
per residue, and an onset N meaning the pattern is asserted for all
n > N (N = -1 covers every n >= 0).  Patterns come from three places:

* `predict_quotient_pattern(p, i)` derives the pattern of
  (q^i;q^i)/(q^p;q^p) for prime p > 3, together with the sharp onset
  bound, from the offset and sign of each residue's component in the
  p-dissection of (q;q), the quintuple product (4, 1);
* `pattern_catalog()` lists fixed quotients whose patterns follow from
  theta-series dissections;
* `detect_pattern` classifies an expansion's tail empirically; its
  onset is the last violation `verify_pattern` finds, so it follows the
  same convention as the predictions.

The proven patterns (the predictions and both catalog families) follow
one rule.  The quotient is a sum of pieces +-q^e F(q^m), m the modulus,
each F a series with positive coefficients from its constant term on.
Residue class e mod m then takes the sign of the pieces landing on it,
which must agree, and is zero when no piece lands there; every class is
signed from its least exponent e on, so the onset is the largest least
exponent minus m.  `_signed_pieces` applies it.

`verify_pattern` checks any pattern against an exact expansion and
reports every violation, and `sign_census` tabulates coefficient signs
per residue class.
"""

from __future__ import annotations

import enum
from itertools import repeat
from operator import gt, not_, sub

from ._record import Record, setfield
from .dissect import _residues
from .plan import EtaQuotientSpec
from .series import MAX_PRECISION, BeyondPrecision, InvalidParameter, QSignsError, Series

__all__ = [
    "SignClass",
    "SignPattern",
    "PatternReport",
    "SignCertificate",
    "CatalogCase",
    "CorpusEntry",
    "predict_quotient_pattern",
    "verify_pattern",
    "detect_pattern",
    "sign_census",
    "pattern_catalog",
    "corpus",
    "vanishing_predicate",
]


class SignClass(enum.Enum):
    """Predicted behaviour of coefficients in one residue class."""

    POS = "+"
    NEG = "-"
    ZERO = "0"
    MIXED = "?"

    @classmethod
    def from_symbol(cls, symbol: str) -> "SignClass":
        for member in cls:
            if member.value == symbol:
                return member
        raise InvalidParameter(f"unknown sign class symbol {symbol!r}")

    def matches(self, sign: int) -> bool:
        if self is SignClass.POS:
            return sign > 0
        if self is SignClass.NEG:
            return sign < 0
        if self is SignClass.ZERO:
            return sign == 0
        return True


class SignPattern(Record):
    """Per-residue sign classes mod ``modulus``, asserted for all n > onset."""

    __slots__ = ("modulus", "classes", "onset")

    def __init__(self, modulus: int, classes: tuple[SignClass, ...], onset: int) -> None:
        if modulus < 1:
            raise InvalidParameter(f"modulus must be positive, got {modulus}")
        if len(classes) != modulus:
            raise InvalidParameter(f"need {modulus} classes, got {len(classes)}")
        if onset < -1:
            raise InvalidParameter(f"onset must be >= -1, got {onset}")
        setfield(self, "modulus", modulus)
        setfield(self, "classes", classes)
        setfield(self, "onset", onset)

    @classmethod
    def from_string(cls, classes: str, onset: int = -1) -> "SignPattern":
        return cls(len(classes), tuple(SignClass.from_symbol(c) for c in classes), onset)

    @property
    def class_string(self) -> str:
        return "".join(c.value for c in self.classes)


class PatternReport(Record):
    """Outcome of checking a pattern against an exact expansion."""

    __slots__ = ("pattern", "horizon", "violations")

    def __init__(self, pattern: SignPattern, horizon: int,
                 violations: tuple[tuple[int, SignClass, int], ...]) -> None:
        setfield(self, "pattern", pattern)
        setfield(self, "horizon", horizon)
        setfield(self, "violations", violations)

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def first_violation(self) -> tuple[int, SignClass, int] | None:
        return self.violations[0] if self.violations else None


class SignCertificate(Record):
    """Everything behind a predicted quotient pattern for (q^i;q^i)/(q^p;q^p).

    ``offsets`` and ``sign_exponents`` are the dissection data per
    0 <= r < p, ``residue_map`` sends r to i(6r^2+r) mod p, and ``onset``
    is the raw bound (it may go below -1; the attached pattern clamps it).
    """

    __slots__ = ("p", "i", "offsets", "sign_exponents", "residue_map", "onset", "pattern")

    def __init__(self, p: int, i: int, offsets: tuple[int, ...], sign_exponents: tuple[int, ...],
                 residue_map: tuple[int, ...], onset: int, pattern: SignPattern) -> None:
        setfield(self, "p", p)
        setfield(self, "i", i)
        setfield(self, "offsets", offsets)
        setfield(self, "sign_exponents", sign_exponents)
        setfield(self, "residue_map", residue_map)
        setfield(self, "onset", onset)
        setfield(self, "pattern", pattern)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _signed_pieces(modulus: int, pieces) -> tuple[tuple[SignClass, ...], int]:
    """Sign classes and raw onset of a sum of pieces sign*q^e*F(q^modulus).

    ``pieces`` holds (e, sign) pairs with sign +1 or -1; each F has
    positive coefficients.  Residue e mod modulus takes the sign of its
    pieces (ZERO when none lands there), and the raw onset is the largest
    least exponent over the attained residues minus the modulus.  Two
    pieces of opposite sign on one residue raise `QSignsError`.
    """
    classes = [SignClass.ZERO] * modulus
    least: dict[int, int] = {}
    for e, sign in pieces:
        rho = e % modulus
        cls = SignClass.POS if sign > 0 else SignClass.NEG
        if classes[rho] not in (SignClass.ZERO, cls):
            raise QSignsError(f"sign clash on residue {rho} mod {modulus}")
        classes[rho] = cls
        least[rho] = min(e, least.get(rho, e))
    return tuple(classes), max(least.values()) - modulus


def predict_quotient_pattern(p: int, i: int) -> SignCertificate:
    """Predict the sign pattern of (q^i;q^i)/(q^p;q^p) mod p with its onset.

    Residue i(6r^2+r) mod p is positive or negative according to the sign
    exponent of r in the p-dissection of (q;q); residues hit by no r are
    exactly zero.  The onset is max over attained residues of the least
    i*offset(r) landing there, minus p.  p is capped like a precision,
    before the primality test runs, and the offsets and sign exponents
    come straight from the dissection arithmetic: no component is built.
    """
    if p > MAX_PRECISION:
        raise InvalidParameter(f"p = {p} exceeds the limit MAX_PRECISION = {MAX_PRECISION}")
    if p <= 3 or not _is_prime(p):
        raise InvalidParameter(f"p must be a prime > 3, got {p}")
    if i <= 1:
        raise InvalidParameter(f"i must be an integer > 1, got {i}")
    if i % p == 0:
        raise InvalidParameter(f"i must not be divisible by p, got i={i}, p={p}")

    residue_map = tuple((i * (6 * r * r + r)) % p for r in range(p))
    offsets, sign_exponents = [], []
    for r, s, offset, *_ in _residues(4, 1, p, range(p)):
        # L(r) >= 0 and i*L(r) = i(6r^2+r) (mod p)
        if offset < 0 or (i * offset) % p != residue_map[r]:
            raise QSignsError(f"bad offset {offset} at r={r} for (p={p}, i={i})")
        offsets.append(offset)
        sign_exponents.append(s)
    pieces = ((i * L, (-1) ** s) for L, s in zip(offsets, sign_exponents))
    classes, onset = _signed_pieces(p, pieces)
    pattern = SignPattern(p, classes, max(onset, -1))
    return SignCertificate(
        p=p,
        i=i,
        offsets=tuple(offsets),
        sign_exponents=tuple(sign_exponents),
        residue_map=residue_map,
        onset=onset,
        pattern=pattern,
    )


# whether a whole residue window of coefficients has the class's sign
_holds = {
    SignClass.POS: lambda window: min(window) > 0,
    SignClass.NEG: lambda window: max(window) < 0,
    SignClass.ZERO: lambda window: not any(window),
    SignClass.MIXED: lambda window: True,
}


def _check_horizon(series: Series, horizon: int) -> None:
    if horizon > series.precision:
        raise BeyondPrecision(f"horizon {horizon} beyond series precision {series.precision}")


def verify_pattern(series: Series, pattern: SignPattern, horizon: int) -> PatternReport:
    """Check every coefficient sign in (onset, horizon] against the pattern.

    Each residue class is checked whole, and walked term by term only
    when it fails, to list its violations.
    """
    _check_horizon(series, horizon)
    if horizon < 0:
        raise InvalidParameter(f"horizon must be nonnegative, got {horizon}")
    cs = series.coefficients
    m = pattern.modulus
    start = max(0, pattern.onset + 1)
    violations = []
    for r, cls in enumerate(pattern.classes):
        first = start + (r - start) % m
        window = cs[first:horizon + 1:m]
        if not window or _holds[cls](window):
            continue
        for n, c in zip(range(first, horizon + 1, m), window):
            sign = (c > 0) - (c < 0)
            if not cls.matches(sign):
                violations.append((n, cls, sign))
    violations.sort(key=lambda v: v[0])
    return PatternReport(pattern=pattern, horizon=horizon, violations=tuple(violations))


def detect_pattern(series: Series, modulus: int, horizon: int) -> SignPattern:
    """Empirically classify each residue class up to the horizon.

    A residue is MIXED when both strict signs occur in its tail window
    (exponents above horizon/2, or its last exponent when none is);
    otherwise it gets the nonzero sign seen there (ZERO when the window is
    all zeros).  The onset is the largest exponent `verify_pattern` lists
    as violating its class, or -1 when it lists none, as `SignPattern`
    defines it, so the estimate always verifies against the same
    expansion.  It remains an estimate: nothing beyond the horizon is
    claimed.
    """
    _check_horizon(series, horizon)
    if modulus < 1:
        raise InvalidParameter(f"modulus must be positive, got {modulus}")
    if horizon + 1 < modulus:
        raise InvalidParameter(
            f"horizon {horizon} leaves residue classes of modulus {modulus} empty"
        )
    cs = series.coefficients
    tail = horizon // 2 + 1
    classes = []
    for r in range(modulus):
        window = cs[tail + (r - tail) % modulus:horizon + 1:modulus]
        if not window:
            window = [cs[horizon - (horizon - r) % modulus]]
        hi, lo = max(window), min(window)
        classes.append(SignClass.MIXED if hi > 0 > lo else SignClass.POS if hi > 0
                       else SignClass.NEG if lo < 0 else SignClass.ZERO)
    pattern = SignPattern(modulus, tuple(classes), -1)
    violations = verify_pattern(series, pattern, horizon).violations
    return SignPattern(modulus, pattern.classes, violations[-1][0] if violations else -1)


def sign_census(
    series: Series, modulus: int, terms_per_class: int
) -> list[tuple[int, int, int]]:
    """Count (negative, zero, positive) coefficients per residue class.

    Residue r scans the ``terms_per_class`` exponents r, r+m, ...,
    r+(K-1)m, so the series must reach m*K - 1.  Zeros and positives are
    counted by C-level passes, with a Python step per class when K is at
    least m or 256 and per chunk of m coefficients otherwise.
    """
    if modulus < 1 or terms_per_class < 1:
        raise InvalidParameter("modulus and terms_per_class must be positive")
    need = modulus * terms_per_class - 1
    if series.precision < need:
        raise BeyondPrecision(
            f"census needs precision {need}, series has {series.precision}"
        )
    cs = series.coefficients[:need + 1]
    K = terms_per_class
    if K < min(modulus, 256):
        # Many short classes.  Chunk k of a byte string of flags, read as one
        # integer, holds the flag of coefficient r + k*m in byte r, so the
        # sum of the K chunks counts class r in byte r; K < 256 keeps every
        # count within its byte.
        zero, pos = (
            sum(int.from_bytes(flags[k:k + modulus], "little") for k in range(0, need + 1, modulus))
            .to_bytes(modulus, "little")
            for flags in (bytes(map(not_, cs)), bytes(map(gt, cs, repeat(0, need + 1))))
        )
    else:
        rows = [cs[r::modulus] for r in range(modulus)]
        zero = [row.count(0) for row in rows]
        pos = [bytes(map(gt, row, repeat(0, K))).count(1) for row in rows]
    return list(zip(map(sub, map(sub, repeat(K, modulus), zero), pos), zero, pos))


# ----------------------------------------------------------------------
# Catalog of fixed quotients with proven patterns
# ----------------------------------------------------------------------

class CatalogCase(Record):
    """A quotient with a known pattern: spec, pattern, and raw parameters (a fresh {} by default)."""

    __slots__ = ("case_id", "spec", "pattern", "params")

    def __init__(self, case_id: str, spec: EtaQuotientSpec, pattern: SignPattern,
                 params: dict | None = None) -> None:
        setfield(self, "case_id", case_id)
        setfield(self, "spec", spec)
        setfield(self, "pattern", pattern)
        setfield(self, "params", {} if params is None else params)


def _family_case(family: str, p: int, spec: str, modulus: int, pieces) -> CatalogCase:
    classes, raw = _signed_pieces(modulus, pieces)
    return CatalogCase(
        case_id=spec,
        spec=EtaQuotientSpec.parse(spec),
        pattern=SignPattern(modulus, classes, max(raw, -1)),
        params={"family": family, "p": p, "raw_onset": raw},
    )


def _triangular_case(p: int) -> CatalogCase:
    # psi(q)/(q^p;q^p): one positive piece q^{r(r+1)/2} per r < p
    pieces = [(r * (r + 1) // 2, 1) for r in range(p)]
    return _family_case("triangular", p, f"2^2 1^-1 {p}^-1", p, pieces)


def _alt_squares_case(p: int) -> CatalogCase:
    # phi(-q)/(q^{4p};q^{4p}): one piece (-1)^r q^{r^2} per r < 4p
    pieces = [(r * r, (-1) ** r) for r in range(4 * p)]
    return _family_case("alt-squares", p, f"1^2 2^-1 {4 * p}^-1", 4 * p, pieces)


def _fixed_case(spec: str, classes: str) -> CatalogCase:
    return CatalogCase(
        case_id=spec,
        spec=EtaQuotientSpec.parse(spec),
        pattern=SignPattern.from_string(classes, onset=0),
        params={"family": "fixed"},
    )


def pattern_catalog() -> list[CatalogCase]:
    """All catalogued quotients with their proven patterns and onsets."""
    cases = [_triangular_case(p) for p in (3, 5, 7)]
    cases += [_alt_squares_case(p) for p in (1, 3, 5, 7)]
    cases += [
        _fixed_case("1^3 3^-2", "+-0"),
        _fixed_case("1^2 2^-1 3^-2", "+-0"),
        _fixed_case("1^4 2^-2 4^-1", "+-+0"),
        _fixed_case("2^10 1^-4 4^-5", "+++0"),
        _fixed_case("1^2 5^-3", "+--++"),
        _fixed_case("1^9 3^-9", "+-+--+0-+"),
        _fixed_case("1^9 3^-11", "+-+--+--+"),
        _fixed_case("1^9 3^-12", "+-+0-+0-+"),
        _fixed_case("1^9 3^-13", "+-+"),
    ]
    return cases


# ----------------------------------------------------------------------
# Empirical corpus
# ----------------------------------------------------------------------

class CorpusEntry(Record):
    """A named product with an empirically verified pattern and horizon."""

    __slots__ = ("name", "spec", "pattern", "horizon")

    def __init__(self, name: str, spec: EtaQuotientSpec, pattern: SignPattern, horizon: int) -> None:
        setfield(self, "name", name)
        setfield(self, "spec", spec)
        setfield(self, "pattern", pattern)
        setfield(self, "horizon", horizon)


# (name, spec, classes, onset, horizon).  Onsets below were read off the
# exact expansions once and frozen; the test suite re-derives them.
# Products with negated arguments use (-x; q) = (x^2; q^2)/(x; q) to stay
# inside the (a, b, delta) grammar.
_CORPUS = (
    ("period8-quartic", "1^4 2^2 4^-2", "+-0+--0+", 0, 5000),
    ("period9-ninth", "1^9 3^-5", "+-+--++-+", -1, 5000),
    ("rr-quotient", "2.5^1 3.5^1 1.5^-1 4.5^-1", "++---", 9, 5000),
    ("octic-quotient", "3.8^1 5.8^1 1.8^-1 7.8^-1", "???0", -1, 5000),
    ("hirschhorn-a", "2.10^1 8.10^1 1.5^-1 4.5^-1 1.10^3 9.10^3", "??0?0", -1, 5000),
    ("hirschhorn-b", "4.10^1 6.10^1 2.5^-1 3.5^-1 3.10^3 7.10^3", "?0??0", -1, 5000),
)


def corpus() -> list[CorpusEntry]:
    """The regression corpus of quoted sign-pattern and vanishing results."""
    return [
        CorpusEntry(name, EtaQuotientSpec.parse(spec),
                    SignPattern.from_string(classes, onset), horizon)
        for name, spec, classes, onset, horizon in _CORPUS
    ]


def vanishing_predicate(n: int) -> bool:
    """Arithmetic test for forced zero coefficients of a catalogued family.

    True iff n = 2 (mod 3) and some prime p = 3 (mod 4) divides n to an
    odd power (trial division by odd d once the factors 2, which is not
    3 mod 4, are stripped; inputs are desk-scale).
    """
    if n < 1:
        raise InvalidParameter(f"need n >= 1, got {n}")
    if n % 3 != 2:
        return False
    m = n
    while m % 2 == 0:
        m //= 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            if d % 4 == 3 and e % 2 == 1:
                return True
        d += 2
    return m > 1 and m % 4 == 3
