"""Exact arithmetic on truncated integer power series in q.

A :class:`Series` stores the coefficients of q^0 .. q^T exactly, as
arbitrary-precision Python ints; T is the inclusive truncation order.
Binary operations truncate to the shorter operand and never extend
precision.  Instances are immutable and safe to share across threads,
and the kernels may run from several threads at once: the tests divide
from four threads and compare each quotient with a serial one.

Products, powers and inverses use only nonzero terms: `*` is one sparse
multiplication (`mul_sparse`) by the operand with fewer nonzero terms,
`power` is one pass of Miller's power recurrence (`pow_sparse`) over the
base and `invert` one sparse division of 1 (`div_sparse`), so each costs
O(T) per nonzero term, whatever the exponent.  A power k >= 2 goes
instead by k - 1 passes of `mul_sparse` onto the base, in one call,
when `pow_sparse` prices them lower at the slot width they need.
`power(-1)` is the same one division as `invert`.  Inverting
(q^p;q^p) costs less: its inverse is the partition numbers spread onto
q^p, which `div_sparse` reads from the one table it keeps across calls,
and its powers -2 and -3 are that read and one or two more divisions.

A precision above ``MAX_PRECISION``, here or in any constructor built
on this module, raises `InvalidParameter` before anything is allocated.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from ._backend import div_sparse, mul_sparse, pow_sparse


class QSignsError(Exception):
    """Base class for errors raised by this package."""


class NonUnitConstantTerm(QSignsError):
    """Inversion requires constant term +1 or -1."""


class BeyondPrecision(QSignsError):
    """Requested data lies above the truncation order."""


class InvalidParameter(QSignsError):
    """Parameter outside its documented range."""


# 20x the largest job in the paper, the 7*7142-term census
MAX_PRECISION = 1_000_000


def _check_precision(precision: int, name: str = "precision") -> None:
    if precision < 0:
        raise InvalidParameter(f"{name} must be nonnegative, got {precision}")
    if precision > MAX_PRECISION:
        raise InvalidParameter(f"{name} = {precision} exceeds the limit MAX_PRECISION = {MAX_PRECISION}")


class Series:
    """A truncated power series sum_{n=0}^{T} c_n q^n with exact integer c_n."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = tuple(coeffs)
        if not cs:
            raise InvalidParameter("a series needs at least its constant term")
        self._coeffs = cs

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, precision: int) -> "Series":
        _check_precision(precision)
        return cls([0] * (precision + 1))

    @classmethod
    def one(cls, precision: int) -> "Series":
        _check_precision(precision)
        return cls([1] + [0] * precision)

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int]], precision: int) -> "Series":
        """Build a series from (exponent, coefficient) pairs; others are zero."""
        _check_precision(precision)
        out = [0] * (precision + 1)
        for e, c in terms:
            if e < 0:
                raise InvalidParameter(f"negative exponent {e} is not representable")
            if e <= precision:
                out[e] += c
        return cls(out)

    # -- basic accessors ----------------------------------------------

    @property
    def precision(self) -> int:
        """Inclusive truncation order T."""
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[int, ...]:
        return self._coeffs

    def coefficient(self, n: int) -> int:
        if n < 0:
            raise InvalidParameter(f"exponent must be nonnegative, got {n}")
        if n >= len(self._coeffs):
            raise BeyondPrecision(f"coefficient {n} beyond precision {self.precision}")
        return self._coeffs[n]

    def sign_of(self, n: int) -> int:
        c = self.coefficient(n)
        return (c > 0) - (c < 0)

    def __iter__(self) -> Iterator[int]:
        return iter(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:
        head = ", ".join(str(c) for c in self._coeffs[:8])
        tail = ", ..." if len(self._coeffs) > 8 else ""
        return f"Series([{head}{tail}], precision={self.precision})"

    def matches(self, other: "Series") -> bool:
        """Coefficientwise equality up to the smaller precision."""
        n = min(len(self._coeffs), len(other._coeffs))
        return self._coeffs[:n] == other._coeffs[:n]

    def truncate(self, precision: int) -> "Series":
        """Drop coefficients above ``precision`` (which must lie in 0..T)."""
        _check_precision(precision)
        if precision > self.precision:
            raise BeyondPrecision(
                f"cannot extend precision {self.precision} to {precision}"
            )
        return Series(self._coeffs[: precision + 1])

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        n = min(len(self._coeffs), len(other._coeffs))
        a, b = self._coeffs, other._coeffs
        return Series([a[i] + b[i] for i in range(n)])

    def __sub__(self, other: "Series") -> "Series":
        n = min(len(self._coeffs), len(other._coeffs))
        a, b = self._coeffs, other._coeffs
        return Series([a[i] - b[i] for i in range(n)])

    def __neg__(self) -> "Series":
        return Series([-c for c in self._coeffs])

    def __mul__(self, other: "Series") -> "Series":
        """Product in one sparse pass over the nonzero terms of the sparser operand."""
        n = min(len(self._coeffs), len(other._coeffs))
        xs, ys = self._coeffs[:n], other._coeffs[:n]
        if sum(map(bool, ys)) > sum(map(bool, xs)):
            xs, ys = ys, xs
        exps = [i for i, c in enumerate(ys) if c]
        return Series(mul_sparse(list(xs), exps, [ys[i] for i in exps], n))

    def _check_unit(self) -> None:
        if self._coeffs[0] not in (1, -1):
            raise NonUnitConstantTerm(
                f"cannot invert series with constant term {self._coeffs[0]}"
            )

    def _nonzero_terms(self) -> tuple[list[int], list[int]]:
        """Exponents and coefficients of the nonzero terms, by exponent."""
        exps = [i for i, c in enumerate(self._coeffs) if c]
        return exps, [self._coeffs[i] for i in exps]

    def invert(self) -> "Series":
        """Series y with self * y = 1 + O(q^{T+1}); constant term must be +-1."""
        self._check_unit()
        return Series(div_sparse([1], *self._nonzero_terms(), len(self._coeffs)))

    def power(self, e: int) -> "Series":
        """Integer power by `pow_sparse` over the nonzero terms.

        That is one pass of Miller's recurrence, or, for e >= 2 with slots
        narrow enough, one `mul_sparse` call of e - 1 passes onto the base,
        or, for e = -1, one division of 1, and for e = -2 and -3 of
        (q^p;q^p) a read of the partition table and one or two divisions.
        A negative e needs constant term +-1.  The lowest term q^v of the base is factored out, the
        rest is raised to precision T - v*e, and the result is shifted back
        up by v*e.
        """
        if e == 0:
            return Series.one(self.precision)
        if e < 0:
            self._check_unit()
        exps, cofs = self._nonzero_terms()
        if not exps:
            return Series.zero(self.precision)
        shift = exps[0] * e
        if shift > self.precision:
            return Series.zero(self.precision)
        raised = pow_sparse([x - exps[0] for x in exps], cofs, e, len(self._coeffs) - shift)
        return Series([0] * shift + raised)

    def __pow__(self, e: int) -> "Series":
        return self.power(e)

    # -- exponent reindexing -------------------------------------------

    def shift(self, k: int) -> "Series":
        """Multiply by q^k; precision stays T (top k coefficients drop off)."""
        if k < 0:
            raise InvalidParameter(f"shift must be nonnegative, got {k}")
        n = len(self._coeffs)
        return Series((0,) * min(k, n) + self._coeffs[: max(n - k, 0)])

    def dilate(self, m: int, cap: int | None = None) -> "Series":
        """Substitute q -> q^m; precision grows to m*T (or ``cap`` if smaller)."""
        if m < 1:
            raise InvalidParameter(f"dilation step must be positive, got {m}")
        prec = self.precision * m
        if cap is not None:
            _check_precision(cap, "cap")
            prec = min(prec, cap)
        _check_precision(prec, "dilated precision")
        out = [0] * (prec + 1)
        out[::m] = self._coeffs[:prec // m + 1]
        return Series(out)

    def slice(self, r: int, m: int) -> "Series":
        """Extract sum_n c_{mn+r} q^n; precision becomes floor((T-r)/m)."""
        if m < 1:
            raise InvalidParameter(f"modulus must be positive, got {m}")
        if not 0 <= r < m:
            raise InvalidParameter(f"residue {r} not in [0, {m})")
        if r > self.precision:
            raise BeyondPrecision(f"residue {r} beyond precision {self.precision}")
        return Series(self._coeffs[r:: m])
