"""The kernels: pure-Python hot loops for truncated series arithmetic.

This is the package's one kernel implementation; there is no compiled
extension.  All kernels take plain lists of Python ints and an output
length ``n`` (the truncation order plus one) and return a fresh list of
length ``n``.  Coefficients are arbitrary-precision integers throughout;
nothing here may introduce floats or rounding.

The sparse kernels take the nonzero terms of one operand as sorted
exponent and coefficient lists, so their cost is O(n) per term rather
than O(n) per coefficient: `mul_sparse` multiplies by a sparse series
any number of times, `pow_sparse` raises one to any power and
`div_sparse` divides by one, each in a single call; the package uses
no other kernel.

* `mul_sparse` makes every pass of a power k >= 1 of a sparse series,
  so a power is one call.  Its dense operand is a series in q^stride,
  packed high-first above a guard slot into one integer of fixed-width
  slots (Kronecker substitution), so each term is one big-integer right
  shift and one add done in C.  With a stride, the first pass writes
  each residue class of the output from its own terms; the other passes
  run in q on one packed integer, packed once at the width of the
  largest bound of any of them, its guard cleared by two shifts between
  passes, and unpacked once.  Slots of at most 8 bytes are converted to
  and from lists by one signed ``array`` call each way and one XOR with
  the bias on the whole integer; wider slots take one ``int.to_bytes``
  per coefficient to pack, and ``int.from_bytes`` mapped over
  ``struct.iter_unpack`` to unpack.
* `div_sparse` divides in the divisor's own variable y = q^d.  The
  module keeps one table across calls, the partition numbers p(i), the
  coefficients of 1/(y;y), grown to the longest length asked for up to
  `_PARTITIONS_KEPT`: every quotient of the paper divides by some
  (q^p;q^p), which is (y;y) in y = q^p.  Dividing 1 by (y;y) reads the
  table, with no recurrence.
  Otherwise each residue class of the dividend mod d is a series in y,
  and the route follows from how many of them are nonzero.  One class
  is divided in y on its own.  When several are, and d is at most
  `_PACK_MAX`, all d classes are packed as the slots of one integer per
  power of y, built from the classes by shifts and adds and read back by
  shift and mask, so one pass of the recurrence at n/d coefficients
  divides them all; the slot width, to the bit, comes from an exact
  bound that needs the largest coefficient of 1/divisor below y^(n/d),
  for (y;y) the last partition number in the table.  Past `_PACK_MAX`
  such a dividend is divided in q.  The recurrence runs one block of
  `_BLOCK` coefficients at a time.  The terms below the block length run
  per coefficient, in straight-line code generated from the divisor's
  exponents and compiled once per divisor: 0.1-0.4 ms for the 19 to 31
  such terms of the package's theta-type divisors, 1.1 ms for the
  longest step, 383 terms.  `functools.lru_cache` keeps the
  `_STEPS_KEPT` steps used last, by the divisor's terms below the block
  length and c0, not by n, so divisions by one divisor at any length
  share one step, and divisions from several threads at once may drop
  and compile steps while others divide.  The quotient
  starts with as many zeros as the largest such exponent, so every
  coefficient runs the same step.  Each farther term carries a final
  block into the right side of later coefficients with one C-level
  ``map``.
* `pow_sparse` runs Miller's recurrence, one interpreted loop per
  coefficient over the terms, which sums the terms that share a
  coefficient in one group per coefficient (`_miller`), or, for a power
  k >= 2 whose passes' slot width prices them lower, one `mul_sparse`
  call of k - 1 passes onto the base, so powers pack only in
  `mul_sparse`.  A power k = -1 is one `div_sparse` of 1, so there is
  one route to an inverse, and k = -2 and -3 of (y;y) are that read of
  the partition table and |k| - 1 more divisions where they price lower
  than Miller's recurrence.

`qsigns.cost.price` gives the time of each of these routes from its
sizes, in `_MILLER_STEP`'s unit: `pow_sparse` picks the route of (y;y)^-2
and ^-3 by it, and `plan` prices every pass of an expansion with it.

`theta_terms`, the one generator of the sums
sum_{n in Z} eps^n q^{(A n^2 + B n)/2 + C}, lives here, in the package's
leaf module: `plan` makes every sparse closed form but Jacobi's cube
from it, and `div_sparse` makes Euler's function (y;y) = JTP(1, 3) from
it, to know a divisor that the partition table inverts.

`mul_dense` and `invert_dense` are the schoolbook forms, kept as the slow
references that the tests check `Series.__mul__`, `Series.power`,
`Series.invert` and the sparse kernels against.
"""

from __future__ import annotations

import functools
import math
import struct
import sys
from array import array
from collections import Counter
from itertools import islice, repeat
from operator import add, and_, itemgetter, lshift, mul, rshift, sub


def mul_dense(xs: list, ys: list, n: int) -> list:
    """Cauchy product of two dense coefficient lists, truncated to n terms.

    The package does not call it; it is the tests' oracle for `Series.__mul__`.
    """
    out = [0] * n
    lx = min(len(xs), n)
    ly = len(ys)
    for i in range(lx):
        xi = xs[i]
        if xi:
            hi = min(ly, n - i)
            for j in range(hi):
                yj = ys[j]
                if yj:
                    out[i + j] += xi * yj
    return out


def invert_dense(xs: list, n: int) -> list:
    """Multiplicative inverse of xs, truncated to n terms.

    Requires xs[0] in (1, -1); the recurrence then stays in the integers.
    The package does not call it; it is the tests' oracle for `Series.invert`.
    """
    x0 = xs[0]
    out = [0] * n
    out[0] = x0
    m = len(xs)
    pos = x0 == 1
    for k in range(1, n):
        acc = 0
        jmax = min(k, m - 1)
        for j in range(1, jmax + 1):
            xj = xs[j]
            if xj:
                acc += xj * out[k - j]
        out[k] = -acc if pos else acc
    return out


def mul_sparse(xs: list, exps: list, cofs: list, n: int, stride: int = 1, k: int = 1) -> list:
    """Multiply xs, a series in q^stride, k >= 1 times by the sparse polynomial f = sum(c*q^e), truncated to n.

    The output is a dense list in q.  A pass multiplies by f: with stride
    > 1 the first pass makes out[e + stride*i] from c*xs[i], and each
    residue r of the exponents mod stride writes out[r::stride] from its
    own terms.  The other passes, all k when stride is 1, run in q on one
    packed integer, packed once at the slot width of the largest bound of
    any of them and unpacked once.  A pass packs its operand high-first
    into one integer of W-bit slots above a guard slot, and sums
    c * (R >> W*sigma) over its terms (`_shift_add`).
    """
    width = -(-n // stride)
    xs = xs[:width]
    live = [(e, c) for e, c in zip(exps, cofs) if e < n]
    top = max(map(abs, xs), default=0)
    weight = sum(abs(c) for _, c in live)
    if not top * weight:
        return [0] * n
    # Why every slot is exact.  A pass packs the m coefficients x_i of its
    # operand, every |x_i| <= top, as R = sum_i x_i * 2^(W*(m-i)) (`_pack`):
    # x_i in slot m - i above a zero guard slot 0.  It writes n_r
    # coefficients out[r::stride], n_r = m = n in q.  For a term c*q^e, e =
    # r + stride*s, shifting R right by sigma = s + m - n_r slots puts x_i in
    # slot n_r - j for out[r + stride*j], j = i + s, and drops the slots
    # below sigma; their sum L has |L| < 2^(W*sigma), so the floor adds L //
    # 2^(W*sigma), 0 or -1, to slot 0.  So the sum of the residue's terms is
    # sum_l v_l * 2^(W*l) over l = 0..n_r, where v_(n_r-j) = out[r +
    # stride*j], a sum of c*x_i over distinct live terms, and v_0 the guard's
    # sum of c*(x_i + floor); every |v_l| <= weight * (top + 1).  W is the
    # least of 8, 16, 32 and 64 bits, or else the least multiple of 8, with
    # that bound, or a larger one, below 2^(W-1), which covers |x_i| <= top
    # too.  So `_unpack` reads the n_r + 1 slots with no carry between them,
    # and the guard is dropped.  A pass in q that another follows starts
    # `_shift_add` from 2^(W-1) instead, so its guard slot holds v_0 +
    # 2^(W-1), in [0, 2^W): shifting right and back left by W clears it with
    # no borrow and leaves the next pass's R exactly, with top * weight for
    # top.  That bound never falls from pass to pass, so the passes in q all
    # take the W of the last one's, and by induction each is exact.
    if stride > 1:
        w = _slot_bytes((weight * (top + 1)).bit_length())
        bits = 8 * w
        R = _pack([0] * (width + 1 - len(xs)) + xs[::-1], w)
        by_residue: list = [[] for _ in range(stride)]
        for e, c in reversed(live):
            s, r = divmod(e, stride)
            by_residue[r].append((s + width - len(range(r, n, stride)), c))
        xs = [0] * n
        for r, terms in enumerate(by_residue):
            if terms:
                xs[r::stride] = _unpack(_shift_add(R, terms, bits, 0), w, len(range(r, n, stride)) + 1)[:0:-1]
        if k == 1:
            return xs
        top, k = max(map(abs, xs)), k - 1
    w = _slot_bytes((weight * (top * weight ** (k - 1) + 1)).bit_length())
    bits = 8 * w
    R = _pack([0] * (n + 1 - len(xs)) + xs[::-1], w)
    terms = live[::-1]
    for _ in range(k - 1):
        R = _shift_add(R, terms, bits, 1 << bits - 1) >> bits << bits
    return _unpack(_shift_add(R, terms, bits, 0), w, n + 1)[:0:-1]


def _shift_add(R: int, terms: list, bits: int, Y: int) -> int:
    """Y plus the sum of c * (R >> bits*s) over terms (s, c) by decreasing s.

    Each term is one right shift and one add, taken by decreasing s, so
    each add is only as long as its term.
    """
    for s, c in terms:
        t = R >> bits * s
        if c == 1:
            Y += t
        elif c == -1:
            Y -= t
        else:
            Y += c * t
    return Y


# the slot widths in bytes that array packs, narrowest first, and a signed typecode of each
_TYPECODES = {array(code).itemsize: code for code in "bhilq"}
_SWAP = sys.byteorder == "big"


def _pack(xs: list, w: int) -> int:
    """sum_i xs[i] * 2^(8w*i), for every -2^(8w-1) <= xs[i] < 2^(8w-1).

    Each x goes into a w-byte slot as x + 2^(8w-1).  When w is 1, 2, 4 or
    8, one signed ``array`` call writes every x in two's complement, and
    a two's-complement slot with its top bit flipped is the biased slot,
    so one XOR with the bias, 2^(8w-1) in each slot, biases them all; a
    wider slot takes one ``int.to_bytes`` of x + 2^(8w-1).  The biased
    slots read as one integer, less the bias, are the sum.
    """
    bias = _bias(w, len(xs))
    code = _TYPECODES.get(w)
    if code is None:
        half = 1 << 8 * w - 1
        return int.from_bytes(b"".join([(x + half).to_bytes(w, "little") for x in xs]), "little") - bias
    slots = array(code, xs)
    if _SWAP:
        slots.byteswap()
    return (int.from_bytes(slots.tobytes(), "little") ^ bias) - bias


def _unpack(P: int, w: int, k: int) -> list:
    """The inverse of `_pack`: the k values v_i of P = sum_i v_i * 2^(8w*i), every -2^(8w-1) <= v_i < 2^(8w-1).

    P plus the bias has the biased slots v_i + 2^(8w-1) as its base-2^(8w)
    digits.  Slots of at most 8 bytes are flipped back to two's complement
    with one XOR and read by one signed ``array`` call; wider ones are
    read by ``int.from_bytes`` mapped over ``struct.iter_unpack``, less
    2^(8w-1) each.
    """
    bias = _bias(w, k)
    code = _TYPECODES.get(w)
    if code is None:
        return list(map(sub, _read((P + bias).to_bytes(w * k, "little"), w), repeat(1 << 8 * w - 1)))
    slots = array(code)
    slots.frombytes(((P + bias) ^ bias).to_bytes(w * k, "little"))
    if _SWAP:
        slots.byteswap()
    return slots.tolist()


def _read(data: bytes, w: int):
    """The w-byte little-endian unsigned ints of data, in order, decoded in C."""
    return map(int.from_bytes, map(itemgetter(0), struct.iter_unpack(f"{w}s", data)), repeat("little"))


def _bias(w: int, k: int) -> int:
    """2^(8w-1) in each of k slots of w bytes."""
    return int.from_bytes((1 << (8 * w - 1)).to_bytes(w, "little") * k, "little")


# the block length of the division recurrence.  Measured by replaying the
# divisions of one seed-1 pass of the pentagonal, binomial and dense
# benchmark workloads (best of 25, interleaved, two runs, Python 3.11,
# 2 vCPUs on a shared host): against the interpreted loop over the near
# terms at 128, the compiled step took 0.80-0.84, 0.69-0.72 and 0.67
# times as long at 128, 0.76-0.78, 0.64-0.68 and 0.59 at 256, 0.73-0.75,
# 0.64-0.65 and 0.55 at 384, and 0.72-0.75, 0.63-0.66 and 0.52-0.54 at
# 512.  A step has up to _BLOCK - 1 terms, and a longer step costs more
# to compile, so 512, no faster on the first two, is not taken.  CPython
# 3.11 compiles a chain of 1000 terms but raises RecursionError on one of
# 3000, so _BLOCK stays below 1000.
_BLOCK = 384

# how many compiled division steps `_step` keeps, by the divisor's terms
# below _BLOCK and c0.  A step of the package's divisors takes about 3 kB,
# one of 383 terms about 90 kB.
_STEPS_KEPT = 32

# the largest d at which div_sparse packs the residue classes mod d of a
# dividend with several nonzero ones.  Measured by dividing (q;q)^k by
# (q^d;q^d), k = 5, 1 and -2, at 3,000 and 14,000 coefficients, best of 5
# to 9 (Python 3.11, 2 vCPUs on a shared host).  With every class
# nonzero, one packed pass took 0.46-1.18 times as long as the d classes
# divided one at a time at d = 2 and 3, and 0.18-1.12 at d = 4-100: the
# slot arithmetic is C-level and the recurrence runs once, at n/d
# coefficients.  Against the division in q it took 0.23-1.25 times as
# long for d <= 32.  The shapes with only some classes nonzero that the
# package makes, 2 of 3, 3 of 5 and 3 of 7, took 0.59-1.24 times as long
# packed as one class at a time; 2 of 32 would take 3.4-8.5 times as
# long.  Past d of about 50 the slot width decides, and d does not: at
# 14,000 coefficients and d = 50-1000, packing (q;q)^10, 33-bit
# coefficients, took 0.37-1.01 times as long as the division in q, and
# (q;q)^-24, 2052-bit ones, 1.53-5.44 times.  So d stays capped here
# until a cost model reads the slot width.
_PACK_MAX = 32


def div_sparse(xs: list, exps: list, cofs: list, n: int) -> list:
    """Divide dense xs by a sparse polynomial, truncated to n terms.

    The divisor terms must be sorted by exponent with exps[0] == 0 and
    cofs[0] in (1, -1), so the quotient recurrence stays integral.  Let d
    be the gcd of its exponents below n (1 if there are none but 0), so
    that the divisor is a series in y = q^d, known to m = ceil(n/d)
    coefficients.  Residue class r of xs mod d, the series
    sum_k xs[r + d*k] y^k, has quotient out[r::d], and the route follows
    from how many classes are nonzero.  None: the quotient is 0.  One, as
    always for a nonzero xs when d = 1: that class is divided in y by
    `_divide`, the block recurrence, or, when it is 1 and the divisor is
    Euler's function (y;y) there, its quotient is the partition numbers
    p(0..m-1), read from the table `_partition_numbers` keeps, and no
    recurrence runs.  Several, with d at most `_PACK_MAX`: all d classes
    are packed as the slots of one integer per power of y and divided in
    one pass (`_divide_packed`).  Several past `_PACK_MAX`: xs is divided
    in q.
    """
    c0 = cofs[0] if exps and exps[0] == 0 else 0
    if c0 == 0:
        raise ValueError("div_sparse needs a nonzero constant term")
    if c0 not in (1, -1):
        raise ValueError(f"div_sparse cannot divide by constant term {c0}")
    live = [(e, c) for e, c in zip(exps, cofs) if e < n]
    d = math.gcd(*(e for e, _ in live)) or 1
    terms = [(e // d, c) for e, c in live[1:]]
    m = -(-n // d)
    # the nonzero classes, as far as the second
    classes = list(islice((r for r in range(d) if any(xs[r:n:d])), 2))
    if len(classes) < 2:
        out = [0] * n
        if not classes:
            return out
        r = classes[0]
        if xs[:1] == [1] and not any(islice(xs, 1, n)) and _is_euler(terms, c0, m):
            out[::d] = _partition_numbers(m)[:m]
        else:
            row = xs[r:n:d]
            row += [0] * (len(range(r, n, d)) - len(row))
            _divide(row, terms, c0)
            out[r::d] = row
        return out
    out = xs[:n]
    if d <= _PACK_MAX:
        out += [0] * (m * d - len(out))
        _divide_packed(out, d, terms, c0)
        del out[n:]
    else:
        out += [0] * (n - len(out))
        _divide(out, live[1:], c0)
    return out


# p(0), p(1), ...: the coefficients of 1/(y;y), as many as the longest
# division by (y;y) has asked for, up to _PARTITIONS_KEPT; `_partition_numbers`
# grows it
_partitions = [1]
# about 1 MB of partition numbers, which covers the paper's census at
# m = 7142 and every benchmark job
_PARTITIONS_KEPT = 1 << 14


def _partition_numbers(m: int) -> list:
    """A table of partition numbers, at least m long.

    A kept table shorter than m is recomputed to m coefficients, one
    division of 1 by (y;y); so no request does more work than that
    division, and a request no longer than the kept table does none.  The
    first _PARTITIONS_KEPT of them replace the kept table when they are
    longer, so the kept table only grows, also when another thread has
    grown it meanwhile; a longer table serves that request only.  A kept
    table is never changed in place, so a list returned earlier stays
    valid.  Only
    (y;y) is kept: every quotient of the paper divides by some (q^p;q^p),
    and other inverses would only be reused when the same job runs twice.
    """
    global _partitions
    if len(_partitions) >= m:
        return _partitions
    table = [1] + [0] * (m - 1)
    # (y;y) = JTP(1, 3), its terms past the constant one
    _divide(table, _euler(m)[1:], 1)
    if len(_partitions) < min(m, _PARTITIONS_KEPT):
        _partitions = table if m <= _PARTITIONS_KEPT else table[:_PARTITIONS_KEPT]
    return table


def theta_terms(sums, limit: int) -> tuple[list[int], list[int]]:
    """The sum of c * sum_{n in Z} eps^n q^{(A n^2 + B n)/2 + C} over each (A, B, C, eps, c) in sums.

    Every sparse closed form of `plan` but Jacobi's cube is such a sum
    (eps = +-1), and so is Euler's function (y;y) here.  Terms up to
    exponent limit, sorted, with colliding terms merged, so exponents are
    distinct and coefficients nonzero.  A + B even makes every exponent
    an integer.  Each side is walked outward, n = 0, 1, ... and then
    n = -1, -2, ..., until the exponent passes limit, and no
    later term of that side comes back below it: stepping n to n + 1 on
    the first side adds A n + (A + B)/2 >= 0 when A > 0 and B >= -A, and
    stepping n to n - 1 on the second adds A |n| + (A - B)/2 > 0 when
    B < 3A, so both sides only climb.  Their lowest exponents are C and
    C + (A - B)/2, which the caller keeps nonnegative.
    """
    pairs = []
    for A, B, C, eps, c in sums:
        # (first exponent, its step to the next, coefficient) of each side
        for e, d, k in ((C, (A + B) // 2, c), (C + (A - B) // 2, (3 * A - B) // 2, c * eps)):
            while e <= limit:
                pairs.append((e, k))
                e += d
                d += A
                k *= eps
    # sorted, equal exponents are neighbours: merge each into the last
    # term, and drop a term whose coefficient cancels
    pairs.sort()
    exps, cofs = [], []
    for e, k in pairs:
        if exps and exps[-1] == e:
            exps.pop()
            k += cofs.pop()
        if k:
            exps.append(e)
            cofs.append(k)
    return exps, cofs


def _is_euler(terms: list, c0: int, m: int) -> bool:
    """Whether c0 + sum(c * y^e) over terms (e, c), all with e < m, is (y;y) below y^m."""
    return c0 == 1 and [(0, 1), *terms] == _euler(m)


def _euler(m):
    """The terms (e, c) of Euler's function (y;y) = JTP(1, 3) below y^m."""
    return list(zip(*theta_terms(((3, -1, 0, -1, 1),), m - 1)))


def _divide(out: list, terms: list, c0: int) -> None:
    """Divide out in place by c0 + sum(c * q^e) over terms (e, c), e >= 1 by increasing e.

    out holds the dividend on entry and the quotient, to as many terms,
    on exit; the right side of each coefficient lives in it until the
    recurrence makes it final.  The quotient is found one block of
    _BLOCK coefficients at a time.  The terms with exponent below _BLOCK
    run in the divisor's compiled step (`_step`), which appends each
    coefficient of the block to a quotient list that starts with as many
    zeros as their largest exponent, so the first coefficients run the
    same code as the rest.  Once a block is final it is copied back into
    out, and every farther term subtracts c times it from the right side
    of later blocks, one C-level map per term.  The coefficients may be
    any integers, packed ones too: the recurrence only adds, subtracts
    and multiplies by the terms' coefficients.
    """
    n = len(out)
    near = tuple([(e, c) for e, c in terms if e < _BLOCK])
    far = [(e, c) for e, c in terms if _BLOCK <= e < n]
    step = _step(near, c0)
    pad = near[-1][0] if near else 0
    quotient = [0] * pad
    for b0 in range(0, n, _BLOCK):
        b1 = min(b0 + _BLOCK, n)
        step(quotient, out[b0:b1])
        out[b0:b1] = block = quotient[pad + b0:]
        for e, c in far:
            lo = b0 + e
            if lo >= n:
                break
            hi = min(b1 + e, n)
            if c == 1:
                out[lo:hi] = map(sub, out[lo:hi], block)
            elif c == -1:
                out[lo:hi] = map(add, out[lo:hi], block)
            else:
                out[lo:hi] = map(sub, out[lo:hi], map(mul, repeat(c, b1 - b0), block))


@functools.lru_cache(maxsize=_STEPS_KEPT)
def _step(near: tuple, c0: int):
    """The step of the divisor c0 + sum(c * q^e) over near, e by increasing e, compiled.

    The cache keeps the _STEPS_KEPT steps used last; it stays whole when
    several threads divide at once, which may compile one step twice.

    step(q, xs) appends to the quotient q, for each right side x of xs in
    turn, its next coefficient c0 * (x - sum(c * q[-e])), written out
    term by term.  The terms of one |c| > 1 share one product by |c|,
    bound to a name m<i>, so the source holds only signs and the
    exponents, each checked to be an int.
    """
    groups: dict = {}
    for e, c in near:
        groups.setdefault(abs(c), []).append((int.__index__(e), c > 0))
    rhs = "x"
    names = {}
    for a, group in groups.items():
        if a == 1:
            rhs += "".join(f" {'+-'[pos]} q[-{e}]" for e, pos in group)
        else:
            names[m := f"m{len(names)}"] = a
            first = group[0][1]
            chain = "".join(f" {'-+'[pos == first]} q[-{e}]" for e, pos in group)
            rhs += f" {'+-'[first]} {m} * ({chain[3:]})"
    source = f"def step(q, xs):\n    for x in xs:\n        q.append({rhs if c0 == 1 else f'-({rhs})'})\n"
    exec(compile(source, "<division step>", "exec"), names)
    return names["step"]


def _divide_packed(out: list, d: int, terms: list, c0: int) -> None:
    """Divide each residue class out[r::d], a series in y = q^d, in place and in one packed pass.

    len(out) is a multiple m of d, and terms a divisor in y.  The packed
    value P[k] holds out[d*k + r] in slot r of W bits, W one more than
    the bit length of the slot bound.  Each nonzero class is shifted to
    its slot and added in, one C-level ``map`` each; after one pass of
    the recurrence on the m packed values, each nonzero class of the
    quotient is read back by shift and mask, and a zero class has a zero
    quotient.  Both run one block of _BLOCK packed values at a time, the
    reading from the end, each block freed once read, so no second list
    of packed values is ever whole.  The work is linear in len(out) for
    any d.
    """
    m = len(out) // d
    if _is_euler(terms, c0, m):
        top = _partition_numbers(m)[m - 1]
    else:
        inverse = [1] + [0] * (m - 1)
        _divide(inverse, terms, c0)
        top = max(map(abs, inverse))
        del inverse
    norms = [sum(map(abs, out[r::d])) for r in range(d)]
    bound = max(norms) * top
    # Why every slot is exact.  Let D = c0 + sum c*y^e be the divisor,
    # g = 1/D = sum g_i y^i, and let x_r = out[r::d] and q_r = x_r * g,
    # whose first m coefficients are the quotient of x_r.  Then |q_r[k]|
    # = |sum_{j<=k} x_r[j] * g[k-j]| <= ||x_r||_1 * max_{i<m} |g_i| <=
    # bound for every k < m, and |x_r[k]| <= bound too, since |g_0| = 1.
    # top is that maximum.  For D = (y;y) the g_i are the partition
    # numbers p(i), and p(i+1) >= p(i), since adding a part 1 maps the
    # partitions of i one-to-one into those of i+1, so the maximum is
    # p(m-1), read from the table; for any other D it is read off the
    # g_i that `_divide` computes.  W = bound.bit_length() + 1 is the
    # least width with bound < 2^(W-1), so q_r[k] + 2^(W-1) lies in [0,
    # 2^W).  The shifts and adds make P[k] = sum_r x_r[k] * 2^(W*r)
    # exactly, Python ints being exact.  `_divide` computes Q[k] = c0 *
    # (P[k] - sum c * Q[k-e]) over the terms with e <= k, and each q_r
    # obeys the same recurrence with x_r for P; it is linear over the
    # integers, so by induction on k, Q[k] = sum_r q_r[k] * 2^(W*r)
    # exactly.  Adding the bias, 2^(W-1) in each of the d slots, gives the
    # number whose base-2^W digits are the biased quotient coefficients
    # q_r[k] + 2^(W-1), with no carry between them: shifting it right by
    # W*r and keeping the low W bits reads digit r, and less 2^(W-1) that
    # is q_r[k].  A zero x_r has q_r = 0, which is what out[r::d] holds.
    bits = bound.bit_length() + 1
    classes = [r for r in range(d) if norms[r]]
    packed = []
    for k0 in range(0, m, _BLOCK):
        block = out[d * k0:d * (k0 + _BLOCK)]
        values = [0] * (len(block) // d)
        for r in classes:
            values[:] = map(add, values, map(lshift, block[r::d], repeat(bits * r)))
        packed += values
    _divide(packed, terms, c0)
    half = 1 << bits - 1
    bias = sum(half << bits * r for r in range(d))
    mask = (1 << bits) - 1
    for k0 in reversed(range(0, m, _BLOCK)):
        block = list(map(add, packed[k0:], repeat(bias)))
        del packed[k0:]
        for r in classes:
            digits = map(and_, map(rshift, block, repeat(bits * r)), repeat(mask))
            out[d * k0 + r:d * (k0 + len(block)):d] = map(sub, digits, repeat(half))


def _slot_bytes(bits: int) -> int:
    """Bytes w of the narrowest slot that holds any x with |x| < 2^bits as x + 2^(8w-1).

    That needs bits <= 8w - 1; w is the least of the sizes array packs
    (1, 2, 4 and 8) that does, or else the least w that does.  A bound
    of bit length bits, and any x with |x| <= bound, fits.
    """
    w = (bits + 8) // 8
    return next((size for size in _TYPECODES if size >= w), w)


# The cost of a power k >= 2 below q^n, per live term of the base, in the
# time of one shift and add of a 30-bit digit.  Miller's recurrence takes
# _MILLER_STEP per coefficient; the k - 1 passes of `mul_sparse` onto the
# base take one shift and one add of n slots of 8w bits each per pass, n *
# 8w / 30 digits.  Measured by raising (q;q), JTP(1,5) and (q;q) with its
# coefficients past the constant one times 10^12, at 1000 and 4000
# coefficients, to k = 2, 3, 5, 8, 12, 20 and 32 (best of 3, Python 3.11,
# 2 vCPUs on a shared host): a Miller step took 27-190 ns, more for wider
# coefficients, and a pass 1.1-9.9 ns per term and digit, more for narrow
# slots, whose packing counts.  The two routes took the same time, within
# 5%, at (k - 1) * 8w = 1976 and 2128 bits, JTP(1,5) and (q;q) to k = 20 at
# 1000 coefficients: a step is worth 66-71 digits.  At 60, the rule picked
# the faster route in all 42 cases; where it took the passes, they took
# 0.03-0.57 times as long as Miller.  Rerun with the grouped loop of
# `_miller`, the rule still picks the faster route in all 42, the passes
# taking 0.03-0.79 times as long as Miller where it takes them; at k = 20
# and 1000 coefficients Miller now takes 0.81-0.84 of the passes' time, so
# a step is worth about 55-57 digits, and 60 is kept.
_MILLER_STEP = 60


def _passes_pay(k: int, bits: int) -> bool:
    """Whether k - 1 passes of `mul_sparse` at the slot width of a bound
    of that bit length cost less than Miller's recurrence.

    The price grows with bits, so a lower bound on bits that does not pay
    rules the passes out.
    """
    return (k - 1) * 8 * _slot_bytes(bits) < 30 * _MILLER_STEP


def pow_sparse(exps: list, cofs: list, k: int, n: int) -> list:
    """The k-th power (any integer k) of a sparse polynomial, truncated to n terms.

    Requires exps sorted with exps[0] == 0 and a nonzero constant term
    c0 = cofs[0]; a negative k also needs c0 in (1, -1), so that f^k has
    integer coefficients.  One pass of J.C.P. Miller's recurrence for
    g = f^k (Knuth, TAOCP vol. 2, 4.7), starting from g_0 = c0^k,

        m * c0 * g_m = sum_{j>=1} ((k+1) * e_j - m) * c_j * g_{m-e_j},

    whose right side is an exact multiple of m * c0 because g has integer
    coefficients.  `_miller` sums the terms that share a coefficient c with
    at least two others as one group per c, so m * c is taken once per
    group and coefficient; a power k >= 1 stops at its degree, past which
    it is zero.  A base in q^d alone is raised in q and spread out again.
    For k >= 2, in that step, one `mul_sparse` call makes k - 1 passes
    onto the base instead, when `_passes_pay` prices them at the slot
    width of their bound below Miller's recurrence.  k = -1 is one
    division of 1 by `div_sparse` instead, which reads the partition table
    for (y;y) and runs the divisor's compiled step otherwise; k = -2 and
    -3 of (y;y) read the table and divide it |k| - 1 times where
    `qsigns.cost.price` puts that below Miller's recurrence.  n = 0 gives [].
    """
    c0 = cofs[0] if exps and exps[0] == 0 else 0
    if c0 == 0:
        raise ValueError("pow_sparse needs a nonzero constant term")
    if k < 0 and c0 not in (1, -1):
        raise ValueError(f"pow_sparse cannot raise constant term {c0} to the power {k}")
    if n < 1:
        return []
    if k == -1:
        return div_sparse([1], exps, cofs, n)
    live = [(e, c) for e, c in zip(exps, cofs) if e < n]
    d = math.gcd(*(e for e, _ in live))
    if d > 1:
        short = pow_sparse([e // d for e, _ in live], [c for _, c in live], k, (n - 1) // d + 1)
        out = [0] * n
        out[::d] = short
        return out
    # the first division of (y;y) reads the table; by divisions k = -2 takes
    # 0.68 of the time of Miller's recurrence for (q;q) at 100 coefficients
    # and 0.38-0.57 at 300-4000, k = -3 1.17 at 100, 1.02-1.07 at 300 and
    # 0.80-0.88 at 600-4000 (best of 5-7, Python 3.11, 2 vCPUs on a shared
    # host), and the prices pick the faster route at each
    from .cost import by_table  # cost imports this module

    if k in (-2, -3) and by_table(k, live, c0, n):
        out = div_sparse([1], exps, cofs, n)
        for _ in range(-k - 1):
            out = div_sparse(out, exps, cofs, n)
        return out
    if k > 1:
        norm, top = sum(abs(c) for _, c in live), max(abs(c) for _, c in live)
        # the passes' slot bound norm * (top * norm^(k-2) + 1) has at least
        # this many bits; pricing it first spares computing a huge power
        # when k is large
        least = (k - 1) * (norm.bit_length() - 1) + top.bit_length()
        if _passes_pay(k, least) and _passes_pay(k, (norm * (top * norm ** (k - 2) + 1)).bit_length()):
            base = [0] * (live[-1][0] + 1)
            for e, c in live:
                base[e] = c
            return mul_sparse(base, exps, cofs, n, 1, k - 1)
    out = [0] * n
    if k == 1:
        for e, c in live:
            out[e] += c
        return out
    # c0^|k| is c0^k whenever k < 0, since then c0 is 1 or -1
    out[0] = c0 ** abs(k)
    if k != 0:
        _miller(out, live[1:], k, c0, n if k < 0 else min(n, k * live[-1][0] + 1))
    return out


def _miller(out: list, terms: list, k: int, c0: int, stop: int) -> None:
    """Miller's recurrence for the k-th power of c0 + sum(c * q^e) over terms (e, c), e >= 1 by increasing e.

    out holds c0^k and zeros on entry, and the power below q^stop on exit.
    A term is (e, a), a = (k + 1) * e * c, so that it adds (a - m * c) *
    out[m - e] to m * c0 * out[m].  The terms of a coefficient c that at
    least three of them share form one group, which takes m * c once per
    coefficient and group.  The other terms keep c, as (e, a, c), and skip
    a zero out[m - e].  Between two exponents of the base the live terms
    do not change, so each range of m runs with one set of them.

    Measured at 1000 coefficients against one loop over every term as
    (e, a, c), with the zero test (best of 9, Python 3.11, 2 vCPUs on a
    shared host): (q;q) to k = -24, -7 and 40 takes 0.82-0.86 of its
    time, phi(-q) to k = -7 0.85 and J = (q;q)^3, whose coefficients are
    all distinct, to k = -7 and 30 1.00.  A pair grouped, 1 - q^5 - q^7
    to k = -30, took 1.06-1.15, apart 0.96-1.04.  1 + q^50 - q^51 to
    k = -30, whose power is mostly zero below q^2450, took 1.23-1.25
    without the zero test and 1.11-1.13 with the empty loop over no
    groups.
    """
    counts = Counter(c for _, c in terms)
    groups: dict = {}
    singles = []
    for (e, c), end in zip(terms, [e for e, _ in terms[1:]] + [stop]):
        if counts[c] < 3:
            singles.append((e, (k + 1) * e * c, c))
        else:
            groups.setdefault(c, []).append((e, (k + 1) * e * c))
        shared = list(groups.items())
        for m in range(e, min(end, stop)):
            acc = 0
            if shared:
                for c, group in shared:
                    mc = m * c
                    for s, a in group:
                        acc += (a - mc) * out[m - s]
            for s, a, c in singles:
                g = out[m - s]
                if g:
                    acc += (a - m * c) * g
            out[m] = acc // (m * c0)


def backend_name() -> str:
    """The kernel implementation in use; there is only the pure-Python one."""
    return "python"
