"""The kernels: pure-Python hot loops for truncated series arithmetic.

This is the package's one kernel implementation; there is no compiled
extension.  All kernels take plain lists of Python ints and an output
length ``n`` (the truncation order plus one) and return a fresh list of
length ``n``.  Coefficients are arbitrary-precision integers throughout;
nothing here may introduce floats or rounding.

The sparse kernels take the nonzero terms of one operand as sorted
exponent and coefficient lists, so their cost is O(n) per term rather
than O(n) per coefficient: `mul_sparse` multiplies by a sparse series,
`mul_sparse_run` by several in turn, `pow_sparse` raises one to any
power and `div_sparse` divides by one, in a single pass each; the
package uses no other kernel.

* `mul_sparse` takes its dense operand as a series in q^stride and packs
  it once, high-first above one guard slot, into one integer of
  fixed-width slots (Kronecker substitution), so each term is one
  big-integer right shift and one add done in C.  `mul_sparse_run`
  makes the same passes, all in q, on one packed integer: it packs once,
  at the width of the largest bound of any of its passes, drops each
  pass's guard slot with one shift, and unpacks once.  Slots of at most
  8 bytes are converted to and from lists by one signed ``array`` call
  each way and one XOR with the bias on the whole integer; wider slots
  take one ``int.to_bytes`` per coefficient to pack, and
  ``int.from_bytes`` mapped over ``struct.iter_unpack`` to unpack.
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
  such a dividend is divided in q.  The recurrence
  runs one block of coefficients at a time.  Only the terms below the
  block length run per coefficient; each farther term carries a final
  block into the right side of later coefficients with one C-level
  ``map``.
* `pow_sparse` runs Miller's recurrence, one interpreted loop per
  coefficient over the terms, or, for a power k >= 2 of a base dense
  enough that a size estimate prices it lower, square-and-multiply on
  one packed integer, each product one big-integer multiplication in C
  truncated to n slots.

`mul_dense` and `invert_dense` are the schoolbook forms, kept as the slow
references that the tests check `Series.__mul__`, `Series.power`,
`Series.invert` and the sparse kernels against.
"""

from __future__ import annotations

import math
import struct
import sys
from array import array
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


def mul_sparse(xs: list, exps: list, cofs: list, n: int, stride: int = 1) -> list:
    """Multiply xs, a series in q^stride, by the sparse polynomial sum(c*q^e), truncated.

    The output is a dense list in q: out[e + stride*i] gets c*xs[i].  xs
    is packed once, high-first, into one integer R of W-bit slots: xs[i]
    in slot width - i, where width is the length of the longest residue
    class of out, and a zero guard slot at the bottom.  Each residue r of
    the exponents mod stride is the integer sum of c * (R >> W*(s + off))
    over its terms e = r + stride*s, off the slots its class is shorter
    than width (`_shift_add`), unpacked into out[r::stride].
    """
    out = [0] * n
    width = -(-n // stride)
    xs = xs[:width]
    live = [(e, c) for e, c in zip(exps, cofs) if e < n]
    top = max(map(abs, xs), default=0)
    weight = sum(abs(c) for _, c in live)
    if not top * weight:
        return out
    # Why every slot is exact.  R = sum_i xs[i] * 2^(W*(width - i)) is
    # what `_pack` returns, exactly.  Let n_r be the length of
    # out[r::stride] and off = width - n_r.  For a term c*q^e with e = r +
    # stride*s, shifting R right by sigma = s + off slots puts xs[i] in
    # slot n_r - i - s, which is slot n_r - j for out[r + stride*j], j = i
    # + s, and drops the slots below sigma.  Their sum L has |L| <
    # 2^(W*sigma), since every |xs[i]| <= top < 2^(W-1), so the floor of
    # the right shift adds L // 2^(W*sigma), 0 or -1, to slot 0, the
    # guard: slot 0 of the shifted R holds the value of the slot it came
    # from plus that, at most top + 1 in absolute value.  So the residue's
    # sum Y is sum_k v_k * 2^(W*k) over k = 0..n_r, where v_{n_r - j} =
    # out[r + stride*j] for j < n_r, a sum of c*xs[i] over distinct live
    # terms, and v_0 the guard's sum of c*(xs[i] + floor); |v_k| <=
    # weight * (top + 1) = bound for all k.  W is the least of 8, 16, 32
    # and 64 bits, or else the least multiple of 8, with bound < 2^(W-1),
    # so every v_k lies in [-2^(W-1), 2^(W-1)): `_unpack` reads the n_r + 1
    # slots of Y with no carry between them, and the guard is dropped.
    # Python ints keep every intermediate sum exact.
    w = _slot_bytes((weight * (top + 1)).bit_length())
    bits = 8 * w
    R = _pack([0] * (width + 1 - len(xs)) + xs[::-1], w)
    offs = [width - len(range(r, n, stride)) for r in range(stride)]
    by_residue: list = [[] for _ in range(stride)]
    for e, c in reversed(live):
        s, r = divmod(e, stride)
        by_residue[r].append((s + offs[r], c))
    for r, terms in enumerate(by_residue):
        if terms:
            out[r::stride] = _unpack(_shift_add(R, terms, bits, 0), w, width - offs[r] + 1)[:0:-1]
    return out


def mul_sparse_run(xs: list, factors: list, n: int) -> list:
    """Multiply xs, a series in q, by each sparse polynomial (exps, cofs) of factors in turn, truncated to n.

    It equals one stride-1 `mul_sparse` pass per factor, but xs is packed
    once, at the slot width of the largest bound of any of its passes,
    the accumulator stays one packed integer from pass to pass, and the
    result is unpacked once.
    """
    xs = xs[:n]
    top = max(map(abs, xs), default=0)
    bound = top
    passes = []
    for exps, cofs in factors:
        live = [(e, c) for e, c in zip(exps, cofs) if e < n]
        weight = sum(abs(c) for _, c in live)
        bound = max(bound, weight * (top + 1))
        top *= weight
        passes.append(live[::-1])
    if not top:
        return [0] * n
    # Why every slot is exact.  Before pass i the accumulator is A =
    # sum_j x_j * 2^(W*(n-1-j)), x the product so far, and pass i reads R =
    # A << W, which is the packed R of a stride-1 `mul_sparse` call: x_j in
    # slot n - j above a zero guard slot.  With top_i bounding |x_j| and
    # weight_i the sum of |c| over the factor's live terms, that call's
    # argument shows that its sum is sum_k v_k * 2^(W*k) over k = 0..n,
    # v_(n-j) the product's x'_j and v_0 the guard, with every |v_k| <=
    # weight_i * (top_i + 1) <= bound < 2^(W-1); a wider W than the pass
    # needs only gives each slot more room.  `_shift_add` starts from
    # 2^(W-1), so the guard slot holds v_0 + 2^(W-1), which lies in [0,
    # 2^W): shifting right by W drops it with no borrow and leaves the next
    # A exactly, with |x'_j| <= weight_i * top_i = top_(i+1).  By induction
    # the last A is exact, and `_unpack` reads its n slots.  xs itself
    # needs top < 2^(W-1), which bound covers.
    w = _slot_bytes(bound.bit_length())
    bits = 8 * w
    A = _pack([0] * (n - len(xs)) + xs[::-1], w)
    for terms in passes:
        A = _shift_add(A << bits, terms, bits, 1 << bits - 1) >> bits
    return _unpack(A, w, n)[::-1]


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


# the block length of the division recurrence; 128 ran fastest of 32, 64, 128 and 256
_BLOCK = 128

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
    first _PARTITIONS_KEPT of them replace the kept table when it is
    shorter; a longer table serves that request only.  A kept table is
    never changed in place, so a list returned earlier stays valid.  Only
    (y;y) is kept: every quotient of the paper divides by some (q^p;q^p),
    and other inverses would only be reused when the same job runs twice.
    """
    global _partitions
    if len(_partitions) >= m:
        return _partitions
    table = [1] + [0] * (m - 1)
    _divide(table, _euler_terms(m), 1)
    if len(_partitions) < _PARTITIONS_KEPT:
        _partitions = table if m <= _PARTITIONS_KEPT else table[:_PARTITIONS_KEPT]
    return table


def _euler_terms(m: int) -> list:
    """The terms (e, c) of (y;y) with 0 < e < m by increasing e: the generalized
    pentagonal numbers k(3k-1)/2 and k(3k+1)/2, k >= 1, with sign (-1)^k."""
    terms = []
    k = 1
    while (e := k * (3 * k - 1) // 2) < m:
        c = -1 if k % 2 else 1
        terms += [(e, c), (e + k, c)] if e + k < m else [(e, c)]
        k += 1
    return terms


def _is_euler(terms: list, c0: int, m: int) -> bool:
    """Whether c0 + sum(c * y^e) over terms (e, c), all with e < m, is (y;y) below y^m."""
    return c0 == 1 and terms == _euler_terms(m)


def _divide(out: list, terms: list, c0: int) -> None:
    """Divide out in place by c0 + sum(c * q^e) over terms (e, c), e >= 1 by increasing e.

    out holds the dividend on entry and the quotient, to as many terms,
    on exit; the right side of each coefficient lives in it until the
    recurrence makes it final.  The quotient is found one block of
    _BLOCK coefficients at a time: terms with exponent below _BLOCK run
    in the per-coefficient recurrence, and once a block is final every
    farther term subtracts c times the block from the right side of later
    blocks, one C-level map per term.  The coefficients may be any
    integers, packed ones too: the recurrence only adds, subtracts and
    multiplies by the terms' coefficients.
    """
    n = len(out)
    near = [(e, c) for e, c in terms if e < _BLOCK]
    far = [(e, c) for e, c in terms if _BLOCK <= e < n]
    pos = c0 == 1
    for b0 in range(0, n, _BLOCK):
        b1 = min(b0 + _BLOCK, n)
        for k in range(b0, b1):
            acc = out[k]
            for e, c in near:
                if e > k:
                    break
                ye = out[k - e]
                if ye:
                    if c == 1:
                        acc -= ye
                    elif c == -1:
                        acc += ye
                    else:
                        acc -= c * ye
            out[k] = acc if pos else -acc
        block = out[b0:b1]
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


# The cost of a power k >= 2 below q^n of a base with t live terms, in
# the time of one 30-bit digit product of a big-integer multiplication.
# Miller's recurrence takes _MILLER_STEP per term and coefficient; packed
# squaring takes one Karatsuba product per squaring and per set bit of k
# below the top one, on n slots, plus _SLOT per slot to pack, truncate and
# unpack.  Measured by raising (q;q) at 250-4000 coefficients to k = 2-12,
# the cubic theta series a(q) and b(q) at 334 and 1001 to k = 2-5, and
# JTP(1,5) at 500 and 2000 to k = 2, 3, 5 and 9 (best of 5, Python 3.11):
# a Miller step took 50-170 ns, more for wider coefficients, and a
# Karatsuba digit product 1.1-2.2 ns past 1000 digits, so a step is about
# 60 digit products; packing, truncating and unpacking took 0.15-0.3 us
# per slot.  Against Miller, packing took 0.03-0.65 times as long for
# slots of 8 to 32 bits, and 0.54-1.35 for wider ones: (q;q)^7 at 1000
# coefficients, 64-bit slots, took 8.1 ms packed against 6.7 ms by
# Miller.  The estimate picked the faster way in 55 of these 63 cases;
# in the other 8 it kept Miller where packing took 0.36-0.99 times as
# long, 6 of them at k = 9 or 12.
_MILLER_STEP = 60
_SLOT = 120
# the operand length in 30-bit digits above which CPython multiplies by Karatsuba
_KARATSUBA_CUTOFF = 70


def _packing_pays(n: int, terms: int, k: int, bits: int) -> bool:
    """Whether `_power_packed` is estimated to raise a base with that many live
    terms to the power k >= 2 below q^n faster than Miller's recurrence.

    bits is the bit length of the slot bound; the estimate reads only these
    sizes, and it grows with bits, so a lower bound on bits that does not
    pay rules packing out.
    """
    digits = -(-8 * _slot_bytes(bits) * n // 30)
    product = 1
    while digits > _KARATSUBA_CUTOFF:
        digits = (digits + 1) // 2
        product *= 3
    product *= digits * digits
    products = k.bit_length() + bin(k).count("1") - 2
    return products * product + _SLOT * n < _MILLER_STEP * n * (terms - 1)


def _power_packed(live: list, k: int, n: int, bound: int) -> list:
    """f^k below q^n, k >= 2, for f the sum of c*q^e over live, all e < n, by
    left-to-right square-and-multiply on one integer of n packed slots.

    bound is norm^(k-1) * top, norm the sum and top the largest of the |c|.
    """
    # Why every slot is exact.  Let f^j be the untruncated power.  For
    # 1 <= j <= k and every m, |[q^m] f^j| = |sum_i [q^i] f^(j-1) * c_(m-i)|
    # <= ||f^(j-1)||_1 * top <= norm^(j-1) * top <= bound, as ||g*h||_1 <=
    # ||g||_1 * ||h||_1 and norm >= 1.  W is the least of 8, 16, 32 and 64
    # bits, or else the least multiple of 8, with bound < 2^(W-1).
    # `_pack` makes F = sum_e c * 2^(W*e) exactly.
    # Suppose A and B are sum_(i<n) a_i * 2^(W*i) and sum_(i<n) b_i *
    # 2^(W*i), with a_i and b_i the coefficients of f^a and f^b below q^n,
    # a + b <= k.  Then A*B = sum_m p_m * 2^(W*m) with p_m = sum_i a_i *
    # b_(m-i), which for m < n is [q^m] f^(a+b), so |p_m| <= bound.  Mod
    # 2^(W*n), A*B plus the bias, 2^(W-1) in each of n slots, is
    # sum_(m<n) (p_m + 2^(W-1)) * 2^(W*m), whose digits lie in [0, 2^W),
    # so that sum is less than 2^(W*n) and is what the mask keeps; less
    # the bias it is the packed f^(a+b) below q^n.  By induction each
    # square and each product by F is exact, and so is the result, whose
    # slots `_unpack` reads.
    w = _slot_bytes(bound.bit_length())
    bits = 8 * w
    bias = _bias(w, n)
    mask = (1 << bits * n) - 1
    dense = [0] * n
    for e, c in live:
        dense[e] = c
    F = _pack(dense, w)
    G = F
    for bit in bin(k)[3:]:
        G = ((G * G + bias) & mask) - bias
        if bit == "1":
            G = ((G * F + bias) & mask) - bias
    return _unpack(G, w, n)


def pow_sparse(exps: list, cofs: list, k: int, n: int) -> list:
    """The k-th power (any integer k) of a sparse polynomial, truncated to n terms.

    Requires exps sorted with exps[0] == 0 and a nonzero constant term
    c0 = cofs[0]; a negative k also needs c0 in (1, -1), so that f^k has
    integer coefficients.  One pass of J.C.P. Miller's recurrence for
    g = f^k (Knuth, TAOCP vol. 2, 4.7), starting from g_0 = c0^k,

        m * c0 * g_m = sum_{j>=1} ((k+1) * e_j - m) * c_j * g_{m-e_j},

    whose right side is an exact multiple of m * c0 because g has integer
    coefficients.  A base in q^d alone is raised in q and spread out again.
    For k >= 2, in that step, `_power_packed` raises the base by squaring
    on one packed integer instead, when `_packing_pays` estimates that to
    cost less.
    """
    c0 = cofs[0] if exps[0] == 0 else 0
    if c0 == 0:
        raise ValueError("pow_sparse needs a nonzero constant term")
    if k < 0 and c0 not in (1, -1):
        raise ValueError(f"pow_sparse cannot raise constant term {c0} to the power {k}")
    live = [(e, c) for e, c in zip(exps, cofs) if e < n]
    d = math.gcd(*(e for e, _ in live))
    if d > 1:
        short = pow_sparse([e // d for e, _ in live], [c for _, c in live], k, (n - 1) // d + 1)
        out = [0] * n
        out[::d] = short
        return out
    if k > 1:
        norm, top = sum(abs(c) for _, c in live), max(abs(c) for _, c in live)
        # norm^(k-1) * top has at least this many bits; pricing it first
        # spares computing a huge power when k is large
        least = (k - 1) * (norm.bit_length() - 1) + top.bit_length()
        if _packing_pays(n, len(live), k, least):
            bound = norm ** (k - 1) * top
            if _packing_pays(n, len(live), k, bound.bit_length()):
                return _power_packed(live, k, n, bound)
    out = [0] * n
    if k == 1:
        for e, c in live:
            out[e] += c
        return out
    # c0^|k| is c0^k whenever k < 0, since then c0 is 1 or -1
    out[0] = c0 ** abs(k)
    if k == 0:
        return out
    terms = [(e, (k + 1) * e * c, c) for e, c in live[1:]]
    active = []
    nt = len(terms)
    hi = 0
    for m in range(1, n):
        while hi < nt and terms[hi][0] <= m:
            active.append(terms[hi])
            hi += 1
        acc = 0
        for e, kec, c in active:
            g = out[m - e]
            if g:
                acc += (kec - m * c) * g
        out[m] = acc // (m * c0)
    return out


def backend_name() -> str:
    """The kernel implementation in use; there is only the pure-Python one."""
    return "python"
