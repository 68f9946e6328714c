"""The kernels: pure-Python hot loops for truncated series arithmetic.

This is the package's one kernel implementation; there is no compiled
extension.  All kernels take plain lists of Python ints and an output
length ``n`` (the truncation order plus one) and return a fresh list of
length ``n``.  Coefficients are arbitrary-precision integers throughout;
nothing here may introduce floats or rounding.

The sparse kernels take the nonzero terms of one operand as sorted
exponent and coefficient lists, so their cost is O(n) per term rather
than O(n) per coefficient: `mul_sparse` multiplies by a sparse series,
`pow_sparse` raises one to any power and `div_sparse` divides by one, in
a single pass each; the package uses no other kernel.  `mul_sparse` also
takes its dense operand as a series in q^stride, and each term is one
strided slice of the output updated by a C-level ``map``, so the loop
the interpreter runs is over the terms only.  `mul_dense` and
`invert_dense` are the schoolbook forms, kept as the slow references
that the tests check `Series.__mul__`, `Series.power` and `Series.invert`
against.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import add, mul, sub


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

    The output is a dense list in q: out[e + stride*i] gets c*xs[i].  Each
    term is one strided slice of the output, updated by a C-level map.
    """
    out = [0] * n
    lx = len(xs)
    for e, c in zip(exps, cofs):
        hi = min(lx, (n - e + stride - 1) // stride)
        if hi <= 0:
            continue
        window = slice(e, e + stride * hi, stride)
        if c == 1:
            out[window] = map(add, out[window], xs)
        elif c == -1:
            out[window] = map(sub, out[window], xs)
        else:
            out[window] = map(add, out[window], map(mul, repeat(c, hi), xs))
    return out


def div_sparse(xs: list, exps: list, cofs: list, n: int) -> list:
    """Divide dense xs by a sparse polynomial, truncated to n terms.

    The divisor terms must be sorted by exponent with exps[0] == 0 and
    cofs[0] in (1, -1), so the quotient recurrence stays integral.
    """
    c0 = cofs[0] if exps and exps[0] == 0 else 0
    if c0 == 0:
        raise ValueError("div_sparse needs a nonzero constant term")
    if c0 not in (1, -1):
        raise ValueError(f"div_sparse cannot divide by constant term {c0}")
    out = [0] * n
    lx = len(xs)
    nt = len(exps)
    pos = c0 == 1
    for k in range(n):
        acc = xs[k] if k < lx else 0
        for t in range(1, nt):
            e = exps[t]
            if e > k:
                break
            ye = out[k - e]
            if ye:
                c = cofs[t]
                if c == 1:
                    acc -= ye
                elif c == -1:
                    acc += ye
                else:
                    acc -= c * ye
        out[k] = acc if pos else -acc
    return out


def pow_sparse(exps: list, cofs: list, k: int, n: int) -> list:
    """The k-th power (any integer k) of a sparse polynomial, truncated to n terms.

    Requires exps sorted with exps[0] == 0 and a nonzero constant term
    c0 = cofs[0]; a negative k also needs c0 in (1, -1), so that f^k has
    integer coefficients.  One pass of J.C.P. Miller's recurrence for
    g = f^k (Knuth, TAOCP vol. 2, 4.7), starting from g_0 = c0^k,

        m * c0 * g_m = sum_{j>=1} ((k+1) * e_j - m) * c_j * g_{m-e_j},

    whose right side is an exact multiple of m * c0 because g has integer
    coefficients.  A base in q^d alone is raised in q and spread out again.
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
