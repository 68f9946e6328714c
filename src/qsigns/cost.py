"""What an expansion plan costs: the price of each kernel route, how wide the coefficients grow, and which seed and order price lowest.

`price` gives the time of each route the kernels of `qsigns._backend`
take, from its sizes, in the unit of `_backend._MILLER_STEP`.
`pow_sparse` asks `by_table` which route raises (y;y)^-2 and ^-3.

`plan` hands `search` its sparse powers, each with its shape at the
reference horizon `REFERENCE_T` (its terms as the kernels price them,
its absolute sum, its step) and the factors of one unit of it.
`search` prices every pass for the route its kernel takes, at the
width the growth estimate gives the accumulator's coefficients when the
pass runs.

The coefficients of prod (q^a;q^b)^delta grow like exp(2 pi sqrt(X n)),
about 9.07 sqrt(X n) bits at q^n, where X is the largest order of the
product's pole at a cusp h/c of the modular curve, over c dividing the
lcm N of the b's and gcd(h, c) = 1.  Near q = e^(2 pi i h/c - t) the log
of (q^a;q^b)^delta grows as pi^2 / t times

    -delta g^2 P2({h a / g}) / (b c^2),  g = gcd(b, c),  P2(x) = x^2 - x + 1/6,

the order of a generalized eta product at a cusp (S. Robins,
"Generalized Dedekind eta-products", Contemp. Math. 166, 1994), and the
saddle point turns a pole of order X into coefficients exp(2 pi sqrt(X
n)); so 1/(q;q) has X = 1/6, Hardy and Ramanujan's exp(pi sqrt(2n/3)).
Where X <= 0 no cusp has a pole, and the coefficients stay small.  The
estimate is exact: the orders are integers over a common denominator
6 N^3, bits come from `math.isqrt`, and `growth` is a `Fraction`.  Where
the cusps are too many to search, or a b too large to factor, factors
are bounded alone (`_cusps`), and X is an upper bound.
"""

from __future__ import annotations

import functools
import math
from itertools import islice
from operator import add

from ._backend import _MILLER_STEP, _PACK_MAX, _PARTITIONS_KEPT, _is_euler, _passes_pay, _slot_bytes

# the horizon at which plans count the terms of their sparse series and
# the width of their coefficients.  Every seed and order of the 39 specs
# the benchmark plans (census at T = 13999, verify at 5000, catalog at
# 1500, corpus at 1200, 1^7 2^-2 3^-1 at 3000), theta atoms included, was
# timed (best of 5, Python 3.11, 2 vCPUs on a shared host).  Priced at
# 1500, each plan is within 5% of the fastest of its spec but period8's,
# 1.19 times it where the old weights' plan took 1.29; priced at 10000,
# the plans of 1^9 3^-9, period8, period9 and hirschhorn-a and -b took
# 1.21-1.55 times the fastest.
REFERENCE_T = 1500

# the most powers whose every order `search` tries
_SEARCHED = 6

# 2 pi / ln 2 = 9.0647..., the bits of exp(2 pi sqrt(X n)) per sqrt(X n),
# rounded up, as a numerator and a denominator
_BITS_PER_ROOT = 907, 100

# the most values of h, up to sign, that the cusp search tries for one c,
# and the most cusps and the most values of c it tries in all: past the
# first two a factor takes its extreme order at that c, past the last its
# largest at any cusp.  A search's widths cost time in the number of cusps.
_CUSP_SEARCH = 256
_CUSPS = 256


def price(route: str, n: int, terms: int, bits: int = 0, d: int = 1) -> int:
    """The time of one route below q^n by a series of that many terms, in digits (`_MILLER_STEP`'s unit).

    bits is the width of the coefficients the route runs on: the slot
    bound of a pass, the quotient of a division, the slot of a packed
    one.  "mul" is that many passes of `mul_sparse` at the slot width
    `_slot_bytes` gives, and with no terms the packing and unpacking
    around the passes of one call; "miller" is Miller's recurrence;
    "divide" is one `div_sparse` of one residue class in y, by the
    compiled step, or of several in q; "packed" is one of d classes
    packed into slots of bits bits; "table" a read of the partition
    table, free up to `_PARTITIONS_KEPT` and otherwise the division that
    makes it.  `_backend._passes_pay` is price("mul", 1, k - 1, bits) <
    `_MILLER_STEP`, written out there.

    Fitted by least squares to 390 timed calls, each timed beside a run of
    Miller's recurrence for (q;q)^-5 at 600 coefficients whose step is 60
    (best of 3 to 5, Python 3.11, 2 vCPUs on a shared host): Miller's
    recurrence for (q;q) and JTP(1,5) to k = -3, -7 and -24 at 300-3000
    coefficients, 59-67 a step; divisions by (q;q), JTP(1,5) and JTP(2,7)
    at 60-3000 coefficients of 3 to 600 bits, each call about 30000, a
    term at a coefficient 17 below 30 bits and 26 from there, plus one
    per 70 bits (median error 7%; 26 is the term of (q;q), whose
    divisions took 24-25, where those by JTPs took up to 29); packed
    divisions by (q^d;q^d) and JTP(d,5d), d = 2-16, at 1000-6000
    coefficients (median error 4%, at most 19%); and 1 and 3 passes of
    (q;q) and JTP(1,5) at 1000 and 3000 coefficients, 0.87-1.05 of
    8w / 30 a pass and term, and 81 plus 5.4 a byte of slot per
    coefficient around them.
    """
    if route == "mul":
        return n * (terms * 8 * _slot_bytes(bits) // 30 if terms else 81 + 5 * _slot_bytes(bits))
    if route == "miller":
        return n * terms * _MILLER_STEP
    if route == "table" and n <= _PARTITIONS_KEPT:
        return 0
    if route == "packed":
        digits = d * bits // 30 + 1
        return n // d * (900 + 125 * d + terms * (9 + 2 * digits // 5) + 3 * d * digits // 2)
    return 30000 + n * terms * ((17 if bits < 30 else 26) + bits // 70)


def by_table(k: int, live: list, c0: int, n: int) -> bool:
    """Whether `pow_sparse` raises c0 + sum c y^e over the live terms (e, c) to k = -2 or -3 below y^n
    by the partition table and |k| - 1 divisions: where the series is (y;y) and that prices below
    Miller's recurrence."""
    return _is_euler(live[1:], c0, n) and _divisions(k, n, len(live) - 1) < price("miller", n, len(live) - 1)


def _divisions(k: int, n: int, terms: int) -> int:
    """The price of (y;y)^k, k < 0, below y^n by the partition table and |k| - 1 divisions.

    The j-th division runs on the coefficients of (y;y)^-j, below
    exp(pi sqrt(2jm/3)) < 2^isqrt(14jm) at y^m, as (pi sqrt(2/3) / ln 2)^2
    < 14.  `price` was fitted on quotients as wide throughout, and these
    are on average 2/3 as wide over m < n, so each division is priced at
    isqrt(6jn) bits.
    """
    return sum(price("divide" if j > 1 else "table", n, terms, math.isqrt(6 * j * n)) for j in range(1, 1 - k))


def _multiplication(m: int, length: int, terms: int, slot: int) -> int:
    """The price of one `mul_sparse` call: its packing of m coefficients and its passes, of that
    many terms, over length coefficients in all, in slots as wide as slot bits."""
    return price("mul", m, 0, slot) + price("mul", length, terms, slot)


def growth(factors) -> "Fraction":
    """X of the product of (q^a;q^b)^delta over the factors (a, b, delta).

    Where `_cusps` bounds factors alone, X is an upper bound.
    """
    from fractions import Fraction  # not at import: it loads decimal

    rows, scale = cusp_orders([list(factors)])
    return Fraction(max(rows[0]), scale)


def bits(value: int, scale: int, n: int) -> int:
    """About the bits of the coefficients at q^n, for X = value / scale; 0 when X <= 0."""
    if value <= 0:
        return 0
    return math.isqrt(_BITS_PER_ROOT[0] ** 2 * value * n // (_BITS_PER_ROOT[1] ** 2 * scale))


def cusp_orders(groups: list) -> tuple[list[list[int]], int]:
    """6 N^3 times the order of each group of factors (a, b, delta) at each cusp searched, and 6 N^3.

    At h/c, a factor's order -delta g^2 P2({h a / g}) / (b c^2) is
    -delta (6 j^2 - 6 j g + g^2) (N / b) (N / c)^2 / (6 N^3), with
    j = h a mod g, so the rows are integers; a group's row sums those of
    its factors.
    """
    pairs = frozenset((a, b) for group in groups for a, b, _ in group)
    return [_row(tuple(group), pairs) for group in groups], 6 * _cusps(pairs)[0] ** 3


def _divisors(b: int) -> set:
    """The divisors of b, by trial division."""
    return {e for d in range(1, math.isqrt(b) + 1) if b % d == 0 for e in (d, b // d)}


@functools.lru_cache(maxsize=None)
def _cusps(pairs: frozenset) -> tuple[int, int, tuple]:
    """N, the lcm of the b's of the factors (q^a;q^b); M, the lcm of the b's searched; and the
    cusps h/c searched, as (c, h).

    c runs over the divisors of M.  With u = gcd(a, g), h a mod g =
    u (h a/u mod g/u) depends on h only mod g/u, and P2(1 - x) = P2(x),
    so h runs over the units mod the lcm G of those moduli up to G/2:
    the units mod c map onto the units mod G.  An euler, whose g divides
    a, does not depend on h.  Where G has more than `_CUSP_SEARCH` such
    units, or `_CUSPS` cusps are already searched, h is None: each factor
    takes its extreme order over every j at that c instead, at j = 0 for
    delta < 0 and j = g/2 for delta > 0.

    The b's searched are those up to `REFERENCE_T`, or none when their
    lcm has more than `_CUSPS` divisors, so no larger b is factored.  A
    factor whose b does not divide M is bounded alone, by its largest
    order at any cusp; then a last cusp, c = None, stands for every c
    that does not divide M, where the orders of the factors searched
    are those at gcd(c, M) times (gcd(c, M) / c)^2, so their sum is at
    most the largest searched or 0.
    """
    N = math.lcm(*(b for _, b in pairs))
    cs = {1}
    for b in sorted({b for _, b in pairs if b <= REFERENCE_T}):
        cs = {math.lcm(c, e) for c in cs for e in _divisors(b)}
        if len(cs) > _CUSPS:
            cs = {1}
            break
    M = max(cs)
    searched = [(a, b) for a, b in pairs if M % b == 0]
    cusps = []
    for c in sorted(cs):
        G = math.lcm(*(g // math.gcd(a, g) for a, b in searched for g in [math.gcd(b, c)]))
        hs = list(islice((h for h in range(G // 2 + 1) if math.gcd(h, G) == 1), _CUSP_SEARCH + 1))
        fits = len(hs) <= _CUSP_SEARCH and len(cusps) + len(hs) <= _CUSPS
        cusps += [(c, h) for h in hs] if fits else [(c, None)]
    if len(searched) < len(pairs):
        cusps.append((None, None))
    return N, M, tuple(cusps)


@functools.lru_cache(maxsize=4096)
def _row(group: tuple, pairs: frozenset) -> list[int]:
    """The orders of one group of factors at the cusps of pairs, for `cusp_orders`.

    A factor bounded alone, whose b is at least 2, takes its largest
    order at any cusp at every one: -delta / (6b) at c = 1 for delta < 0,
    as P2 <= 1/6 and g <= c; for delta > 0 the order at c = b and j = b //
    2, as over the c dividing b it grows with g = c, and at any other c,
    where g <= c / 2, it is at most delta / (48b).
    """
    N, M, cusps = _cusps(pairs)
    alone = sum(_order(delta, b, 1 if delta < 0 else b, b // 2 * (delta > 0), N)
                for _, b, delta in group if M % b)
    return [alone + sum(_order(delta, b, c, j, N) for a, b, delta in group if c and M % b == 0
                        for g in [math.gcd(b, c)] for j in [g // 2 * (delta > 0) if h is None else h * a % g])
            for c, h in cusps]


def _order(delta: int, b: int, c: int, j: int, N: int) -> int:
    """6 N^3 times the order of (q^a;q^b)^delta at a cusp h/c, with j = h a mod gcd(b, c)."""
    g = math.gcd(b, c)
    return -delta * (6 * j * j - 6 * j * g + g * g) * (N // b) * (N // c) ** 2


def search(powers: list, shapes: list, units: list, priced: "dict | None" = None) -> tuple[int, "int | None", tuple[int, ...]]:
    """The priced cost of expanding the sparse powers, the index of their seed, and the order of the others.

    shapes holds each power's terms as a pass, a division and Miller's
    recurrence price them, the sum of its absolute coefficients and its
    step, and units the factors (a, b, delta) of one unit of it.  priced
    memoises the price of each pass; searches that share it, as the
    theta-atom trials of one spec do, share their prices.

    The expansion keeps its accumulator in q^d, n/d coefficients long,
    where d is the gcd of the steps of the series applied so far: a
    series in q^s with d | s keeps d, and any other makes it gcd(d, s).
    Each pass is priced by `price` for the route its kernel takes, at the
    width its coefficients have when it runs: the growth estimate
    (`cusp_orders`) of the powers applied so far, at the reference
    horizon, where a factor (q^a;q^b) with b past it is at most a
    binomial and adds no growth.  A multiplication by a power k > 0 is
    one `mul_sparse` call: its packing, a first pass at n/d and k - 1
    passes at n/g, all in slots of that width plus k times the bits of
    the series' absolute sum, the kernel's bound.  Into a finer step g
    its first pass runs at n/d, with a stride.  A division by the power
    runs |k| times at n/g on the width of the quotient: in y when the
    divisor's step s divides g, with the partition table read in place
    of the first when the accumulator is still 1 and the divisor (y;y);
    else on the s/g residue classes packed into slots as wide as the
    kernel's bound, the accumulator's width plus the bits of the
    divisor's inverse and of n/s, with that inverse found first for a
    divisor other than (y;y); or in q^g past `_PACK_MAX` classes.  The
    accumulator starts as 1, in the step of the first power, or as a
    seed raised outright by `pow_sparse` in its own step, priced by the
    route that kernel takes: a free scatter at k = 1, passes or Miller's
    recurrence as `_passes_pay` picks at k >= 2, the table and divisions
    or Miller's recurrence at k = -2 and -3 of (y;y), whichever is
    priced lower, and Miller's recurrence at any other k.  A power -1 is
    not a seed: raising it is the division of 1 that the first pass
    makes anyway.  A seed that costs no more than the best plan without
    one is taken.  The seed and the order are chosen together to
    minimise the sum, and of equal sums the one that divides first.
    Not every order is tried.  A power k > 0 whose step is a multiple of
    a step d > 1 runs at n/d now and at no less later, so it is applied
    at once.  In q, every pass runs at n: a multiplication, whose orders
    at the cusps are all <= 0, so that it only narrows the coefficients,
    costs no more before a division than after it, and a division whose
    quotient is narrow costs as little first as anywhere, so such a
    division goes first, then the multiplications, and only the
    divisions left branch.  Of more than `_SEARCHED` powers, any power
    whose step d divides is applied at once.  The memo is keyed by the
    powers applied, a bit mask, and d.
    Terms and widths are counted at a fixed reference horizon, so the
    plan does not depend on T.  Binomials cost the same whatever the
    plan takes, so they are left out.
    """
    n = REFERENCE_T + 1
    steps = [shape[-1] for shape in shapes]
    # each power, and the inverse of one unit of it, as factors (a, b, delta);
    # a series that is 1 up to the horizon adds no growth
    units = [_near(unit) if step else () for unit, step in zip(units, steps)]
    # the orders are linear in delta: a power k of a unit has k times its
    # orders, and the inverse of the unit minus them
    pairs = frozenset((a, b) for unit in units for a, b, _ in unit)
    scale = 6 * _cusps(pairs)[0] ** 3
    rows = [_row(unit, pairs) for unit in units]
    inverses = [bits(-min(row), scale, n) if k < 0 else 0 for row, (*_, k) in zip(rows, powers)]
    rows = [[k * x for x in row] for row, (*_, k) in zip(rows, powers)]
    # sets of powers are bit masks: the cusp orders summed over each set and
    # its width, each found from those of the set without its last power,
    # and the bit of each division, whose price takes the width with it
    # applied
    orders: dict = {0: [0] * len(rows[0]) if rows else []}
    widths = {0: 0}
    divisions = [(k < 0) << i for i, (*_, k) in enumerate(powers)]
    # the order in which powers are tried: of equal prices the plan divides first
    indices = [i for i in range(len(powers)) if divisions[i]] + [i for i in range(len(powers)) if not divisions[i]]
    everything, many = (1 << len(powers)) - 1, len(powers) > _SEARCHED
    memo: dict = {}
    priced = {} if priced is None else priced

    def width(done, i):
        """The bits of the accumulator's coefficients once power i is applied after the powers in done."""
        if done | 1 << i not in widths:
            orders[done | 1 << i] = row = list(map(add, orders[done], rows[i]))
            widths[done | 1 << i] = bits(max(row), scale, n)
        return widths[done | 1 << i]

    def rest(done, d):
        """The least cost, and its order, of the powers not in done on an accumulator in q^d (d = 0: on 1)."""
        if done == everything:
            memo[done, d] = 0, ()
            return 0, ()
        todo = [i for i in indices if not done >> i & 1]
        if d > 1 or d and many:
            # a power k > 0 that runs at n/d now runs at no less later
            todo = next(([i] for i in todo if steps[i] % d == 0 and (not divisions[i] or many)), todo)
        elif d:
            # in q a multiplication, whose orders at the cusps are all <= 0,
            # costs no more before a division than after it; a division
            # with a narrow quotient costs as little first as anywhere
            todo = [i for i in todo if divisions[i] and not width(done, i)][:1] or [
                i for i in todo if not divisions[i]] or todo
        best = None
        for i in todo:
            # the memos are read here, not in the calls: most lookups find their entry
            g, child = math.gcd(d, steps[i]), done | 1 << i
            # a division is priced at the width of its quotient, a multiplication at
            # that of what it multiplies; the child's orders are found either way
            wider = widths.get(child)
            wider = width(done, i) if wider is None else wider
            w = wider if divisions[i] else widths[done]
            cost, order = memo.get((child, g)) or rest(child, g)
            key = powers[i], inverses[i], w, d, g
            here = priced.get(key)
            if here is None:
                here = priced[key] = _passes(powers[i], shapes[i], inverses[i], w, d, g)
            cost += here
            if best is None or cost < best[0]:
                best = cost, (i, *order)
        memo[done, d] = best
        return best

    best = (*(memo.get((0, 0)) or rest(0, 0)), None)
    for i, step in enumerate(steps):
        raised = _seed(powers[i], shapes[i])
        if raised is not None and raised <= best[0]:
            width(0, i)
            cost, order = memo.get((1 << i, step)) or rest(1 << i, step)
            if raised + cost <= best[0]:
                best = raised + cost, order, i
    return best[0], best[2], best[1]


def _seed(power: tuple, shape: tuple) -> "int | None":
    """The price of raising the power outright by `pow_sparse`, in its own step, as `search` prices a seed.

    None for a power -1, which is no seed: raising it is the division of
    1 that the first pass makes anyway.
    """
    (form, _, k), (passed, divided, recurred, norm, step) = power, shape
    if k == -1:
        return None
    m, slot = (REFERENCE_T + 1) // step if step else 1, k * norm.bit_length()
    raised = 0 if k == 1 else price("miller", m, recurred)
    if k > 1 and _passes_pay(k, slot):
        raised = _multiplication(m, (k - 1) * m, passed, slot)
    if form == "euler" and -4 < k < -1:
        raised = min(raised, _divisions(k, m, divided))
    return raised


def _passes(power: tuple, shape: tuple, inverse: int, w: int, d: int, g: int) -> int:
    """The price of applying the power to an accumulator in q^d, stepping to q^g: a
    multiplication on coefficients of w bits, a division into a quotient of w bits,
    inverse the bits of its divisor's inverse, as `search` prices them."""
    (form, _, k), (passed, divided, _, norm, step) = power, shape
    n = REFERENCE_T + 1
    m = n // g if g else 1
    classes = step // g if step else 1
    if k > 0:
        return _multiplication(m, (n // d if d else m) + (k - 1) * m, passed, w + k * norm.bit_length())
    if classes == 1:
        first = "table" if form == "euler" and not d else "divide"
        return price(first, m, divided, w) - (k + 1) * price("divide", m, divided, w)
    if classes > _PACK_MAX:
        return -k * price("divide", m, divided, w)
    slot = w + inverse + (m // classes).bit_length() + 1
    own = 0 if form == "euler" else price("divide", m // classes, divided, inverse)
    return -k * (own + price("packed", m, divided, slot, classes))


def _near(factors) -> tuple:
    """The factors (a, b, delta) with b up to the reference horizon: any other is at most a binomial below it."""
    return tuple(factor for factor in factors if factor[1] <= REFERENCE_T)


def multiplied(factors: list, powers: tuple, shapes: list, units: list) -> int:
    """The priced cost of multiplying the series of the factors (a, b, delta), dense in q, by each power.

    shapes and units are as `search` takes them.  Every pass runs at
    full length, in slots as wide as `search` prices them: the growth
    estimate of the series and the powers multiplied in so far, plus k
    times the bits of the power's absolute sum.
    """
    rows, scale = cusp_orders([
        _near(factors), *([(a, b, k * x) for a, b, x in _near(unit)] for (*_, k), unit in zip(powers, units)),
    ])
    n, cost = REFERENCE_T + 1, 0
    for i, ((*_, k), (passed, *_, norm, _)) in enumerate(zip(powers, shapes)):
        slot = bits(max(map(sum, zip(*rows[:i + 1]))), scale, n) + k * norm.bit_length()
        cost += _multiplication(n, k * n, passed, slot)
    return cost
