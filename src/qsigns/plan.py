"""Product specs, their sparse closed forms, and how `eta_quotient` plans them.

Spec grammar for quotients of q-Pochhammer products (also used by the
CLI): whitespace-separated tokens ``a.b^d`` meaning (q^a;q^b)^d and the
shorthand ``j^d`` meaning (q^j;q^j)^d; ``^d`` defaults to 1.

`ExpansionPlan.of` rewrites a spec as a product of sparse series, each
raised to a power, and names the one to raise outright:

* **Net exponents.** The exponents of repeated factors (q^a;q^b) are
  summed, so repeats merge and cancelling factors drop out
  (`net_exponents`, which `_schedule` reads too).
* **Jacobi triple products.** By the triple product identity
  (q^a;q^b)(q^{b-a};q^b) = JTP(a,b) / (q^b;q^b), where
  JTP(a,b) = sum_k (-1)^k q^{b k(k-1)/2 + a k} has O(sqrt(T/b)) terms.
  A factor with b = 2a is its own partner, and JTP(a,2a) is the theta
  atom phi(-q^a) below, so (q^a;q^{2a}) is netted as
  (q^a;q^a)/(q^{2a};q^{2a}) before anything is paired.  Any other
  partners whose net exponents share a sign are paired as often as the
  one nearer zero allows, into JTP(a,b) with 2a < b, and each pair
  moves its (q^b;q^b) into that factor's net exponent.
* **Theta atoms.** Four eta quotients are sparse theta series (R. J.
  Lemke Oliver, "Eta-quotients and theta functions", Adv. Math. 2013):
  Jacobi's (q;q)^3 = sum_{n>=0} (-1)^n (2n+1) q^{n(n+1)/2},
  psi(q) = (q^2;q^2)^2/(q;q) = sum_{n>=0} q^{n(n+1)/2},
  phi(-q) = (q;q)^2/(q^2;q^2) = sum_n (-1)^n q^{n^2} and
  phi(q) = (q^2;q^2)^5/((q;q)^2 (q^4;q^4)^2) = sum_n q^{n^2}.  Dilated by
  q -> q^s, each is an atom whose power is the common part of its
  `THETA_ATOMS` signature in the net exponents of the (q^b;q^b) factors.
  An atom is taken only when it lowers the cost estimate below, the one
  that lowers it most first.  So (q^2;q^2)^5 becomes the atom J(q^2),
  a free scatter, times two passes of (q^2;q^2): less work than one
  Miller power (q^2;q^2)^5.
* **Sparse powers, the seed and the order.**  What is left of the
  (q^b;q^b) factors is the pentagonal series.  Each sparse series is a
  (form, params, k) entry; `FORMS` maps the form to its term generator.
  The plan names one entry, the seed, to raise in one pass of Miller's
  power recurrence (`pow_sparse`), and it orders the others, each
  multiplied or divided in once per unit of k, or raised once and
  multiplied in once when |k| exceeds the length of its pass.  The
  expansion runs in the coarsest variable q^d it can: d is the gcd of
  the steps of the series applied so far, so (q^i;q^i)/(q^p;q^p) divides
  by (q^p;q^p) at T/p coefficients and then multiplies by (q^i;q^i)
  straight into every p-th coefficient (`mul_sparse` with a stride).
  Every order gives the same coefficients, since truncated
  series over Z form a commutative ring, but not the same work: the
  estimate charges each pass |k| * work * n/d, at the step d the
  accumulator has when the pass runs, and Miller's pass over a series in
  q^s work * n/s, or 0 for a free scatter when k = 1.  It picks the seed
  and the order together.  The work of a term is weighted
  (`_MUL`, `_DIV`, `_MILLER`, set from measurements of per-update
  kernels): a division costs twice a multiplication,
  a term whose coefficient is not +-1 more again, and Miller's
  recurrence, which multiplies at every term, three times, or 3.5 times
  to a negative power.
* **Binomial fallback.** Unpaired factors and factors with a > b stay
  binomials, multiplied or divided in one binomial 1-q^e, e = a+kb, at
  a time by slice arithmetic, with no kernel pass
  (`products._apply_factor`), which also serves the tests as the
  reference expansion of any spec.  A binomial to a power above T/e is
  multiplied in as its truncated binomial series instead.

`_schedule` orders the specs that `products.eta_quotients` expands at
one precision, and names the earlier result each may start from.  Specs
run by increasing sum of their net exponents, ties in input order, so
each spec runs after every spec it contains.  A spec contains an earlier
one when the difference of their net exponents plans into
multiplications only: no binomial, and every power, the seed included,
to a k > 0.  Each such power, a JTP, a pentagonal (q^b;q^b) or a theta
atom, has a positive sum of net exponents, so the container's sum is the
larger and it runs later.  Multiplied onto a dense series in q, every
pass of that plan runs at full length, in any order, so the estimate
charges it n * |k| * `_weight` per power.  The spec starts from the
contained result whose difference costs least, if that is below the
estimate that chose its own plan.  `_may_only_multiply` screens out most
differences before they are planned.

One generator, `theta_terms`, makes every sparse closed form but
Jacobi's cube: each is a list of sums c * sum_{n in Z} eps^n
q^{(A n^2 + B n)/2 + C}, given here as (A, B, C, eps), with c = 1 where
no c is named.  JTP(a,b) is (b, 2a-b, 0, -1), and so the pentagonal
(q^b;q^b) = JTP(b,3b) is (3b, -b, 0, -1); Q(M,j) is (3M, M-6j, 0, 1)
plus (3M, M+6j, j, 1) with c = -1, Cooper's form; phi(+-q^s) is
(2s, 0, 0, +-1); psi(q^s) is (4s, -2s, 0, 1), since
psi(q) = sum_{n in Z} q^{n(2n-1)}; and `products.theta_weighted` is
(9, 3, 0, 1) plus (9, 9, 1, 1) with c = -1.  Jacobi's (q^s;q^s)^3
takes the exponents of psi(q^s) and its own weights (-1)^n (2n+1),
which are no sign.
"""

from __future__ import annotations

import functools
import math
import re
from collections import Counter

from ._record import Record, setfield
from .series import InvalidParameter

__all__ = [
    "PochhammerFactor",
    "EtaQuotientSpec",
    "ExpansionPlan",
    "FORMS",
    "THETA_ATOMS",
]


# ----------------------------------------------------------------------
# Factor specifications
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(r"^(\d+)(?:\.(\d+))?(?:\^(-?\d+))?$")


class PochhammerFactor(Record):
    """One factor (q^a; q^b)^delta of a product."""

    __slots__ = ("a", "b", "delta")

    def __init__(self, a: int, b: int, delta: int = 1) -> None:
        if a < 1 or b < 1:
            raise InvalidParameter(f"factor offsets must be >= 1, got ({a}, {b})")
        setfield(self, "a", a)
        setfield(self, "b", b)
        setfield(self, "delta", delta)

    def __str__(self) -> str:
        base = str(self.a) if self.a == self.b else f"{self.a}.{self.b}"
        return f"{base}^{self.delta}"


class EtaQuotientSpec(Record):
    """A finite product of Pochhammer factors, prod (q^a;q^b)^delta."""

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[PochhammerFactor, ...]) -> None:
        if not factors:
            raise InvalidParameter("product spec needs at least one factor")
        setfield(self, "factors", factors)

    @classmethod
    def parse(cls, text: str) -> "EtaQuotientSpec":
        """Parse the ``a.b^d`` / ``j^d`` token grammar."""
        factors = []
        for token in text.split():
            m = _TOKEN_RE.match(token)
            if m is None:
                raise InvalidParameter(f"bad factor token {token!r}")
            a = int(m.group(1))
            b = int(m.group(2)) if m.group(2) else a
            d = int(m.group(3)) if m.group(3) else 1
            factors.append(PochhammerFactor(a, b, d))
        return cls(tuple(factors))

    def __str__(self) -> str:
        return " ".join(str(f) for f in self.factors)


def _as_spec(spec: "EtaQuotientSpec | str") -> EtaQuotientSpec:
    return EtaQuotientSpec.parse(spec) if isinstance(spec, str) else spec


# ----------------------------------------------------------------------
# Sparse closed forms
# ----------------------------------------------------------------------

def theta_terms(sums, limit: int) -> tuple[list[int], list[int]]:
    """The sum of c * sum_{n in Z} eps^n q^{(A n^2 + B n)/2 + C} over each (A, B, C, eps, c) in sums.

    Every sparse closed form below but Jacobi's cube is such a sum (eps =
    +-1).  Terms up to exponent limit, sorted, with colliding terms merged,
    so exponents are distinct and coefficients nonzero.  A + B even makes
    every exponent an integer.  Each side is walked outward, n = 0, 1, ...
    and then n = -1, -2, ..., until the exponent passes limit, and no
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


def jacobi_triple_terms(a: int, b: int, limit: int) -> tuple[list[int], list[int]]:
    """JTP(a,b) = (q^a, q^{b-a}, q^b; q^b) = sum_k (-1)^k q^{b k(k-1)/2 + a k}: (A, B, C, eps) = (b, 2a-b, 0, -1)."""
    return theta_terms(((b, 2 * a - b, 0, -1, 1),), limit)


def quintuple_terms(M: int, j: int, limit: int) -> tuple[list[int], list[int]]:
    """Sparse Q(M,j) = (q^j, q^{M-j}, q^M; q^M)(q^{M-2j}, q^{M+2j}; q^{2M}), 1 <= j < M/2.

    By the quintuple product identity (S. Cooper, Int. J. Number Theory 2,
    2006) Q(M,j) = sum_n q^{M n(3n+1)/2} (q^{-3jn} - q^{j(3n+1)}): the sums
    (3M, M-6j, 0, 1) and, with c = -1, (3M, M+6j, j, 1).
    """
    if limit < M - 2 * j:
        # n = 0 gives 1 - q^j; every other n lies at or above q^(M-2j) (n = -1)
        exps = [e for e in (0, j) if e <= limit]
        return exps, [1, -1][:len(exps)]
    return theta_terms(((3 * M, M - 6 * j, 0, 1, 1), (3 * M, M + 6 * j, j, 1, -1)), limit)


def _check_quintuple(M: int, j: int) -> None:
    """Reject M and j outside the domain of Q(M,j): M >= 3 and 1 <= j < M/2."""
    if M < 3:
        raise InvalidParameter(f"need M >= 3, got {M}")
    if not 1 <= j or not 2 * j < M:
        raise InvalidParameter(f"need 1 <= j < M/2, got j={j}, M={M}")


def pentagonal_terms(step: int, limit: int) -> tuple[list[int], list[int]]:
    """Sparse expansion of (q^step; q^step) = JTP(step, 3 step): exponents step*k(3k+-1)/2, signs (-1)^k."""
    return jacobi_triple_terms(step, 3 * step, limit)


def jacobi_cube_terms(s: int, limit: int) -> tuple[list[int], list[int]]:
    """Sparse (q^s;q^s)^3 = sum_{n>=0} (-1)^n (2n+1) q^{s n(n+1)/2} (Jacobi's identity)."""
    exps, cofs = triangular_terms(s, limit)
    return exps, [(-1) ** n * (2 * n + 1) for n in range(len(exps))]


def triangular_terms(s: int, limit: int) -> tuple[list[int], list[int]]:
    """Sparse psi(q^s) = (q^{2s};q^{2s})^2 / (q^s;q^s) = sum_{n in Z} q^{s n(2n-1)}: (4s, -2s, 0, 1)."""
    return theta_terms(((4 * s, -2 * s, 0, 1, 1),), limit)


# form: sparse terms of the series, called with its parameters and a limit
FORMS = {
    "jtp": jacobi_triple_terms,
    "euler": pentagonal_terms,
    "J": jacobi_cube_terms,
    "psi": triangular_terms,
    # phi(+-q^s) = (q;q)^2 / (q^2;q^2) and (q^2;q^2)^5 / ((q;q)^2 (q^4;q^4)^2) in q^s:
    # sum_{n in Z} (+-1)^n q^{s n^2}, (2s, 0, 0, +-1)
    "phi(-q)": lambda s, limit: theta_terms(((2 * s, 0, 0, -1, 1),), limit),
    "phi(q)": lambda s, limit: theta_terms(((2 * s, 0, 0, 1, 1),), limit),
}

# theta atom: its signature {b: exponent of (q^b;q^b)}; its form has the same name
THETA_ATOMS = {
    "J": {1: 3},
    "psi": {2: 2, 1: -1},
    "phi(-q)": {1: 2, 2: -1},
    "phi(q)": {2: 5, 1: -2, 4: -2},
}


# ----------------------------------------------------------------------
# The plan and its cost estimate
# ----------------------------------------------------------------------

# a sparse series raised to a power: (form, its parameters, k)
Power = tuple[str, tuple[int, ...], int]


class ExpansionPlan(Record):
    """A spec rewritten as the recipe `eta_quotient` follows: seed times powers times binomials.

    The seed (or None) and each of powers is (form, params, k), the series
    ``FORMS[form](*params, limit)`` to the power k: "jtp" (a, b) is
    JTP(a,b) with 2a < b, "euler" (b,) the pentagonal (q^b;q^b), and a
    `THETA_ATOMS` name (s,) that theta atom in q^s.  The seed is raised outright, first; powers
    are multiplied or divided in once per unit of k, in the order the cost
    estimate picks together with the seed, each in the coarsest q^d it
    can run in.  Each (a, b, d) in binomials is (q^a;q^b)^d, applied one
    binomial at a time.
    """

    __slots__ = ("seed", "powers", "binomials")

    def __init__(self, seed: "Power | None", powers: tuple[Power, ...],
                 binomials: tuple[tuple[int, int, int], ...]) -> None:
        setfield(self, "seed", seed)
        setfield(self, "powers", powers)
        setfield(self, "binomials", binomials)

    @classmethod
    def of(cls, spec: "EtaQuotientSpec | str") -> "ExpansionPlan":
        """Net the exponents of the spec's factors, with (q^a;q^{2a}) as
        (q^a;q^a)/(q^{2a};q^{2a}), pair partners into JTPs, take the theta
        atoms that lower the estimated cost, then seed and order the powers
        as the estimate picks.  Plans are cached per parsed spec, so a spec
        and its text share one plan."""
        return _plan(_as_spec(spec))[0]


def net_exponents(spec: EtaQuotientSpec) -> Counter:
    """The summed exponent of each (q^a;q^b) in the spec, with (q^a;q^{2a}) as (q^a;q^a)/(q^{2a};q^{2a}).

    Factors that cancel keep their key, with exponent 0.
    """
    net: Counter = Counter()
    for f in spec.factors:
        if f.b == 2 * f.a:
            # (q^a;q^{2a}) = (q^a;q^a) / (q^{2a};q^{2a})
            net[f.a, f.a] += f.delta
            net[f.b, f.b] -= f.delta
        else:
            net[f.a, f.b] += f.delta
    return net


@functools.lru_cache(maxsize=1024)
def _plan(spec: EtaQuotientSpec) -> tuple[ExpansionPlan, int]:
    """The plan of the spec and the cost estimate that chose it."""
    net = net_exponents(spec)
    # (q^a;q^b)(q^{b-a};q^b) = JTP(a,b) / (q^b;q^b), as often as the
    # exponent nearer zero when the two share a sign (a >= b has no partner)
    jtps = []
    for a, b in list(net):
        x, y = net[a, b], net[b - a, b]
        if x * y > 0:
            k = min(x, y, key=abs)
            net[a, b] -= k
            net[b - a, b] -= k
            net[b, b] -= k
            jtps.append(("jtp", (min(a, b - a), b), k))
    powers, (cost, seed, order) = _with_theta_atoms([
        *jtps,
        *(("euler", (b,), d) for (a, b), d in net.items() if a == b and d),
    ])
    return ExpansionPlan(
        seed=None if seed is None else powers[seed],
        powers=tuple(powers[i] for i in order),
        binomials=tuple((a, b, d) for (a, b), d in net.items() if a != b and d),
    ), cost


def _toward_zero(d: int, e: int) -> int:
    """The quotient d / e rounded toward zero."""
    return d // e if d * e >= 0 else -(-d // e)


def _with_theta_atoms(powers: list[Power]) -> tuple[list[Power], tuple]:
    """Take theta atoms out of the eulers greedily, first the one that lowers the cost estimate most.

    Returns the powers and their `_cost`.
    """
    estimate = _cost(powers)
    while trials := _atom_trials(powers):
        trial, best = min(((trial, _cost(trial)) for trial in trials), key=lambda t: t[1][0])
        if best[0] >= estimate[0]:
            break
        powers, estimate = trial, best
    return powers, estimate


def _atom_trials(powers: list[Power]) -> list[list[Power]]:
    """powers with one more theta atom in front of the others, for each atom the eulers hold.

    The atom's power is the common part of its signature in the eulers;
    the eulers keep what it leaves, which holds that atom no more.
    """
    eulers = {params[0]: d for form, params, d in powers if form == "euler"}
    if not eulers:
        return []
    atoms = [p for p in powers if p[0] in THETA_ATOMS]
    others = [p for p in powers if p[0] not in THETA_ATOMS and p[0] != "euler"]
    trials = []
    for name, signature in THETA_ATOMS.items():
        for s in sorted({m // b for m in eulers for b in signature if m % b == 0}):
            parts = [_toward_zero(eulers.get(s * b, 0), x) for b, x in signature.items()]
            if 0 in parts or len({p > 0 for p in parts}) > 1:
                continue
            k = min(parts, key=abs)
            rest = dict(eulers)
            for b, x in signature.items():
                rest[s * b] -= k * x
            trials.append([
                *atoms, (name, (s,), k), *others,
                *(("euler", (b,), d) for b, d in rest.items() if d),
            ])
    return trials


# the horizon at which plans count the terms of their sparse series
_REFERENCE_T = 10_000

# the work of one coefficient update by one term, in half the time of a
# multiplication by a term +-1: a multiplication and a division by a term
# +-1 and by any other term, and Miller's recurrence to a power k > 0 and
# k < 0, which multiplies at every term.  Set so that the estimate picks
# the order that ran fastest for the census and catalog quotients, and
# kept so that every plan stays as it was, although the shift-and-add
# multiplication now costs less against a division and Miller's
# recurrence than they say (the measurements are in CHANGES.md).
_MUL, _DIV = (2, 4), (4, 6)
_MILLER, _MILLER_NEGATIVE = 6, 7


def _cost(powers: list[Power]) -> tuple[int, "int | None", tuple[int, ...]]:
    """The estimated cost of expanding the sparse powers, the index of their seed, and the order of the others.

    The expansion keeps its accumulator in q^d, n/d coefficients long,
    where d is the gcd of the steps of the series applied so far: a
    series in q^s with d | s keeps d, and any other makes it gcd(d, s).
    It starts as 1, a constant: the seed is raised outright, by Miller's
    recurrence in its own step, or by a free scatter when k = 1; with no
    seed the accumulator starts as 1 in the step of the first power.  A
    multiplication into a finer step g runs at n/d for its first unit
    and n/g for the rest, a division at n/g throughout.  The seed and
    the order are chosen together to minimise the sum; a power the
    current step divides is best applied at once, as d only gets finer,
    so only the others branch.  Terms are counted up to a fixed
    reference horizon, and every count grows as its square root, so
    neither comparing two costs nor the plan depends on T.  Binomials
    cost the same whatever the plan takes, so they are left out.
    """
    n = _REFERENCE_T + 1
    steps = [_reference_shape(form, params)[2] for form, params, _ in powers]
    weights = [_weight(*power) for power in powers]
    memo: dict = {}

    def length(d: int) -> int:
        return n // d if d else 1

    def passes(i: int, d: int, g: int) -> int:
        k = powers[i][2]
        if k < 0:
            return -k * weights[i] * length(g)
        return weights[i] * (length(d or g) + (k - 1) * length(g))

    def rest(todo: tuple[int, ...], d: int) -> tuple[int, tuple[int, ...]]:
        """The least cost, and its order, of the powers in todo on an accumulator in q^d (d = 0: on 1)."""
        if not todo:
            return 0, ()
        if (todo, d) not in memo:
            ready = [i for i in todo if d and steps[i] % d == 0]
            best = None
            for i in ready[:1] or todo:
                g = math.gcd(d, steps[i])
                cost, order = rest(tuple(j for j in todo if j != i), g)
                cost += passes(i, d, g)
                if best is None or cost < best[0]:
                    best = cost, (i, *order)
            memo[todo, d] = best
        return memo[todo, d]

    everything = tuple(range(len(powers)))
    cost, order = rest(everything, 0)
    best = cost, None, order
    for i, (form, params, k) in enumerate(powers):
        units, others, step = _reference_shape(form, params)
        miller = 0 if k == 1 else (_MILLER if k > 0 else _MILLER_NEGATIVE) * (units + others) * length(step)
        cost, order = rest(tuple(j for j in everything if j != i), step)
        if miller + cost < best[0]:
            best = miller + cost, i, order
    return best


def _weight(form: str, params: tuple, k: int) -> int:
    """The work of one pass of the series to the power k, a multiplication or a division, per coefficient."""
    units, others, _ = _reference_shape(form, params)
    unit, other = _DIV if k < 0 else _MUL
    return unit * units + other * others


@functools.lru_cache(maxsize=None)
def _reference_shape(form: str, params: tuple) -> tuple[int, int, int]:
    """The terms of a series with coefficient +-1 and the other terms, and the step d of the series in q^d.

    Terms are counted up to the reference horizon; a series that is 1 up
    to it has step 0, the step of a constant.
    """
    exps, cofs = FORMS[form](*params, _REFERENCE_T)
    units = cofs.count(1) + cofs.count(-1)
    return units, len(cofs) - units, math.gcd(*exps)


# ----------------------------------------------------------------------
# Specs expanded together
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=64)
def _schedule(specs: tuple[EtaQuotientSpec, ...]) -> tuple:
    """(index, index of its start or None, the powers that multiply the start) for each spec, in run order.

    The module docstring says which start each spec takes and how a
    start is priced.
    """
    nets = [{key: d for key, d in net_exponents(spec).items() if d} for spec in specs]
    order = sorted(range(len(specs)), key=lambda i: sum(nets[i].values()))
    steps = []
    for pos, i in enumerate(order):
        best = _plan(specs[i])[1], None, ()
        for j in order[:pos]:
            diff = {key: d for key in sorted(nets[i].keys() | nets[j].keys())
                    if (d := nets[i].get(key, 0) - nets[j].get(key, 0))}
            if not _may_only_multiply(diff):
                continue
            factors = tuple(PochhammerFactor(a, b, d) for (a, b), d in diff.items())
            plan = _plan(EtaQuotientSpec(factors))[0] if factors else ExpansionPlan(None, (), ())
            powers = plan.powers if plan.seed is None else (plan.seed, *plan.powers)
            if plan.binomials or any(k < 1 for *_, k in powers):
                continue
            cost = (_REFERENCE_T + 1) * sum(k * _weight(form, params, k) for form, params, k in powers)
            if cost < best[0]:
                best = cost, j, powers
        steps.append((i, *best[1:]))
    return tuple(steps)


def _may_only_multiply(net: dict) -> bool:
    """False when no plan of these net exponents only multiplies, by a test far cheaper than planning.

    A JTP, euler or theta atom to a k > 0 has no negative exponent off
    the diagonal a = b, and on each chain b = c, 2c, 4c, ... of the
    diagonal (c odd) its sums of d*b and of d/b are not negative:
    (q^s;q^s) gives s and 1/s, psi(q^s) 3s and 0, phi(-q^s) 0 and
    3/(2s), phi(q^s) 0 and 0.  Both sums add under products, so net
    exponents that fail them plan with a division or a binomial.
    Planning runs the theta-atom search, about 0.7 ms for the difference
    of two catalog specs (Python 3.11, 2 vCPUs); 112 of the catalog's
    120 pairs fail this test instead.
    """
    diagonal = [(b // (b & -b), b, d) for (a, b), d in net.items() if a == b]
    top = math.lcm(*(b for _, b, _ in diagonal))
    chains = [[(b, d) for o, b, d in diagonal if o == c] for c in {o for o, _, _ in diagonal}]
    return all(d > 0 for (a, b), d in net.items() if a != b) and all(
        sum(d * b for b, d in chain) >= 0 and sum(d * top // b for b, d in chain) >= 0 for chain in chains)
