"""Product specs, their sparse closed forms, and how `eta_quotient` plans them.

Spec grammar for quotients of q-Pochhammer products (also used by the
CLI): whitespace-separated tokens ``a.b^d`` meaning (q^a;q^b)^d and the
shorthand ``j^d`` meaning (q^j;q^j)^d; ``^d`` defaults to 1.

`ExpansionPlan.of` rewrites a spec as a product of sparse series:

* **Net exponents.** The exponents of repeated factors (q^a;q^b) are
  summed, so repeats merge and cancelling factors drop out.
* **Jacobi triple products.** By the triple product identity
  (q^a;q^b)(q^{b-a};q^b) = JTP(a,b) / (q^b;q^b), where
  JTP(a,b) = sum_k (-1)^k q^{b k(k-1)/2 + a k} has O(sqrt(T/b)) terms.
  Partners whose net exponents share a sign are paired that many times
  (a factor with b = 2a pairs with itself), and each pair moves its
  (q^b;q^b) into that factor's net exponent.
* **Quintuple products.** By the quintuple product identity in Cooper's
  form, JTP(j,M) JTP(M-2j,2M) = Q(M,j) (q^{2M};q^{2M}) for 1 <= j < M/2,
  where Q(M,j) = (q^j, q^{M-j}, q^M; q^M)(q^{M-2j}, q^{M+2j}; q^{2M})
  = sum_n q^{M n(3n+1)/2} (q^{-3jn} - q^{j(3n+1)}) also has O(sqrt(T/M))
  terms.  Two such thetas whose exponents share a sign become one atom
  Q(M,j)^k, k their common part, and k is added to the net exponent of
  (q^{2M};q^{2M}).  A quintuple product, and so every dissection
  component, plans as the single atom Q(M,j)^1, which is one scatter.
* **Theta atoms.** Four eta quotients are sparse theta series (R. J.
  Lemke Oliver, "Eta-quotients and theta functions", Adv. Math. 2013):
  Jacobi's (q;q)^3 = sum_{n>=0} (-1)^n (2n+1) q^{n(n+1)/2},
  psi(q) = (q^2;q^2)^2/(q;q) = sum_{n>=0} q^{n(n+1)/2},
  phi(-q) = (q;q)^2/(q^2;q^2) = sum_n (-1)^n q^{n^2} and
  phi(q) = (q^2;q^2)^5/((q;q)^2 (q^4;q^4)^2) = sum_n q^{n^2}.  Dilated by
  q -> q^s, each is an atom of `THETA_ATOMS` whose power is the common
  part of its signature in the net exponents of the (q^b;q^b) factors.
  An atom is taken only when it lowers the cost estimate below, the one
  that lowers it most first.  So (q^2;q^2)^5 stays one Miller power: as
  the atom J(q^2) times (q^2;q^2)^2 it would cost one pass more.
* **Sparse powers and the seed.** What is left of the (q^b;q^b) factors
  is the pentagonal series.  One sparse base seeds the result, raised to
  its power in one pass of Miller's power recurrence (`pow_sparse`);
  every other base is multiplied or divided in once per unit of its
  exponent.  The seed (`seed_index`) is the base that minimises the estimate
  sum |k| * work * T over the remaining passes plus work * T/d for the
  seed, a series in q^d; a base to the power 1 seeds as a free scatter.
  The work of a term is 1 in a pass when its coefficient is +-1, and 2
  otherwise and in Miller's recurrence, which multiply.
* **Binomial fallback.** Unpaired factors and factors with a > b stay
  binomials, multiplied or divided in one binomial 1-q^{a+kb} at a
  time (`products._apply_factor`), which also serves the tests as the
  reference expansion of any spec.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Callable
from dataclasses import dataclass, replace

from .series import InvalidParameter

__all__ = [
    "PochhammerFactor",
    "EtaQuotientSpec",
    "ExpansionPlan",
    "THETA_ATOMS",
    "seed_index",
]


# ----------------------------------------------------------------------
# Factor specifications
# ----------------------------------------------------------------------

_TOKEN_RE = re.compile(r"^(\d+)(?:\.(\d+))?(?:\^(-?\d+))?$")


@dataclass(frozen=True)
class PochhammerFactor:
    """One factor (q^a; q^b)^delta of a product."""

    a: int
    b: int
    delta: int = 1

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise InvalidParameter(f"factor offsets must be >= 1, got ({self.a}, {self.b})")

    def __str__(self) -> str:
        base = str(self.a) if self.a == self.b else f"{self.a}.{self.b}"
        return f"{base}^{self.delta}"


@dataclass(frozen=True)
class EtaQuotientSpec:
    """A finite product of Pochhammer factors, prod (q^a;q^b)^delta."""

    factors: tuple[PochhammerFactor, ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise InvalidParameter("product spec needs at least one factor")

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

def jacobi_triple_terms(a: int, b: int, limit: int) -> tuple[list[int], list[int]]:
    """Sparse JTP(a,b) = (q^a, q^{b-a}, q^b; q^b) = sum_k (-1)^k q^{b k(k-1)/2 + a k}.

    Terms up to exponent limit, sorted; terms of k and -k that meet (b = 2a)
    are merged, so exponents are distinct and coefficients nonzero.
    """
    terms: dict[int, int] = {}
    for k, step in ((0, 1), (-1, -1)):
        while (e := b * k * (k - 1) // 2 + a * k) <= limit:
            terms[e] = terms.get(e, 0) + (-1 if k % 2 else 1)
            k += step
    exps = sorted(e for e, c in terms.items() if c)
    return exps, [terms[e] for e in exps]


def quintuple_terms(M: int, j: int, limit: int) -> tuple[list[int], list[int]]:
    """Sparse Q(M,j) = (q^j, q^{M-j}, q^M; q^M)(q^{M-2j}, q^{M+2j}; q^{2M}), 1 <= j < M/2.

    By the quintuple product identity (S. Cooper, Int. J. Number Theory 2,
    2006) Q(M,j) = sum_n q^{M n(3n+1)/2} (q^{-3jn} - q^{j(3n+1)}).  Both
    exponents are nonnegative and grow with |n| on each side of n = 0.
    Terms up to exponent limit, sorted, with colliding terms merged, so
    exponents are distinct and coefficients nonzero.
    """
    terms: dict[int, int] = {}
    for n, step in ((0, 1), (-1, -1)):
        while True:
            base = M * n * (3 * n + 1) // 2
            live = False
            for e, c in ((base - 3 * j * n, 1), (base + j * (3 * n + 1), -1)):
                if e <= limit:
                    terms[e] = terms.get(e, 0) + c
                    live = True
            if not live:
                break
            n += step
    exps = sorted(e for e, c in terms.items() if c)
    return exps, [terms[e] for e in exps]


def pentagonal_terms(step: int, limit: int) -> tuple[list[int], list[int]]:
    """Sparse expansion of (q^step; q^step): exponents step*k(3k+-1)/2, signs (-1)^k."""
    return jacobi_triple_terms(step, 3 * step, limit)


def jacobi_cube_terms(s: int, limit: int) -> tuple[list[int], list[int]]:
    """Sparse (q^s;q^s)^3 = sum_{n>=0} (-1)^n (2n+1) q^{s n(n+1)/2} (Jacobi's identity)."""
    exps, cofs = triangular_terms(s, limit)
    return exps, [(-1) ** n * (2 * n + 1) for n in range(len(exps))]


def triangular_terms(s: int, limit: int) -> tuple[list[int], list[int]]:
    """Sparse psi(q^s) = (q^{2s};q^{2s})^2 / (q^s;q^s) = sum_{n>=0} q^{s n(n+1)/2}."""
    exps = []
    n = 0
    while (e := s * n * (n + 1) // 2) <= limit:
        exps.append(e)
        n += 1
    return exps, [1] * len(exps)


def square_terms(s: int, sign: int, limit: int) -> tuple[list[int], list[int]]:
    """Sparse phi(sign q^s) = sum_{n in Z} sign^n q^{s n^2}, sign = 1 or -1.

    phi(q) = (q^2;q^2)^5 / ((q;q)^2 (q^4;q^4)^2) and phi(-q) = (q;q)^2 / (q^2;q^2).
    """
    exps = []
    n = 0
    while (e := s * n * n) <= limit:
        exps.append(e)
        n += 1
    return exps, [1] + [2 * sign ** n for n in range(1, len(exps))]


# name: (signature {b: exponent of (q^b;q^b)}, sparse terms of the atom in q^s)
THETA_ATOMS = {
    "J": ({1: 3}, jacobi_cube_terms),
    "psi": ({2: 2, 1: -1}, triangular_terms),
    "phi(-q)": ({1: 2, 2: -1}, lambda s, limit: square_terms(s, -1, limit)),
    "phi(q)": ({2: 5, 1: -2, 4: -2}, lambda s, limit: square_terms(s, 1, limit)),
}


# ----------------------------------------------------------------------
# The plan and its cost estimate
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExpansionPlan:
    """A spec rewritten as the product `eta_quotient` expands.

    The product is JTP(a,b)^k over (a, b, k) in thetas, with a <= b - a,
    times (q^b;q^b)^d over (b, d) in eulers, times (q^a;q^b)^d over
    (a, b, d) in binomials, which go one binomial at a time, times
    Q(M,j)^k over (M, j, k) in quintuples, times the theta atom
    name(q^s)^k over (name, s, k) in atoms.  Since JTP(j,M) JTP(M-2j,2M)
    = Q(M,j) (q^{2M};q^{2M}), each quintuple atom replaces the thetas
    JTP(j,M)^k and JTP(M-2j,2M)^k, and k is added to the exponent of
    (q^{2M};q^{2M}) in eulers.  Each theta atom stands for k times its
    `THETA_ATOMS` signature, dilated by s, taken out of eulers.
    """

    thetas: tuple[tuple[int, int, int], ...]
    eulers: tuple[tuple[int, int], ...]
    binomials: tuple[tuple[int, int, int], ...]
    quintuples: tuple[tuple[int, int, int], ...] = ()
    atoms: tuple[tuple[str, int, int], ...] = ()

    @classmethod
    def of(cls, spec: "EtaQuotientSpec | str") -> "ExpansionPlan":
        """Net the exponents of the spec's factors, pair partners into JTPs,
        pair JTPs into quintuple products, then take the theta atoms that
        lower the estimated cost."""
        net: dict[tuple[int, int], int] = {}
        for f in _as_spec(spec).factors:
            net[f.a, f.b] = net.get((f.a, f.b), 0) + f.delta
        thetas: dict[tuple[int, int], int] = {}
        for a, b in list(net):
            if a >= b:
                continue
            d, partner = net[a, b], net.get((b - a, b), 0)
            if b == 2 * a:
                k = _toward_zero(d, 2)
                net[a, b] -= 2 * k
            elif d * partner > 0:
                k = _common(d, partner)
                net[a, b] -= k
                net[b - a, b] -= k
            else:
                continue
            if k:
                thetas[min(a, b - a), b] = k
                net[b, b] = net.get((b, b), 0) - k
        # JTP(j,M) JTP(M-2j,2M) = Q(M,j) (q^{2M};q^{2M})
        quintuples = []
        for j, M in list(thetas):
            k, partner = thetas[j, M], thetas.get((M - 2 * j, 2 * M), 0)
            if 2 * j < M and k * partner > 0:
                k = _common(k, partner)
                thetas[j, M] -= k
                thetas[M - 2 * j, 2 * M] -= k
                quintuples.append((M, j, k))
                net[2 * M, 2 * M] = net.get((2 * M, 2 * M), 0) + k
        plan = cls(
            thetas=tuple((a, b, k) for (a, b), k in thetas.items() if k),
            eulers=tuple((b, d) for (a, b), d in net.items() if a == b and d),
            binomials=tuple((a, b, d) for (a, b), d in net.items() if a != b and d),
            quintuples=tuple(quintuples),
        )
        return plan._with_theta_atoms() if plan.eulers else plan

    def _with_theta_atoms(self) -> "ExpansionPlan":
        """Take theta atoms greedily, first the one that lowers the cost estimate most."""
        plan = self
        while trials := plan._atom_trials():
            best = min(trials, key=ExpansionPlan.cost)
            if best.cost() >= plan.cost():
                break
            plan = best
        return plan

    def _atom_trials(self) -> list["ExpansionPlan"]:
        """This plan with one more theta atom, for each atom not yet taken that eulers hold."""
        eulers = dict(self.eulers)
        taken = {(name, s) for name, s, _ in self.atoms}
        trials = []
        for name, (signature, _) in THETA_ATOMS.items():
            for s in sorted({m // b for m in eulers for b in signature if m % b == 0}):
                # the atom's power is the common part of its signature in eulers
                parts = [_toward_zero(eulers.get(s * b, 0), x) for b, x in signature.items()]
                if (name, s) in taken or 0 in parts or len({p > 0 for p in parts}) > 1:
                    continue
                k = functools.reduce(_common, parts)
                rest = dict(eulers)
                for b, x in signature.items():
                    rest[s * b] -= k * x
                trials.append(replace(
                    self,
                    eulers=tuple((b, d) for b, d in rest.items() if d),
                    atoms=(*self.atoms, (name, s, k)),
                ))
        return trials

    def sparse_bases(self) -> list[tuple[Callable, tuple, int]]:
        """Every sparse series of the plan as (term generator, its parameters, power)."""
        return (
            [(THETA_ATOMS[name][1], (s,), k) for name, s, k in self.atoms]
            + [(quintuple_terms, (M, j), k) for M, j, k in self.quintuples]
            + [(jacobi_triple_terms, (a, b), k) for a, b, k in self.thetas]
            + [(pentagonal_terms, (b,), d) for b, d in self.eulers]
        )

    def cost(self) -> int:
        """The estimated cost of expanding the sparse bases, with the cheapest seed.

        Terms are counted up to a fixed reference horizon.  Each count
        grows as the square root of the horizon, so every cost scales as
        T^(3/2) alike and comparing two costs does not depend on T.
        Binomials cost the same whatever the plan takes, so they are left out.
        """
        shapes = [(*_reference_shape(terms, params), k) for terms, params, k in self.sparse_bases()]
        return _cheapest_seed(shapes, _REFERENCE_T + 1)[0]


# the horizon at which plans count the terms of their sparse series
_REFERENCE_T = 10_000


def _shape(exps: list[int], cofs: list[int]) -> tuple[int, int, int]:
    """The work per coefficient of a pass and of a Miller power, and the step d of a series in q^d.

    A pass costs 1 per term with coefficient +-1 and 2 per other term,
    which takes a multiplication; Miller's recurrence multiplies at
    every term, so it costs 2 per term.
    """
    return 2 * len(cofs) - cofs.count(1) - cofs.count(-1), 2 * len(cofs), math.gcd(*exps) or 1


@functools.lru_cache(maxsize=None)
def _reference_shape(terms: Callable, params: tuple) -> tuple[int, int, int]:
    """The shape of a sparse series up to the reference horizon."""
    return _shape(*terms(*params, _REFERENCE_T))


def _cheapest_seed(shapes: list[tuple[int, int, int, int]], n: int) -> tuple[int, "int | None"]:
    """The estimated cost of n coefficients of a product of sparse powers, and its seed.

    shapes holds (pass work, Miller work, step, k) for each f^k, with f
    a series in q^step.  Each base but the seed costs |k| passes of
    pass work * n.  The seed is raised outright: Miller's recurrence runs
    in q^step at Miller work * n/step, and f^1 is a scatter, free.
    Returns the least total and the index of the seed that gives it, or
    None when every base is best applied in passes.
    """
    passes = [abs(k) * work * n for work, _, _, k in shapes]
    total = sum(passes)
    best, seed = total, None
    for i, (_, miller, step, k) in enumerate(shapes):
        cost = total - passes[i] + (0 if k == 1 else miller * (n // step))
        if cost < best:
            best, seed = cost, i
    return best, seed


def _common(d: int, e: int) -> int:
    """The part two exponents of one sign have in common: the one nearer zero."""
    return min(d, e) if d > 0 else max(d, e)


def _toward_zero(d: int, e: int) -> int:
    """The quotient d / e rounded toward zero."""
    return d // e if d * e >= 0 else -(-d // e)


def seed_index(bases: list[tuple[list[int], list[int], int]], n: int) -> "int | None":
    """Which sparse power (exps, cofs, k) to raise outright for n coefficients, if any."""
    return _cheapest_seed([(*_shape(exps, cofs), k) for exps, cofs, k in bases], n)[1]
