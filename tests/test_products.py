"""Product and theta-series constructors against their independent oracles."""

import random
from types import SimpleNamespace

import pytest
from _propcheck import (
    _random_factors,
    binomial_borwein_c3,
    binomial_expansion,
    box_borwein_a,
    box_threevar,
    lambert_series,
)

from qsigns import (
    EtaQuotientSpec,
    InvalidParameter,
    PochhammerFactor,
    Series,
    borwein_a,
    borwein_b,
    borwein_c3,
    eta_quotient,
    eta_quotients,
    lambert_cubic,
    pochhammer,
    quintuple_product,
    theta_alt_squares,
    theta_squares,
    theta_threevar,
    theta_triangular,
    theta_weighted,
)
from qsigns import pattern_catalog, plan, products
from qsigns.plan import FORMS, THETA_ATOMS, net_exponents
from qsigns.series import MAX_PRECISION


def brute_pochhammer(a, b, T):
    """Multiply out (1 - q^{a+kb}) factors naively: the oracle."""
    out = [1] + [0] * T
    for e in range(a, T + 1, b):
        nxt = out[:]
        for i in range(T + 1 - e):
            nxt[i + e] -= out[i]
        out = nxt
    return Series(out)


# -- pochhammer -----------------------------------------------------------

def test_pochhammer_pentagonal_head():
    assert pochhammer(1, 1, 12) == Series([1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1])


def test_pochhammer_dilated():
    assert pochhammer(2, 2, 6) == Series([1, 0, -1, 0, -1, 0, 0])


def test_pochhammer_trivial_below_offset():
    assert pochhammer(5, 5, 4) == Series.one(4)


def test_pochhammer_matches_brute_force():
    for a, b in ((1, 1), (2, 5), (3, 3), (1, 4)):
        assert pochhammer(a, b, 80) == brute_pochhammer(a, b, 80)


def test_pochhammer_rejects_bad_offsets():
    with pytest.raises(InvalidParameter):
        pochhammer(0, 1, 5)
    with pytest.raises(InvalidParameter):
        pochhammer(1, 0, 5)


def test_constructors_reject_negative_precision():
    for build in (
        lambda: eta_quotient("1^1", -1),
        lambda: list(eta_quotients(["1^1"], -1)),
        lambda: borwein_a(-2),
        lambda: lambert_cubic(-1),
        lambda: theta_threevar(-3),
        lambda: borwein_c3(-1),
        lambda: theta_alt_squares(-1),
        lambda: theta_triangular(-1),
        lambda: theta_squares(-1),
        lambda: theta_weighted(-1),
    ):
        with pytest.raises(InvalidParameter, match="precision must be nonnegative"):
            build()


def test_constructors_reject_precision_above_the_limit(monkeypatch):
    def refuse(*args):
        raise AssertionError("expanded past MAX_PRECISION")

    for name in ("mul_sparse", "div_sparse", "pow_sparse"):
        monkeypatch.setattr(products, name, refuse)
    for form in FORMS:
        monkeypatch.setitem(FORMS, form, refuse)
    monkeypatch.setattr(products, "math", SimpleNamespace(isqrt=refuse))
    for build in (
        lambda T: eta_quotient("1^1", T),
        lambda T: list(eta_quotients(["1^1", "1^2"], T)),
        borwein_a, borwein_b, borwein_c3, lambert_cubic, theta_threevar,
        theta_alt_squares, theta_triangular, theta_squares, theta_weighted,
    ):
        with pytest.raises(InvalidParameter, match=f"exceeds the limit MAX_PRECISION = {MAX_PRECISION}"):
            build(MAX_PRECISION + 1)


# -- eta quotients and the spec grammar ------------------------------------

def test_eta_quotient_head():
    assert eta_quotient("2^1 5^-1", 9) == Series([1, 0, -1, 0, -1, 1, 0, -1, 0, -1])


def test_eta_quotient_cancellation():
    assert eta_quotient("1^1 1^-1", 5) == Series.one(5)


def test_eta_quotient_partitions():
    assert eta_quotient("1^-1", 5) == Series([1, 1, 2, 3, 5, 7])


def test_eta_quotient_mixed_bases_match_brute_force():
    spec = "2.5^1 3.5^1 1.5^-1 4.5^-1"
    expected = (
        brute_pochhammer(2, 5, 60)
        * brute_pochhammer(3, 5, 60)
        * brute_pochhammer(1, 5, 60).invert()
        * brute_pochhammer(4, 5, 60).invert()
    )
    assert eta_quotient(spec, 60) == expected


def test_eta_quotients_match_lone_expansions(monkeypatch):
    """Each spec of a batch, derived or not, equals its lone expansion, yielded once.

    Batches are chains, a random base times more and more positive powers
    of (q^b;q^b) and of theta atoms in q^s, then times
    (q^b;q^b)^2/(q^{3b};q^{3b}), which no start may divide by, shuffled,
    with a duplicate, a spec whose net exponents are all 0, and the base
    times an a.b binomial, which no start may multiply in.
    """
    rng = random.Random(424)
    lone = products.eta_quotient
    fresh = []
    monkeypatch.setattr(products, "eta_quotient", lambda spec, T: fresh.append(spec) or lone(spec, T))
    seen = dict.fromkeys(("derived", "derived with a binomial", "derived duplicate",
                          "derived by psi or phi(+-q)", "T = 0", "T = 1"), 0)
    for _ in range(60):
        base = []
        for _ in range(rng.randint(1, 3)):
            base += _random_factors(rng)
        chain = [base]
        for _ in range(rng.randint(1, 4)):
            b = rng.randint(1, 9)
            chain.append([*chain[-1], PochhammerFactor(b, b, rng.randint(1, 3))])
        for _ in range(rng.randint(0, 2)):
            s, k = rng.randint(1, 4), rng.randint(1, 2)
            signature = THETA_ATOMS[rng.choice(list(THETA_ATOMS))]
            chain.append([*chain[-1], *(PochhammerFactor(s * b, s * b, k * x) for b, x in signature.items())])
        b = rng.randint(1, 4)
        chain.append([*chain[-1], PochhammerFactor(b, b, 2), PochhammerFactor(3 * b, 3 * b, -1)])
        b = rng.randint(2, 9)
        chain.append([*base, PochhammerFactor(rng.randint(1, b - 1), b, rng.randint(1, 2))])
        chain.append(list(rng.choice(chain)))
        chain.append([PochhammerFactor(3, 3, 2), PochhammerFactor(3, 3, -2)])
        rng.shuffle(chain)
        specs = [EtaQuotientSpec(tuple(factors)) for factors in chain]
        T = rng.choice((0, 1, rng.randint(2, 600)))
        fresh.clear()
        yielded = list(eta_quotients(specs, T))
        assert sorted(i for i, _ in yielded) == list(range(len(specs)))
        for i, series in yielded:
            assert series == lone(specs[i], T), (specs[i], T)
        multipliers = {i: powers for i, _, powers in plan._schedule(tuple(specs))}
        for i in range(len(specs)):
            if not any(spec is specs[i] for spec in fresh):
                assert all(k > 0 for *_, k in multipliers[i]), "a derived start divides"
                seen["derived"] += 1
                seen["derived by psi or phi(+-q)"] += any(form in ("psi", "phi(-q)", "phi(q)")
                                                          for form, _, _ in multipliers[i])
                seen["derived with a binomial"] += any(f.a != f.b for f in specs[i].factors)
                seen["derived duplicate"] += specs[i] in specs[:i] + specs[i + 1:]
        seen["T = 0"] += T == 0
        seen["T = 1"] += T == 1
    assert all(seen.values()), seen


def test_catalog_schedule_derives_four_cases():
    """Four catalog cases start from another case times one sparse power; every other case is expanded fresh."""
    specs = tuple(case.spec for case in pattern_catalog())
    starts = {str(specs[i]): (None if j is None else str(specs[j]), powers)
              for i, j, powers in plan._schedule(specs)}
    derived = {
        "1^9 3^-12": ("1^9 3^-13", (("euler", (3,), 1),)),
        "1^9 3^-11": ("1^9 3^-12", (("euler", (3,), 1),)),
        "1^9 3^-9": ("1^9 3^-12", (("J", (3,), 1),)),
        "1^4 2^-2 4^-1": ("1^2 2^-1 4^-1", (("phi(-q)", (1,), 1),)),
    }
    assert starts == {str(spec): derived.get(str(spec), (None, ())) for spec in specs}


def test_start_prefilter_passes_every_product_that_only_multiplies():
    """`_may_only_multiply` rejects no product of JTPs, eulers and theta atoms, each to a k > 0.

    Seeded products of up to four such powers, in q^s for s <= 8, as the
    net exponents `_schedule` reads.
    """
    rng = random.Random(425)
    for _ in range(400):
        factors = []
        for _ in range(rng.randint(1, 4)):
            s, k = rng.randint(1, 8), rng.randint(1, 5)
            kind = rng.choice(("jtp", "euler", *THETA_ATOMS))
            if kind == "jtp":
                b = rng.randint(2, 12)
                a = rng.randint(1, b - 1)
                factors += [PochhammerFactor(a, b, k), PochhammerFactor(b - a, b, k), PochhammerFactor(b, b, k)]
            elif kind == "euler":
                factors.append(PochhammerFactor(s, s, k))
            else:
                factors += [PochhammerFactor(s * b, s * b, k * x) for b, x in THETA_ATOMS[kind].items()]
        net = {key: d for key, d in net_exponents(EtaQuotientSpec(tuple(factors))).items() if d}
        assert plan._may_only_multiply(net), factors


def test_spec_parse_shorthand_and_pairs():
    spec = EtaQuotientSpec.parse("2^5 7^-1 3.10^2 4.9")
    assert spec.factors == (
        PochhammerFactor(2, 2, 5),
        PochhammerFactor(7, 7, -1),
        PochhammerFactor(3, 10, 2),
        PochhammerFactor(4, 9, 1),
    )


def test_spec_roundtrips_through_str():
    spec = EtaQuotientSpec.parse("1^4 2^2 4^-2")
    assert EtaQuotientSpec.parse(str(spec)) == spec


@pytest.mark.parametrize("token", ["q", "1.2.3", "^3", "2^", "2^-", "0^1", "1.0^2", "-1"])
def test_spec_rejects_bad_tokens(token):
    with pytest.raises(InvalidParameter):
        EtaQuotientSpec.parse(token)


def test_spec_rejects_empty():
    with pytest.raises(InvalidParameter):
        EtaQuotientSpec.parse("   ")


# -- quintuple product ------------------------------------------------------

def test_quintuple_4_1_is_euler_product():
    assert quintuple_product(4, 1, 12) == pochhammer(1, 1, 12)


def test_quintuple_3_1_head():
    # direct factor multiplication: (1-q)(1-q^2)(1-q)... = 1 - 2q + 0q^2 + ...
    assert quintuple_product(3, 1, 2) == Series([1, -2, 0])


def test_quintuple_constant_term():
    assert quintuple_product(5, 2, 0) == Series.one(0)


@pytest.mark.parametrize("M,j", [(2, 1), (4, 2), (5, 0), (3, 2)])
def test_quintuple_rejects_bad_parameters(M, j):
    with pytest.raises(InvalidParameter):
        quintuple_product(M, j, 10)


# -- theta series ------------------------------------------------------------

def test_alternating_squares_head():
    assert theta_alt_squares(9) == Series([1, -2, 0, 0, 2, 0, 0, 0, 0, -2])
    assert theta_alt_squares(0) == Series.one(0)


def test_triangular_head():
    assert theta_triangular(10) == Series([1, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1])
    assert theta_triangular(0) == Series.one(0)


def test_squares_head():
    assert theta_squares(9) == Series([1, 2, 0, 0, 2, 0, 0, 0, 0, 2])
    assert theta_squares(0) == Series.one(0)


def test_weighted_theta_head():
    expected = Series.from_terms([(0, 1), (1, -2), (3, 1), (6, 1), (10, -2), (15, 1)], 15)
    assert theta_weighted(15) == expected
    assert theta_weighted(0) == Series.one(0)


@pytest.mark.parametrize(
    "theta,spec",
    [
        (theta_alt_squares, "1^2 2^-1"),
        (theta_triangular, "2^2 1^-1"),
        (theta_squares, "2^5 1^-2 4^-2"),
        (theta_weighted, "1^2 6^1 2^-1 3^-1"),
    ],
)
def test_theta_equals_eta_quotient(theta, spec):
    # the quotient is expanded one binomial at a time: `eta_quotient` plans three of
    # these specs as the very theta atoms under test
    assert theta(200) == binomial_expansion(EtaQuotientSpec.parse(spec), 200)


# -- cubic theta functions -----------------------------------------------------

def test_borwein_a_head():
    assert borwein_a(7) == Series([1, 6, 0, 6, 6, 0, 0, 12])


def test_borwein_b_is_cubic_difference():
    T = 200
    a3 = borwein_a((T + 2) // 3).dilate(3, cap=T)
    assert borwein_b(T) == a3 - borwein_c3(T)


def test_borwein_cubes_identity():
    T = 150
    a3 = borwein_a(T // 3).dilate(3, cap=T)
    b3 = borwein_b(T // 3).dilate(3, cap=T)
    c3 = borwein_c3(T)
    assert a3.power(3) == b3.power(3) + c3.power(3)


def test_lambert_cubic_head():
    assert lambert_cubic(12) == Series.from_terms([(0, 1), (3, 6), (9, 6), (12, 6)], 12)
    assert lambert_cubic(2) == Series.one(2)


def test_lambert_cubic_equals_dilated_lattice_sum():
    assert lambert_cubic(300) == lambert_series(300)
    assert lambert_series(300) == box_borwein_a(100).dilate(3, cap=300)


@pytest.mark.parametrize("top", [400, 1000])
def test_cubic_thetas_match_their_oracles_at_every_precision(top):
    # each oracle runs once, at the top precision: a truncated series is a prefix
    threevar = box_threevar(top)
    assert threevar == eta_quotient("3^3 1^-1", top)
    pairs = (
        (borwein_a, box_borwein_a(top)),
        (borwein_b, binomial_expansion(EtaQuotientSpec.parse("1^3 3^-1"), top)),
        (lambert_cubic, lambert_series(top)),
        (theta_threevar, threevar),
        (borwein_c3, binomial_borwein_c3(top)),
    )
    for build, oracle in pairs:
        for T in range(0 if top == 400 else top - 3, top + 1):
            # lambert_cubic and borwein_c3 expand to about T/3, and must still reach q^T
            series = build(T)
            assert series.precision == T, (build.__name__, T)
            assert series == oracle.truncate(T), (build.__name__, T)


def test_shifted_lattice_sum_is_divisible_by_three():
    # theta_threevar divides it by 3 exactly
    assert all(c % 3 == 0 for c in products._lattice(1, 2000))


def test_cubic_thetas_expand_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a cubic theta function ran an expansion")

    for name in ("eta_quotient", "mul_sparse", "div_sparse", "pow_sparse"):
        monkeypatch.setattr(products, name, refuse)
    for build in (borwein_a, borwein_b, borwein_c3, lambert_cubic, theta_threevar):
        assert build(300).precision == 300


def test_threevar_constant_term():
    assert theta_threevar(0) == Series.one(0)


def test_threevar_nonnegative_and_matches_quotient():
    t = theta_threevar(200)
    assert all(c >= 0 for c in t.coefficients)
    assert t == eta_quotient("3^3 1^-1", 200)
