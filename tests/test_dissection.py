"""Dissection components, reassembly oracles and the special 3- and 5-dissections."""

import random

import pytest
from _propcheck import closed_form_components, closed_form_offset, closed_form_sign_exp

from qsigns import (
    InvalidParameter,
    assemble,
    eta_quotient,
    lambert_cubic,
    pochhammer,
    qq_components,
    quintuple_component,
    quintuple_components,
    quintuple_product,
    ramanujan5,
    three_dissection_qq,
    three_dissection_qq3,
)
from qsigns import dissect, plan, products
from qsigns.series import MAX_PRECISION, Series

MODULI = (2, 4, 5, 7, 8, 10, 11, 13)


# -- component tables --------------------------------------------------------

def test_components_mod_5():
    comps = qq_components(5)
    assert [c.t1 for c in comps] == [15, 95, 75, 55, 35]
    assert [c.t2 for c in comps] == [70, 110, 150, 190, 30]
    assert [c.offset for c in comps] == [0, 2, 1, 12, 5]
    assert [c.sign for c in comps] == [1, -1, -1, -1, 1]
    assert all(c.period1 == 100 and c.period2 == 200 for c in comps)


def test_components_mod_7():
    comps = qq_components(7)
    assert [c.offset for c in comps] == [0, 7, 26, 15, 2, 1, 5]
    assert [c.sign for c in comps] == [1, 1, 1, -1, -1, -1, 1]


def test_components_mod_2():
    comps = qq_components(2)
    assert [(c.r, c.sign_exp, c.offset, c.t1, c.t2) for c in comps] == [
        (0, 0, 0, 2, 12),
        (1, 1, 1, 10, 28),
    ]
    assert assemble(qq_components(2), 200) == pochhammer(1, 1, 200)


def test_offset_and_sign_exponent_tables():
    def qq(m):
        return [quintuple_component(4, 1, m, r) for r in range(m)]

    assert [c.offset for c in qq(5)] == [0, 2, 1, 12, 5]
    assert [c.offset for c in qq(7)] == [0, 7, 26, 15, 2, 1, 5]
    assert [c.sign_exp for c in qq(5)] == [0, 1, 1, 1, 2]
    for m in MODULI:
        assert [c.offset for c in qq(m)] == [closed_form_offset(m, r) for r in range(m)]
        assert [c.sign_exp for c in qq(m)] == [closed_form_sign_exp(m, r) for r in range(m)]
    for r in (-1, 5):
        for M, j in ((4, 1), (7, 2)):
            with pytest.raises(InvalidParameter, match=rf"residue {r} not in \[0, 5\)"):
                quintuple_component(M, j, 5, r)


def test_closed_forms_agree_with_general_routine():
    for m in range(2, 300):
        if m % 3:
            oracle = closed_form_components(m)
            assert qq_components(m) == oracle, m
            assert tuple(quintuple_component(4, 1, m, r) for r in range(m)) == oracle, m


# -- reassembly ---------------------------------------------------------------

def test_euler_reassembly_mod_5():
    assert assemble(qq_components(5), 300) == pochhammer(1, 1, 300)


def test_quintuple_reassembly_5_1_mod_7():
    assert assemble(quintuple_components(5, 1, 7), 300) == quintuple_product(5, 1, 300)


def test_component_zero_has_unit_constant_term():
    comp = qq_components(5)[0]
    assert assemble((comp,), 10).coefficient(0) == 1


def test_general_reassembly_with_equal_t_parameters():
    # t1 == t2 == 25 at r=4 here; the dissection is still exact
    comps = quintuple_components(3, 1, 5)
    assert any(c.t1 == c.t2 for c in comps)
    assert assemble(comps, 150) == quintuple_product(3, 1, 150)


def dense_sum(comps, precision):
    """The reference reassembly: each component a dense series, shifted, signed and added."""
    total = Series.zero(precision)
    for comp in comps:
        part = quintuple_product(comp.period1, comp.j, precision).shift(comp.offset)
        total = total + (-part if comp.sign < 0 else part)
    return total


def test_sparse_assemble_matches_the_dense_sum():
    rng = random.Random(20261018)
    cases = [(qq_components(m), T) for m in MODULI for T in (0, 1, 37, 300)]
    for _ in range(80):
        M = rng.randrange(3, 16)
        j = rng.randrange(1, (M + 1) // 2)
        m = rng.choice([k for k in range(2, 30) if k % 3])
        T = rng.choice((0, rng.randrange(1, 60), rng.randrange(60, 900)))
        cases.append((quintuple_components(M, j, m), T))
    assert any(c.offset > T for comps, T in cases for c in comps)
    for comps, T in cases:
        assert assemble(comps, T) == dense_sum(comps, T), (comps, T)
        for comp in comps:
            assert assemble((comp,), T) == dense_sum((comp,), T)


def test_reassembly_checks_the_precision_before_making_terms(monkeypatch):
    def refuse(*args):
        raise AssertionError("made terms past MAX_PRECISION")

    monkeypatch.setattr(dissect, "quintuple_terms", refuse)
    for comps in (qq_components(5), qq_components(5)[:1]):
        with pytest.raises(InvalidParameter, match="exceeds the limit MAX_PRECISION"):
            assemble(comps, MAX_PRECISION + 1)
        with pytest.raises(InvalidParameter, match="precision must be nonnegative"):
            assemble(comps, -1)


def test_dissections_reassemble_at_every_modulus_below_20():
    # the rows of `_residues`, with eps tied to m mod 3, reassemble the target; the
    # opposite eps is never tried (it builds in 96 of these cases and reassembles
    # only at (M, j, m) = (6, 1, 2) and (12, 2, 2))
    cases = 0
    for M in range(3, 13):
        for j in range(1, (M + 1) // 2):
            target = quintuple_product(M, j, 60)
            for m in range(2, 20):
                if m % 3 == 0:
                    continue
                assert assemble(quintuple_components(M, j, m), 60) == target, (M, j, m)
                cases += 1
    assert cases == 360


def test_dissections_reassemble_far_above_the_probe():
    T = 600
    for M in range(3, 9):
        for j in range(1, (M + 1) // 2):
            target = quintuple_product(M, j, T)
            for m in MODULI:
                assert assemble(quintuple_components(M, j, m), T) == target, (M, j, m)


def test_derived_sign_choice_always_builds():
    # integral t and offset, 0 < t < period and offset >= 0 are checked on construction;
    # the whole dissection, validated once, equals the residues built one at a time
    cases = 0
    for M in range(3, 25):
        for j in range(1, (M + 1) // 2):
            for m in range(2, 50):
                if m % 3 == 0:
                    continue
                comps = quintuple_components(M, j, m)
                assert len(comps) == m
                for r in range(m):
                    assert quintuple_component(M, j, m, r) == comps[r], (M, j, m, r)
                cases += 1
    assert cases == 4224


def test_quintuple_components_expands_nothing(monkeypatch):
    def no_expansion(*args):
        raise AssertionError("quintuple_components expanded a series")

    monkeypatch.setattr(products, "eta_quotient", no_expansion)
    assert len(quintuple_components(7, 2, 8)) == 8
    assert quintuple_component(7, 2, 8, 3).r == 3
    assert qq_components(5) == closed_form_components(5)


# -- structural invariants ------------------------------------------------------

@pytest.mark.parametrize("m", MODULI)
def test_components_supported_on_single_residue(m):
    for comp in qq_components(m):
        series = assemble((comp,), 150)
        for n, c in enumerate(series.coefficients):
            if c:
                assert n % m == comp.offset % m


@pytest.mark.parametrize("m", MODULI)
def test_offset_congruence_and_divisibility(m):
    for comp in qq_components(m):
        r = comp.r
        assert comp.offset % m == (6 * r * r + r) % m
        assert comp.t1 % m == 0
        assert comp.t2 % m == 0


@pytest.mark.parametrize("m", MODULI)
def test_component_quantities_pairwise_distinct(m):
    for c in qq_components(m):
        values = (
            c.t1, c.period1 - c.t1, c.period1, c.period1 + c.t1,
            c.period2 - c.t1, c.period2, c.t2, c.period2 - c.t2,
        )
        assert len(set(values)) == 8
        assert c.t1 != c.t2


# -- parameter validation ---------------------------------------------------------

@pytest.mark.parametrize("m", (0, 1, 3, 6, 9))
def test_rejects_bad_moduli(m):
    for build in (qq_components, lambda k: quintuple_components(4, 1, k),
                  lambda k: quintuple_component(4, 1, k, 0)):
        with pytest.raises(InvalidParameter):
            build(m)


def test_dissection_caps_the_modulus_before_the_first_component(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a component past MAX_PRECISION")

    monkeypatch.setattr(dissect, "quintuple_component", refuse)
    monkeypatch.setattr(dissect, "_residues", refuse)
    for m in (MAX_PRECISION + 1, 10**8):
        assert m % 3
        for build in (qq_components, lambda k: quintuple_components(7, 2, k)):
            with pytest.raises(InvalidParameter, match=f"m = {m} exceeds the limit MAX_PRECISION"):
                build(m)


@pytest.mark.parametrize("field,delta", [("t2", 1), ("t2", -2), ("period2", 2)])
def test_component_rejects_a_non_quintuple_shape(field, delta):
    comp = qq_components(5)[1]
    values = {name: getattr(comp, name)
              for name in ("r", "sign_exp", "offset", "t1", "t2", "period1", "period2")}
    values[field] += delta
    with pytest.raises(InvalidParameter, match="not a quintuple product"):
        dissect.DissectionComponent(**values)


def test_rejects_bad_quintuple_parameters():
    for M, j in ((2, 1), (4, 2), (7, 0), (7, 4)):
        for build in (quintuple_components, lambda *qj: quintuple_component(*qj, 0)):
            with pytest.raises(InvalidParameter):
                build(M, j, 5)


@pytest.mark.parametrize("M,j,m,r,message", [
    (2, 1, 5, 0, "need M >= 3, got 2"),
    (7, 0, 5, 0, "need 1 <= j < M/2, got j=0, M=7"),
    (8, 4, 5, 0, "need 1 <= j < M/2, got j=4, M=8"),
    (7, 2, 1, 0, "need m >= 2, got 1"),
    (7, 2, -4, 0, "need m >= 2, got -4"),
    (7, 2, 9, 0, "modulus must not be divisible by 3, got 9"),
    (7, 2, 5, 5, "residue 5 not in [0, 5)"),
    (7, 2, 5, -1, "residue -1 not in [0, 5)"),
])
def test_bad_parameters_fail_before_any_component(monkeypatch, M, j, m, r, message):
    def refuse(*args, **kwargs):
        raise AssertionError("built a component from parameters that fail their checks")

    monkeypatch.setattr(dissect, "_residues", refuse)
    monkeypatch.setattr(dissect, "DissectionComponent", refuse)
    builds = [lambda: quintuple_component(M, j, m, r)]
    if r == 0:
        builds.append(lambda: quintuple_components(M, j, m))
    for build in builds:
        with pytest.raises(InvalidParameter) as info:
            build()
        assert str(info.value) == message


# -- 3-dissections and the 5-dissection -------------------------------------------

def test_three_dissection_summands_are_triple_products():
    # each summand also equals the quotient form with the dilated factors
    s0, s1, s2 = three_dissection_qq(120)
    assert s0 == eta_quotient("3 3.27^-1 6.27^-1 9.27^-1 18.27^-1 21.27^-1 24.27^-1", 120)
    assert -s1 == eta_quotient(
        "3 3.27^-1 9.27^-1 12.27^-1 15.27^-1 18.27^-1 24.27^-1", 120
    ).shift(1)
    assert -s2 == eta_quotient(
        "3 6.27^-1 9.27^-1 12.27^-1 15.27^-1 18.27^-1 21.27^-1", 120
    ).shift(2)


def test_three_dissection_reassembles():
    s0, s1, s2 = three_dissection_qq(300)
    assert s0 + s1 + s2 == pochhammer(1, 1, 300)


def test_three_dissection_supports():
    for k, summand in enumerate(three_dissection_qq(200)):
        for n, c in enumerate(summand.coefficients):
            if c:
                assert n % 3 == k


def test_cube_three_dissection_reassembles():
    s0, s1 = three_dissection_qq3(300)
    assert s0 + s1 == eta_quotient("1^3", 300)


@pytest.mark.parametrize("T", (0, 1, 2, 3, 4, 300, 1000))
def test_cube_three_dissection_is_borweins_identity(T):
    # the summands of Jacobi's cube split by residue, against their product forms
    s0, s1 = three_dissection_qq3(T)
    assert s0 == eta_quotient("3", T) * lambert_cubic(T)
    assert s1 == Series([-3 * c for c in eta_quotient("9^3", T).coefficients]).shift(1)
    for k, summand in enumerate((s0, s1)):
        assert all(n % 3 == k for n, c in enumerate(summand.coefficients) if c)


def test_five_dissection_reassembles():
    s0, s1, s2 = ramanujan5(300)
    assert s0 + s1 + s2 == pochhammer(1, 1, 300)
    assert s0.coefficient(0) == 1


def test_five_dissection_supports():
    for k, summand in enumerate(ramanujan5(200)):
        for n, c in enumerate(summand.coefficients):
            if c:
                assert n % 5 == k


# -- the pentagonal split: the 3- and 5-dissections without a plan -----------------

# the summands as products, each with its sign exponent and shift
THREE_SPECS = (
    (0, 0, "12.27 15.27 27"),
    (1, 1, "6.27 21.27 27"),
    (1, 2, "3.27 24.27 27"),
)
FIVE_SPECS = (
    (0, 0, "25 10.25 15.25 5.25^-1 20.25^-1"),
    (1, 1, "25"),
    (1, 2, "25 5.25 20.25 10.25^-1 15.25^-1"),
)


def test_split_matches_the_quintuple_components_by_residue():
    # two independent formulas: the pentagonal split and the quintuple dissection of Q(4, 1)
    T = 400
    for m in range(5, 50, 2):
        if m % 3 == 0:
            continue
        comps = qq_components(m)
        for r, summand in enumerate(dissect._qq_split(m, T)):
            assert summand == assemble([c for c in comps if c.offset % m == r], T), (m, r)


def refuse_binomials(*args):
    raise AssertionError("a product took the binomial path")


@pytest.mark.parametrize("T", (0, 1, 2, 7, 600))
def test_split_summands_equal_their_product_forms(monkeypatch, T):
    # the products plan with no binomial
    monkeypatch.setattr(products, "_apply_factor", refuse_binomials)
    for summands, specs in ((three_dissection_qq(T), THREE_SPECS), (ramanujan5(T), FIVE_SPECS)):
        assert len(summands) == len(specs)
        for summand, (sign_exp, shift, spec) in zip(summands, specs):
            oracle = eta_quotient(spec, T).shift(shift)
            assert summand == (-oracle if sign_exp else oracle), (spec, T)
    for summand in dissect._qq_split(5, T)[3:]:
        assert summand == Series.zero(T)


def test_special_dissections_plan_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("planned or expanded a spec")

    monkeypatch.setattr(plan, "_plan", refuse)
    monkeypatch.setattr(products, "eta_quotient", refuse)
    assert len(three_dissection_qq(200)) == 3
    assert len(three_dissection_qq3(200)) == 2
    assert len(ramanujan5(200)) == 3


@pytest.mark.parametrize("T,message", [
    (-1, "precision must be nonnegative"),
    (MAX_PRECISION + 1, "exceeds the limit MAX_PRECISION"),
])
def test_special_dissections_check_the_precision_first(monkeypatch, T, message):
    def refuse(*args):
        raise AssertionError("made terms before checking the precision")

    for name in ("jacobi_triple_terms", "quintuple_terms", "jacobi_cube_terms"):
        monkeypatch.setattr(dissect, name, refuse)
    for build in (three_dissection_qq, three_dissection_qq3, ramanujan5):
        with pytest.raises(InvalidParameter, match=message):
            build(T)
