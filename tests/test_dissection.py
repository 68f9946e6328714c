"""Dissection components, reassembly oracles and the special 3- and 5-dissections."""

import random
from dataclasses import replace

import pytest
from _propcheck import closed_form_components, closed_form_offset, closed_form_sign_exp

from qsigns import (
    DissectionExpression,
    InvalidParameter,
    assemble,
    component_series,
    eta_quotient,
    pochhammer,
    qq_components,
    qq_offset,
    qq_sign_exp,
    quintuple_components,
    quintuple_product,
    ramanujan5,
    three_dissection_qq,
    three_dissection_qq3,
)
from qsigns import dissect, products
from qsigns.dissect import _candidate
from qsigns.series import MAX_PRECISION, QSignsError, Series

MODULI = (2, 4, 5, 7, 8, 10, 11, 13)


# -- component tables --------------------------------------------------------

def test_components_mod_5():
    comps = qq_components(5).components
    assert [c.t1 for c in comps] == [15, 95, 75, 55, 35]
    assert [c.t2 for c in comps] == [70, 110, 150, 190, 30]
    assert [c.offset for c in comps] == [0, 2, 1, 12, 5]
    assert [c.sign for c in comps] == [1, -1, -1, -1, 1]
    assert all(c.period1 == 100 and c.period2 == 200 for c in comps)


def test_components_mod_7():
    comps = qq_components(7).components
    assert [c.offset for c in comps] == [0, 7, 26, 15, 2, 1, 5]
    assert [c.sign for c in comps] == [1, 1, 1, -1, -1, -1, 1]


def test_components_mod_2():
    comps = qq_components(2).components
    assert [(c.r, c.sign_exp, c.offset, c.t1, c.t2) for c in comps] == [
        (0, 0, 0, 2, 12),
        (1, 1, 1, 10, 28),
    ]
    assert assemble(qq_components(2), 200) == pochhammer(1, 1, 200)


def test_offset_and_sign_exponent_tables():
    assert [qq_offset(5, r) for r in range(5)] == [0, 2, 1, 12, 5]
    assert [qq_offset(7, r) for r in range(7)] == [0, 7, 26, 15, 2, 1, 5]
    assert [qq_sign_exp(5, r) for r in range(5)] == [0, 1, 1, 1, 2]
    for m in MODULI:
        assert [qq_offset(m, r) for r in range(m)] == [closed_form_offset(m, r) for r in range(m)]
        assert [qq_sign_exp(m, r) for r in range(m)] == [closed_form_sign_exp(m, r) for r in range(m)]
    for r in (-1, 5):
        for table in (qq_offset, qq_sign_exp):
            with pytest.raises(InvalidParameter, match=rf"residue {r} not in \[0, 5\)"):
                table(5, r)


def test_closed_forms_agree_with_general_routine():
    for m in range(2, 300):
        if m % 3:
            assert qq_components(m) == closed_form_components(m), m


# -- reassembly ---------------------------------------------------------------

def test_euler_reassembly_mod_5():
    assert assemble(qq_components(5), 300) == pochhammer(1, 1, 300)


def test_quintuple_reassembly_5_1_mod_7():
    assert assemble(quintuple_components(5, 1, 7), 300) == quintuple_product(5, 1, 300)


def test_component_zero_has_unit_constant_term():
    comp = qq_components(5).components[0]
    assert component_series(comp, 10).coefficient(0) == 1


def test_general_reassembly_with_equal_t_parameters():
    # t1 == t2 == 25 at r=4 here; the dissection is still exact
    expr = quintuple_components(3, 1, 5)
    assert any(c.t1 == c.t2 for c in expr.components)
    assert assemble(expr, 150) == quintuple_product(3, 1, 150)


def dense_sum(expr, precision):
    """The reference reassembly: each component a dense series, shifted, signed and added."""
    total = Series.zero(precision)
    for comp in expr.components:
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
    assert any(c.offset > T for expr, T in cases for c in expr.components)
    for expr, T in cases:
        assert assemble(expr, T) == dense_sum(expr, T), (expr, T)
        for comp in expr.components:
            assert component_series(comp, T) == dense_sum(DissectionExpression((comp,)), T)


def test_reassembly_checks_the_precision_before_making_terms(monkeypatch):
    def refuse(*args):
        raise AssertionError("made terms past MAX_PRECISION")

    monkeypatch.setattr(dissect, "quintuple_terms", refuse)
    expr = qq_components(5)
    for build in (lambda T: assemble(expr, T), lambda T: component_series(expr.components[0], T)):
        with pytest.raises(InvalidParameter, match="exceeds the limit MAX_PRECISION"):
            build(MAX_PRECISION + 1)
        with pytest.raises(InvalidParameter, match="precision must be nonnegative"):
            build(-1)


def probe_sign_choice(M, j, m, precision=60):
    """The sign choice a direct expansion picks: the first candidate that reassembles."""
    target = quintuple_product(M, j, precision)
    preferred = 1 if m % 3 == 1 else -1
    for eps in (preferred, -preferred):
        try:
            comps = tuple(_candidate(M, j, m, eps))
        except QSignsError:
            continue
        expr = DissectionExpression(comps)
        if assemble(expr, precision) == target:
            return expr
    raise AssertionError(f"no sign choice reassembles for {(M, j, m)}")


def test_sign_choice_is_the_one_tied_to_m_mod_3():
    cases = 0
    for M in range(3, 13):
        for j in range(1, (M + 1) // 2):
            for m in range(2, 20):
                if m % 3 == 0:
                    continue
                assert quintuple_components(M, j, m) == probe_sign_choice(M, j, m), (M, j, m)
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
    # integral t and offset, 0 < t < period and offset >= 0 are checked on construction
    cases = 0
    for M in range(3, 25):
        for j in range(1, (M + 1) // 2):
            for m in range(2, 32):
                if m % 3 == 0:
                    continue
                assert len(quintuple_components(M, j, m).components) == m
                cases += 1
    assert cases == 2640


def test_quintuple_components_expands_nothing(monkeypatch):
    def no_expansion(*args):
        raise AssertionError("quintuple_components expanded a series")

    monkeypatch.setattr(products, "eta_quotient", no_expansion)
    monkeypatch.setattr(dissect, "eta_quotient", no_expansion)
    assert quintuple_components(7, 2, 8).modulus == 8
    assert qq_components(5) == closed_form_components(5)


# -- structural invariants ------------------------------------------------------

@pytest.mark.parametrize("m", MODULI)
def test_components_supported_on_single_residue(m):
    for comp in qq_components(m).components:
        series = component_series(comp, 150)
        for n, c in enumerate(series.coefficients):
            if c:
                assert n % m == comp.offset % m


@pytest.mark.parametrize("m", MODULI)
def test_offset_congruence_and_divisibility(m):
    for comp in qq_components(m).components:
        r = comp.r
        assert comp.offset % m == (6 * r * r + r) % m
        assert comp.t1 % m == 0
        assert comp.t2 % m == 0


@pytest.mark.parametrize("m", MODULI)
def test_component_quantities_pairwise_distinct(m):
    for c in qq_components(m).components:
        values = (
            c.t1, c.period1 - c.t1, c.period1, c.period1 + c.t1,
            c.period2 - c.t1, c.period2, c.t2, c.period2 - c.t2,
        )
        assert len(set(values)) == 8
        assert c.t1 != c.t2


# -- parameter validation ---------------------------------------------------------

@pytest.mark.parametrize("m", (0, 1, 3, 6, 9))
def test_rejects_bad_moduli(m):
    for build in (qq_components, lambda k: qq_offset(k, 0), lambda k: qq_sign_exp(k, 0)):
        with pytest.raises(InvalidParameter):
            build(m)
    with pytest.raises(InvalidParameter):
        quintuple_components(4, 1, m)


@pytest.mark.parametrize("field,delta", [("t2", 1), ("t2", -2), ("period2", 2)])
def test_component_rejects_a_non_quintuple_shape(field, delta):
    comp = qq_components(5).components[1]
    with pytest.raises(InvalidParameter, match="not a quintuple product"):
        replace(comp, **{field: getattr(comp, field) + delta})


def test_rejects_bad_quintuple_parameters():
    with pytest.raises(InvalidParameter):
        quintuple_components(2, 1, 5)
    with pytest.raises(InvalidParameter):
        quintuple_components(4, 2, 5)


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


def test_five_dissection_reassembles():
    s0, s1, s2 = ramanujan5(300)
    assert s0 + s1 + s2 == pochhammer(1, 1, 300)
    assert s0.coefficient(0) == 1


def test_five_dissection_supports():
    for k, summand in enumerate(ramanujan5(200)):
        for n, c in enumerate(summand.coefficients):
            if c:
                assert n % 5 == k
