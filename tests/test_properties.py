"""Seeded randomized property checks for the exact-arithmetic layer."""

from _propcheck import (
    check_dissection_completeness,
    check_inverse_round_trip,
    check_nonneg_inverse_products,
    check_power_additivity,
    check_ring_laws,
    check_unit_lower_bound,
    check_vanishing_predicate,
)

from qsigns import pochhammer


def test_ring_laws():
    assert check_ring_laws(seed=101) == []


def test_inverse_round_trip():
    assert check_inverse_round_trip(seed=102) == []


def test_dissection_completeness():
    assert check_dissection_completeness(seed=103) == []


def test_power_additivity():
    assert check_power_additivity(seed=104) == []


def test_inverse_products_are_nonnegative():
    assert check_nonneg_inverse_products(seed=105) == []


def test_unit_lower_bound_on_multiples():
    assert check_unit_lower_bound(seed=106) == []


def test_vanishing_predicate_matches_its_definition():
    assert check_vanishing_predicate(seed=107) == []


def test_pentagonal_sparsity():
    assert all(c in (-1, 0, 1) for c in pochhammer(1, 1, 2000).coefficients)
