"""Series core: exact truncated arithmetic."""

import random

import pytest
from _propcheck import _power_oracle, check_mul_matches_dense_oracle, check_power_and_inverse_match_oracle

from qsigns import BeyondPrecision, InvalidParameter, NonUnitConstantTerm, Series, _backend
from qsigns.series import MAX_PRECISION


def naive_mul(xs, ys, n):
    """Quadratic convolution oracle, independent of the kernel path."""
    out = [0] * n
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            if i + j < n:
                out[i + j] += a * b
    return out


# -- add / sub ----------------------------------------------------------

def test_add_cancels_to_one():
    assert Series([1, -1]) + Series([0, 1]) == Series([1, 0])


def test_add_identity():
    s = Series([3, -1, 4])
    assert s + Series.zero(2) == s


def test_add_three_term_cancellation():
    assert Series([1, -1, -1]) + Series([0, 1, 1]) == Series([1, 0, 0])


def test_binary_ops_take_min_precision():
    a = Series([1, 2, 3, 4, 5])
    b = Series([1, 1])
    assert (a + b).precision == 1
    assert (a - b).precision == 1
    assert (a * b).precision == 1


def test_negation():
    assert -Series([1, -2]) == Series([-1, 2])


# -- mul ----------------------------------------------------------------

def test_mul_telescopes():
    out = Series([1, -1, 0, 0]) * Series([1, 1, 1, 1])
    assert out == Series([1, 0, 0, 0])


def test_mul_identity():
    s = Series([2, 0, -5, 7])
    assert s * Series.one(3) == s


def test_mul_matches_hand_convolution():
    x = Series([1, -1, -1, 0, 0, 1])
    sq = (x * x).truncate(4)
    assert sq == Series([1, -2, -1, 2, 1])
    assert list(sq.coefficients) == naive_mul(list(x.coefficients), list(x.coefficients), 5)


def test_mul_matches_naive_oracle_on_random_input():
    rng = random.Random(20240)
    for _ in range(25):
        xs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 20))]
        ys = [rng.randint(-9, 9) for _ in range(rng.randint(1, 20))]
        n = min(len(xs), len(ys))
        assert list((Series(xs) * Series(ys)).coefficients) == naive_mul(xs, ys, n)


@pytest.mark.parametrize("seed", [0, 1])
def test_mul_matches_dense_oracle(seed):
    assert check_mul_matches_dense_oracle(seed, rounds=400) == []


# -- invert -------------------------------------------------------------

def test_invert_geometric_series():
    assert Series([1, -1, 0, 0, 0, 0]).invert() == Series([1, 1, 1, 1, 1, 1])


def test_invert_one():
    assert Series.one(4).invert() == Series.one(4)


def test_invert_gives_partition_numbers():
    # 1/(1-q)(1-q^2)... via the pentagonal head of the denominator
    pent = Series([1, -1, -1, 0, 0, 1, 0, 1])
    assert pent.invert().truncate(5) == Series([1, 1, 2, 3, 5, 7])


def test_invert_negative_unit_constant():
    s = Series([-1, 2, 1])
    assert s * s.invert() == Series.one(2)


def test_invert_rejects_non_unit():
    with pytest.raises(NonUnitConstantTerm):
        Series([2, 1]).invert()


def test_inverse_round_trip():
    rng = random.Random(7)
    for _ in range(20):
        cs = [rng.choice((1, -1))] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 20))]
        s = Series(cs)
        assert s * s.invert() == Series.one(s.precision)


# -- power --------------------------------------------------------------

def test_power_zero_is_one():
    assert Series([5, 1, 2]).power(0) == Series.one(2)


def test_power_binomial_square():
    assert Series([1, -1, 0]).power(2) == Series([1, -2, 1])


def test_power_negative_one_is_geometric():
    assert Series([1, -1, 0, 0]).power(-1) == Series([1, 1, 1, 1])
    assert Series([1, -1, 0, 0]) ** -1 == Series([1, 1, 1, 1])


def test_power_negative_rejects_non_unit():
    with pytest.raises(NonUnitConstantTerm):
        Series([3, 1]).power(-1)
    with pytest.raises(NonUnitConstantTerm, match="constant term 0"):
        Series([0, 1, 1]).power(-2)


def test_power_of_non_unit_constant_term():
    assert Series([3, 1, 0, 0]).power(3) == Series([27, 27, 9, 1])


def test_power_factors_out_the_lowest_term():
    # (q^2 + q^3)^2 = q^4 + 2q^5 + q^6
    assert Series([0, 0, 1, 1, 0, 0, 0]).power(2) == Series([0, 0, 0, 0, 1, 2, 1])
    assert Series([0, 0, 1, 1, 0, 0]).power(3) == Series.zero(5)
    assert Series.zero(4).power(5) == Series.zero(4)


def test_power_with_a_lowest_term_offset(monkeypatch):
    """q^v * f to the power k is q^(v*k) * f^k, f raised at T + 1 - v*k coefficients:
    by packed squaring for a dense f, by Miller's recurrence for a sparse one."""
    packed = []
    power_packed = _backend._power_packed

    def count(live, k, n, bound):
        packed.append((n, k))
        return power_packed(live, k, n, bound)

    monkeypatch.setattr(_backend, "_power_packed", count)
    rng = random.Random(5)
    T = 60
    for v in (1, 2, 3):
        for k in (2, 3, 5):
            for dense in (True, False):
                f = [rng.choice((1, -1, 7)) if dense or i < 2 else 0 for i in range(T + 1 - v)]
                cs = [0] * v + f
                packed.clear()
                assert list(Series(cs).power(k).coefficients) == _power_oracle(cs, k), (v, k, dense)
                assert packed == ([(T + 1 - v * k, k)] if dense else []), (v, k, dense)


@pytest.mark.parametrize("seed", [0, 1])
def test_power_and_inverse_match_oracle(seed):
    assert check_power_and_inverse_match_oracle(seed, rounds=600) == []


# -- shift / dilate / slice ----------------------------------------------

def test_shift_monomial():
    assert Series.one(3).shift(3) == Series([0, 0, 0, 1])


def test_shift_zero_is_identity():
    s = Series([1, 2, 3])
    assert s.shift(0) == s


def test_shift_keeps_precision_and_drops_top():
    assert Series([1, -1, 0, 0]).shift(2) == Series([0, 0, 1, -1])


def test_shift_rejects_negative():
    with pytest.raises(InvalidParameter):
        Series([1]).shift(-1)


def test_dilate_triples_exponents():
    assert Series([1, 1]).dilate(3) == Series([1, 0, 0, 1])


def test_dilate_by_one_is_identity():
    s = Series([1, -1, 1])
    assert s.dilate(1) == s


def test_dilate_alternating():
    assert Series([1, -1, 1]).dilate(2) == Series([1, 0, -1, 0, 1])


def test_dilate_honours_cap():
    assert Series([1, 1, 1]).dilate(3, cap=4) == Series([1, 0, 0, 1, 0])


def test_slice_even_part():
    assert Series([1, 1, 1, 1]).slice(0, 2) == Series([1, 1])


def test_slice_odd_monomial():
    assert Series([0, 1]).slice(1, 2) == Series([1])


def test_slice_residue_one_of_three():
    assert Series([1, -2, 3, -4, 5]).slice(1, 3) == Series([-2, 5])


def test_slice_precision():
    assert Series([0] * 11).slice(2, 3).precision == (10 - 2) // 3


def test_slice_rejects_bad_residue():
    with pytest.raises(InvalidParameter):
        Series([1, 2]).slice(3, 3)


# -- coefficient access ---------------------------------------------------

def test_coefficient_and_sign():
    s = Series([1, -1])
    assert s.coefficient(1) == -1
    assert s.sign_of(0) == 1
    assert s.sign_of(1) == -1
    assert Series([0, 0]).sign_of(1) == 0


def test_coefficient_beyond_precision():
    with pytest.raises(BeyondPrecision):
        Series([1, 2]).coefficient(2)


def test_coefficient_rejects_negative_exponent():
    with pytest.raises(InvalidParameter):
        Series([1]).coefficient(-1)


def test_empty_series_rejected():
    with pytest.raises(InvalidParameter):
        Series([])


def test_truncate_cannot_extend():
    with pytest.raises(BeyondPrecision):
        Series([1, 2]).truncate(5)


@pytest.mark.parametrize("call,name", [
    (lambda: Series([1, 2]).truncate(-1), "precision"),
    (lambda: Series([1, 2]).dilate(2, cap=-1), "cap"),
    (lambda: Series.zero(-1), "precision"),
    (lambda: Series.one(-2), "precision"),
    (lambda: Series.from_terms([(0, 1)], -1), "precision"),
], ids=["truncate", "dilate", "zero", "one", "from_terms"])
def test_negative_precision_is_named(call, name):
    with pytest.raises(InvalidParameter, match=f"^{name} must be nonnegative, got -"):
        call()


@pytest.mark.parametrize("call,name", [
    (lambda: Series([1, 2]).truncate(MAX_PRECISION + 1), "precision"),
    (lambda: Series([1, 2]).dilate(2, cap=MAX_PRECISION + 1), "cap"),
    (lambda: Series([1, 2, 3]).dilate(MAX_PRECISION), "dilated precision"),
    (lambda: Series.zero(MAX_PRECISION + 1), "precision"),
    (lambda: Series.one(MAX_PRECISION + 2), "precision"),
    (lambda: Series.from_terms([(0, 1)], 10**18), "precision"),
], ids=["truncate", "dilate cap", "dilate", "zero", "one", "from_terms"])
def test_precision_above_the_limit_is_named(call, name):
    with pytest.raises(InvalidParameter, match=f"^{name} = [0-9]+ exceeds the limit MAX_PRECISION = "):
        call()


def test_from_terms_drops_overflow():
    s = Series.from_terms([(0, 1), (3, -2), (9, 5)], 4)
    assert s == Series([1, 0, 0, -2, 0])
