"""Sign-pattern prediction, verification, detection, census, catalog, corpus."""

import random

import pytest
from _propcheck import check_detect_matches_scan, closed_form_offset, closed_form_sign_exp

from qsigns import (
    BeyondPrecision,
    InvalidParameter,
    QSignsError,
    Series,
    SignClass,
    SignPattern,
    corpus,
    detect_pattern,
    eta_quotient,
    pattern_catalog,
    pochhammer,
    predict_quotient_pattern,
    sign_census,
    vanishing_predicate,
    verify_pattern,
)
from qsigns import dissect
from qsigns.signs import _alt_squares_case, _signed_pieces, _triangular_case


# -- prediction ---------------------------------------------------------------

def test_predict_5_2():
    cert = predict_quotient_pattern(5, 2)
    assert cert.pattern.class_string == "+0-0-"
    assert cert.onset == -1
    assert cert.residue_map == (0, 4, 2, 4, 0)
    assert cert.offsets == (0, 2, 1, 12, 5)


def test_predict_7_2():
    cert = predict_quotient_pattern(7, 2)
    assert cert.pattern.class_string == "+0-+-00"
    assert cert.onset == 3


def test_predict_5_3_and_5_4():
    assert predict_quotient_pattern(5, 3).pattern.class_string == "+-0-0"
    assert predict_quotient_pattern(5, 3).onset == 1
    assert predict_quotient_pattern(5, 4).pattern.class_string == "+00--"
    assert predict_quotient_pattern(5, 4).onset == 3


@pytest.mark.parametrize("p,i", [(4, 2), (3, 2), (2, 3), (9, 2), (5, 1), (5, 10), (7, 14)])
def test_predict_rejects_bad_parameters(p, i):
    with pytest.raises(InvalidParameter):
        predict_quotient_pattern(p, i)


def test_certificates_are_internally_consistent():
    from _propcheck import check_certificate_invariants

    assert check_certificate_invariants() == []


# -- verification ----------------------------------------------------------------

def test_verify_predicted_pattern_passes():
    series = eta_quotient("2^1 5^-1", 2000)
    report = verify_pattern(series, predict_quotient_pattern(5, 2).pattern, 2000)
    assert report.passed
    assert report.first_violation is None


def test_all_mixed_pattern_is_vacuous():
    pattern = SignPattern.from_string("????", onset=-1)
    report = verify_pattern(pochhammer(1, 1, 100), pattern, 100)
    assert report.passed


def test_wrong_pattern_fails_at_zero():
    series = eta_quotient("2^1 5^-1", 50)
    wrong = SignPattern.from_string("-0+0+", onset=-1)
    report = verify_pattern(series, wrong, 50)
    assert not report.passed
    assert report.first_violation[0] == 0


def test_verify_matches_a_term_by_term_walk():
    """Residue-at-a-time verification lists the violations the one-coefficient walk finds, in order."""
    rng = random.Random(0)
    for _ in range(300):
        horizon = rng.randint(0, 60)
        series = Series([rng.choice((-2, -1, 0, 0, 1, 3)) * rng.randint(0, 1) for _ in range(horizon + 1)])
        classes = "".join(rng.choice("+-0?") for _ in range(rng.randint(1, 9)))
        pattern = SignPattern.from_string(classes, onset=rng.randint(-1, horizon + 2))
        expected = []
        for n in range(pattern.onset + 1, horizon + 1):
            cls, c = pattern.classes[n % pattern.modulus], series.coefficients[n]
            sign = (c > 0) - (c < 0)
            if not cls.matches(sign):
                expected.append((n, cls, sign))
        assert verify_pattern(series, pattern, horizon).violations == tuple(expected)


def test_verify_beyond_precision():
    with pytest.raises(BeyondPrecision):
        verify_pattern(Series.one(10), SignPattern.from_string("+"), 11)


def test_verify_rejects_a_negative_horizon():
    # (q^2;q^2)/(q^5;q^5) fails "+-0-0" by n = 50, but a negative horizon checks nothing
    series, pattern = eta_quotient("2^1 5^-1", 50), SignPattern.from_string("+-0-0")
    assert not verify_pattern(series, pattern, 50).passed
    with pytest.raises(InvalidParameter, match="horizon must be nonnegative, got -7"):
        verify_pattern(series, pattern, -7)


def test_pattern_validation():
    with pytest.raises(InvalidParameter):
        SignPattern(3, (SignClass.POS,), onset=-1)
    with pytest.raises(InvalidParameter):
        SignPattern.from_string("+-", onset=-2)
    with pytest.raises(InvalidParameter):
        SignClass.from_symbol("x")


# -- detection ---------------------------------------------------------------------

def test_detect_quotient_pattern():
    series = eta_quotient("2^1 5^-1", 2000)
    pattern = detect_pattern(series, 5, 2000)
    assert pattern.class_string == "+0-0-"
    assert pattern.onset == -1


def test_detect_flags_mixed_residues():
    series = eta_quotient("2^5 7^-1", 2000)
    pattern = detect_pattern(series, 7, 2000)
    mixed = {r for r, c in enumerate(pattern.classes) if c is SignClass.MIXED}
    assert mixed == {2, 4, 5}


def test_detect_pentagonal_is_mixed():
    pattern = detect_pattern(pochhammer(1, 1, 2000), 1, 2000)
    assert pattern.classes == (SignClass.MIXED,)


def test_detect_agrees_with_prediction():
    primes = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
    cells = [(p, i) for p in primes for i in range(2, 7) if i % p]
    assert len(cells) == 64
    for p, i in cells:
        cert = predict_quotient_pattern(p, i)
        horizon = max(2000, 3 * cert.onset)
        series = eta_quotient(f"{i}^1 {p}^-1", horizon)
        detected = detect_pattern(series, p, horizon)
        assert detected.classes == cert.pattern.classes, (p, i)
        assert detected.onset == cert.onset, (p, i)
        assert verify_pattern(series, detected, horizon).passed


def test_detect_matches_the_scan_oracle():
    assert check_detect_matches_scan(seed=20) == []


def test_detect_rejects_bad_parameters():
    with pytest.raises(BeyondPrecision):
        detect_pattern(Series.one(10), 2, 11)
    with pytest.raises(InvalidParameter):
        detect_pattern(Series.one(3), 5, 3)


# -- census ---------------------------------------------------------------------------

def test_census_of_zero_series():
    rows = sign_census(Series.zero(29), 3, 10)
    assert rows == [(0, 10, 0)] * 3


def test_census_small_quotient():
    series = eta_quotient("2^1 5^-1", 39)
    assert sign_census(series, 5, 8) == [
        (0, 0, 8), (0, 8, 0), (8, 0, 0), (0, 8, 0), (8, 0, 0),
    ]


def test_census_matches_a_term_by_term_walk():
    """The census agrees with the one-coefficient walk: few classes of many terms;
    with K = 1 and 2, thousands of classes; and counts of 255 and 256 in one class."""
    rng = random.Random(0)
    for i in range(324):
        modulus, K = rng.randint(1, 13), rng.randint(1, 30)
        signs = (-1, 0, 0, 1)
        if i >= 300:
            modulus, K = rng.randint(1000, 9999), 1 + i % 2
        if i >= 320:
            modulus, K, signs = 300, 255 + i % 2, ((-1, 0, 1, 1, 1, 1, 1, 1) if i < 322 else (1,))
        big = rng.choice((3, 10**40))
        coefficients = [rng.choice(signs) * rng.randint(1, big)
                        for _ in range(modulus * K + rng.randint(0, 20))]
        expected = []
        for r in range(modulus):
            neg = zero = pos = 0
            for k in range(K):
                c = coefficients[r + k * modulus]
                if c < 0:
                    neg += 1
                elif c == 0:
                    zero += 1
                else:
                    pos += 1
            expected.append((neg, zero, pos))
        assert sign_census(Series(coefficients), modulus, K) == expected, (modulus, K)


def test_census_needs_enough_precision():
    with pytest.raises(BeyondPrecision):
        sign_census(Series.one(10), 3, 10)


# -- catalog ----------------------------------------------------------------------------

def test_catalog_shape_and_onsets():
    cases = {c.case_id: c for c in pattern_catalog()}
    assert len(cases) == 16

    tri5 = cases["2^2 1^-1 5^-1"]
    assert tri5.pattern.class_string == "++0+0"
    assert tri5.params["raw_onset"] == -2
    assert tri5.pattern.onset == -1

    sq1 = cases["1^2 2^-1 4^-1"]
    assert sq1.pattern.class_string == "+-00"
    assert sq1.params["raw_onset"] == -3

    assert cases["1^9 3^-9"].pattern.class_string == "+-+--+0-+"
    assert cases["1^9 3^-12"].pattern.class_string == "+-+0-+0-+"
    assert cases["1^9 3^-13"].pattern.class_string == "+-+"


def test_catalog_case_verifies_at_small_horizon():
    case = next(c for c in pattern_catalog() if c.case_id == "1^2 5^-3")
    series = eta_quotient(case.spec, 500)
    assert verify_pattern(series, case.pattern, 500).passed


# -- the signed-pieces rule ------------------------------------------------------------
# Test-local copies of the three loops that each derived classes and onsets
# on their own before `_signed_pieces` took over; the rule must agree with all.
# The predict loop reads the closed forms of the (q;q) dissection, so it is
# also the oracle for the offsets and signs `predict_quotient_pattern` takes
# from the general quintuple dissection.

def _predict_loop(p, i):
    offsets = tuple(closed_form_offset(p, r) for r in range(p))
    sign_exponents = tuple(closed_form_sign_exp(p, r) for r in range(p))
    residue_map = tuple((i * (6 * r * r + r)) % p for r in range(p))
    classes = [SignClass.ZERO] * p
    least = {}
    for r in range(p):
        cls = SignClass.POS if sign_exponents[r] % 2 == 0 else SignClass.NEG
        rho = residue_map[r]
        assert classes[rho] in (SignClass.ZERO, cls)
        classes[rho] = cls
        v = i * offsets[r]
        if rho not in least or v < least[rho]:
            least[rho] = v
    return offsets, sign_exponents, residue_map, tuple(classes), max(least.values()) - p


def _triangular_loop(p):
    least = {}
    for r in range(p):
        t = r * (r + 1) // 2
        if t % p not in least or t < least[t % p]:
            least[t % p] = t
    classes = tuple(SignClass.POS if s in least else SignClass.ZERO for s in range(p))
    return classes, max(least.values()) - p


def _alt_squares_loop(p):
    mod = 4 * p
    pos = {(4 * t * t) % mod for t in range(p)}
    neg = {(4 * t * t + 4 * t + 1) % mod for t in range(p)}
    least = {}
    for r in range(mod):
        s = (r * r) % mod
        if s not in least or r * r < least[s]:
            least[s] = r * r
    classes = tuple(
        SignClass.POS if s in pos else SignClass.NEG if s in neg else SignClass.ZERO
        for s in range(mod)
    )
    return classes, max(least.values()) - mod


def test_signed_pieces_matches_the_predict_loop(monkeypatch):
    # the prediction reads one component per residue, never a whole dissection
    def refuse(*args):
        raise AssertionError("the prediction built a whole dissection")

    monkeypatch.setattr(dissect, "quintuple_components", refuse)
    monkeypatch.setattr(dissect, "qq_components", refuse)
    pairs = [(p, i) for p in range(5, 100) for i in range(2, 31)
             if all(p % d for d in range(2, p)) and i % p]
    assert len(pairs) == 649
    for p, i in pairs:
        cert = predict_quotient_pattern(p, i)
        offsets, sign_exponents, residue_map, classes, onset = _predict_loop(p, i)
        assert (cert.p, cert.i) == (p, i)
        assert cert.offsets == offsets, (p, i)
        assert cert.sign_exponents == sign_exponents, (p, i)
        assert cert.residue_map == residue_map, (p, i)
        assert cert.onset == onset, (p, i)
        assert cert.pattern == SignPattern(p, classes, max(onset, -1)), (p, i)


@pytest.mark.parametrize("build,loop,top", [
    (_triangular_case, _triangular_loop, 40),
    (_alt_squares_case, _alt_squares_loop, 25),
])
def test_signed_pieces_matches_the_family_loops(build, loop, top):
    for p in range(1, top + 1):
        case = build(p)
        classes, raw = loop(p)
        assert case.params["raw_onset"] == raw, p
        assert case.params["p"] == p
        assert case.pattern == SignPattern(len(classes), classes, max(raw, -1)), p


def test_signed_pieces_rejects_a_sign_clash():
    # 1 and 5 share the residue 1 mod 4 with opposite signs
    with pytest.raises(QSignsError, match="residue 1 mod 4"):
        _signed_pieces(4, [(0, 1), (1, 1), (5, -1)])


def test_signed_pieces_least_exponents():
    classes, onset = _signed_pieces(4, [(9, -1), (1, -1), (4, 1), (6, 1)])
    assert "".join(c.value for c in classes) == "+-+0"
    assert onset == 6 - 4


# -- corpus -------------------------------------------------------------------------------

def test_corpus_names_and_onsets():
    entries = {e.name: e for e in corpus()}
    assert set(entries) == {
        "period8-quartic", "period9-ninth", "rr-quotient",
        "octic-quotient", "hirschhorn-a", "hirschhorn-b",
    }
    assert entries["rr-quotient"].pattern.class_string == "++---"
    assert entries["rr-quotient"].pattern.onset == 9
    assert entries["period8-quartic"].pattern.class_string == "+-0+--0+"


def test_corpus_entry_verifies_at_small_horizon():
    entry = next(e for e in corpus() if e.name == "rr-quotient")
    series = eta_quotient(entry.spec, 600)
    assert verify_pattern(series, entry.pattern, 600).passed


# -- onset sharpness and the ninth-power family ------------------------------------------

TABLE_CELLS = [(p, i) for p in (5, 7, 11, 13) for i in (2, 3, 4)]


@pytest.mark.parametrize("p,i", TABLE_CELLS)
def test_onset_is_not_improvable(p, i):
    # either the bound is already -1 or some n <= onset violates the pattern
    cert = predict_quotient_pattern(p, i)
    if cert.onset == -1:
        print(f"(p={p}, i={i}): onset -1, nothing to probe")
        return
    series = eta_quotient(f"{i}^1 {p}^-1", cert.onset)
    early = SignPattern(cert.pattern.modulus, cert.pattern.classes, -1)
    report = verify_pattern(series, early, cert.onset)
    assert not report.passed
    largest = max(n for n, _, _ in report.violations)
    print(f"(p={p}, i={i}): largest violation at n={largest}, onset {cert.onset}")
    assert largest <= cert.onset


def test_full_certificate_sweep_verifies():
    for p in (5, 7, 11, 13, 17, 19):
        for i in range(2, 10):
            if i % p == 0:
                continue
            cert = predict_quotient_pattern(p, i)
            horizon = max(5000, 3 * cert.onset)
            series = eta_quotient(f"{i}^1 {p}^-1", horizon)
            assert verify_pattern(series, cert.pattern, horizon).passed, (p, i)


@pytest.mark.parametrize("i", range(4, 16))
def test_ninth_power_family_signs(i):
    series = eta_quotient(f"1^9 3^-{i}", 3000)
    for n in range(1, 3001):
        if n % 3 == 2:
            assert series.coefficient(n) > 0, (i, n)
        elif n % 3 == 1:
            assert series.coefficient(n) < 0, (i, n)


# -- vanishing predicate --------------------------------------------------------------------

@pytest.mark.parametrize(
    "n,expected",
    [
        (14, True),   # 2 * 7, exponent of 7 odd
        (5, False),   # no prime 3 mod 4 divides it
        (2, False),   # 2 mod 3 but no qualifying prime
        (1, False),
        (59, True),   # prime, 59 = 3 mod 4 and 59 = 2 mod 3
        (98, False),  # 2 * 7^2: exponent of 7 even
        (21, False),  # 0 mod 3
    ],
)
def test_vanishing_predicate(n, expected):
    assert vanishing_predicate(n) is expected


def test_vanishing_predicate_rejects_nonpositive():
    with pytest.raises(InvalidParameter):
        vanishing_predicate(0)
