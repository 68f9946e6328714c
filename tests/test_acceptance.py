"""Acceptance suite.

Every criterion is an exact integer check (tolerance zero) and prints
one [PASS]/[FAIL] line; run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they complete.
"""

import ast
import io
import tokenize
from pathlib import Path

from _propcheck import (
    binomial_expansion,
    check_certificate_invariants,
    check_dissection_completeness,
    check_inverse_round_trip,
    check_nonneg_inverse_products,
    check_power_additivity,
    check_ring_laws,
    check_unit_lower_bound,
    closed_form_components,
)

from qsigns import (
    EtaQuotientSpec,
    assemble,
    borwein_a,
    borwein_b,
    borwein_c3,
    corpus,
    detect_pattern,
    eta_quotient,
    pattern_catalog,
    pochhammer,
    predict_quotient_pattern,
    qq_components,
    quintuple_components,
    quintuple_product,
    sign_census,
    theta_alt_squares,
    theta_squares,
    theta_threevar,
    theta_triangular,
    theta_weighted,
    three_dissection_qq,
    three_dissection_qq3,
    vanishing_predicate,
    verify_pattern,
)

MODULI = (2, 4, 5, 7, 8, 10, 11, 13)

# per (p, i): the expected class string and the least n from which it holds
QUOTIENT_TABLE = {
    (5, 2): ("+0-0-", 0),
    (5, 3): ("+-0-0", 2),
    (5, 4): ("+00--", 4),
    (7, 2): ("+0-+-00", 4),
    (7, 3): ("++0-00-", 9),
    (7, 4): ("+-00-0+", 14),
    (11, 2): ("+0-+-000-0+", 20),
    (11, 3): ("+-0-+0-000+", 35),
    (11, 4): ("+000--+0-+0", 50),
    (13, 2): ("++-0-+0000+-0", 32),
    (13, 3): ("+++-00-0+0-00", 54),
    (13, 4): ("+0+0-00+--+00", 76),
}

CENSUS_A = [
    (0, 0, 7142), (7141, 1, 0), (3319, 504, 3319), (7141, 1, 0),
    (3285, 507, 3350), (3279, 509, 3354), (0, 0, 7142),
]
CENSUS_B = [
    (0, 0, 7142), (7140, 2, 0), (0, 1, 7141), (3300, 518, 3324),
    (3294, 525, 3323), (7141, 1, 0), (3292, 524, 3326),
]

TRIANGULAR_ONSETS = {3: -2, 5: -2, 7: -1}
ALT_SQUARES_ONSETS = {1: -3, 3: -3, 5: 5, 7: 21}


def _criterion(name: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"[{mark}] {name}" + (f": {detail}" if detail else "")
    print(line)
    assert ok, line


def test_criterion_01_quotient_table_and_verification():
    failures = []
    for (p, i), (classes, n_from) in QUOTIENT_TABLE.items():
        cert = predict_quotient_pattern(p, i)
        if cert.pattern.class_string != classes:
            failures.append(f"({p},{i}) pattern {cert.pattern.class_string}")
        if cert.onset + 1 != n_from:
            failures.append(f"({p},{i}) onset {cert.onset}")
        series = eta_quotient(f"{i}^1 {p}^-1", 5000)
        if not verify_pattern(series, cert.pattern, 5000).passed:
            failures.append(f"({p},{i}) verification")
    _criterion(
        "criterion 1: quotient sign table, 12 cells, verified to T=5000",
        not failures, "; ".join(failures),
    )


def test_criterion_02_quintuple_dissection_sweep():
    failures = []
    for M in range(3, 9):
        for j in range(1, (M + 1) // 2):
            if 2 * j >= M:
                continue
            target = quintuple_product(M, j, 200)
            for m in MODULI:
                expr = quintuple_components(M, j, m)
                if assemble(expr, 200) != target:
                    failures.append(f"(M={M}, j={j}, m={m})")
    _criterion(
        "criterion 2: quintuple dissection sweep, T=200",
        not failures, "; ".join(failures),
    )


def test_criterion_03_euler_dissection_closed_forms():
    failures = []
    euler = pochhammer(1, 1, 500)
    for m in MODULI:
        expr = qq_components(m)
        if assemble(expr, 500) != euler:
            failures.append(f"m={m} reassembly")
        if expr != closed_form_components(m):
            failures.append(f"m={m} closed forms")
    _criterion(
        "criterion 3: (q;q) dissection closed forms, T=500",
        not failures, "; ".join(failures),
    )


def test_criterion_04_three_dissections():
    s0, s1, s2 = three_dissection_qq(500)
    first = s0 + s1 + s2 == pochhammer(1, 1, 500)
    c0, c1 = three_dissection_qq3(500)
    second = c0 + c1 == eta_quotient("1^3", 500)
    _criterion(
        "criterion 4: 3-dissections of (q;q) and (q;q)^3, T=500",
        first and second,
        f"first={first}, second={second}",
    )


def test_criterion_05_theta_identities():
    pairs = [
        ("alternating squares", theta_alt_squares(1000), "1^2 2^-1"),
        ("triangular", theta_triangular(1000), "2^2 1^-1"),
        ("squares", theta_squares(1000), "2^5 1^-2 4^-2"),
        ("weighted", theta_weighted(1000), "1^2 6^1 2^-1 3^-1"),
    ]
    # each quotient expanded one binomial at a time, since `eta_quotient` plans three
    # of these specs as the very theta atoms under test
    failures = [name for name, theta, spec in pairs
                if theta != binomial_expansion(EtaQuotientSpec.parse(spec), 1000)]
    _criterion(
        "criterion 5: theta-series product identities, T=1000",
        not failures, "; ".join(failures),
    )


def test_criterion_06_cubic_theta_identities():
    a3 = borwein_a(100).dilate(3, cap=300)
    b = borwein_b(300)
    c3 = borwein_c3(300)
    difference = b == a3 - c3
    b3 = borwein_b(100).dilate(3, cap=300)
    cubes = a3.power(3) == b3.power(3) + c3.power(3)
    threevar = theta_threevar(200) == eta_quotient("3^3 1^-1", 200)
    _criterion(
        "criterion 6: cubic theta identities and three-variable sum",
        difference and cubes and threevar,
        f"difference={difference}, cubes={cubes}, threevar={threevar}",
    )


def test_criterion_07_pattern_catalog():
    failures = []
    for case in pattern_catalog():
        raw = case.params.get("raw_onset", 0)
        family = case.params["family"]
        if family == "triangular" and raw != TRIANGULAR_ONSETS[case.params["p"]]:
            failures.append(f"{case.case_id} onset {raw}")
        if family == "alt-squares" and raw != ALT_SQUARES_ONSETS[case.params["p"]]:
            failures.append(f"{case.case_id} onset {raw}")
        if family == "fixed" and case.pattern.onset != 0:
            failures.append(f"{case.case_id} onset {case.pattern.onset}")
        series = eta_quotient(case.spec, 3000)
        if not verify_pattern(series, case.pattern, 3000).passed:
            failures.append(f"{case.case_id} verification")
    _criterion(
        "criterion 7: pattern catalog, 16 parameterized cases, T=3000",
        not failures, "; ".join(failures),
    )


def test_criterion_08_sign_census():
    K = 7142
    precision = 7 * K - 1
    series_a = eta_quotient("2^5 7^-1", precision)
    series_b = eta_quotient("3^5 7^-1", precision)
    ok_a = sign_census(series_a, 7, K) == CENSUS_A
    ok_b = sign_census(series_b, 7, K) == CENSUS_B
    _criterion(
        "criterion 8: sign census, 42 exact count triples at K=7142",
        ok_a and ok_b,
        f"A={ok_a}, B={ok_b}",
    )


def test_criterion_09_corpus_regression():
    failures = []
    for entry in corpus():
        series = eta_quotient(entry.spec, entry.horizon)
        if not verify_pattern(series, entry.pattern, entry.horizon).passed:
            failures.append(entry.name)
        if entry.name == "rr-quotient":
            detected = detect_pattern(series, 5, entry.horizon)
            if detected != entry.pattern:
                failures.append(f"rr-quotient detected {detected}")
    series = eta_quotient("1^7 2^-2 3^-1", 3000)
    for n in range(1, 3001):
        if (series.coefficient(n) == 0) != vanishing_predicate(n):
            failures.append(f"vanishing set at n={n}")
            break
    _criterion(
        "criterion 9: corpus regressions to T=5000 and the vanishing set",
        not failures, "; ".join(failures),
    )


def test_criterion_10_property_suites():
    failures = []
    failures += check_ring_laws(seed=1)
    failures += check_inverse_round_trip(seed=2)
    failures += check_dissection_completeness(seed=3)
    failures += check_power_additivity(seed=4)
    failures += check_nonneg_inverse_products(seed=5)
    failures += check_unit_lower_bound(seed=6)
    failures += check_certificate_invariants()
    _criterion(
        "criterion 10: seeded property suites, zero failures",
        not failures, "; ".join(failures[:5]),
    )


def test_readme_quick_tour_results():
    """Run the README's "Library quick tour" block; each commented expression's comment starts with its repr."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    comments = {tok.start[0]: tok.string.lstrip("#").strip()
                for tok in tokenize.generate_tokens(io.StringIO(block).readline)
                if tok.type == tokenize.COMMENT}
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        if isinstance(stmt, ast.Expr) and stmt.end_lineno in comments:
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            comment = comments[stmt.end_lineno]
            assert (comment + " ").startswith(repr(value) + " "), (ast.unparse(stmt), comment, value)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == 7
