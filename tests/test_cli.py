"""CLI behaviour: formats, determinism, exit codes."""

import hashlib
import json
import random

import pytest

from qsigns import (
    EtaQuotientSpec,
    SignPattern,
    assemble,
    backend_name,
    qq_components,
    ramanujan5,
    three_dissection_qq,
    three_dissection_qq3,
)
from qsigns import _jsonfmt, cli, products
from qsigns.signs import CorpusEntry


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_predict_text(capsys):
    code, out, _ = run(capsys, "predict", "--p", "7", "--i", "2")
    assert code == 0
    assert "+0-+-00" in out
    assert "n >= 4" in out


def test_predict_json_schema(capsys):
    code, out, _ = run(capsys, "predict", "--p", "5", "--i", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["command"] == "predict"
    assert doc["spec"] == "2^1 5^-1"
    assert doc["parameters"] == {"p": 5, "i": 2}
    assert doc["pattern"] == "+0-0-"
    assert doc["onset"] == -1


def test_verify_smallest_cell_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "--spec", "2^1 5^-1", "--p", "5", "--i", "2", "--T", "500"
    )
    assert code == 0
    assert "PASS" in out


def test_verify_mismatched_series_fails(capsys):
    code, out, _ = run(capsys, "verify", "--p", "5", "--i", "2", "--spec", "1^1", "--T", "60")
    assert code == 1
    assert "FAIL" in out


def test_census_csv_exact(capsys):
    code, out, _ = run(
        capsys, "census", "--spec", "2^1 5^-1", "--m", "5", "--K", "8",
        "--format", "csv",
    )
    assert code == 0
    assert out == (
        "residue,negative,zero,positive\n"
        "0,0,0,8\n"
        "1,0,8,0\n"
        "2,8,0,0\n"
        "3,0,8,0\n"
        "4,8,0,0\n"
    )
    assert not any(line != line.rstrip() for line in out.splitlines())


def test_census_is_deterministic(capsys):
    args = ("census", "--spec", "1^-1", "--m", "3", "--K", "5", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_expand_text(capsys):
    code, out, _ = run(capsys, "expand", "--spec", "1^-1", "--T", "5")
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t1", "2\t2", "3\t3", "4\t5", "5\t7"]


def test_expand_output_file(capsys, tmp_path):
    path = tmp_path / "report.csv"
    code, out, _ = run(
        capsys, "expand", "--spec", "1^1", "--T", "3", "--format", "csv",
        "--output", str(path),
    )
    assert code == 0
    assert out == ""
    assert path.read_text() == "n,coefficient\n0,1\n1,-1\n2,-1\n3,0\n"


def test_dissect_table_and_verdict(capsys):
    code, out, _ = run(capsys, "dissect", "--m", "5", "--T", "120")
    assert code == 0
    assert "reassembly at T=120: PASS" in out
    assert "15" in out  # t1 of the r=0 component


def test_dissect_csv_header(capsys):
    code, out, _ = run(capsys, "dissect", "--m", "2", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "r,sign_exp,offset,t1,t2,period1,period2"


def test_detect_json_is_flagged_empirical(capsys):
    code, out, _ = run(
        capsys, "detect", "--spec", "2^1 5^-1", "--m", "5", "--T", "300",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["empirical"] is True
    assert doc["pattern"] == "+0-0-"


def test_catalog_small_horizon(capsys):
    code, out, _ = run(capsys, "catalog", "--T", "300")
    assert code == 0
    assert out.count("PASS") == 17  # 16 cases plus the summary line


def test_catalog_derives_four_cases_by_multiplication(capsys, monkeypatch):
    """Four of the 16 cases start from an earlier case, and such a start never divides."""
    lone, divide = products.eta_quotient, products.div_sparse
    fresh, depth, outside = [], [0], []

    def counted(spec, T):
        fresh.append(spec)
        depth[0] += 1
        try:
            return lone(spec, T)
        finally:
            depth[0] -= 1

    def division(*args):
        if not depth[0]:
            outside.append(args)
        return divide(*args)

    monkeypatch.setattr(products, "eta_quotient", counted)
    monkeypatch.setattr(products, "div_sparse", division)
    code, out, _ = run(capsys, "catalog", "--T", "300")
    assert code == 0 and out.count("PASS") == 17
    assert len(fresh) == 12 and not outside


def stub_corpus(monkeypatch):
    entry = CorpusEntry(
        name="tiny",
        spec=EtaQuotientSpec.parse("2^1 5^-1"),
        pattern=SignPattern.from_string("+0-0-", onset=-1),
        horizon=100,
    )
    monkeypatch.setattr(cli, "corpus", lambda: [entry])
    monkeypatch.setattr(cli, "_VANISHING_HORIZON", 60)


def test_corpus_with_stubbed_entries(capsys, monkeypatch):
    stub_corpus(monkeypatch)
    code, out, _ = run(capsys, "corpus")
    assert code == 0
    assert "PASS  tiny" in out
    assert "vanishing-set" in out


def test_domain_error_exits_2(capsys):
    code, _, err = run(capsys, "census", "--spec", "0^1", "--m", "3", "--K", "5")
    assert code == 2
    assert "error:" in err


def test_negative_precision_exits_2(capsys):
    for argv in (("expand", "--spec", "1^1"), ("dissect", "--m", "5")):
        code, out, err = run(capsys, *argv, "--T", "-3")
        assert code == 2
        assert out == ""
        assert err == "error: --T must be nonnegative, got -3\n"


def test_unwritable_output_exits_2(capsys, tmp_path):
    path = tmp_path / "missing" / "r.txt"
    code, out, err = run(capsys, "predict", "--p", "7", "--i", "2", "--output", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert not path.exists()


def no_expansion(*args):
    raise AssertionError("a request that should be rejected started to expand")


@pytest.mark.parametrize("env,argv", [
    ({}, ("expand", "--spec", "1", "--T", str(cli.MAX_PRECISION + 1))),
    ({}, ("census", "--spec", "2^5 7^-1", "--m", "1", "--K", str(cli.MAX_PRECISION + 2))),
    ({"QSIGNS_PRECISION": str(cli.MAX_PRECISION + 1)}, ("detect", "--spec", "1", "--m", "2")),
    ({}, ("dissect", "--m", "100000000", "--T", "10")),
    # 5 * 200001 - 1 = MAX_PRECISION + 4: over only when the target counts too
    ({}, ("dissect", "--m", "4", "--T", "200000")),
    # a prime p above the cap: rejected before the primality test and the p-dissection
    ({}, ("predict", "--p", "1000003", "--i", "2")),
    ({}, ("verify", "--p", "1000003", "--i", "2")),
], ids=["expand", "census", "env-precision", "dissect", "dissect-target", "predict", "verify"])
def test_oversized_expansion_exits_2(capsys, monkeypatch, env, argv):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(cli, "eta_quotient", no_expansion)
    monkeypatch.setattr(cli, "quintuple_components", no_expansion)
    monkeypatch.setattr("qsigns.signs._is_prime", no_expansion)
    monkeypatch.setattr("qsigns.signs._residues", no_expansion)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"MAX_PRECISION = {cli.MAX_PRECISION}" in err


@pytest.mark.parametrize("m,K,name", [
    ("-1000", "-1000", "--m"), ("0", "5", "--m"), ("7", "0", "--K"), ("3", "-2", "--K"),
])
def test_census_rejects_nonpositive_m_and_K_before_expanding(capsys, monkeypatch, m, K, name):
    monkeypatch.setattr(cli, "eta_quotient", no_expansion)
    code, out, err = run(capsys, "census", "--spec", "2^5 7^-1", "--m", m, "--K", K)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {name} must be at least 1")


def no_kernel_pass(*args):
    raise AssertionError("a kernel pass or an expansion ran")


def test_dissect_runs_no_kernel_pass(capsys, monkeypatch):
    # every component, the target and each special dissection is one scatter of closed forms
    for module in ("products", "series"):
        for kernel in ("mul_sparse", "div_sparse", "pow_sparse"):
            monkeypatch.setattr(f"qsigns.{module}.{kernel}", no_kernel_pass)
    monkeypatch.setattr(products, "mul_sparse_run", no_kernel_pass)
    monkeypatch.setattr(products, "eta_quotient", no_kernel_pass)
    for T in (0, 1, 500):
        assert len(three_dissection_qq(T)) == 3
        assert len(ramanujan5(T)) == 3
        assert len(three_dissection_qq3(T)) == 2
        for m in (2, 5, 13):
            assert len(assemble(qq_components(m), T)) == T + 1
    requests = [
        (M, j, m, 300)
        for M in range(3, 9)
        for j in range(1, (M + 1) // 2)
        for m in (2, 4, 5, 7, 8, 10, 11, 13)
    ]
    for M, j, m, T in requests + [(8, 3, 13, 20000)]:
        code, out, err = run(capsys, "dissect", "--M", str(M), "--j", str(j), "--m", str(m),
                             "--T", str(T))
        assert (code, err) == (0, ""), (M, j, m, T)
        assert out.endswith(f"reassembly at T={T}: PASS\n"), (M, j, m, T)


@pytest.mark.parametrize("m,message", [
    ("-100000000", "need m >= 2, got -100000000"),
    ("300000000", "modulus must not be divisible by 3, got 300000000"),
])
def test_dissect_checks_the_modulus_before_the_size(capsys, monkeypatch, m, message):
    monkeypatch.setattr(cli, "quintuple_components", no_expansion)
    code, out, err = run(capsys, "dissect", "--m", m)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("m", ["0", "-5"])
def test_detect_rejects_nonpositive_m_before_expanding(capsys, monkeypatch, m):
    monkeypatch.setattr(cli, "eta_quotient", no_expansion)
    code, out, err = run(capsys, "detect", "--spec", "2^5 7^-1", "--m", m, "--T", "40000")
    assert code == 2
    assert out == ""
    assert err == f"error: --m must be at least 1, got {m}\n"


def test_version_names_the_python_kernels(capsys):
    assert backend_name() == "python"
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "qsigns 0.1.0 (python kernels)\n"


def test_usage_error_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["predict", "--p", "7"])
    assert exc.value.code == 2


def test_bad_env_precision_is_diagnosed(capsys, monkeypatch):
    monkeypatch.setenv("QSIGNS_PRECISION", "many")
    code, _, err = run(capsys, "detect", "--spec", "1^1", "--m", "1")
    assert code == 2
    assert "QSIGNS_PRECISION" in err


# ----------------------------------------------------------------------
# Golden reports: sha256 of stdout and the exit code, per command and format
# ----------------------------------------------------------------------

GOLDEN_CASES = {
    "expand": ("expand", "--spec", "2^5 7^-1", "--T", "30"),
    "dissect": ("dissect", "--M", "7", "--j", "2", "--m", "8"),
    "predict": ("predict", "--p", "7", "--i", "2"),
    "verify-pass": ("verify", "--spec", "2^1 5^-1", "--p", "5", "--i", "2", "--T", "300"),
    "verify-fail": ("verify", "--p", "5", "--i", "2", "--spec", "1^1", "--T", "60"),
    "detect": ("detect", "--spec", "2^1 5^-1", "--m", "5", "--T", "300"),
    "census": ("census", "--spec", "2^5 7^-1", "--m", "7", "--K", "10"),
    "catalog": ("catalog", "--T", "300"),
    "corpus": ("corpus",),
    "domain-error": ("census", "--spec", "0^1", "--m", "3", "--K", "5"),
}

GOLDEN = {
    ("expand", "text"): ("162227aef84224823e80f67442528b4db84af3ce09a4c79ababf9cbfd1173b5b", 0),
    ("expand", "csv"): ("12b5803316ed1f423b9e242415c05acba45836b0052889597b75376fea81b888", 0),
    ("expand", "json"): ("ac833fc32d7586fbc5ae7dd721c3e18dc9eada8a6e7516e189aaacdd3f8b3e2f", 0),
    ("dissect", "text"): ("c0a9db4d774d025d3026e2d0e69a1fa046f1a21b18d3930e1f4bd15dd120afb6", 0),
    ("dissect", "csv"): ("522a70e99705a5528847e1c0195cc28673cf57214da9f62fa62bb265cc00ba1b", 0),
    ("dissect", "json"): ("2ef1088a061f2a9c3dfeb61afc12dbc0bd1916908d2f1c29a1ed1b5e59f3dcae", 0),
    ("predict", "text"): ("dd61f070923cc129c78f4f97e5b0ebbbb433339007976a4e2f9127803369c573", 0),
    ("predict", "csv"): ("75aa6c07a2552c30febf3c6440ede295251a50ca81431a0a2e069b499e8a78d3", 0),
    ("predict", "json"): ("b9c876fb927fed37e5a4419a43a0bc589c195a1e90b11529bbfb536eba8ee6d8", 0),
    ("verify-pass", "text"): ("574932eb27323c46b571242885243f3ff1762fdc502d24eb00a507c13d7854d3", 0),
    ("verify-pass", "csv"): ("0c7c802a72bc8f70ad64a591b2d09e5da4f427db2ba8ba142a69b611f026df3f", 0),
    ("verify-pass", "json"): ("6a20efc2c6f9af590bef1530502ef412ac744df5304c7a4d5b79c16b5bb5006b", 0),
    ("verify-fail", "text"): ("987499f28978ada9ae68d276fe7b52216ae417de13548a40f23d1f95c4069856", 1),
    ("verify-fail", "csv"): ("9a32dce2d17251e94fdef92d4c026f794cd82cd3a3ec10d0fdd660d983b17eb8", 1),
    ("verify-fail", "json"): ("e4d1caa448c892d63fbd1354d360a2141b6920ffd45d81ee8c1692ab1c986a06", 1),
    ("detect", "text"): ("40aa4fe87ec9d302979db49458de2881252324d85f69d9c79aa9b7f8a3022257", 0),
    ("detect", "csv"): ("a240f7669e66b883f6de70a54ef96a6ba3a5376df8613d5914d2eeb55ccd0351", 0),
    ("detect", "json"): ("859c08f3af31e118f85332803be29dce6cfb35a6af75eed8d434452729b01521", 0),
    ("census", "text"): ("ac5a30128ff911a22f098532d0a2ca4a910657fcc0556725bac0deaaa723aa24", 0),
    ("census", "csv"): ("c92adeba2f3d272c0b36b0c8835f36c5664363ce27f5efd35839a38e5a249901", 0),
    ("census", "json"): ("ebc038e1acf9484b96554e28ef507a1474f1a0da17423914b2d9db62a936a8c0", 0),
    ("catalog", "text"): ("6a50a4dfa577748c189ff472e793fc3e859186c1802abec9dc65771c5f41f55c", 0),
    ("catalog", "csv"): ("6429a3d8f9593ed0d7b5b4801ad5b2255b4a013f18cfe9163217cb6f7ef51580", 0),
    ("catalog", "json"): ("9b7a57d93ccf10a9da4695f4af0062a94e3592107fc2e76e1eb3d69e3cbf3971", 0),
    ("corpus", "text"): ("9166b9638cb916bc3b6a596e4c95f519e1280a8eef512621e24fd3de6ace06c5", 0),
    ("corpus", "csv"): ("2c332ff62aa51b04ffbef4347d9808aa27c4a07aa2916fb1ce5255ea3e71ff3e", 0),
    ("corpus", "json"): ("622f3d033c48fa9ef15e2e428fa1f78b2e3781c422eddb58ba97c6dba511fba6", 0),
    ("domain-error", "text"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    ("domain-error", "csv"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
    ("domain-error", "json"): ("e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", 2),
}

GOLDEN_ENV_PRECISION = "e29ea42e4b3e003032995ab51475d12f24a39419ad6ddc9b911fa3e17ac4be11"


def golden_report(capsys, monkeypatch, case, fmt, *extra):
    if case == "corpus":
        stub_corpus(monkeypatch)
    code, out, _ = run(capsys, *GOLDEN_CASES[case], "--format", fmt, *extra)
    return code, out.encode()


@pytest.mark.parametrize("case,fmt", sorted(GOLDEN))
def test_golden_report(capsys, monkeypatch, case, fmt):
    code, out = golden_report(capsys, monkeypatch, case, fmt)
    assert (hashlib.sha256(out).hexdigest(), code) == GOLDEN[case, fmt]


@pytest.mark.parametrize("case", sorted({case for case, _ in GOLDEN} - {"domain-error"}))
def test_only_text_reports_build_their_lines(capsys, monkeypatch, case):
    """csv and json never call a report's lines(); text calls it once; every digest holds."""
    built = []
    make_report = cli.Report

    def counting_report(*args, **kwargs):
        report = make_report(*args, **kwargs)
        lines = report.lines
        report.lines = lambda: built.append(case) or lines()
        return report

    monkeypatch.setattr(cli, "Report", counting_report)
    for fmt in ("csv", "json", "text"):
        code, out = golden_report(capsys, monkeypatch, case, fmt)
        assert (hashlib.sha256(out).hexdigest(), code) == GOLDEN[case, fmt]
        assert len(built) == (fmt == "text"), fmt


def test_golden_precision_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("QSIGNS_PRECISION", "300")
    code, out, _ = run(capsys, "verify", "--p", "7", "--i", "2", "--format", "json")
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == (GOLDEN_ENV_PRECISION, 0)
    assert json.loads(out)["horizon"] == 300


def test_golden_output_file_matches_stdout(capsys, monkeypatch, tmp_path):
    path = tmp_path / "report.json"
    code, out = golden_report(capsys, monkeypatch, "verify-fail", "json", "--output", str(path))
    assert (code, out) == (1, b"")
    assert path.read_bytes() == golden_report(capsys, monkeypatch, "verify-fail", "json")[1]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN["verify-fail", "json"][0]


def test_one_parser_serves_a_sequence_of_calls(capsys, monkeypatch, tmp_path):
    # every call parses with the process's one parser, and no flag of one
    # call (format, output file, subcommand) carries over to the next
    parser = cli._parser()
    parses = []

    def counted(argv=None, namespace=None):
        parses.append(argv)
        return type(parser).parse_args(parser, argv, namespace)

    monkeypatch.setattr(parser, "parse_args", counted)
    path = tmp_path / "dissect.csv"
    code, out, _ = run(capsys, *GOLDEN_CASES["dissect"], "--format", "csv", "--output", str(path))
    assert (hashlib.sha256(path.read_bytes()).hexdigest(), code) == GOLDEN["dissect", "csv"]
    assert out == ""
    code, out, _ = run(capsys, *GOLDEN_CASES["dissect"])
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == GOLDEN["dissect", "text"]
    code, out, _ = run(capsys, *GOLDEN_CASES["verify-pass"], "--format", "json")
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == GOLDEN["verify-pass", "json"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["dissect", "--M", "7"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "qsigns 0.1.0 (python kernels)\n"
    code, out, _ = run(capsys, *GOLDEN_CASES["predict"])
    assert (hashlib.sha256(out.encode()).hexdigest(), code) == GOLDEN["predict", "text"]
    assert len(parses) == 6
    assert cli._parser() is parser


# ----------------------------------------------------------------------
# JSON rendering: byte-identical to json.dumps(doc, sort_keys=True, indent=2)
# ----------------------------------------------------------------------

def json_oracle(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2)


# quotes, backslashes, control characters, non-ASCII (one outside the BMP) and % signs
TRICKY = ("", "a", 'say "hi"', "back\\slash", "\t\n\r\x00\x1f\x7f", "café – \U0001f600",
          "%s %% %d", "r", "sign_exp")


def random_scalar(rng):
    return rng.choice([
        lambda: rng.choice((True, False)),
        lambda: rng.choice((0, 1, -1, 2)),
        lambda: rng.randrange(-10**9, 10**9),
        lambda: rng.getrandbits(1000) * rng.choice((1, -1)),
        lambda: None,
        lambda: rng.choice(TRICKY),
        lambda: "".join(rng.choice(TRICKY) for _ in range(rng.randrange(1, 4))),
    ])()


def random_doc(rng, depth=0):
    """A nested doc, at most four levels deep, with empty dicts and lists among its nodes."""
    kind = rng.randrange(4) if depth < 4 else 0
    if kind == 0:
        return random_scalar(rng)
    items = [random_doc(rng, depth + 1) for _ in range(rng.randrange(4))]
    if kind == 1:
        return {random_scalar_key(rng): item for item in items}
    return items if kind == 2 else tuple(items)


def random_scalar_key(rng):
    return "".join(rng.choice(TRICKY + ("B", "b", "_", "0")) for _ in range(rng.randrange(1, 3)))


def depth(doc) -> int:
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, (list, tuple)):
        return 1 + max(map(depth, doc), default=0)
    return 0


def test_json_rendering_matches_the_stdlib_on_random_docs():
    rng = random.Random(20261019)
    docs = [{}, [], (), {"a": {}, "b": [], "c": [[{}]]}, True, 0, None, "é",
            {"flag": True, "one": 1, "zero": 0, "no": False, "none": None}]
    docs += [{random_scalar_key(rng): random_doc(rng) for _ in range(rng.randrange(6))}
             for _ in range(400)]
    assert max(map(depth, docs)) >= 3
    for doc in docs:
        assert _jsonfmt.render(doc) == json_oracle(doc), doc


def random_report(rng) -> cli.Report:
    columns = tuple(rng.sample(("r", "sign_exp", "offset", "t1", "B", "_x", "café"),
                               rng.randrange(1, 6)))
    rows = [tuple(random_scalar(rng) for _ in columns) for _ in range(rng.randrange(5))]
    fields = {random_scalar_key(rng): random_doc(rng) for _ in range(rng.randrange(3))}
    return cli.Report(rng.choice((None, "2^5 7^-1")), {"T": rng.randrange(100)},
                      rng.choice((None, 7)), columns, rows, lambda: [], fields=fields,
                      key=rng.choice((None, "rows", "components")), cap=rng.choice((None, 2)))


def test_json_reports_match_the_stdlib_rendering_of_their_doc():
    # the rows fill one template per report, whatever the order and types of its columns
    rng = random.Random(7142)
    for _ in range(300):
        report = random_report(rng)
        doc = {"schema_version": 1, "command": "cmd", "spec": report.spec,
               "parameters": report.parameters, "horizon": report.horizon, **report.fields}
        if report.key:
            doc[report.key] = [dict(zip(report.columns, row)) for row in report.rows[:report.cap]]
        assert cli._render(report, "cmd", "json") == json_oracle(doc) + "\n", doc


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", object(), 1j, {"k": [2, {3}]}, (1, {"k": b""})])
def test_json_rendering_rejects_other_types(value):
    with pytest.raises(TypeError):
        json_oracle(value)
    with pytest.raises(TypeError):
        _jsonfmt.render(value)


@pytest.mark.parametrize("value", [1.5, [0, {"k": 2.0}], {1: "int key"}])
def test_json_rendering_takes_no_floats_and_only_string_keys(value):
    # json.dumps writes these; no report holds one, so the renderer refuses them
    json_oracle(value)
    with pytest.raises(TypeError):
        _jsonfmt.render(value)


@pytest.mark.parametrize("case", sorted({case for case, fmt in GOLDEN if fmt == "json"}
                                        - {"domain-error"}))
def test_golden_json_reports_are_the_stdlib_layout(capsys, monkeypatch, case):
    out = golden_report(capsys, monkeypatch, case, "json")[1].decode()
    assert out == json_oracle(json.loads(out)) + "\n"
