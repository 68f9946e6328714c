"""Command-line surface: expansion, dissection, prediction, verification, census.

Every command is a reproducible batch job: identical requests produce
byte-identical reports (no timestamps, no environment echoes).  Output
formats are text (default), csv and json; ``--output`` redirects the
report to a file.  The exit status is 0 exactly when every verdict in
the report passed, 1 on a failed verdict, 2 on usage or domain errors
and on an unwritable ``--output``.

JSON is ``json.dumps(doc, sort_keys=True, indent=2)`` byte for byte, as
`_jsonfmt` renders it.

The argument parser is built once per process, on the first `main`
call, and every later call reuses it.  The handlers read this module's
globals when they run.

``QSIGNS_PRECISION`` overrides the default expansion precision (2000)
used by ``verify`` and ``detect`` when ``--T`` is not given.  No request
may expand beyond ``MAX_PRECISION`` coefficients.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Callable

from . import __version__
from ._backend import backend_name
from ._jsonfmt import render, render_object, render_rows
from ._record import Record
from .dissect import assemble, check_quintuple, quintuple_components
from .products import EtaQuotientSpec, eta_quotient, eta_quotients, quintuple_product
from .series import MAX_PRECISION, QSignsError, _check_precision
from .signs import (
    corpus,
    detect_pattern,
    pattern_catalog,
    predict_quotient_pattern,
    sign_census,
    vanishing_predicate,
    verify_pattern,
)

_SCHEMA_VERSION = 1

_VANISHING_SPEC = "1^7 2^-2 3^-1"
_VANISHING_HORIZON = 3000


def _precision(value: int | None, name: str = "--T") -> int:
    """The expansion size of a request; ``None`` reads QSIGNS_PRECISION (default 2000)."""
    if value is None:
        name, raw = "QSIGNS_PRECISION", os.environ.get("QSIGNS_PRECISION", "2000")
        try:
            value = int(raw)
        except ValueError:
            raise QSignsError(f"QSIGNS_PRECISION must be an integer, got {raw!r}")
    _check_precision(value, name)
    return value


def _check_positive(*named: tuple[str, int]) -> None:
    """Reject a count argument below 1 before anything is expanded."""
    for name, value in named:
        if value < 1:
            raise QSignsError(f"{name} must be at least 1, got {value}")


class Report(Record):
    """What a command found, before it is rendered in any format.

    csv prints ``columns`` and every row; json prints the request echo,
    ``fields`` (a fresh {} by default) and, under ``key``, at most ``cap``
    rows as objects; text prints the lines that ``lines()`` builds, which
    no other format calls.  ``passed`` decides the exit status.  Unlike
    the other records, a report is mutable and so unhashable.
    """

    __slots__ = ("spec", "parameters", "horizon", "columns", "rows", "lines", "passed",
                 "fields", "key", "cap")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, spec: str | None, parameters: dict, horizon: int | None,
                 columns: tuple[str, ...], rows: list[tuple], lines: Callable[[], list[str]],
                 passed: bool = True, fields: dict | None = None, key: str | None = None,
                 cap: int | None = None) -> None:
        self.spec = spec
        self.parameters = parameters
        self.horizon = horizon
        self.columns = columns
        self.rows = rows
        self.lines = lines
        self.passed = passed
        self.fields = {} if fields is None else fields
        self.key = key
        self.cap = cap


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _table(columns, rows, pad: bool = False) -> list[str]:
    """Header and rows joined by two spaces; ``pad`` right-justifies to the header."""
    return ["  ".join(columns)] + [
        "  ".join(str(v).rjust(len(c) if pad else 0) for c, v in zip(columns, row))
        for row in rows
    ]


def _render(report: Report, command: str, fmt: str) -> str:
    if fmt == "json":
        doc = {
            "schema_version": _SCHEMA_VERSION,
            "command": command,
            "spec": report.spec,
            "parameters": report.parameters,
            "horizon": report.horizon,
            **report.fields,
        }
        parts = {k: render(v, "\n  ") for k, v in doc.items()}
        if report.key:
            parts[report.key] = render_rows(report.columns, report.rows[:report.cap], "\n  ")
        return render_object(parts.items(), "\n") + "\n"
    if fmt == "csv":
        lines = [",".join(report.columns)] + [
            ",".join(str(v).lower() if isinstance(v, bool) else str(v) for v in row)
            for row in report.rows
        ]
    else:
        lines = report.lines()
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Command handlers: each returns one Report
# ----------------------------------------------------------------------

def _cmd_expand(args) -> Report:
    spec = EtaQuotientSpec.parse(args.spec)
    T = _precision(args.T)
    coefficients = eta_quotient(spec, T).coefficients
    rows = list(enumerate(coefficients))
    return Report(str(spec), {"T": T}, T, ("n", "coefficient"), rows,
                  lambda: [f"{n}\t{c}" for n, c in rows],
                  fields={"coefficients": coefficients})


def _cmd_dissect(args) -> Report:
    T = _precision(args.T)
    check_quintuple(args.M, args.j, args.m)
    # the size counts the m components the reassembly builds and the target's T + 1 coefficients
    _precision((args.m + 1) * (T + 1) - 1, "dissection size (m+1)*(T+1) - 1")
    comps = quintuple_components(args.M, args.j, args.m)
    target = quintuple_product(args.M, args.j, T)
    ok = assemble(comps, T) == target
    columns = ("r", "sign_exp", "offset", "t1", "t2", "period1", "period2")
    rows = [(c.r, c.sign_exp, c.offset, c.t1, c.t2, c.period1, c.period2) for c in comps]

    def lines():
        return [f"dissection of quintuple product (M={args.M}, j={args.j}) mod {args.m}",
                *_table(columns, rows), f"reassembly at T={T}: {_verdict(ok)}"]

    return Report(None, {"M": args.M, "j": args.j, "m": args.m, "T": T}, T, columns, rows,
                  lines, ok, {"reassembly": ok}, key="components")


def _residue_classes(pattern) -> list[tuple]:
    return [(r, c.value) for r, c in enumerate(pattern.classes)]


def _cmd_predict(args) -> Report:
    cert = predict_quotient_pattern(args.p, args.i)

    def lines():
        return [
            f"quotient: (q^{args.i};q^{args.i}) / (q^{args.p};q^{args.p})",
            f"pattern:  {cert.pattern.class_string}",
            f"onset:    {cert.onset} (holds for n >= {cert.onset + 1})",
        ]

    fields = {
        "pattern": cert.pattern.class_string,
        "onset": cert.onset,
        "offsets": cert.offsets,
        "sign_exponents": cert.sign_exponents,
        "residue_map": cert.residue_map,
    }
    return Report(f"{args.i}^1 {args.p}^-1", {"p": args.p, "i": args.i}, None,
                  ("residue", "class"), _residue_classes(cert.pattern), lines, fields=fields)


def _cmd_verify(args) -> Report:
    horizon = _precision(args.T)
    cert = predict_quotient_pattern(args.p, args.i)
    spec_text = args.spec if args.spec else f"{args.i}^1 {args.p}^-1"
    report = verify_pattern(eta_quotient(spec_text, horizon), cert.pattern, horizon)
    rows = [(n, cls.value, s) for n, cls, s in report.violations]

    def lines():
        return [
            f"spec:    {spec_text}",
            f"pattern: {cert.pattern.class_string}",
            f"onset:   {cert.onset}",
            f"verify to T={horizon}: {_verdict(report.passed)}",
            *[f"  violation at n={n}: expected {e}, sign {s}" for n, e, s in rows[:5]],
        ]

    fields = {"pattern": cert.pattern.class_string, "onset": cert.onset,
              "passed": report.passed}
    return Report(spec_text, {"p": args.p, "i": args.i, "T": horizon}, horizon,
                  ("n", "expected", "sign"), rows, lines, report.passed, fields,
                  key="violations", cap=20)


def _cmd_detect(args) -> Report:
    spec = EtaQuotientSpec.parse(args.spec)
    _check_positive(("--m", args.m))
    horizon = _precision(args.T)
    pattern = detect_pattern(eta_quotient(spec, horizon), args.m, horizon)

    def lines():
        return [
            f"spec:    {args.spec}",
            f"pattern: {pattern.class_string} (empirical, horizon {horizon})",
            f"onset:   {pattern.onset}",
        ]

    fields = {"pattern": pattern.class_string, "onset": pattern.onset, "empirical": True}
    return Report(str(spec), {"m": args.m, "T": horizon}, horizon, ("residue", "class"),
                  _residue_classes(pattern), lines, fields=fields)


def _cmd_census(args) -> Report:
    spec = EtaQuotientSpec.parse(args.spec)
    _check_positive(("--m", args.m), ("--K", args.K))
    precision = _precision(args.m * args.K - 1, "census size m*K - 1")
    counts = sign_census(eta_quotient(spec, precision), args.m, args.K)
    columns = ("residue", "negative", "zero", "positive")
    rows = [(r, *triple) for r, triple in enumerate(counts)]

    def lines():
        return [f"sign census of {args.spec} mod {args.m}, {args.K} terms per class",
                *_table(columns, rows, pad=True)]

    return Report(str(spec), {"m": args.m, "K": args.K}, precision, columns, rows, lines,
                  key="rows")


def _checklist(columns, rows, row_text, summary, parameters, horizon, key) -> Report:
    """A PASS/FAIL line per row, whose last value is its verdict, and a summary verdict."""
    passed = all(row[-1] for row in rows)

    def lines():
        return [*(f"{_verdict(row[-1])}  {row_text.format(*row)}" for row in rows),
                f"{summary}: {_verdict(passed)}"]

    return Report(None, parameters, horizon, columns, rows, lines, passed,
                  {"passed": passed}, key=key)


def _cmd_corpus(args) -> Report:
    rows = []
    for entry in corpus():
        report = verify_pattern(eta_quotient(entry.spec, entry.horizon), entry.pattern,
                                entry.horizon)
        rows.append((entry.name, entry.pattern.class_string, entry.horizon, report.passed))
    series = eta_quotient(_VANISHING_SPEC, _VANISHING_HORIZON)
    vanish_ok = all(
        (series.coefficient(n) == 0) == vanishing_predicate(n)
        for n in range(1, _VANISHING_HORIZON + 1)
    )
    rows.append(("vanishing-set", _VANISHING_SPEC, _VANISHING_HORIZON, vanish_ok))
    return _checklist(("name", "pattern", "horizon", "passed"), rows, "{0}  ({1}, T={2})",
                      "corpus", {}, None, "entries")


def _cmd_catalog(args) -> Report:
    horizon = _precision(args.T)
    cases = pattern_catalog()
    rows = [None] * len(cases)
    for i, series in eta_quotients([case.spec for case in cases], horizon):
        case = cases[i]
        report = verify_pattern(series, case.pattern, horizon)
        rows[i] = (case.case_id, case.pattern.class_string, case.pattern.onset, report.passed)
    return _checklist(("case", "pattern", "onset", "passed"), rows, "{0}  ({1}, onset {2})",
                      f"catalog at T={horizon}", {"T": horizon}, horizon, "cases")


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--format", choices=("text", "csv", "json"), default="text")
    sub.add_argument("--output", help="write the report to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsigns",
        description="exact q-series expansions, dissections and sign patterns",
    )
    parser.add_argument("--version", action="version",
                        version=f"qsigns {__version__} ({backend_name()} kernels)")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("expand", help="print coefficients of a product spec")
    p.add_argument("--spec", required=True, help="product spec, e.g. '2^5 7^-1'")
    p.add_argument("--T", type=int, default=20, help="truncation order")
    _add_common(p)
    p.set_defaults(handler=_cmd_expand)

    p = subs.add_parser("dissect", help="component table of a quintuple-product dissection")
    p.add_argument("--m", type=int, required=True, help="dissection modulus (not divisible by 3)")
    p.add_argument("--M", type=int, default=4, help="quintuple period (default 4: the (q;q) case)")
    p.add_argument("--j", type=int, default=1, help="quintuple offset (default 1)")
    p.add_argument("--T", type=int, default=200, help="reassembly check precision")
    _add_common(p)
    p.set_defaults(handler=_cmd_dissect)

    p = subs.add_parser("predict", help="predicted sign pattern of (q^i;q^i)/(q^p;q^p)")
    p.add_argument("--p", type=int, required=True, help="prime > 3")
    p.add_argument("--i", type=int, required=True, help="integer > 1 not divisible by p")
    _add_common(p)
    p.set_defaults(handler=_cmd_predict)

    p = subs.add_parser("verify", help="verify a predicted pattern against the expansion")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--spec", help="series to check (default: the (p, i) quotient)")
    p.add_argument("--T", type=int, help="horizon (default QSIGNS_PRECISION or 2000)")
    _add_common(p)
    p.set_defaults(handler=_cmd_verify)

    p = subs.add_parser("detect", help="empirically detect a sign pattern")
    p.add_argument("--spec", required=True)
    p.add_argument("--m", type=int, required=True, help="pattern modulus")
    p.add_argument("--T", type=int, help="horizon (default QSIGNS_PRECISION or 2000)")
    _add_common(p)
    p.set_defaults(handler=_cmd_detect)

    p = subs.add_parser("census", help="per-residue sign counts of an expansion")
    p.add_argument("--spec", required=True)
    p.add_argument("--m", type=int, required=True, help="modulus")
    p.add_argument("--K", type=int, required=True, help="terms per residue class")
    _add_common(p)
    p.set_defaults(handler=_cmd_census)

    p = subs.add_parser("corpus", help="run the empirical regression corpus")
    _add_common(p)
    p.set_defaults(handler=_cmd_corpus)

    p = subs.add_parser("catalog", help="verify the catalog of proven patterns")
    p.add_argument("--T", type=int, default=3000, help="verification horizon")
    _add_common(p)
    p.set_defaults(handler=_cmd_catalog)

    return parser


def _error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        report = args.handler(args)
    except QSignsError as exc:
        return _error(exc)
    text = _render(report, args.command, args.format)
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            return _error(exc)
    else:
        sys.stdout.write(text)
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
