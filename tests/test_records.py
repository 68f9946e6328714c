"""The value records: equality, hash, repr, immutability, copy and pickle; and what a cold start imports."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from qsigns import (
    CatalogCase,
    CorpusEntry,
    DissectionComponent,
    EtaQuotientSpec,
    PatternReport,
    PochhammerFactor,
    SignCertificate,
    SignClass,
    SignPattern,
)
from qsigns.cli import Report
from qsigns.plan import ExpansionPlan

SRC = Path(__file__).resolve().parents[1] / "src"

POS, NEG, ZERO = SignClass.POS, SignClass.NEG, SignClass.ZERO

# (builder of a fresh instance, a field to assign, the instance's repr)
RECORDS = [
    (lambda: PochhammerFactor(2, 5, -1), "delta",
     "PochhammerFactor(a=2, b=5, delta=-1)"),
    (lambda: EtaQuotientSpec((PochhammerFactor(1, 5, -1), PochhammerFactor(5, 5))), "factors",
     "EtaQuotientSpec(factors=(PochhammerFactor(a=1, b=5, delta=-1), PochhammerFactor(a=5, b=5, delta=1)))"),
    (lambda: ExpansionPlan(("euler", (3,), -2), (("J", (1,), 1),), ()), "seed",
     "ExpansionPlan(seed=('euler', (3,), -2), powers=(('J', (1,), 1),), binomials=())"),
    (lambda: DissectionComponent(1, 1, 2, 95, 110, 100, 200), "offset",
     "DissectionComponent(r=1, sign_exp=1, offset=2, t1=95, t2=110, period1=100, period2=200)"),
    (lambda: SignPattern(3, (POS, NEG, ZERO), onset=0), "onset",
     "SignPattern(modulus=3, classes=(<SignClass.POS: '+'>, <SignClass.NEG: '-'>, "
     "<SignClass.ZERO: '0'>), onset=0)"),
    (lambda: PatternReport(SignPattern(2, (POS, NEG), -1), 9, ((5, NEG, 3),)), "violations",
     "PatternReport(pattern=SignPattern(modulus=2, classes=(<SignClass.POS: '+'>, "
     "<SignClass.NEG: '-'>), onset=-1), horizon=9, violations=((5, <SignClass.NEG: '-'>, 3),))"),
    (lambda: SignCertificate(5, 2, (0, 2, 1, 12, 5), (0, 1, 1, 1, 2), (0, 4, 2, 4, 0), -1,
                             SignPattern(5, (POS, ZERO, NEG, ZERO, NEG), -1)), "pattern",
     "SignCertificate(p=5, i=2, offsets=(0, 2, 1, 12, 5), sign_exponents=(0, 1, 1, 1, 2), "
     "residue_map=(0, 4, 2, 4, 0), onset=-1, pattern=SignPattern(modulus=5, classes=("
     "<SignClass.POS: '+'>, <SignClass.ZERO: '0'>, <SignClass.NEG: '-'>, <SignClass.ZERO: '0'>, "
     "<SignClass.NEG: '-'>), onset=-1))"),
    (lambda: CatalogCase("1^3 3^-2", EtaQuotientSpec((PochhammerFactor(1, 1, 3),)),
                         SignPattern(1, (POS,), 0), params={"family": "fixed"}), "params",
     "CatalogCase(case_id='1^3 3^-2', spec=EtaQuotientSpec(factors=(PochhammerFactor(a=1, b=1, "
     "delta=3),)), pattern=SignPattern(modulus=1, classes=(<SignClass.POS: '+'>,), onset=0), "
     "params={'family': 'fixed'})"),
    (lambda: CorpusEntry("tiny", EtaQuotientSpec((PochhammerFactor(1, 1),)),
                         SignPattern(1, (POS,), -1), horizon=50), "horizon",
     "CorpusEntry(name='tiny', spec=EtaQuotientSpec(factors=(PochhammerFactor(a=1, b=1, "
     "delta=1),)), pattern=SignPattern(modulus=1, classes=(<SignClass.POS: '+'>,), onset=-1), "
     "horizon=50)"),
]


@pytest.mark.parametrize(
    "build,field,text,other",
    [(*record, RECORDS[i - 1][0]) for i, record in enumerate(RECORDS)],
    ids=[text.split("(")[0] for _, _, text in RECORDS],
)
def test_record_is_an_immutable_value(build, field, text, other):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert repr(a) == text
    if isinstance(a, CatalogCase):
        # its params dict makes it unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != other() and other() != a
    assert a != tuple(getattr(a, name) for name in type(a).__slots__)
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    assert getattr(a, field) == getattr(b, field)
    for twin in (copy.copy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is type(a) and twin == a and repr(twin) == text


def test_default_dicts_are_fresh_and_a_report_is_mutable():
    spec, pattern = EtaQuotientSpec((PochhammerFactor(1, 1),)), SignPattern(1, (POS,), -1)
    cases = [CatalogCase("1", spec, pattern) for _ in range(2)]
    assert cases[0].params == {} and cases[0].params is not cases[1].params
    reports = [Report(None, {}, None, (), [], list) for _ in range(2)]
    assert reports[0].fields == {} and reports[0].fields is not reports[1].fields
    assert reports[0] == reports[1]
    reports[0].passed = False
    assert reports[0] != reports[1]
    with pytest.raises(TypeError):
        hash(reports[0])


def test_cold_import_skips_dataclasses_inspect_and_typing():
    # every qsigns process pays its imports; comparing with the modules
    # loaded before the import keeps site hooks out of the result.  No
    # command parses JSON, so the json package is not loaded either.
    code = (
        "import sys; before = set(sys.modules); import qsigns.cli; qsigns.cli.build_parser(); "
        "print(*sorted(set(sys.modules) - before))"
    )
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    )
    added = set(done.stdout.split())
    assert "qsigns.cli" in added
    assert not added & {"dataclasses", "inspect", "json", "typing"}
