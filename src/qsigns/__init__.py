"""qsigns: exact q-series arithmetic, product dissections and sign patterns.

The package expands infinite products as exact truncated integer power
series, generates m-dissections of quintuple products and of (q;q) and
(q;q)^3, predicts the periodic sign patterns of quotient coefficients
together with sharp onset bounds, and verifies every identity and
prediction against brute-force expansion.
"""

from ._backend import backend_name
from .dissect import (
    DissectionComponent,
    assemble,
    qq_components,
    quintuple_component,
    quintuple_components,
    ramanujan5,
    three_dissection_qq,
    three_dissection_qq3,
)
from .products import (
    EtaQuotientSpec,
    PochhammerFactor,
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
from .series import (
    BeyondPrecision,
    InvalidParameter,
    NonUnitConstantTerm,
    QSignsError,
    Series,
)
from .signs import (
    CatalogCase,
    CorpusEntry,
    PatternReport,
    SignCertificate,
    SignClass,
    SignPattern,
    corpus,
    detect_pattern,
    pattern_catalog,
    predict_quotient_pattern,
    sign_census,
    vanishing_predicate,
    verify_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "Series",
    "QSignsError",
    "NonUnitConstantTerm",
    "BeyondPrecision",
    "InvalidParameter",
    "PochhammerFactor",
    "EtaQuotientSpec",
    "pochhammer",
    "eta_quotient",
    "eta_quotients",
    "quintuple_product",
    "theta_alt_squares",
    "theta_triangular",
    "theta_squares",
    "theta_weighted",
    "borwein_a",
    "borwein_b",
    "borwein_c3",
    "lambert_cubic",
    "theta_threevar",
    "DissectionComponent",
    "quintuple_component",
    "quintuple_components",
    "qq_components",
    "assemble",
    "three_dissection_qq",
    "three_dissection_qq3",
    "ramanujan5",
    "SignClass",
    "SignPattern",
    "PatternReport",
    "SignCertificate",
    "CatalogCase",
    "CorpusEntry",
    "predict_quotient_pattern",
    "verify_pattern",
    "detect_pattern",
    "sign_census",
    "pattern_catalog",
    "corpus",
    "vanishing_predicate",
    "backend_name",
    "__version__",
]
