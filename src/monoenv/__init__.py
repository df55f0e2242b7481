"""Worst-case error constants of monomial convex/concave envelopes over
structured domains, with brute-force oracles that verify every formula at
desk scale."""

from .core import (
    ComplementSimplex,
    CornerSimplexOne,
    DimensionMismatch,
    Domain,
    ErrorReport,
    Monomial,
    OutsideDomain,
    RatioBox,
    ScaleExceeded,
    StdSimplex,
    SubBox,
    SymBox,
    UnitBox,
    UnsupportedDomain,
    Verdict,
    error_report,
    eval_monomial,
)

__all__ = [
    "ComplementSimplex",
    "CornerSimplexOne",
    "DimensionMismatch",
    "Domain",
    "ErrorReport",
    "Monomial",
    "OutsideDomain",
    "RatioBox",
    "ScaleExceeded",
    "StdSimplex",
    "SubBox",
    "SymBox",
    "UnitBox",
    "UnsupportedDomain",
    "Verdict",
    "error_report",
    "eval_monomial",
]

__version__ = "0.1.0"
