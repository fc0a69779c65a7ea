"""Exact and floating field arithmetic, polynomials, truncated series,
determinants, and permutation machinery."""

from .field import (ONE, ZERO, float_precision, format_scalar, is_exact, qdiv,
                    rational, rel_err)
from .perms import antisymmetrize, parity, subset_antisymmetrize
from .poly import Poly, det, poly_exact_div, vandermonde, vandermonde_value
from .series import SeriesRing, TruncatedSeries, jet_derivative, series_sin

__all__ = [
    "ONE", "ZERO", "float_precision", "format_scalar", "is_exact", "qdiv",
    "rational", "rel_err",
    "antisymmetrize", "parity", "subset_antisymmetrize",
    "Poly", "det", "poly_exact_div", "vandermonde", "vandermonde_value",
    "SeriesRing", "TruncatedSeries", "jet_derivative", "series_sin",
]
