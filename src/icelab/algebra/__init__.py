"""Exact and floating field arithmetic, polynomials, truncated series,
determinants, and permutation machinery."""

from .field import (ONE, ZERO, float_precision, format_scalar, is_exact, qdiv,
                    rational, rel_err)
from .perms import Permutation, antisymmetrize, parity, signed_permutations
from .poly import Poly, det, poly_exact_div, vandermonde, vandermonde_value
from .series import SeriesRing, TruncatedSeries, jet_derivative, series_sin

__all__ = [
    "ONE", "ZERO", "float_precision", "format_scalar", "is_exact", "qdiv",
    "rational", "rel_err",
    "Permutation", "antisymmetrize", "parity", "signed_permutations",
    "Poly", "det", "poly_exact_div", "vandermonde", "vandermonde_value",
    "SeriesRing", "TruncatedSeries", "jet_derivative", "series_sin",
]
