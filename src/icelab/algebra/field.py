"""Scalar backends: exact rationals and arbitrary-precision floats.

Two kinds of scalar flow through the workbench:

* exact rationals (``fractions.Fraction``, or ``gmpy2.mpq`` when the
  optional gmpy2 extra is installed) -- equality is decidable, arithmetic
  never rounds, denominators stay reduced and positive;
* floats (``mpmath`` real/complex values) -- used for the trigonometric
  parametrization, where comparisons always carry an explicit relative
  tolerance and the working precision is set by the caller.

Polynomials and truncated series are generic over the coefficient type;
everything here is duck-typed arithmetic plus a few helpers.
"""

from __future__ import annotations

import fractions
from typing import Any, Union

import mpmath

try:
    from gmpy2 import mpq as _mpq

    def rational(num, den=1):
        return _mpq(num, den)

except ImportError:  # gmpy2 is an optional extra; Fraction is the default path
    def rational(num, den=1):
        return fractions.Fraction(num, den)

Scalar = Any
Rational = Union["gmpy2.mpq", fractions.Fraction, int]

ZERO = rational(0)
ONE = rational(1)


def is_exact(x) -> bool:
    """True for ints and reduced rationals, False for mpmath values."""
    return isinstance(x, (int, fractions.Fraction)) or type(x).__name__ == "mpq"


def qdiv(a, b):
    """Exact scalar division, promoting int/int to a rational."""
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise ZeroDivisionError("exact division by zero")
        q, r = divmod(a, b)
        return q if r == 0 else rational(a, b)
    return a / b


def rel_err(lhs, rhs) -> float:
    """Max-relative discrepancy |lhs-rhs| / max(|lhs|, |rhs|, 1e-300)."""
    # multiply into mpmath first: gmpy2's mpq refuses mixed subtraction
    lf = mpmath.mpf(1) * lhs
    rf = mpmath.mpf(1) * rhs
    diff = abs(lf - rf)
    scale = max(abs(lf), abs(rf), mpmath.mpf("1e-300"))
    return float(diff / scale)


def float_precision(bits: int):
    """Context manager setting the mpmath working precision in bits."""
    return mpmath.workprec(bits)


def format_scalar(x, digits: int = 17) -> str:
    """Render a scalar for reports: exact values as ``p/q``, floats with
    ``digits`` significant digits."""
    if isinstance(x, int):
        return str(x)
    if is_exact(x):
        num, den = x.numerator, x.denominator
        return str(num) if den == 1 else f"{num}/{den}"
    return mpmath.nstr(mpmath.mpmathify(x), digits, strip_zeros=False)
