"""Scalar backends: exact rationals and arbitrary-precision floats.

Two kinds of scalar flow through the workbench:

* exact rationals: ``int`` and ``fractions.Fraction``, the two types in
  ``EXACT_TYPES`` -- equality is decidable, arithmetic never rounds,
  denominators stay reduced and positive;
* floats (``mpmath`` real/complex values) -- used for the trigonometric
  parametrization, where comparisons always carry an explicit relative
  tolerance and the working precision is set by the caller.

This module alone decides which scalars are exact (``is_exact``) and
clears their denominators (``common_denominator``, ``integer_numerators``)
for the integer multiply kernels of ``poly`` and ``series``.
Polynomials and truncated series are generic over the coefficient type;
everything else here is duck-typed arithmetic plus a few helpers.

It also holds the package's one ``mpmath`` binding, which every other
module imports from here.  The binding imports the real module on its
first attribute use, so a run that never computes in floats never loads
mpmath.  ``float_precision`` sets the working precision whether or not
mpmath is loaded yet: mpmath first loaded inside a block starts at the
innermost block's precision, and each block restores the enclosing one
as it exits.  ``load_mpmath`` imports it up front, for configurations
that will compute in floats.
"""

from __future__ import annotations

import math
import sys
import types
from contextlib import contextmanager
from fractions import Fraction
from typing import Mapping

_DEFAULT_BITS = 53   # mpmath's working precision when it is imported
_block_bits = None   # the innermost open ``float_precision`` block's precision


def _load_mpmath(name):
    """The ``__getattr__`` of the binding below, until its first call:
    import mpmath at the precision of the innermost open ``float_precision``
    block and make the binding a copy of the module, so that a later lookup
    costs what a lookup on mpmath itself does."""
    import mpmath as module
    if _block_bits is not None:
        module.mp.prec = _block_bits
    del mpmath.__getattr__
    vars(mpmath).update(vars(module))
    return getattr(module, name)


mpmath = types.ModuleType("mpmath")
mpmath.__getattr__ = _load_mpmath


def load_mpmath():
    """Import mpmath now rather than at its first use."""
    return mpmath.mp


# exact by type, not by isinstance: bool and int subclasses are inexact
EXACT_TYPES = {int, Fraction}

rational = Fraction
ZERO = rational(0)
ONE = rational(1)


def is_exact(x) -> bool:
    """True for ints and Fractions, False for mpmath values (and bools)."""
    return type(x) in EXACT_TYPES


def common_denominator(coeffs) -> int:
    """The lcm of the denominators, or 0 unless every coefficient is
    exact."""
    if not set(map(type, coeffs)) <= EXACT_TYPES:
        return 0
    return math.lcm(*{c.denominator for c in coeffs})


def integer_numerators(values: Mapping) -> tuple:
    """(nums, den) for a dict of coefficients: integer numerators by the
    same keys over den, the lcm of the denominators, when every
    coefficient is exact (so their content is coprime to den); else the
    values as they are and den 0."""
    den = common_denominator(values.values())
    if den == 1:
        return {k: c.numerator for k, c in values.items()}, 1
    if den:
        return {k: c.numerator * (den // c.denominator) for k, c in values.items()}, den
    return values, 0


def qdiv(a, b):
    """Exact scalar division, promoting int/int to a rational."""
    if isinstance(a, int) and isinstance(b, int):
        if b == 0:
            raise ZeroDivisionError("exact division by zero")
        q, r = divmod(a, b)
        return q if r == 0 else rational(a, b)
    return a / b


def rel_err(lhs, rhs) -> float:
    """Max-relative discrepancy |lhs-rhs| / max(|lhs|, |rhs|); 0 when the
    two are equal, zero included."""
    # multiply into mpmath first: a Fraction refuses to subtract an mpf
    lf = mpmath.mpf(1) * lhs
    rf = mpmath.mpf(1) * rhs
    diff = abs(lf - rf)
    if diff == 0:
        return 0.0
    return float(diff / max(abs(lf), abs(rf)))


@contextmanager
def float_precision(bits: int):
    """Context manager setting the mpmath working precision in bits; it
    does not import mpmath."""
    global _block_bits
    outer_block = _block_bits
    loaded = sys.modules.get("mpmath")
    # the precision to restore: mpmath's own, else the one it would load at
    outer = loaded.mp.prec if loaded else (outer_block or _DEFAULT_BITS)
    _block_bits = bits
    if loaded:
        loaded.mp.prec = bits
    try:
        yield
    finally:
        _block_bits = outer_block
        loaded = sys.modules.get("mpmath")
        if loaded:
            loaded.mp.prec = outer


def format_scalar(x, digits: int = 17) -> str:
    """Render a scalar for reports: exact values as ``p/q``, floats with
    ``digits`` significant digits."""
    if isinstance(x, int):
        return str(x)
    if is_exact(x):
        num, den = x.numerator, x.denominator
        return str(num) if den == 1 else f"{num}/{den}"
    return mpmath.nstr(mpmath.mpmathify(x), digits, strip_zeros=False)
