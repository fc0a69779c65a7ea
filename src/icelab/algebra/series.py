"""Multivariate truncated power series (jets).

A ``SeriesRing`` fixes an ordered variable tuple together with a
per-variable truncation order; its elements keep only exponents that are
componentwise within the truncation.  Because multiplication never
borrows from higher orders of the same variable, a coefficient below the
truncation is exact whenever the inputs are exact, which is what turns
contour integration into coefficient extraction.

Products run through ``Packing.product`` (``mul_slice`` through
``Packing.slice_product``) on packed keys.  Each ring builds its
``Packing`` once: field i is one bit wider than order i needs,
and the left operand's keys carry a bias of 2^(w-1) - 1 - order in each
field, so a product key has a field's top (guard) bit set exactly when
the exponent sum exceeds that order, and the box test of a pair is
``(k1 + k2) & guard``.  Exact coefficients are multiplied as integer
numerators over one common denominator per operand and reduced once per
output term.  Terms always lie inside the box; the constructor drops any
that do not.

Inversion requires a nonzero constant term.  ``series_sin`` evaluates the
sine of a jet (float coefficients), which is how derivative towers of the
weight ratio are produced without symbolic differentiation.
"""

from __future__ import annotations

import math
from operator import le
from typing import Mapping, Sequence

import mpmath

from ..errors import ZeroConstantTerm
from .field import ONE, ZERO, qdiv
from .poly import Packing, Poly


class SeriesRing:
    """A fixed variable tuple with per-variable truncation orders."""

    __slots__ = ("vars", "orders", "packing", "_index", "_drop_cache")

    def __init__(self, variables: Sequence[str], orders: Sequence[int]):
        if len(variables) != len(orders):
            raise ValueError("one truncation order per variable required")
        if any(o < 0 for o in orders):
            raise ValueError("truncation orders must be nonnegative")
        self.vars = tuple(variables)
        self.orders = tuple(orders)
        self.packing = Packing(self.orders, truncate=True)
        self._index = {v: i for i, v in enumerate(self.vars)}
        self._drop_cache: dict[str, SeriesRing] = {}

    def __eq__(self, other):
        return isinstance(other, SeriesRing) and \
            self.vars == other.vars and self.orders == other.orders

    def __repr__(self):
        return f"SeriesRing({dict(zip(self.vars, self.orders))})"

    def index(self, var: str) -> int:
        return self._index[var]

    def drop(self, var: str) -> "SeriesRing":
        sub = self._drop_cache.get(var)
        if sub is None:
            i = self.index(var)
            sub = SeriesRing(self.vars[:i] + self.vars[i + 1:],
                             self.orders[:i] + self.orders[i + 1:])
            self._drop_cache[var] = sub
        return sub

    # -- element constructors -----------------------------------------

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries._of(self, {})

    def one(self) -> "TruncatedSeries":
        return self.const(ONE)

    def const(self, value) -> "TruncatedSeries":
        if value == 0:
            return self.zero()
        return TruncatedSeries._of(self, {(0,) * len(self.vars): value})

    def var(self, name: str) -> "TruncatedSeries":
        return self.from_poly(Poly.variable(name))

    def from_poly(self, poly: Poly) -> "TruncatedSeries":
        """Embed a polynomial, discarding monomials above the truncation."""
        unknown = [v for v in poly.vars if v not in self._index]
        if unknown:
            raise ValueError(f"polynomial variables {unknown} not in ring")
        pos = [self.index(v) for v in poly.vars]
        n = len(self.vars)
        terms = {}
        for e, c in poly.terms.items():
            new = [0] * n
            ok = True
            for i, ei in zip(pos, e):
                if ei > self.orders[i]:
                    ok = False
                    break
                new[i] = ei
            if ok:
                key = tuple(new)
                s = terms.get(key, 0) + c
                if s == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = s
        return TruncatedSeries._of(self, terms)


class TruncatedSeries:
    __slots__ = ("ring", "terms")

    def __init__(self, ring: SeriesRing, terms: Mapping[tuple, object]):
        self.ring = ring
        orders = ring.orders
        self.terms = {e: c for e, c in terms.items()
                      if c != 0 and all(map(le, e, orders))}

    @classmethod
    def _of(cls, ring: SeriesRing, terms: dict) -> "TruncatedSeries":
        """Wrap a dict of nonzero terms inside the box, without copying."""
        f = object.__new__(cls)
        f.ring = ring
        f.terms = terms
        return f

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * len(self.ring.vars), ZERO)

    def coefficient(self, var: str, k: int) -> "TruncatedSeries":
        """Slice out the coefficient of var**k as a series without var."""
        i = self.ring.index(var)
        sub = self.ring.drop(var)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == k:
                terms[e[:i] + e[i + 1:]] = c
        return TruncatedSeries._of(sub, terms)

    def coefficient_value(self, exponents: Mapping[str, int]):
        """Scalar coefficient of a full monomial (every variable pinned)."""
        key = tuple(exponents.get(v, 0) for v in self.ring.vars)
        return self.terms.get(key, ZERO)

    def as_poly(self) -> Poly:
        return Poly(self.ring.vars, dict(self.terms))

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            if other.ring != self.ring:
                raise ValueError("series from different rings")
            return other
        return self.ring.const(other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return TruncatedSeries._of(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._of(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            if other == 0:
                return self.ring.zero()
            return TruncatedSeries(
                self.ring, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        return TruncatedSeries._of(
            self.ring, self.ring.packing.product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.invert() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __truediv__(self, other):
        if isinstance(other, TruncatedSeries):
            return self * other.invert()
        return self * qdiv(1, other)

    def __rtruediv__(self, other):
        return self.invert() * other

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse up to the truncation order.

        Geometric iteration on the zero-constant part; terminates after at
        most sum(orders) steps because each power raises the minimum total
        degree.
        """
        c = self.constant_term()
        if c == 0:
            raise ZeroConstantTerm(
                "cannot invert a series vanishing at its center")
        inv_c = qdiv(1, c)
        tail = self - c
        if tail.is_zero():
            return self.ring.const(inv_c)
        g = tail * (-inv_c)
        acc = self.ring.one()
        p = self.ring.one()
        for _ in range(sum(self.ring.orders)):
            p = p * g
            if p.is_zero():
                break
            acc = acc + p
        return acc * inv_c

    def mul_slice(self, other: "TruncatedSeries", var: str, k: int) -> "TruncatedSeries":
        """coefficient(var, k) of self*other, without forming the product."""
        other = self._coerce(other)
        i = self.ring.index(var)
        sub = self.ring.drop(var)
        if not 0 <= k <= self.ring.orders[i]:
            return sub.zero()   # truncated away in the full product
        return TruncatedSeries._of(
            sub, sub.packing.slice_product(self.terms, other.terms, i, k))

    def __repr__(self):
        return f"TruncatedSeries({self.as_poly()!r} @ {self.ring!r})"


def series_sin(f: TruncatedSeries) -> TruncatedSeries:
    c = f.constant_term()
    tail = f - c
    sc, cc = mpmath.sin(c), mpmath.cos(c)
    s_tail, c_tail = _sin_cos_nilpotent(tail)
    return s_tail * cc + c_tail * sc


def _sin_cos_nilpotent(t: TruncatedSeries):
    """(sin t, cos t) for a series with zero constant term."""
    ring = t.ring
    sin_acc = ring.zero()
    cos_acc = ring.one()
    power = ring.one()
    for k in range(1, sum(ring.orders) + 1):
        power = power * t
        if power.is_zero():
            break
        coeff = mpmath.mpf(1) / mpmath.factorial(k)
        if k % 4 in (1, 3):
            sin_acc = sin_acc + power * (coeff if k % 4 == 1 else -coeff)
        else:
            cos_acc = cos_acc + power * (coeff if k % 4 == 0 else -coeff)
    return sin_acc, cos_acc


def jet_derivative(jet: TruncatedSeries, n: int):
    """n-th derivative value encoded by a univariate jet."""
    (var,) = jet.ring.vars
    return jet.coefficient_value({var: n}) * math.factorial(n)
