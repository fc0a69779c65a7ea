"""Multivariate truncated power series (jets).

A ``SeriesRing`` fixes an ordered variable tuple together with a
per-variable truncation order; its elements keep only exponents that are
componentwise within the truncation.  Because multiplication never
borrows from higher orders of the same variable, a coefficient below the
truncation is exact whenever the inputs are exact, which is what turns
contour integration into coefficient extraction.

A series is stored packed, in the form the multiply kernel works on, so
that chains of products never convert their terms.  ``nums`` maps the
packed key of each exponent tuple (one bit field per variable, as laid
out by the ring's ``Packing``) to a coefficient, and ``den`` says what the
coefficients are:

* ``den >= 1``: exact.  Every coefficient is ``nums[key] / den`` with an
  int numerator, and ``gcd(den, *nums.values()) == 1`` after every
  operation, so ``den`` is the lcm of the reduced denominators and the
  integers grow no faster than reduced rationals would.
* ``den == 0``: generic.  Some coefficient is not exact (mpmath values),
  and the values are stored as they are.

``field.integer_numerators`` brings coefficients into this form.

Sums, negation, scalar multiples and inversion work on the numerators
over the lcm of the operands' denominators.  A product biases its left
operand's keys by 2^(w-1) - 1 - order in each field, so that a field's
top (guard) bit is set exactly when the exponent sum exceeds that order,
runs ``poly.sparse_product`` and removes the bias from the output keys;
``coefficient`` and ``mul_slice`` remove field i from a key by shifting
the fields above it down, because ``drop`` keeps every other field's
width.  Reduced rationals are formed only at the boundary:
``constant_term``, ``coefficient_value`` and the read-only ``terms`` view
by exponent tuple.  Generic coefficients are added and multiplied in the
order of the tuple-keyed loops the kernel replaced, so float results do
not depend on the packing.

Inversion requires a nonzero constant term.  ``series_sin`` evaluates the
sine of a jet (float coefficients), which is how derivative towers of the
weight ratio are produced without symbolic differentiation.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import le, lshift, or_
from typing import Mapping, Sequence

from ..errors import ZeroConstantTerm
from .field import EXACT_TYPES, ONE, ZERO, integer_numerators, mpmath, qdiv
from .poly import Packing, Poly, sparse_product


class SeriesRing:
    """A fixed variable tuple with per-variable truncation orders."""

    __slots__ = ("vars", "orders", "packing", "_index")

    def __init__(self, variables: Sequence[str], orders: Sequence[int]):
        if len(variables) != len(orders):
            raise ValueError("one truncation order per variable required")
        if any(o < 0 for o in orders):
            raise ValueError("truncation orders must be nonnegative")
        self.vars = tuple(variables)
        self.orders = tuple(orders)
        self.packing = Packing(self.orders, truncate=True)
        self._index = {v: i for i, v in enumerate(self.vars)}

    def __eq__(self, other):
        return isinstance(other, SeriesRing) and \
            self.vars == other.vars and self.orders == other.orders

    def __repr__(self):
        return f"SeriesRing({dict(zip(self.vars, self.orders))})"

    def index(self, var: str) -> int:
        return self._index[var]

    def drop(self, var: str) -> "SeriesRing":
        i = self.index(var)
        return SeriesRing(self.vars[:i] + self.vars[i + 1:],
                          self.orders[:i] + self.orders[i + 1:])

    def _field(self, i: int) -> tuple:
        """(shift, mask, shift of the next field) of field i."""
        shift, mask = self.packing.shifts[i], self.packing.masks[i]
        return shift, mask, shift + mask.bit_length() + 1

    # -- element constructors -----------------------------------------

    def zero(self) -> "TruncatedSeries":
        return TruncatedSeries._of(self, {}, 1)

    def one(self) -> "TruncatedSeries":
        return self.const(ONE)

    def const(self, value) -> "TruncatedSeries":
        if value == 0:
            return self.zero()
        if type(value) in EXACT_TYPES:
            return TruncatedSeries._of(self, {0: value.numerator}, value.denominator)
        return TruncatedSeries._of(self, {0: value}, 0)

    def var(self, name: str) -> "TruncatedSeries":
        return self.from_poly(Poly.variable(name))

    def from_poly(self, poly: Poly) -> "TruncatedSeries":
        """Embed a polynomial, discarding monomials above the truncation.
        Its variables must be in the ring, unless it does not depend on
        them."""
        unknown = [v for v in poly.vars if v not in self._index and poly.degree(v) > 0]
        if unknown:
            raise ValueError(f"polynomial variables {unknown} not in ring")
        # field (shift 0, order 0) for the others: their exponents are all 0
        pos = [self._index.get(v) for v in poly.vars]
        shifts = [0 if i is None else self.packing.shifts[i] for i in pos]
        orders = [0 if i is None else self.orders[i] for i in pos]
        return TruncatedSeries._of(self, *integer_numerators(
            {sum(map(lshift, e, shifts)): c for e, c in poly.terms.items()
             if all(map(le, e, orders))}))

    def embed(self, series: "TruncatedSeries") -> "TruncatedSeries":
        """A series whose variables are among this ring's, as an element of
        this ring (terms above this ring's orders are dropped).  Its ring
        may have further variables, if no term holds them."""
        src = series.ring
        if src == self:
            return series
        foreign = set(series.support()) - set(self.vars)
        if foreign:
            raise ValueError(f"series variables {sorted(foreign)} not in ring")
        sp, tp = src.packing, self.packing
        moves = [(sp.shifts[j], sp.masks[j], tp.shifts[i], self.orders[i])
                 for j, i in enumerate(map(self._index.get, src.vars)) if i is not None]
        nums = {}
        for key, c in series.nums.items():
            new = 0
            for shift, mask, to, order in moves:
                e = (key >> shift) & mask
                if e > order:
                    break
                new |= e << to
            else:
                nums[new] = c
        if len(nums) == len(series.nums):
            return TruncatedSeries._of(self, nums, series.den)
        return TruncatedSeries._normalised(self, nums, series.den)


class TruncatedSeries:
    """An element of a ``SeriesRing``; see the module docstring for the
    packed storage in ``nums`` and ``den``."""

    __slots__ = ("ring", "nums", "den")

    def __init__(self, ring: SeriesRing, terms: Mapping[tuple, object]):
        """The series with the given coefficients by exponent tuple; zero
        coefficients and terms outside the truncation are dropped."""
        shifts, orders = ring.packing.shifts, ring.orders
        self.ring = ring
        self.nums, self.den = integer_numerators(
            {sum(map(lshift, e, shifts)): c for e, c in terms.items()
             if c != 0 and all(map(le, e, orders))})

    @classmethod
    def _of(cls, ring: SeriesRing, nums: dict, den: int) -> "TruncatedSeries":
        """Wrap packed terms that already satisfy the invariants, without
        copying: nonzero entries inside the box and, when exact, content
        coprime to den."""
        f = object.__new__(cls)
        f.ring = ring
        f.nums = nums
        f.den = den
        return f

    @classmethod
    def _normalised(cls, ring: SeriesRing, nums: dict, den: int) -> "TruncatedSeries":
        """Wrap the output of an operation: exact numerators are divided
        by their common factor with den; generic values that all came out
        exact become exact."""
        if not den:
            return cls._of(ring, *integer_numerators(nums))
        g = math.gcd(den, *nums.values())
        if g > 1:
            nums = {k: n // g for k, n in nums.items()}
            den //= g
        return cls._of(ring, nums, den)

    def _values(self) -> dict:
        """The coefficients by packed key, reduced to rationals if exact."""
        den = self.den
        if den > 1:
            return {k: qdiv(n, den) for k, n in self.nums.items()}
        return self.nums

    def _scalar(self, value):
        """The coefficient that a stored entry (None if absent) stands for."""
        if value is None:
            return ZERO
        return qdiv(value, self.den) if self.den else value

    @property
    def terms(self) -> dict:
        """The coefficients by exponent tuple, in key order (a new dict)."""
        unpack = self.ring.packing.unpack
        return {unpack(k): c for k, c in self._values().items()}

    def is_zero(self) -> bool:
        return not self.nums

    def support(self) -> tuple:
        """The variables that occur in some term."""
        bits = reduce(or_, self.nums, 0)
        packing = self.ring.packing
        return tuple(v for v, s, m in zip(self.ring.vars, packing.shifts, packing.masks)
                     if (bits >> s) & m)

    def constant_term(self):
        return self._scalar(self.nums.get(0))

    def coefficient(self, var: str, k: int) -> "TruncatedSeries":
        """Slice out the coefficient of var**k as a series without var."""
        shift, mask, above = self.ring._field(self.ring.index(var))
        low = (1 << shift) - 1
        nums = {(key & low) | ((key >> above) << shift): c
                for key, c in self.nums.items() if (key >> shift) & mask == k}
        return TruncatedSeries._normalised(self.ring.drop(var), nums, self.den)

    def coefficient_value(self, exponents: Mapping[str, int]):
        """Scalar coefficient of a full monomial (every variable pinned)."""
        key = 0
        for v, shift, order in zip(self.ring.vars, self.ring.packing.shifts,
                                   self.ring.orders):
            e = exponents.get(v, 0)
            if not 0 <= e <= order:
                return ZERO
            key |= e << shift
        return self._scalar(self.nums.get(key))

    def as_poly(self) -> Poly:
        return Poly(self.ring.vars, self.terms)

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other) -> "TruncatedSeries":
        if isinstance(other, TruncatedSeries):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("series from different rings")
            return other
        return self.ring.const(other)

    def _operands(self, other: "TruncatedSeries") -> tuple:
        """(a, b, den): integer numerators over den = the product of the
        denominators when both are exact, else the values and den 0."""
        if self.den and other.den:
            return self.nums, other.nums, self.den * other.den
        return self._values(), other._values(), 0

    def __add__(self, other):
        other = self._coerce(other)
        da, db = self.den, other.den
        if da and db:
            den = da * db // math.gcd(da, db)
            fa, fb = den // da, den // db
        else:
            den, fa, fb = 0, 1, 1
        a = self.nums if den else self._values()
        terms = dict(a) if fa == 1 else {k: n * fa for k, n in a.items()}
        get, pop = terms.get, terms.pop
        for k, c in (other.nums if den else other._values()).items():
            s = get(k, 0) + (c * fb if fb != 1 else c)
            if s == 0:
                pop(k, None)
            else:
                terms[k] = s
        return TruncatedSeries._normalised(self.ring, terms, den)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedSeries._of(self.ring, {k: -c for k, c in self.nums.items()},
                                   self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ring = self.ring
        if not isinstance(other, TruncatedSeries):
            if other == 0:
                return ring.zero()
            if self.den and type(other) in EXACT_TYPES:
                p = other.numerator
                return TruncatedSeries._normalised(
                    ring, {k: n * p for k, n in self.nums.items()},
                    self.den * other.denominator)
            return TruncatedSeries._normalised(
                ring, {k: v for k, c in self._values().items() if (v := c * other) != 0}, 0)
        a, b, den = self._operands(self._coerce(other))
        packing = ring.packing
        bias = packing.bias
        out: dict = {}
        sparse_product([(k + bias, c) for k, c in a.items()], list(b.items()),
                       packing.guard, out)
        if bias:
            out = {k - bias: c for k, c in out.items()}
        return TruncatedSeries._normalised(ring, out, den)

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
        """coefficient(var, k) of self*other, without forming the product.

        Terms are bucketed by their exponent of var, and only buckets
        whose exponents sum to k meet."""
        other = self._coerce(other)
        i = self.ring.index(var)
        sub = self.ring.drop(var)
        if not 0 <= k <= self.ring.orders[i]:
            return sub.zero()   # truncated away in the full product
        a, b, den = self._operands(other)
        shift, mask, above = self.ring._field(i)
        low = (1 << shift) - 1
        packing = sub.packing

        def buckets(terms, bias):
            parts: dict[int, list] = {}
            for key, c in terms.items():
                parts.setdefault((key >> shift) & mask, []).append(
                    (((key & low) | ((key >> above) << shift)) + bias, c))
            return parts

        b_parts = buckets(b, 0)
        out: dict = {}
        for da, pa in buckets(a, packing.bias).items():
            pb = b_parts.get(k - da)
            if pb is not None:
                sparse_product(pa, pb, packing.guard, out)
        if packing.bias:
            out = {key - packing.bias: c for key, c in out.items()}
        return TruncatedSeries._normalised(sub, out, den)

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
