"""Sparse multivariate polynomials with exact arithmetic.

A polynomial carries an ordered tuple of named variables and a dict
mapping exponent tuples to coefficients.  Zero coefficients are never
stored.  Coefficients may be ints, exact rationals, or mpmath floats;
binary operations align variable sets by name, so polynomials built in
different contexts combine transparently.

``sparse_product`` is the one multiply loop of the algebra layer, shared
by ``Poly`` and ``TruncatedSeries``.  It works on packed keys: a
``Packing`` stores an exponent tuple as one int, one bit field per
variable, so that adding two keys adds the exponent tuples.  Each field
is wide enough for the sum of two exponents plus one guard bit.  A
truncated series biases its first operand's keys so that a field's guard
bit is set exactly when the sum exceeds that variable's order, which
makes the truncation test ``(k1 + k2) & guard``; a polynomial is never
truncated and uses guard 0.  When every coefficient is exact (see
``field``), the loop multiplies integer numerators over one common
denominator per operand; mpmath coefficients run through the same loop
with their own arithmetic.

A polynomial keeps its terms by exponent tuple, so ``Packing.product``
packs both operands for each product, clearing their denominators with
``field.integer_numerators`` when both are exact, and reduces each output
term to a rational once (a plain int when it is integral).  A truncated
series is stored packed, as integer numerators over one denominator, and
calls ``sparse_product`` directly (see ``series``).

``poly_exact_div`` performs long division that is required to terminate
with remainder zero (Vandermonde divisions of antisymmetric numerators);
a nonzero remainder signals a violated identity upstream and raises.
"""

from __future__ import annotations

import itertools
import math
from operator import lshift
from typing import Mapping, Sequence

from ..errors import NonzeroRemainder
from .field import (EXACT_TYPES, ONE, ZERO, format_scalar, integer_numerators,
                    is_exact, mpmath, qdiv)


# -- the sparse multiply kernel ------------------------------------------


class Packing:
    """Exponent tuples packed into ints, one bit field per variable.

    ``caps[i]`` bounds what field i must hold: the truncation order when
    ``truncate`` is set, else the largest sum of two exponents.  A field
    is ``cap.bit_length() + 1`` bits wide, so its top bit stays clear of
    every sum and no field carries into the next.  Under truncation that
    top bit is the guard bit: ``bias`` puts 2^(w-1) - 1 - cap into each
    field of one operand's keys, which sets the guard bit of a summed key
    exactly when e1 + e2 > cap."""

    __slots__ = ("shifts", "masks", "bias", "guard")

    def __init__(self, caps: Sequence[int], truncate: bool = False):
        shifts, masks, bias, guard, pos = [], [], 0, 0, 0
        for cap in caps:
            width = cap.bit_length() + 1
            top = 1 << (width - 1)
            shifts.append(pos)
            masks.append(top - 1)
            if truncate:
                guard |= top << pos
                bias |= (top - 1 - cap) << pos
            pos += width
        self.shifts = tuple(shifts)
        self.masks = tuple(masks)
        self.bias = bias
        self.guard = guard

    def keys(self, exponents, positions: Sequence[int]) -> list:
        """Packed keys of exponent tuples whose entry j belongs to field
        ``positions[j]``."""
        shifts = [self.shifts[p] for p in positions]
        return [sum(map(lshift, e, shifts)) for e in exponents]

    def unpack(self, key: int) -> tuple:
        """The exponent tuple of an unbiased key."""
        return tuple([(key >> s) & m for s, m in zip(self.shifts, self.masks)])

    def product(self, a: Mapping, b: Mapping, a_positions: Sequence[int],
                b_positions: Sequence[int]) -> dict:
        """The terms of the product of two term dicts, by exponent tuple,
        without truncation; ``a_positions`` and ``b_positions`` are as in
        ``keys``.  When both are exact, integer numerators over each
        operand's common denominator are multiplied, and each output term
        is reduced to a rational (an int when integral) once."""
        den = 0
        if {*map(type, a.values()), *map(type, b.values())} <= EXACT_TYPES:
            (a, da), (b, db) = integer_numerators(a), integer_numerators(b)
            den = da * db
        out: dict = {}
        sparse_product(list(zip(self.keys(a, a_positions), a.values())),
                       list(zip(self.keys(b, b_positions), b.values())), 0, out)
        unpack = self.unpack
        if den > 1:
            return {unpack(k): qdiv(n, den) for k, n in out.items()}
        return {unpack(k): c for k, c in out.items()}


def sparse_product(a: list, b: list, guard: int, out: dict) -> None:
    """Add c1 * c2 to ``out[k1 + k2]`` for every (k1, c1) in ``a`` and
    (k2, c2) in ``b`` whose key sum has no guard bit set.

    The shorter list runs in the outer loop (``b`` when the lengths tie),
    and a sum that reaches zero leaves ``out``, so every output term adds
    its products in the order of the tuple loop it replaces and ``out``
    keeps that loop's insertion order: float results are bit-identical to
    it, and ``out`` holds no zero."""
    if len(a) < len(b):
        a, b = b, a
    get, pop = out.get, out.pop
    for k2, c2 in b:
        for k1, c1 in a:
            k = k1 + k2
            if k & guard:
                continue
            s = get(k, 0) + c1 * c2
            if s:
                out[k] = s
            else:
                pop(k, None)


class Poly:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, object]):
        self.vars = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if c != 0}

    @classmethod
    def _of(cls, variables: tuple, terms: dict) -> "Poly":
        """Wrap a dict that holds no zero coefficient, without copying."""
        p = object.__new__(cls)
        p.vars = variables
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def const(value, variables: Sequence[str] = ()) -> "Poly":
        n = len(variables)
        return Poly(variables, {(0,) * n: value} if value != 0 else {})

    @staticmethod
    def variable(name: str) -> "Poly":
        # an int coefficient keeps integer-polynomial arithmetic in int
        return Poly((name,), {(1,): 1})

    @staticmethod
    def zero(variables: Sequence[str] = ()) -> "Poly":
        return Poly(variables, {})

    # -- bookkeeping ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self, var: str) -> int:
        """Largest exponent of ``var``; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if var not in self.vars:
            return 0
        i = self.vars.index(var)
        return max(e[i] for e in self.terms)

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def constant_value(self):
        """The value of a constant polynomial."""
        if not self.terms:
            return ZERO
        if len(self.terms) == 1:
            (e, c), = self.terms.items()
            if not any(e):
                return c
        raise ValueError("polynomial is not constant")

    def aligned(self, variables: Sequence[str]) -> "Poly":
        """Re-express on a variable tuple that must contain self.vars."""
        variables = tuple(variables)
        if variables == self.vars:
            return self
        idx = [variables.index(v) for v in self.vars]
        n = len(variables)
        terms = {}
        for e, c in self.terms.items():
            new = [0] * n
            for i, ei in zip(idx, e):
                new[i] = ei
            terms[tuple(new)] = c
        return Poly(variables, terms)

    def _union_vars(self, other: "Poly") -> tuple:
        if self.vars == other.vars:
            return self.vars
        merged = list(self.vars)
        for v in other.vars:
            if v not in merged:
                merged.append(v)
        return tuple(merged)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        variables = self._union_vars(other)
        a, b = self.aligned(variables), other.aligned(variables)
        terms = dict(a.terms)
        for e, c in b.terms.items():
            s = terms.get(e, 0) + c
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
        return Poly(variables, terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if other == 0:
                return Poly.zero(self.vars)
            return Poly(self.vars, {e: c * other for e, c in self.terms.items()})
        variables = self._union_vars(other)
        cap = _max_exponent(self) + _max_exponent(other)
        packing = Packing((cap,) * len(variables))
        return Poly._of(variables, packing.product(
            self.terms, other.terms,
            [variables.index(v) for v in self.vars],
            [variables.index(v) for v in other.vars]))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.const(1, self.vars)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return (self - Poly.const(other)).is_zero()
        return (self - other).is_zero()

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e) if k
            )
            bits.append(f"({format_scalar(c)}){'*' + mono if mono else ''}")
        return "Poly(" + " + ".join(bits) + ")"

    # -- evaluation and substitution ------------------------------------

    def eval(self, values: Mapping[str, object]):
        """Evaluate at a point; every variable must be assigned."""
        pts = [values[v] for v in self.vars]
        total = ZERO
        for e, c in self.terms.items():
            term = c
            for x, k in zip(pts, e):
                if k:
                    term = term * x**k
            total = total + term
        return total

    def eval_partial(self, values: Mapping[str, object]) -> "Poly":
        """Substitute scalars for a subset of the variables."""
        keep = tuple(v for v in self.vars if v not in values)
        idx_keep = [self.vars.index(v) for v in keep]
        idx_sub = [(i, values[v]) for i, v in enumerate(self.vars) if v in values]
        terms = {}
        for e, c in self.terms.items():
            for i, x in idx_sub:
                if e[i]:
                    c = c * x ** e[i]
            if c == 0:
                continue
            key = tuple(e[i] for i in idx_keep)
            s = terms.get(key, 0) + c
            if s == 0:
                terms.pop(key, None)
            else:
                terms[key] = s
        return Poly(keep, terms)

    def shift(self, offsets: Mapping[str, object]) -> "Poly":
        """Substitute var -> var + offset for each entry of ``offsets``."""
        result = self
        for var, off in offsets.items():
            if off == 0 or var not in result.vars:
                continue
            i = result.vars.index(var)
            terms: dict[tuple, object] = {}
            for e, c in result.terms.items():
                k = e[i]
                for m in range(k + 1):
                    coeff = c * math.comb(k, m) * off ** m if m else c
                    e2 = e[:i] + (k - m,) + e[i + 1:]
                    s = terms.get(e2, 0) + coeff
                    if s == 0:
                        terms.pop(e2, None)
                    else:
                        terms[e2] = s
            result = Poly(result.vars, terms)
        return result

    def coefficient(self, var: str, k: int) -> "Poly":
        """The coefficient of var**k, as a polynomial in the other vars."""
        i = self.vars.index(var)
        keep = self.vars[:i] + self.vars[i + 1:]
        terms = {}
        for e, c in self.terms.items():
            if e[i] == k:
                terms[e[:i] + e[i + 1:]] = c
        return Poly(keep, terms)

    def homogeneous_component(self, total: int) -> "Poly":
        return Poly(self.vars, {e: c for e, c in self.terms.items() if sum(e) == total})

    def is_symmetric(self, tolerance: float = 0.0) -> bool:
        """Invariance under all adjacent transpositions of the variables.

        With a nonzero tolerance (float coefficients), mismatches are
        measured relative to the largest coefficient, so that rounding
        noise on small entries does not count as asymmetry."""
        scale = None
        if tolerance:
            scale = max((abs(mpmath.mpf(1) * c) for c in self.terms.values()),
                        default=mpmath.mpf(0))
        for i in range(len(self.vars) - 1):
            for e, c in self.terms.items():
                swapped = e[:i] + (e[i + 1], e[i]) + e[i + 2:]
                other = self.terms.get(swapped, 0)
                if other == c:
                    continue
                if not tolerance or scale == 0:
                    return False
                if abs(mpmath.mpf(1) * other - mpmath.mpf(1) * c) > tolerance * scale:
                    return False
        return True


def _max_exponent(p: Poly) -> int:
    return max(map(max, p.terms), default=0) if p.vars else 0


def poly_max_rel_err(a: Poly, b: Poly) -> float:
    """Largest relative coefficient discrepancy between two polynomials,
    with the union of supports and a scale set by the larger polynomial."""
    variables = a._union_vars(b)
    a = a.aligned(variables)
    b = b.aligned(variables)
    one = mpmath.mpf(1)
    mags = [abs(one * c)
            for c in list(a.terms.values()) + list(b.terms.values())]
    scale = max(mags, default=mpmath.mpf(0))
    if scale == 0:
        return 0.0
    worst = 0.0
    for e in set(a.terms) | set(b.terms):
        diff = abs(one * a.terms.get(e, 0) - one * b.terms.get(e, 0))
        worst = max(worst, float(diff / scale))
    return worst


def poly_exact_div(num: Poly, den: Poly) -> Poly:
    """Exact polynomial division: returns q with q*den == num.

    Raises NonzeroRemainder when the division does not terminate cleanly,
    which upstream signals a violated identity rather than a user error.
    """
    if den.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if num.is_zero():
        return Poly.zero(num.vars)
    variables = num._union_vars(den)
    num = num.aligned(variables)
    den = den.aligned(variables)
    lead_e = max(den.terms)
    lead_c = den.terms[lead_e]
    rem = dict(num.terms)
    q: dict[tuple, object] = {}
    while rem:
        e = max(rem)
        c = rem[e]
        diff = tuple(a - b for a, b in zip(e, lead_e))
        if any(d < 0 for d in diff):
            raise NonzeroRemainder(
                f"remainder has leading monomial {e} not divisible by {lead_e}")
        qc = qdiv(c, lead_c)
        q[diff] = qc
        for e2, c2 in den.terms.items():
            key = tuple(a + b for a, b in zip(diff, e2))
            s = rem.get(key, 0) - qc * c2
            if s == 0:
                rem.pop(key, None)
            else:
                rem[key] = s
    return Poly(variables, q)


def vandermonde(variables: Sequence[str]) -> Poly:
    """prod_{j<k} (v_k - v_j) over the given variable names."""
    result = Poly.const(ONE, variables)
    for j, k in itertools.combinations(range(len(variables)), 2):
        result = result * (Poly.variable(variables[k]) - Poly.variable(variables[j]))
    return result.aligned(variables)


def vandermonde_value(points: Sequence):
    prod = ONE
    for j, k in itertools.combinations(range(len(points)), 2):
        prod = prod * (points[k] - points[j])
    return prod


def det(matrix) -> object:
    """Determinant of a square matrix of field scalars, by Gaussian
    elimination (with magnitude pivoting for floats)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    if n == 0:
        return ONE
    m = [list(row) for row in matrix]
    exact = all(is_exact(x) for row in m for x in row)
    detval = ONE if exact else m[0][0] * 0 + 1
    sign_flip = False
    for k in range(n):
        pivot_row = None
        if exact:
            for i in range(k, n):
                if m[i][k] != 0:
                    pivot_row = i
                    break
        else:
            best = -1.0
            for i in range(k, n):
                mag = abs(m[i][k])
                if mag > best:
                    best, pivot_row = mag, i
            if best == 0:
                pivot_row = None
        if pivot_row is None or m[pivot_row][k] == 0:
            return ZERO if exact else detval * 0
        if pivot_row != k:
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign_flip = not sign_flip
        pivot = m[k][k]
        detval = detval * pivot
        inv = qdiv(1, pivot) if exact else 1 / pivot
        for i in range(k + 1, n):
            if m[i][k] == 0:
                continue
            factor = m[i][k] * inv
            m[i] = [a - factor * b for a, b in zip(m[i], m[k])]
    return -detval if sign_flip else detval
