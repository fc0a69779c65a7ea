"""Sparse multivariate polynomials with exact arithmetic.

A polynomial carries an ordered tuple of named variables and a dict
mapping exponent tuples to coefficients.  Zero coefficients are never
stored.  Coefficients may be ints, exact rationals, or mpmath floats;
binary operations align variable sets by name, so polynomials built in
different contexts combine transparently.

``poly_exact_div`` performs long division that is required to terminate
with remainder zero (Vandermonde divisions of antisymmetric numerators);
a nonzero remainder signals a violated identity upstream and raises.
"""

from __future__ import annotations

import itertools
import math
from operator import add
from typing import Mapping, Sequence

import mpmath

from ..errors import NonzeroRemainder
from .field import ONE, ZERO, is_exact, qdiv


class Poly:
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple, object]):
        self.vars = tuple(variables)
        self.terms = {e: c for e, c in terms.items() if c != 0}

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
        a, b = self.aligned(variables), other.aligned(variables)
        if len(a.terms) < len(b.terms):
            a, b = b, a
        terms = {}
        get = terms.get
        for e2, c2 in b.terms.items():
            for e1, c1 in a.terms.items():
                e = tuple(map(add, e1, e2))
                s = get(e, 0) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        return Poly(variables, terms)

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

    def __hash__(self):  # pragma: no cover - polys are not dict keys
        raise TypeError("Poly is unhashable")

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
            bits.append(f"({c}){'*' + mono if mono else ''}")
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

    def scale_var(self, var: str, factor) -> "Poly":
        """Substitute var -> factor * var."""
        if var not in self.vars:
            return self
        i = self.vars.index(var)
        return Poly(self.vars,
                    {e: c * factor ** e[i] if e[i] else c
                     for e, c in self.terms.items()})

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

    def map_coeff(self, fn) -> "Poly":
        return Poly(self.vars, {e: fn(c) for e, c in self.terms.items()})

    def rename_vars(self, mapping: Mapping[str, str]) -> "Poly":
        renamed = tuple(mapping.get(v, v) for v in self.vars)
        if len(set(renamed)) != len(renamed):
            raise ValueError("renaming collides variable names")
        return Poly(renamed, self.terms)

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


def poly_max_rel_err(a: Poly, b: Poly) -> float:
    """Largest relative coefficient discrepancy between two polynomials,
    with the union of supports and a scale set by the larger polynomial."""
    from .field import rel_err

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
