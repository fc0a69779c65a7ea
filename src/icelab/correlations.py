"""Boundary generating functions and multiple-contour-integral formulas.

All contour integrals of the model are of the form

    oint ... oint  F(z_1..z_s)  d^s z / (2 pi i)^s

with every contour a small circle around one declared point enclosing no
other singularity.  Operationally that is iterated coefficient
extraction: each factor of the integrand is expanded as a truncated
series in the variables shifted to the contour centers, the product is
formed with per-variable truncation at the target exponent, and the
target coefficients are read off.  Factors that are inverted must be
nonzero at the center; this is checked, not assumed, and a violation
surfaces as an error rather than a wrong number.

The generating polynomial family entering all the formulas is

    h(N, s) = det[ z_k^(s-j) (z_k - 1)^(j-1) h_{N-s+j}(z_k) ] / V(z)

with V the Vandermonde product and h_m the one-row generating function
of boundary correlations on the m x m lattice.  This index pairing is
the one under which the family satisfies h(N, s)|_{z_s=1} = h(N, s-1)
and reproduces the enumeration oracle through every integral formula;
it is fixed here once and cross-checked by those oracles in the test
suite.  The polynomial is computed exactly by a memoized cofactor
recursion that strips one Vandermonde row at a time, so every division
is by a single monic binomial.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import mpmath

from .algebra.field import ONE, is_exact, qdiv
from .algebra.poly import Poly, det, vandermonde_value
from .algebra.series import SeriesRing, TruncatedSeries
from .errors import (CoincidingParameters, NonzeroRemainder, PoleCollision,
                     PoleHit, PositionsOutOfRange, ZeroConstantTerm)
from .lattice import (HomogeneousWeights, WeightSpec, backward_vectors,
                      forward_vectors, partition_function,
                      state_from_positions)
from .report import CheckReport


# -- one-row generating function ---------------------------------------


@dataclass(frozen=True)
class GeneratingFunction:
    """h_N(z) = sum_r H_N^{(r)} z^{r-1} with the boundary correlations as
    coefficients; h_N(1) = 1 by the sum rule."""

    n: int
    coefficients: tuple

    def eval(self, z):
        total = self.coefficients[-1]
        for c in reversed(self.coefficients[:-1]):
            total = total * z + c
        return total

    def as_poly(self, var: str) -> Poly:
        return Poly((var,), {(r,): c for r, c in enumerate(self.coefficients)})


@lru_cache(maxsize=None)
def _h_numerators(n: int, weights: WeightSpec) -> tuple:
    """(numerators, Z): H_n^{(r)} = numerators[r-1] / Z."""
    fwd = forward_vectors(n, weights)[1]
    bwd = backward_vectors(n, weights)[1]
    nums = []
    for r in range(1, n + 1):
        state = state_from_positions(n, (r,))
        nums.append(fwd.get(state, 0) * bwd.get(state, 0))
    return tuple(nums), partition_function(n, weights)


def boundary_generating_fn(n: int, weights: WeightSpec) -> GeneratingFunction:
    if isinstance(weights, HomogeneousWeights) and weights.exact:
        weights = weights.integer_scaled()
    nums, z = _h_numerators(n, weights)
    if is_exact(z):
        return GeneratingFunction(n, tuple(qdiv(num, z) for num in nums))
    return GeneratingFunction(n, tuple(num / z for num in nums))


# -- the symmetric generating polynomial -------------------------------


def _zvar(i: int) -> str:
    return f"z{i}"


def _divide_linear(num: Poly, var_a: str, var_b: str, float_mode: bool) -> Poly:
    """Exact quotient num / (var_a - var_b) by synthetic (Horner) division,
    carried out on raw term dicts.

    In float mode the remainder is rounding noise and is dropped after a
    magnitude check; in exact mode any nonzero remainder raises.
    """
    if num.is_zero():
        return num
    variables = num.vars
    if var_b not in variables:
        variables = variables + (var_b,)
        num = num.aligned(variables)
    ia = variables.index(var_a)
    ib = variables.index(var_b)
    slices: dict[int, dict] = {}
    for mono, c in num.terms.items():
        slices.setdefault(mono[ia], {})[mono[:ia] + (0,) + mono[ia + 1:]] = c
    d = max(slices)
    out: dict[tuple, object] = {}
    carry: dict[tuple, object] = {}
    for e in range(d, -1, -1):
        cur = dict(slices.get(e, ()))
        for mono, c in carry.items():  # var_b * previous quotient slice
            key = mono[:ib] + (mono[ib] + 1,) + mono[ib + 1:]
            s = cur.get(key, 0) + c
            if s == 0:
                cur.pop(key, None)
            else:
                cur[key] = s
        if e == 0:
            remainder = cur
        else:
            for mono, c in cur.items():
                out[mono[:ia] + (e - 1,) + mono[ia + 1:]] = c
            carry = cur
    if remainder:
        if not float_mode:
            raise NonzeroRemainder(
                f"division by ({var_a} - {var_b}) left a remainder")
        scale = max(abs(mpmath.mpf(1) * c) for c in num.terms.values())
        worst = max(abs(mpmath.mpf(1) * c) for c in remainder.values())
        if scale == 0 or worst / scale > 1e-6:
            raise NonzeroRemainder(
                f"float division by ({var_a} - {var_b}) left a large remainder")
    return Poly(variables, out)


@lru_cache(maxsize=None)
def sym_generating_poly(n: int, s: int, weights: WeightSpec) -> Poly:
    """h(N, s) as an explicit polynomial in z1..zs.

    Exact weights are rescaled to integers and the determinant recursion
    runs over integer polynomials; the common denominator (the product of
    the partition functions entering the one-row data) is divided out at
    the end.
    """
    if not 1 <= s <= n:
        raise PositionsOutOfRange(f"s={s} outside 1..{n}")
    exact = isinstance(weights, HomogeneousWeights) and weights.exact
    if exact:
        work = weights.integer_scaled()
        rows = []
        denom = 1
        for j in range(1, s + 1):
            nums, z = _h_numerators(n - s + j, work)
            rows.append(Poly(("_z",), {(r,): c for r, c in enumerate(nums)}))
            denom *= z
    else:
        work = weights
        rows = [boundary_generating_fn(n - s + j, work).as_poly("_z")
                for j in range(1, s + 1)]
        denom = 1

    zpoly = Poly.variable("_z")
    g_rows = [(zpoly ** (s - j)) * ((zpoly - 1) ** (j - 1)) * rows[j - 1]
              for j in range(1, s + 1)]

    float_mode = not exact
    memo: dict[frozenset, Poly] = {frozenset(): Poly.const(1)}

    def reduced_minor(row_set: frozenset) -> Poly:
        cached = memo.get(row_set)
        if cached is not None:
            return cached
        rows_sorted = sorted(row_set)
        m = len(rows_sorted)
        var = _zvar(m)
        total = None
        for i, j in enumerate(rows_sorted, start=1):
            g = g_rows[j - 1].rename_vars({"_z": var})
            term = g * reduced_minor(row_set - {j})
            if (i + m) % 2:
                term = -term
            total = term if total is None else total + term
        for k in range(1, m):
            total = _divide_linear(total, var, _zvar(k), float_mode)
        memo[row_set] = total
        return total

    result = reduced_minor(frozenset(range(1, s + 1)))
    # reduced_minor refers to itself, a cycle that only the cyclic garbage
    # collector frees, so release the memoized minors here
    memo.clear()
    result = result.aligned(tuple(_zvar(i) for i in range(1, s + 1)))
    if denom != 1:
        result = result.map_coeff(lambda c: qdiv(c, denom))
    if float_mode:
        result = _chop(result)
    return result


def _chop(poly: Poly) -> Poly:
    """Drop float coefficients that are rounding residue relative to the
    largest coefficient (division remainders below working precision)."""
    if not poly.terms:
        return poly
    scale = max(abs(mpmath.mpf(1) * c) for c in poly.terms.values())
    cutoff = scale * mpmath.eps * 1024
    return Poly(poly.vars,
                {e: c for e, c in poly.terms.items()
                 if abs(mpmath.mpf(1) * c) > cutoff})


def sym_generating_at(n: int, s: int, points: Sequence, weights: WeightSpec):
    """h(N, s) evaluated at pairwise distinct points, via the determinant
    and Vandermonde values directly (works in either backend)."""
    if s == 0:
        return ONE
    if len(set(points)) != len(points):
        raise CoincidingParameters("generating polynomial evaluation needs "
                                   "pairwise distinct points")
    hs = [boundary_generating_fn(n - s + j, weights) for j in range(1, s + 1)]
    matrix = [[(points[k] ** (s - j)) * ((points[k] - 1) ** (j - 1))
               * hs[j - 1].eval(points[k])
               for k in range(s)] for j in range(1, s + 1)]
    return _ratio(det(matrix), vandermonde_value(points))


def _ratio(num, den):
    return qdiv(num, den) if is_exact(num) and is_exact(den) else num / den


# -- the variable change used by the symmetric representation ----------


def u_map(z, t, delta):
    """u = -(z - 1) / ((t^2 - 2 delta t) z + 1), for scalars or series."""
    a = t * t - 2 * delta * t
    if isinstance(z, TruncatedSeries):
        return -(z - 1) * (z * a + 1).invert()
    den = a * z + 1
    if den == 0:
        raise PoleHit(f"u(z) has a pole at z={z}")
    return _ratio(-(z - 1), den)


# -- residue machinery -------------------------------------------------


@dataclass(frozen=True)
class ResidueSpec:
    """One contour: variable name, center, and the Laurent exponent whose
    coefficient realizes oint d var / (2 pi i)."""

    var: str
    center: object
    target_exponent: int


def residue_ring(specs: Sequence[ResidueSpec], extra_order: int = 0) -> SeriesRing:
    return SeriesRing(tuple(sp.var for sp in specs),
                      tuple(sp.target_exponent + extra_order for sp in specs))


def iterated_residue(factors: Sequence, specs: Sequence[ResidueSpec], *,
                     extra_series: Sequence[TruncatedSeries] = (),
                     ring: SeriesRing | None = None,
                     var_order: Sequence[str] | None = None,
                     extra_order: int = 0):
    """Evaluate an iterated contour integral as coefficient extraction.

    ``factors`` are (Poly, power) pairs (a bare Poly means power 1) in the
    unshifted variables; the engine recenters each polynomial, expands
    negative powers (raising ZeroConstantTerm when a declared-analytic
    factor vanishes at its center), and extracts the product of target
    coefficients.  ``extra_series`` are prebuilt series in the engine's
    shifted ring (obtain it from ``residue_ring``).  The result does not
    depend on ``var_order``; callers may pass one to exercise that.
    """
    if not specs:
        value = ONE
        for item in factors:
            poly, power = item if isinstance(item, tuple) else (item, 1)
            c = poly.constant_value()
            value = value * (c ** power if power >= 0 else qdiv(1, c ** -power))
        return value
    if ring is None:
        ring = residue_ring(specs, extra_order)
    by_var = {sp.var: sp for sp in specs}
    order = tuple(var_order) if var_order is not None else tuple(sp.var for sp in specs)
    if sorted(order) != sorted(by_var):
        raise ValueError("var_order must permute the residue variables")
    step_of = {v: i for i, v in enumerate(order)}

    scalar = ONE
    pending: list[tuple[int, TruncatedSeries]] = []

    def subring_for(variables: tuple) -> SeriesRing:
        return SeriesRing(variables, tuple(ring.orders[ring.index(v)] for v in variables))

    for item in factors:
        poly, power = item if isinstance(item, tuple) else (item, 1)
        support = tuple(v for v in poly.vars if v in by_var and poly.degree(v) > 0)
        offsets = {v: by_var[v].center for v in support if by_var[v].center != 0}
        shifted = poly.shift(offsets) if offsets else poly
        if not support:
            c = shifted.constant_value()
            scalar = scalar * (c ** power if power >= 0 else qdiv(1, c ** -power))
            continue
        sub = subring_for(support)
        base = sub.from_poly(shifted)
        series = base ** power if power >= 0 else base.invert() ** (-power)
        pending.append((min(step_of[v] for v in support), series))
    for series in extra_series:
        if series.ring != ring:
            raise ValueError("extra series must live in the engine ring")
        step = min((step_of[v] for v in series.support()), default=0)
        pending.append((step, series))

    acc = ring.one()
    current = ring
    for i, var in enumerate(order):
        merge_now = sorted((s for s in pending if s[0] == i),
                           key=lambda item: len(item[1].nums))
        target = by_var[var].target_exponent
        if merge_now:
            for _, series in merge_now[:-1]:
                acc = acc * current.embed(series)
            acc = acc.mul_slice(current.embed(merge_now[-1][1]), var, target)
        else:
            acc = acc.coefficient(var, target)
        current = current.drop(var)
    return scalar * acc.constant_term()


def _compose_poly(poly: Poly, ring: SeriesRing,
                  series_map: Mapping[str, TruncatedSeries]) -> TruncatedSeries:
    """poly with each variable replaced by a series from the ring."""
    variables = [v for v in poly.vars if v in series_map]
    powers = {v: [ring.one()] for v in variables}

    def pow_of(v: str, k: int) -> TruncatedSeries:
        table = powers[v]
        while len(table) <= k:
            table.append(table[-1] * series_map[v])
        return table[k]

    return _substitute(poly, ring, variables, pow_of)


def _substitute(p: Poly, ring: SeriesRing, variables: Sequence[str],
                pow_of) -> TruncatedSeries:
    """p with each of ``variables`` replaced by the series whose k-th power
    is ``pow_of(v, k)``, one variable per level.  A module-level function
    rather than a closure that calls itself, so that no reference cycle
    keeps the power tables alive after the call."""
    if p.is_zero():
        return ring.zero()
    if not variables:
        return ring.const(p.constant_value())
    v = variables[0]
    total = ring.zero()
    for k in range(p.degree(v) + 1):
        part = p.coefficient(v, k)
        if part.is_zero():
            continue
        total = total + _substitute(part, ring, variables[1:], pow_of) * pow_of(v, k)
    return total


# -- emptiness formation probability: three contour forms ---------------


def _hom_parameters(weights: HomogeneousWeights):
    return weights.t, weights.delta


def efp_contour_asym(n: int, r: int, s: int, weights: HomogeneousWeights,
                     var_order=None, extra_order: int = 0):
    """EFP as an s-fold integral around 0 with a non-symmetric integrand."""
    if s == 0:
        return ONE
    if not 1 <= r <= n:
        raise PositionsOutOfRange(f"r={r} outside 1..{n}")
    t, delta = _hom_parameters(weights)
    a = t * t - 2 * delta * t
    zs = [Poly.variable(_zvar(j)) for j in range(1, s + 1)]
    factors: list = []
    for j in range(1, s + 1):
        zj = zs[j - 1]
        if s - j:
            factors.append((zj * a + 1, s - j))
        factors.append((zj - 1, -(s - j + 1)))
    for j in range(1, s + 1):
        for k in range(j + 1, s + 1):
            zj, zk = zs[j - 1], zs[k - 1]
            factors.append(zj - zk)
            factors.append((zj * zk * (t * t) - zj * (2 * delta * t) + 1, -1))
    factors.append(sym_generating_poly(n, s, weights))
    specs = [ResidueSpec(_zvar(j), 0, r - 1) for j in range(1, s + 1)]
    value = iterated_residue(factors, specs, var_order=var_order,
                             extra_order=extra_order)
    return value if s % 2 == 0 else -value


def efp_contour_sym(n: int, r: int, s: int, weights: HomogeneousWeights,
                    var_order=None, extra_order: int = 0):
    """EFP as the symmetrized s-fold integral with the s x s partition
    function and the u-transformed generating polynomial."""
    if s == 0:
        return ONE
    if not 1 <= r <= n:
        raise PositionsOutOfRange(f"r={r} outside 1..{n}")
    t, delta = _hom_parameters(weights)
    a = t * t - 2 * delta * t
    z_s = partition_function(s, weights)
    specs = [ResidueSpec(_zvar(j), 0, r - 1) for j in range(1, s + 1)]
    ring = residue_ring(specs, extra_order)
    factors: list = []
    u_series = {}
    for j in range(1, s + 1):
        zj = Poly.variable(_zvar(j))
        factors.append((zj - 1, -s))
        if s > 1:
            factors.append((zj * a + 1, s - 1))
        u_series[_zvar(j)] = u_map(ring.from_poly(zj), t, delta)
    for j in range(1, s + 1):
        for k in range(j + 1, s + 1):
            zj, zk = Poly.variable(_zvar(j)), Poly.variable(_zvar(k))
            factors.append((zk - zj, 2))
            factors.append((zj * zk * (t * t) - zj * (2 * delta * t) + 1, -1))
            factors.append((zj * zk * (t * t) - zk * (2 * delta * t) + 1, -1))
    factors.append(sym_generating_poly(n, s, weights))
    h_ss = _compose_poly(sym_generating_poly(s, s, weights), ring, u_series)
    value = iterated_residue(factors, specs, extra_series=[h_ss], ring=ring,
                             var_order=var_order, extra_order=extra_order)
    sign = -1 if (s + s * (s - 1) // 2) % 2 else 1
    pref = _ratio(z_s, weights.a ** (s * (s - 1)) * weights.c ** s)
    return qdiv(sign, math.factorial(s)) * pref * value


def efp_contour_cauchy(n: int, r: int, s: int, weights: HomogeneousWeights,
                       var_order=None, extra_order: int = 0):
    """EFP in the form obtained after integrating out one variable set:
    the x-integrand carries the homogeneous-limit Cauchy-determinant
    ratio, expanded through the u-transformed generating polynomial."""
    if s == 0:
        return ONE
    if not 1 <= r <= n:
        raise PositionsOutOfRange(f"r={r} outside 1..{n}")
    t, delta = _hom_parameters(weights)
    z_s = partition_function(s, weights)
    specs = [ResidueSpec(f"x{j}", 0, r - 1) for j in range(1, s + 1)]
    ring = residue_ring(specs, extra_order)
    factors: list = []
    u_series = {}
    for j in range(1, s + 1):
        xj = Poly.variable(f"x{j}")
        factors.append((xj - t, -1))
        if s > 1:
            factors.append((xj * (t - 2 * delta) + 1, s - 1))
            factors.append((-xj + t, -(s - 1)))
        u_series[_zvar(j)] = u_map(ring.from_poly(xj) / t, t, delta)
    for j in range(1, s + 1):
        for k in range(j + 1, s + 1):
            xj, xk = Poly.variable(f"x{j}"), Poly.variable(f"x{k}")
            factors.append((xk - xj, 2))
            factors.append((xj * xk - xj * (2 * delta) + 1, -1))
            factors.append((xj * xk - xk * (2 * delta) + 1, -1))
    h_ns = sym_generating_poly(n, s, weights)
    h_ns = h_ns.rename_vars({_zvar(j): f"x{j}" for j in range(1, s + 1)})
    for j in range(1, s + 1):
        h_ns = h_ns.scale_var(f"x{j}", qdiv(1, t) if is_exact(t) else 1 / t)
    factors.append(h_ns)
    h_ss = _compose_poly(sym_generating_poly(s, s, weights), ring, u_series)
    value = iterated_residue(factors, specs, extra_series=[h_ss], ring=ring,
                             var_order=var_order, extra_order=extra_order)
    # scalars: t^{s(r-1)} / s! from the formula, (-1)^{s(s-1)/2} from the
    # ordered pair product, (-1)^s Z_s t^{s^2} / (c^s b^{s(s-1)}) from the
    # homogeneous Cauchy ratio
    sign = -1 if (s + s * (s - 1) // 2) % 2 else 1
    pref = _ratio(z_s, weights.c ** s * weights.b ** (s * (s - 1)))
    return qdiv(sign, math.factorial(s)) * t ** (s * (r - 1) + s * s) * pref * value


def efp_contour_double(n: int, r: int, s: int, weights: HomogeneousWeights,
                       var_order=None, extra_order: int = 0):
    """EFP as the 2s-fold integral over both variable sets, after the
    ordered geometric summation: x-contours around 0, y-contours around
    1/t.  Intended for small s; the joint expansion cost grows quickly."""
    if s == 0:
        return ONE
    if not 1 <= r <= n:
        raise PositionsOutOfRange(f"r={r} outside 1..{n}")
    if any(r - s + j - 1 < 0 for j in range(1, s + 1)):
        return 0 * ONE
    t, delta = _hom_parameters(weights)
    inv_t = qdiv(1, t) if is_exact(t) else 1 / t
    specs = [ResidueSpec(f"x{j}", 0, r - s + j - 1) for j in range(1, s + 1)]
    specs += [ResidueSpec(f"y{j}", inv_t, s - 1) for j in range(1, s + 1)]
    factors: list = []
    for j in range(1, s + 1):
        yj = Poly.variable(f"y{j}")
        factors.append((yj, -(r + j - 1)))
        prod = Poly.const(ONE)
        for l in range(1, j + 1):
            prod = prod * Poly.variable(f"x{l}") * Poly.variable(f"y{l}")
        factors.append((1 - prod, -1))
    for j in range(1, s + 1):
        for k in range(j + 1, s + 1):
            xj, xk = Poly.variable(f"x{j}"), Poly.variable(f"x{k}")
            yj, yk = Poly.variable(f"y{j}"), Poly.variable(f"y{k}")
            factors.append(yk - yj)
            factors.append(yj * yk - yk * (2 * delta) + 1)
            factors.append(xk - xj)
            factors.append((xj * xk - xj * (2 * delta) + 1, -1))
    h_ns = sym_generating_poly(n, s, weights)
    h_ns = h_ns.rename_vars({_zvar(j): f"x{j}" for j in range(1, s + 1)})
    for j in range(1, s + 1):
        h_ns = h_ns.scale_var(f"x{j}", inv_t)
    factors.append(h_ns)
    try:
        value = iterated_residue(factors, specs, var_order=var_order,
                                 extra_order=extra_order)
    except ZeroConstantTerm as exc:
        raise PoleCollision(
            "a factor declared analytic vanishes on a contour center; "
            f"weights {weights}: {exc}") from exc
    return value * t ** (-s * s) if not is_exact(t) else value * qdiv(1, t ** (s * s))


# -- the two cut partition functions ------------------------------------


def zbot_contour(n: int, s: int, positions: Sequence[int],
                 weights: HomogeneousWeights, var_order=None,
                 extra_order: int = 0):
    """Bottom partition function as an s-fold integral around 0.

    Positions must be strictly increasing; nonpositive entries are
    admitted and give 0 (no pole is enclosed), which is the property that
    allows extending the ordered sum over all integers."""
    if s == 0:
        return partition_function(n, weights)
    if any(r2 <= r1 for r1, r2 in zip(positions, positions[1:])):
        raise PositionsOutOfRange(f"positions {positions} not strictly increasing")
    if len(positions) != s:
        raise PositionsOutOfRange(f"expected {s} positions")
    if positions[0] <= 0:
        return 0 * ONE
    t, delta = _hom_parameters(weights)
    factors: list = []
    for j in range(1, s + 1):
        for k in range(j + 1, s + 1):
            zj, zk = Poly.variable(_zvar(j)), Poly.variable(_zvar(k))
            factors.append(zk - zj)
            factors.append((zj * zk * (t * t) - zj * (2 * delta * t) + 1, -1))
    factors.append(sym_generating_poly(n, s, weights))
    specs = [ResidueSpec(_zvar(j), 0, positions[j - 1] - 1)
             for j in range(1, s + 1)]
    value = iterated_residue(factors, specs, var_order=var_order,
                             extra_order=extra_order)
    pref = partition_function(n, weights)
    pref = _ratio(pref, weights.a ** (s * (n - 1)) * weights.c ** s)
    for j in range(1, s + 1):
        pref = pref * t ** (j - positions[j - 1])
    return pref * value


def ztop_contour(n: int, s: int, positions: Sequence[int],
                 weights: HomogeneousWeights, var_order=None,
                 extra_order: int = 0):
    """Top partition function as an s-fold integral around 1; the
    integrand is polynomial apart from the declared order-s poles."""
    if s == 0:
        return ONE
    state_from_positions(n, positions)  # validates range and ordering
    if len(positions) != s:
        raise PositionsOutOfRange(f"expected {s} positions")
    t, delta = _hom_parameters(weights)
    factors: list = []
    for j in range(1, s + 1):
        wj = Poly.variable(f"w{j}")
        if positions[j - 1] > 1:
            factors.append((wj, positions[j - 1] - 1))
    for j in range(1, s + 1):
        for k in range(j + 1, s + 1):
            wj, wk = Poly.variable(f"w{j}"), Poly.variable(f"w{k}")
            factors.append(wj - wk)
            factors.append(wj * wk * (t * t) - wj * (2 * delta * t) + 1)
    specs = [ResidueSpec(f"w{j}", 1, s - 1) for j in range(1, s + 1)]
    value = iterated_residue(factors, specs, var_order=var_order,
                             extra_order=extra_order)
    pref = weights.c ** s * weights.a ** (s * (n - 1))
    for j in range(1, s + 1):
        pref = pref * t ** (positions[j - 1] - j)
    return pref * value


# -- ordered-sum and residue-collapse identities --------------------------


def check_ordered_geometric_sum(s: int, r: int, order: int,
                                cutoff: int | None = None) -> CheckReport:
    """Ordered multiple geometric sum, as a truncated-series identity.

    Both sides are multiplied by prod z_j^r so that all exponents are
    nonnegative; the ordered sum runs over r_1 < ... < r_s <= r with the
    finite lower cutoff r_j > -cutoff (default: the truncation order),
    beyond which terms fall outside the truncation anyway.
    """
    if cutoff is None:
        cutoff = order
    ring = SeriesRing(tuple(_zvar(j) for j in range(1, s + 1)), (order,) * s)
    lhs = ring.zero()
    lo = max(r - order, 1 - cutoff)
    for combo in itertools.combinations(range(lo, r + 1), s):
        exponents = {_zvar(j): r - combo[j - 1] for j in range(1, s + 1)}
        if any(e > order for e in exponents.values()):
            continue
        lhs = lhs + ring.from_poly(
            Poly(tuple(exponents), {tuple(exponents.values()): ONE}))
    rhs = ring.one()
    for j in range(1, s + 1):
        mono = Poly((_zvar(j),), {(s - j,): ONE})
        rhs = rhs * ring.from_poly(mono)
        prod = Poly.const(ONE)
        for l in range(1, j + 1):
            prod = prod * Poly.variable(_zvar(l))
        rhs = rhs * ring.from_poly(1 - prod).invert()
    return CheckReport.from_comparison(
        "efp.ordered_geometric_sum",
        {"s": s, "r": r, "order": order, "cutoff": cutoff},
        lhs.as_poly(), rhs.as_poly(), exact=True)


def check_symmetric_residue_collapse(s: int, phi: Poly, w) -> CheckReport:
    """s-fold residue of V(y)^2 Phi / prod (y_j - w)^s at y_j = w equals
    (-1)^(s(s-1)/2) s! Phi(w, ..., w) for symmetric Phi."""
    yvars = tuple(f"y{j}" for j in range(1, s + 1))
    factors: list = []
    for j in range(1, s + 1):
        for k in range(j + 1, s + 1):
            factors.append((Poly.variable(yvars[k - 1]) - Poly.variable(yvars[j - 1]), 2))
    factors.append(phi.aligned(yvars) if set(phi.vars) <= set(yvars) else phi)
    specs = [ResidueSpec(v, w, s - 1) for v in yvars]
    lhs = iterated_residue(factors, specs)
    rhs = phi.eval({v: w for v in phi.vars})
    rhs = rhs * math.factorial(s)
    if (s * (s - 1) // 2) % 2:
        rhs = -rhs
    return CheckReport.from_comparison(
        "efp.symmetric_residue_collapse",
        {"s": s, "w": w, "phi_terms": len(phi.terms)},
        lhs, rhs, exact=True)
