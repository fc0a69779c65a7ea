"""Boundary generating functions and multiple-contour-integral formulas.

All contour integrals of the model are of the form

    oint ... oint  F(z_1..z_s)  d^s z / (2 pi i)^s

with every contour a small circle around one declared point enclosing no
other singularity.  Operationally that is coefficient extraction, done by
one engine, ``_factor_product``: each factor of the integrand is expanded
as a truncated series in the variables shifted to the contour centers,
the product is formed with per-variable truncation at the target
exponents, and the target coefficient is read off.  Factors that are
inverted must be nonzero at the center; this is checked, not assumed, and
a violation surfaces as an error rather than a wrong number.

In the five kernel forms, the asymmetric, symmetrized, Cauchy and double
EFP integrals and the bottom RCP integral, the generating polynomial h =
h(N, s) is the only factor that depends on N.  The product K of all the
others, the u-transformed h(s, s) included, depends only on the form, s,
the weights, the truncation orders and, in the double form, r.  The
residue is the coefficient of z^T in K h, that is the sum over the terms
m of h of h[m] K[T - m]: a dot product, with no series product with h.
Exact values run on integer numerators with one division at the end, and
the 1/t rescaling of h(N, s) in the Cauchy and double forms enters the
sum as t^(-|m|).  Inside ``kernel_scope()``, which ``cli.run`` opens for
its suites, each kernel K is built once, keyed by its builder, the
weights, its truncation orders and r where K depends on it, and read by
every (N, r) or position set that needs it.  A scope may declare a
ceiling, the largest order its block will ask for, as the EFP and RCP
suites do; it then builds each kernel that takes no r once per form, s
and weights, at the largest orders the ceiling lets a call read: the
ceiling in every variable, or up to it by steps of one for the bottom
RCP kernel, whose positions rise strictly.  With per-variable
truncation a coefficient inside a box never depends on terms outside it,
so a kernel built at orders O reads every target T <= O exactly.  The
scope holds the kernels of one weight triple at a time, since the suites
finish a triple before drawing the next, and it drops them on exit;
outside a scope each call builds its kernel at the exact orders and
drops it.  The top RCP integral and the residue-collapse check hand
their whole integrand to ``iterated_residue``, which forms the same
product and reads its target coefficient.

The generating polynomial family entering all the formulas is

    h(N, s) = det[ z_k^(s-j) (z_k - 1)^(j-1) h_{N-s+j}(z_k) ] / V(z)

with V the Vandermonde product and h_m the one-row generating function
of boundary correlations on the m x m lattice.  This index pairing is
the one under which the family satisfies h(N, s)|_{z_s=1} = h(N, s-1)
and reproduces the enumeration oracle through every integral formula;
it is fixed here once and cross-checked by those oracles in the test
suite.  The polynomial is built without polynomial division.  Writing
g_j(z) = sum_d C[j][d] z^d, Cauchy-Binet expands det[g_j(z_k)] over the
s x s minors of C, and the bialternant formula turns each det[z_k^(d_i)]
/ V(z) into a Schur polynomial, which the branching rule expands into
monomials one variable at a time (Macdonald, Symmetric Functions and
Hall Polynomials, I.3 and I.5).  Exact weights run on integers; float
weights run through the same sums, so no remainder is ever judged.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

from .algebra.field import ONE, common_denominator, qdiv
from .algebra.poly import Poly, det, vandermonde_value
from .algebra.series import SeriesRing, TruncatedSeries
from .errors import (CoincidingParameters, PoleCollision, PoleHit,
                     PositionsOutOfRange, ZeroConstantTerm)
from .lattice import (HomogeneousWeights, WeightSpec, backward_vectors,
                      forward_vectors, partition_function,
                      probability_weights, state_from_positions)


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
    nums, z = _h_numerators(n, probability_weights(weights))
    return GeneratingFunction(n, tuple(qdiv(num, z) for num in nums))


# -- the symmetric generating polynomial -------------------------------


def _zvar(i: int) -> str:
    return f"z{i}"


def _row_coefficients(nums: Sequence, s: int, j: int, width: int) -> list:
    """The coefficients of g_j(z) = z^(s-j) (z-1)^(j-1) sum_r nums[r] z^r,
    padded with zeros to ``width``."""
    row = [0] * (s - j) + list(nums)
    for _ in range(j - 1):  # times (z - 1)
        row = [(row[i - 1] if i else 0) - (row[i] if i < len(row) else 0)
               for i in range(len(row) + 1)]
    return row + [0] * (width - len(row))


def maximal_minors(rows: Sequence[Sequence]) -> dict:
    """Every nonzero k x k minor of a k x m matrix, keyed by the bitmask of
    its columns.

    Laplace expansion along the rows, one row at a time: after row i the
    table holds the minors of rows 0..i on every (i+1)-set of columns.
    Appending column c to a set puts it behind the set's members greater
    than c, which gives the sign.  No division happens, so integer
    entries give integer minors and float entries round only in the
    products and sums."""
    minors = {0: 1}
    for row in rows:
        cols = [(1 << c, c, x) for c, x in enumerate(row) if x]
        grown: dict = {}
        for mask, m in minors.items():
            for bit, c, x in cols:
                if mask & bit:
                    continue
                term = x * m
                if (mask >> c).bit_count() % 2:
                    term = -term
                key = mask | bit
                grown[key] = grown.get(key, 0) + term
        minors = {mask: m for mask, m in grown.items() if m}
    return minors


def _schur_terms(mu: tuple, memo: dict) -> dict:
    """s_mu(z_1..z_k) for a partition mu with k parts (zeros allowed), as
    {exponent tuple: int}, by the branching rule

        s_mu(z_1..z_k) = sum over nu < mu of s_nu(z_1..z_(k-1)) z_k^(|mu|-|nu|),

    nu running over the partitions with k-1 parts that interlace mu,
    mu_1 >= nu_1 >= mu_2 >= ... >= nu_(k-1) >= mu_k (horizontal strips).
    ``memo`` maps each partition expanded so far to its terms."""
    if not mu:
        return {(): 1}
    cached = memo.get(mu)
    if cached is not None:
        return cached
    size = sum(mu)
    out: dict = {}
    for nu in itertools.product(*(range(mu[i + 1], mu[i] + 1)
                                  for i in range(len(mu) - 1))):
        tail = (size - sum(nu),)
        for mono, c in _schur_terms(nu, memo).items():
            key = mono + tail
            out[key] = out.get(key, 0) + c
    memo[mu] = out
    return out


@lru_cache(maxsize=None)
def sym_generating_poly(n: int, s: int, weights: WeightSpec) -> Poly:
    """h(N, s) as an explicit polynomial in z1..zs.

    Write g_j(z) = sum_d C[j][d] z^d.  By Cauchy-Binet and the
    bialternant formula, det[g_j(z_k)] / V(z) is the sum over the
    s-subsets D = {d_1 < ... < d_s} of the columns of det C[:, D] times
    the Schur polynomial s_mu(z_1..z_s), mu_i = d_(s+1-i) - (s-i).  Exact
    weights are rescaled to integers, so C, its minors and the Schur
    coefficients are integers; the common denominator (the product of the
    partition functions entering the one-row data) is divided out at the
    end.  Float weights take the same path with mpf entries.
    """
    if not 1 <= s <= n:
        raise PositionsOutOfRange(f"s={s} outside 1..{n}")
    work = probability_weights(weights)
    width = n + s - 1  # deg g_s = n + s - 2
    rows = []
    denom = 1
    for j in range(1, s + 1):
        nums, z = _h_numerators(n - s + j, work)
        rows.append(_row_coefficients(nums, s, j, width))
        denom = denom * z

    memo: dict = {}
    terms: dict = {}
    for mask, minor in maximal_minors(rows).items():
        cols = [c for c in range(width) if mask >> c & 1]
        mu = tuple(d - i for i, d in enumerate(cols))[::-1]
        for mono, k in _schur_terms(mu, memo).items():
            terms[mono] = terms.get(mono, 0) + k * minor
    return Poly(tuple(_zvar(i) for i in range(1, s + 1)),
                {mono: qdiv(c, denom) for mono, c in terms.items() if c})


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
    return qdiv(det(matrix), vandermonde_value(points))


# -- the variable change used by the symmetric representation ----------


def u_map(z, t, delta):
    """u = -(z - 1) / ((t^2 - 2 delta t) z + 1), for scalars or series."""
    a = t * t - 2 * delta * t
    if isinstance(z, TruncatedSeries):
        return -(z - 1) * (z * a + 1).invert()
    den = a * z + 1
    if den == 0:
        raise PoleHit(f"u(z) has a pole at z={z}")
    return qdiv(-(z - 1), den)


# -- residue machinery -------------------------------------------------


@dataclass(frozen=True)
class ResidueSpec:
    """One contour: variable name, center, and the Laurent exponent whose
    coefficient realizes oint d var / (2 pi i)."""

    var: str
    center: object
    target_exponent: int


def _expand_factors(factors: Sequence, centers: Mapping[str, object],
                    ring: SeriesRing) -> tuple:
    """(scalar, [(support, series)]): each (Poly, power) factor (a bare Poly
    means power 1) recentred at ``centers`` and expanded, negative powers
    through the inverse, in the subring of ``ring`` on the contour
    variables it holds; a factor that holds none is folded into the scalar.
    Inverting a factor that vanishes at its center raises ZeroConstantTerm."""
    scalar = ONE
    expanded = []
    for item in factors:
        poly, power = item if isinstance(item, tuple) else (item, 1)
        support = tuple(v for v in poly.vars if v in centers and poly.degree(v) > 0)
        offsets = {v: centers[v] for v in support if centers[v] != 0}
        shifted = poly.shift(offsets) if offsets else poly
        if not support:
            c = shifted.constant_value()
            scalar = scalar * (c ** power if power >= 0 else qdiv(1, c ** -power))
            continue
        sub = SeriesRing(support, tuple(ring.orders[ring.index(v)] for v in support))
        base = sub.from_poly(shifted)
        expanded.append((support, base ** power if power >= 0 else base.invert() ** (-power)))
    return scalar, expanded


def iterated_residue(factors: Sequence, specs: Sequence[ResidueSpec]):
    """Evaluate an iterated contour integral as coefficient extraction.

    ``factors`` are (Poly, power) pairs (a bare Poly means power 1) in the
    unshifted variables.  Their product is expanded around the specs'
    centers (raising ZeroConstantTerm when a declared-analytic factor
    vanishes at its center) in the ring truncated at the target exponents,
    and the coefficient of the targets is read off.
    """
    ring = SeriesRing(tuple(sp.var for sp in specs),
                      tuple(sp.target_exponent for sp in specs))
    product = _factor_product(ring, factors, centers={sp.var: sp.center for sp in specs})
    return product.coefficient_value({sp.var: sp.target_exponent for sp in specs})


# -- integrand kernels ---------------------------------------------------

class _KernelScope(NamedTuple):
    memo: dict
    ceiling: int | None


_KERNELS: ContextVar[_KernelScope | None] = ContextVar("icelab_kernels", default=None)


@contextmanager
def kernel_scope(ceiling: int | None = None):
    """Within the with-block, each integrand kernel is built once and
    reused by every contour call that needs it, until a kernel of other
    weights is built; the kernels are dropped when the outermost scope
    exits.  ``ceiling`` declares the largest truncation order the block
    will ask for, so that a kernel built at it serves every smaller order
    (see ``_kernel``); without one each kernel is built at the orders
    asked for.  An inner scope shares the memo of the outer one and sets
    only the ceiling, for its own block.  Outside a scope every call
    builds its kernel and drops it."""
    outer = _KERNELS.get()
    token = _KERNELS.set(_KernelScope({} if outer is None else outer.memo, ceiling))
    try:
        yield
    finally:
        _KERNELS.reset(token)


def _kernel(build, weights: HomogeneousWeights, orders: tuple, *args,
            increasing: bool = False) -> TruncatedSeries:
    """``build(ring, weights, *args)`` in the ring of z1, z2, ... truncated
    at ``orders``, memoized in the open kernel scope by the builder, the
    weights (whose equality tells exact from float), the orders and
    ``args``.

    Under a ceiling c, a kernel that takes no ``args`` is built at
    max(order, c) in each variable, so one build serves every order up to
    the ceiling: ``_read_residue`` reads the wider kernel unchanged.  A
    kernel read only at strictly ``increasing`` orders, as the bottom RCP
    kernel is, can be read at no more than c - (s - j) in variable j of
    s, and is built there instead.  The memo keeps one weight triple:
    holding the kernels of a finished triple would only raise the peak
    memory of a run."""
    memo, ceiling = _KERNELS.get() or (None, None)
    if ceiling is not None and not args:
        s = len(orders)
        orders = tuple(max(order, ceiling - (s - j if increasing else 0))
                       for j, order in enumerate(orders, 1))
    key = (build, weights, orders, args)
    kernel = None if memo is None else memo.get(key)
    if kernel is None:
        ring = SeriesRing(tuple(_zvar(j) for j in range(1, len(orders) + 1)), orders)
        kernel = build(ring, weights, *args)
        if memo is not None:
            if memo and next(iter(memo))[1] != weights:
                memo.clear()
            memo[key] = kernel
    return kernel


def _factor_product(ring: SeriesRing, factors: Sequence,
                    first: TruncatedSeries | None = None,
                    centers: Mapping[str, object] | None = None) -> TruncatedSeries:
    """The product of ``first`` (a series of the ring, if given) and the
    factors, each expanded around its variables' ``centers`` (default 0),
    as a series in the variables shifted to those centers.

    Factors on the same variables are multiplied together first, and each
    such block into one whose variables contain its own (a one-variable
    factor into a pair factor), in the small rings of those variables;
    only the remaining blocks are multiplied in the ring of all of them."""
    if centers is None:
        centers = dict.fromkeys(ring.vars, 0)
    scalar, expanded = _expand_factors(factors, centers, ring)
    blocks: dict = {}
    for support, series in expanded:
        key = frozenset(support)
        held = blocks.get(key)
        blocks[key] = series if held is None else held * held.ring.embed(series)
    for key in sorted(blocks, key=len):
        host = next((k for k in blocks if key < k), None)
        if host is not None:
            block = blocks.pop(key)
            blocks[host] = blocks[host] * blocks[host].ring.embed(block)
    acc = first
    for block in blocks.values():
        acc = ring.embed(block) if acc is None else acc * ring.embed(block)
    if acc is None:
        acc = ring.one()
    return acc if scalar == 1 else acc * scalar


def _read_residue(kernel: TruncatedSeries, h: Poly, targets: Sequence[int],
                  scale=None):
    """The coefficient of z^T in kernel * h(z_1 scale, ..., z_s scale), T =
    ``targets``: the sum over the terms m of h of h[m] scale^|m|
    kernel[T - m], with no series product.

    Products are summed by |m| (all in one sum without ``scale``).  When
    the kernel, h and the scale are exact, the sums run on integer
    numerators over h's common denominator and the kernel's, and one
    division at the end gives the rational."""
    shifts = kernel.ring.packing.shifts
    nums = kernel.nums
    hden = common_denominator(h.terms.values()) if kernel.den else 0
    sums: dict = {}
    for e, c in h.aligned(kernel.ring.vars).terms.items():
        key = 0
        for target, x, shift in zip(targets, e, shifts):
            if x > target:
                break
            key |= (target - x) << shift
        else:
            k = nums.get(key)
            if k is not None:
                d = sum(e) if scale is not None else 0
                c = c.numerator * (hden // c.denominator) if hden else c
                sums[d] = sums.get(d, 0) + c * k
    if hden:   # exact weights, so the scale is exact too
        p, q = (scale.numerator, scale.denominator) if scale is not None else (1, 1)
        top = max(sums, default=0)
        total = sum(v * p ** d * q ** (top - d) for d, v in sums.items())
        return qdiv(total, hden * kernel.den * q ** top)
    total = sum(v * scale ** d if d else v for d, v in sums.items())
    return qdiv(total, kernel.den) if kernel.den > 1 else total


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


def _pair_inverse(zj: Poly, zk: Poly, t, delta) -> tuple:
    """(t^2 z_j z_k - 2 delta t z_j + 1)^(-1), the pair factor that every
    form divides by (with t = 1 in the Cauchy form's x variables)."""
    return (zj * zk * (t * t) - zj * (2 * delta * t) + 1, -1)


def _asym_kernel(ring: SeriesRing, weights: HomogeneousWeights) -> TruncatedSeries:
    """prod_j (a z_j + 1)^(s-j) / (z_j - 1)^(s-j+1) times prod_{j<k}
    (z_j - z_k) / (t^2 z_j z_k - 2 delta t z_j + 1), a = t^2 - 2 delta t."""
    t, delta = weights.t, weights.delta
    a = t * t - 2 * delta * t
    zs = [Poly.variable(v) for v in ring.vars]
    s = len(zs)
    factors: list = []
    for j, zj in enumerate(zs, 1):
        if s - j:
            factors.append((zj * a + 1, s - j))
        factors.append((zj - 1, -(s - j + 1)))
    for zj, zk in itertools.combinations(zs, 2):
        factors.append(zj - zk)
        factors.append(_pair_inverse(zj, zk, t, delta))
    return _factor_product(ring, factors)


def efp_contour_asym(n: int, r: int, s: int, weights: HomogeneousWeights):
    """EFP as an s-fold integral around 0 with a non-symmetric integrand."""
    if s == 0:
        return ONE
    if not 1 <= r <= n:
        raise PositionsOutOfRange(f"r={r} outside 1..{n}")
    kernel = _kernel(_asym_kernel, weights, (r - 1,) * s)
    value = _read_residue(kernel, sym_generating_poly(n, s, weights), (r - 1,) * s)
    return value if s % 2 == 0 else -value


def _sym_kernel(ring: SeriesRing, weights: HomogeneousWeights) -> TruncatedSeries:
    """prod_j (a z_j + 1)^(s-1) / (z_j - 1)^s times prod_{j<k} (z_k - z_j)^2
    over both orderings of the pair factor, times h(s, s)(u_1..u_s) with
    u_j = u(z_j)."""
    t, delta = weights.t, weights.delta
    a = t * t - 2 * delta * t
    zs = [Poly.variable(v) for v in ring.vars]
    s = len(zs)
    factors: list = []
    for zj in zs:
        factors.append((zj - 1, -s))
        if s > 1:
            factors.append((zj * a + 1, s - 1))
    for zj, zk in itertools.combinations(zs, 2):
        factors.append((zk - zj, 2))
        factors.append(_pair_inverse(zj, zk, t, delta))
        factors.append(_pair_inverse(zk, zj, t, delta))
    u_series = {v: u_map(ring.var(v), t, delta) for v in ring.vars}
    h_ss = _compose_poly(sym_generating_poly(s, s, weights), ring, u_series)
    return _factor_product(ring, factors, h_ss)


def efp_contour_sym(n: int, r: int, s: int, weights: HomogeneousWeights,
                    extra_order: int = 0):
    """EFP as the symmetrized s-fold integral with the s x s partition
    function and the u-transformed generating polynomial.

    ``extra_order`` > 0 reads a kernel built that many orders wider than
    the one the scope serves, apart from the memo, so that the truncation
    check never compares a kernel with itself."""
    if s == 0:
        return ONE
    if not 1 <= r <= n:
        raise PositionsOutOfRange(f"r={r} outside 1..{n}")
    kernel = _kernel(_sym_kernel, weights, (r - 1,) * s)
    if extra_order:
        wide = tuple(order + extra_order for order in kernel.ring.orders)
        kernel = _sym_kernel(SeriesRing(kernel.ring.vars, wide), weights)
    value = _read_residue(kernel, sym_generating_poly(n, s, weights), (r - 1,) * s)
    z_s = partition_function(s, weights)
    sign = -1 if (s + s * (s - 1) // 2) % 2 else 1
    pref = qdiv(z_s, weights.a ** (s * (s - 1)) * weights.c ** s)
    return qdiv(sign, math.factorial(s)) * pref * value


def _cauchy_kernel(ring: SeriesRing, weights: HomogeneousWeights) -> TruncatedSeries:
    """The Cauchy form's x-integrand without h(N, s), in the ring's
    variables as x_1..x_s: prod_j ((t - 2 delta) x_j + 1)^(s-1) /
    ((x_j - t) (t - x_j)^(s-1)) times prod_{j<k} (x_k - x_j)^2 over both
    orderings of x_j x_k - 2 delta x_j + 1, times h(s, s)(u(x_1/t)..)."""
    t, delta = weights.t, weights.delta
    xs = [Poly.variable(v) for v in ring.vars]
    s = len(xs)
    factors: list = []
    for xj in xs:
        factors.append((xj - t, -1))
        if s > 1:
            factors.append((xj * (t - 2 * delta) + 1, s - 1))
            factors.append((-xj + t, -(s - 1)))
    for xj, xk in itertools.combinations(xs, 2):
        factors.append((xk - xj, 2))
        factors.append(_pair_inverse(xj, xk, 1, delta))
        factors.append(_pair_inverse(xk, xj, 1, delta))
    u_series = {v: u_map(ring.var(v) / t, t, delta) for v in ring.vars}
    h_ss = _compose_poly(sym_generating_poly(s, s, weights), ring, u_series)
    return _factor_product(ring, factors, h_ss)


def efp_contour_cauchy(n: int, r: int, s: int, weights: HomogeneousWeights):
    """EFP in the form obtained after integrating out one variable set:
    the x-integrand carries the homogeneous-limit Cauchy-determinant
    ratio, expanded through the u-transformed generating polynomial, and
    h(N, s)(x_1/t, ..., x_s/t), whose 1/t rescaling the read folds in."""
    if s == 0:
        return ONE
    if not 1 <= r <= n:
        raise PositionsOutOfRange(f"r={r} outside 1..{n}")
    t = weights.t
    kernel = _kernel(_cauchy_kernel, weights, (r - 1,) * s)
    value = _read_residue(kernel, sym_generating_poly(n, s, weights), (r - 1,) * s,
                          scale=qdiv(1, t))
    # scalars: t^{s(r-1)} / s! from the formula, (-1)^{s(s-1)/2} from the
    # ordered pair product, (-1)^s Z_s t^{s^2} / (c^s b^{s(s-1)}) from the
    # homogeneous Cauchy ratio
    z_s = partition_function(s, weights)
    sign = -1 if (s + s * (s - 1) // 2) % 2 else 1
    pref = qdiv(z_s, weights.c ** s * weights.b ** (s * (s - 1)))
    return qdiv(sign, math.factorial(s)) * t ** (s * (r - 1) + s * s) * pref * value


def _double_kernel(ring: SeriesRing, weights: HomogeneousWeights, r: int) -> TruncatedSeries:
    """The double form's integrand without h(N, s), in the ring's variables
    as x_1..x_s, y_1..y_s (x_j = z_j around 0, y_j = z_(s+j) around 1/t):
    prod_j y_j^-(r+j-1) / (1 - x_1 y_1 ... x_j y_j) times prod_{j<k}
    (y_k - y_j) (y_j y_k - 2 delta y_k + 1) (x_k - x_j) / (x_j x_k - 2 delta
    x_j + 1).  A factor declared analytic that vanishes on a contour
    center raises PoleCollision."""
    t, delta = weights.t, weights.delta
    zs = [Poly.variable(v) for v in ring.vars]
    s = len(zs) // 2
    xs, ys = zs[:s], zs[s:]
    factors: list = []
    prod = Poly.const(ONE)
    for j, (xj, yj) in enumerate(zip(xs, ys), 1):
        factors.append((yj, -(r + j - 1)))
        prod = prod * xj * yj
        factors.append((1 - prod, -1))
    for j, k in itertools.combinations(range(s), 2):
        factors.append(ys[k] - ys[j])
        factors.append(ys[j] * ys[k] - ys[k] * (2 * delta) + 1)
        factors.append(xs[k] - xs[j])
        factors.append(_pair_inverse(xs[j], xs[k], 1, delta))
    centers = dict.fromkeys(ring.vars[:s], 0) | dict.fromkeys(ring.vars[s:], qdiv(1, t))
    try:
        return _factor_product(ring, factors, centers=centers)
    except ZeroConstantTerm as exc:
        raise PoleCollision(
            "a factor declared analytic vanishes on a contour center; "
            f"weights {weights}: {exc}") from exc


def efp_contour_double(n: int, r: int, s: int, weights: HomogeneousWeights):
    """EFP as the 2s-fold integral over both variable sets, after the
    ordered geometric summation: x-contours around 0, y-contours around
    1/t.  Intended for small s; the joint expansion cost grows quickly."""
    if s == 0:
        return ONE
    if not 1 <= r <= n:
        raise PositionsOutOfRange(f"r={r} outside 1..{n}")
    if r < s:   # the x_1 target r - s is negative, so the residue vanishes
        return 0 * ONE
    t = weights.t
    targets = tuple(r - s + j - 1 for j in range(1, s + 1)) + (s - 1,) * s
    kernel = _kernel(_double_kernel, weights, targets, r)
    value = _read_residue(kernel, sym_generating_poly(n, s, weights), targets,
                          scale=qdiv(1, t))
    return value * t ** (-s * s)


# -- the two cut partition functions ------------------------------------


def _zbot_kernel(ring: SeriesRing, weights: HomogeneousWeights) -> TruncatedSeries:
    """prod_{j<k} (z_k - z_j) / (t^2 z_j z_k - 2 delta t z_j + 1)."""
    t, delta = weights.t, weights.delta
    factors: list = []
    for zj, zk in itertools.combinations([Poly.variable(v) for v in ring.vars], 2):
        factors.append(zk - zj)
        factors.append(_pair_inverse(zj, zk, t, delta))
    return _factor_product(ring, factors)


def zbot_contour(n: int, s: int, positions: Sequence[int],
                 weights: HomogeneousWeights):
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
    t = weights.t
    targets = tuple(p - 1 for p in positions)
    kernel = _kernel(_zbot_kernel, weights, targets, increasing=True)
    value = _read_residue(kernel, sym_generating_poly(n, s, weights), targets)
    pref = partition_function(n, weights)
    pref = qdiv(pref, weights.a ** (s * (n - 1)) * weights.c ** s)
    for j in range(1, s + 1):
        pref = pref * t ** (j - positions[j - 1])
    return pref * value


def ztop_contour(n: int, s: int, positions: Sequence[int],
                 weights: HomogeneousWeights):
    """Top partition function as an s-fold integral around 1; the
    integrand is polynomial apart from the declared order-s poles."""
    if s == 0:
        return ONE
    state_from_positions(n, positions)  # validates range and ordering
    if len(positions) != s:
        raise PositionsOutOfRange(f"expected {s} positions")
    t, delta = weights.t, weights.delta
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
    value = iterated_residue(factors, specs)
    pref = weights.c ** s * weights.a ** (s * (n - 1))
    for j in range(1, s + 1):
        pref = pref * t ** (positions[j - 1] - j)
    return pref * value


# -- ordered-sum and residue-collapse identities --------------------------


def check_ordered_geometric_sum(s: int, r: int, order: int,
                                cutoff: int | None = None):
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
    return lhs.as_poly(), rhs.as_poly()


def check_symmetric_residue_collapse(s: int, phi: Poly, w):
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
    return lhs, rhs
