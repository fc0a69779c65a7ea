"""Antisymmetrization identities: permutation sums against determinant
evaluations.

Two families are certified here.  The trigonometric family antisymmetrizes
kernels of the weight functions and lands on the inhomogeneous partition
function determinant; it runs in the float backend.  The rational family
(the double antisymmetrization over two variable sets, its homogeneous
and confluent limits, and the exclusion-process degeneration) is closed
under rational arithmetic and is certified bit-exactly.

The trigonometric sum is taken literally, term by term in the order of
``perms.antisymmetrize``, so its float value does not change.  The exact
sums (the double antisymmetrization, the rational and scaled-Vandermonde
kernels and the exclusion-process left-hand side) are products of position,
ordered pair and prefix factors, and ``perms.subset_antisymmetrize`` takes
them over sets of placed indices instead of over orderings.

The recurring right-hand side is the normalized Cauchy-like determinant

    cauchy_ratio(x, y, tau) = prod_{j,k} (x_j + y_k + tau x_j y_k)
                              * det[ psi(x_j, y_k) ] / (V(x) V(y))

with psi(x, y) = 1 / ((1 - x y)(x + y + tau x y)); confluent y-arguments
are handled by jets, never by numerical limits.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import mpmath

from .algebra.field import ONE, is_exact, qdiv, rational
from .algebra.perms import antisymmetrize, subset_antisymmetrize, subset_products
from .algebra.poly import Poly, det, poly_exact_div, vandermonde, vandermonde_value
from .algebra.series import SeriesRing, TruncatedSeries
from .correlations import sym_generating_poly, u_map
from .errors import (CoincidingParameters, JetOrderInsufficient,
                     NonzeroRemainder, PoleHit)
from .izergin_korepin import TrigWeights, ik_inhomogeneous
from .lattice import HomogeneousWeights, partition_function
from .report import CheckReport

MAX_DOUBLE_ANTISYM = 6  # C(2s, s) subset-DP states; 6 -> 924


def rational_sqrt(value):
    """Exact square root of a rational, or None when it is not a square."""
    num, den = rational(value).numerator, rational(value).denominator
    if num < 0:
        return None
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return rational(rn, rd)
    return None


# -- trigonometric antisymmetrization -----------------------------------


def check_trig_antisymmetrization(lambdas: Sequence, nus: Sequence, eta,
                                  tolerance: float = 1e-8) -> CheckReport:
    """Antisymmetrizing the ordered a/b kernel over the lambdas equals the
    partition-function determinant times the ratio of sine products."""
    s = len(lambdas)
    w = TrigWeights(eta)

    def kernel(*ls):
        val = mpmath.mpf(1)
        for j in range(s):
            for k in range(j):
                val *= w.a(ls[j], nus[k])
            for k in range(j + 1, s):
                val *= w.b(ls[j], nus[k])
        for j in range(s):
            for k in range(j + 1, s):
                e = w.e(ls[k], ls[j])
                if e == 0:
                    raise PoleHit("e(lambda_k, lambda_j) vanishes")
                val /= e
        return val

    lhs = antisymmetrize(kernel, list(lambdas))
    rhs = ik_inhomogeneous(lambdas, nus, eta)
    # the sine-difference product is oriented d(lambda_j, lambda_k), j < k;
    # the reversed orientation fails by (-1)^{s(s-1)/2} (checked at high
    # precision against the explicit permutation sum)
    for j in range(s):
        for k in range(j + 1, s):
            rhs *= w.d(lambdas[j], lambdas[k])
    for j in range(s):
        for k in range(s):
            e = w.e(lambdas[k], lambdas[j])
            if e == 0:
                raise PoleHit("e(lambda_k, lambda_j) vanishes")
            rhs /= e
    return CheckReport.from_comparison(
        "antisym.trig_kernel_vs_determinant",
        {"s": s, "lambdas": lambdas, "nus": nus, "eta": eta},
        lhs, rhs, exact=False, tolerance=tolerance)


# -- rational antisymmetrization (the u-transformed special case) --------


def check_rational_antisymmetrization(zs: Sequence,
                                      weights: HomogeneousWeights) -> CheckReport:
    """The partially homogeneous specialization: antisymmetrizing the
    u-weighted pair kernel over the z's equals the Vandermonde times the
    s x s partition function and generating polynomial, exactly."""
    s = len(zs)
    t, delta = weights.t, weights.delta
    us = [u_map(z, t, delta) for z in zs]
    if any(u == 0 for u in us):
        raise PoleHit("u(z) = 0 (z = 1 is not admissible)")
    if len(set(us)) != s:
        raise CoincidingParameters("u values coincide")

    lhs = _rational_lhs(zs, weights)
    z_s = partition_function(s, weights)
    h_ss = sym_generating_poly(s, s, weights)
    rhs = qdiv(z_s, weights.a ** (s * (s - 1)) * weights.c ** s)
    if (s * (s - 1) // 2) % 2:
        rhs = -rhs
    rhs = rhs * vandermonde_value(zs)
    for u in us:
        rhs = rhs * u ** (-(s - 1))
    rhs = rhs * h_ss.eval({f"z{j + 1}": us[j] for j in range(s)})
    return CheckReport.from_comparison(
        "antisym.rational_kernel_vs_partition_fn",
        {"s": s, "zs": zs, "weights": (weights.a, weights.b, weights.c)},
        lhs, rhs, exact=True)


def _rational_lhs(zs: Sequence, weights: HomogeneousWeights):
    """The antisymmetrization of prod_j u(z_j)^-(s-1-j) times
    prod_{j<k} (t^2 z_j z_k - 2 delta t z_k + 1) over the z's."""
    s = len(zs)
    t, delta = weights.t, weights.delta
    us = [u_map(z, t, delta) for z in zs]
    # 1 / u^k rather than u^-k, which an int u would turn into a float
    position = [[qdiv(1, u ** (s - 1 - j)) for u in us] for j in range(s)]
    pair = [[t * t * zj * zk - 2 * delta * t * zk + 1 for zk in zs] for zj in zs]
    return subset_antisymmetrize([(position, pair)])


# -- the normalized Cauchy-like determinant ------------------------------


def cauchy_kernel(x, y, tau):
    """psi(x, y) = 1 / ((1 - x y)(x + y + tau x y))."""
    d1 = 1 - x * y
    d2 = x + y + tau * x * y
    if d1 == 0 or d2 == 0:
        raise PoleHit(f"cauchy kernel pole at ({x}, {y})")
    return qdiv(1, d1 * d2)


def cauchy_ratio(xs: Sequence, ys: Sequence, tau):
    """prod (x_j + y_k + tau x_j y_k) det[psi] / (V(x) V(y)).

    Invariant under separate relabelings of the x's and of the y's.

    For floats, det[psi] cancels down to the size of V(x) V(y) with each
    difference measured on the Riemann sphere, |p - q| / sqrt((1 + |p|^2)
    (1 + |q|^2)), so that large values count as close when their
    reciprocals are; it is evaluated with as many extra bits as that
    product is small, and the result is rounded back to the working
    precision."""
    s = len(xs)
    if len(ys) != s:
        raise ValueError("need equally many x and y values")
    if len(set(xs)) != s or len(set(ys)) != s:
        raise CoincidingParameters("cauchy_ratio needs distinct values in each set")
    den = vandermonde_value(xs) * vandermonde_value(ys)
    if is_exact(den):
        return qdiv(_cauchy_numerator(xs, ys, tau), den)
    sphere = mpmath.mpf(1)
    for v in (*xs, *ys):
        sphere *= 1 + abs(v) ** 2
    spread = abs(den) / mpmath.sqrt(sphere) ** (s - 1)
    with mpmath.extraprec(max(0, -int(mpmath.floor(mpmath.log(spread, 2))))):
        value = _cauchy_numerator(xs, ys, tau) / den
    return +value


def _cauchy_numerator(xs: Sequence, ys: Sequence, tau):
    """prod (x_j + y_k + tau x_j y_k) times det[psi(x_j, y_k)]."""
    pref = ONE
    for x in xs:
        for y in ys:
            f = x + y + tau * x * y
            if f == 0:
                raise PoleHit(f"x + y + tau x y vanishes at ({x}, {y})")
            pref = pref * f
    return pref * det([[cauchy_kernel(x, y, tau) for y in ys] for x in xs])


def double_antisym_sum(xs: Sequence, ys: Sequence, tau):
    """The raw double antisymmetrization of the ordered product kernel
    over both variable sets (no Vandermonde normalization):

        sum over sigma, rho of sign(sigma) sign(rho)
            prod_j (x_sigma(j) y_rho(j))^(s-1-j) / (1 - prod_{l<=j} x_sigma(l) y_rho(l))
            prod_{j<k} (x_sigma(j) x_sigma(k) + tau x_sigma(k) + 1)
                       (y_rho(j) y_rho(k) + tau y_rho(k) + 1).

    The values may be scalars or truncated series; a series denominator
    1 - prod x_l y_l is inverted and must not vanish at its center.  The
    denominator depends only on the two prefix sets, so the subset DP
    inverts it once per pair of equal-size sets: 19 times at s=3, where
    the term-by-term sum divided 108 times."""
    s = len(xs)
    if s > MAX_DOUBLE_ANTISYM:
        raise ValueError(f"double antisymmetrization capped at s={MAX_DOUBLE_ANTISYM}")
    x_products, y_products = subset_products(xs), subset_products(ys)

    def prefix(x_set, y_set):
        return _inverse_of_one_minus(x_products[x_set] * y_products[y_set])

    return subset_antisymmetrize(
        [_ordered_product_tables(xs, tau), _ordered_product_tables(ys, tau)], prefix)


def _ordered_product_tables(vs: Sequence, tau) -> tuple:
    """The position factors v^(s-1-j) and the pair factors u v + tau v + 1
    (u before v) of the double antisymmetrization kernel."""
    s = len(vs)
    return ([[v ** (s - 1 - j) for v in vs] for j in range(s)],
            [[u * v + tau * v + 1 for v in vs] for u in vs])


def _inverse_of_one_minus(prod):
    """1 / (1 - prod), refusing a denominator that vanishes (for a series,
    at its center)."""
    den = 1 - prod
    if isinstance(den, TruncatedSeries):
        if den.constant_term() == 0:
            raise PoleHit("1 - prod x_l y_l vanishes at the series center")
        return den.invert()
    if den == 0:
        raise PoleHit("1 - prod x_l y_l vanishes under a permutation")
    return qdiv(1, den)


def check_double_antisymmetrization(xs: Sequence, ys: Sequence, tau) -> CheckReport:
    """The double antisymmetrization identity: the (s!)^2-term sum equals
    prod (x_j + y_k + tau x_j y_k) times det[psi], exactly."""
    s = len(xs)
    _check_subset_products(xs, ys)
    lhs = double_antisym_sum(xs, ys, tau)
    rhs = _cauchy_numerator(xs, ys, tau)
    return CheckReport.from_comparison(
        "antisym.double_antisymmetrization",
        {"s": s, "xs": xs, "ys": ys, "tau": tau},
        lhs, rhs, exact=True)


def subset_products_avoid_one(xs, ys=()) -> bool:
    """True when no equal-size subset pair multiplies to 1 (without ys, no
    nonempty subset of the xs does), which is the condition for every
    permutation to meet 1 - prod_{l<=j} x_l y_l."""
    x_products = subset_products(xs)
    if not ys:
        return all(px != 1 for px in x_products[1:])
    y_by_size: dict[int, list] = {}
    for mask, py in enumerate(subset_products(ys)):
        y_by_size.setdefault(bin(mask).count("1"), []).append(py)
    return all(px * py != 1 for mask, px in enumerate(x_products) if mask
               for py in y_by_size.get(bin(mask).count("1"), ()))


def _check_subset_products(xs, ys):
    if not subset_products_avoid_one(xs, ys):
        raise PoleHit("a subset product x_S y_T equals 1")


# -- trigonometric substitution into the Cauchy ratio --------------------


def check_w_matches_partition_fn(lambdas: Sequence, nus: Sequence, eta, zeta,
                                 zeta2=None, tolerance: float = 1e-8) -> CheckReport:
    """Under the trigonometric substitution with tau = -2 cos 2 eta, the
    Cauchy ratio equals a sine prefactor times the partition function; the
    auxiliary parameter enters the prefactor only, which is verified by
    evaluating at a second value."""
    s = len(lambdas)
    w = TrigWeights(eta)
    tau = -2 * mpmath.cos(2 * eta)
    z_s = ik_inhomogeneous(lambdas, nus, eta)

    def extracted_partition_fn(z):
        xs = tuple(w.a(lam, z + eta) / w.b(lam, z + eta) for lam in lambdas)
        ys = tuple(w.a(z, nu) / w.b(z, nu) for nu in nus)
        ratio = cauchy_ratio(xs, ys, tau)
        pref = mpmath.mpf(1)
        for lam, nu in zip(lambdas, nus):
            pref *= w.b(lam, z + eta) * w.b(z, nu)
        pref /= w.c() ** (2 * s)
        for lam in lambdas:
            for nu in nus:
                b = w.b(lam, nu)
                if b == 0:
                    raise PoleHit("b(lambda, nu) vanishes")
                pref /= b
        if s % 2:
            pref = -pref
        return ratio / pref

    est = extracted_partition_fn(zeta)
    err = abs(est - z_s) / max(abs(z_s), mpmath.mpf("1e-300"))
    if zeta2 is not None:
        est2 = extracted_partition_fn(zeta2)
        err = max(err, abs(est - est2) / max(abs(est), mpmath.mpf("1e-300")))
    return CheckReport(
        check_id="antisym.cauchy_ratio_vs_partition_fn",
        params={"s": str(s), "eta": str(eta), "zeta": str(zeta),
                "zeta2": str(zeta2)},
        status="pass" if err <= tolerance else "fail",
        lhs=mpmath.nstr(est, 17), rhs=mpmath.nstr(z_s, 17),
        discrepancy="0" if err == 0 else mpmath.nstr(err, 3))


# -- homogeneous and confluent limits ------------------------------------


def cauchy_ratio_homogeneous(zs: Sequence, weights: HomogeneousWeights):
    """The Cauchy ratio at x = t z, all y = 1/t, tau = -2 delta, expressed
    through the s x s partition function and generating polynomial."""
    s = len(zs)
    t, delta = weights.t, weights.delta
    us = [u_map(z, t, delta) for z in zs]
    if any(z == 1 for z in zs) or any(u == 0 for u in us):
        raise PoleHit("z = 1 or u(z) = 0 is not admissible")
    z_s = partition_function(s, weights)
    val = qdiv(z_s, weights.c ** s * weights.b ** (s * (s - 1)))
    if s % 2:
        val = -val
    for z, u in zip(zs, us):
        val = qdiv(val, (z - 1) * u ** (s - 1))
    h_ss = sym_generating_poly(s, s, weights)
    return val * h_ss.eval({f"z{j + 1}": us[j] for j in range(s)})


def cauchy_ratio_confluent(xs: Sequence, y0, tau):
    """The Cauchy ratio with every y at the same point, via the jet
    (derivative) determinant det[ d_y^{k-1} psi(x_j, y)/(k-1)! at y0 ]."""
    s = len(xs)
    if len(set(xs)) != s:
        raise CoincidingParameters("x values must be pairwise distinct")
    ring = SeriesRing(("_e",), (s - 1,))
    y = ring.var("_e") + y0
    rows = []
    for x in xs:
        den = (1 - y * x) * (y * (1 + tau * x) + x)
        if den.constant_term() == 0:
            raise PoleHit(f"cauchy kernel pole at ({x}, {y0})")
        jet = den.invert()
        rows.append([jet.coefficient_value({"_e": k}) for k in range(s)])
    val = det(rows)
    for x in xs:
        f = x + y0 + tau * x * y0
        if f == 0:
            raise PoleHit(f"x + y + tau x y vanishes at ({x}, {y0})")
        val = val * f ** s
    return qdiv(val, vandermonde_value(xs))


def vandermonde_limit(series_poly: Poly, eps_vars: Sequence[str]):
    """limit of series_poly / V(eps) as all eps -> 0.

    The polynomial must be antisymmetric in the eps variables: components
    of total degree below deg V must vanish and the lowest surviving
    component must be a scalar multiple of the Vandermonde."""
    s = len(eps_vars)
    d = s * (s - 1) // 2
    low = Poly(series_poly.vars,
               {e: c for e, c in series_poly.terms.items() if sum(e) < d})
    if not low.is_zero():
        raise NonzeroRemainder(
            "sub-Vandermonde components do not vanish; the limit diverges")
    top = series_poly.homogeneous_component(d)
    if top.is_zero() and not series_poly.is_zero() and series_poly.total_degree() < d:
        raise JetOrderInsufficient("expansion order below the Vandermonde degree")
    quotient = poly_exact_div(top.aligned(tuple(eps_vars)),
                              vandermonde(tuple(eps_vars)))
    return quotient.constant_value()


# -- degenerate-parameter determinant identities --------------------------


def check_confluent_det_vandermonde(t, zs: Sequence) -> CheckReport:
    """The degenerate-parameter determinant is the Vandermonde times the
    product of (1 - t^{2j})/(1 - t^2), exactly."""
    s = len(zs)
    if len(set(zs)) != s:
        raise CoincidingParameters("z values must be pairwise distinct")
    matrix = []
    for z in zs:
        den = 1 - t * t * z
        if den == 0:
            raise PoleHit("1 - t^2 z vanishes")
        row = []
        for k in range(1, s + 1):
            num = z ** k - ((1 + t * t) * z - 1) ** k
            row.append((1 - z) ** (s - k) * qdiv(num, den))
        matrix.append(row)
    lhs = det(matrix)
    rhs = vandermonde_value(zs)
    for j in range(1, s + 1):
        rhs = rhs * qdiv(1 - t ** (2 * j), 1 - t * t)
    return CheckReport.from_comparison(
        "tracy-widom.confluent_det_vandermonde",
        {"s": s, "t": t, "zs": zs}, lhs, rhs, exact=True)


def check_scaled_vandermonde_antisym(t, eps: Sequence) -> CheckReport:
    """Antisymmetrizing prod_{j<k} (e_j - t^2 e_k) gives the Vandermonde
    scaled by prod (1 - t^{2j})/(1 - t^2), exactly."""
    s = len(eps)
    lhs = _scaled_vandermonde_lhs(t, eps)
    rhs = ONE
    for j, k in itertools.combinations(range(s), 2):
        rhs = rhs * (eps[j] - eps[k])
    for j in range(1, s + 1):
        rhs = rhs * qdiv(1 - t ** (2 * j), 1 - t * t)
    return CheckReport.from_comparison(
        "tracy-widom.scaled_vandermonde_antisym",
        {"s": s, "t": t, "eps": eps}, lhs, rhs, exact=True)


def _scaled_vandermonde_lhs(t, eps: Sequence):
    """The antisymmetrization of prod_{j<k} (e_j - t^2 e_k) over the e's."""
    s = len(eps)
    pair = [[ej - t * t * ek for ek in eps] for ej in eps]
    return subset_antisymmetrize([([[ONE] * s] * s, pair)])


# -- the exclusion-process relation and its derivation --------------------


def _asep_lhs(p, zs: Sequence):
    """The antisymmetrization of prod_j z_j^(s-1-j) / (1 - z_1 ... z_j)
    times prod_{j<k} (q z_j z_k - z_k + p) over the z's."""
    s = len(zs)
    q = 1 - p
    products = subset_products(zs)
    position = [[z ** (s - 1 - j) for z in zs] for j in range(s)]
    pair = [[q * zj * zk - zk + p for zk in zs] for zj in zs]

    def prefix(z_set):
        den = 1 - products[z_set]
        if den == 0:
            raise PoleHit("a partial product of z's equals 1")
        return qdiv(1, den)

    return subset_antisymmetrize([(position, pair)], prefix)


def _asep_rhs(p, zs: Sequence):
    s = len(zs)
    rhs = p ** (s * (s - 1) // 2)
    for z in zs:
        if z == 1:
            raise PoleHit("z = 1 is not admissible")
        rhs = qdiv(rhs, 1 - z)
    for j, k in itertools.combinations(range(s), 2):
        rhs = rhs * (zs[j] - zs[k])
    return rhs


def check_asep_antisymmetrization(p, zs: Sequence) -> CheckReport:
    """The exclusion-process antisymmetrization relation with rates p and
    q = 1 - p, exactly (all partial products of z's must avoid 1)."""
    s = len(zs)
    if not subset_products_avoid_one(zs):
        raise PoleHit("a subset product of z's equals 1")
    lhs = _asep_lhs(p, zs)
    rhs = _asep_rhs(p, zs)
    return CheckReport.from_comparison(
        "tracy-widom.asep_antisymmetrization",
        {"s": s, "p": p, "zs": zs}, lhs, rhs, exact=True)


def check_degeneration_to_asep(p, zs: Sequence,
                               extra_order: int = 1) -> CheckReport:
    """Degenerate the double antisymmetrization at x = t z, y = (1+e)/t,
    tau = -t - 1/t (so t^2 + tau t + 1 = 0), divide by the e-Vandermonde,
    and take e -> 0 by jets: the limit must reproduce both sides of the
    exclusion-process relation up to the scaled-Vandermonde constant, and
    equal the confluent Cauchy ratio directly.  Exact throughout; requires
    q/p to be the square of a rational."""
    s = len(zs)
    q = 1 - p
    t = rational_sqrt(qdiv(q, p))
    if t is None:
        raise ValueError("q/p must be the square of a rational")
    tau = -t - qdiv(1, t)
    if t * t + tau * t + 1 != 0:
        raise ValueError("t^2 + tau t + 1 = 0 violated")

    d = s * (s - 1) // 2
    order = d + extra_order
    evars = tuple(f"e{j}" for j in range(1, s + 1))
    ring = SeriesRing(evars, (order,) * s)
    xs = [t * z for z in zs]
    ys = [(ring.var(v) + 1) * qdiv(1, t) for v in evars]
    total = double_antisym_sum(xs, ys, tau)
    # the limit is normalized by prod_{j<k} (e_j - e_k); vandermonde_limit
    # divides by the reversed orientation
    limit = vandermonde_limit(total.as_poly(), evars)
    if (s * (s - 1) // 2) % 2:
        limit = -limit

    # the limit equals the confluent Cauchy ratio times V(z) reversed
    confluent = cauchy_ratio_confluent(xs, qdiv(1, t), tau)
    v_rev = ONE
    for j, k in itertools.combinations(range(s), 2):
        v_rev = v_rev * (zs[j] - zs[k])
    ok_confluent = limit == confluent * v_rev

    # and, scaled by p^{s(s-1)/2} over the Vandermonde constant, both
    # sides of the exclusion-process relation
    factor = qdiv(1, t ** (s * (s - 1)))
    for j in range(1, s + 1):
        factor = factor * qdiv(1 - t ** (2 * j), 1 - t * t)
    scaled = qdiv(limit * p ** (s * (s - 1) // 2), factor)
    lhs_tw = _asep_lhs(p, zs)
    rhs_tw = _asep_rhs(p, zs)
    ok = ok_confluent and scaled == lhs_tw and lhs_tw == rhs_tw
    return CheckReport(
        check_id="tracy-widom.double_antisym_degeneration",
        params={"s": str(s), "p": str(p), "zs": str(tuple(map(str, zs))),
                "confluent_consistent": str(ok_confluent)},
        status="pass" if ok else "fail",
        lhs=str(scaled), rhs=str(lhs_tw),
        discrepancy="0" if ok else str(scaled - lhs_tw))
