"""Antisymmetrization identities, exact and trigonometric."""

import itertools

import mpmath
import pytest

from icelab.algebra import Poly, SeriesRing, poly_exact_div, rational as Q
from icelab.algebra.field import is_exact, rel_err
from icelab.errors import CoincidingParameters, NonzeroRemainder, PoleHit
from icelab.identities import (cauchy_kernel, cauchy_ratio,
                               cauchy_ratio_confluent,
                               cauchy_ratio_homogeneous,
                               check_asep_antisymmetrization,
                               check_confluent_det_vandermonde,
                               check_degeneration_to_asep,
                               check_double_antisymmetrization,
                               check_rational_antisymmetrization,
                               check_scaled_vandermonde_antisym,
                               check_trig_antisymmetrization,
                               check_w_matches_partition_fn,
                               double_antisym_sum, rational_sqrt,
                               vandermonde_limit)
from icelab.lattice import HomogeneousWeights
from icelab.sampling import (DeterministicRng, asep_parameters,
                             distinct_rationals, trig_parameters,
                             weight_triple)

FF = HomogeneousWeights(Q(3), Q(4), Q(5))
GEN = HomogeneousWeights(Q(2), Q(3), Q(4))


def _exact(sides) -> bool:
    lhs, rhs = sides
    return lhs == rhs


def _worst(sides) -> float:
    """The largest relative error between float sides, element by element
    when they are tuples."""
    lhs, rhs = sides
    if not isinstance(lhs, tuple):
        lhs, rhs = (lhs,), (rhs,)
    return max(rel_err(l, r) for l, r in zip(lhs, rhs, strict=True))


# -- trigonometric kernel ---------------------------------------------------


def test_trig_antisymmetrization_single_variable_is_trivial():
    sides = check_trig_antisymmetrization(
        [mpmath.mpf("0.9")], [mpmath.mpf("0.1")], mpmath.mpf("0.3"))
    assert _worst(sides) <= 1e-8
    assert abs(sides[0] - 1) < mpmath.mpf("1e-12")


def test_trig_antisymmetrization_random_draws():
    rng = DeterministicRng(101)
    for s, tol in ((2, 1e-9), (4, 1e-8), (5, 1e-8)):
        for _ in range(3):
            lams, nus, eta = trig_parameters(rng, s)
            err = _worst(check_trig_antisymmetrization(lams, nus, eta))
            assert err <= tol, (s, err)


# -- rational kernel ----------------------------------------------------------


def test_rational_antisymmetrization_single_variable():
    assert _exact(check_rational_antisymmetrization((Q(1, 2),), FF))


def test_rational_antisymmetrization_fixed_values():
    assert _exact(check_rational_antisymmetrization((Q(1, 2), Q(1, 3)), FF))


def test_rational_antisymmetrization_random():
    rng = DeterministicRng(103)
    for s in (2, 3, 4):
        for _ in range(3):
            w = weight_triple(rng)
            a = w.t * w.t - 2 * w.delta * w.t
            zs = distinct_rationals(
                rng, s, accept_each=lambda v: v != 1 and a * v + 1 != 0)
            assert _exact(check_rational_antisymmetrization(zs, w))


def test_rational_antisymmetrization_stays_exact_when_a_divides_b():
    # t = b/a = 2 is an integer here; an int t once made u an int and
    # u ** -(s-1) a float (-7.000000000000001 against -7)
    lhs, rhs = check_rational_antisymmetrization(
        (0, Q(1, 2)), HomogeneousWeights(1, 2, 3))
    assert is_exact(lhs) and is_exact(rhs)
    assert lhs == rhs == -7


def test_rational_antisymmetrization_rejects_pole():
    with pytest.raises(PoleHit):
        check_rational_antisymmetrization((Q(1), Q(1, 2)), FF)


# -- the Cauchy-like determinant ratio ---------------------------------------


def test_cauchy_kernel_and_single_pair_ratio():
    x, y, tau = Q(1, 2), Q(1, 3), Q(2, 3)
    psi = cauchy_kernel(x, y, tau)
    assert psi == 1 / ((1 - x * y) * (x + y + tau * x * y))
    assert cauchy_ratio((x,), (y,), tau) == 1 / (1 - x * y)


def test_cauchy_ratio_relabeling_invariance():
    xs, ys, tau = (Q(1, 2), Q(1, 5)), (Q(1, 3), Q(1, 7)), Q(2, 3)
    base = cauchy_ratio(xs, ys, tau)
    assert cauchy_ratio(xs[::-1], ys, tau) == base
    assert cauchy_ratio(xs, ys[::-1], tau) == base


def test_cauchy_ratio_matches_two_by_two_expansion():
    xs, ys, tau = (Q(1, 2), Q(1, 5)), (Q(1, 3), Q(1, 7)), Q(2, 3)
    pref = Q(1)
    for x in xs:
        for y in ys:
            pref *= x + y + tau * x * y
    det2 = cauchy_kernel(xs[0], ys[0], tau) * cauchy_kernel(xs[1], ys[1], tau) \
        - cauchy_kernel(xs[0], ys[1], tau) * cauchy_kernel(xs[1], ys[0], tau)
    expected = pref * det2 / ((xs[1] - xs[0]) * (ys[1] - ys[0]))
    assert cauchy_ratio(xs, ys, tau) == expected


def test_cauchy_ratio_requires_distinct_values():
    with pytest.raises(CoincidingParameters):
        cauchy_ratio((Q(1, 2), Q(1, 2)), (Q(1, 3), Q(1, 7)), Q(1))


# -- double antisymmetrization -------------------------------------------------


def test_double_antisymmetrization_single_pair():
    assert _exact(check_double_antisymmetrization((Q(1, 2),), (Q(1, 3),), Q(2, 3)))


def test_double_antisymmetrization_fixed_values():
    assert _exact(check_double_antisymmetrization(
        (Q(1, 2), Q(1, 5)), (Q(1, 3), Q(1, 7)), Q(2, 3)))


def test_double_antisymmetrization_explicit_four_terms():
    xs, ys, tau = (Q(1, 2), Q(1, 5)), (Q(1, 3), Q(1, 7)), Q(2, 3)
    total = Q(0)
    for (sx, xo) in ((1, xs), (-1, xs[::-1])):
        for (sy, yo) in ((1, ys), (-1, ys[::-1])):
            term = (xo[0] * yo[0]) / (1 - xo[0] * yo[0]) \
                / (1 - xo[0] * yo[0] * xo[1] * yo[1]) \
                * (xo[0] * xo[1] + tau * xo[1] + 1) \
                * (yo[0] * yo[1] + tau * yo[1] + 1)
            total += sx * sy * term
    assert total == double_antisym_sum(xs, ys, tau)


def test_double_antisymmetrization_random():
    rng = DeterministicRng(107)
    for s in (2, 3, 4):
        xs = distinct_rationals(rng, s)
        ys = distinct_rationals(rng, s)
        tau = rng.rational()
        assert _exact(check_double_antisymmetrization(xs, ys, tau))


def test_double_sum_is_separately_antisymmetric():
    xs, ys, tau = (Q(1, 2), Q(1, 5), Q(2, 7)), (Q(1, 3), Q(1, 7), Q(3, 8)), Q(2, 3)
    base = double_antisym_sum(xs, ys, tau)
    x_swapped = (xs[1], xs[0], xs[2])
    y_swapped = (ys[0], ys[2], ys[1])
    assert double_antisym_sum(x_swapped, ys, tau) == -base
    assert double_antisym_sum(xs, y_swapped, tau) == -base


def test_double_antisymmetrization_degree_sanity_symbolic():
    # multiplied by prod (1 - x_j y_k) * prod_j (1 - prod_{l<=j} x_l y_l),
    # both sides are the same polynomial (s = 2, tau symbolic)
    x1, x2 = Poly.variable("x1"), Poly.variable("x2")
    y1, y2 = Poly.variable("y1"), Poly.variable("y2")
    tau = Poly.variable("tau")
    xs, ys = (x1, x2), (y1, y2)
    big = (1 - x1 * y1) * (1 - x1 * y2) * (1 - x2 * y1) * (1 - x2 * y2) \
        * (1 - x1 * y1) * (1 - x1 * x2 * y1 * y2)

    lhs = Poly.zero(("x1", "x2", "y1", "y2", "tau"))
    for (sx, xo) in ((1, xs), (-1, xs[::-1])):
        for (sy, yo) in ((1, ys), (-1, ys[::-1])):
            cleared = poly_exact_div(
                big, (1 - xo[0] * yo[0]) * (1 - x1 * x2 * y1 * y2))
            term = xo[0] * yo[0] * cleared \
                * (xo[0] * xo[1] + tau * xo[1] + 1) \
                * (yo[0] * yo[1] + tau * yo[1] + 1)
            lhs = lhs + term * sx * sy

    def cross(x, y):
        return x + y + tau * x * y

    rhs = cross(x1, y2) * cross(x2, y1) \
        * poly_exact_div(big, (1 - x1 * y1) * (1 - x2 * y2)) \
        - cross(x1, y1) * cross(x2, y2) \
        * poly_exact_div(big, (1 - x1 * y2) * (1 - x2 * y1))
    assert lhs == rhs


# -- trigonometric substitution -----------------------------------------------


def test_w_matches_partition_fn_with_zeta_independence():
    rng = DeterministicRng(109)
    for s in (1, 3, 4):
        lams, nus, eta, zeta = trig_parameters(rng, s, with_zeta=True)
        sides = check_w_matches_partition_fn(
            lams, nus, eta, zeta, zeta + mpmath.mpf("0.11"))
        assert len(sides[0]) == 2
        assert _worst(sides) <= 1e-8, (s, _worst(sides))


def test_cauchy_ratio_keeps_working_precision_on_a_clustered_draw():
    # antisym draw 2 at s=4 of seed 7: three x's within 0.04 of each other
    # make det[psi] cancel by about 18 bits; unguarded, the extracted
    # partition function missed by 2.45e-11
    lams = [mpmath.mpf(v) for v in ("1.7751097858218048", "1.7888741906385903",
                                    "1.8149503892534584", "1.182199779372977")]
    nus = [mpmath.mpf(v) for v in ("0.18747555854528164", "0.23398377861880876",
                                   "-0.18886663230575537", "-0.24378839690907883")]
    eta, zeta, zeta2 = (mpmath.mpf(v) for v in (
        "0.19137197154133012", "0.24582910999836205", "0.35582910999836204"))
    with mpmath.workprec(53):
        err = _worst(check_w_matches_partition_fn(lams, nus, eta, zeta, zeta2))
    assert err < 1e-13, err


# -- homogeneous and confluent limits ------------------------------------------


def test_cauchy_homogeneous_single_variable():
    z = Q(1, 2)
    got = cauchy_ratio_homogeneous((z,), FF)
    assert got == 1 / (1 - z)
    # matches the generic ratio at x = t z, y = 1/t
    t = FF.t
    assert cauchy_ratio((t * z,), (1 / t,), -2 * FF.delta) == got


def test_cauchy_homogeneous_matches_confluent():
    rng = DeterministicRng(113)
    for w in (FF, GEN):
        for s in (2, 3):
            a = w.t * w.t - 2 * w.delta * w.t
            zs = distinct_rationals(
                rng, s, accept_each=lambda v: v != 1 and a * v + 1 != 0)
            lhs = cauchy_ratio_homogeneous(zs, w)
            rhs = cauchy_ratio_confluent(
                tuple(w.t * z for z in zs), 1 / w.t, -2 * w.delta)
            assert lhs == rhs


def test_cauchy_confluent_single_variable():
    x, y0, tau = Q(1, 2), Q(1, 3), Q(2, 3)
    assert cauchy_ratio_confluent((x,), y0, tau) == 1 / (1 - x * y0)


def test_cauchy_confluent_matches_jet_limit_of_generic_ratio():
    # y_j = y0 + e_j as jets; the generic ratio divided by the epsilon
    # Vandermonde must reproduce the confluent determinant at e -> 0
    rng = DeterministicRng(117)
    cases = [(Q(2, 3), Q(1, 3), (Q(1, 2), Q(1, 5))),
             (Q(2, 3), Q(1, 3), (Q(1, 2), Q(1, 5), Q(2, 7)))]
    while len(cases) < 7:
        s = 2 + rng.below(2)
        tau = rng.rational()
        y0 = rng.rational()
        xs = distinct_rationals(
            rng, s,
            accept_each=lambda x: 1 - x * y0 != 0 and x + y0 + tau * x * y0 != 0)
        cases.append((tau, y0, xs))
    for tau, y0, xs in cases:
        s = len(xs)
        evars = tuple(f"e{j}" for j in range(1, s + 1))
        ring = SeriesRing(evars, (s,) * s)
        ys = [ring.var(v) + y0 for v in evars]
        pref = ring.one()
        for x in xs:
            for y in ys:
                pref = pref * (y * (1 + tau * x) + x)
        matrix_det = _series_det(
            [[((1 - y * x) * (y * (1 + tau * x) + x)).invert() for y in ys]
             for x in xs], ring)
        num = (pref * matrix_det).as_poly()
        limit = vandermonde_limit(num, evars)
        vdm_x = Q(1)
        for j, k in itertools.combinations(range(s), 2):
            vdm_x *= xs[k] - xs[j]
        assert limit / vdm_x == cauchy_ratio_confluent(xs, y0, tau)


def _series_det(matrix, ring):
    total = ring.zero()
    for perm in itertools.permutations(range(len(matrix))):
        sign = 1
        for i, j in itertools.combinations(range(len(perm)), 2):
            if perm[i] > perm[j]:
                sign = -sign
        term = ring.one()
        for i, j in enumerate(perm):
            term = term * matrix[i][j]
        total = total + term * sign
    return total


def test_cauchy_confluent_asep_specialization():
    # x = t z, y0 = 1/t, tau = -t - 1/t collapses to the scaled-Vandermonde
    # constant over prod (1 - z_j)
    t = Q(1, 2)
    tau = -t - 1 / t
    for zs in ((Q(1, 3),), (Q(1, 3), Q(1, 7)), (Q(1, 3), Q(1, 7), Q(2, 5))):
        s = len(zs)
        got = cauchy_ratio_confluent(tuple(t * z for z in zs), 1 / t, tau)
        want = Q(1) / t ** (s * (s - 1))
        for j in range(1, s + 1):
            want *= (1 - t ** (2 * j)) / (1 - t * t)
        for z in zs:
            want /= 1 - z
        assert got == want


def test_vandermonde_limit_detects_divergence():
    poly = Poly(("e1", "e2"), {(0, 0): Q(1)})
    with pytest.raises(NonzeroRemainder):
        vandermonde_limit(poly, ("e1", "e2"))


# -- degenerate-parameter determinant identities ---------------------------------


def test_confluent_det_vandermonde_trivial():
    assert check_confluent_det_vandermonde(Q(2, 3), (Q(1, 2),)) == (1, 1)


def test_confluent_det_vandermonde_fixed_and_random():
    assert _exact(check_confluent_det_vandermonde(Q(2, 3), (Q(1, 2), Q(1, 5))))
    rng = DeterministicRng(127)
    for s in (3, 4, 5):
        t = rng.sample_until(rng.rational, lambda v: v != 1, "t")
        zs = distinct_rationals(rng, s, accept_each=lambda z: t * t * z != 1)
        assert _exact(check_confluent_det_vandermonde(t, zs))


def test_confluent_det_vandermonde_pole():
    with pytest.raises(PoleHit):
        check_confluent_det_vandermonde(Q(2), (Q(1, 4),))


def test_scaled_vandermonde_antisym_hand_expansion():
    t, e1, e2 = Q(2, 3), Q(1, 2), Q(1, 5)
    got, want = check_scaled_vandermonde_antisym(t, (e1, e2))
    # by hand: (e1 - t^2 e2) - (e2 - t^2 e1) = (1 + t^2)(e1 - e2)
    lhs = (e1 - t * t * e2) - (e2 - t * t * e1)
    assert got == lhs == want == (1 + t * t) * (e1 - e2)


def test_scaled_vandermonde_antisym_sizes():
    rng = DeterministicRng(131)
    for s in (1, 3, 5, 6):
        t = rng.sample_until(rng.rational, lambda v: v != 1, "t")
        eps = distinct_rationals(rng, s)
        assert _exact(check_scaled_vandermonde_antisym(t, eps))


# -- exclusion-process relation ---------------------------------------------------


def test_asep_antisymmetrization_single_variable():
    assert _exact(check_asep_antisymmetrization(Q(4, 5), (Q(1, 3),)))


def test_asep_antisymmetrization_fixed():
    assert _exact(check_asep_antisymmetrization(Q(4, 5), (Q(1, 3), Q(1, 7))))


def test_asep_antisymmetrization_sampled_sizes():
    rng = DeterministicRng(137)
    for s in (2, 3, 4, 5):
        p, zs = asep_parameters(rng, s)
        assert _exact(check_asep_antisymmetrization(p, zs))


def test_asep_antisymmetrization_guards_subset_products():
    with pytest.raises(PoleHit):
        check_asep_antisymmetrization(Q(4, 5), (Q(2, 5), Q(5, 2)))


def test_degeneration_to_asep():
    assert _exact(check_degeneration_to_asep(Q(4, 5), (Q(1, 3),)))
    assert _exact(check_degeneration_to_asep(Q(4, 5), (Q(1, 3), Q(1, 7))))
    lhs, rhs = check_degeneration_to_asep(Q(9, 13), (Q(1, 3), Q(1, 7), Q(2, 5)))
    # the scaled limit, the limit against the confluent Cauchy ratio, and
    # the two sides of the exclusion-process relation
    assert len(lhs) == len(rhs) == 3
    assert lhs == rhs


def test_degeneration_requires_square_ratio():
    with pytest.raises(ValueError):
        check_degeneration_to_asep(Q(1, 3), (Q(1, 2),))


def test_degeneration_stability_under_extra_order():
    base = check_degeneration_to_asep(Q(4, 5), (Q(1, 3), Q(1, 7)), extra_order=1)
    more = check_degeneration_to_asep(Q(4, 5), (Q(1, 3), Q(1, 7)), extra_order=3)
    assert _exact(base) and _exact(more)
    assert base == more


def _series_double_sum_oracle(xs, ys, tau, ring):
    """The (s!)^2 sum written out term by term on series: the literal
    definition that the shared kernel must reproduce coefficient by
    coefficient."""
    s = len(xs)
    total = ring.zero()
    for xo in itertools.permutations(range(s)):
        for yo in itertools.permutations(range(s)):
            sign = 1
            for perm in (xo, yo):
                for i, j in itertools.combinations(range(s), 2):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = ring.one()
            prod = ring.one()
            for j in range(s):
                x, y = xs[xo[j]], ys[yo[j]]
                prod = prod * y * x
                term = term * (y ** (s - 1 - j) * x ** (s - 1 - j))
                term = term * (1 - prod).invert()
            for j, k in itertools.combinations(range(s), 2):
                x_j, x_k, y_j, y_k = xs[xo[j]], xs[xo[k]], ys[yo[j]], ys[yo[k]]
                term = term * (x_j * x_k + tau * x_k + 1) * (y_j * y_k + tau * y_k + 1)
            total = total + term * sign
    return total


def test_double_sum_on_series_matches_term_by_term_oracle():
    t, tau = Q(2), Q(-5, 2)
    for zs in ((Q(1, 3),), (Q(1, 3), Q(1, 7)), (Q(1, 3), Q(1, 7), Q(2, 5))):
        s = len(zs)
        evars = tuple(f"e{j}" for j in range(1, s + 1))
        ring = SeriesRing(evars, (s * (s - 1) // 2 + 1,) * s)
        xs = [t * z for z in zs]
        ys = [(ring.var(v) + 1) / t for v in evars]
        got = double_antisym_sum(xs, ys, tau)
        assert got.terms == _series_double_sum_oracle(xs, ys, tau, ring).terms
        # at the series center the kernel is the scalar double sum
        assert got.constant_term() == double_antisym_sum(xs, [1 / t] * s, tau)


def test_degeneration_guards_its_center_and_repeated_points():
    # x_1 y_1 = z_1 at e = 0, so z_1 = 1 puts a pole on the series center
    with pytest.raises(PoleHit, match="series center"):
        check_degeneration_to_asep(Q(1, 5), (Q(1),))
    with pytest.raises(CoincidingParameters):
        check_degeneration_to_asep(Q(1, 5), (Q(1, 3), Q(1, 3)))


def test_rational_sqrt():
    assert rational_sqrt(Q(9, 4)) == Q(3, 2)
    assert rational_sqrt(Q(2)) is None
    assert rational_sqrt(Q(-1)) is None
