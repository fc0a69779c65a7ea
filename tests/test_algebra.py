"""Field, polynomial, series, and permutation layer."""

import math

import mpmath
import pytest

from icelab.algebra import (Poly, SeriesRing, antisymmetrize, det, jet_derivative,
                            parity, poly_exact_div, rational, series_sin,
                            vandermonde, vandermonde_value)
from icelab.errors import NonzeroRemainder, ZeroConstantTerm
from icelab.sampling import DeterministicRng
from test_helper_oracles import signed_permutations

Q = rational


def rand_q(rng):
    num = rng.below(200) - 100
    den = 1 + rng.below(100)
    return Q(num, den)


def test_field_axioms_hold_on_random_rationals():
    rng = DeterministicRng(1)
    for _ in range(1000):
        a, b, c = rand_q(rng), rand_q(rng), rand_q(rng)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        if b != 0:
            assert (a / b) * b == a


def test_rational_normalization():
    x = Q(4, 8)
    assert x.numerator == 1 and x.denominator == 2
    assert Q(3, -6).denominator > 0


# -- polynomials -------------------------------------------------------


def test_poly_basic_arithmetic():
    x, y = Poly.variable("x"), Poly.variable("y")
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert (x + 1) ** 3 == x**3 + 3 * x**2 + 3 * x + 1


def test_poly_integer_inputs_keep_int_coefficients():
    # a rational seed would turn every coefficient of an integer
    # polynomial recursion into a rational and slow it severalfold
    x, y = Poly.variable("x"), Poly.variable("y")
    for p in (x, x**0, (x - 1) ** 0, Poly.const(3, ("x",)) ** 0,
              (x - 1) ** 3, (2 * x + y - 5) ** 4, x * y**2):
        assert p.terms
        assert all(type(c) is int for c in p.terms.values()), p
    assert (x - 1) ** 0 == 1


def test_exact_division_difference_of_squares():
    x, y = Poly.variable("x"), Poly.variable("y")
    assert poly_exact_div(x * x - y * y, x - y) == x + y


def test_exact_division_two_by_two_vandermonde():
    z1, z2 = Poly.variable("z1"), Poly.variable("z2")
    assert poly_exact_div(vandermonde(("z1", "z2")), z2 - z1) == 1
    assert poly_exact_div(vandermonde(("z1", "z2")) * (z1 + z2), z2 - z1) \
        == z1 + z2


def test_exact_division_remainder_raises():
    x = Poly.variable("x")
    with pytest.raises(NonzeroRemainder):
        poly_exact_div(x * x + 1, x - 1)


def test_poly_shift_and_scale():
    x = Poly.variable("x")
    p = x**2
    assert p.shift({"x": Q(1)}) == x**2 + 2 * x + 1
    assert p.scale_var("x", Q(3)) == 9 * x**2


def test_det_examples():
    assert det([[Q(1)]]) == 1
    z = Q(2, 3)
    assert det([[Q(1), z], [z, Q(1)]]) == 1 - z * z
    pts = (Q(1, 2), Q(2), Q(-1, 3))
    assert det([[x ** k for k in range(3)] for x in pts]) == vandermonde_value(pts)


def test_det_equal_rows_is_zero():
    assert det([[Q(2), Q(3)], [Q(2), Q(3)]]) == 0
    assert det([[mpmath.mpf(2), mpmath.mpf(3)], [mpmath.mpf(2), mpmath.mpf(3)]]) == 0


def test_det_matches_cofactor_expansion():
    rng = DeterministicRng(7)
    for _ in range(20):
        entries = [[rand_q(rng) for _ in range(3)] for _ in range(3)]
        by_cofactor = (
            entries[0][0] * (entries[1][1] * entries[2][2] - entries[1][2] * entries[2][1])
            - entries[0][1] * (entries[1][0] * entries[2][2] - entries[1][2] * entries[2][0])
            + entries[0][2] * (entries[1][0] * entries[2][1] - entries[1][1] * entries[2][0]))
        assert det(entries) == by_cofactor


def test_float_det_pivots():
    matrix = [[mpmath.mpf(0), mpmath.mpf(1)], [mpmath.mpf(1), mpmath.mpf(0)]]
    assert det(matrix) == -1


# -- truncated series ---------------------------------------------------


def test_series_geometric_inverse():
    ring = SeriesRing(("z",), (3,))
    inv = (1 - ring.var("z")).invert()
    assert inv.as_poly() == sum(Poly.variable("z") ** k for k in range(4))


def test_series_constant_inverse():
    ring = SeriesRing(("z",), (2,))
    assert ring.const(Q(2)).invert().constant_term() == Q(1, 2)


def test_series_zero_constant_term_raises():
    ring = SeriesRing(("z",), (2,))
    with pytest.raises(ZeroConstantTerm):
        ring.var("z").invert()


def test_series_invert_multiply_back():
    rng = DeterministicRng(11)
    ring = SeriesRing(("z", "w"), (3, 3))
    for _ in range(100):
        terms = {(i, j): rand_q(rng) for i in range(3) for j in range(3)
                 if rng.below(2)}
        terms[(0, 0)] = Q(1 + rng.below(5))
        f = ring.from_poly(Poly(("z", "w"), terms))
        assert (f * f.invert()).as_poly() == 1
        assert (f.invert() * f).as_poly() == 1


def test_series_two_variable_weight_factor_inverse():
    # 1 - 2*delta*t*z + t^2*z*w at truncation (2, 2), multiplied back
    t, delta = Q(4, 3), Q(0)
    ring = SeriesRing(("z", "w"), (2, 2))
    z, w = Poly.variable("z"), Poly.variable("w")
    f = ring.from_poly(1 - 2 * delta * t * z + t * t * z * w)
    assert (f * f.invert()).as_poly() == 1


def test_series_mul_slice_matches_full_product():
    rng = DeterministicRng(23)
    ring = SeriesRing(("a", "b"), (4, 4))
    for _ in range(20):
        f = ring.from_poly(Poly(("a", "b"),
                                {(rng.below(4), rng.below(4)): rand_q(rng)
                                 for _ in range(5)}))
        g = ring.from_poly(Poly(("a", "b"),
                                {(rng.below(4), rng.below(4)): rand_q(rng)
                                 for _ in range(5)}))
        k = rng.below(5)
        assert f.mul_slice(g, "a", k).terms == (f * g).coefficient("a", k).terms


# -- jets ----------------------------------------------------------------


def jet_variable(center, order: int):
    """The univariate jet ``center + _jet`` truncated at ``order``."""
    return SeriesRing(("_jet",), (order,)).var("_jet") + center


def test_sin_jet_matches_closed_form():
    jet = series_sin(jet_variable(mpmath.mpf(0), 9))
    for k in range(10):
        coeff = jet.coefficient_value({"_jet": k})
        if k % 2 == 0:
            assert coeff == 0
        else:
            expected = mpmath.mpf((-1) ** (k // 2)) / math.factorial(k)
            assert abs(coeff - expected) < mpmath.mpf("1e-15")


def test_order_zero_jet_is_plain_evaluation():
    eta, lam = mpmath.mpf("0.25") * mpmath.pi, mpmath.pi / 3
    x = jet_variable(lam, 0)
    jet = (series_sin(x + eta) * series_sin(x - eta)).invert() * mpmath.sin(2 * eta)
    direct = mpmath.sin(2 * eta) / (mpmath.sin(lam + eta) * mpmath.sin(lam - eta))
    assert abs(jet.constant_term() - direct) < mpmath.mpf("1e-15")


def test_first_derivative_matches_finite_difference():
    eta, lam = mpmath.mpf("0.3"), mpmath.mpf("0.7")

    def phi_of(x):
        return mpmath.sin(2 * eta) / (mpmath.sin(x + eta) * mpmath.sin(x - eta))

    x = jet_variable(lam, 1)
    jet = (series_sin(x + eta) * series_sin(x - eta)).invert() * mpmath.sin(2 * eta)
    h = mpmath.mpf("1e-6")
    fd = (phi_of(lam + h) - phi_of(lam - h)) / (2 * h)
    exact = jet_derivative(jet, 1)
    assert abs(exact - fd) / abs(exact) < mpmath.mpf("1e-7")


def test_jet_pole_at_center_raises():
    with pytest.raises(ZeroConstantTerm):
        series_sin(jet_variable(mpmath.mpf(0), 3)).invert()


# -- permutations and the antisymmetrizer --------------------------------


def test_signed_permutations_count_and_parity():
    # the oracle stream counts inversions itself; parity must agree
    perms = signed_permutations(4)
    assert len(perms) == 24
    assert sum(p.sign for p in perms) == 0
    for p in perms:
        assert p.sign == parity(p.images)


def test_antisymmetrize_first_variable():
    z1, z2 = Poly.variable("z1"), Poly.variable("z2")
    assert antisymmetrize(lambda a, b: a, [z1, z2]) == z1 - z2


def test_antisymmetrize_kills_symmetric_kernel():
    z1, z2 = Poly.variable("z1"), Poly.variable("z2")
    assert antisymmetrize(lambda a, b: Poly.const(Q(1)), [z1, z2]).is_zero()
    assert antisymmetrize(lambda a, b: a * b, [z1, z2]).is_zero()


def test_antisymmetrize_monomial_matches_brute_force():
    values = [Poly.variable(v) for v in ("z1", "z2", "z3")]
    got = antisymmetrize(lambda a, b, c: a * a * b, values)
    import itertools
    brute = Poly.zero(("z1", "z2", "z3"))
    for images in itertools.permutations(range(3)):
        term = values[images[0]] * values[images[0]] * values[images[1]]
        brute = brute + term * parity(images)
    assert got == brute
    # strictly decreasing exponents antisymmetrize to +- the Vandermonde
    assert got == vandermonde(("z1", "z2", "z3")) or \
        got == -vandermonde(("z1", "z2", "z3"))


def test_antisymmetrize_transposed_kernel_flips_sign():
    rng = DeterministicRng(3)
    for s in (2, 3, 5):
        values = [rand_q(rng) for _ in range(s)]
        while len(set(values)) != s:
            values = [rand_q(rng) for _ in range(s)]

        def f(*args):
            total = Q(0)
            for j, a in enumerate(args):
                total += a ** (j + 1)
            return total

        def f_swapped(*args):
            swapped = (args[1], args[0]) + args[2:]
            return f(*swapped)

        assert antisymmetrize(f, values) == -antisymmetrize(f_swapped, values)


def test_antisymmetrize_size_cap():
    with pytest.raises(ValueError):
        antisymmetrize(lambda *a: Q(1), list(range(8)))


def test_vandermonde_value_matches_poly():
    pts = (Q(1, 2), Q(2), Q(-1, 3))
    poly = vandermonde(("a", "b", "c"))
    assert poly.eval({"a": pts[0], "b": pts[1], "c": pts[2]}) \
        == vandermonde_value(pts)
