"""The packed series operations against the tuple-keyed loops they replaced.

A ``TruncatedSeries`` keeps its terms by packed key, as integer
numerators over one denominator when exact.  The oracles below are the
tuple-keyed loops that ``__add__``, ``__neg__``, scalar ``__mul__``,
``invert``, ``coefficient``, ``from_poly`` and the residue engine's
embedding ran on exponent tuples and stored coefficients.  Every
operation must give the oracle's terms in the oracle's key order, with
equal values of the same type (an integral exact value is an int) and
bit-identical mpmath values, and must leave its result normalised: an
exact series has int numerators whose gcd with ``den`` is 1, and a
generic one holds some value that is not an int or a Fraction.
"""

import math
from fractions import Fraction
from operator import le

import mpmath
import pytest
from hypothesis import given, strategies as st

from icelab.algebra import Poly, SeriesRing, TruncatedSeries
from icelab.algebra.field import ONE, ZERO, qdiv
from test_multiply_kernel import (COEFFICIENTS, INTS, KINDS, MPFS, SETTINGS,
                                  FRACTIONS, oracle_series_mul, rings, series_pairs)

EXACT = (int, Fraction)


# -- the oracles: tuple-keyed loops on {exponent tuple: coefficient} --------


def oracle_add(a: dict, b: dict) -> dict:
    terms = dict(a)
    for e, c in b.items():
        s = terms.get(e, 0) + c
        if s == 0:
            terms.pop(e, None)
        else:
            terms[e] = s
    return terms


def oracle_neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def oracle_scale(a: dict, x) -> dict:
    if x == 0:
        return {}
    return {e: c * x for e, c in a.items() if c * x != 0}


def oracle_mul(ring: SeriesRing, a: dict, b: dict) -> dict:
    return oracle_series_mul(TruncatedSeries(ring, a), TruncatedSeries(ring, b)).terms


def oracle_invert(ring: SeriesRing, a: dict) -> dict:
    zero = (0,) * len(ring.vars)
    c = a.get(zero, ZERO)
    inv_c = qdiv(1, c)
    tail = oracle_add(a, {zero: -c})
    if not tail:
        return {zero: inv_c}
    g = oracle_scale(tail, -inv_c)
    acc, p = {zero: ONE}, {zero: ONE}
    for _ in range(sum(ring.orders)):
        p = oracle_mul(ring, p, g)
        if not p:
            break
        acc = oracle_add(acc, p)
    return oracle_scale(acc, inv_c)


def oracle_coefficient(ring: SeriesRing, a: dict, var: str, k: int) -> dict:
    i = ring.index(var)
    return {e[:i] + e[i + 1:]: c for e, c in a.items() if e[i] == k}


def oracle_from_poly(ring: SeriesRing, poly: Poly) -> dict:
    pos = [ring.index(v) for v in poly.vars]
    terms = {}
    for e, c in poly.terms.items():
        new = [0] * len(ring.vars)
        if all(ei <= ring.orders[i] for i, ei in zip(pos, e)):
            for i, ei in zip(pos, e):
                new[i] = ei
            terms[tuple(new)] = c
    return terms


def oracle_embed(series: TruncatedSeries, ring: SeriesRing) -> dict:
    pos = [ring.index(v) for v in series.ring.vars]
    terms = {}
    for e, c in series.terms.items():
        new = [0] * len(ring.vars)
        for i, ei in zip(pos, e):
            new[i] = ei
        if all(map(le, new, ring.orders)):
            terms[tuple(new)] = c
    return terms


# -- checks ----------------------------------------------------------------------


def canonical(c):
    """An exact value as the packed form reports it: ints when integral."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def assert_normalised(f: TruncatedSeries):
    if f.den:
        assert f.den >= 1
        assert all(type(n) is int and n != 0 for n in f.nums.values())
        assert math.gcd(f.den, *f.nums.values()) == 1
    else:
        assert not {type(c) for c in f.nums.values()} <= set(EXACT)
        assert all(c != 0 for c in f.nums.values())


def same_as_oracle(got: TruncatedSeries, want: dict):
    """Equal keys in equal order, equal values of the same type."""
    assert_normalised(got)
    terms = got.terms
    assert list(terms) == list(want)
    for e, c in want.items():
        c = canonical(c)
        assert terms[e] == c and type(terms[e]) is type(c), (e, terms[e], c)


# -- strategies --------------------------------------------------------------------

SCALARS = st.one_of(INTS, FRACTIONS, MPFS)


@st.composite
def series(draw, ring=None):
    ring = draw(rings()) if ring is None else ring
    keys = st.tuples(*(st.integers(0, o) for o in ring.orders))
    kind = draw(KINDS)
    return TruncatedSeries(ring, draw(st.dictionaries(keys, COEFFICIENTS[kind], max_size=12)))


# -- properties ----------------------------------------------------------------------


@SETTINGS
@given(series_pairs())
def test_sum_difference_and_negation_match_the_tuple_loops(pair):
    f, g = pair
    same_as_oracle(f + g, oracle_add(f.terms, g.terms))
    same_as_oracle(-f, oracle_neg(f.terms))
    same_as_oracle(f - g, oracle_add(f.terms, oracle_neg(g.terms)))
    same_as_oracle(f + 0, f.terms)


@SETTINGS
@given(series(), SCALARS)
def test_scalar_multiples_match_the_tuple_loop(f, x):
    same_as_oracle(f * x, oracle_scale(f.terms, x))
    same_as_oracle(x * f, oracle_scale(f.terms, x))


@SETTINGS
@given(series(), st.one_of(INTS, FRACTIONS, MPFS).filter(bool))
def test_inverse_matches_the_geometric_loop(f, c):
    zero = (0,) * len(f.ring.vars)
    f = f - f.constant_term() + c   # a nonzero constant term
    same_as_oracle(f.invert(), oracle_invert(f.ring, f.terms))
    if f.den:
        assert (f * f.invert()).terms == {zero: 1}


@SETTINGS
@given(series(), st.data())
def test_coefficient_matches_the_tuple_loop(f, data):
    if not f.ring.vars:
        return
    var = data.draw(st.sampled_from(f.ring.vars))
    k = data.draw(st.integers(-1, f.ring.orders[f.ring.index(var)] + 1))
    got = f.coefficient(var, k)
    assert got.ring == f.ring.drop(var)
    same_as_oracle(got, oracle_coefficient(f.ring, f.terms, var, k))
    assert got.constant_term() == f.coefficient_value({var: k})


@SETTINGS
@given(series_pairs(), st.data())
def test_mul_slice_leaves_its_result_normalised(pair, data):
    f, g = pair
    if not f.ring.vars:
        return
    var = data.draw(st.sampled_from(f.ring.vars))
    k = data.draw(st.integers(0, f.ring.orders[f.ring.index(var)]))
    assert_normalised(f.mul_slice(g, var, k))
    assert_normalised(f * g)


@SETTINGS
@given(rings(), st.data())
def test_from_poly_matches_the_tuple_loop(ring, data):
    variables = data.draw(st.permutations(ring.vars))
    variables = variables[:data.draw(st.integers(0, len(variables)))]
    keys = st.tuples(*(st.integers(0, 5) for _ in variables))
    kind = data.draw(KINDS)
    poly = Poly(variables, data.draw(st.dictionaries(keys, COEFFICIENTS[kind], max_size=8)))
    same_as_oracle(ring.from_poly(poly), oracle_from_poly(ring, poly))


@SETTINGS
@given(rings(), st.data())
def test_embed_matches_the_tuple_loop(ring, data):
    variables = data.draw(st.permutations(ring.vars))
    variables = variables[:data.draw(st.integers(0, len(variables)))]
    orders = data.draw(st.lists(st.integers(0, 5), min_size=len(variables),
                                max_size=len(variables)))
    f = data.draw(series(SeriesRing(variables, orders)))
    got = ring.embed(f)
    assert got.ring == ring
    same_as_oracle(got, oracle_embed(f, ring))
    assert ring.embed(got) is got


def test_constants_and_boundary_values():
    ring = SeriesRing(("a", "b"), (2, 1))
    half = ring.const(Fraction(1, 2))
    assert (half.nums, half.den) == ({0: 1}, 2)
    assert (half * 4).nums == {0: 2} and (half * 4).den == 1
    assert ring.zero().den == 1 and ring.one().terms == {(0, 0): 1}
    f = ring.var("a") * Fraction(2, 3) + half
    assert f.constant_term() == Fraction(1, 2)
    assert type(f.coefficient_value({"a": 1})) is Fraction
    assert f.coefficient_value({"a": 3}) == 0 and f.coefficient_value({"b": 1}) == 0
    assert f.support() == ("a",) and ring.one().support() == ()
    # a float that cancels leaves an exact series behind
    g = ring.var("b") + mpmath.mpf("0.25")
    assert g.den == 0
    assert (g - mpmath.mpf("0.25")).den == 1


def test_variables_a_term_never_holds_need_no_field():
    ring = SeriesRing(("a", "b"), (2, 2))
    p = Poly(("c", "a"), {(0, 1): 2, (0, 0): 1})
    assert ring.from_poly(p).terms == {(1, 0): 2, (0, 0): 1}
    with pytest.raises(ValueError):
        ring.from_poly(Poly(("c",), {(1,): 1}))
    wide = SeriesRing(("a", "c", "b"), (2, 2, 2))
    assert ring.embed(wide.from_poly(p)).terms == {(1, 0): 2, (0, 0): 1}
    with pytest.raises(ValueError):
        ring.embed(wide.var("c"))
