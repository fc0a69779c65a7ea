"""The packed multiply kernel against the tuple loops it replaced.

The three oracles below are the sparse double loops that ``Poly.__mul__``,
``TruncatedSeries.__mul__`` and ``TruncatedSeries.mul_slice`` ran before
they shared ``poly.sparse_product``, kept as the literal definition of
the product.  The kernel must give the same terms in the same key order,
with bit-identical values for mpmath coefficients.
"""

from fractions import Fraction
from operator import add, le

import mpmath
from hypothesis import example, given, settings, strategies as st

from icelab.algebra import Poly, SeriesRing, TruncatedSeries

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


# -- the oracles -------------------------------------------------------------


def oracle_poly_mul(p: Poly, q: Poly) -> Poly:
    variables = p._union_vars(q)
    a, b = p.aligned(variables), q.aligned(variables)
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


def oracle_series_mul(f: TruncatedSeries, g: TruncatedSeries) -> TruncatedSeries:
    a, b = f.terms, g.terms
    if len(a) < len(b):
        a, b = b, a
    orders = f.ring.orders
    terms = {}
    get = terms.get
    for e2, c2 in b.items():
        for e1, c1 in a.items():
            e = tuple(map(add, e1, e2))
            if not all(map(le, e, orders)):
                continue
            s = get(e, 0) + c1 * c2
            if s == 0:
                terms.pop(e, None)
            else:
                terms[e] = s
    return TruncatedSeries(f.ring, terms)


def oracle_mul_slice(f: TruncatedSeries, g: TruncatedSeries, var: str,
                     k: int) -> TruncatedSeries:
    i = f.ring.index(var)
    a_parts = {}
    for e, c in f.terms.items():
        a_parts.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
    b_parts = {}
    for e, c in g.terms.items():
        b_parts.setdefault(e[i], {})[e[:i] + e[i + 1:]] = c
    sub = f.ring.drop(var)
    orders = sub.orders
    terms = {}
    get = terms.get
    for da, pa in a_parts.items():
        pb = b_parts.get(k - da)
        if pb is None:
            continue
        if len(pa) < len(pb):
            pa, pb = pb, pa
        for e2, c2 in pb.items():
            for e1, c1 in pa.items():
                e = tuple(map(add, e1, e2))
                if not all(map(le, e, orders)):
                    continue
                s = get(e, 0) + c1 * c2
                if s == 0:
                    terms.pop(e, None)
                else:
                    terms[e] = s
    return TruncatedSeries(sub, terms)


# -- strategies ----------------------------------------------------------------

# small coefficients, so that products often cancel
INTS = st.integers(-3, 3)
FRACTIONS = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3, 4, 6, 9)))
MPFS = st.builds(lambda n, d: mpmath.mpf(n) / d,
                 st.integers(-50, 50), st.sampled_from((1, 3, 7, 10)))
COEFFICIENTS = {"int": INTS, "fraction": st.one_of(INTS, FRACTIONS), "mpf": MPFS}
KINDS = st.sampled_from(sorted(COEFFICIENTS))


@st.composite
def rings(draw):
    n = draw(st.integers(0, 3))
    return SeriesRing(tuple("abc"[:n]), draw(st.lists(st.integers(0, 4), min_size=n,
                                                      max_size=n)))


@st.composite
def series_pairs(draw):
    ring = draw(rings())
    kinds = draw(KINDS), draw(KINDS)

    def one(kind):
        keys = st.tuples(*(st.integers(0, o) for o in ring.orders))
        return TruncatedSeries(ring, draw(st.dictionaries(keys, COEFFICIENTS[kind],
                                                          max_size=12)))

    return one(kinds[0]), one(kinds[1])


@st.composite
def poly_pairs(draw):
    def one():
        variables = draw(st.lists(st.sampled_from("xyzw"), unique=True, max_size=3))
        keys = st.tuples(*(st.integers(0, 5) for _ in variables))
        kind = draw(KINDS)
        return Poly(variables, draw(st.dictionaries(keys, COEFFICIENTS[kind], max_size=8)))

    return one(), one()


def same_terms(got, want):
    """Equal keys in equal order and equal values; mpmath values are
    compared exactly, since the kernel adds in the oracle's order."""
    assert list(got.terms) == list(want.terms)
    for e, c in want.terms.items():
        assert got.terms[e] == c, (e, got.terms[e], c)
    assert all(c != 0 for c in got.terms.values())


def exact_inputs(*values):
    return all(isinstance(c, (int, Fraction)) for v in values for c in v.terms.values())


# -- properties ----------------------------------------------------------------


@SETTINGS
@given(series_pairs())
def test_series_product_matches_the_tuple_loop(pair):
    f, g = pair
    got = f * g
    same_terms(got, oracle_series_mul(f, g))
    if exact_inputs(f, g):
        assert all(type(c) in (int, Fraction) for c in got.terms.values())
        # an integral coefficient comes back as a plain int
        assert all(type(c) is int for c in got.terms.values() if c.denominator == 1)


@SETTINGS
@given(series_pairs(), st.data())
def test_mul_slice_matches_the_tuple_loop_and_the_full_product(pair, data):
    f, g = pair
    if not f.ring.vars:
        return
    var = data.draw(st.sampled_from(f.ring.vars))
    k = data.draw(st.integers(-1, f.ring.orders[f.ring.index(var)] + 1))
    got = f.mul_slice(g, var, k)
    if k <= f.ring.orders[f.ring.index(var)]:
        # above the order the tuple loop kept the slice the product truncates
        same_terms(got, oracle_mul_slice(f, g, var, k))
    assert got.ring == f.ring.drop(var)
    full = (f * g).coefficient(var, k)
    if exact_inputs(f, g):
        assert got.terms == full.terms
    else:   # the slice adds its products in another order
        for e in set(got.terms) | set(full.terms):
            assert abs(got.terms.get(e, 0) - full.terms.get(e, 0)) < 1e-12


@SETTINGS
@given(poly_pairs())
@example((Poly(("x", "y"), {(1, 0): 1, (0, 1): 1}),
          Poly(("y", "x"), {(0, 1): 1, (1, 0): -1})))
def test_poly_product_matches_the_tuple_loop(pair):
    p, q = pair
    got = p * q
    assert got.vars == oracle_poly_mul(p, q).vars
    same_terms(got, oracle_poly_mul(p, q))


def test_products_that_cancel_leave_no_terms():
    x, y = Poly.variable("x"), Poly.variable("y")
    assert ((x + y) * (x - y)).terms == {(2, 0): 1, (0, 2): -1}
    ring = SeriesRing(("x", "y"), (1, 1))
    f = ring.from_poly(x + y)
    g = ring.from_poly(x - y)
    assert (f * g).terms == {}
    assert f.mul_slice(g, "x", 1).terms == {}
    half = Fraction(1, 2)
    assert (ring.from_poly(x * half + 1) * ring.from_poly(1 - x * half)).terms == {(0, 0): 1}


def test_empty_ring_and_order_zero():
    empty = SeriesRing((), ())
    assert (empty.const(Fraction(2, 3)) * empty.const(3)).terms == {(): 2}
    ring = SeriesRing(("a", "b"), (0, 2))
    f = ring.from_poly(Poly(("a", "b"), {(0, 0): 2, (1, 0): 5, (0, 1): 1}))
    assert f.terms == {(0, 0): 2, (0, 1): 1}
    assert (f * f).terms == {(0, 0): 4, (0, 1): 4, (0, 2): 1}


def test_the_constructor_drops_terms_outside_the_box():
    ring = SeriesRing(("a",), (1,))
    assert TruncatedSeries(ring, {(0,): 1, (2,): 3, (1,): 0}).terms == {(0,): 1}
