"""The subset-DP antisymmetrizer against the permutation sums it replaced.

``perms.subset_antisymmetrize`` takes the exact permutation sums of
``identities`` over sets of placed indices instead of over orderings.  The
oracles below are the loops those sums ran before: the literal double loop
of ``double_antisym_sum`` over (s!)^2 permutation pairs, and the
exclusion-process, rational and scaled-Vandermonde kernels summed term by
term by ``perms.antisymmetrize``.  Every sum must equal its oracle with a
value of the same type, and where the oracle meets a pole the sum must
raise the same exception class.  A series sum must hold the oracle's
terms, with equal values of the same type and the same packed
denominator; its keys are compared in sorted order, because the insertion
order of a sum's keys follows its summation order, which no caller reads.
"""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from icelab import cli, identities
from icelab.algebra import SeriesRing, TruncatedSeries
from icelab.algebra.field import ONE, is_exact, qdiv
from icelab.algebra.perms import (antisymmetrize, subset_antisymmetrize,
                                  subset_products)
from icelab.correlations import u_map
from icelab.errors import IcelabError, PoleHit
from icelab.lattice import HomogeneousWeights
from test_helper_oracles import signed_permutations
from test_multiply_kernel import FRACTIONS, INTS, SETTINGS

VALUES = {"int": INTS, "fraction": st.one_of(INTS, FRACTIONS)}
KINDS = st.sampled_from(sorted(VALUES))
NONZERO = st.one_of(INTS, FRACTIONS).filter(lambda v: v != 0)
# the literal double loop on series costs about 0.2 s at s=3
SERIES_SETTINGS = settings(SETTINGS, max_examples=25)


# -- the oracles: the permutation sums as they were ---------------------------


def oracle_double_antisym_sum(xs, ys, tau):
    s = len(xs)
    perms = signed_permutations(s)
    px = [[xs[j] * xs[k] + tau * xs[k] + 1 for k in range(s)] for j in range(s)]
    py = [[ys[j] * ys[k] + tau * ys[k] + 1 for k in range(s)] for j in range(s)]
    total = None
    for sigma in perms:
        xo = sigma.apply(xs)
        for rho in perms:
            yo = rho.apply(ys)
            term = ONE
            prod = ONE
            for j in range(s):
                prod = prod * xo[j] * yo[j]
                term = term * (xo[j] * yo[j]) ** (s - 1 - j)
                term = oracle_divide_by_one_minus(term, prod)
            for j in range(s):
                for k in range(j + 1, s):
                    term = term * px[sigma.images[j] - 1][sigma.images[k] - 1]
                    term = term * py[rho.images[j] - 1][rho.images[k] - 1]
            if sigma.sign * rho.sign < 0:
                term = -term
            total = term if total is None else total + term
    return total


def oracle_divide_by_one_minus(term, prod):
    den = 1 - prod
    if isinstance(den, TruncatedSeries):
        if den.constant_term() == 0:
            raise PoleHit("1 - prod x_l y_l vanishes at the series center")
        return term * den.invert()
    if den == 0:
        raise PoleHit("1 - prod x_l y_l vanishes under a permutation")
    return qdiv(term, den) if is_exact(den) else term / den


def oracle_asep_lhs(p, zs):
    s = len(zs)
    q = 1 - p

    def kernel(*zt):
        val = ONE
        prod = ONE
        for j in range(s):
            prod = prod * zt[j]
            den = 1 - prod
            if den == 0:
                raise PoleHit("a partial product of z's equals 1")
            val = val * zt[j] ** (s - 1 - j)
            val = qdiv(val, den)
        for j in range(s):
            for k in range(j + 1, s):
                val = val * (q * zt[j] * zt[k] - zt[k] + p)
        return val

    return antisymmetrize(kernel, list(zs))


def oracle_rational_lhs(zs, weights):
    s = len(zs)
    t, delta = weights.t, weights.delta

    def kernel(*zt):
        val = ONE
        for j in range(s):
            uj = u_map(zt[j], t, delta)
            val = val * uj ** (-(s - 1 - j))
        for j in range(s):
            for k in range(j + 1, s):
                val = val * (t * t * zt[j] * zt[k] - 2 * delta * t * zt[k] + 1)
        return val

    return antisymmetrize(kernel, list(zs))


def oracle_scaled_vandermonde_lhs(t, eps):
    s = len(eps)

    def kernel(*es):
        val = ONE
        for j in range(s):
            for k in range(j + 1, s):
                val = val * (es[j] - t * t * es[k])
        return val

    return antisymmetrize(kernel, list(eps))


def literal_subset_sum(tables, prefix):
    """The definition of ``subset_antisymmetrize``: one signed ordering per
    set, every factor multiplied in term by term."""
    s = len(tables[0][0])
    total = None
    for perms in itertools.product(signed_permutations(s), repeat=len(tables)):
        orders = [[i - 1 for i in perm.images] for perm in perms]
        term = ONE
        for (position, pair), order in zip(tables, orders):
            for j, v in enumerate(order):
                term = term * position[j][v]
                for u in order[:j]:
                    term = term * pair[u][v]
        if prefix is not None:
            for j in range(s):
                term = term * prefix(*(sum(1 << v for v in order[:j + 1])
                                       for order in orders))
        for perm in perms:
            term = term * perm.sign
        total = term if total is None else total + term
    return total


# -- comparing outcomes --------------------------------------------------------


def outcome(fn, *args):
    """("value", the result) or ("raises", the exception class)."""
    try:
        return "value", fn(*args)
    except (ArithmeticError, IcelabError) as exc:
        return "raises", type(exc)


def assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "raises":
        assert got[1] is want[1]
        return
    g, w = got[1], want[1]
    assert type(g) is type(w)
    if isinstance(w, TruncatedSeries):
        assert g.ring == w.ring and g.den == w.den
        assert sorted(g.terms) == sorted(w.terms)
        for key, value in w.terms.items():
            assert g.terms[key] == value and type(g.terms[key]) is type(value)
    else:
        assert g == w


@st.composite
def value_lists(draw, s_max):
    """(kind, s, values): s values of one kind, with s in 0..s_max."""
    kind = draw(KINDS)
    s = draw(st.integers(0, s_max))
    return kind, s, draw(st.lists(VALUES[kind], min_size=s, max_size=s))


# -- the kernel against its definition ------------------------------------------


@SETTINGS
@given(st.data())
def test_kernel_matches_its_definition(data):
    sets = data.draw(st.integers(1, 2))
    s = data.draw(st.integers(0, 4 if sets == 2 else 5))
    values = VALUES[data.draw(KINDS)]
    square = st.lists(st.lists(values, min_size=s, max_size=s), min_size=s, max_size=s)
    tables = [(data.draw(square), data.draw(square)) for _ in range(sets)]
    prefix = None
    if data.draw(st.booleans()):
        states = itertools.product(range(2 ** s), repeat=sets)
        factors = {masks: data.draw(values) for masks in states}

        def prefix(*masks):
            return factors[masks]
    assert_same(outcome(subset_antisymmetrize, tables, prefix),
                outcome(literal_subset_sum, tables, prefix))


@SETTINGS
@given(value_lists(6))
def test_subset_products(drawn):
    _, s, values = drawn
    products = subset_products(values)
    assert len(products) == 2 ** s
    for mask, product in enumerate(products):
        want = ONE
        for v in range(s):
            if mask >> v & 1:
                want = want * values[v]
        assert product == want and type(product) is type(want)


# -- the four permutation sums against the loops they replaced --------------------


@SETTINGS
@given(value_lists(4), st.data())
def test_double_sum_matches_the_double_loop(drawn, data):
    kind, s, xs = drawn
    ys = data.draw(st.lists(VALUES[kind], min_size=s, max_size=s))
    tau = data.draw(VALUES[kind])
    assert_same(outcome(identities.double_antisym_sum, xs, ys, tau),
                outcome(oracle_double_antisym_sum, xs, ys, tau))


def degeneration_ring(s):
    """The ring of the degeneration check: e_1..e_s to order s(s-1)/2 + 1."""
    evars = tuple(f"e{j}" for j in range(1, s + 1))
    return SeriesRing(evars, (s * (s - 1) // 2 + 1,) * s)


@SERIES_SETTINGS
@given(st.integers(1, 3), st.data())
def test_double_sum_on_series_matches_the_double_loop(s, data):
    """ys = c_j + d_j e_j in the degeneration's ring."""
    ring = degeneration_ring(s)
    values = VALUES[data.draw(KINDS)]
    xs = data.draw(st.lists(values, min_size=s, max_size=s))
    tau = data.draw(values)
    ys = [ring.var(v) * data.draw(values) + data.draw(values) for v in ring.vars]
    assert_same(outcome(identities.double_antisym_sum, xs, ys, tau),
                outcome(oracle_double_antisym_sum, xs, ys, tau))


def test_double_sum_at_the_degeneration_matches_the_double_loop():
    """x = t z, y = (1 + e)/t, tau = -t - 1/t, as the degeneration check has it."""
    ring, t = degeneration_ring(3), Fraction(2, 3)
    xs = [t * z for z in (Fraction(2, 5), Fraction(3, 7), 4)]
    ys = [(ring.var(v) + 1) * qdiv(1, t) for v in ring.vars]
    tau = -t - 1 / t
    assert_same(outcome(identities.double_antisym_sum, xs, ys, tau),
                outcome(oracle_double_antisym_sum, xs, ys, tau))


@SETTINGS
@given(value_lists(5), st.data())
def test_asep_lhs_matches_the_literal_sum(drawn, data):
    kind, _, zs = drawn
    p = data.draw(VALUES[kind])
    assert_same(outcome(identities._asep_lhs, p, zs), outcome(oracle_asep_lhs, p, zs))


@SETTINGS
@given(st.integers(0, 5), st.data())
def test_rational_lhs_matches_the_literal_sum(s, data):
    """zs are Fractions (integral ones too): an int u makes the literal
    kernel's u^-k a float (see the test below)."""
    weights = HomogeneousWeights(*(data.draw(NONZERO) for _ in range(3)))
    zs = data.draw(st.lists(FRACTIONS, min_size=s, max_size=s))
    assert_same(outcome(identities._rational_lhs, zs, weights),
                outcome(oracle_rational_lhs, zs, weights))


def test_rational_lhs_stays_exact_when_u_is_an_int():
    weights = HomogeneousWeights(1, 2, 1)   # t^2 - 2 delta t = 0, so u = 1 - z
    zs = (2, 3, 5)
    assert isinstance(oracle_rational_lhs(zs, weights), float)
    got = identities._rational_lhs(zs, weights)
    assert type(got) is Fraction
    assert got == oracle_rational_lhs(tuple(map(Fraction, zs)), weights)


@SETTINGS
@given(value_lists(5), st.data())
def test_scaled_vandermonde_lhs_matches_the_literal_sum(drawn, data):
    kind, _, eps = drawn
    t = data.draw(VALUES[kind])
    assert_same(outcome(identities._scaled_vandermonde_lhs, t, eps),
                outcome(oracle_scaled_vandermonde_lhs, t, eps))


# -- poles ------------------------------------------------------------------------


@pytest.mark.parametrize("fn, oracle, args", [
    # x_1 y_2 = 1 meets 1 - prod x_l y_l at the first position
    (identities.double_antisym_sum, oracle_double_antisym_sum,
     ((2, Fraction(1, 3)), (5, Fraction(1, 2)), Fraction(2, 3))),
    # only the two-element prefix sets multiply to 1
    (identities.double_antisym_sum, oracle_double_antisym_sum,
     ((2, 3), (Fraction(1, 4), Fraction(2, 3)), 1)),
    # z_1 z_3 = 1: a partial product of z's
    (identities._asep_lhs, oracle_asep_lhs,
     (Fraction(1, 3), (2, Fraction(3, 5), Fraction(1, 2)))),
    # z = 1 gives u(z) = 0
    (identities._rational_lhs, oracle_rational_lhs,
     ((Fraction(1), Fraction(1, 2)), HomogeneousWeights(3, 4, 5))),
])
def test_poles_raise_the_same_class(fn, oracle, args):
    got, want = outcome(fn, *args), outcome(oracle, *args)
    assert want[0] == "raises"
    assert_same(got, want)


def test_pole_at_the_series_center():
    ring = SeriesRing(("e1", "e2"), (2, 2))
    ys = [ring.var("e1") + Fraction(1, 3), ring.var("e2") + 2]
    args = ((3, Fraction(1, 2)), ys, Fraction(1, 5))
    got, want = (outcome(identities.double_antisym_sum, *args),
                 outcome(oracle_double_antisym_sum, *args))
    assert want == ("raises", PoleHit)
    assert_same(got, want)


# -- a fixed example at s=5 ---------------------------------------------------------


def test_double_sum_at_s5_matches_the_double_loop_and_the_determinant():
    xs = (Fraction(1, 2), Fraction(2, 7), 3, Fraction(5, 4), Fraction(-1, 3))
    ys = (Fraction(1, 5), Fraction(4, 9), -2, Fraction(7, 3), Fraction(3, 11))
    tau = Fraction(-5, 6)
    got = identities.double_antisym_sum(xs, ys, tau)
    assert_same(("value", got), ("value", oracle_double_antisym_sum(xs, ys, tau)))
    assert got == identities._cauchy_numerator(xs, ys, tau)


# -- end to end: the CLI reports with the oracles swapped back in --------------------


def test_cli_reports_are_unchanged_with_the_oracles(monkeypatch):
    config = cli.SuiteConfig(suites=("antisym", "tracy-widom"), n_max=4, s_max=3,
                             draws=2, seed=2024)

    def payload():
        code, reports = cli.run(config)
        assert code == 0
        return json.dumps([rep.to_json_obj() for rep in reports],
                          sort_keys=True, indent=2)

    dp = payload()
    calls = dict.fromkeys(("double_antisym_sum", "_asep_lhs", "_rational_lhs",
                           "_scaled_vandermonde_lhs"), 0)
    oracles = (oracle_double_antisym_sum, oracle_asep_lhs, oracle_rational_lhs,
               oracle_scaled_vandermonde_lhs)
    for name, oracle in zip(calls, oracles):
        def counted(*args, name=name, oracle=oracle):
            calls[name] += 1
            return oracle(*args)
        monkeypatch.setattr(identities, name, counted)
    assert payload() == dp
    assert all(calls.values()), calls
