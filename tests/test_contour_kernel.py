"""The integrand kernels of the contour forms against the factor lists
they replaced, the residue engine against the slice-and-merge loop it
replaced, and the scope that memoizes the kernels.

``efp_contour_asym``, ``efp_contour_sym``, ``efp_contour_cauchy``,
``efp_contour_double`` and ``zbot_contour`` once handed their whole
integrand, h(N, s) included, to ``iterated_residue``; the symmetrized and
Cauchy forms also passed h(s, s)(u_1..u_s) as a prebuilt series.  Those
factor lists, and the one ``ztop_contour`` still hands over, are kept
here as the oracle, run through ``oracle_residue``, the slice-and-merge
``iterated_residue`` as it was, with h(s, s)(u) written as a polynomial
over a power of each u's denominator, so that the oracle needs no
prebuilt series.  Exact values must be equal; float values may differ by
rounding only.  The forms truncate at their targets; the oracle also runs
with a wider truncation, and a kernel built at wider orders must read the
residues of the one built at the targets.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction
from operator import le

import mpmath
import pytest
from hypothesis import given, strategies as st

from icelab import cli, correlations
from icelab.algebra.field import qdiv, rel_err
from icelab.algebra.poly import Poly
from icelab.algebra.series import SeriesRing
from icelab.correlations import (ResidueSpec, efp_contour_asym, efp_contour_cauchy,
                                 efp_contour_double, efp_contour_sym, iterated_residue,
                                 kernel_scope, sym_generating_poly, zbot_contour,
                                 ztop_contour)
from icelab.errors import ZeroConstantTerm
from icelab.lattice import (HomogeneousWeights, flux_sector_states,
                            partition_function, positions_of)
from test_cli import GATED_WORKLOADS
from test_generating_oracle import FEW, TRIPLES
from test_multiply_kernel import SETTINGS

FF = HomogeneousWeights(Fraction(3), Fraction(4), Fraction(5))
GEN = HomogeneousWeights(Fraction(2), Fraction(3), Fraction(4))
HALF = HomogeneousWeights(Fraction(1, 2), Fraction(5, 3), Fraction(3, 2))
FLOATS = HomogeneousWeights(mpmath.mpf("0.7"), mpmath.mpf("1.3"), mpmath.mpf("1.1"))


# -- the oracle: the residue engine and the factor lists as they were ----------


def oracle_residue(factors, specs, *, var_order=None, extra_order=0):
    """The slice-and-merge ``iterated_residue``: the product of target
    coefficients is extracted one variable at a time, merging each factor
    at the first step that slices one of its variables.  The result does
    not depend on ``var_order``."""
    ring = SeriesRing(tuple(sp.var for sp in specs),
                      tuple(sp.target_exponent + extra_order for sp in specs))
    by_var = {sp.var: sp for sp in specs}
    order = tuple(var_order) if var_order is not None else ring.vars
    if sorted(order) != sorted(by_var):
        raise ValueError("var_order must permute the residue variables")
    step_of = {v: i for i, v in enumerate(order)}
    scalar, expanded = correlations._expand_factors(
        factors, {v: sp.center for v, sp in by_var.items()}, ring)
    pending = [(min(map(step_of.get, support)), series) for support, series in expanded]

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


def _var(name: str, j: int) -> Poly:
    return Poly.variable(f"{name}{j}")


def scaled(h: Poly, factor) -> Poly:
    """h with every variable v replaced by factor * v, one variable at a
    time."""
    terms = {}
    for e, c in h.terms.items():
        for m in e:
            if m:
                c = c * factor ** m
        terms[e] = c
    return Poly(h.vars, terms)


def composed(h: Poly, names: list, num, den) -> list:
    """Factors of h(u_1..u_s), u_j = num(v_j) / den(v_j) for the variables
    v_j named by ``names``: one polynomial over den(v_j)^D, D the largest
    degree of h."""
    top = max(h.degree(v) for v in h.vars)
    nums = [num(Poly.variable(v)) for v in names]
    dens = [den(Poly.variable(v)) for v in names]
    total = Poly.zero(tuple(names))
    for e, c in h.terms.items():
        term = Poly.const(c, tuple(names))
        for m, nj, dj in zip(e, nums, dens):
            term = term * nj ** m * dj ** (top - m)
        total = total + term
    return [total] + [(dj, -top) for dj in dens]


def oracle_asym(n, r, s, w, extra_order=0):
    t, delta = w.t, w.delta
    a = t * t - 2 * delta * t
    zs = [_var("z", j) for j in range(1, s + 1)]
    factors: list = []
    for j in range(1, s + 1):
        zj = zs[j - 1]
        if s - j:
            factors.append((zj * a + 1, s - j))
        factors.append((zj - 1, -(s - j + 1)))
    for zj, zk in itertools.combinations(zs, 2):
        factors.append(zj - zk)
        factors.append((zj * zk * (t * t) - zj * (2 * delta * t) + 1, -1))
    factors.append(sym_generating_poly(n, s, w))
    specs = [ResidueSpec(f"z{j}", 0, r - 1) for j in range(1, s + 1)]
    value = oracle_residue(factors, specs, extra_order=extra_order)
    return value if s % 2 == 0 else -value


def oracle_sym(n, r, s, w, extra_order=0):
    t, delta = w.t, w.delta
    a = t * t - 2 * delta * t
    zs = [_var("z", j) for j in range(1, s + 1)]
    factors: list = []
    for zj in zs:
        factors.append((zj - 1, -s))
        if s > 1:
            factors.append((zj * a + 1, s - 1))
    for zj, zk in itertools.combinations(zs, 2):
        factors.append((zk - zj, 2))
        factors.append((zj * zk * (t * t) - zj * (2 * delta * t) + 1, -1))
        factors.append((zj * zk * (t * t) - zk * (2 * delta * t) + 1, -1))
    factors.append(sym_generating_poly(n, s, w))
    # u(z) = (1 - z) / (a z + 1)
    factors += composed(sym_generating_poly(s, s, w), [f"z{j}" for j in range(1, s + 1)],
                        lambda z: 1 - z, lambda z: z * a + 1)
    specs = [ResidueSpec(f"z{j}", 0, r - 1) for j in range(1, s + 1)]
    value = oracle_residue(factors, specs, extra_order=extra_order)
    sign = -1 if (s + s * (s - 1) // 2) % 2 else 1
    pref = qdiv(partition_function(s, w), w.a ** (s * (s - 1)) * w.c ** s)
    return qdiv(sign, math.factorial(s)) * pref * value


def oracle_cauchy(n, r, s, w, extra_order=0):
    t, delta = w.t, w.delta
    a = t * t - 2 * delta * t
    xs = [_var("x", j) for j in range(1, s + 1)]
    factors: list = []
    for xj in xs:
        factors.append((xj - t, -1))
        if s > 1:
            factors.append((xj * (t - 2 * delta) + 1, s - 1))
            factors.append((-xj + t, -(s - 1)))
    for xj, xk in itertools.combinations(xs, 2):
        factors.append((xk - xj, 2))
        factors.append((xj * xk - xj * (2 * delta) + 1, -1))
        factors.append((xj * xk - xk * (2 * delta) + 1, -1))
    h_ns = Poly(tuple(f"x{j}" for j in range(1, s + 1)), sym_generating_poly(n, s, w).terms)
    factors.append(scaled(h_ns, qdiv(1, t)))
    # u(x / t) = (t - x) / (a x + t)
    factors += composed(sym_generating_poly(s, s, w), [f"x{j}" for j in range(1, s + 1)],
                        lambda x: t - x, lambda x: x * a + t)
    specs = [ResidueSpec(f"x{j}", 0, r - 1) for j in range(1, s + 1)]
    value = oracle_residue(factors, specs, extra_order=extra_order)
    sign = -1 if (s + s * (s - 1) // 2) % 2 else 1
    pref = qdiv(partition_function(s, w), w.c ** s * w.b ** (s * (s - 1)))
    return qdiv(sign, math.factorial(s)) * t ** (s * (r - 1) + s * s) * pref * value


def oracle_zbot(n, s, positions, w):
    t, delta = w.t, w.delta
    zs = [_var("z", j) for j in range(1, s + 1)]
    factors: list = []
    for zj, zk in itertools.combinations(zs, 2):
        factors.append(zk - zj)
        factors.append((zj * zk * (t * t) - zj * (2 * delta * t) + 1, -1))
    factors.append(sym_generating_poly(n, s, w))
    specs = [ResidueSpec(f"z{j}", 0, positions[j - 1] - 1) for j in range(1, s + 1)]
    value = oracle_residue(factors, specs)
    pref = qdiv(partition_function(n, w), w.a ** (s * (n - 1)) * w.c ** s)
    for j in range(1, s + 1):
        pref = pref * t ** (j - positions[j - 1])
    return pref * value


def oracle_double(n, r, s, w, extra_order=0):
    if any(r - s + j - 1 < 0 for j in range(1, s + 1)):
        return Fraction(0)
    t, delta = w.t, w.delta
    inv_t = qdiv(1, t)
    specs = [ResidueSpec(f"x{j}", 0, r - s + j - 1) for j in range(1, s + 1)]
    specs += [ResidueSpec(f"y{j}", inv_t, s - 1) for j in range(1, s + 1)]
    factors: list = []
    for j in range(1, s + 1):
        yj = _var("y", j)
        factors.append((yj, -(r + j - 1)))
        prod = Poly.const(Fraction(1))
        for l in range(1, j + 1):
            prod = prod * _var("x", l) * _var("y", l)
        factors.append((1 - prod, -1))
    for j in range(1, s + 1):
        for k in range(j + 1, s + 1):
            xj, xk = _var("x", j), _var("x", k)
            yj, yk = _var("y", j), _var("y", k)
            factors.append(yk - yj)
            factors.append(yj * yk - yk * (2 * delta) + 1)
            factors.append(xk - xj)
            factors.append((xj * xk - xj * (2 * delta) + 1, -1))
    h_ns = Poly(tuple(f"x{j}" for j in range(1, s + 1)), sym_generating_poly(n, s, w).terms)
    factors.append(scaled(h_ns, inv_t))
    value = oracle_residue(factors, specs, extra_order=extra_order)
    return value * t ** (-s * s)


def oracle_ztop(n, s, positions, w):
    t, delta = w.t, w.delta
    factors: list = []
    for j in range(1, s + 1):
        if positions[j - 1] > 1:
            factors.append((_var("w", j), positions[j - 1] - 1))
    for j in range(1, s + 1):
        for k in range(j + 1, s + 1):
            wj, wk = _var("w", j), _var("w", k)
            factors.append(wj - wk)
            factors.append(wj * wk * (t * t) - wj * (2 * delta * t) + 1)
    specs = [ResidueSpec(f"w{j}", 1, s - 1) for j in range(1, s + 1)]
    value = oracle_residue(factors, specs)
    pref = w.c ** s * w.a ** (s * (n - 1))
    for j in range(1, s + 1):
        pref = pref * t ** (positions[j - 1] - j)
    return pref * value


EFP_FORMS = ((efp_contour_asym, oracle_asym), (efp_contour_sym, oracle_sym),
             (efp_contour_cauchy, oracle_cauchy))


def efp_cases(n_max: int, s_max: int):
    for n in range(1, n_max + 1):
        for r in range(1, n + 1):
            for s in range(1, min(r, s_max) + 1):
                yield n, r, s


def position_sets(n_max: int):
    for n in range(1, n_max + 1):
        for s in range(1, n + 1):
            for state in flux_sector_states(n, s):
                yield n, s, positions_of(state)


def assert_exactly(got, want):
    assert got == want
    assert not isinstance(got, mpmath.mpf)


# -- exact weights: equal values -------------------------------------------------


# ``extra_order`` widens the oracle's truncation only: a coefficient inside
# the box does not depend on terms outside it, so both widths must give the
# value the form reads at its exact orders
@pytest.mark.parametrize("extra_order", (0, 2))
@pytest.mark.parametrize("weights", (FF, GEN, HALF), ids=("FF", "GEN", "HALF"))
def test_efp_kernels_match_the_factor_lists(weights, extra_order):
    with kernel_scope():
        for n, r, s in efp_cases(5, 4):
            for form, oracle in EFP_FORMS:
                assert_exactly(form(n, r, s, weights),
                               oracle(n, r, s, weights, extra_order))


@pytest.mark.parametrize("weights", (FF, GEN, HALF), ids=("FF", "GEN", "HALF"))
def test_zbot_kernel_matches_the_factor_list(weights):
    with kernel_scope():
        for n, s, pos in position_sets(4):
            assert_exactly(zbot_contour(n, s, pos, weights),
                           oracle_zbot(n, s, pos, weights))


@pytest.mark.parametrize("extra_order", (0, 2))
@pytest.mark.parametrize("weights", (FF, GEN, HALF), ids=("FF", "GEN", "HALF"))
def test_double_kernel_matches_the_factor_list(weights, extra_order):
    with kernel_scope():
        for n, r, s in efp_cases(4, 3):
            assert_exactly(efp_contour_double(n, r, s, weights),
                           oracle_double(n, r, s, weights, extra_order))


@pytest.mark.parametrize("weights", (FF, GEN, HALF), ids=("FF", "GEN", "HALF"))
def test_ztop_matches_the_factor_list(weights):
    for n, s, pos in position_sets(4):
        assert_exactly(ztop_contour(n, s, pos, weights),
                       oracle_ztop(n, s, pos, weights))


@FEW
@given(TRIPLES, st.data())
def test_kernels_match_the_factor_lists_on_random_weights(triple, data):
    weights = HomogeneousWeights(*triple)
    n = data.draw(st.integers(1, 4))
    r = data.draw(st.integers(1, n))
    s = data.draw(st.integers(1, r))
    for form, oracle in EFP_FORMS:
        assert_exactly(form(n, r, s, weights), oracle(n, r, s, weights))
    if s <= 3:
        assert_exactly(efp_contour_double(n, r, s, weights),
                       oracle_double(n, r, s, weights))
    pos = data.draw(st.sampled_from([p for m, k, p in position_sets(n) if m == n]))
    for contour, oracle in ((zbot_contour, oracle_zbot), (ztop_contour, oracle_ztop)):
        assert_exactly(contour(n, len(pos), pos, weights),
                       oracle(n, len(pos), pos, weights))


# -- the residue engine against the slice-and-merge loop --------------------------

NAMES = ("v1", "v2", "v3")
CENTERS = st.sampled_from((0, Fraction(1), Fraction(1, 2), Fraction(-2, 3)))
COEFFICIENTS = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 5))


@st.composite
def residue_problems(draw):
    """A factor list and its specs: one to three variables with centers 0
    or rational, each factor a polynomial on some of them raised to a power
    in -2..2 (a negative power of a factor that vanishes at its center
    must raise in both engines)."""
    names = NAMES[:draw(st.integers(1, 3))]
    specs = [ResidueSpec(v, draw(CENTERS), draw(st.integers(0, 2))) for v in names]
    factors = []
    for _ in range(draw(st.integers(0, 4))):
        support = draw(st.sets(st.sampled_from(names), min_size=1))
        terms = {tuple(draw(st.integers(0, 2)) if v in support else 0 for v in names):
                 draw(COEFFICIENTS) for _ in range(draw(st.integers(1, 3)))}
        factors.append((Poly(names, terms), draw(st.integers(-2, 2))))
    return factors, specs


def residue_outcome(engine, factors, specs, **kwargs):
    try:
        return "value", engine(factors, specs, **kwargs)
    except ZeroConstantTerm:
        return "raises", ZeroConstantTerm


@SETTINGS
@given(residue_problems(), st.sampled_from((0, 2)))
def test_residue_engine_matches_the_slice_and_merge_loop(problem, extra_order):
    # the engine truncates at the targets, the oracle at or above them
    factors, specs = problem
    got = residue_outcome(iterated_residue, factors, specs)
    assert got == residue_outcome(oracle_residue, factors, specs, extra_order=extra_order)


# -- the box property: a kernel read below its orders -------------------------------

# each builder, and whether its form reads h(N, s) at z / t
BUILDERS = {"asym": (correlations._asym_kernel, False),
            "sym": (correlations._sym_kernel, False),
            "cauchy": (correlations._cauchy_kernel, True),
            "zbot": (correlations._zbot_kernel, False),
            "double": (correlations._double_kernel, True)}


@pytest.mark.parametrize("form", BUILDERS)
@FEW
@given(triple=TRIPLES, data=st.data())
def test_a_kernel_read_below_its_orders_gives_the_kernel_built_there(form, triple, data):
    build, scaled_h = BUILDERS[form]
    weights = HomogeneousWeights(*triple)
    s = data.draw(st.integers(1, 3), label="s")
    args = (data.draw(st.integers(1, 4), label="r"),) if form == "double" else ()
    width = 2 * s if args else s
    targets = tuple(data.draw(st.lists(st.integers(0, 4), min_size=width, max_size=width),
                              label="targets"))
    orders = tuple(data.draw(st.integers(t, 4), label="order") for t in targets)
    wide = correlations._kernel(build, weights, orders, *args)
    narrow = correlations._kernel(build, weights, targets, *args)
    inside = {e: c for e, c in wide.terms.items() if all(map(le, e, targets))}
    assert inside == narrow.terms
    h = sym_generating_poly(data.draw(st.integers(s, 4), label="n"), s, weights)
    scale = qdiv(1, weights.t) if scaled_h else None
    assert_exactly(correlations._read_residue(wide, h, targets, scale),
                   correlations._read_residue(narrow, h, targets, scale))


# -- float weights: equal up to rounding -------------------------------------------


def assert_float_kernels_match_the_factor_lists(scope):
    # the kernel and the oracle round in different orders; the reports
    # judge these values against enumeration at a tolerance of 1e-8
    slack = 2 ** 12 * mpmath.eps
    with scope:
        for n, r, s in efp_cases(4, 3):
            for form, oracle in EFP_FORMS:
                got = form(n, r, s, FLOATS)
                assert isinstance(got, mpmath.mpf)
                assert rel_err(got, oracle(n, r, s, FLOATS)) <= slack, (form, n, r, s)
        for n, r, s in efp_cases(4, 3):
            got = efp_contour_double(n, r, s, FLOATS)
            assert rel_err(got, oracle_double(n, r, s, FLOATS)) <= slack, (n, r, s)
        for n, s, pos in position_sets(4):
            for contour, oracle in ((zbot_contour, oracle_zbot),
                                    (ztop_contour, oracle_ztop)):
                assert rel_err(contour(n, s, pos, FLOATS),
                               oracle(n, s, pos, FLOATS)) <= slack, (contour, pos)


def test_float_kernels_match_the_factor_lists_to_rounding():
    assert_float_kernels_match_the_factor_lists(kernel_scope())


def test_float_kernels_built_at_a_ceiling_match_the_factor_lists_to_rounding():
    # every order asked for is at most 3, so each kernel but the double one
    # is read below its orders, where it rounds in a product of more terms
    assert_float_kernels_match_the_factor_lists(kernel_scope(ceiling=4))


# -- the kernel scope ------------------------------------------------------------


def memo():
    scope = correlations._KERNELS.get()
    return None if scope is None else scope.memo


def count_builds(monkeypatch, name: str, record=lambda ring, weights: ring.orders) -> list:
    """Record ``record(ring, weights)`` for each call of the kernel builder
    ``name``."""
    calls = []
    build = getattr(correlations, name)

    def counted(ring, weights, *args):
        calls.append(record(ring, weights))
        return build(ring, weights, *args)

    monkeypatch.setattr(correlations, name, counted)
    return calls


def test_a_scope_builds_each_kernel_once(monkeypatch):
    builds = count_builds(monkeypatch, "_sym_kernel")
    with kernel_scope():
        values = [efp_contour_sym(n, 3, 2, GEN) for n in (3, 4, 5)]
        assert builds == [(2, 2)]
        # a wider truncation is its own kernel, built apart from the memo
        assert efp_contour_sym(4, 3, 2, GEN, extra_order=2) == values[1]
        assert builds == [(2, 2), (4, 4)]
        with kernel_scope():   # an inner scope shares the outer memo
            efp_contour_sym(5, 3, 2, GEN)
        assert len(builds) == 2 and len(memo()) == 1
    assert memo() is None
    assert values == [oracle_sym(n, 3, 2, GEN) for n in (3, 4, 5)]


def test_a_double_kernel_is_keyed_by_r(monkeypatch):
    builds = count_builds(monkeypatch, "_double_kernel")
    with kernel_scope():
        values = [efp_contour_double(n, 3, 2, GEN) for n in (3, 4)]
        assert builds == [(1, 2, 1, 1)]
        efp_contour_double(4, 4, 2, GEN)
        assert builds == [(1, 2, 1, 1), (2, 3, 1, 1)]
        assert sorted(key[3] for key in memo()) == [(3,), (4,)]
    assert values == [oracle_double(n, 3, 2, GEN) for n in (3, 4)]


def test_a_ceiling_builds_each_kernel_once_per_s(monkeypatch):
    builds = count_builds(monkeypatch, "_asym_kernel")
    doubles = count_builds(monkeypatch, "_double_kernel")
    with kernel_scope():
        with kernel_scope(ceiling=3):
            values = [efp_contour_asym(4, r, 2, GEN) for r in (2, 3, 4)]
            assert builds == [(3, 3)]
            # past the ceiling, the orders asked for win
            efp_contour_asym(5, 5, 2, GEN)
            assert builds == [(3, 3), (4, 4)]
            efp_contour_double(4, 3, 2, GEN)   # keyed by r, never padded
            assert doubles == [(1, 2, 1, 1)]
        # the ceiling ends with its block, the memo with the outer scope
        efp_contour_asym(4, 2, 2, GEN)
        assert builds == [(3, 3), (4, 4), (1, 1)]
        assert len(memo()) == 4
    assert memo() is None
    assert values == [oracle_asym(4, r, 2, GEN) for r in (2, 3, 4)]


def test_a_bottom_kernel_under_a_ceiling_is_built_up_to_its_last_position(monkeypatch):
    # positions rise strictly up to ceiling + 1, so variable j of s is read
    # at no more than ceiling - (s - j)
    builds = count_builds(monkeypatch, "_zbot_kernel")
    with kernel_scope(ceiling=3):
        values = [zbot_contour(4, 2, pos, GEN) for pos in ((1, 2), (1, 4), (3, 4))]
        assert builds == [(2, 3)]
        zbot_contour(4, 4, (1, 2, 3, 4), GEN)
        assert builds == [(2, 3), (0, 1, 2, 3)]
    assert values == [oracle_zbot(4, 2, pos, GEN) for pos in ((1, 2), (1, 4), (3, 4))]


def test_the_truncation_stability_check_builds_its_wide_side_apart(monkeypatch):
    # at n_max = 6 the efp suite's ceiling is 5: the check (n = r = 4, s = 2)
    # reads the suite's (5, 5) kernel and one built 2 orders wider
    builds = count_builds(monkeypatch, "_sym_kernel")
    read, sym = correlations._read_residue, correlations.efp_contour_sym
    kernels, calls = [], []

    def reading(kernel, *args, **kwargs):
        kernels.append(kernel)
        return read(kernel, *args, **kwargs)

    def spy(n, r, s, weights, extra_order=0):
        before = dict(memo())
        value = sym(n, r, s, weights, extra_order)
        calls.append(((n, r, s, extra_order), kernels[-1], before, dict(memo())))
        return value

    monkeypatch.setattr(correlations, "_read_residue", reading)
    monkeypatch.setattr(correlations, "efp_contour_sym", spy)
    code, reports = cli.run(cli.SuiteConfig(suites=("efp",), n_max=6, s_max=2, draws=1))
    assert code == 0
    assert [r.status for r in reports if r.check_id == "efp.truncation_stability"] == ["pass"]
    (args, narrow, _, _), (wide_args, wide, before, after) = calls[-2:]
    assert (args, wide_args) == ((4, 4, 2, 0), (4, 4, 2, 2))
    assert wide is not narrow
    assert all(w > v for w, v in zip(wide.ring.orders, narrow.ring.orders))
    assert builds == [(5,), (5, 5), (7, 7)]
    # the wide side neither took a kernel from the memo nor left one there
    assert after.keys() == before.keys()
    assert all(after[key] is kernel for key, kernel in before.items())
    assert narrow in before.values() and wide not in after.values()


def test_contour_exact_builds_each_kernel_once_per_s_and_weights(monkeypatch):
    builds = {name: count_builds(monkeypatch, name,
                                 record=lambda ring, weights: (weights, ring.orders))
              for name in ("_asym_kernel", "_sym_kernel", "_cauchy_kernel",
                           "_zbot_kernel", "_double_kernel")}
    args = GATED_WORKLOADS["contour-exact"] + ["--backend", "exact", "--seed", "111"]
    code, _ = cli.run(cli.parse_config(args, env={}))
    assert code == 0
    # efp runs r <= 5 (ceiling 4), rcp positions <= 4 (ceiling 3), s <= 4,
    # each suite on two weight triples
    for name, orders in (("_asym_kernel", lambda s: (4,) * s),
                         ("_sym_kernel", lambda s: (4,) * s),
                         ("_cauchy_kernel", lambda s: (4,) * s),
                         ("_zbot_kernel", lambda s: tuple(range(4 - s, 4)))):
        triples = {weights for weights, _ in builds[name]}
        want = Counter((w, orders(s)) for w in triples for s in range(1, 5))
        if name == "_sym_kernel":   # the wide side of truncation stability
            want.update((w, (6, 6)) for w in triples)
        assert len(triples) == 2 and Counter(builds[name]) == want, name
    assert len(builds["_double_kernel"]) == 18
    assert sum(map(len, builds.values())) == 52


def test_a_call_outside_a_scope_leaves_no_entry(monkeypatch):
    builds = count_builds(monkeypatch, "_asym_kernel")
    assert memo() is None
    for _ in range(2):
        efp_contour_asym(4, 3, 2, FF)
        assert memo() is None
    assert len(builds) == 2


def test_float_weights_never_feed_an_exact_call():
    floats = HomogeneousWeights(mpmath.mpf(3), mpmath.mpf(4), mpmath.mpf(5))
    outside = [form(4, 3, s, FF) for form, _ in EFP_FORMS for s in (1, 2)]
    with kernel_scope():
        for weights in (floats, FF, floats):
            got = [form(4, 3, s, weights) for form, _ in EFP_FORMS for s in (1, 2)]
            if weights is FF:
                for value, want in zip(got, outside):
                    assert_exactly(value, want)
            else:
                assert all(isinstance(v, mpmath.mpf) for v in got)
                assert all(rel_err(v, w) < 1e-12 for v, w in zip(got, outside))


def test_the_memo_is_empty_after_cli_run(monkeypatch):
    seen = []
    asym = correlations.efp_contour_asym

    def spy(*args, **kwargs):
        value = asym(*args, **kwargs)
        seen.append(len(memo()))
        return value

    monkeypatch.setattr(correlations, "efp_contour_asym", spy)
    code, _ = cli.run(cli.SuiteConfig(suites=("efp",), n_max=3, s_max=2, draws=2))
    assert code == 0 and max(seen) > 0
    assert memo() is None


def test_the_memo_is_empty_after_a_suite_raised(monkeypatch):
    def broken(run, rng):
        efp_contour_asym(3, 2, 2, FF)
        assert len(memo()) == 1
        raise RuntimeError("suite failed")

    monkeypatch.setitem(cli._SUITE_FNS, "efp", broken)
    with pytest.raises(RuntimeError, match="suite failed"):
        cli.run(cli.SuiteConfig(suites=("efp",), n_max=3, s_max=2, draws=1))
    assert memo() is None


def test_a_kernel_of_new_weights_drops_the_old_triple():
    with kernel_scope():
        efp_contour_asym(4, 3, 2, FF)
        efp_contour_sym(4, 3, 2, FF)
        assert {key[1] for key in memo()} == {FF}
        efp_contour_asym(4, 3, 2, GEN)
        assert {key[1] for key in memo()} == {GEN} and len(memo()) == 1

