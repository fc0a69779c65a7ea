"""The trigonometric family over the rationals, in Kuperberg's sigma-weights.

On the exact backend the six trigonometric checks take the exponentials X
= e^{i lambda}, Y = e^{i nu}, Q = e^{i eta} as rationals, and every weight
is sigma(w) = w - 1/w at a monomial in them.  Each rewritten route is
compared here with an independent one at admissible rational points (the
points that ``sampling.sigma_admissible`` accepts): the fold with its
vertex values cleared of denominators against the determinant and the
direct enumeration, the subset-DP kernel sum against the literal
``perms.antisymmetrize``, the epsilon-jet homogeneous determinant against
the fold at sigma(X0 Q), sigma(X0 / Q), sigma(Q^2), and the Cauchy
extraction against the determinant.  The sampler's refusals and the
guards of degenerate points are pinned below them.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from icelab import cli, identities, izergin_korepin
from icelab.algebra.field import ONE, is_exact
from icelab.algebra.perms import antisymmetrize
from icelab.errors import CoincidingParameters, PoleInPhi
from icelab.lattice import (HomogeneousWeights, InhomogeneousWeights, TrigWeights,
                            brute_force_partition, partition_function,
                            partition_function_bottom_up)
from icelab.sampling import DeterministicRng, sigma_admissible, sigma_parameters
from test_multiply_kernel import SETTINGS

FEW = settings(SETTINGS, max_examples=30)
POSITIVE = st.builds(Fraction, st.integers(1, 50), st.integers(1, 50))


def sigma(w):
    return w - 1 / w


@st.composite
def sigma_points(draw, s, points=0):
    """(xs, ys, q, *points), admissible as the sampler's draws are."""
    q = draw(POSITIVE)
    xs, ys, extra = (tuple(draw(POSITIVE) for _ in range(m)) for m in (s, s, points))
    assume(sigma_admissible(q, (ONE, *xs, *ys, *extra)))
    return (xs, ys, q, *extra)


def sizes(top, points=0):
    return st.integers(1, top).flatmap(lambda s: sigma_points(s, points))


def test_the_exact_weights_are_sigma_of_their_monomials():
    x, x2, y, q = Fraction(3, 7), Fraction(5, 2), Fraction(9, 4), Fraction(2, 3)
    w = TrigWeights(q)
    assert w.exact and w.origin == 1
    assert (w.a(x, y), w.b(x, y), w.c()) == (sigma(x * q / y), sigma(x / (y * q)),
                                             sigma(q * q))
    assert (w.d(x, x2), w.e(x, x2)) == (sigma(x / x2), sigma(x * q * q / x2))
    assert w.tau() == -(q * q + 1 / (q * q))
    assert w.phi(x, y) == w.c() / (w.a(x, y) * w.b(x, y))
    assert w.gamma(w.origin, x) == 1
    assert all(type(v) is Fraction for v in (w.a(x, y), w.c(), w.tau(), w.gamma(x2, x)))


def test_exact_inhomogeneous_weights_never_equal_float_ones():
    import mpmath
    exact = InhomogeneousWeights((Fraction(1, 2), Fraction(3, 2)), (ONE, ONE), Fraction(2))
    floats = InhomogeneousWeights((mpmath.mpf(0.5), mpmath.mpf(1.5)), (ONE, ONE),
                                  mpmath.mpf(2))
    assert exact.exact and not floats.exact
    assert exact != floats


@FEW
@given(sizes(4))
def test_the_sigma_fold_equals_the_sigma_determinant(point):
    xs, ys, q = point
    n = len(xs)
    weights = InhomogeneousWeights(xs, ys, q)
    z = izergin_korepin.ik_inhomogeneous(xs, ys, q)
    assert is_exact(z)
    assert partition_function(n, weights) == z == partition_function_bottom_up(n, weights)
    if n <= 3:   # the enumeration multiplies the rational vertex values as they are
        assert brute_force_partition(n, weights) == z


@FEW
@given(sizes(4))
def test_the_subset_trig_kernel_equals_the_literal_sum(point):
    xs, ys, q = point
    s = len(xs)
    w = TrigWeights(q)

    def kernel(*ls):
        val = ONE
        for j in range(s):
            for k in range(s):
                if k != j:
                    val *= w.a(ls[j], ys[k]) if k < j else w.b(ls[j], ys[k])
            for k in range(j + 1, s):
                val /= w.e(ls[k], ls[j])
        return val

    lhs, rhs = identities.check_trig_antisymmetrization(xs, ys, q)
    assert lhs == antisymmetrize(kernel, list(xs)) == rhs
    assert type(lhs) is Fraction


@FEW
@given(sigma_points(1, points=1), st.integers(1, 6))
def test_the_epsilon_jet_determinant_equals_the_homogeneous_fold(point, n):
    _, _, q, x0 = point
    weights = HomogeneousWeights(sigma(x0 * q), sigma(x0 / q), sigma(q * q))
    value = izergin_korepin.ik_homogeneous(x0, q, n)
    assert value == partition_function(n, weights)
    assert is_exact(value)


@FEW
@given(sizes(3, points=2))
def test_the_sigma_cauchy_extraction_equals_the_sigma_determinant(point):
    xs, ys, q, z, z2 = point
    (at_z, at_z2), (det, _) = identities.check_w_matches_partition_fn(xs, ys, q, z, z2)
    assert at_z == at_z2 == det == izergin_korepin.ik_inhomogeneous(xs, ys, q)


@FEW
@given(sigma_points(3, points=1))
def test_the_partial_factorization_holds_over_the_rationals(point):
    xs, _, q, x0 = point
    lhs, rhs = izergin_korepin.partial_inhomogeneous_relation(xs, x0, q)
    assert lhs == rhs and is_exact(lhs)


# -- the sampler and the guards ------------------------------------------


class ScriptedRng(DeterministicRng):
    """Returns the scripted rationals, in order, from ``rational()``."""

    def __init__(self, values):
        super().__init__(0)
        self.values = iter(values)

    def rational(self):
        return Fraction(next(self.values))


def test_the_sampler_refuses_q_one_and_coinciding_xs_and_counts_each_refusal():
    # each draw is Q, Y1, Y2, X1, X2
    rng = ScriptedRng([1, 3, 5, 7, 11,                  # Q = 1
                       2, 3, 5, 7, 7,                   # X1 == X2
                       2, 3, 5, 7, Fraction(7, 4),      # X2 Q^2 == X1
                       2, 3, 5, 7, 11])
    assert sigma_parameters(rng, 2) == ((7, 11), (3, 5), 2)
    assert rng.rejections == 3


@settings(SETTINGS, max_examples=50)
@given(st.integers(0, 2 ** 64 - 1), st.integers(1, 5), st.integers(0, 2))
def test_a_sampled_point_zeroes_no_weight_and_no_difference(seed, s, points):
    xs, ys, q, *extra = sigma_parameters(DeterministicRng(seed), s, points=points)
    w = TrigWeights(q)
    assert q not in (1, -1) and w.c() != 0
    assert len(set(xs)) == s and len(set(ys)) == s
    # every weight and difference between two of the points, the origin included
    for lam, nu in itertools.permutations((w.origin, *xs, *ys, *extra), 2):
        assert 0 not in (w.a(lam, nu), w.b(lam, nu), w.d(lam, nu), w.e(lam, nu))


def test_degenerate_draws_never_reach_a_check(monkeypatch):
    """A generator that proposes 1 or a repeated value every few values:
    the exact partition and antisym suites still pass, with every refusal
    counted, and no report carries Q = 1 or coinciding lambdas."""
    rngs, proposed = [], []
    original_init, original_rational = DeterministicRng.__init__, DeterministicRng.rational

    def init(self, seed):
        original_init(self, seed)
        rngs.append(self)

    def rational(self):
        proposed.append(original_rational(self))
        if len(proposed) % 13 == 0:
            return ONE
        return proposed[-2] if len(proposed) % 11 == 0 else proposed[-1]

    monkeypatch.setattr(DeterministicRng, "__init__", init)
    monkeypatch.setattr(DeterministicRng, "rational", rational)
    code, reports = cli.run(cli.SuiteConfig(suites=("partition", "antisym"), n_max=4,
                                            s_max=3, draws=2, seed=3))
    assert code == 0, cli.summarize(reports)
    assert sum(rng.rejections for rng in rngs) > 20
    trig = [rep for rep in reports if "eta" in rep.params]
    assert len(trig) == 2 * (4 + 4 + 3 + 3)
    assert all(rep.params["eta"] not in ("1", "-1") for rep in trig)
    for rep in reports:
        if "lambdas" in rep.params:
            lambdas = rep.params["lambdas"].strip("()").split(", ")
            assert len(set(lambdas)) == len(lambdas)


X, Y, Q, Z = Fraction(3, 7), Fraction(9, 4), Fraction(2, 3), Fraction(5, 2)
DEGENERATE = {
    "coinciding lambdas, determinant": (
        izergin_korepin.ik_inhomogeneous, ((X, X), (Y, Z), Q), CoincidingParameters),
    "coinciding lambdas, fold": (
        lambda *args: partition_function(2, InhomogeneousWeights(*args)),
        ((X, X), (Y, Z), Q), CoincidingParameters),
    "a(X, Y) = sigma(1), kernel": (
        identities.check_trig_antisymmetrization, ((X, Z), (X * Q, Y), Q), PoleInPhi),
    "b(X, Z Q) = sigma(1), Cauchy": (
        identities.check_w_matches_partition_fn, ((Z * Q * Q,), (Y,), Q, Z, X), PoleInPhi),
    "b(X0, 1) = sigma(1), homogeneous": (
        izergin_korepin.ik_homogeneous, (Q, Q, 3), PoleInPhi),
    "a(X, 1) = sigma(1), partial": (
        izergin_korepin.partial_inhomogeneous_relation, ((X, 1 / Q), Z, Q), PoleInPhi),
}


@pytest.mark.parametrize("case", DEGENERATE)
def test_a_degenerate_point_fed_by_hand_is_guarded(case):
    sides, args, exc = DEGENERATE[case]
    with pytest.raises(exc):
        sides(*args)
    runner = cli._Runner(cli.SuiteConfig())
    runner.check("partition.by_hand", {"case": case}, sides, *args)
    (rep,) = runner.reports
    assert rep.status == "guarded", rep
    assert rep.discrepancy.startswith(exc.__name__)
