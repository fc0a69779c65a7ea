"""The shared helpers against the copies they replaced.

Three jobs had more than one implementation:

* the signed permutation stream of ``perms.antisymmetrize``, once a cached
  tuple of ``Permutation`` objects (``signed_permutations``);
* the subset-product test of ``identities.subset_products_avoid_one``,
  once nested ``combinations`` loops, with a second copy of its one-set
  case in ``sampling.asep_parameters``;
* scalar division, once ``_ratio`` in ``lattice`` and in ``correlations``
  beside ``field.qdiv``.

The old code is kept here as oracles.  Under derandomized Hypothesis each
helper must give the oracle's value with the same type (mpf equality is
exact, so a float antisymmetrization must come out bit for bit, as it
keeps the old summation order).
"""

import itertools
from fractions import Fraction
from typing import NamedTuple

import mpmath
from hypothesis import given, strategies as st

from icelab.algebra.field import ONE, is_exact, qdiv, rational
from icelab.algebra.perms import antisymmetrize
from icelab.identities import subset_products_avoid_one
from icelab.sampling import DeterministicRng, asep_parameters, distinct_rationals
from test_multiply_kernel import FRACTIONS, INTS, MPFS, SETTINGS


# -- the oracles: the helpers as they were ------------------------------------


class SignedPermutation(NamedTuple):
    """Images of 1..s under a bijection, with its parity sign."""

    images: tuple
    sign: int

    def apply(self, values):
        return tuple(values[i - 1] for i in self.images)


def signed_permutations(s):
    """All (images, sign) pairs for S_s, in lexicographic image order; the
    sign counts inversions here, independently of ``perms.parity``."""
    out = []
    for images in itertools.permutations(range(1, s + 1)):
        inversions = sum(images[j] > images[k]
                         for j in range(s) for k in range(j + 1, s))
        out.append(SignedPermutation(images, -1 if inversions % 2 else 1))
    return tuple(out)


def oracle_antisymmetrize(f, values):
    total = None
    for perm in signed_permutations(len(values)):
        term = f(*perm.apply(values))
        if perm.sign < 0:
            term = -term
        total = term if total is None else total + term
    return total


def oracle_subset_products_avoid_one(xs, ys=()):
    s = len(xs)
    for j in range(1, s + 1):
        for sub_x in itertools.combinations(xs, j):
            px = ONE
            for x in sub_x:
                px = px * x
            for sub_y in (itertools.combinations(ys, j) if ys else ((),)):
                py = ONE
                for y in sub_y:
                    py = py * y
                if px * py == 1:
                    return False
    return True


def oracle_asep_accept_tuple(zs):
    for j in range(1, len(zs) + 1):
        for sub in itertools.combinations(zs, j):
            prod = rational(1)
            for z in sub:
                prod = prod * z
            if prod == 1:
                return False
    return True


def oracle_asep_parameters(rng, s):
    t = rng.sample_until(rng.rational, lambda v: v != 1, "rational t")
    p = rational(1) / (1 + t * t)
    zs = distinct_rationals(rng, s, accept_each=lambda v: v != 1,
                            accept_tuple=oracle_asep_accept_tuple)
    return p, zs


def oracle_lattice_ratio(num, den):
    return qdiv(num, den) if is_exact(den) else num / den


def oracle_correlations_ratio(num, den):
    return qdiv(num, den) if is_exact(num) and is_exact(den) else num / den


# -- the strategies -------------------------------------------------------------


# values with many reciprocal pairs, so that some subset products are 1
RECIPROCALS = st.sampled_from([Fraction(v) for v in (
    "1", "-1", "2", "1/2", "3", "1/3", "2/3", "3/2", "1/6", "6", "5/4")])
VALUES = {"int": INTS, "fraction": st.one_of(INTS, FRACTIONS), "mpf": MPFS}


def assert_same(got, want):
    assert type(got) is type(want)
    assert got == want


# -- the permutation stream -----------------------------------------------------


def order_dependent_kernel(*vs):
    """A kernel whose value, and whose rounding, depend on the order of its
    arguments."""
    val = ONE
    for j, v in enumerate(vs):
        val = val * (v + j + 1)
        for w in vs[j + 1:]:
            val = val / (w * w + j + 2)
    return val


@SETTINGS
@given(st.sampled_from(sorted(VALUES)), st.data())
def test_antisymmetrize_matches_the_cached_stream(kind, data):
    values = data.draw(st.lists(VALUES[kind], min_size=0, max_size=5))
    got = antisymmetrize(order_dependent_kernel, values)
    want = oracle_antisymmetrize(order_dependent_kernel, values)
    assert_same(got, want)


def test_antisymmetrize_of_a_trig_kernel_keeps_its_bits():
    lams = [mpmath.mpf(1) + mpmath.mpf(j) / 7 for j in range(5)]

    def kernel(*ls):
        val = mpmath.mpf(1)
        for j in range(5):
            for k in range(j + 1, 5):
                val *= mpmath.sin(ls[j] - ls[k] + mpmath.mpf("0.3"))
                val /= mpmath.sin(ls[k] - ls[j] + mpmath.mpf("0.8"))
        return val

    assert_same(antisymmetrize(kernel, lams), oracle_antisymmetrize(kernel, lams))


# -- the subset-product test ----------------------------------------------------


@st.composite
def subset_pairs(draw):
    """(xs, ys): no ys, free ys, or ys holding the reciprocal of one x, so
    that a one-element pair multiplies to 1."""
    xs = draw(st.lists(RECIPROCALS, max_size=5))
    shape = draw(st.sampled_from(("none", "free", "reciprocal")))
    if shape == "none":
        return xs, []
    ys = draw(st.lists(RECIPROCALS, min_size=len(xs), max_size=len(xs)))
    if shape == "reciprocal" and xs:
        ys[draw(st.integers(0, len(xs) - 1))] = 1 / draw(st.sampled_from(xs))
    return xs, ys


@SETTINGS
@given(subset_pairs())
def test_subset_products_avoid_one_matches_the_loops(pair):
    xs, ys = pair
    want = oracle_subset_products_avoid_one(xs, ys)
    assert subset_products_avoid_one(xs, ys) is want
    if not ys:
        assert oracle_asep_accept_tuple(xs) is want


def test_subset_products_equal_to_one_are_found():
    two, three = Fraction(2), Fraction(3)
    assert not subset_products_avoid_one([two, Fraction(1, 2)])
    assert not subset_products_avoid_one([two, three, Fraction(1, 6)])
    assert subset_products_avoid_one([two, three, Fraction(1, 5)])
    assert not subset_products_avoid_one([two, three], [Fraction(1, 2), Fraction(7)])
    # only the pair of two-element subsets multiplies to 1
    assert not subset_products_avoid_one([two, three], [Fraction(1, 5), Fraction(5, 6)])
    # unequal sizes do not count: 2 * 3 * (1/6) is not an equal-size pair
    assert subset_products_avoid_one([two, three], [Fraction(1, 6), Fraction(7)])
    assert subset_products_avoid_one([])


def test_asep_parameters_draw_what_the_sampling_copy_drew():
    for seed in range(40):
        for s in range(1, 6):
            ours, theirs = DeterministicRng(seed), DeterministicRng(seed)
            assert asep_parameters(ours, s) == oracle_asep_parameters(theirs, s)
            assert ours.state == theirs.state


# -- division -------------------------------------------------------------------


@SETTINGS
@given(st.sampled_from(sorted(VALUES)), st.sampled_from(sorted(VALUES)), st.data())
def test_qdiv_matches_both_ratio_helpers(num_kind, den_kind, data):
    num = data.draw(VALUES[num_kind])
    den = data.draw(VALUES[den_kind].filter(lambda v: v != 0))
    got = divide(qdiv, num, den)
    for oracle in (oracle_lattice_ratio, oracle_correlations_ratio):
        want = divide(oracle, num, den)
        assert got[0] is want[0]   # the exception class: mpf refuses a Fraction
        if got[0] is None:
            assert_same(got[1], want[1])


def divide(fn, num, den):
    """(None, the quotient) or (the exception class, None)."""
    try:
        return None, fn(num, den)
    except TypeError as exc:
        return type(exc), None
