"""The skeleton fold against the row-by-row scan it replaced.

``row_transfer_weight``, ``oracle_forward`` and ``oracle_backward`` are
the transfer fold as it stood before ``lattice.skeleton``: every pair of
flux-sector states is scanned with the ice rule, and a pair whose scan
fails weighs 0.  They are kept as the literal definition of the fold.  The
skeleton fold must give the same vectors, with the same keys in the same
order and bit-identical values, exact or float.
"""

from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from icelab.errors import WidthMismatch
from icelab.lattice import (VERTEX_TYPE, HomogeneousWeights,
                            InhomogeneousWeights, all_down, all_up,
                            backward_vectors, flux_sector_states,
                            _packed, forward_vectors, skeleton)

SETTINGS = settings(max_examples=25, deadline=None, derandomize=True, database=None)


# -- the oracle ----------------------------------------------------------------


def row_transfer_weight(top, bottom, weights, row_index: int):
    """Weight of one horizontal line: product of its vertex weights, or 0
    if no arrow assignment on the horizontal edges is consistent.

    The scan runs right to left; the right boundary edge points right
    (outgoing) and the final west edge must point left (outgoing).  At
    each vertex the west edge is forced by the ice rule.
    """
    n = len(top)
    if len(bottom) != n:
        raise WidthMismatch(f"row widths differ: {len(top)} vs {len(bottom)}")
    east = True
    weight = None
    for r in range(1, n + 1):
        n_up = top[r - 1]
        s_up = bottom[r - 1]
        inward = (not east) + s_up + (not n_up)
        west_in = 2 - inward
        if west_in not in (0, 1):
            return 0
        west = west_in == 1
        letter = VERTEX_TYPE[(west, east, s_up, n_up)]
        w = weights.vertex(letter, row_index, r)
        weight = w if weight is None else weight * w
        east = west
    if east:
        return 0
    return weight


def oracle_forward(n: int, weights) -> tuple:
    vecs = [{all_down(n): 1 if weights.exact else mpmath.mpf(1)}]
    for k in range(1, n + 1):
        prev = vecs[-1]
        nxt = {}
        for below in flux_sector_states(n, k):
            total = None
            for above, w_above in prev.items():
                w = row_transfer_weight(above, below, weights, k)
                if w == 0:
                    continue
                term = w_above * w
                total = term if total is None else total + term
            if total is not None and total != 0:
                nxt[below] = total
        vecs.append(nxt)
    return tuple(vecs)


def oracle_backward(n: int, weights) -> tuple:
    vecs = [None] * (n + 1)
    vecs[n] = {all_up(n): 1 if weights.exact else mpmath.mpf(1)}
    for k in range(n - 1, -1, -1):
        nxt = vecs[k + 1]
        cur = {}
        for above in flux_sector_states(n, k):
            total = None
            for below, w_below in nxt.items():
                w = row_transfer_weight(above, below, weights, k + 1)
                if w == 0:
                    continue
                term = w * w_below
                total = term if total is None else total + term
            if total is not None and total != 0:
                cur[above] = total
        vecs[k] = cur
    return tuple(vecs)


class Word(str):
    """A letter string under concatenation, so that the oracle's row
    product spells out the letters of the line."""

    def __mul__(self, other):
        return Word(str(self) + other)


class Letters:
    exact = True

    def vertex(self, letter, row, position):
        return Word(letter)


# -- strategies ----------------------------------------------------------------

# small weights of both signs
INTS = st.integers(-4, 4).filter(bool)
FRACTIONS = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                      st.sampled_from((1, 2, 3, 4, 6, 9, 10)))
MPFS = st.builds(lambda p, q: mpmath.mpf(p) / q,
                 st.integers(-50, 50).filter(bool), st.sampled_from((1, 3, 7, 10)))


@st.composite
def homogeneous(draw, scalars):
    return HomogeneousWeights(*(draw(scalars) for _ in range(3)))


@st.composite
def inhomogeneous(draw, n):
    lambdas = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n, unique=True))
    nus = draw(st.lists(st.integers(-40, 40), min_size=n, max_size=n))
    eta = draw(st.integers(1, 30))
    return InhomogeneousWeights(tuple(mpmath.mpf(x) / 17 for x in lambdas),
                                tuple(mpmath.mpf(x) / 19 for x in nus),
                                mpmath.mpf(eta) / 23)


class TableWeights:
    """Exact weights per (letter, row, position), in the shape of
    ``InhomogeneousWeights``: small ints of both signs, so that paths into
    a state can cancel and the fold must drop the zero entry."""

    exact = True

    def __init__(self, table):
        self.table = table

    def vertex(self, letter, row, position):
        return self.table[letter, row, position]


@st.composite
def tables(draw, n):
    keys = [(x, k, r) for x in "abc" for k in range(1, n + 1) for r in range(1, n + 1)]
    return TableWeights(dict(zip(keys, draw(st.lists(st.integers(-2, 2), min_size=len(keys),
                                                     max_size=len(keys))))))


WEIGHTS = {"int": lambda n: homogeneous(INTS),
           "fraction": lambda n: homogeneous(FRACTIONS),
           "float": lambda n: homogeneous(MPFS),
           "inhomogeneous": inhomogeneous,
           "table": tables}


def same_vectors(got, want):
    """Equal keys in equal order, equal values of the same type; mpmath
    values are compared exactly, since the fold adds in the oracle's order."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert list(g) == list(w)
        for state, value in w.items():
            assert g[state] == value and type(g[state]) is type(value), (state, g[state], value)


# -- properties ----------------------------------------------------------------


@pytest.mark.parametrize("kind", sorted(WEIGHTS))
@SETTINGS
@given(data=st.data())
def test_skeleton_fold_matches_the_row_scan(kind, data):
    n = data.draw(st.integers(0, 6), label="n")
    weights = data.draw(WEIGHTS[kind](n), label="weights")
    # past the cache: equal int and Fraction weights share its entries
    same_vectors(forward_vectors.__wrapped__(n, weights), oracle_forward(n, weights))
    same_vectors(backward_vectors.__wrapped__(n, weights), oracle_backward(n, weights))


@pytest.mark.parametrize("n", range(1, 9))
def test_skeleton_pairs_are_the_nonzero_scans(n):
    sk = skeleton(n)
    letters = Letters()
    scanned = total = 0
    for k in range(1, n + 1):
        assert sk.states[k - 1] == tuple(flux_sector_states(n, k - 1))
        assert sk.states[k] == tuple(flux_sector_states(n, k))
        listed = {}
        for below, (aboves, joined, classes) in zip(sk.states[k], sk.rows[k - 1]):
            assert list(aboves) == sorted(set(aboves))
            assert len(joined) == n * len(aboves) == n * len(classes)
            for m, (i, c) in enumerate(zip(aboves, classes)):
                word = joined[m * n:(m + 1) * n]
                assert (word.count("a"), word.count("b"), word.count("c")) == sk.counts[c]
                listed[sk.states[k - 1][i], below] = word
        for above in sk.states[k - 1]:
            for below in sk.states[k]:
                total += 1
                word = row_transfer_weight(above, below, letters, k)
                if word != 0:
                    scanned += 1
                    assert listed.pop((above, below)) == word
        assert not listed
    if n == 8:
        assert (scanned, total) == (3280, 11440)


def test_indices_past_a_byte_stay_plain_ints():
    assert _packed([0, 255]) == bytes([0, 255])
    assert _packed([0, 256]) == (0, 256)
