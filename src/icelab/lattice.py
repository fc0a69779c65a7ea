"""Ground-truth oracle: transfer-matrix and direct enumeration of the
DWBC six-vertex model.

Geometry and conventions (fixed here once, used everywhere):

* the lattice has N horizontal lines (numbered 1..N, top to bottom) and
  N vertical lines (numbered 1..N, right to left);
* domain wall boundary conditions: arrows on the left and right external
  horizontal edges point out of the lattice, arrows on the top and
  bottom external vertical edges point into it (down and up);
* a row state is the tuple of vertical-edge arrows between two
  consecutive horizontal lines; ``state[i]`` is the edge at position
  r = i+1 counted right to left, True meaning an up arrow;
* the vertex at horizontal line k and position r carries, in the
  inhomogeneous parametrization, the weights a(lam_r, nu_k),
  b(lam_r, nu_k), c = sin 2*eta.

The six admissible vertices are exactly the edge assignments with two
inward and two outward arrows.  They are encoded in ``VERTEX_TYPE`` by
the absolute directions (west-points-right, east-points-right,
south-points-up, north-points-up); all-parallel pairs are the a
vertices, the horizontal-in/vertical-out and horizontal-out/vertical-in
pairs are the c vertices.

The transfer fold runs on a skeleton that does not depend on the
weights.  The row states below consecutive horizontal lines interlace,
like consecutive rows of a monotone triangle, so ``skeleton(n)`` lists
once per n the interlacing pairs of states and the vertex letters of the
line between them.  A fold then does one multiply and one add per listed
pair.  Exact homogeneous weights fold on integers and are divided once
at the end; any other weights multiply their vertex values in the order
a right-to-left scan of the line uses, so float results are the same as
a scan of every pair of states gives.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence, Union

import mpmath

from .algebra.field import is_exact, qdiv, rational
from .errors import (DegenerateWeights, CoincidingParameters,
                     PositionsOutOfRange, WidthMismatch)

RowState = tuple  # tuple of bools, True = up arrow, index i = position i+1

# (west right?, east right?, south up?, north up?) -> weight letter
VERTEX_TYPE = {
    (True, True, True, True): "a",
    (False, False, False, False): "a",
    (True, True, False, False): "b",
    (False, False, True, True): "b",
    (True, False, False, True): "c",
    (False, True, True, False): "c",
}


@dataclass(frozen=True)
class HomogeneousWeights:
    """Weights (a, b, c), either exact rationals or mpmath floats.

    ``exact`` takes part in equality and hashing, so that float weights
    never share a cache entry with the equal exact ones.  Integral exact
    entries are stored as ints, so that equal exact weights, which share
    cache entries, also give values of the same type."""

    a: object
    b: object
    c: object
    exact: bool = field(init=False, repr=False)

    def __post_init__(self):
        if self.a == 0 or self.b == 0 or self.c == 0:
            raise DegenerateWeights(f"weights must be nonzero, got {self}")
        exact = is_exact(self.a) and is_exact(self.b) and is_exact(self.c)
        object.__setattr__(self, "exact", exact)
        if exact:
            for name in "abc":
                x = getattr(self, name)
                if type(x) is not int and x.denominator == 1:
                    object.__setattr__(self, name, int(x.numerator))

    @property
    def t(self):
        return qdiv(self.b, self.a)

    @property
    def delta(self):
        num = self.a**2 + self.b**2 - self.c**2
        den = 2 * self.a * self.b
        return qdiv(num, den)

    def vertex(self, letter: str, row: int, position: int):
        return getattr(self, letter)

    def integer_scaled(self) -> "HomogeneousWeights":
        """Same weight ratios with integer entries (probabilities are
        invariant under a common rescaling of a, b, c)."""
        if not self.exact:
            raise ValueError("only exact weights can be integer-scaled")
        qa, qb, qc = (rational(x) for x in (self.a, self.b, self.c))
        common = qa.denominator * qb.denominator * qc.denominator
        return HomogeneousWeights(int(qa * common), int(qb * common), int(qc * common))


@dataclass(frozen=True)
class InhomogeneousWeights:
    """Spectral parameters: lambdas on vertical lines (right to left),
    nus on horizontal lines (top to bottom), crossing parameter eta.

    The lambdas must be pairwise distinct; coinciding nus are allowed
    here (the partially homogeneous model sets all of them to zero) and
    distinctness is enforced where a formula actually divides by their
    differences.
    """

    lambdas: tuple
    nus: tuple
    eta: object

    def __post_init__(self):
        if len(self.lambdas) != len(self.nus):
            raise WidthMismatch("need as many lambdas as nus")
        if len(set(self.lambdas)) != len(self.lambdas):
            raise CoincidingParameters("lambdas must be pairwise distinct")

    @property
    def exact(self) -> bool:
        return False

    def vertex(self, letter: str, row: int, position: int):
        lam = self.lambdas[position - 1]
        nu = self.nus[row - 1]
        if letter == "a":
            return mpmath.sin(lam - nu + self.eta)
        if letter == "b":
            return mpmath.sin(lam - nu - self.eta)
        return mpmath.sin(2 * self.eta)


WeightSpec = Union[HomogeneousWeights, InhomogeneousWeights]


def weights_from_trig(lam, eta) -> HomogeneousWeights:
    """Homogeneous float weights a=sin(lam+eta), b=sin(lam-eta), c=sin 2 eta."""
    return HomogeneousWeights(mpmath.sin(lam + eta), mpmath.sin(lam - eta),
                              mpmath.sin(2 * eta))


# -- row states ------------------------------------------------------


def all_down(n: int) -> RowState:
    return (False,) * n


def all_up(n: int) -> RowState:
    return (True,) * n


def state_from_positions(n: int, positions: Sequence[int]) -> RowState:
    """Row state with up arrows exactly at the given positions, which must
    be strictly increasing within 1..n."""
    if any(not 1 <= r <= n for r in positions):
        raise PositionsOutOfRange(f"positions {positions} outside 1..{n}")
    if any(r2 <= r1 for r1, r2 in zip(positions, positions[1:])):
        raise PositionsOutOfRange(f"positions {positions} not strictly increasing")
    state = [False] * n
    for r in positions:
        state[r - 1] = True
    return tuple(state)


def positions_of(state: RowState) -> tuple:
    return tuple(i + 1 for i, up in enumerate(state) if up)


def flux_sector_states(n: int, s: int) -> list:
    """All C(n, s) states with s up arrows, lexicographic in position sets."""
    if not 0 <= s <= n:
        raise PositionsOutOfRange(f"flux {s} outside 0..{n}")
    return [state_from_positions(n, combo)
            for combo in itertools.combinations(range(1, n + 1), s)]


# -- transfer matrix -------------------------------------------------


@dataclass(frozen=True)
class Skeleton:
    """The nonzero row pairs of the n x n DWBC lattice, which do not
    depend on the weights.

    ``states[k]`` is ``flux_sector_states(n, k)``, the states below
    horizontal line k (``states[0]`` is the top boundary).  Line k joins a
    state of ``states[k-1]`` above it to one of ``states[k]`` below it, and
    ``rows[k-1][j]`` holds the pairs whose lower state is ``states[k][j]``
    as ``(aboves, letters, classes)``:

    * ``aboves``, the increasing indices into ``states[k-1]`` of the upper
      states that interlace with it;
    * ``letters``, each pair's vertex letters, one character per position
      r = 1..n, joined into one string of n characters per pair;
    * ``classes``, each pair's index into ``counts``, which lists once
      each distinct triple (numbers of a, b and c vertices) of a line.
    """

    states: tuple
    rows: tuple
    counts: tuple


@lru_cache(maxsize=None)
def skeleton(n: int) -> Skeleton:
    """The interlacing pairs and their letters for lattice size n.

    Nonzero pairs are the consecutive rows of a monotone triangle (Mills,
    Robbins & Rumsey 1983), so each lower state's partners are generated
    by the ice-rule scan rather than filtered out of all C(n, k-1)
    candidates."""
    states = tuple(tuple(flux_sector_states(n, k)) for k in range(n + 1))
    rows = []
    counts: dict = {}
    for k in range(1, n + 1):
        index = {state: i for i, state in enumerate(states[k - 1])}
        groups = []
        for below in states[k]:
            pairs = sorted((index[above], letters)
                           for above, letters in _lines_above(below))
            groups.append((
                _packed([i for i, _ in pairs]),
                "".join(letters for _, letters in pairs),
                _packed([counts.setdefault((letters.count("a"), letters.count("b"),
                                            letters.count("c")), len(counts))
                         for _, letters in pairs])))
        rows.append(tuple(groups))
    return Skeleton(states, tuple(rows), tuple(counts))


def _packed(indices: list):
    """The indices one byte each when they fit (every n up to 10), else a
    tuple; both iterate as ints."""
    return bytes(indices) if max(indices) < 256 else tuple(indices)


def _lines_above(below: RowState) -> list:
    """Every (above, letters) for which one horizontal line can sit over
    the row state ``below``.

    The scan runs right to left; the right boundary edge points right
    (outgoing) and the final west edge must point left (outgoing).  At
    each vertex the north edge is free and the west edge is forced by the
    ice rule.
    """
    partial = [(True, (), "")]  # (east edge points right, north edges, letters)
    for s_up in below:
        grown = []
        for east, above, letters in partial:
            for n_up in (False, True):
                west_in = 2 - ((not east) + s_up + (not n_up))
                if west_in in (0, 1):
                    west = west_in == 1
                    grown.append((west, above + (n_up,),
                                  letters + VERTEX_TYPE[(west, east, s_up, n_up)]))
        partial = grown
    return [(above, letters) for east, above, letters in partial if not east]


def _row_weights(n: int, weights: WeightSpec, sk: Skeleton) -> tuple:
    """(one, rows, scale) for one fold.

    ``rows[k-1][j]`` lists the line weights of the pairs of
    ``sk.rows[k-1][j]``, None for a zero weight.  Exact homogeneous
    weights are replaced by the integers d*a, d*b, d*c, with d their least
    common denominator, and a line's weight is looked up by its letter
    counts; ``scale(value, lines)`` divides a fold of that many lines by
    d^(n*lines), which is exact because such a block is homogeneous of
    degree n*lines in (a, b, c).  Any other weights multiply their vertex
    values in position order r = 1..n, from a table of at most 3n^2, so
    float values are the ones a scan of the line gives; ``scale`` returns
    the value as it is.  ``one`` is the boundary vectors' entry.
    """
    if isinstance(weights, HomogeneousWeights) and weights.exact:
        rationals = [rational(x) for x in (weights.a, weights.b, weights.c)]
        d = math.lcm(*(q.denominator for q in rationals))
        a, b, c = (q.numerator * (d // q.denominator) for q in rationals)
        power = [a ** i * b ** j * c ** l for i, j, l in sk.counts].__getitem__
        rows = tuple(tuple(list(map(power, classes)) for _, _, classes in row)
                     for row in sk.rows)
        # int weights have int products, so their entries stay ints
        if all(type(x) is int for x in (weights.a, weights.b, weights.c)):
            return 1, rows, lambda value, lines: value
        return 1, rows, lambda value, lines: rational(value, d ** (n * lines))

    def line(k):   # (vertex values by position and letter, prefix memo)
        return [{x: weights.vertex(x, k, r) for x in "abc"} for r in range(1, n + 1)], {}

    if isinstance(weights, HomogeneousWeights):
        lines = [line(1)] * n   # every line has the same vertex values
    else:
        lines = [line(k) for k in range(1, n + 1)]
    rows = tuple(tuple([None if (w := _prefix_product(letters[m:m + n], vertex, partial)) == 0
                        else w for m in range(0, len(letters), n)]
                       for _, letters, _ in row)
                 for row, (vertex, partial) in zip(sk.rows, lines))
    one = 1 if weights.exact else mpmath.mpf(1)
    return one, rows, lambda value, lines: value


def _prefix_product(letters: str, vertex: list, partial: dict):
    """The product of ``vertex[r-1][letters[r-1]]`` over r = 1..n, left to
    right, as a scan of the line multiplies them.  Letter strings that
    share a prefix share its partial product, memoised in ``partial``."""
    w = partial.get(letters)
    if w is None:
        w = vertex[len(letters) - 1][letters[-1]]
        if len(letters) > 1:
            w = _prefix_product(letters[:-1], vertex, partial) * w
        partial[letters] = w
    return w


def _check_width(n: int, weights: WeightSpec):
    if isinstance(weights, InhomogeneousWeights) and len(weights.lambdas) != n:
        raise WidthMismatch("inhomogeneous parameters must match the lattice size")


@lru_cache(maxsize=None)
def forward_vectors(n: int, weights: WeightSpec) -> tuple:
    """vec[k] maps each row state below line k to the weight of folding
    rows 1..k down from the all-down top boundary.  DWBC forces exactly k
    up arrows below line k, so only that flux sector is folded, one
    multiply and one add per interlacing pair of the skeleton."""
    _check_width(n, weights)
    sk = skeleton(n)
    one, rows, scale = _row_weights(n, weights, sk)
    vals = [one]
    vecs = [{sk.states[0][0]: one}]
    for k in range(1, n + 1):
        prev, vals = vals, []
        for (aboves, _, _), line in zip(sk.rows[k - 1], rows[k - 1]):
            total = None
            for i, w in zip(aboves, line):
                v = prev[i]
                if v is None or w is None:
                    continue
                term = v * w
                total = term if total is None else total + term
            vals.append(None if total is None or total == 0 else total)
        vecs.append({state: scale(v, k) for state, v in zip(sk.states[k], vals)
                     if v is not None})
    return tuple(vecs)


@lru_cache(maxsize=None)
def backward_vectors(n: int, weights: WeightSpec) -> tuple:
    """vec[k] maps each row state below line k to the weight of folding
    rows k+1..n down to the all-up bottom boundary.  Each lower state
    passes its weight up to its interlacing partners; in that order every
    upper state sums its terms over the lower states in flux-sector order."""
    _check_width(n, weights)
    sk = skeleton(n)
    one, rows, scale = _row_weights(n, weights, sk)
    vals = [one]
    vecs = [None] * (n + 1)
    vecs[n] = {sk.states[n][0]: one}
    for k in range(n - 1, -1, -1):
        totals = [None] * len(sk.states[k])
        for v, (aboves, _, _), line in zip(vals, sk.rows[k], rows[k]):
            if v is None:
                continue
            for i, w in zip(aboves, line):
                if w is None:
                    continue
                term = w * v
                total = totals[i]
                totals[i] = term if total is None else total + term
        vals = [None if t is None or t == 0 else t for t in totals]
        vecs[k] = {state: scale(v, n - k) for state, v in zip(sk.states[k], vals)
                   if v is not None}
    return tuple(vecs)


def partition_function(n: int, weights: WeightSpec):
    """Z_N by folding the transfer matrix top to bottom."""
    return forward_vectors(n, weights)[n][all_up(n)]


def partition_function_bottom_up(n: int, weights: WeightSpec):
    """Z_N folded bottom to top; must agree with the forward fold."""
    return backward_vectors(n, weights)[0][all_down(n)]


def z_top_enum(n: int, s: int, positions: Sequence[int], weights: WeightSpec):
    """Partition function of the top s x N part, with up arrows at the
    given positions on its lower boundary."""
    state = state_from_positions(n, positions)
    if len(positions) != s:
        raise PositionsOutOfRange(f"expected {s} positions, got {len(positions)}")
    return forward_vectors(n, weights)[s].get(state, 0)


def z_bot_enum(n: int, s: int, positions: Sequence[int], weights: WeightSpec):
    """Partition function of the bottom (N-s) x N part, with up arrows at
    the given positions on its upper boundary."""
    state = state_from_positions(n, positions)
    if len(positions) != s:
        raise PositionsOutOfRange(f"expected {s} positions, got {len(positions)}")
    return backward_vectors(n, weights)[s].get(state, 0)


def _probability_weights(weights: WeightSpec) -> WeightSpec:
    # probabilities are invariant under rescaling (a,b,c).  The fold clears
    # the denominators of exact weights on its own, so this no longer makes
    # the arithmetic integral; it is kept because leaving it out (with
    # sym_generating_poly clearing its rows' denominators itself) raised
    # the fold-exact benchmark's peak RSS by 0.12-0.14 MiB, over its bound
    if isinstance(weights, HomogeneousWeights) and weights.exact:
        return weights.integer_scaled()
    return weights


def rcp_enum(n: int, s: int, positions: Sequence[int], weights: WeightSpec):
    """Probability of the arrow pattern `positions` on the vertical edges
    between horizontal lines s and s+1."""
    w = _probability_weights(weights)
    num = z_top_enum(n, s, positions, w) * z_bot_enum(n, s, positions, w)
    return qdiv(num, partition_function(n, w))


def boundary_correlation(n: int, weights: WeightSpec, r: int):
    """Probability that the single up arrow between horizontal lines 1 and
    2 sits at position r.  For n == 1 the bottom part is empty and the
    value is 1 by the sum rule."""
    return rcp_enum(n, 1, (r,), weights)


def efp_enum(n: int, r: int, s: int, weights: WeightSpec):
    """Probability that the s x (N-r) top-left corner is frozen: all up
    arrows between lines s and s+1 sit at positions <= r."""
    if not 1 <= r <= n:
        raise PositionsOutOfRange(f"r={r} outside 1..{n}")
    if not 0 <= s <= n:
        raise PositionsOutOfRange(f"s={s} outside 0..{n}")
    w = _probability_weights(weights)
    fwd = forward_vectors(n, w)[s]
    bwd = backward_vectors(n, w)[s]
    z = partition_function(n, w)
    total = 0
    for combo in itertools.combinations(range(1, r + 1), s):
        state = state_from_positions(n, combo)
        if state in fwd and state in bwd:
            total = total + fwd[state] * bwd[state]
    return qdiv(total, z)


# -- direct enumeration (independent of the transfer matrix) ----------


def dwbc_configurations(n: int) -> Iterator[tuple]:
    """Backtracking enumeration of all DWBC configurations.

    Yields (letters, vertical_edges): ``letters[k][col]`` is the vertex
    letter at horizontal line k+1 and array column col (left to right, so
    position r = n - col), ``vertical_edges[k]`` is the row state below
    horizontal line k (index 0 = the all-down top boundary), stored in
    position order like RowState.
    """
    top = all_down(n)
    letters: list = []
    vert = [top]

    def scan_rows(k: int):
        if k > n:
            if vert[-1] == all_up(n):
                yield tuple(letters), tuple(vert)
            return
        above = vert[-1]
        for row_letters, below in _row_assignments(n, above):
            letters.append(row_letters)
            vert.append(below)
            yield from scan_rows(k + 1)
            letters.pop()
            vert.pop()

    yield from scan_rows(1)


def _row_assignments(n: int, above: RowState) -> Iterator[tuple]:
    """All consistent (letters, below-state) pairs for one horizontal line."""
    results = []

    def extend(col: int, west: bool, letters: tuple, below: tuple):
        if col == n:
            if west:  # east boundary edge must point right (outgoing)
                results.append((letters, below))
            return
        # array column col is position r = n - col; north edge from `above`
        r = n - col
        n_up = above[r - 1]
        for east in (False, True):
            for s_up in (False, True):
                inward = west + (not east) + s_up + (not n_up)
                if inward != 2:
                    continue
                letter = VERTEX_TYPE[(west, east, s_up, n_up)]
                nb = list(below)
                nb[r - 1] = s_up
                extend(col + 1, east, letters + (letter,), tuple(nb))

    extend(0, False, (), (False,) * n)
    for letters, below in results:
        yield letters, below


def brute_force_partition(n: int, weights: WeightSpec):
    """Sum of configuration weights over the explicit enumeration."""
    total = 0
    for letters, _ in dwbc_configurations(n):
        w = None
        for k, row in enumerate(letters, start=1):
            for col, letter in enumerate(row):
                x = weights.vertex(letter, k, n - col)
                w = x if w is None else w * x
        total = total + w
    return total


def brute_force_rcp(n: int, s: int, positions: Sequence[int], weights: WeightSpec):
    """Row configuration probability by filtering the enumeration on the
    cut edges between lines s and s+1."""
    target = state_from_positions(n, positions)
    matched = 0
    total = 0
    for letters, vert in dwbc_configurations(n):
        w = None
        for k, row in enumerate(letters, start=1):
            for col, letter in enumerate(row):
                x = weights.vertex(letter, k, n - col)
                w = x if w is None else w * x
        total = total + w
        if vert[s] == target:
            matched = matched + w
    return qdiv(matched, total)
