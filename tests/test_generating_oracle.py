"""The Cauchy-Binet/Schur construction of h(N, s) against the division
recursion it replaced.

``sym_generating_poly`` once expanded det[g_j(z_k)] by Laplace, one
column at a time, and divided each cofactor sum by the Vandermonde
factors (z_m - z_k) by Horner division.  On floats the division left
rounding noise as a remainder, which it accepted below a fixed 1e-6 of
the largest coefficient, and the quotient kept noise terms, which a chop
at eps * 1024 dropped.  That recursion is kept here as the oracle.

Under derandomized Hypothesis: on exact weights the new polynomial must
equal the oracle term for term with the same value types; the minors DP
must equal ``poly.det`` on every column set, rank-deficient matrices
included; and on float weights its largest relative coefficient error
against the exact polynomial of the same rationals must stay within a few
units in the last place of the oracle's.
"""

import itertools
from fractions import Fraction

import mpmath
from hypothesis import given, settings, strategies as st

from icelab.algebra.field import qdiv
from icelab.algebra.poly import Poly, det, poly_max_rel_err
from icelab.correlations import (_h_numerators, _zvar, boundary_generating_fn,
                                 maximal_minors, sym_generating_poly)
from icelab.errors import NonzeroRemainder
from icelab.lattice import HomogeneousWeights
from test_multiply_kernel import SETTINGS


# -- the oracle: the division recursion as it was -------------------------------


def _divide_linear(num: Poly, var_a: str, var_b: str, float_mode: bool) -> Poly:
    """Exact quotient num / (var_a - var_b) by synthetic (Horner) division,
    carried out on raw term dicts.

    In float mode the remainder is rounding noise and is dropped after a
    magnitude check; in exact mode any nonzero remainder raises.
    """
    if num.is_zero():
        return num
    variables = num.vars
    if var_b not in variables:
        variables = variables + (var_b,)
        num = num.aligned(variables)
    ia = variables.index(var_a)
    ib = variables.index(var_b)
    slices: dict[int, dict] = {}
    for mono, c in num.terms.items():
        slices.setdefault(mono[ia], {})[mono[:ia] + (0,) + mono[ia + 1:]] = c
    d = max(slices)
    out: dict[tuple, object] = {}
    carry: dict[tuple, object] = {}
    for e in range(d, -1, -1):
        cur = dict(slices.get(e, ()))
        for mono, c in carry.items():  # var_b * previous quotient slice
            key = mono[:ib] + (mono[ib] + 1,) + mono[ib + 1:]
            s = cur.get(key, 0) + c
            if s == 0:
                cur.pop(key, None)
            else:
                cur[key] = s
        if e == 0:
            remainder = cur
        else:
            for mono, c in cur.items():
                out[mono[:ia] + (e - 1,) + mono[ia + 1:]] = c
            carry = cur
    if remainder:
        if not float_mode:
            raise NonzeroRemainder(
                f"division by ({var_a} - {var_b}) left a remainder")
        scale = max(abs(mpmath.mpf(1) * c) for c in num.terms.values())
        worst = max(abs(mpmath.mpf(1) * c) for c in remainder.values())
        if scale == 0 or worst / scale > 1e-6:
            raise NonzeroRemainder(
                f"float division by ({var_a} - {var_b}) left a large remainder")
    return Poly(variables, out)


def _chop(poly: Poly) -> Poly:
    """Drop float coefficients that are rounding residue relative to the
    largest coefficient (division remainders below working precision)."""
    if not poly.terms:
        return poly
    scale = max(abs(mpmath.mpf(1) * c) for c in poly.terms.values())
    cutoff = scale * mpmath.eps * 1024
    return Poly(poly.vars,
                {e: c for e, c in poly.terms.items()
                 if abs(mpmath.mpf(1) * c) > cutoff})


def oracle_sym_generating_poly(n: int, s: int, weights) -> Poly:
    exact = isinstance(weights, HomogeneousWeights) and weights.exact
    if exact:
        work = weights.integer_scaled()
        rows = []
        denom = 1
        for j in range(1, s + 1):
            nums, z = _h_numerators(n - s + j, work)
            rows.append(Poly(("_z",), {(r,): c for r, c in enumerate(nums)}))
            denom *= z
    else:
        work = weights
        rows = [boundary_generating_fn(n - s + j, work).as_poly("_z")
                for j in range(1, s + 1)]
        denom = 1

    zpoly = Poly.variable("_z")
    g_rows = [(zpoly ** (s - j)) * ((zpoly - 1) ** (j - 1)) * rows[j - 1]
              for j in range(1, s + 1)]

    float_mode = not exact
    memo: dict[frozenset, Poly] = {frozenset(): Poly.const(1)}

    def reduced_minor(row_set: frozenset) -> Poly:
        cached = memo.get(row_set)
        if cached is not None:
            return cached
        rows_sorted = sorted(row_set)
        m = len(rows_sorted)
        var = _zvar(m)
        total = None
        for i, j in enumerate(rows_sorted, start=1):
            g = Poly((var,), g_rows[j - 1].terms)
            term = g * reduced_minor(row_set - {j})
            if (i + m) % 2:
                term = -term
            total = term if total is None else total + term
        for k in range(1, m):
            total = _divide_linear(total, var, _zvar(k), float_mode)
        memo[row_set] = total
        return total

    result = reduced_minor(frozenset(range(1, s + 1)))
    memo.clear()
    result = result.aligned(tuple(_zvar(i) for i in range(1, s + 1)))
    if denom != 1:
        result = Poly(result.vars,
                      {e: qdiv(c, denom) for e, c in result.terms.items()})
    if float_mode:
        result = _chop(result)
    return result


# -- the strategies ---------------------------------------------------------------


# positive, so that no partition function vanishes
POSITIVE = st.builds(Fraction, st.integers(1, 30), st.integers(1, 30))
TRIPLES = st.tuples(POSITIVE, POSITIVE, POSITIVE)
FEW = settings(SETTINGS, max_examples=15)


def assert_same_terms(got: Poly, want: Poly):
    assert got.vars == want.vars
    assert got.terms == want.terms
    assert all(type(got.terms[e]) is type(c) for e, c in want.terms.items())


# -- exact weights: term for term -------------------------------------------------


@FEW
@given(TRIPLES)
def test_schur_expansion_matches_the_recursion(triple):
    weights = HomogeneousWeights(*triple)
    for n in range(1, 7):
        for s in range(1, n + 1 if n < 6 else 5):
            assert_same_terms(sym_generating_poly(n, s, weights),
                              oracle_sym_generating_poly(n, s, weights))


def test_schur_expansion_matches_the_recursion_at_full_width():
    # (6, 6) takes the oracle about 3 s, so it runs on one triple only
    weights = HomogeneousWeights(Fraction(1, 2), Fraction(5, 3), Fraction(3, 2))
    for s in (5, 6):
        assert_same_terms(sym_generating_poly(6, s, weights),
                          oracle_sym_generating_poly(6, s, weights))


# -- the minors DP ----------------------------------------------------------------


@SETTINGS
@given(st.data())
def test_maximal_minors_match_det(data):
    k = data.draw(st.integers(1, 4))
    m = data.draw(st.integers(k, 7))
    entries = st.lists(st.integers(-3, 3), min_size=m, max_size=m)
    rows = data.draw(st.lists(entries, min_size=k, max_size=k))
    deficient = data.draw(st.booleans())
    if deficient:  # the last row a combination of the others (zero when k = 1)
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=k - 1, max_size=k - 1))
        rows[-1] = [sum(a * row[c] for a, row in zip(coeffs, rows)) for c in range(m)]
    minors = maximal_minors(rows)
    assert all(type(v) is int and v != 0 for v in minors.values())
    for cols in itertools.combinations(range(m), k):
        mask = sum(1 << c for c in cols)
        assert minors.get(mask, 0) == det([[row[c] for c in cols] for row in rows])
    if deficient:
        assert not minors
    assert all(mask.bit_count() == k and mask < 1 << m for mask in minors)


# -- float weights: no worse than the recursion --------------------------------------


@FEW
@given(TRIPLES)
def test_float_coefficients_are_as_accurate_as_the_recursion(triple):
    exact = HomogeneousWeights(*triple)
    floats = HomogeneousWeights(*(mpmath.mpf(x.numerator) / x.denominator
                                  for x in triple))
    # a few units in the last place: both routes round every product and
    # sum, in different orders; the worst excess seen was 3.5 units
    slack = 8 * mpmath.eps
    for n in range(1, 6):
        for s in range(1, min(n, 4) + 1):
            want = sym_generating_poly(n, s, exact)
            got = sym_generating_poly(n, s, floats)
            assert all(isinstance(c, mpmath.mpf) for c in got.terms.values())
            ours = poly_max_rel_err(got, want)
            theirs = poly_max_rel_err(oracle_sym_generating_poly(n, s, floats), want)
            assert ours <= theirs + slack, (n, s, ours, theirs)
