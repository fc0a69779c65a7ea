"""Generating polynomials and every contour representation against the
enumeration oracle."""

import itertools

import pytest

from icelab.algebra import Poly, SeriesRing, poly_exact_div, rational as Q
from icelab.correlations import (ResidueSpec,
                                 boundary_generating_fn,
                                 check_ordered_geometric_sum,
                                 check_symmetric_residue_collapse,
                                 efp_contour_asym, efp_contour_cauchy,
                                 efp_contour_double, efp_contour_sym,
                                 iterated_residue,
                                 sym_generating_at, sym_generating_poly,
                                 u_map, zbot_contour, ztop_contour)
from icelab.errors import CoincidingParameters, PoleHit, PositionsOutOfRange
from icelab.lattice import (HomogeneousWeights, efp_enum, flux_sector_states,
                            partition_function, positions_of, rcp_enum,
                            z_bot_enum, z_top_enum)
from icelab.sampling import DeterministicRng, weight_triple
from test_contour_kernel import oracle_residue

FF = HomogeneousWeights(Q(3), Q(4), Q(5))
GEN = HomogeneousWeights(Q(2), Q(3), Q(4))
HALF = HomogeneousWeights(Q(1, 2), Q(5, 3), Q(3, 2))


# -- one-row generating function -----------------------------------------


def test_generating_function_single_site():
    gf = boundary_generating_fn(1, FF)
    assert gf.coefficients == (Q(1),)
    assert gf.eval(Q(7)) == 1


def test_generating_function_normalization():
    for w in (FF, GEN):
        for n in range(1, 7):
            assert boundary_generating_fn(n, w).eval(Q(1)) == 1


def test_generating_function_equal_weights():
    eq = HomogeneousWeights(Q(2), Q(2), Q(3))
    assert boundary_generating_fn(2, eq).coefficients == (Q(1, 2), Q(1, 2))


# -- the symmetric generating polynomial ----------------------------------


def test_sym_generating_poly_single_row():
    for n in (1, 2, 3, 4):
        assert sym_generating_poly(n, 1, FF) == \
            boundary_generating_fn(n, FF).as_poly("z1")


def test_sym_generating_poly_matches_direct_determinant():
    # independent construction: expand the 2x2 determinant by hand and
    # divide by the Vandermonde with an explicit remainder check
    n, s = 3, 2
    h_rows = [boundary_generating_fn(n - s + j, FF).as_poly("_z")
              for j in (1, 2)]
    z1, z2 = Poly.variable("z1"), Poly.variable("z2")

    def entry(j, var_poly, var_name):
        g = Poly((var_name,), h_rows[j - 1].terms)
        return var_poly ** (s - j) * (var_poly - 1) ** (j - 1) * g

    num = entry(1, z1, "z1") * entry(2, z2, "z2") \
        - entry(1, z2, "z2") * entry(2, z1, "z1")
    quotient = poly_exact_div(num, z2 - z1)
    assert quotient == sym_generating_poly(n, s, FF)
    assert quotient.is_symmetric()
    assert quotient.degree("z1") <= n - 1


def test_sym_generating_poly_reduction_symmetry_degree():
    for w in (FF, GEN):
        for n in range(1, 7):
            for s in range(1, n + 1):
                h = sym_generating_poly(n, s, w)
                assert h.is_symmetric()
                assert all(h.degree(f"z{j}") <= n - 1 for j in range(1, s + 1))
                reduced = h.eval_partial({f"z{s}": Q(1)})
                if s == 1:
                    assert reduced == Poly.const(Q(1))
                else:
                    assert reduced == sym_generating_poly(n, s - 1, w)


def test_sym_generating_poly_all_ones_value():
    for n in range(1, 6):
        h = sym_generating_poly(n, n, FF)
        assert h.eval({f"z{j}": Q(1) for j in range(1, n + 1)}) == 1


def test_sym_generating_at_matches_polynomial():
    pts = (Q(1, 2), Q(1, 3), Q(2, 5))
    for (n, s) in ((3, 2), (4, 3), (5, 2)):
        value = sym_generating_at(n, s, pts[:s], FF)
        poly = sym_generating_poly(n, s, FF)
        assert value == poly.eval({f"z{j + 1}": pts[j] for j in range(s)})
    with pytest.raises(CoincidingParameters):
        sym_generating_at(3, 2, (Q(1, 2), Q(1, 2)), FF)


# -- the u variable change -------------------------------------------------


def test_u_map_fixed_points():
    t, d = FF.t, FF.delta
    assert u_map(Q(1), t, d) == 0
    assert u_map(Q(0), t, d) == 1


def test_u_map_series_multiplies_back():
    t, d = Q(4, 3), Q(0)
    ring = SeriesRing(("z",), (2,))
    z = ring.var("z")
    u = u_map(z, t, d)
    a = t * t - 2 * d * t
    assert (u * (z * a + 1)).as_poly() == (-(z - 1)).as_poly()


def test_u_map_pole():
    # (t^2 - 2 d t) z + 1 = 0 at z = -1/(t^2 - 2 d t)
    t, d = Q(2), Q(0)
    with pytest.raises(PoleHit):
        u_map(Q(-1, 4), t, d)


# -- the residue engine ----------------------------------------------------


def test_residue_single_pole_at_zero():
    # oint dz/(2 pi i) 1/z = 1: empty factor list, target exponent 0
    assert iterated_residue([], [ResidueSpec("z", 0, 0)]) == 1


def test_residue_simple_pole_at_one_evaluates():
    # oint Phi(y)/(y-1) dy/(2 pi i) = Phi(1)
    y = Poly.variable("y")
    phi = y ** 2 + 3 * y + 5
    got = iterated_residue([phi], [ResidueSpec("y", Q(1), 0)])
    assert got == phi.eval({"y": Q(1)})


def test_residue_two_variable_hand_case():
    # oint oint z1^-1 z2^-2 (1 + z2) = coefficient of z2^1 in (1+z2) = 1
    z2 = Poly.variable("z2")
    got = iterated_residue([1 + z2],
                           [ResidueSpec("z1", 0, 0), ResidueSpec("z2", 0, 1)])
    assert got == 1


def test_residue_rejects_vanishing_unit_factor():
    from icelab.errors import ZeroConstantTerm
    z = Poly.variable("z")
    with pytest.raises(ZeroConstantTerm):
        iterated_residue([(z, -1)], [ResidueSpec("z", 0, 2)])


def test_residue_processing_order_independence():
    rng = DeterministicRng(13)
    names = ("z1", "z2", "z3")
    for _ in range(20):
        factors = []
        for j, k in itertools.combinations(range(3), 2):
            c = Q(1 + rng.below(4), 1 + rng.below(4))
            factors.append((1 + c * Poly.variable(names[j]) * Poly.variable(names[k]), -1))
        poly = Poly(names, {(rng.below(3), rng.below(3), rng.below(3)):
                            Q(1 + rng.below(9)) for _ in range(4)})
        factors.append(poly)
        specs = [ResidueSpec(v, 0, 2) for v in names]
        got = iterated_residue(factors, specs)
        for order in itertools.permutations(names):
            assert oracle_residue(factors, specs, var_order=order) == got


# -- emptiness formation probability ---------------------------------------


def test_efp_contours_trivial_cases():
    for fn in (efp_contour_asym, efp_contour_sym, efp_contour_cauchy,
               efp_contour_double):
        assert fn(3, 2, 0, FF) == 1
        for s in (1, 2, 3):
            assert fn(3, 3, s, FF) == 1
    with pytest.raises(PositionsOutOfRange):
        efp_contour_asym(3, 4, 1, FF)


def test_efp_contour_matches_enumeration_spot():
    assert efp_contour_asym(4, 2, 2, FF) == efp_enum(4, 2, 2, FF)
    assert efp_contour_sym(4, 2, 2, FF) == efp_enum(4, 2, 2, FF)
    assert efp_contour_cauchy(4, 2, 2, FF) == efp_enum(4, 2, 2, FF)
    assert efp_contour_double(3, 2, 2, FF) == efp_enum(3, 2, 2, FF)


def test_efp_quadrangle_small_sweep():
    for w in (FF, HALF):
        for n in range(1, 5):
            for r in range(1, n + 1):
                for s in range(1, r + 1):
                    truth = efp_enum(n, r, s, w)
                    assert efp_contour_asym(n, r, s, w) == truth
                    assert efp_contour_sym(n, r, s, w) == truth
                    assert efp_contour_cauchy(n, r, s, w) == truth


def test_efp_double_integral_small_sweep():
    for w in (FF, GEN):
        for n in range(1, 5):
            for r in range(1, n + 1):
                for s in range(1, min(r, 3) + 1):
                    assert efp_contour_double(n, r, s, w) == efp_enum(n, r, s, w)


def test_efp_truncation_order_stability():
    # the other kernels' box property is pinned in test_contour_kernel.py
    for (n, r, s) in ((4, 3, 2), (4, 4, 3)):
        base = efp_contour_sym(n, r, s, FF)
        assert efp_contour_sym(n, r, s, FF, extra_order=2) == base


# -- cut partition functions -------------------------------------------------


def test_ztop_single_vertex():
    assert ztop_contour(1, 1, (1,), FF) == Q(5)


def test_cut_contours_match_enumeration():
    for w in (FF, GEN):
        for n in range(1, 5):
            for s in range(1, n + 1):
                for st in flux_sector_states(n, s):
                    pos = positions_of(st)
                    assert zbot_contour(n, s, pos, w) == z_bot_enum(n, s, pos, w)
                    assert ztop_contour(n, s, pos, w) == z_top_enum(n, s, pos, w)


def test_cut_product_reconstructs_rcp():
    for n in range(1, 5):
        z = partition_function(n, FF)
        for s in range(1, n + 1):
            for st in flux_sector_states(n, s):
                pos = positions_of(st)
                got = ztop_contour(n, s, pos, FF) * zbot_contour(n, s, pos, FF)
                assert got == rcp_enum(n, s, pos, FF) * z


def test_cut_contours_spot_checks_at_n5():
    for pos in ((2,), (1, 4), (2, 3, 5), (1, 2, 3, 4, 5)):
        s = len(pos)
        assert zbot_contour(5, s, pos, FF) == z_bot_enum(5, s, pos, FF)
        assert ztop_contour(5, s, pos, FF) == z_top_enum(5, s, pos, FF)


def test_zbot_vanishes_for_nonpositive_positions():
    assert zbot_contour(3, 2, (0, 2), FF) == 0
    assert zbot_contour(3, 2, (-3, 1), FF) == 0
    assert zbot_contour(4, 3, (-1, 1, 2), GEN) == 0


def test_zbot_empty_flux_is_partition_function():
    assert zbot_contour(3, 0, (), FF) == partition_function(3, FF)


# -- ordered-sum and residue-collapse identities --------------------------------


def test_ordered_geometric_sum_single_variable():
    lhs, rhs = check_ordered_geometric_sum(1, 3, 6)
    assert lhs == rhs


def test_ordered_geometric_sum_multi():
    for s, r in ((2, 3), (3, 2)):
        lhs, rhs = check_ordered_geometric_sum(s, r, 8)
        assert lhs == rhs, (s, r)


def test_ordered_geometric_sum_cutoff_stability():
    for cutoff in (8, 10, 12):
        lhs, rhs = check_ordered_geometric_sum(2, 3, 8, cutoff=cutoff)
        assert lhs == rhs, cutoff


def test_symmetric_residue_collapse_constant():
    phi = Poly.const(Q(7), ("y1",))
    assert check_symmetric_residue_collapse(1, phi, Q(2, 3)) == (7, 7)


def test_symmetric_residue_collapse_linear():
    phi = Poly(("y1", "y2"), {(1, 0): Q(1), (0, 1): Q(1)})
    # (-1)^1 * 2! * 2w
    assert check_symmetric_residue_collapse(2, phi, Q(7, 5)) == (Q(-28, 5), Q(-28, 5))


def test_symmetric_residue_collapse_degree_two():
    phi = Poly(("y1", "y2", "y3"),
               {(2, 0, 0): Q(2), (0, 2, 0): Q(2), (0, 0, 2): Q(2),
                (1, 1, 0): Q(3), (1, 0, 1): Q(3), (0, 1, 1): Q(3)})
    for w in (Q(1, 3), Q(-2)):
        lhs, rhs = check_symmetric_residue_collapse(3, phi, w)
        assert lhs == rhs, w


def test_symmetric_residue_collapse_s4():
    variables = ("y1", "y2", "y3", "y4")
    phi = Poly(variables, {(0, 0, 0, 0): Q(5)})
    for e in itertools.permutations((1, 1, 0, 0)):
        phi = phi + Poly(variables, {tuple(e): Q(1, 2)})
    lhs, rhs = check_symmetric_residue_collapse(4, phi, Q(3, 7))
    assert lhs == rhs


# -- random-triple regression ----------------------------------------------


def test_oracle_triangle_random_triples():
    rng = DeterministicRng(71)
    for _ in range(2):
        w = weight_triple(rng)
        for n in (2, 3, 4):
            for r in range(1, n + 1):
                for s in range(1, r + 1):
                    truth = efp_enum(n, r, s, w)
                    assert efp_contour_asym(n, r, s, w) == truth
                    assert efp_contour_sym(n, r, s, w) == truth
