"""Transfer-matrix oracle against direct enumeration and hand formulas."""

import itertools

import mpmath
import pytest

from icelab.algebra import rational as Q
from icelab.errors import (CoincidingParameters, DegenerateWeights,
                           PositionsOutOfRange, WidthMismatch)
from icelab.lattice import (HomogeneousWeights, InhomogeneousWeights,
                            VERTEX_TYPE, all_down, all_up,
                            boundary_correlation, brute_force_partition,
                            brute_force_rcp, dwbc_configurations, efp_enum,
                            flux_sector_states, forward_vectors,
                            partition_function,
                            partition_function_bottom_up, positions_of,
                            rcp_enum, row_transfer_weight,
                            state_from_positions, weights_from_trig,
                            z_bot_enum, z_top_enum)
from icelab.sampling import DeterministicRng, weight_triple

FF = HomogeneousWeights(Q(3), Q(4), Q(5))   # free-fermion point
GEN = HomogeneousWeights(Q(2), Q(3), Q(4))  # delta = -1/4


def test_vertex_table_is_the_six_ice_states():
    assert len(VERTEX_TYPE) == 6
    assert sorted(VERTEX_TYPE.values()) == ["a", "a", "b", "b", "c", "c"]
    for (w, e, s, n) in VERTEX_TYPE:
        inward = (1 if w else 0) + (0 if e else 1) + (1 if s else 0) + (0 if n else 1)
        assert inward == 2


def test_single_vertex_is_forced_c():
    assert row_transfer_weight((False,), (True,), FF, 1) == 5
    assert row_transfer_weight((False,), (False,), FF, 1) == 0


def test_row_weight_matches_manual_product():
    # N=2, top all down, bottom up at position 1: c-vertex then a-vertex
    assert row_transfer_weight((False, False), (True, False), FF, 1) == 5 * 3


def test_row_weight_width_mismatch():
    with pytest.raises(WidthMismatch):
        row_transfer_weight((False,), (False, False), FF, 1)


def test_partition_function_one_site():
    assert partition_function(1, FF) == 5


def test_partition_function_two_site_exhaustive_edges():
    # independent of both the transfer matrix and the backtracker: assign
    # the four internal edges of the 2x2 lattice directly
    a, b, c = Q(3), Q(4), Q(5)
    total = Q(0)
    for h1, h2, v1, v2 in itertools.product((False, True), repeat=4):
        # h_k: horizontal edge between the vertices of row k (True = right)
        # v_j: vertical edge below row 1 at position j (True = up)
        weight = Q(1)
        ok = True
        edges = {
            (1, 1): (h1, True, v1, False),
            (1, 2): (False, h1, v2, False),
            (2, 1): (h2, True, True, v1),
            (2, 2): (False, h2, True, v2),
        }
        for (row, pos), key in edges.items():
            if key not in VERTEX_TYPE:
                ok = False
                break
            weight *= {"a": a, "b": b, "c": c}[VERTEX_TYPE[key]]
        if ok:
            total += weight
    assert total == partition_function(2, FF) == brute_force_partition(2, FF)
    assert total == 625


def test_partition_function_three_site_asm_sum():
    configs = list(dwbc_configurations(3))
    assert len(configs) == 7  # alternating sign matrices of order 3
    assert partition_function(3, FF) == brute_force_partition(3, FF)
    assert partition_function(3, FF) == 5**9  # free-fermion point: c^(N^2)


def test_transfer_agrees_with_brute_force_through_n4():
    rng = DeterministicRng(5)
    for _ in range(3):
        w = weight_triple(rng)
        for n in range(1, 5):
            assert partition_function(n, w) == brute_force_partition(n, w)


def test_fold_direction_is_irrelevant():
    for w in (FF, GEN):
        for n in range(1, 6):
            assert partition_function(n, w) == partition_function_bottom_up(n, w)


def test_flux_sector_states():
    assert flux_sector_states(2, 1) == [(True, False), (False, True)]
    assert flux_sector_states(3, 0) == [all_down(3)]
    assert len(flux_sector_states(4, 2)) == 6
    assert flux_sector_states(4, 2)[0] == state_from_positions(4, (1, 2))


def test_state_positions_roundtrip_and_validation():
    st = state_from_positions(3, (1, 3))
    assert positions_of(st) == (1, 3)
    with pytest.raises(PositionsOutOfRange):
        state_from_positions(3, (3, 1))
    with pytest.raises(PositionsOutOfRange):
        state_from_positions(3, (0, 2))
    with pytest.raises(PositionsOutOfRange):
        state_from_positions(3, (2, 4))


def test_z_top_z_bot_completeness():
    for w in (FF, GEN):
        for n in range(1, 6):
            z = partition_function(n, w)
            for s in range(n + 1):
                total = sum(
                    z_top_enum(n, s, positions_of(st), w)
                    * z_bot_enum(n, s, positions_of(st), w)
                    for st in flux_sector_states(n, s))
                assert total == z


def test_z_top_single_row_formula():
    # one row from all-down to up-at-r: b^(r-1) c a^(N-r)
    a, b, c = Q(3), Q(4), Q(5)
    for n in (1, 2, 3, 4):
        for r in range(1, n + 1):
            assert z_top_enum(n, 1, (r,), FF) == a ** (n - r) * b ** (r - 1) * c


def test_z_bot_empty_bottom_is_one():
    for n in (1, 2, 3):
        assert z_bot_enum(n, n, tuple(range(1, n + 1)), FF) == 1
        assert z_top_enum(n, n, tuple(range(1, n + 1)), FF) == partition_function(n, FF)


def test_z_top_conditioned_brute_force():
    # N=3, s=1, position (2): weight of top 1x3 slab times bottom 2x3 slab
    w = FF
    zt = z_top_enum(3, 1, (2,), w)
    zb = z_bot_enum(3, 1, (2,), w)
    match = Q(0)
    for letters, vert in dwbc_configurations(3):
        if vert[1] != state_from_positions(3, (2,)):
            continue
        weight = Q(1)
        for k, row in enumerate(letters, start=1):
            for col, letter in enumerate(row):
                weight *= w.vertex(letter, k, 3 - col)
        match += weight
    assert zt * zb == match


def test_boundary_correlation_sum_rule_and_examples():
    assert boundary_correlation(1, FF, 1) == 1
    for w in (FF, GEN):
        for n in range(1, 7):
            assert sum(boundary_correlation(n, w, r) for r in range(1, n + 1)) == 1
    eq = HomogeneousWeights(Q(2), Q(2), Q(3))
    assert boundary_correlation(2, eq, 1) == Q(1, 2)
    assert boundary_correlation(2, eq, 2) == Q(1, 2)


def test_rcp_forced_and_single_row_cases():
    for n in (1, 2, 3):
        assert rcp_enum(n, n, tuple(range(1, n + 1)), FF) == 1
    for n in (2, 3, 4):
        for r in range(1, n + 1):
            assert rcp_enum(n, 1, (r,), FF) == boundary_correlation(n, FF, r)


def test_rcp_matches_conditioned_brute_force():
    assert rcp_enum(3, 2, (1, 3), FF) == brute_force_rcp(3, 2, (1, 3), FF)
    assert rcp_enum(4, 2, (2, 4), GEN) == brute_force_rcp(4, 2, (2, 4), GEN)


def test_rcp_completeness_random_triples():
    rng = DeterministicRng(17)
    for _ in range(5):
        w = weight_triple(rng)
        for n in range(1, 7):
            for s in range(n + 1):
                total = sum(rcp_enum(n, s, positions_of(st), w)
                            for st in flux_sector_states(n, s))
                assert total == 1


def test_positivity_of_probabilities():
    for n in range(1, 6):
        for s in range(n + 1):
            for st in flux_sector_states(n, s):
                p = rcp_enum(n, s, positions_of(st), FF)
                assert 0 < p <= 1


def test_efp_trivial_and_derived_cases():
    for n in (1, 2, 3, 4):
        for s in range(n + 1):
            assert efp_enum(n, n, s, FF) == 1
        for r in range(1, n + 1):
            assert efp_enum(n, r, 0, FF) == 1
    assert efp_enum(3, 2, 1, FF) == \
        boundary_correlation(3, FF, 1) + boundary_correlation(3, FF, 2)
    with pytest.raises(PositionsOutOfRange):
        efp_enum(3, 4, 1, FF)


def test_degenerate_weights_rejected():
    with pytest.raises(DegenerateWeights):
        HomogeneousWeights(Q(3), Q(4), Q(0))


def test_inhomogeneous_parameter_symmetry():
    eta = mpmath.mpf("0.3")
    lams = tuple(mpmath.mpf(x) for x in ("0.7", "0.95", "0.55"))
    nus = tuple(mpmath.mpf(x) for x in ("0.1", "-0.12", "0.22"))
    z = partition_function(3, InhomogeneousWeights(lams, nus, eta))
    z_lam = partition_function(3, InhomogeneousWeights(
        (lams[1], lams[2], lams[0]), nus, eta))
    z_nu = partition_function(3, InhomogeneousWeights(
        lams, (nus[2], nus[0], nus[1]), eta))
    assert abs(z - z_lam) / abs(z) < mpmath.mpf("1e-9")
    assert abs(z - z_nu) / abs(z) < mpmath.mpf("1e-9")
    with pytest.raises(CoincidingParameters):
        InhomogeneousWeights((lams[0], lams[0], lams[2]), nus, eta)


def test_inhomogeneous_reduces_to_homogeneous_weights():
    eta = mpmath.mpf("0.3")
    lam = mpmath.mpf("0.8")
    w = weights_from_trig(lam, eta)
    spread = InhomogeneousWeights(
        (lam, lam + mpmath.mpf("1e-9"), lam - mpmath.mpf("1e-9")),
        (mpmath.mpf(0),) * 3, eta)
    z_hom = partition_function(3, w)
    z_inh = partition_function(3, spread)
    assert abs(z_hom - z_inh) / abs(z_hom) < mpmath.mpf("1e-7")


def test_float_weights_never_share_a_cache_entry_with_exact_ones():
    floats = HomogeneousWeights(mpmath.mpf(3), mpmath.mpf(4), mpmath.mpf(5))
    assert floats != FF and hash(floats) != hash(FF)
    forward_vectors.cache_clear()
    assert isinstance(partition_function(3, floats), mpmath.mpf)
    z = partition_function(3, FF)
    assert z == 1953125 and not isinstance(z, mpmath.mpf)
