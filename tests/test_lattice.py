"""Transfer-matrix oracle against direct enumeration and hand formulas."""

import itertools
import math

import mpmath
import pytest

from icelab.algebra import rational as Q
from icelab.errors import (CoincidingParameters, DegenerateWeights,
                           PositionsOutOfRange, WidthMismatch)
from icelab.lattice import (HomogeneousWeights, InhomogeneousWeights,
                            TrigWeights, VERTEX_TYPE, all_down, all_up,
                            boundary_correlation, brute_force_partition,
                            brute_force_rcp, dwbc_configurations, efp_enum,
                            backward_vectors, flux_sector_states,
                            forward_vectors, partition_function,
                            partition_function_bottom_up, positions_of,
                            probability_weights, rcp_enum, skeleton,
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


def line_weight(above, below, weights, k):
    """Weight of horizontal line k between two row states, from the
    skeleton's letters: the product of the vertex weights in position
    order, or 0 when the skeleton lists no such pair."""
    n = len(below)
    sk = skeleton(n)
    for (aboves, letters, _), state in zip(sk.rows[k - 1], sk.states[k]):
        if state != below:
            continue
        for m, i in enumerate(aboves):
            if sk.states[k - 1][i] == above:
                return math.prod(weights.vertex(x, k, r) for r, x in
                                 enumerate(letters[m * n:(m + 1) * n], start=1))
    return 0


def test_single_vertex_is_forced_c():
    (aboves, letters, _), = skeleton(1).rows[0]
    assert list(aboves) == [0] and letters == "c"
    assert line_weight((False,), (True,), FF, 1) == 5
    assert line_weight((False,), (False,), FF, 1) == 0


def test_row_weight_matches_manual_product():
    # N=2, top all down, bottom up at position 1: c-vertex then a-vertex
    assert line_weight((False, False), (True, False), FF, 1) == 5 * 3


def test_row_weight_width_mismatch():
    # every line of the skeleton has one letter per position; weights of
    # another width are refused by the fold (next test)
    for n in range(1, 6):
        assert all(len(letters) == n * len(aboves) for row in skeleton(n).rows
                   for aboves, letters, _ in row)


def test_every_fold_entry_point_checks_the_width():
    eta = mpmath.mpf("0.3")
    three = InhomogeneousWeights(
        tuple(mpmath.mpf(x) for x in ("0.7", "0.95", "0.55")),
        tuple(mpmath.mpf(x) for x in ("0.1", "-0.12", "0.22")), eta)
    for n in (2, 4):
        for fold in (partition_function, partition_function_bottom_up,
                     forward_vectors, backward_vectors):
            with pytest.raises(WidthMismatch):
                fold(n, three)
        with pytest.raises(WidthMismatch):
            z_top_enum(n, 1, (1,), three)
        with pytest.raises(WidthMismatch):
            z_bot_enum(n, 1, (1,), three)


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


def test_every_trig_weight_is_the_one_trig_weights_gives():
    # bit for bit: homogeneous weights are the trigonometric ones at nu = 0,
    # where lam - 0 is exact, so a = sin(lam + eta) as before
    eta = mpmath.mpf("0.3")
    w = TrigWeights(eta)
    rng = DeterministicRng(5)
    lams = tuple(rng.uniform(mpmath.mpf("0.95"), mpmath.mpf("2.0")) for _ in range(6))
    nus = (mpmath.mpf(0),) + tuple(rng.uniform(mpmath.mpf("-0.3"), mpmath.mpf("0.3"))
                                   for _ in range(5))
    for lam in lams:
        hom = weights_from_trig(lam, eta)
        assert (hom.a, hom.b, hom.c) == (w.a(lam, 0), w.b(lam, 0), w.c())
        assert (hom.a, hom.b) == (mpmath.sin(lam + eta), mpmath.sin(lam - eta))
    inh = InhomogeneousWeights(lams, nus, eta)
    for row, nu in enumerate(nus, start=1):
        for position, lam in enumerate(lams, start=1):
            assert [inh.vertex(x, row, position) for x in "abc"] == \
                [w.a(lam, nu), w.b(lam, nu), w.c()]


def test_probability_weights_integer_scale_only_exact_homogeneous_weights():
    scaled = probability_weights(HomogeneousWeights(Q(1, 2), Q(2, 3), Q(5, 4)))
    assert all(type(x) is int for x in (scaled.a, scaled.b, scaled.c))
    assert (Q(scaled.b, scaled.a), Q(scaled.c, scaled.a)) == (Q(4, 3), Q(5, 2))
    floats = HomogeneousWeights(mpmath.mpf("0.5"), mpmath.mpf(2), mpmath.mpf(3))
    spread = InhomogeneousWeights((mpmath.mpf(1), mpmath.mpf(2)), (0, 0),
                                  mpmath.mpf("0.3"))
    assert probability_weights(floats) is floats
    assert probability_weights(spread) is spread


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


def test_equal_int_and_fraction_weights_give_values_of_one_type():
    # equal exact weights share fold cache entries, so they must fold alike
    fractions = HomogeneousWeights(Q(3), Q(4), Q(5))
    assert fractions == HomogeneousWeights(3, 4, 5)
    assert all(type(x) is int for x in (fractions.a, fractions.b, fractions.c))
    assert type(HomogeneousWeights(Q(3, 2), 4, 5).a) is not int
    for first, second in ((fractions, HomogeneousWeights(3, 4, 5)),
                          (HomogeneousWeights(3, 4, 5), fractions)):
        forward_vectors.cache_clear()
        backward_vectors.cache_clear()
        assert type(partition_function(4, first)) is int
        assert type(partition_function(4, second)) is int


def test_exact_t_is_rational_when_a_divides_b():
    # an int t turns t ** -k into a float
    for weights in (HomogeneousWeights(1, 2, 1), HomogeneousWeights(Q(3), Q(6), Q(4))):
        assert type(weights.t) is type(Q(1)) and weights.t == 2
        assert weights.t ** -2 == Q(1, 4)
    assert HomogeneousWeights(2, 3, 4).t == Q(3, 2)
    assert isinstance(HomogeneousWeights(mpmath.mpf(1), mpmath.mpf(2), 1).t, mpmath.mpf)


def test_mixed_weights_store_their_rationals_as_mpf():
    # a Fraction beside mpf entries made t and delta raise TypeError
    mixed = HomogeneousWeights(mpmath.mpf(1), Q(1, 2), mpmath.mpf(2))
    floats = HomogeneousWeights(mpmath.mpf(1), mpmath.mpf("0.5"), mpmath.mpf(2))
    assert mixed.t == mpmath.mpf("0.5") and mixed.delta == floats.delta
    assert not mixed.exact and mixed == floats
    assert all(isinstance(x, mpmath.mpf) for x in (mixed.a, mixed.b, mixed.c))
    assert HomogeneousWeights(Q(1, 3), 2, mpmath.mpf(2)).a == mpmath.mpf(1) / 3
    assert partition_function(3, mixed) == partition_function(3, floats)
