"""Acceptance suite: one test per criterion, each printing a pass line
and enforcing its runtime budget.

Caches are cleared at the start of every timed criterion so the budgets
measure real work, not prior test activity.
"""

import itertools
import json
import time

import mpmath

from icelab import correlations, identities, izergin_korepin, lattice
from icelab.algebra import Poly, rational as Q
from icelab.cli import SuiteConfig, run as cli_run
from icelab.correlations import (boundary_generating_fn,
                                 check_ordered_geometric_sum,
                                 check_symmetric_residue_collapse,
                                 efp_contour_asym, efp_contour_cauchy,
                                 efp_contour_double, efp_contour_sym,
                                 sym_generating_poly, zbot_contour,
                                 ztop_contour)
from icelab.lattice import (HomogeneousWeights, InhomogeneousWeights,
                            brute_force_partition, efp_enum,
                            flux_sector_states, partition_function,
                            positions_of, rcp_enum, weights_from_trig,
                            z_bot_enum, z_top_enum)
from icelab.sampling import (DeterministicRng, asep_parameters,
                             distinct_rationals, trig_parameters,
                             weight_triple)

FF = HomogeneousWeights(Q(3), Q(4), Q(5))
TOL = mpmath.mpf("1e-8")

SEED = 20260811


def _fresh_caches():
    lattice.forward_vectors.cache_clear()
    lattice.backward_vectors.cache_clear()
    correlations._h_numerators.cache_clear()
    correlations.sym_generating_poly.cache_clear()


def _finish(number, name, started, budget):
    elapsed = time.monotonic() - started
    within = elapsed <= budget
    verdict = "PASS" if within else "FAIL"
    print(f"ACCEPTANCE {number} {name}: {verdict} ({elapsed:.2f}s / budget {budget}s)")
    assert within, f"criterion {number} exceeded its {budget}s budget"


def _close(a, b):
    if isinstance(a, tuple):
        return all(_close(x, y) for x, y in zip(a, b, strict=True))
    return abs(mpmath.mpf(1) * a - mpmath.mpf(1) * b) \
        <= TOL * max(abs(mpmath.mpf(1) * a), abs(mpmath.mpf(1) * b))


def _exact(sides):
    lhs, rhs = sides
    return lhs == rhs


def test_criterion_1_partition_function_triangle():
    _fresh_caches()
    started = time.monotonic()
    rng = DeterministicRng(SEED + 1)
    for _ in range(3):
        w = weight_triple(rng)
        for n in range(1, 5):
            assert partition_function(n, w) == brute_force_partition(n, w)
    for draw in range(10):
        eta = rng.uniform(mpmath.mpf("0.15"), mpmath.mpf("0.6"))
        lam = rng.uniform(mpmath.mpf("0.95"), mpmath.mpf("1.8"))
        w = weights_from_trig(lam, eta)
        for n in range(1, 7):
            assert _close(izergin_korepin.ik_homogeneous(lam, eta, n),
                          partition_function(n, w)), (draw, n)
        lams, nus, eta2 = trig_parameters(rng, 5)
        for n in range(1, 6):
            det_val = izergin_korepin.ik_inhomogeneous(lams[:n], nus[:n], eta2)
            tm_val = partition_function(
                n, InhomogeneousWeights(lams[:n], nus[:n], eta2))
            assert _close(det_val, tm_val), (draw, n)
    _finish(1, "partition-function triangle", started, 10)


def test_criterion_2_boundary_generating_layer():
    _fresh_caches()
    started = time.monotonic()
    for n in range(1, 7):
        assert sum(lattice.boundary_correlation(n, FF, r)
                   for r in range(1, n + 1)) == 1
        assert boundary_generating_fn(n, FF).eval(Q(1)) == 1
        for s in range(1, n + 1):
            h = sym_generating_poly(n, s, FF)
            assert h.is_symmetric()
            assert all(h.degree(f"z{j}") <= n - 1 for j in range(1, s + 1))
            reduced = h.eval_partial({f"z{s}": Q(1)})
            if s == 1:
                assert reduced == Poly.const(Q(1))
            else:
                assert reduced == sym_generating_poly(n, s - 1, FF)
    _finish(2, "boundary/generating layer", started, 5)


def test_criterion_3_partial_inhomogeneous_factorization():
    _fresh_caches()
    started = time.monotonic()
    rng = DeterministicRng(SEED + 3)
    for draw in range(10):
        lams, _, eta = trig_parameters(rng, 5)
        lam0 = rng.uniform(mpmath.mpf("0.95"), mpmath.mpf("1.8"))
        for n in range(2, 6):
            lhs, rhs = izergin_korepin.partial_inhomogeneous_relation(
                lams[:n], lam0, eta)
            assert _close(lhs, rhs), (draw, n, lhs, rhs)
    _finish(3, "partial-inhomogeneous factorization", started, 30)


def test_criterion_4_efp_quadrangle():
    _fresh_caches()
    started = time.monotonic()
    rng = DeterministicRng(SEED + 4)
    triples = [FF, HomogeneousWeights(Q(2), Q(3), Q(4)),
               HomogeneousWeights(Q(1, 2), Q(5, 3), Q(3, 2)),
               weight_triple(rng)]
    for w in triples:
        for n in range(1, 6):
            for r in range(1, n + 1):
                for s in range(1, r + 1):
                    truth = efp_enum(n, r, s, w)
                    assert efp_contour_asym(n, r, s, w) == truth, (n, r, s)
                    assert efp_contour_sym(n, r, s, w) == truth, (n, r, s)
                    assert efp_contour_cauchy(n, r, s, w) == truth, (n, r, s)
    _finish(4, "EFP quadrangle", started, 60)


def test_criterion_5_rcp_layer():
    _fresh_caches()
    started = time.monotonic()
    rng = DeterministicRng(SEED + 5)
    triples = [FF, HomogeneousWeights(Q(2), Q(3), Q(4)), weight_triple(rng)]
    for w in triples:
        for n in range(1, 5):
            z = partition_function(n, w)
            for s in range(n + 1):
                total = Q(0)
                for st in flux_sector_states(n, s):
                    pos = positions_of(st)
                    assert zbot_contour(n, s, pos, w) == z_bot_enum(n, s, pos, w)
                    assert ztop_contour(n, s, pos, w) == z_top_enum(n, s, pos, w)
                    prob = rcp_enum(n, s, pos, w)
                    assert ztop_contour(n, s, pos, w) \
                        * zbot_contour(n, s, pos, w) == prob * z
                    total += prob
                assert total == 1
    _finish(5, "RCP layer", started, 30)


def test_criterion_6_summation_pipeline():
    _fresh_caches()
    started = time.monotonic()
    rng = DeterministicRng(SEED + 6)
    for s in (1, 2, 3):
        for r in (2, 3):
            assert _exact(check_ordered_geometric_sum(s, r, 10))
            assert _exact(check_ordered_geometric_sum(s, r, 10, cutoff=12))
    for s in (1, 2, 3, 4):
        for _ in range(3):
            variables = tuple(f"y{j}" for j in range(1, s + 1))
            base = Poly(variables,
                        {tuple(rng.below(3) for _ in variables): rng.rational()
                         for _ in range(3)})
            phi = Poly.zero(variables)
            for perm in itertools.permutations(range(s)):
                phi = phi + Poly(variables,
                                 {tuple(e[i] for i in perm): c
                                  for e, c in base.terms.items()})
            assert _exact(check_symmetric_residue_collapse(s, phi, rng.rational()))
    triples = [FF, HomogeneousWeights(Q(2), Q(3), Q(4))]
    for w in triples:
        for n in range(1, 5):
            for r in range(1, n + 1):
                for s in range(1, min(r, 3) + 1):
                    assert efp_contour_double(n, r, s, w) == efp_enum(n, r, s, w)
    _finish(6, "ordered-sum and residue-collapse pipeline", started, 60)


def test_criterion_7_antisymmetrization_suite():
    _fresh_caches()
    started = time.monotonic()
    rng = DeterministicRng(SEED + 7)
    for draw in range(10):
        for s in range(1, 6):
            lams, nus, eta = trig_parameters(rng, s)
            assert _close(*identities.check_trig_antisymmetrization(
                lams, nus, eta)), (draw, s)
        for s in range(1, 5):
            w = weight_triple(rng)
            a = w.t * w.t - 2 * w.delta * w.t
            zs = distinct_rationals(
                rng, s, accept_each=lambda v: v != 1 and a * v + 1 != 0)
            assert _exact(identities.check_rational_antisymmetrization(zs, w))
        for s in range(1, 6):
            xs = distinct_rationals(rng, s)
            ys = distinct_rationals(rng, s)
            tau = rng.rational()
            assert _exact(identities.check_double_antisymmetrization(xs, ys, tau))
        for s in range(1, 5):
            lams, nus, eta, zeta = trig_parameters(rng, s, with_zeta=True)
            assert _close(*identities.check_w_matches_partition_fn(
                lams, nus, eta, zeta, zeta + mpmath.mpf("0.11"))), (draw, s)
        for s in range(1, 4):
            w = weight_triple(rng)
            a = w.t * w.t - 2 * w.delta * w.t
            zs = distinct_rationals(
                rng, s,
                accept_each=lambda v: v != 1 and a * v + 1 != 0
                and 1 - w.t * v / w.t != 0)
            lhs = identities.cauchy_ratio_homogeneous(zs, w)
            rhs = identities.cauchy_ratio_confluent(
                tuple(w.t * z for z in zs), 1 / w.t, -2 * w.delta)
            assert lhs == rhs, (draw, s)
    _finish(7, "antisymmetrization suite", started, 60)


def test_criterion_8_exclusion_process_suite():
    _fresh_caches()
    started = time.monotonic()
    rng = DeterministicRng(SEED + 8)
    for draw in range(10):
        for s in range(1, 6):
            p, zs = asep_parameters(rng, s)
            assert _exact(identities.check_asep_antisymmetrization(p, zs))
        for s in range(1, 7):
            t = rng.sample_until(rng.rational, lambda v: v != 1, "t")
            eps = distinct_rationals(rng, s)
            assert _exact(identities.check_scaled_vandermonde_antisym(t, eps))
        for s in range(1, 6):
            t = rng.sample_until(rng.rational, lambda v: v != 1, "t")
            zs = distinct_rationals(rng, s,
                                    accept_each=lambda z, t=t: t * t * z != 1)
            assert _exact(identities.check_confluent_det_vandermonde(t, zs))
        for s in range(1, 4):
            p, zs = asep_parameters(rng, s)
            assert _exact(identities.check_degeneration_to_asep(p, zs))
    _finish(8, "exclusion-process suite", started, 30)


def test_criterion_9_cli_determinism_and_exit_codes(tmp_path):
    started = time.monotonic()
    blobs = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        cfg = SuiteConfig(suites=("boundary", "tracy-widom"), n_max=3, s_max=3,
                          draws=2, seed=271828, output_path=str(path))
        code, _ = cli_run(cfg)
        assert code == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]
    json.loads(blobs[0])  # well-formed

    failing = SuiteConfig(suites=("efp",), n_max=2, s_max=2, draws=1,
                          seed=271828, weight_triples=((3, 4, 0),))
    code, reports = cli_run(failing)
    assert code == 1
    assert any(r.status == "guarded" and "DegenerateWeights" in r.discrepancy
               for r in reports)
    _finish(9, "CLI determinism and exit codes", started, 30)
