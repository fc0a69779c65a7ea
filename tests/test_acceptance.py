"""Acceptance suite: one test per criterion, each printing a pass line
and enforcing its runtime budget.

Each criterion runs the CLI's own suites (``cli.run``) over a config that
covers its range, so each check is declared once, in its suite.
``_certify`` asserts exit 0, equal rendered sides for every check (a judge
apart from ``CheckReport.from_comparison``; every config is exact), and the
report counts in ``PINNED``, so a shrunk sweep fails.

Caches are cleared at the start of every timed criterion so the budgets
measure real work, not prior test activity.
"""

import itertools
import json
import time
from collections import Counter

from icelab import correlations, lattice
from icelab.algebra import rational as Q
from icelab.cli import SuiteConfig, run as cli_run, summarize
from icelab.correlations import check_ordered_geometric_sum
from icelab.sampling import DeterministicRng, weight_triple

FF = (Q(3), Q(4), Q(5))
W234 = (Q(2), Q(3), Q(4))
SEED = 20260811

# criterion -> reports per check id that its configs must produce
PINNED = {
    1: {"partition.transfer_vs_brute": 20, "partition.fold_direction": 5,
        "partition.inhomogeneous_det_vs_transfer": 50,
        "partition.inhomogeneous_symmetry": 10,
        "partition.homogeneous_det_vs_transfer": 60,
        "partition.partial_inhomogeneous_factorization": 10},
    2: {"boundary.sum_rule": 6, "boundary.single_site": 1,
        "boundary.cut_completeness": 20, "boundary.equal_weights_split": 1,
        "generating.normalization": 6, "generating.single_row_consistency": 6,
        "generating.symmetry_and_degree": 21, "generating.reduction": 21},
    3: {"partition.transfer_vs_brute": 65, "partition.fold_direction": 20,
        "partition.inhomogeneous_det_vs_transfer": 140,
        "partition.inhomogeneous_symmetry": 40,
        "partition.homogeneous_det_vs_transfer": 140,
        "partition.partial_inhomogeneous_factorization": 40},
    4: {"efp.asym_integral_vs_enum": 140, "efp.sym_integral_vs_enum": 140,
        "efp.cauchy_integral_vs_enum": 140, "efp.double_integral_vs_enum": 76,
        "efp.truncation_stability": 4, "efp.ordered_geometric_sum": 12,
        "efp.symmetric_residue_collapse": 20},
    5: {"rcp.bottom_integral_vs_enum": 90, "rcp.top_integral_vs_enum": 90,
        "rcp.cut_product_vs_probability": 90, "rcp.completeness": 42,
        "rcp.nonpositive_position_vanishing": 6},
    6: {"efp.asym_integral_vs_enum": 38, "efp.sym_integral_vs_enum": 38,
        "efp.cauchy_integral_vs_enum": 38, "efp.double_integral_vs_enum": 38,
        "efp.truncation_stability": 2, "efp.ordered_geometric_sum": 12,
        "efp.symmetric_residue_collapse": 15},
    7: {"antisym.trig_kernel_vs_determinant": 50,
        "antisym.cauchy_ratio_vs_partition_fn": 40,
        "antisym.rational_kernel_vs_partition_fn": 40,
        "antisym.double_antisymmetrization": 50,
        "antisym.cauchy_homogeneous_vs_confluent": 30},
    8: {"tracy-widom.asep_antisymmetrization": 50,
        "tracy-widom.scaled_vandermonde_antisym": 60,
        "tracy-widom.confluent_det_vandermonde": 50,
        "tracy-widom.double_antisym_degeneration": 30},
}


def _fresh_caches():
    lattice.skeleton.cache_clear()
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


def _certify(configs, needed):
    counts = Counter()
    for cfg in configs:
        code, reports = cli_run(cfg)
        assert code == 0, summarize(reports)
        for rep in reports:
            assert rep.lhs == rep.rhs, rep
        counts.update(rep.check_id for rep in reports)
    assert counts == needed


def _sampled(seed):
    w = weight_triple(DeterministicRng(seed))
    return (w.a, w.b, w.c)


def test_criterion_1_partition_function_triangle():
    _fresh_caches()
    started = time.monotonic()
    _certify([SuiteConfig(suites=("partition",), n_max=6, draws=10, seed=SEED + 1)],
             PINNED[1])
    _finish(1, "partition-function triangle", started, 10)


def test_criterion_2_boundary_generating_layer():
    _fresh_caches()
    started = time.monotonic()
    _certify([SuiteConfig(suites=("boundary", "generating"), n_max=6,
                          weight_triples=(FF,), seed=SEED + 2)], PINNED[2])
    _finish(2, "boundary/generating layer", started, 5)


def test_criterion_3_partial_inhomogeneous_factorization():
    _fresh_caches()
    started = time.monotonic()
    # the partition suite factorizes at n = n_max only
    _certify([SuiteConfig(suites=("partition",), n_max=n, s_max=1, draws=10,
                          seed=SEED + 3) for n in range(2, 6)], PINNED[3])
    _finish(3, "partial-inhomogeneous factorization", started, 30)


def test_criterion_4_efp_quadrangle():
    _fresh_caches()
    started = time.monotonic()
    triples = (FF, W234, (Q(1, 2), Q(5, 3), Q(3, 2)), _sampled(SEED + 4))
    _certify([SuiteConfig(suites=("efp",), n_max=5, s_max=5, seed=SEED + 4,
                          weight_triples=triples)], PINNED[4])
    _finish(4, "EFP quadrangle", started, 60)


def test_criterion_5_rcp_layer():
    _fresh_caches()
    started = time.monotonic()
    _certify([SuiteConfig(suites=("rcp",), n_max=4, s_max=4, seed=SEED + 5,
                          weight_triples=(FF, W234, _sampled(SEED + 5)))], PINNED[5])
    _finish(5, "RCP layer", started, 30)


def test_criterion_6_summation_pipeline():
    _fresh_caches()
    started = time.monotonic()
    for s, r, cutoff in itertools.product((1, 2, 3), (2, 3), (None, 12)):
        lhs, rhs = check_ordered_geometric_sum(s, r, 10, cutoff)
        assert lhs == rhs, (s, r, cutoff)
    # the symmetric residue collapse at s = 4 is certified under criterion 4
    _certify([SuiteConfig(suites=("efp",), n_max=4, s_max=3, seed=SEED + 6,
                          weight_triples=(FF, W234))], PINNED[6])
    _finish(6, "ordered-sum and residue-collapse pipeline", started, 60)


def test_criterion_7_antisymmetrization_suite():
    _fresh_caches()
    started = time.monotonic()
    _certify([SuiteConfig(suites=("antisym",), n_max=5, s_max=5, draws=10,
                          seed=SEED + 7)], PINNED[7])
    _finish(7, "antisymmetrization suite", started, 60)


def test_criterion_8_exclusion_process_suite():
    _fresh_caches()
    started = time.monotonic()
    _certify([SuiteConfig(suites=("tracy-widom",), n_max=5, s_max=5, draws=10,
                          seed=SEED + 8)], PINNED[8])
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


def test_every_check_belongs_to_a_criterion():
    _, reports = cli_run(SuiteConfig(n_max=3, s_max=3, draws=1))
    assert set().union(*PINNED.values()) == {rep.check_id for rep in reports}
