"""Command-line runner for the verification suites.

Executes the selected suites over deterministic parameter draws, prints a
summary table, optionally writes the full JSON report, and exits 0 only
when every check passed.  Given the same configuration and seed the JSON
report is byte-identical across runs (timings are kept out of it).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import mpmath

from . import correlations, identities, izergin_korepin, lattice
from .algebra.field import ONE, float_precision, rational
from .algebra.poly import Poly, poly_max_rel_err
from .errors import ConfigError, UsageError
from .report import CheckReport
from .sampling import (DeterministicRng, asep_parameters, distinct_rationals,
                       float_weight_triple, trig_parameters, weight_triple)

SUITES = ("partition", "boundary", "generating", "efp", "rcp", "antisym",
          "tracy-widom")

DEFAULT_SEED = 20260811


@dataclass
class SuiteConfig:
    suites: tuple = SUITES
    n_max: int = 5
    s_max: int = 4
    draws: int = 10
    seed: int = DEFAULT_SEED
    backend: str = "exact"
    precision_bits: int = 53
    tolerance: float = 1e-8
    output_path: str | None = None
    weight_triples: tuple = ()   # explicit (a, b, c) rationals, bypassing sampling

    def validate(self):
        if not 1 <= self.n_max <= 8:
            raise ConfigError(f"n_max must be within 1..8, got {self.n_max}")
        if not 1 <= self.s_max <= min(self.n_max, 6):
            raise ConfigError(
                f"s_max must be within 1..min(n_max, 6), got {self.s_max}")
        if self.draws < 1:
            raise ConfigError("draws must be positive")
        if self.tolerance <= 0:
            raise ConfigError("tolerance must be positive")
        if self.backend not in ("exact", "float"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.backend == "float" and self.weight_triples:
            raise ConfigError("explicit weight triples are exact; "
                              "they cannot run on the float backend")
        if self.precision_bits < 24:
            raise ConfigError("precision must be at least 24 bits")
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suites: {unknown}")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{message}\n\n{self.format_help()}")


def parse_config(argv, env=None) -> SuiteConfig:
    env = os.environ if env is None else env
    parser = _Parser(
        prog="icelab",
        description="Verify the six-vertex model identity suites.")
    parser.add_argument("--suite", action="append", choices=SUITES + ("all",),
                        help="suite to run (repeatable; default all)")
    parser.add_argument("--n-max", type=int, default=5)
    parser.add_argument("--s-max", type=int, default=None,
                        help="default: min(4, n_max)")
    parser.add_argument("--draws", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None,
                        help="PRNG seed (default: ICELAB_SEED or a fixed value)")
    parser.add_argument("--backend", choices=("exact", "float"), default="exact")
    parser.add_argument("--precision", type=int, default=53,
                        help="float working precision in bits")
    parser.add_argument("--tolerance", type=float, default=1e-8)
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the full report array to this path")
    parser.add_argument("--weights", action="append", default=None,
                        metavar="A,B,C",
                        help="explicit rational weight triple, e.g. 3,4,5 "
                             "or 1/2,5/3,3/2 (repeatable; replaces sampling)")
    ns = parser.parse_args(list(argv))

    if ns.seed is not None:
        seed = ns.seed
    elif "ICELAB_SEED" in env:
        try:
            seed = int(env["ICELAB_SEED"])
        except ValueError as exc:
            raise UsageError(f"ICELAB_SEED is not an integer: {exc}") from exc
    else:
        seed = DEFAULT_SEED

    suites = tuple(ns.suite) if ns.suite else ("all",)
    if "all" in suites:
        suites = SUITES

    triples = []
    for spec in ns.weights or ():
        parts = spec.split(",")
        if len(parts) != 3:
            raise UsageError(f"--weights expects A,B,C; got {spec!r}")
        try:
            triples.append(tuple(rational(*map(int, p.split("/")))
                                 if "/" in p else rational(int(p))
                                 for p in parts))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"bad weight triple {spec!r}: {exc}") from exc

    s_max = ns.s_max if ns.s_max is not None else min(4, ns.n_max)
    config = SuiteConfig(
        suites=suites, n_max=ns.n_max, s_max=s_max, draws=ns.draws,
        seed=seed, backend=ns.backend, precision_bits=ns.precision,
        tolerance=ns.tolerance, output_path=ns.json_path,
        weight_triples=tuple(triples))
    config.validate()
    return config


# -- suite machinery ----------------------------------------------------


class _Runner:
    def __init__(self, config: SuiteConfig):
        self.config = config
        self.exact = config.backend == "exact"
        self.reports: list[CheckReport] = []

    def compare(self, check_id, params, lhs, rhs, *, exact=None):
        exact = self.exact if exact is None else exact
        self.reports.append(CheckReport.from_comparison(
            check_id, params, lhs, rhs, exact=exact,
            tolerance=self.config.tolerance))

    def add(self, report: CheckReport, draw=None):
        """Append a check's own report, stamped with its draw if given."""
        if draw is not None:
            report.params["draw"] = str(draw)
        self.reports.append(report)

    @contextmanager
    def guard(self, check_id, **params):
        """Run the body of the with-block as one check; an error becomes a
        fail report with the given params.  The body's time goes to the last
        report it appended, if it appended any."""
        start = time.monotonic()
        before = len(self.reports)
        try:
            yield
        except Exception as exc:  # never crash the runner
            self.reports.append(CheckReport.from_error(check_id, params, exc))
        if len(self.reports) > before:
            self.reports[-1].elapsed_ms = int(1000 * (time.monotonic() - start))

    def triples(self, rng: DeterministicRng, count: int):
        """(draw, (a, b, c)) weight triples for a suite: explicit overrides,
        else the free-fermion triple followed by sampled ones."""
        if self.config.weight_triples:
            return list(enumerate(self.config.weight_triples))
        out = [(rational(3), rational(4), rational(5))] if self.exact else []
        sample = weight_triple if self.exact else float_weight_triple
        while len(out) < count:
            w = sample(rng)
            out.append((w.a, w.b, w.c))
        return list(enumerate(out))


def _suite_partition(run: _Runner, rng: DeterministicRng):
    cfg = run.config
    for draw, spec in run.triples(rng, min(cfg.draws, 5)):
        with run.guard("partition.transfer_vs_brute", draw=draw):
            w = lattice.HomogeneousWeights(*spec)
            for n in range(1, min(cfg.n_max, 4) + 1):
                run.compare("partition.transfer_vs_brute",
                            {"draw": draw, "n": n, "weights": spec},
                            lattice.partition_function(n, w),
                            lattice.brute_force_partition(n, w))
            run.compare("partition.fold_direction",
                        {"draw": draw, "n": cfg.n_max, "weights": spec},
                        lattice.partition_function(cfg.n_max, w),
                        lattice.partition_function_bottom_up(cfg.n_max, w))

    for draw in range(cfg.draws):
        lams, nus, eta = trig_parameters(rng, min(cfg.n_max, 5))
        with run.guard("partition.inhomogeneous_det_vs_transfer", draw=draw):
            for n in range(1, min(cfg.n_max, 5) + 1):
                run.compare(
                    "partition.inhomogeneous_det_vs_transfer",
                    {"draw": draw, "n": n, "eta": eta},
                    izergin_korepin.ik_inhomogeneous(lams[:n], nus[:n], eta),
                    lattice.partition_function(
                        n, lattice.InhomogeneousWeights(lams[:n], nus[:n], eta)),
                    exact=False)
            n = min(cfg.n_max, 5)
            if n >= 2:
                swapped = (lams[1], lams[0]) + lams[2:n]
                run.compare(
                    "partition.inhomogeneous_symmetry",
                    {"draw": draw, "n": n},
                    izergin_korepin.ik_inhomogeneous(lams[:n], nus[:n], eta),
                    izergin_korepin.ik_inhomogeneous(swapped, nus[:n], eta),
                    exact=False)

        lam0 = rng.uniform(mpmath.mpf("0.95"), mpmath.mpf("1.8"))
        with run.guard("partition.homogeneous_det_vs_transfer", draw=draw):
            for n in range(1, min(cfg.n_max, 6) + 1):
                w = lattice.weights_from_trig(lam0, eta)
                run.compare(
                    "partition.homogeneous_det_vs_transfer",
                    {"draw": draw, "n": n, "lam": lam0, "eta": eta},
                    izergin_korepin.ik_homogeneous(lam0, eta, n),
                    lattice.partition_function(n, w),
                    exact=False)
            n = min(cfg.n_max, 5)
            run.add(izergin_korepin.partial_inhomogeneous_relation(
                lams[:n], lam0, eta, tolerance=cfg.tolerance), draw)


def _suite_boundary(run: _Runner, rng: DeterministicRng):
    cfg = run.config
    for draw, spec in run.triples(rng, min(cfg.draws, 5)):
        with run.guard("boundary.sum_rule", draw=draw):
            w = lattice.HomogeneousWeights(*spec)
            for n in range(1, cfg.n_max + 1):
                total = sum(lattice.boundary_correlation(n, w, r)
                            for r in range(1, n + 1))
                run.compare("boundary.sum_rule",
                            {"draw": draw, "n": n, "weights": spec},
                            total, ONE)
            run.compare("boundary.single_site",
                        {"draw": draw, "weights": spec},
                        lattice.boundary_correlation(1, w, 1), ONE)
            for n in range(1, min(cfg.n_max, 5) + 1):
                for s in range(n + 1):
                    z = lattice.partition_function(n, w)
                    total = sum(
                        lattice.z_top_enum(n, s, lattice.positions_of(st), w)
                        * lattice.z_bot_enum(n, s, lattice.positions_of(st), w)
                        for st in lattice.flux_sector_states(n, s))
                    run.compare("boundary.cut_completeness",
                                {"draw": draw, "n": n, "s": s}, total, z)
    with run.guard("boundary.equal_weights_split"):
        w = lattice.HomogeneousWeights(rational(2), rational(2), rational(3))
        run.compare("boundary.equal_weights_split", {"n": 2},
                    (lattice.boundary_correlation(2, w, 1),
                     lattice.boundary_correlation(2, w, 2)),
                    (rational(1, 2), rational(1, 2)), exact=True)


def _suite_generating(run: _Runner, rng: DeterministicRng):
    cfg = run.config
    n_top = min(cfg.n_max, 6)
    tol = 0.0 if run.exact else cfg.tolerance

    def poly_check(check_id, params, got, want):
        if run.exact:
            run.compare(check_id, params, got, want, exact=True)
            return
        err = poly_max_rel_err(got, want)
        run.add(CheckReport(
            check_id=check_id,
            params={k: str(v) for k, v in params.items()},
            status="pass" if err <= cfg.tolerance else "fail",
            lhs=f"coefficient deviation {err:.3e}",
            rhs=f"tolerance {cfg.tolerance:.3e}",
            discrepancy="0" if err == 0 else f"{err:.3e}"))

    for draw, spec in run.triples(rng, min(cfg.draws, 5)):
        with run.guard("generating.normalization", draw=draw):
            w = lattice.HomogeneousWeights(*spec)
            for n in range(1, cfg.n_max + 1):
                gf = correlations.boundary_generating_fn(n, w)
                run.compare("generating.normalization",
                            {"draw": draw, "n": n}, gf.eval(ONE), ONE)
            for n in range(1, n_top + 1):
                poly_check("generating.single_row_consistency",
                           {"draw": draw, "n": n},
                           correlations.sym_generating_poly(n, 1, w),
                           correlations.boundary_generating_fn(n, w).as_poly("z1"))
                for s in range(1, n + 1):
                    h = correlations.sym_generating_poly(n, s, w)
                    degree_ok = all(h.degree(f"z{j}") <= n - 1
                                    for j in range(1, s + 1))
                    run.compare("generating.symmetry_and_degree",
                                {"draw": draw, "n": n, "s": s},
                                (h.is_symmetric(tol), degree_ok), (True, True),
                                exact=True)
                    reduced = h.eval_partial({f"z{s}": ONE})
                    target = correlations.sym_generating_poly(n, s - 1, w) \
                        if s > 1 else Poly.const(ONE, reduced.vars)
                    poly_check("generating.reduction",
                               {"draw": draw, "n": n, "s": s}, reduced, target)


def _suite_efp(run: _Runner, rng: DeterministicRng):
    cfg = run.config
    for draw, spec in run.triples(rng, min(cfg.draws, 4)):
        with run.guard("efp.quadrangle", draw=draw):
            w = lattice.HomogeneousWeights(*spec)
            for n in range(1, cfg.n_max + 1):
                for r in range(1, n + 1):
                    for s in range(1, min(r, cfg.s_max) + 1):
                        truth = lattice.efp_enum(n, r, s, w)
                        for name, fn in (
                                ("asym_integral", correlations.efp_contour_asym),
                                ("sym_integral", correlations.efp_contour_sym),
                                ("cauchy_integral", correlations.efp_contour_cauchy)):
                            run.compare(f"efp.{name}_vs_enum",
                                        {"draw": draw, "n": n, "r": r, "s": s},
                                        fn(n, r, s, w), truth)
            for n in range(1, min(cfg.n_max, 4) + 1):
                for r in range(1, n + 1):
                    for s in range(1, min(r, 3, cfg.s_max) + 1):
                        run.compare("efp.double_integral_vs_enum",
                                    {"draw": draw, "n": n, "r": r, "s": s},
                                    correlations.efp_contour_double(n, r, s, w),
                                    lattice.efp_enum(n, r, s, w))
            n = min(cfg.n_max, 4)
            s = min(2, n, cfg.s_max)
            run.compare("efp.truncation_stability",
                        {"draw": draw, "n": n, "r": n, "s": s},
                        correlations.efp_contour_sym(n, n, s, w),
                        correlations.efp_contour_sym(n, n, s, w, extra_order=2))

    for s in range(1, min(3, cfg.s_max) + 1):
        for r in (2, 3):
            with run.guard("efp.ordered_geometric_sum", s=s, r=r):
                run.add(correlations.check_ordered_geometric_sum(s, r, 8))
            with run.guard("efp.ordered_geometric_sum_stability", s=s, r=r):
                run.add(correlations.check_ordered_geometric_sum(s, r, 8, cutoff=10))
    for draw in range(min(cfg.draws, 5)):
        for s in range(1, min(4, cfg.s_max) + 1):
            phi = _random_symmetric_poly(rng, s)
            w_pt = rng.rational()
            with run.guard("efp.symmetric_residue_collapse", draw=draw, s=s):
                run.add(correlations.check_symmetric_residue_collapse(s, phi, w_pt))


def _random_symmetric_poly(rng: DeterministicRng, s: int) -> Poly:
    variables = tuple(f"y{j}" for j in range(1, s + 1))
    base = Poly.zero(variables)
    for _ in range(3):
        expo = tuple(rng.below(3) for _ in variables)
        coeff = rng.rational()
        base = base + Poly(variables, {expo: coeff})
    total = Poly.zero(variables)
    for perm in itertools.permutations(range(s)):
        total = total + Poly(variables,
                             {tuple(e[i] for i in perm): c
                              for e, c in base.terms.items()})
    return total


def _suite_rcp(run: _Runner, rng: DeterministicRng):
    cfg = run.config
    n_top = min(cfg.n_max, 4)
    for draw, spec in run.triples(rng, min(cfg.draws, 4)):
        with run.guard("rcp.bottom_integral_vs_enum", draw=draw):
            w = lattice.HomogeneousWeights(*spec)
            for n in range(1, n_top + 1):
                z = lattice.partition_function(n, w)
                for s in range(n + 1):
                    total = None
                    contours = s <= cfg.s_max  # integral cost is bound by s_max
                    for st in lattice.flux_sector_states(n, s):
                        pos = lattice.positions_of(st)
                        prob = lattice.rcp_enum(n, s, pos, w)
                        total = prob if total is None else total + prob
                        if not contours:
                            continue
                        zb = correlations.zbot_contour(n, s, pos, w)
                        zt = correlations.ztop_contour(n, s, pos, w)
                        run.compare("rcp.bottom_integral_vs_enum",
                                    {"draw": draw, "n": n, "s": s, "pos": pos},
                                    zb, lattice.z_bot_enum(n, s, pos, w))
                        run.compare("rcp.top_integral_vs_enum",
                                    {"draw": draw, "n": n, "s": s, "pos": pos},
                                    zt, lattice.z_top_enum(n, s, pos, w))
                        run.compare("rcp.cut_product_vs_probability",
                                    {"draw": draw, "n": n, "s": s, "pos": pos},
                                    zt * zb / z, prob)
                    run.compare("rcp.completeness",
                                {"draw": draw, "n": n, "s": s}, total, ONE)
            for pos in ((0, 2), (-1, 1, 2)):
                run.compare("rcp.nonpositive_position_vanishing",
                            {"draw": draw, "n": n_top, "pos": pos},
                            correlations.zbot_contour(n_top, len(pos), pos, w),
                            0 * ONE)


def _suite_antisym(run: _Runner, rng: DeterministicRng):
    cfg = run.config
    for draw in range(cfg.draws):
        for s in range(1, min(cfg.s_max, 5) + 1):
            lams, nus, eta = trig_parameters(rng, s)
            with run.guard("antisym.trig_kernel_vs_determinant", draw=draw, s=s):
                run.add(identities.check_trig_antisymmetrization(
                    lams, nus, eta, tolerance=cfg.tolerance), draw)
        for s in range(1, min(cfg.s_max, 4) + 1):
            lams, nus, eta, zeta = trig_parameters(rng, s, with_zeta=True)
            zeta2 = zeta + mpmath.mpf("0.11")
            with run.guard("antisym.cauchy_ratio_vs_partition_fn", draw=draw, s=s):
                run.add(identities.check_w_matches_partition_fn(
                    lams, nus, eta, zeta, zeta2, tolerance=cfg.tolerance), draw)
        for s in range(1, min(cfg.s_max, 4) + 1):
            w = weight_triple(rng)
            a = w.t * w.t - 2 * w.delta * w.t
            zs = distinct_rationals(
                rng, s, accept_each=lambda v: v != 1 and (a * v + 1) != 0)
            with run.guard("antisym.rational_kernel_vs_partition_fn", draw=draw, s=s):
                run.add(identities.check_rational_antisymmetrization(zs, w), draw)
        for s in range(1, min(cfg.s_max, 5) + 1):
            tau = rng.rational()
            xs = distinct_rationals(rng, s)
            ys = distinct_rationals(
                rng, s,
                accept_tuple=lambda ys: _double_antisym_admissible(xs, ys, tau))
            with run.guard("antisym.double_antisymmetrization", draw=draw, s=s):
                run.add(identities.check_double_antisymmetrization(xs, ys, tau), draw)
        for s in range(1, min(cfg.s_max, 3) + 1):
            w = weight_triple(rng)
            zs = _homogeneous_cauchy_points(rng, s, w)
            with run.guard("antisym.cauchy_homogeneous_vs_confluent", draw=draw, s=s):
                run.compare("antisym.cauchy_homogeneous_vs_confluent",
                            {"draw": draw, "s": s},
                            identities.cauchy_ratio_homogeneous(zs, w),
                            identities.cauchy_ratio_confluent(
                                tuple(w.t * z for z in zs), rational(1) / w.t,
                                -2 * w.delta),
                            exact=True)


def _double_antisym_admissible(xs, ys, tau) -> bool:
    return identities.subset_products_avoid_one(xs, ys) and all(
        1 - x * y != 0 and x + y + tau * x * y != 0 for x in xs for y in ys)


def _homogeneous_cauchy_points(rng, s, w):
    t, delta = w.t, w.delta
    a = t * t - 2 * delta * t

    def each(z):
        if z == 1 or a * z + 1 == 0:
            return False
        x = t * z
        y0 = rational(1) / t
        return 1 - x * y0 != 0 and x + y0 - 2 * delta * x * y0 != 0

    return distinct_rationals(rng, s, accept_each=each)


def _suite_tracy_widom(run: _Runner, rng: DeterministicRng):
    cfg = run.config
    for draw in range(cfg.draws):
        for s in range(1, min(cfg.s_max, 5) + 1):
            p, zs = asep_parameters(rng, s)
            with run.guard("tracy-widom.asep_antisymmetrization", draw=draw, s=s):
                run.add(identities.check_asep_antisymmetrization(p, zs), draw)
        for s in range(1, min(cfg.s_max + 1, 6) + 1):
            t = rng.sample_until(rng.rational, lambda v: v != 1, "t")
            eps = distinct_rationals(rng, s)
            with run.guard("tracy-widom.scaled_vandermonde_antisym", draw=draw, s=s):
                run.add(identities.check_scaled_vandermonde_antisym(t, eps), draw)
        for s in range(1, min(cfg.s_max, 5) + 1):
            t = rng.sample_until(rng.rational, lambda v: v != 1, "t")
            zs = distinct_rationals(rng, s, accept_each=lambda z: t * t * z != 1)
            with run.guard("tracy-widom.confluent_det_vandermonde", draw=draw, s=s):
                run.add(identities.check_confluent_det_vandermonde(t, zs), draw)
        for s in range(1, min(cfg.s_max, 3) + 1):
            p, zs = asep_parameters(rng, s)
            with run.guard("tracy-widom.double_antisym_degeneration", draw=draw, s=s):
                run.add(identities.check_degeneration_to_asep(p, zs), draw)


_SUITE_FNS = {
    "partition": _suite_partition,
    "boundary": _suite_boundary,
    "generating": _suite_generating,
    "efp": _suite_efp,
    "rcp": _suite_rcp,
    "antisym": _suite_antisym,
    "tracy-widom": _suite_tracy_widom,
}


def run(config: SuiteConfig):
    """Execute the configured suites; returns (exit_code, reports)."""
    config.validate()
    runner = _Runner(config)
    with float_precision(config.precision_bits):
        for suite in SUITES:
            if suite not in config.suites:
                continue
            rng = DeterministicRng(config.seed ^ hash_suite(suite))
            _SUITE_FNS[suite](runner, rng)
    order = {cid: i for i, cid in enumerate(SUITES)}
    runner.reports.sort(key=lambda rep: (
        order.get(rep.check_id.split(".")[0], 99), rep.check_id,
        int(rep.params.get("draw", "0") or 0)))
    if config.output_path:
        payload = [rep.to_json_obj() for rep in runner.reports]
        with open(config.output_path, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
    exit_code = 0 if all(r.status != "fail" for r in runner.reports) else 1
    return exit_code, runner.reports


def hash_suite(name: str) -> int:
    """Deterministic 64-bit hash decorrelating suite streams."""
    value = 1469598103934665603
    for ch in name.encode():
        value = ((value ^ ch) * 1099511628211) & ((1 << 64) - 1)
    return value


def summarize(reports) -> str:
    by_suite: dict[str, list] = {}
    for rep in reports:
        by_suite.setdefault(rep.check_id.split(".")[0], []).append(rep)
    lines = [f"{'suite':<14} {'pass':>6} {'fail':>6} {'skipped':>8} {'ms':>8}"]
    for suite in SUITES:
        if suite not in by_suite:
            continue
        group = by_suite[suite]
        npass = sum(r.status == "pass" for r in group)
        nfail = sum(r.status == "fail" for r in group)
        nskip = sum(r.status == "skipped" for r in group)
        ms = sum(r.elapsed_ms for r in group)
        lines.append(f"{suite:<14} {npass:>6} {nfail:>6} {nskip:>8} {ms:>8}")
    for rep in reports:
        if rep.status == "fail":
            lines.append(f"FAIL {rep.check_id} {rep.params}: "
                         f"lhs={rep.lhs} rhs={rep.rhs} disc={rep.discrepancy}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_config(argv)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    exit_code, reports = run(config)
    print(summarize(reports))
    if config.output_path:
        print(f"report written to {config.output_path}")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
