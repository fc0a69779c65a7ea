"""Command-line runner for the verification suites.

Executes the selected suites over deterministic parameter draws, prints a
summary table, optionally writes the full JSON report, and exits 0 only
when every check passed.  Given the same configuration and seed the JSON
report is byte-identical across runs (timings are kept out of it).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass

from . import correlations, identities, izergin_korepin, lattice
from .algebra.field import ONE, float_precision, load_mpmath, mpmath, qdiv, rational
from .algebra.poly import Poly
from .errors import ConfigError, UsageError
from .report import STATUSES, CheckReport
from .sampling import (DeterministicRng, asep_parameters, distinct_rationals,
                       float_weight_triple, sigma_parameters, trig_parameters,
                       weight_triple)

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
    if config.backend == "float":
        load_mpmath()   # at set-up, not inside the first check that computes in floats
    return config


# -- suite machinery ----------------------------------------------------


class _Runner:
    def __init__(self, config: SuiteConfig):
        self.config = config
        self.exact = config.backend == "exact"
        self.reports: list[CheckReport] = []

    def check(self, check_id, params, sides, *args, exact=None):
        """Report one instance of an identity whose two sides are
        ``sides(*args)``, under its own guard and clock: an error becomes a
        report with the same id and params.  The suites build weights and
        shared values inside ``sides``, through memos that die with the
        suite, so that an error reaches the report of every check it
        touches (a memo does not keep an exception)."""
        start = time.monotonic()
        try:
            lhs, rhs = sides(*args)
            report = CheckReport.from_comparison(
                check_id, params, lhs, rhs,
                exact=self.exact if exact is None else exact,
                tolerance=self.config.tolerance)
        except Exception as exc:  # never crash the runner
            report = CheckReport.from_error(check_id, params, exc)
        report.elapsed_ms = 1000 * (time.monotonic() - start)
        self.reports.append(report)

    def triples(self, rng: DeterministicRng, count: int):
        """(draw, (a, b, c), weights) for a suite: explicit overrides, else
        the free-fermion triple followed by sampled ones.  ``weights()``
        builds the ``HomogeneousWeights`` once, in the first check that asks,
        and raises again in each later one if they are degenerate."""
        specs = list(self.config.weight_triples)
        if not specs:
            specs = [(rational(3), rational(4), rational(5))] if self.exact else []
            sample = weight_triple if self.exact else float_weight_triple
            while len(specs) < count:
                w = sample(rng)
                specs.append((w.a, w.b, w.c))
        return [(draw, spec,
                 functools.cache(functools.partial(lattice.HomogeneousWeights, *spec)))
                for draw, spec in enumerate(specs)]


def _suite_partition(run: _Runner, rng: DeterministicRng):
    cfg = run.config
    for draw, spec, w in run.triples(rng, min(cfg.draws, 5)):
        for n in range(1, min(cfg.n_max, 4) + 1):
            run.check("partition.transfer_vs_brute",
                      {"draw": draw, "n": n, "weights": spec},
                      lambda: (lattice.partition_function(n, w()),
                               lattice.brute_force_partition(n, w())))
        run.check("partition.fold_direction",
                  {"draw": draw, "n": cfg.n_max, "weights": spec},
                  lambda: (lattice.partition_function(cfg.n_max, w()),
                           lattice.partition_function_bottom_up(cfg.n_max, w())))

    for draw in range(cfg.draws):
        if run.exact:
            lams, nus, eta, lam0 = sigma_parameters(rng, min(cfg.n_max, 5), points=1)
        else:
            lams, nus, eta = trig_parameters(rng, min(cfg.n_max, 5))
            lam0 = rng.uniform(mpmath.mpf("0.95"), mpmath.mpf("1.8"))
        for n in range(1, min(cfg.n_max, 5) + 1):
            run.check(
                "partition.inhomogeneous_det_vs_transfer",
                {"draw": draw, "n": n, "eta": eta},
                lambda: (izergin_korepin.ik_inhomogeneous(lams[:n], nus[:n], eta),
                         lattice.partition_function(
                             n, lattice.InhomogeneousWeights(lams[:n], nus[:n], eta))))
        n = min(cfg.n_max, 5)
        if n >= 2:
            swapped = (lams[1], lams[0]) + lams[2:n]
            run.check(
                "partition.inhomogeneous_symmetry",
                {"draw": draw, "n": n},
                lambda: (izergin_korepin.ik_inhomogeneous(lams[:n], nus[:n], eta),
                         izergin_korepin.ik_inhomogeneous(swapped, nus[:n], eta)))

        for n in range(1, min(cfg.n_max, 6) + 1):
            run.check(
                "partition.homogeneous_det_vs_transfer",
                {"draw": draw, "n": n, "lam": lam0, "eta": eta},
                lambda: (izergin_korepin.ik_homogeneous(lam0, eta, n),
                         lattice.partition_function(
                             n, lattice.weights_from_trig(lam0, eta))))
        n = min(cfg.n_max, 5)
        run.check("partition.partial_inhomogeneous_factorization",
                  {"draw": draw, "n": n, "lam0": lam0, "lambdas": lams[:n]},
                  izergin_korepin.partial_inhomogeneous_relation,
                  lams[:n], lam0, eta)


def _suite_boundary(run: _Runner, rng: DeterministicRng):
    cfg = run.config

    def cut_completeness(n, s, w):
        total = sum(lattice.z_top_enum(n, s, lattice.positions_of(st), w)
                    * lattice.z_bot_enum(n, s, lattice.positions_of(st), w)
                    for st in lattice.flux_sector_states(n, s))
        return total, lattice.partition_function(n, w)

    for draw, spec, w in run.triples(rng, min(cfg.draws, 5)):
        for n in range(1, cfg.n_max + 1):
            run.check("boundary.sum_rule",
                      {"draw": draw, "n": n, "weights": spec},
                      lambda: (sum(lattice.boundary_correlation(n, w(), r)
                                   for r in range(1, n + 1)), ONE))
        run.check("boundary.single_site",
                  {"draw": draw, "weights": spec},
                  lambda: (lattice.boundary_correlation(1, w(), 1), ONE))
        for n in range(1, min(cfg.n_max, 5) + 1):
            for s in range(n + 1):
                run.check("boundary.cut_completeness",
                          {"draw": draw, "n": n, "s": s},
                          lambda: cut_completeness(n, s, w()))
    equal = functools.partial(lattice.HomogeneousWeights,
                              rational(2), rational(2), rational(3))
    run.check("boundary.equal_weights_split", {"n": 2},
              lambda: ((lattice.boundary_correlation(2, equal(), 1),
                        lattice.boundary_correlation(2, equal(), 2)),
                       (rational(1, 2), rational(1, 2))),
              exact=True)


def _suite_generating(run: _Runner, rng: DeterministicRng):
    cfg = run.config
    n_top = min(cfg.n_max, 6)
    tol = 0.0 if run.exact else cfg.tolerance

    def symmetry_and_degree(n, s, w):
        h = correlations.sym_generating_poly(n, s, w)
        degree_ok = all(h.degree(f"z{j}") <= n - 1 for j in range(1, s + 1))
        return (h.is_symmetric(tol), degree_ok), (True, True)

    def reduction(n, s, w):
        reduced = correlations.sym_generating_poly(n, s, w).eval_partial({f"z{s}": ONE})
        target = correlations.sym_generating_poly(n, s - 1, w) \
            if s > 1 else Poly.const(ONE, reduced.vars)
        return reduced, target

    for draw, spec, w in run.triples(rng, min(cfg.draws, 5)):
        for n in range(1, cfg.n_max + 1):
            run.check("generating.normalization", {"draw": draw, "n": n},
                      lambda: (correlations.boundary_generating_fn(n, w()).eval(ONE),
                               ONE))
        for n in range(1, n_top + 1):
            run.check("generating.single_row_consistency", {"draw": draw, "n": n},
                      lambda: (correlations.sym_generating_poly(n, 1, w()),
                               correlations.boundary_generating_fn(
                                   n, w()).as_poly("z1")))
            for s in range(1, n + 1):
                run.check("generating.symmetry_and_degree",
                          {"draw": draw, "n": n, "s": s},
                          lambda: symmetry_and_degree(n, s, w()),
                          exact=True)
                run.check("generating.reduction", {"draw": draw, "n": n, "s": s},
                          lambda: reduction(n, s, w()))


def _suite_efp(run: _Runner, rng: DeterministicRng):
    cfg = run.config
    efp_enum = functools.cache(lattice.efp_enum)  # shared by four checks
    # r <= n_max: one kernel per form, s and weights, built at order n_max - 1
    with correlations.kernel_scope(ceiling=cfg.n_max - 1):
        for draw, spec, w in run.triples(rng, min(cfg.draws, 4)):
            for n in range(1, cfg.n_max + 1):
                for r in range(1, n + 1):
                    for s in range(1, min(r, cfg.s_max) + 1):
                        for name, fn in (
                                ("asym_integral", correlations.efp_contour_asym),
                                ("sym_integral", correlations.efp_contour_sym),
                                ("cauchy_integral", correlations.efp_contour_cauchy)):
                            run.check(f"efp.{name}_vs_enum",
                                      {"draw": draw, "n": n, "r": r, "s": s},
                                      lambda: (fn(n, r, s, w()), efp_enum(n, r, s, w())))
            for n in range(1, min(cfg.n_max, 4) + 1):
                for r in range(1, n + 1):
                    for s in range(1, min(r, 3, cfg.s_max) + 1):
                        run.check("efp.double_integral_vs_enum",
                                  {"draw": draw, "n": n, "r": r, "s": s},
                                  lambda: (correlations.efp_contour_double(n, r, s, w()),
                                           efp_enum(n, r, s, w())))
            n = min(cfg.n_max, 4)
            s = min(2, n, cfg.s_max)
            run.check("efp.truncation_stability",
                      {"draw": draw, "n": n, "r": n, "s": s},
                      lambda: (correlations.efp_contour_sym(n, n, s, w()),
                               correlations.efp_contour_sym(n, n, s, w(), extra_order=2)))

    for s in range(1, min(3, cfg.s_max) + 1):
        for r in (2, 3):
            for cutoff in (8, 10):
                run.check("efp.ordered_geometric_sum",
                          {"s": s, "r": r, "order": 8, "cutoff": cutoff},
                          correlations.check_ordered_geometric_sum, s, r, 8, cutoff,
                          exact=True)
    for draw in range(min(cfg.draws, 5)):
        for s in range(1, min(4, cfg.s_max) + 1):
            phi = _random_symmetric_poly(rng, s)
            w_pt = rng.rational()
            run.check("efp.symmetric_residue_collapse",
                      {"s": s, "w": w_pt, "phi_terms": len(phi.terms)},
                      correlations.check_symmetric_residue_collapse, s, phi, w_pt,
                      exact=True)


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
    # each value is shared by two of the checks below
    zbot = functools.cache(correlations.zbot_contour)
    ztop = functools.cache(correlations.ztop_contour)
    rcp_enum = functools.cache(lattice.rcp_enum)

    def cut_product(n, s, pos, w):
        return (qdiv(ztop(n, s, pos, w) * zbot(n, s, pos, w),
                     lattice.partition_function(n, w)),
                rcp_enum(n, s, pos, w))

    def completeness(n, s, w):
        return sum(rcp_enum(n, s, lattice.positions_of(st), w)
                   for st in lattice.flux_sector_states(n, s)), ONE

    # positions p <= n_top: one bottom kernel per s and weights, at order n_top - 1
    with correlations.kernel_scope(ceiling=n_top - 1):
        for draw, spec, w in run.triples(rng, min(cfg.draws, 4)):
            for n in range(1, n_top + 1):
                for s in range(n + 1):
                    if s <= cfg.s_max:  # integral cost is bound by s_max
                        for st in lattice.flux_sector_states(n, s):
                            pos = lattice.positions_of(st)
                            params = {"draw": draw, "n": n, "s": s, "pos": pos}
                            run.check("rcp.bottom_integral_vs_enum", params,
                                      lambda: (zbot(n, s, pos, w()),
                                               lattice.z_bot_enum(n, s, pos, w())))
                            run.check("rcp.top_integral_vs_enum", params,
                                      lambda: (ztop(n, s, pos, w()),
                                               lattice.z_top_enum(n, s, pos, w())))
                            run.check("rcp.cut_product_vs_probability", params,
                                      lambda: cut_product(n, s, pos, w()))
                    run.check("rcp.completeness", {"draw": draw, "n": n, "s": s},
                              lambda: completeness(n, s, w()))
            for pos in ((0, 2), (-1, 1, 2)):
                run.check("rcp.nonpositive_position_vanishing",
                          {"draw": draw, "n": n_top, "pos": pos},
                          lambda: (correlations.zbot_contour(n_top, len(pos), pos, w()),
                                   0 * ONE))


def _suite_antisym(run: _Runner, rng: DeterministicRng):
    cfg = run.config
    for draw in range(cfg.draws):
        for s in range(1, min(cfg.s_max, 5) + 1):
            if run.exact:
                lams, nus, eta = sigma_parameters(rng, s)
            else:
                lams, nus, eta = trig_parameters(rng, s)
            run.check("antisym.trig_kernel_vs_determinant",
                      {"draw": draw, "s": s, "lambdas": lams, "nus": nus, "eta": eta},
                      identities.check_trig_antisymmetrization, lams, nus, eta)
        for s in range(1, min(cfg.s_max, 4) + 1):
            if run.exact:
                lams, nus, eta, zeta, zeta2 = sigma_parameters(rng, s, points=2)
            else:
                lams, nus, eta, zeta = trig_parameters(rng, s, with_zeta=True)
                zeta2 = zeta + mpmath.mpf("0.11")
            run.check("antisym.cauchy_ratio_vs_partition_fn",
                      {"draw": draw, "s": s, "eta": eta, "zeta": zeta, "zeta2": zeta2},
                      identities.check_w_matches_partition_fn,
                      lams, nus, eta, zeta, zeta2)
        for s in range(1, min(cfg.s_max, 4) + 1):
            w = weight_triple(rng)
            zs = _rational_kernel_points(rng, s, w)
            run.check("antisym.rational_kernel_vs_partition_fn",
                      {"draw": draw, "s": s, "zs": zs, "weights": (w.a, w.b, w.c)},
                      identities.check_rational_antisymmetrization, zs, w, exact=True)
        for s in range(1, min(cfg.s_max, 5) + 1):
            tau = rng.rational()
            xs = distinct_rationals(rng, s)
            ys = distinct_rationals(
                rng, s,
                accept_tuple=lambda ys: _double_antisym_admissible(xs, ys, tau))
            run.check("antisym.double_antisymmetrization",
                      {"draw": draw, "s": s, "xs": xs, "ys": ys, "tau": tau},
                      identities.check_double_antisymmetrization, xs, ys, tau,
                      exact=True)
        for s in range(1, min(cfg.s_max, 3) + 1):
            w = weight_triple(rng)
            zs = _rational_kernel_points(rng, s, w)
            run.check("antisym.cauchy_homogeneous_vs_confluent",
                      {"draw": draw, "s": s},
                      lambda: (identities.cauchy_ratio_homogeneous(zs, w),
                               identities.cauchy_ratio_confluent(
                                   tuple(w.t * z for z in zs), rational(1) / w.t,
                                   -2 * w.delta)),
                      exact=True)


def _rational_kernel_points(rng, s, w) -> tuple:
    """s distinct rationals z with z != 1 and a z + 1 != 0, a = t^2 - 2
    delta t.  The rational kernel is finite there, and so is the
    homogeneous Cauchy ratio at x = t z, y0 = 1/t: 1 - x y0 = 1 - z and x
    + y0 - 2 delta x y0 = (a z + 1) / t."""
    a = w.t * w.t - 2 * w.delta * w.t
    return distinct_rationals(rng, s, accept_each=lambda v: v != 1 and a * v + 1 != 0)


def _double_antisym_admissible(xs, ys, tau) -> bool:
    # the singleton subsets already keep every x y away from 1
    return identities.subset_products_avoid_one(xs, ys) and all(
        x + y + tau * x * y != 0 for x in xs for y in ys)


def _suite_tracy_widom(run: _Runner, rng: DeterministicRng):
    cfg = run.config
    for draw in range(cfg.draws):
        for s in range(1, min(cfg.s_max, 5) + 1):
            p, zs = asep_parameters(rng, s)
            run.check("tracy-widom.asep_antisymmetrization",
                      {"draw": draw, "s": s, "p": p, "zs": zs},
                      identities.check_asep_antisymmetrization, p, zs, exact=True)
        for s in range(1, min(cfg.s_max + 1, 6) + 1):
            t = rng.sample_until(rng.rational, lambda v: v != 1, "t")
            eps = distinct_rationals(rng, s)
            run.check("tracy-widom.scaled_vandermonde_antisym",
                      {"draw": draw, "s": s, "t": t, "eps": eps},
                      identities.check_scaled_vandermonde_antisym, t, eps, exact=True)
        for s in range(1, min(cfg.s_max, 5) + 1):
            t = rng.sample_until(rng.rational, lambda v: v != 1, "t")
            zs = distinct_rationals(rng, s, accept_each=lambda z: t * t * z != 1)
            run.check("tracy-widom.confluent_det_vandermonde",
                      {"draw": draw, "s": s, "t": t, "zs": zs},
                      identities.check_confluent_det_vandermonde, t, zs, exact=True)
        for s in range(1, min(cfg.s_max, 3) + 1):
            p, zs = asep_parameters(rng, s)
            run.check("tracy-widom.double_antisym_degeneration",
                      {"draw": draw, "s": s, "p": p, "zs": zs},
                      identities.check_degeneration_to_asep, p, zs, exact=True)


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
    # the integrand kernels are dropped before the reports are sorted and dumped
    with float_precision(config.precision_bits), correlations.kernel_scope():
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
    exit_code = 0 if all(r.passed for r in runner.reports) else 1
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
    lines = [f"{'suite':<14}" + "".join(f" {s:>7}" for s in STATUSES) + f" {'ms':>8}"]
    for suite in SUITES:
        if suite not in by_suite:
            continue
        group = by_suite[suite]
        counts = "".join(f" {sum(r.status == s for r in group):>7}" for s in STATUSES)
        ms = sum(r.elapsed_ms for r in group)
        lines.append(f"{suite:<14}{counts} {ms:>8.0f}")
    for rep in reports:
        if not rep.passed:
            lines.append(f"{rep.status.upper()} {rep.check_id} {rep.params}: "
                         f"lhs={rep.lhs} rhs={rep.rhs} disc={rep.discrepancy}"
                         + (f" at {rep.origin}" if rep.origin else ""))
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
