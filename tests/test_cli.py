"""Suite runner: configuration, determinism, exit codes."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import mpmath
import pytest

from icelab import correlations, identities, lattice
from icelab.algebra import ONE, Poly, format_scalar, rational, rel_err
from icelab.algebra.poly import poly_max_rel_err
from icelab.cli import SuiteConfig, SUITES, main, parse_config, run, summarize
from icelab.errors import ConfigError, PoleHit, UsageError
from icelab.report import STATUSES, CheckReport


def test_parse_defaults_and_suite_selection():
    cfg = parse_config(["--suite", "efp", "--n-max", "4"], env={})
    assert cfg.suites == ("efp",)
    assert cfg.n_max == 4
    assert cfg.s_max == 4
    assert cfg.backend == "exact"
    cfg_all = parse_config([], env={})
    assert cfg_all.suites == SUITES


def test_parse_backend_and_precision():
    cfg = parse_config(["--backend", "float", "--precision", "128"], env={})
    assert cfg.backend == "float"
    assert cfg.precision_bits == 128


def test_parse_rejects_out_of_range():
    with pytest.raises(ConfigError):
        parse_config(["--n-max", "99"], env={})
    with pytest.raises(ConfigError):
        parse_config(["--s-max", "9"], env={})
    with pytest.raises(ConfigError):
        parse_config(["--tolerance", "-1"], env={})


def test_parse_rejects_unknown_flag_and_suite():
    with pytest.raises(UsageError):
        parse_config(["--frobnicate"], env={})
    with pytest.raises(UsageError):
        parse_config(["--suite", "nonsense"], env={})


def test_seed_from_environment():
    cfg = parse_config([], env={"ICELAB_SEED": "777"})
    assert cfg.seed == 777
    cfg = parse_config(["--seed", "5"], env={"ICELAB_SEED": "777"})
    assert cfg.seed == 5
    with pytest.raises(UsageError):
        parse_config([], env={"ICELAB_SEED": "yes"})


def test_parse_weight_triples():
    cfg = parse_config(["--weights", "3,4,5", "--weights", "1/2,5/3,3/2"],
                       env={})
    assert len(cfg.weight_triples) == 2
    assert cfg.weight_triples[0][2] == 5
    with pytest.raises(UsageError):
        parse_config(["--weights", "3,4"], env={})


def test_float_backend_rejects_explicit_weights(capsys):
    with pytest.raises(ConfigError):
        parse_config(["--backend", "float", "--weights", "3,4,5"], env={})
    with pytest.raises(ConfigError):
        SuiteConfig(backend="float", weight_triples=((3, 4, 5),)).validate()
    assert main(["--suite", "boundary", "--backend", "float",
                 "--weights", "3,4,5"]) == 2
    assert "float backend" in capsys.readouterr().err


def test_run_small_exact_all_pass():
    cfg = SuiteConfig(suites=("boundary", "rcp"), n_max=2, s_max=2, draws=1,
                      seed=3)
    code, reports = run(cfg)
    assert code == 0
    assert reports
    assert all(r.status == "pass" for r in reports)


def test_partition_single_site_reports_c():
    cfg = SuiteConfig(suites=("partition",), n_max=1, s_max=1, draws=1, seed=3,
                      weight_triples=((3, 4, 5),))
    code, reports = run(cfg)
    assert code == 0
    rep = next(r for r in reports if r.check_id == "partition.transfer_vs_brute")
    assert rep.lhs == rep.rhs == "5"


def test_json_report_is_byte_identical(tmp_path):
    paths = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        cfg = SuiteConfig(suites=("efp", "tracy-widom"), n_max=3, s_max=3,
                          draws=1, seed=42, output_path=str(path))
        code, _ = run(cfg)
        assert code == 0
        paths.append(path.read_bytes())
    assert paths[0] == paths[1]


def test_json_schema_is_flat_and_timing_free(tmp_path):
    path = tmp_path / "r.json"
    cfg = SuiteConfig(suites=("boundary",), n_max=2, s_max=2, draws=1, seed=1,
                      output_path=str(path))
    run(cfg)
    payload = json.loads(path.read_text())
    assert isinstance(payload, list)
    for entry in payload:
        assert set(entry) == {"check_id", "params", "status", "lhs", "rhs",
                              "discrepancy"}


def test_report_ordering_is_by_suite_then_check_then_draw():
    cfg = SuiteConfig(suites=("rcp", "boundary"), n_max=2, s_max=2, draws=2,
                      seed=9)
    _, reports = run(cfg)
    keys = [(r.check_id.split(".")[0], r.check_id,
             int(r.params.get("draw", "0") or 0)) for r in reports]
    order = {name: i for i, name in enumerate(SUITES)}
    decorated = [(order[suite], cid, d) for suite, cid, d in keys]
    assert decorated == sorted(decorated)


def test_corrupted_weights_fail_with_provenance():
    cfg = SuiteConfig(suites=("efp",), n_max=2, s_max=2, draws=1, seed=1,
                      weight_triples=((3, 4, 0),))
    code, reports = run(cfg)
    assert code == 1
    guarded = [r for r in reports if r.status == "guarded"]
    assert guarded
    assert "DegenerateWeights" in guarded[0].discrepancy


def test_float_backend_small_run():
    cfg = SuiteConfig(suites=("efp", "generating"), n_max=3, s_max=3, draws=1,
                      seed=6, backend="float")
    code, reports = run(cfg)
    assert code == 0, summarize(reports)


def _digest(reports) -> str:
    """The sha256 of the report JSON, as the benchmark hashes it."""
    payload = json.dumps([r.to_json_obj() for r in reports], sort_keys=True, indent=2)
    return hashlib.sha256(payload.encode()).hexdigest()


# sha256 of the report JSON of every suite at n_max=3, s_max=3, draws=1,
# seed=1, pinned so that a refactoring cannot change a report unnoticed
REPORT_DIGESTS = {
    "exact": "57f7387f9adec25768bd446f23de215b69919cbebafbe8ad967e16e572c4f311",
    "float": "21957d172a236e008b30350a02b59a7e8ddd5b4170e00d3f1a4ce49ac4106d59",
}


def test_all_suites_every_report_passes():
    for backend, digest in REPORT_DIGESTS.items():
        cfg = SuiteConfig(suites=SUITES, n_max=3, s_max=3, draws=1, seed=1,
                          backend=backend)
        code, reports = run(cfg)
        assert code == 0, backend
        assert all(r.status == "pass" for r in reports), summarize(reports)
        assert len(reports) == 181, backend
        assert _digest(reports) == digest, backend


# the three exact workloads that the benchmark times, as icelab arguments,
# and the sha256 of their report JSON at two seeds
GATED_WORKLOADS = {
    "contour-exact": ["--suite", "generating", "--suite", "efp", "--suite", "rcp",
                      "--n-max", "5", "--s-max", "4", "--draws", "2"],
    "antisym-exact": ["--suite", "antisym", "--suite", "tracy-widom",
                      "--n-max", "5", "--s-max", "4", "--draws", "1"],
    "fold-exact": ["--suite", "partition", "--suite", "boundary",
                   "--n-max", "8", "--s-max", "4", "--draws", "4"],
}
GATED_DIGESTS = {
    ("contour-exact", 111): "31588b0666e0826901412574c4282fcdb04e1f2a29a5db117bfe81aaf8f75d43",
    ("contour-exact", 7): "a9911499a9b4baee4d539cfc01bb46ae9d8b69d04f8362389034e7ad061631a6",
    ("antisym-exact", 111): "dbf540f0313f2c7f1773a67434c9ab5d75c5dc28f2665b66c382370477eb3003",
    ("antisym-exact", 7): "f2dc90dc509a3470b381e762b7aafcda5cc720e1cbfb295a7762496ed3d039af",
    ("fold-exact", 111): "5aec475d6f9fee21cf67a763f94b703371018b59e599048d9936ee9eb3ba36ce",
    ("fold-exact", 7): "0f9b32c64d45daeb0f1622790945ae97f63312045b5748b7c16be39345a5136b",
}


@pytest.mark.parametrize("workload, seed", GATED_DIGESTS)
def test_timed_workload_reports_are_pinned(workload, seed):
    args = GATED_WORKLOADS[workload] + ["--backend", "exact", "--seed", str(seed)]
    code, reports = run(parse_config(args, env={}))
    assert code == 0, summarize(reports)
    assert _digest(reports) == GATED_DIGESTS[workload, seed]


# icelab arguments, report count and sha256 of three more runs: the
# default run, the rcp suite at a seed whose sampled a divides b, and the
# contour workload on the float backend, whose values render as floats
RUN_DIGESTS = {
    "default": (["--seed", "7"], 1770,
                "0c6f4632564ac9f55138c0618294150f06009c4be057069f2f02f3c180315c2a"),
    "rcp": (["--suite", "rcp", "--seed", "47"], 424,
            "1edb9491bc647150bc921169fc883ba0461d185e3a5612d396155bddd9837fb9"),
    "contour-float": (["--suite", "generating", "--suite", "efp", "--suite", "rcp",
                       "--n-max", "5", "--s-max", "4", "--draws", "1",
                       "--backend", "float", "--seed", "111"], 284,
                      "2d60ae0a819274b4ee232285f6184288204eae99fddaca3179fa688f13e7dca7"),
}


@pytest.mark.parametrize("name", RUN_DIGESTS)
def test_reference_run_reports_are_pinned(name):
    args, count, digest = RUN_DIGESTS[name]
    code, reports = run(parse_config(args, env={}))
    assert code == 0, summarize(reports)
    assert len(reports) == count
    assert _digest(reports) == digest


def _loads_mpmath(args) -> tuple:
    """(after set-up, after the run): whether ``mpmath`` is in
    ``sys.modules`` of a fresh interpreter that parses ``args`` with
    ``parse_config`` and then, unless set-up loaded it, runs them."""
    script = f"""
import json, sys
from icelab import cli
config = cli.parse_config({list(args)!r}, env={{}})
loaded = ["mpmath" in sys.modules]
if not loaded[0]:
    code, reports = cli.run(config)
    assert code == 0, cli.summarize(reports)
    loaded.append("mpmath" in sys.modules)
print(json.dumps(loaded))
"""
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return tuple(json.loads(proc.stdout))


@pytest.mark.parametrize("suite", ("partition", "boundary", "generating", "efp", "rcp",
                                   "antisym", "tracy-widom"))
def test_an_exact_run_of_a_rational_suite_never_loads_mpmath(suite):
    assert _loads_mpmath(["--suite", suite, "--n-max", "4", "--draws", "2"]) == (False, False)


@pytest.mark.parametrize("workload", ("antisym-exact", "fold-exact"))
def test_an_exact_gated_workload_never_loads_mpmath(workload):
    args = GATED_WORKLOADS[workload] + ["--seed", "111"]
    assert _loads_mpmath(args) == (False, False)


@pytest.mark.parametrize("workload", GATED_WORKLOADS)
def test_an_exact_gated_workload_renders_no_float(workload):
    # exact values render as p/q; a float always renders with a point
    code, reports = run(parse_config(GATED_WORKLOADS[workload] + ["--seed", "111"], env={}))
    assert code == 0, summarize(reports)
    assert not [rep for rep in reports if "." in rep.lhs or "." in rep.rhs]


@pytest.mark.parametrize("args", (["--suite", "efp", "--backend", "float"],),
                         ids=("float",))
def test_set_up_loads_mpmath_for_a_run_that_computes_in_floats(args):
    assert _loads_mpmath(args) == (True,)


def test_one_by_one_lattice_with_s_max_one_passes():
    # the truncation-stability check asked for s=2 here and failed
    code, reports = run(SuiteConfig(suites=("efp",), n_max=1, s_max=1, draws=1))
    assert code == 0, summarize(reports)
    stability = [r for r in reports if r.check_id == "efp.truncation_stability"]
    assert [r.params["s"] for r in stability] == ["1"]


def test_main_exit_codes(tmp_path, capsys):
    assert main(["--suite", "boundary", "--n-max", "2", "--draws", "1"]) == 0
    assert main(["--n-max", "99"]) == 2
    assert main(["--bogus-flag"]) == 2
    assert main(["--suite", "boundary", "--n-max", "2", "--draws", "1",
                 "--weights", "1,1,0"]) == 1
    out = capsys.readouterr()
    assert "boundary" in out.out


def test_validate_bounds_directly():
    with pytest.raises(ConfigError):
        SuiteConfig(n_max=0).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(suites=("nope",)).validate()
    with pytest.raises(ConfigError):
        SuiteConfig(backend="quantum").validate()
    with pytest.raises(ConfigError):
        SuiteConfig(precision_bits=8).validate()


def test_each_report_carries_its_own_time(monkeypatch):
    asym = correlations.efp_contour_asym

    def slow(*args, **kw):
        time.sleep(0.02)
        return asym(*args, **kw)

    monkeypatch.setattr(correlations, "efp_contour_asym", slow)
    code, reports = run(SuiteConfig(suites=("efp",), n_max=2, s_max=2, draws=1))
    assert code == 0
    timed = [r for r in reports if r.check_id == "efp.asym_integral_vs_enum"]
    assert len(timed) == 4
    assert all(r.elapsed_ms >= 20 for r in timed), [r.elapsed_ms for r in timed]


def test_summary_times_add_up_over_checks_shorter_than_a_millisecond(monkeypatch):
    ticks = itertools.count()
    monkeypatch.setattr(time, "monotonic", lambda: 0.0009 * next(ticks))
    _, reports = run(SuiteConfig(suites=("boundary",), n_max=3, s_max=3, draws=1))
    total = 0.9 * len(reports)  # each check reads the clock twice: 0.9 ms apart
    assert sum(r.elapsed_ms for r in reports) == pytest.approx(total)
    row = summarize(reports).splitlines()[1].split()
    assert (row[0], int(row[-1])) == ("boundary", round(total))


def _keyed(reports):
    return [(r.check_id, r.params) for r in reports]


def _raising(monkeypatch, module, name, exc):
    def broken(*args, **kw):
        raise exc

    monkeypatch.setattr(module, name, broken)


def test_an_enumeration_error_is_reported_by_each_check_that_needs_it(monkeypatch):
    cfg = SuiteConfig(suites=("efp",), n_max=2, s_max=2, draws=1)
    _, passing = run(cfg)
    _raising(monkeypatch, lattice, "efp_enum", ValueError("boom"))
    code, reports = run(cfg)
    assert code == 1
    assert _keyed(reports) == _keyed(passing)
    assert "efp.quadrangle" not in {r.check_id for r in reports}
    for rep in reports:
        needs_enum = rep.check_id.endswith("_vs_enum")
        assert rep.status == ("error" if needs_enum else "pass"), rep
        if needs_enum:
            assert rep.discrepancy == "ValueError: boom"
    assert {r.check_id for r in reports if r.status == "error"} == {
        "efp.asym_integral_vs_enum", "efp.sym_integral_vs_enum",
        "efp.cauchy_integral_vs_enum", "efp.double_integral_vs_enum"}
    assert any(r.check_id == "efp.truncation_stability" for r in reports)


def test_an_error_report_says_where_it_was_raised_outside_the_json(monkeypatch, tmp_path):
    path = tmp_path / "report.json"
    _raising(monkeypatch, lattice, "efp_enum", ValueError("boom"))
    _, reports = run(SuiteConfig(suites=("efp",), n_max=2, s_max=2, draws=1,
                                 output_path=str(path)))
    errors = [line for line in summarize(reports).splitlines()
              if line.startswith("ERROR")]
    assert errors and all(line.endswith(" in broken") for line in errors), errors
    assert all("test_cli.py:" in line for line in errors)
    # the bytes this run wrote before error reports kept their origin
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "e91f58d72f8787f908289a058e52e71c5c9121dde621684863796286301be7ee"
    try:
        raise PoleHit("pole")
    except PoleHit as exc:
        assert CheckReport.from_error("x.pole", {}, exc).origin == ""


def test_a_top_contour_error_spares_the_other_rcp_checks(monkeypatch):
    cfg = SuiteConfig(suites=("rcp",), n_max=3, s_max=3, draws=1)
    _, passing = run(cfg)
    _raising(monkeypatch, correlations, "ztop_contour", ValueError("boom"))
    code, reports = run(cfg)
    assert code == 1
    assert _keyed(reports) == _keyed(passing)
    broken = {"rcp.top_integral_vs_enum", "rcp.cut_product_vs_probability"}
    for rep in reports:
        assert rep.status == ("error" if rep.check_id in broken else "pass"), rep
    assert {r.check_id for r in reports if r.passed} == {
        "rcp.bottom_integral_vs_enum", "rcp.completeness",
        "rcp.nonpositive_position_vanishing"}


@pytest.mark.parametrize("module, name", [
    (lattice, "HomogeneousWeights"), (lattice, "partition_function"),
    (lattice, "efp_enum"), (lattice, "rcp_enum"), (lattice, "z_top_enum"),
    (correlations, "ztop_contour"), (correlations, "zbot_contour"),
    (lattice, "boundary_correlation"), (correlations, "sym_generating_poly"),
])
def test_every_error_report_has_the_id_and_params_of_a_passing_one(
        monkeypatch, module, name):
    cfg = SuiteConfig(suites=SUITES, n_max=3, s_max=3, draws=1, seed=1)
    _, passing = run(cfg)
    _raising(monkeypatch, module, name, PoleHit("guarded"))
    code, reports = run(cfg)
    assert code == 1
    assert _keyed(reports) == _keyed(passing)
    failed = [r for r in reports if not r.passed]
    assert failed and all(r.status == "guarded" for r in failed)


def test_degenerate_weights_are_guarded_under_each_checks_own_id():
    def reports_for(spec):
        _, reports = run(SuiteConfig(suites=SUITES, n_max=2, s_max=2, draws=1,
                                     weight_triples=(spec,)))
        return reports

    guarded = [r for r in reports_for((3, 4, 0)) if not r.passed]
    assert guarded and all(r.status == "guarded" for r in guarded)
    passing = {r.check_id for r in reports_for((3, 4, 5)) if r.passed}
    assert {r.check_id for r in guarded} <= passing


def test_error_statuses_tell_a_guard_from_a_bug():
    guarded = CheckReport.from_error("x.pole", {"n": 1}, PoleHit("pole"))
    bug = CheckReport.from_error("x.bug", {"n": 1}, TypeError("bad"))
    false = CheckReport.from_comparison("x.false", {}, ONE, 2 * ONE, exact=True)
    assert (guarded.status, bug.status, false.status) == ("guarded", "error", "fail")
    assert guarded.discrepancy == "PoleHit: pole"
    assert not any(r.passed for r in (guarded, bug, false))
    assert STATUSES == ("pass", "fail", "guarded", "error")


def test_summary_counts_each_status_and_lists_every_report_that_did_not_pass():
    true = CheckReport.from_comparison("efp.true", {}, ONE, ONE, exact=True)
    false = CheckReport.from_comparison("efp.false", {}, ONE, 2 * ONE, exact=True)
    guarded = CheckReport.from_error("efp.pole", {"n": 1}, PoleHit("pole"))
    bug = CheckReport.from_error("rcp.bug", {"n": 2}, TypeError("bad"))
    lines = summarize([true, false, guarded, bug]).splitlines()
    assert lines[0].split() == ["suite", "pass", "fail", "guarded", "error", "ms"]
    assert lines[1].split() == ["efp", "1", "1", "1", "0", "0"]
    assert lines[2].split() == ["rcp", "0", "0", "0", "1", "0"]
    assert [line.split()[:2] for line in lines[3:]] == [
        ["FAIL", "efp.false"], ["GUARDED", "efp.pole"], ["ERROR", "rcp.bug"]]
    assert "skipped" not in summarize([true])


def _float_renders(reports):
    return [r for r in reports if "." in r.lhs or "." in r.rhs]


def test_rcp_values_stay_exact_when_a_sampled_a_divides_b():
    # seed 47 draws a triple with an integer t = b/a for the rcp suite
    code, reports = run(parse_config(["--suite", "rcp", "--seed", "47"], env={}))
    assert code == 0, summarize(reports)
    assert not _float_renders(reports)


def test_integer_weight_ratio_renders_no_float():
    suites = ("boundary", "generating", "efp", "rcp")
    args = [a for suite in suites for a in ("--suite", suite)]
    code, reports = run(parse_config(
        args + ["--n-max", "4", "--draws", "1", "--weights", "1,2,3"], env={}))
    assert code == 0, summarize(reports)
    assert not _float_renders(reports)


def test_an_ordered_sum_error_is_reported_under_the_checks_own_id(monkeypatch):
    def broken(*args):
        raise ValueError("boom")

    monkeypatch.setattr(correlations, "check_ordered_geometric_sum", broken)
    code, reports = run(SuiteConfig(suites=("efp",), n_max=1, s_max=1, draws=1))
    assert code == 1
    errors = [r for r in reports if r.status == "error"]
    assert {r.check_id for r in errors} == {"efp.ordered_geometric_sum"}
    assert [(r.params["r"], r.params["cutoff"]) for r in errors] == [
        ("2", "8"), ("2", "10"), ("3", "8"), ("3", "10")]
    assert all(r.discrepancy == "ValueError: boom" for r in errors)


# Each formerly hand-built check must fail through the runner when exactly one
# component of its sides is falsified, the others still holding.


def _failing(monkeypatch, module, name, falsify, suite):
    original = getattr(module, name)
    monkeypatch.setattr(module, name,
                        lambda *args, **kw: falsify(original(*args, **kw)))
    code, reports = run(SuiteConfig(suites=(suite,), n_max=3, s_max=3, draws=1,
                                     seed=5))
    assert code == 1
    return [r for r in reports if r.status == "fail"]


def test_degeneration_fails_on_a_falsified_exclusion_process_rhs(monkeypatch):
    fails = _failing(monkeypatch, identities, "_asep_rhs", lambda v: v + 1,
                     "tracy-widom")
    degen = [r for r in fails if r.check_id == "tracy-widom.double_antisym_degeneration"]
    assert len(degen) == 3
    for rep in degen:
        scaled, limit, _ = rep.discrepancy.strip("()").split(", ")
        assert (scaled, limit) == ("0", "0"), rep.discrepancy
        assert rep.discrepancy != "(0, 0, 0)"


def test_degeneration_fails_on_a_falsified_confluent_ratio(monkeypatch):
    fails = _failing(monkeypatch, identities, "cauchy_ratio_confluent",
                     lambda v: v + 1, "tracy-widom")
    assert {r.check_id for r in fails} == {"tracy-widom.double_antisym_degeneration"}
    assert len(fails) == 3
    for rep in fails:
        scaled, limit, exclusion = rep.discrepancy.strip("()").split(", ")
        assert scaled == exclusion == "0" != limit, rep.discrepancy


def test_cauchy_ratio_check_fails_on_a_falsified_second_zeta(monkeypatch):
    calls = []

    def second_call_off(value):
        calls.append(value)
        return value * rational(1000001, 1000000) if len(calls) % 2 == 0 else value

    fails = _failing(monkeypatch, identities, "cauchy_ratio", second_call_off,
                     "antisym")
    assert {r.check_id for r in fails} == {"antisym.cauchy_ratio_vs_partition_fn"}
    assert len(fails) == 3 and len(calls) == 6
    for rep in fails:
        at_zeta, at_zeta2 = rep.lhs.strip("()").split(", ")
        z, _ = rep.rhs.strip("()").split(", ")
        assert at_zeta == z != at_zeta2
        assert rational(at_zeta2) == rational(z) * rational(1000001, 1000000)


def test_from_comparison_takes_tuples_element_by_element():
    half, third = rational(1, 2), rational(1, 3)
    rep = CheckReport.from_comparison("x.exact", {}, (half, third), (half, half),
                                      exact=True)
    assert (rep.status, rep.lhs, rep.discrepancy) == ("fail", "(1/2, 1/3)", "(0, -1/6)")
    floats = (mpmath.mpf(1), mpmath.mpf("1.000001"))
    rep = CheckReport.from_comparison("x.float", {}, floats, (ONE, ONE),
                                      exact=False, tolerance=1e-8)
    assert rep.status == "fail" and rep.discrepancy == format_scalar(
        rel_err(floats[1], ONE), 3)
    rep = CheckReport.from_comparison("x.float", {}, floats, (ONE, ONE),
                                      exact=False, tolerance=1e-5)
    assert rep.status == "pass"


def test_a_report_keeps_one_copy_of_equal_rendered_sides():
    big = Poly(("z1",), {(k,): rational(k + 1, 7) for k in range(50)})
    rep = CheckReport.from_comparison("x.poly", {}, big, big + 0, exact=True)
    assert rep.passed and rep.rhs is rep.lhs
    rep = CheckReport.from_comparison("x.poly", {}, big, big + 1, exact=True)
    assert not rep.passed and rep.rhs != rep.lhs


def test_from_comparison_judges_float_polys_by_their_coefficients():
    exact = Poly(("z1",), {(1,): rational(1, 3), (0,): rational(2, 3)})
    close = Poly(("z1",), {(1,): mpmath.mpf(1) / 3, (0,): mpmath.mpf(2) / 3})
    rep = CheckReport.from_comparison("x.poly", {}, close, exact, exact=False,
                                      tolerance=1e-12)
    assert rep.status == "pass"
    assert rep.rhs == repr(exact) and rep.lhs == repr(close)
    off = close + Poly(("z1",), {(1,): mpmath.mpf("1e-6")})
    rep = CheckReport.from_comparison("x.poly", {}, off, exact, exact=False,
                                      tolerance=1e-8)
    assert rep.status == "fail"
    assert rep.discrepancy == format_scalar(poly_max_rel_err(off, exact), 3)
