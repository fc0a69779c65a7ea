"""Suite runner: configuration, determinism, exit codes."""

import hashlib
import json
import time

import pytest

from icelab.algebra import ONE
from icelab.cli import (SuiteConfig, SUITES, _Runner, main, parse_config, run,
                        summarize)
from icelab.errors import ConfigError, UsageError
from icelab.report import CheckReport


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
    fails = [r for r in reports if r.status == "fail"]
    assert fails
    assert "DegenerateWeights" in fails[0].discrepancy


def test_float_backend_small_run():
    cfg = SuiteConfig(suites=("efp", "generating"), n_max=3, s_max=3, draws=1,
                      seed=6, backend="float")
    code, reports = run(cfg)
    assert code == 0, summarize(reports)


# sha256 of the report JSON of every suite at n_max=3, s_max=3, draws=1,
# seed=1, pinned so that a refactoring cannot change a report unnoticed
REPORT_DIGESTS = {
    "exact": "3026bae7fb330ef744bad1be5ee19aa1653e46cdb74567153699cb9bc4e583b3",
    "float": "4c600bd372c6b4ff40188ed50c8d166ad46dfcba22d0a541927cf024adf2ee2c",
}


def test_all_suites_every_report_passes():
    for backend, digest in REPORT_DIGESTS.items():
        cfg = SuiteConfig(suites=SUITES, n_max=3, s_max=3, draws=1, seed=1,
                          backend=backend)
        code, reports = run(cfg)
        assert code == 0, backend
        assert all(r.status == "pass" for r in reports), summarize(reports)
        assert len(reports) == 181, backend
        payload = json.dumps([r.to_json_obj() for r in reports],
                             sort_keys=True, indent=2)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest, backend


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


def test_guard_times_only_the_reports_its_body_appended():
    runner = _Runner(SuiteConfig(suites=("partition",)))

    def body(check_id):
        time.sleep(0.02)
        runner.compare(check_id, {}, ONE, ONE)

    with runner.guard("partition.first"):
        body("partition.first")
    runner.reports[-1].elapsed_ms = 7
    with runner.guard("partition.quiet"):
        time.sleep(0.02)
    assert len(runner.reports) == 1
    assert runner.reports[0].elapsed_ms == 7
    with runner.guard("partition.second"):
        body("partition.second")
    assert runner.reports[0].elapsed_ms == 7
    assert runner.reports[1].elapsed_ms >= 20


def test_guard_turns_an_error_into_one_fail_report():
    runner = _Runner(SuiteConfig(suites=("partition",)))
    with runner.guard("partition.broken", draw=3):
        runner.compare("partition.first", {}, ONE, ONE)
        raise ValueError("boom")
    assert [(r.check_id, r.status) for r in runner.reports] == [
        ("partition.first", "pass"), ("partition.broken", "fail")]
    assert runner.reports[1].params == {"draw": "3"}
    assert runner.reports[1].discrepancy == "ValueError: boom"


def test_add_stamps_the_draw_only_when_given():
    runner = _Runner(SuiteConfig(suites=("partition",)))
    report = CheckReport.from_comparison("partition.x", {"s": 2}, ONE, ONE, exact=True)
    runner.add(report, 4)
    runner.add(CheckReport.from_comparison("partition.y", {}, ONE, ONE, exact=True))
    assert [r.params for r in runner.reports] == [{"s": "2", "draw": "4"}, {}]
