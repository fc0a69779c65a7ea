"""Tests of the benchmark harness at a tiny size (n_max=2, draws=1).

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import WORKLOADS

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tracer import Tracer  # noqa: E402
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((HERE / "layer_map.json").read_text())


def bench(workload, trace, *extra, seed=3):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--n-max", "2", "--draws", "1", *extra],
        capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, lines[:-1], json.loads(lines[-1])


def rows(lines):
    """{metric name: (value, unit)} from the lines "WORKLOAD NAME VALUE UNIT"."""
    return {f[1]: (float(f[2]), f[3]) for f in map(str.split, lines) if len(f) == 4}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, section):
    proc, lines, result = bench("contour-exact", trace)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    shown = rows(lines)
    assert {name: shown[name][1] for name in wanted} == wanted
    assert shown["fail_ratio"] == (0.0, "ratio")


def test_failing_weights_trip_the_gate():
    proc, lines, result = bench("contour-exact", 0, "--weights", "3,4,0")
    assert rows(lines)["fail_ratio"][0] > 0
    assert result["failed"] > 0 and not result["correct"]
    assert proc.returncode == 1
    assert "GATE" in proc.stderr


def test_layer_counts_repeat_exactly():
    counted = ("algebra.series.mul_calls", "algebra.series.pairs",
               "identities.perm_terms")
    runs = [bench("antisym-exact", 1)[2]["metrics"] for _ in range(2)]
    first, second = ({name: run[name]["value"] for name in counted} for run in runs)
    assert first == second
    assert all(first.values())


def test_layer_map_names_every_layer_metric_and_workload():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)
    e2e = {m["name"] for m in SPEC["end_to_end"]}
    assert set(LAYER_MAP) == {m["name"] for m in SPEC["per_layer"]}
    for entry in LAYER_MAP.values():
        assert set(entry["moves"]) <= e2e
        named = set(entry["unchanged_on"]).union(*entry["moves"].values())
        assert named <= set(WORKLOADS)


def test_self_times_leave_out_the_tracer_cost():
    tracer = Tracer()
    tracer.spans[:] = [("a:f", 0.0, 10.0, -1, 0.5),
                       ("b:g", 1.0, 4.0, 0, 1.0),
                       ("b:g", 5.0, 6.0, 0, 1.0)]
    # the parent loses both children's durations (3 s + 1 s) and costs (2 s)
    assert tracer.self_times() == {"a:f": 4.0, "b:g": 4.0}
    assert tracer.overhead() == 2.5


def test_traced_calls_record_their_cost():
    tracer = Tracer()
    assert tracer.calibrate() >= 0.0
    outer = tracer.span("a:outer", lambda: inner() + 1)
    inner = tracer.span("b:inner", lambda: 1)
    assert outer() == 2
    (name, start, end, parent, cost), child = tracer.spans
    assert (name, parent, child[0], child[3]) == ("a:outer", -1, "b:inner", 0)
    assert start <= child[1] <= child[2] <= end
    assert cost > 0 and child[4] > 0
