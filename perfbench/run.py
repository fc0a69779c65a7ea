"""The icelab benchmark: certify one workload repeatedly and report how long
it took, end to end or layer by layer.

    python3 perfbench/run.py --workload contour-exact --seed 1 --seconds 60 --trace 0

Every repetition runs in a fresh interpreter (``worker.py``), because every
``icelab`` invocation pays its imports and cold caches.  Repetitions run
one after another, never in parallel, until ``--seconds`` have passed (at
least ``MIN_ROUNDS`` of them), and the metrics are their medians.

With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json`` are
reported.  With ``--trace 1`` each round is one untraced and one traced
repetition, and the per-layer metrics are reported together with the
tracing overhead, which the tracer measures in its own process; the
difference of the traced and untraced wall_s medians is printed beside it
as a cross-check.  The spans of the last traced repetition are written to
``.perfbench/``.

Every repetition must pass the correctness gate: ``cli.run`` returns 0,
the report count and the sha256 of the JSON report equal the first
repetition's (a traced repetition concatenates one call per suite), the
per-layer counts repeat exactly, and on exact-only workloads no lhs or rhs
renders as a float.  When the gate fails the result line says
``"correct": false`` and the exit code is 1.  The last line of standard
output is the JSON result; the lines before it name each metric with its
unit.  ``--workload all`` runs every workload in turn, contour-float too.
"""

from __future__ import annotations

import argparse
import compileall
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The icelab configuration of each workload; the seed comes from --seed.
# Draws are small so that a run holds several repetitions and its medians
# are steady.  contour-exact certifies the free-fermion weights and one
# sampled triple per suite, so that the sampled rationals reach the series
# and residue kernels.  BENCHMARK.json gates contour-exact, antisym-exact
# and fold-exact; contour-float (the float path, about 6 s a repetition)
# runs by name or with --workload all, because a fourth gated workload
# would leave runs too short to average out a shared host's speed drift.
WORKLOADS = {
    "contour-exact": {"suites": ("generating", "efp", "rcp"), "n_max": 5,
                      "s_max": 4, "draws": 2, "backend": "exact"},
    "antisym-exact": {"suites": ("antisym", "tracy-widom"), "n_max": 5,
                      "s_max": 4, "draws": 1, "backend": "exact"},
    "fold-exact": {"suites": ("partition", "boundary"), "n_max": 8,
                   "s_max": 4, "draws": 4, "backend": "exact"},
    "contour-float": {"suites": ("generating", "efp", "rcp"), "n_max": 5,
                      "s_max": 4, "draws": 1, "backend": "float"},
}
EXACT_ONLY = ("contour-exact",)   # an exact result must never come back as a float
MIN_ROUNDS = 3
RUN_LIMIT_S = 170                 # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not measure: no result is printed."""


def icelab_args(workload: str, seed: int, n_max=None, draws=None, weights=()):
    cfg = WORKLOADS[workload]
    n = cfg["n_max"] if n_max is None else n_max
    args = [arg for suite in cfg["suites"] for arg in ("--suite", suite)]
    args += ["--n-max", str(n), "--s-max", str(min(cfg["s_max"], n)),
             "--draws", str(cfg["draws"] if draws is None else draws),
             "--backend", cfg["backend"], "--seed", str(seed)]
    for triple in weights:
        args += ["--weights", triple]
    return args


def spawn(traced: bool, args: list, spans_path: Path, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and return its record."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "1" if traced else "0",
             str(spans_path), *args],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition still running after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"repetition exited with {proc.returncode}:\n{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child
    record["setup_s"] = record["ready"] - start
    return record


def measure(workload: str, args: list, seconds: float, trace: bool,
            spans_path: Path) -> list:
    start = time.perf_counter()
    deadline = start + RUN_LIMIT_S
    kinds = (False, True) if trace else (False,)
    records, rounds = [], 0
    while True:
        for traced in kinds:
            records.append(spawn(traced, args, spans_path, deadline))
        rounds += 1
        now = time.perf_counter()
        per_round = (now - start) / rounds
        if rounds >= MIN_ROUNDS and now + per_round > start + seconds:
            return records


def gate(workload: str, records: list) -> list:
    """The correctness problems of a run; empty when it is correct."""
    problems = []
    first = records[0]
    for i, rec in enumerate(records):
        if rec["exit_code"] != 0:
            problems.append(f"repetition {i}: cli.run returned {rec['exit_code']}")
        if rec["reports"] != first["reports"]:
            problems.append(f"repetition {i}: {rec['reports']} reports, "
                            f"first had {first['reports']}")
        if rec["digest"] != first["digest"]:
            problems.append(f"repetition {i}: report digest differs from the first")
        if workload in EXACT_ONLY and rec["float_renders"]:
            problems.append(f"repetition {i}: {rec['float_renders']} exact "
                            "results render as floats")
    traced = [rec for rec in records if "counts" in rec]
    if any(rec["counts"] != traced[0]["counts"] for rec in traced):
        problems.append("per-layer counts differ between traced repetitions")
    return problems


def metrics_of(records: list, trace: bool) -> dict:
    plain = [rec for rec in records if "counts" not in rec]
    if not trace:
        return {name: statistics.median(rec[name] for rec in plain)
                for name in ("wall_s", "setup_s", "peak_rss_mb")}
    traced = [rec for rec in records if "counts" in rec]
    out = dict(traced[0]["counts"])
    for name in traced[0]["times"]:
        out[name] = statistics.median(rec["times"][name] for rec in traced)
    # a cross-check of trace.overhead_s, which the tracer measures in-process
    out["trace.wall_diff_s"] = (statistics.median(rec["wall_s"] for rec in traced)
                                - statistics.median(rec["wall_s"] for rec in plain))
    return out


def run_workload(workload: str, ns, units: dict) -> dict:
    args = icelab_args(workload, ns.seed, ns.n_max, ns.draws, ns.weights or ())
    spans_path = ROOT / ".perfbench" / f"spans-{workload}-{ns.seed}.json"
    spans_path.parent.mkdir(exist_ok=True)
    records = measure(workload, args, ns.seconds, bool(ns.trace), spans_path)
    problems = gate(workload, records)
    for problem in problems:
        print(f"{workload}: GATE {problem}", file=sys.stderr)

    measured = metrics_of(records, bool(ns.trace))
    values = {name: measured[name] for name in units}
    attempted = sum(rec["reports"] for rec in records)
    failed = sum(rec["not_pass"] for rec in records)
    rows = [(name, value, units[name]) for name, value in values.items()]
    rows.append(("fail_ratio", failed / attempted, "ratio"))
    if ns.trace:
        rows.append(("trace.wall_diff_s", measured["trace.wall_diff_s"], "s"))
        traced = [rec for rec in records if "suites" in rec]
        for suite in traced[0]["suites"]:
            rows.append((f"suite.{suite}.wall_s",
                         statistics.median(rec["suites"][suite] for rec in traced), "s"))
    print(f"{workload}: {len(records)} repetitions, seed {ns.seed}"
          + (f", spans in {spans_path.relative_to(ROOT)}" if ns.trace else ""))
    for name, value, unit in rows:
        print(f"{workload:<14} {name:<42} {value:>14.6g} {unit}")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # smaller or failing configurations, for the benchmark's own tests
    parser.add_argument("--n-max", type=int)
    parser.add_argument("--draws", type=int)
    parser.add_argument("--weights", action="append", metavar="A,B,C")
    ns = parser.parse_args(argv)

    if not (ROOT / "src" / "icelab" / "cli.py").is_file():
        print(f"no icelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if ns.trace else "end_to_end"]}
    compileall.compile_dir(ROOT / "src", quiet=2)   # users run from bytecode

    names = list(WORKLOADS) if ns.workload == "all" else [ns.workload]
    try:
        results = {name: run_workload(name, ns, units) for name in names}
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if ns.workload == "all":
        result = {"correct": all(r["correct"] for r in results.values()),
                  "attempted": sum(r["attempted"] for r in results.values()),
                  "failed": sum(r["failed"] for r in results.values()),
                  "metrics": {f"{name}.{metric}": value
                              for name, r in results.items()
                              for metric, value in r["metrics"].items()}}
    else:
        result = results[ns.workload]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
