"""Alternating before/after benchmark pairs, written to a BENCH_*.json file.

    python3 tools/bench_pairs.py --out BENCH_6.json --seed 301

The parent tree is the committed tree of ``--base`` (default ``HEAD``),
extracted with ``git archive BASE | tar -x`` into a new temporary
directory.  The change is the working tree this script sits in, copied
into a second temporary directory: the files that ``git ls-files --cached
--others --exclude-standard`` lists, so that neither side runs beside
caches or ignored files and both are laid out alike.  For each
gated workload of ``BENCHMARK.json``, and for contour-float, which
perfbench runs by name only, pair i of ten runs ``perfbench/run.py``
once from each tree with seed ``--seed + i`` and the benchmark's
``run_seconds``; the parent runs first in even pairs and second in odd
ones, so that a drift of the host's speed does not favour either side.
Ten pairs is the fewest that can back a claimed gain (nine wins of ten).
Runs are sequential.

The output holds every run's metrics, each side's median and quartiles
per metric, and per metric the number of pairs the change won (ties count
for neither side).  An end-to-end metric improves in the direction that
``BENCHMARK.json`` declares.  A run whose correctness gate failed
(``"correct": false``) is still measured, but each workload records how
many runs failed on each side, and the script then exits with status 1.
Both temporary trees are removed however the script ends, SIGTERM
included: its handler raises ``SystemExit``, so that the cleanup runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
UNGATED = ("contour-float",)   # the float path; perfbench runs it by name


def extract(base: str) -> tuple:
    """(parent, change, commit): the committed tree of ``base`` and a copy of
    the working tree, each written into a new temporary directory, and the
    commit that ``base`` names."""
    rev = subprocess.run(["git", "rev-parse", base], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    parent_dir = Path(tempfile.mkdtemp(prefix="icelab-parent-"))
    change_dir = Path(tempfile.mkdtemp(prefix="icelab-change-"))
    try:
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                                 capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(parent_dir)], input=archive, check=True)
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
            cwd=ROOT, check=True, capture_output=True, text=True).stdout
        for name in filter(None, listed.split("\0")):
            source = ROOT / name
            if source.exists():   # a tracked file deleted in the working tree
                (change_dir / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(source, change_dir / name)
    except BaseException:
        shutil.rmtree(parent_dir, ignore_errors=True)
        shutil.rmtree(change_dir, ignore_errors=True)
        raise
    return parent_dir, change_dir, rev


def bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run from ``tree``; its JSON result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):   # 1 is a failed gate, still measured
        raise SystemExit(f"{tree}: {workload} seed {seed} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"seed": seed, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def run_pairs(parent: Path, change: Path, base_rev: str, spec: dict, seed: int,
              out_path: Path) -> int:
    """Run the pairs of every workload, rewriting ``out_path`` after each
    workload; the number of runs whose correctness gate failed."""
    metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}
    gated = [w["name"] for w in spec["workloads"]]
    failed = 0
    out = {"about": "Alternating perfbench pairs, parent tree against a copy of the "
                    "working tree; "
                    "see tools/bench_pairs.py.",
           "parent": base_rev,
           "machine": {"cpus": os.cpu_count(), "python": platform.python_version(),
                       "platform": platform.platform()},
           "run_seconds": spec["run_seconds"], "pairs": PAIRS,
           "workloads": {}}
    for workload in [*gated, *UNGATED]:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            pair_seed = seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                tree = parent if side == "parent" else change
                runs[side].append(bench(tree, workload, pair_seed, spec["run_seconds"]))
                print(f"{workload} pair {i} {side}: "
                      + " ".join(f"{m}={runs[side][-1][m]:.4g}" for m in metrics),
                      file=sys.stderr, flush=True)
        failed_runs = {side: sum(not r["correct"] for r in side_runs)
                       for side, side_runs in runs.items()}
        failed += sum(failed_runs.values())
        entry = {"gated": workload in gated, "failed_runs": failed_runs, "runs": runs,
                 "parent": {}, "change": {}, "change_wins": {}}
        for name, better in metrics.items():
            for side in ("parent", "change"):
                entry[side][name] = summary([r[name] for r in runs[side]])
            sign = 1 if better == "lower" else -1
            entry["change_wins"][name] = sum(
                sign * (p[name] - c[name]) > 0
                for p, c in zip(runs["parent"], runs["change"]))
        out["workloads"][workload] = entry
        out_path.write_text(json.dumps(out, indent=1) + "\n")
    return failed



def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of pair 0; pair i uses seed + i")
    parser.add_argument("--base", default="HEAD", help="git revision of the parent")
    ns = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parent, change, base_rev = extract(ns.base)
    try:
        failed = run_pairs(parent, change, base_rev, spec, ns.seed, ns.out)
    finally:
        shutil.rmtree(parent, ignore_errors=True)
        shutil.rmtree(change, ignore_errors=True)
    if failed:
        print(f"{failed} runs failed their correctness gate; see failed_runs in "
              f"{ns.out}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
