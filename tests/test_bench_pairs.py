"""tools/bench_pairs.py: the parent tree is always removed, and runs that
failed their correctness gate are counted and fail the script."""

import importlib.util
import json
import tempfile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture
def bench_pairs(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    trees = []

    def extract(base):
        trees.append(Path(tempfile.mkdtemp(prefix="icelab-parent-", dir=tmp_path)))
        return trees[-1], "0" * 40

    monkeypatch.setattr(module, "extract", extract)
    module.trees = trees
    return module


@pytest.mark.parametrize("interrupt", [SystemExit("a run exited with 2"),
                                       KeyboardInterrupt()])
def test_the_parent_tree_is_removed_when_a_run_is_cut_short(
        bench_pairs, tmp_path, monkeypatch, interrupt):
    def bench(tree, workload, seed, seconds):
        raise interrupt

    monkeypatch.setattr(bench_pairs, "bench", bench)
    with pytest.raises(type(interrupt)):
        bench_pairs.main(["--out", str(tmp_path / "out.json"), "--seed", "1"])
    (tree,) = bench_pairs.trees
    assert not tree.exists()


def test_failed_runs_are_counted_per_side_and_fail_the_script(
        bench_pairs, tmp_path, monkeypatch):
    def bench(tree, workload, seed, seconds):
        correct = not (tree == bench_pairs.trees[0] and workload == "fold-exact"
                       and seed == 3)
        return {"seed": seed, "correct": correct, "attempted": 1,
                "failed": 0 if correct else 1,
                "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 20.0}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    out = tmp_path / "out.json"
    assert bench_pairs.main(["--out", str(out), "--seed", "1"]) == 1
    workloads = json.loads(out.read_text())["workloads"]
    assert workloads["fold-exact"]["failed_runs"] == {"parent": 1, "change": 0}
    assert all(entry["failed_runs"] == {"parent": 0, "change": 0}
               for name, entry in workloads.items() if name != "fold-exact")
    assert not bench_pairs.trees[0].exists()


def test_a_clean_run_exits_zero(bench_pairs, tmp_path, monkeypatch):
    def bench(tree, workload, seed, seconds):
        return {"seed": seed, "correct": True, "attempted": 1, "failed": 0,
                "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 20.0}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    assert bench_pairs.main(["--out", str(tmp_path / "out.json"), "--seed", "1"]) == 0
