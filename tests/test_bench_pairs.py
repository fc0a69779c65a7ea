"""tools/bench_pairs.py: the parent tree and the copy of the change are
always removed, and runs that failed their correctness gate are counted
and fail the script."""

import importlib.util
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_pairs(tmp_path, monkeypatch):
    module = load_script()
    trees = []

    def extract(base):
        for side in ("parent", "change"):
            trees.append(Path(tempfile.mkdtemp(prefix=f"icelab-{side}-", dir=tmp_path)))
        return *trees, "0" * 40

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
    parent, change = bench_pairs.trees
    assert not parent.exists() and not change.exists()


def test_both_trees_are_removed_when_the_script_is_sent_sigterm(tmp_path):
    # the script runs in its own interpreter, with a first run that never
    # ends, so that SIGTERM reaches it the way a time limit would
    driver = f"""
import importlib.util, sys, tempfile, time
from pathlib import Path
spec = importlib.util.spec_from_file_location("bench_pairs", {str(SCRIPT)!r})
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)

def extract(base):
    return (Path(tempfile.mkdtemp(prefix="icelab-parent-")),
            Path(tempfile.mkdtemp(prefix="icelab-change-")), "0" * 40)

def bench(tree, workload, seed, seconds):
    print("running", flush=True)
    time.sleep(60)

module.extract, module.bench = extract, bench
sys.exit(module.main(["--out", {str(tmp_path / "out.json")!r}, "--seed", "1"]))
"""
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = subprocess.Popen([sys.executable, "-c", driver], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "TMPDIR": str(tmpdir)})
    try:
        assert proc.stdout.readline() == "running\n", proc.stderr.read()
        assert sorted(p.name.split("-")[1] for p in tmpdir.iterdir()) == ["change", "parent"]
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        proc.kill()
        proc.communicate()
    assert list(tmpdir.iterdir()) == []


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
    assert not any(tree.exists() for tree in bench_pairs.trees)


def test_a_clean_run_exits_zero(bench_pairs, tmp_path, monkeypatch):
    ran_in = set()

    def bench(tree, workload, seed, seconds):
        ran_in.add(tree)
        return {"seed": seed, "correct": True, "attempted": 1, "failed": 0,
                "wall_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 20.0}

    monkeypatch.setattr(bench_pairs, "bench", bench)
    assert bench_pairs.main(["--out", str(tmp_path / "out.json"), "--seed", "1"]) == 0
    assert ran_in == set(bench_pairs.trees)   # neither side runs in the working tree


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_the_change_is_a_copy_of_the_files_git_lists(tmp_path, monkeypatch):
    module = load_script()
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    (repo / ".gitignore").write_text("__pycache__/\n")
    (repo / "src" / "kept.py").write_text("old\n")
    (repo / "gone.py").write_text("tracked, then deleted\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "src" / "kept.py").write_text("edited\n")
    (repo / "gone.py").unlink()
    (repo / "new.py").write_text("untracked\n")
    (repo / "__pycache__").mkdir()
    (repo / "__pycache__" / "cache.pyc").write_text("ignored\n")
    monkeypatch.setattr(module, "ROOT", repo)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))

    parent, change, rev = module.extract("HEAD")
    try:
        assert len(rev) == 40
        assert (parent / "src" / "kept.py").read_text() == "old\n"
        assert (parent / "gone.py").exists() and not (parent / "new.py").exists()
        assert (change / "src" / "kept.py").read_text() == "edited\n"
        assert (change / "new.py").exists()
        assert not (change / "gone.py").exists()
        assert not (change / "__pycache__").exists()
    finally:
        shutil.rmtree(parent)
        shutil.rmtree(change)
