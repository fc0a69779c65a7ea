"""tools/report_diff.py: equal reports exit 0, a differing entry is printed
by check id and field, with the worst discrepancy of each side, and exits
1, and both extracted trees are always removed."""

import importlib.util
import shutil
import tempfile
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "report_diff.py"
ARGS = ["--", "--suite", "boundary", "--n-max", "2", "--draws", "1"]


@pytest.fixture
def report_diff(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("report_diff", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    trees = []

    def extract(base):   # (parent, change, commit), as bench_pairs.extract returns
        for prefix in ("icelab-parent-", "icelab-change-"):
            trees.append(Path(tempfile.mkdtemp(prefix=prefix, dir=tmp_path)))
            shutil.copytree(module.ROOT / "src", trees[-1] / "src")
        return trees[-2], trees[-1], "0" * 40

    monkeypatch.setattr(module, "extract", extract)
    module.trees = trees
    return module


def test_equal_trees_print_one_digest_and_exit_zero(report_diff, capsys):
    assert report_diff.main(ARGS) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert len({line.split("sha256 ")[1].split()[0] for line in lines}) == 1
    assert len(report_diff.trees) == 2
    assert not any(tree.exists() for tree in report_diff.trees)


def _entry(check_id, lhs, status="pass", discrepancy="0"):
    return {"check_id": check_id, "params": {"n": "1"}, "status": status,
            "lhs": lhs, "rhs": "1", "discrepancy": discrepancy}


def test_differing_entries_are_printed_by_check_and_field(report_diff, monkeypatch,
                                                          capsys):
    def reports(tree, icelab_args):
        changed = tree == report_diff.trees[1]
        return [_entry("boundary.sum_rule", "1"),
                _entry("boundary.single_site", "2" if changed else "1",
                       "fail" if changed else "pass")]

    monkeypatch.setattr(report_diff, "reports", reports)
    assert report_diff.main(ARGS) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == ['boundary.single_site: 1 entries differ (status 1, lhs 1)',
                         '  worst discrepancy: 0 -> 0',
                         '  [1] status: "pass" -> "fail"',
                         '  [1] lhs: "1" -> "2"']
    assert not any(tree.exists() for tree in report_diff.trees)


def test_each_check_shows_the_worst_discrepancy_of_its_differing_entries(
        report_diff, monkeypatch, capsys):
    base = [("1.0", "2.22e-16"), ("0.5", "0"), ("0.25", "9.99e-16"), ("2", "1e-15")]
    change = [("1.1", "1.11e-16"), ("0.6", "1.34e-15"), ("0.25", "9.99e-16"),
              ("3", "ValueError: boom")]

    def reports(tree, icelab_args):
        rows = change if tree == report_diff.trees[1] else base
        ids = ["efp.double_integral_vs_enum"] * 3 + ["rcp.top_integral_vs_enum"]
        return [_entry(i, lhs, discrepancy=d) for i, (lhs, d) in zip(ids, rows)]

    monkeypatch.setattr(report_diff, "reports", reports)
    assert report_diff.main(ARGS) == 1
    lines = capsys.readouterr().out.splitlines()
    # the third entry is equal on both sides, so its 9.99e-16 is not counted
    assert lines[2:4] == ['efp.double_integral_vs_enum: 2 entries differ '
                          '(lhs 2, discrepancy 2)',
                          '  worst discrepancy: 2.22e-16 -> 1.34e-15']
    assert '  worst discrepancy: 1e-15 -> -' in lines
    assert report_diff.worst_discrepancy([]) == "-"


def test_a_changed_entry_count_is_a_difference(report_diff, monkeypatch, capsys):
    def reports(tree, icelab_args):
        return [_entry("boundary.sum_rule", "1")] * (1 if tree == report_diff.trees[1] else 2)

    monkeypatch.setattr(report_diff, "reports", reports)
    assert report_diff.main(ARGS) == 1
    assert "entry count: 2 -> 1" in capsys.readouterr().out


def test_the_parent_tree_is_removed_when_its_run_fails(report_diff, monkeypatch):
    def reports(tree, icelab_args):
        raise SystemExit("icelab exited with 2")

    monkeypatch.setattr(report_diff, "reports", reports)
    with pytest.raises(SystemExit):
        report_diff.main(ARGS)
    assert not any(tree.exists() for tree in report_diff.trees)
