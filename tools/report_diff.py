"""Compare the JSON reports of a parent commit and the working tree.

    python3 tools/report_diff.py [--base REV] -- ICELAB_ARGS

The parent tree is the committed tree of ``--base`` (default ``HEAD``) and
the change is a copy of the working tree this script sits in, both
extracted as ``tools/bench_pairs.py`` does and removed however the script
ends.  Each tree runs
``cli.run(cli.parse_config(ICELAB_ARGS))`` in its own interpreter.  The
script prints each side's report sha256 (of the report array dumped with
sorted keys and an indent of 2, as the tests and the benchmark hash it),
then, per check id, how many entries differ in each field, the worst
(largest numeric) discrepancy among those entries on each side, and each
differing entry with its old and new field values.  Entries are matched by
position.  It exits 1 when the reports differ and 0 when they are equal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_pairs import ROOT, extract  # noqa: E402

FIELDS = ("check_id", "params", "status", "lhs", "rhs", "discrepancy")

# run in a fresh interpreter: argv[1] is the tree, the rest are icelab's
_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1] + "/src")
from icelab import cli
_, reports = cli.run(cli.parse_config(sys.argv[2:]))
print(json.dumps([rep.to_json_obj() for rep in reports], sort_keys=True, indent=2))
"""


def reports(tree: Path, icelab_args: list) -> list:
    """The report array of one ``cli.run`` from ``tree``."""
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(tree), *icelab_args],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: icelab {' '.join(icelab_args)} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def digest(entries: list) -> str:
    payload = json.dumps(entries, sort_keys=True, indent=2)
    return hashlib.sha256(payload.encode()).hexdigest()


def worst_discrepancy(entries: list) -> str:
    """The largest discrepancy of the entries that is a number, as it is
    rendered, or "-" when none is (an error report's discrepancy is its
    message)."""
    worst = None
    for entry in entries:
        try:
            value = float(entry.get("discrepancy"))
        except (TypeError, ValueError):
            continue
        if worst is None or value > worst[0]:
            worst = (value, entry["discrepancy"])
    return "-" if worst is None else worst[1]


def differences(base: list, change: list) -> list:
    """Report lines for the entries that differ, grouped by check id."""
    lines = []
    if len(base) != len(change):
        lines.append(f"entry count: {len(base)} -> {len(change)}")
    by_check: dict[str, list] = {}
    for index, (old, new) in enumerate(zip(base, change)):
        fields = [f for f in FIELDS if old.get(f) != new.get(f)]
        if fields:
            by_check.setdefault(old["check_id"], []).append((index, old, new, fields))
    for check_id, entries in by_check.items():
        counts = {f: sum(f in fields for *_, fields in entries) for f in FIELDS}
        lines.append(f"{check_id}: {len(entries)} entries differ ("
                     + ", ".join(f"{f} {n}" for f, n in counts.items() if n) + ")")
        lines.append("  worst discrepancy: "
                     f"{worst_discrepancy([old for _, old, _, _ in entries])} -> "
                     f"{worst_discrepancy([new for _, _, new, _ in entries])}")
        for index, old, new, fields in entries:
            for field in fields:
                lines.append(f"  [{index}] {field}: {json.dumps(old.get(field))}"
                             f" -> {json.dumps(new.get(field))}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git revision of the parent")
    parser.add_argument("icelab_args", nargs="*", help="arguments of icelab, after --")
    ns = parser.parse_args(argv)

    parent, change_tree, base_rev = extract(ns.base)
    try:
        base = reports(parent, ns.icelab_args)
        change = reports(change_tree, ns.icelab_args)
    finally:
        shutil.rmtree(parent, ignore_errors=True)
        shutil.rmtree(change_tree, ignore_errors=True)
    print(f"base   {base_rev[:12]}  sha256 {digest(base)}  ({len(base)} reports)")
    print(f"change working tree   sha256 {digest(change)}  ({len(change)} reports)")
    lines = differences(base, change)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
