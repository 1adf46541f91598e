"""Print each workload's trajectory across every BENCH_<n>.json.

    python3 tools/trajectory.py [--metric offline_ms.p50] [--workload W]

Run from the repository root.  For each workload and end-to-end metric it
prints one row per file, in PR order: the parent's median, the change's,
the change's pairs won where the file records them, and the claim if the
file made one on that pair.  The files' schemas drifted over time;
``read`` maps each onto (parent median, change median, pairs won):

* ``BENCH_2``: ``summary[m]`` holds ``parent`` and ``change`` objects,
  each with a ``median``;
* ``BENCH_30``: ``metrics[m]`` holds ``parent_median`` and
  ``change_median``;
* every other file: ``summary[m]`` holds ``parent_median`` and
  ``change_median``, with ``change_better_pairs`` a count or "k/n".
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def bench_files(root: Path = ROOT) -> list:
    """Every BENCH_<n>.json under ``root``, in order of n."""
    files = root.glob("BENCH_*.json")
    return sorted(files, key=lambda p: int(re.fullmatch(r"BENCH_(\d+)\.json",
                                                        p.name)[1]))


def _row(entry: dict) -> tuple:
    if "parent" in entry and isinstance(entry["parent"], dict):
        return (entry["parent"]["median"], entry["change"]["median"],
                entry.get("change_better_pairs"))
    return (entry["parent_median"], entry["change_median"],
            entry.get("change_better_pairs"))


def read(path: Path) -> tuple:
    """({workload: {metric: (parent median, change median, pairs won)}},
    the file's claim as (workload, metric), or None if it made none)."""
    doc = json.loads(path.read_text())
    rows = {}
    for workload, body in doc["workloads"].items():
        table = body.get("summary", body.get("metrics"))
        rows[workload] = {metric: _row(entry) for metric, entry in table.items()}
    claim = doc.get("claim")
    if isinstance(claim, dict):
        return rows, (claim["workload"], claim["metric"])
    return rows, None


def trajectory(files: list, workload: str, metric: str) -> list:
    """(file name, parent, change, pairs won, claimed) per file that has it."""
    rows = []
    for path in files:
        table, claim = read(path)
        row = table.get(workload, {}).get(metric)
        if row is not None:
            rows.append((path.stem, *row, claim == (workload, metric)))
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    help="repeat for several; default every workload")
    ap.add_argument("--metric", action="append",
                    help="repeat for several; default every end-to-end metric")
    args = ap.parse_args(argv)
    files = bench_files()
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        for metric in args.metric or [m["name"] for m in spec["end_to_end"]]:
            print(f"{workload} {metric}")
            for name, parent, change, won, claimed in trajectory(
                    files, workload, metric):
                won = "" if won is None else f"  {won}"
                print(f"  {name:<9} {parent:>10.4g} -> {change:<10.4g}{won}"
                      f"{'  claimed' if claimed else ''}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
