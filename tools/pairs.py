"""Run the benchmark on a parent commit and on the working tree, in pairs.

    python3 tools/pairs.py --parent HEAD --seed 37037 --pairs 10 \
        --workload sign-curve-64 --out BENCH_37.json

Run from the repository root.  The parent side runs from a ``git archive``
of ``--parent`` in a temporary directory, the change side from the working
tree.  Both run ``BENCHMARK.json``'s command, exactly as it is written
there, with ``--workload W --seed S --seconds T --trace 0``, T being
``BENCHMARK.json``'s ``run_seconds``.  Pair k runs the parent first when
k is even and the change first when k is odd, and a workload's pairs run
back to back.

The output is one ``BENCH_<n>.json`` in the schema of ``BENCH_31`` to
``BENCH_36``: every run, each side's median and quartiles, the pairs where
the change read better, how much worse its median is, and the gap between
the medians over the parent's quartile distance.  ``--claim W:METRIC``
adds the claim and its verdict under the rule every speed claim here
follows: at least 10 pairs, the change better in at least 9 of 10, and a
median gap wider than the parent's quartile distance.  ``--trace-seconds``
adds one traced run a side per sign workload, with its group operation
counts, and ``--tier1 K`` times the Tier-1 suite K times a side,
alternating.  Notes that read the figures are written into the output by
hand, after the keys the runner writes.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
QUARTILES = "statistics.quantiles(n=4, method='exclusive') over the runs of one side"
TRACE_COUNTS = ("group.exp_g1.calls", "group.exp_var.calls",
                "group.decode.calls", "group.mul.calls")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]


# ── statistics ───────────────────────────────────────────────────────────────

def quartiles(runs: list) -> list:
    q = statistics.quantiles(runs, n=4, method="exclusive")
    return [round(q[0], 4), round(q[2], 4)]


def summarize(parent_runs: list, change_runs: list, better: str,
              bound: float) -> dict:
    """One metric's summary over paired runs: run k of each side is pair k."""
    if len(parent_runs) != len(change_runs) or len(parent_runs) < 2:
        raise ValueError("need two or more runs a side, one per pair")
    sign = 1 if better == "lower" else -1
    p_med = statistics.median(parent_runs)
    c_med = statistics.median(change_runs)
    p_q = quartiles(parent_runs)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent_runs, change_runs))
    iqr = p_q[1] - p_q[0]
    gap = round(abs(c_med - p_med) / iqr, 1) if iqr else None  # JSON has no inf
    return {
        "bound": bound,
        "parent_median": round(p_med, 4),
        "parent_q1_q3": p_q,
        "change_median": round(c_med, 4),
        "change_q1_q3": quartiles(change_runs),
        "worse_by": round(sign * (c_med - p_med) / p_med, 4),
        "change_better_pairs": f"{wins}/{len(parent_runs)}",
        "median_gap_over_parent_iqr": gap,
        "parent_runs": parent_runs,
        "change_runs": change_runs,
    }


def claim_met(summary: dict) -> bool:
    """At least 10 pairs, the change better in 9 of every 10, better in the
    median, and by more than the parent's quartile distance (none, when
    the parent's runs have no spread)."""
    wins, pairs = map(int, summary["change_better_pairs"].split("/"))
    gap = summary["median_gap_over_parent_iqr"]
    return (pairs >= 10 and 10 * wins >= 9 * pairs
            and summary["worse_by"] < 0 and gap is not None and gap > 1)


# ── running ──────────────────────────────────────────────────────────────────

def archive(rev: str, dest: Path) -> str:
    """Unpack ``git archive rev`` into ``dest``; return rev's short hash."""
    data = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")
    return subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                          check=True, capture_output=True,
                          text=True).stdout.strip()


def bench_run(command: list, cwd: Path, workload: str, seed: int,
              seconds: float, trace: int = 0) -> dict:
    """One benchmark process; its last line of output, parsed."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} in {cwd} printed nothing: {proc.stderr}")
    return json.loads(lines[-1])


def run_pairs(sides: dict, spec: dict, workload: str, seed: int, pairs: int,
              seconds: float, log) -> dict:
    """One workload's pairs and their summary, in the BENCH_31 schema."""
    command = spec["command"]
    runs: dict = {"parent": [], "change": []}
    first = []
    for k in range(pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        first.append(order[0])
        for side in order:
            out = bench_run(command, sides[side], workload, seed, seconds)
            runs[side].append(out)
            log(f"{workload} pair {k} {side}: "
                f"correct={out['correct']} failed={out['failed']}")
    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        # unrounded, so the summary can be recomputed exactly from the runs
        values = {side: [r["metrics"][name]["value"] for r in rs]
                  for side, rs in runs.items()}
        summary[name] = summarize(values["parent"], values["change"],
                                  metric["better"], metric["bound"])
    return {
        "pairs": pairs,
        "first_in_pair": first,
        "failed_attempted": {
            side: [sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)]
            for side, rs in runs.items()},
        "all_correct": {side: all(r["correct"] for r in rs)
                        for side, rs in runs.items()},
        "summary": summary,
        "seed": seed,
        "pair_seeds": [{"pair": k, "seed": seed, "first": f}
                       for k, f in enumerate(first)],
    }


def trace_counts(sides: dict, spec: dict, workloads: list,
                 seconds: float) -> dict:
    """Group operation counts per operation from one traced run a side."""
    out = {"how": f"one traced run per side and workload, seed 1, "
                  f"{seconds:g} s, --trace 1; counts per operation (g1 "
                  "exponentiations / variable-base exponentiations / decodes "
                  "/ multiplications)"}
    for workload in workloads:
        if not workload.startswith("sign-"):
            continue
        out[workload] = {}
        for side, cwd in sides.items():
            metrics = bench_run(spec["command"], cwd, workload, 1, seconds,
                                trace=1)["metrics"]
            out[workload][side] = [metrics[name]["value"] for name in TRACE_COUNTS]
    return out


def time_tier1(sides: dict, reps: int) -> dict:
    """Tier-1's last output line and wall time, ``reps`` times a side,
    alternating which side runs first."""
    out: dict = {"parent": [], "change": []}
    for k in range(reps):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            cwd = sides[side]
            env = dict(os.environ, PYTHONPATH=str(cwd / "src"))
            t0 = time.perf_counter()
            proc = subprocess.run(TIER1, cwd=cwd, env=env, capture_output=True,
                                  text=True, check=False)
            wall = time.perf_counter() - t0
            last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
            out[side].append(f"{last.strip('= ')} ({wall:.1f} s wall)")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", default="HEAD", help="git revision to compare to")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", action="append",
                    help="repeat for several; default every workload")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims to improve")
    ap.add_argument("--trace-seconds", type=float, default=0)
    ap.add_argument("--tier1", type=int, default=0, metavar="K")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    if args.claim:  # checked before the runs, which take minutes
        claim_workload, _, claim_metric = args.claim.partition(":")
        if claim_workload not in workloads or claim_metric not in better:
            ap.error("--claim needs a workload this run measures and an "
                     "end-to-end metric, as WORKLOAD:METRIC")

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as tmp:
        parent = archive(args.parent, Path(tmp))
        sides = {"parent": Path(tmp), "change": ROOT}
        doc: dict = {
            "claim": None,
            "command": " ".join(spec["command"]) + f" --workload W --seed "
                       f"{args.seed} --seconds {seconds:g} --trace 0",
            "machine": f"{os.cpu_count()}-vCPU {platform.system()}, Python "
                       f"{platform.python_version()}; one benchmark process "
                       "at a time",
            "parent": parent,
            "change": "the working tree: the commit that adds this file",
            "seed": args.seed,
            "quartiles": QUARTILES,
            "pair_order": "pair k runs the parent first when k is even and the "
                          "change first when k is odd; the parent side runs "
                          f"from a git archive of {parent}, the change side "
                          "from the working tree",
            "workloads": {},
        }
        for workload in workloads:
            doc["workloads"][workload] = run_pairs(
                sides, spec, workload, args.seed, args.pairs, seconds, log)
        if args.trace_seconds:
            doc["trace"] = trace_counts(sides, spec, workloads, args.trace_seconds)
        if args.tier1:
            doc["tier1"] = time_tier1(sides, args.tier1)

    if args.claim:
        summary = doc["workloads"][claim_workload]["summary"][claim_metric]
        doc["claim"] = {"workload": claim_workload, "metric": claim_metric,
                        "better": better[claim_metric],
                        "met": claim_met(summary)}
    doc["worse_than_bound"] = [
        f"{w}: {name} {s['worse_by']:+.1%} against {s['bound']:.0%}"
        for w, entry in doc["workloads"].items()
        for name, s in entry["summary"].items() if s["worse_by"] > s["bound"]]
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
