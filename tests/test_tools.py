"""The pair runner's statistics and the trajectory reader, against the
committed BENCH_<n>.json files."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


pairs = _load("pairs")
trajectory = _load("trajectory")
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_the_reader_parses_every_bench_file():
    files = trajectory.bench_files()
    assert len(files) >= 21
    assert [f.name for f in files[:3]] == ["BENCH_2.json", "BENCH_3.json",
                                          "BENCH_4.json"]
    claims = {}
    for path in files:
        table, claims[path.stem] = trajectory.read(path)
        assert set(table) == set(WORKLOADS), path.name
        for workload in WORKLOADS:
            assert set(table[workload]) == set(BETTER), (path.name, workload)
            for parent, change, _won in table[workload].values():
                assert parent > 0 and change > 0, (path.name, workload)
    assert claims["BENCH_2"] is None
    assert claims["BENCH_33"] == ("sign-curve-64", "offline_ms.p50")


def test_the_trajectory_reads_each_schema():
    rows = {name: (parent, change, won, claimed)
            for name, parent, change, won, claimed in trajectory.trajectory(
                trajectory.bench_files(), "sign-curve-64", "offline_ms.p50")}
    assert rows["BENCH_2"][:3] == (pytest.approx(219.5236, abs=1e-4),
                                   pytest.approx(72.4848, abs=1e-4), "10/10")
    assert rows["BENCH_30"][:2] == (23.9336, 24.1369)
    assert rows["BENCH_33"] == (21.9678, 19.9663, "10/10", True)
    assert rows["BENCH_35"] == (20.3241, 20.354, "1/5", False)


def test_the_runner_reproduces_bench_35():
    """Medians, quartiles and pairs won from BENCH_35's recorded runs.  Its
    runs are stored to four decimals and its summaries were taken before
    rounding, so a median or quartile may differ by one in the last place."""
    doc = json.loads((ROOT / "BENCH_35.json").read_text())
    checked = 0
    for workload, body in doc["workloads"].items():
        for metric, want in body["summary"].items():
            got = pairs.summarize(want["parent_runs"], want["change_runs"],
                                  BETTER[metric], want["bound"])
            where = (workload, metric)
            for key in ("parent_median", "change_median"):
                assert got[key] == pytest.approx(want[key], abs=1.01e-4), where
            for key in ("parent_q1_q3", "change_q1_q3"):
                assert got[key] == pytest.approx(want[key], abs=1.01e-4), where
            assert got["change_better_pairs"] == want["change_better_pairs"], where
            assert len(got["parent_runs"]) == body["pairs"]
            checked += 1
    assert checked == 27


def test_the_claim_rule():
    parent = [20.0, 20.2, 19.9, 20.1, 20.0, 20.3, 19.8, 20.0, 20.1, 20.2]
    faster = [p - 1.5 for p in parent]
    s = pairs.summarize(parent, faster, "lower", 0.15)
    assert s["change_better_pairs"] == "10/10" and s["worse_by"] < 0
    assert pairs.claim_met(s)
    one_loss = faster[:9] + [parent[9] + 1]
    assert pairs.claim_met(pairs.summarize(parent, one_loss, "lower", 0.15))
    two_losses = faster[:8] + [parent[8] + 1, parent[9] + 1]
    assert not pairs.claim_met(pairs.summarize(parent, two_losses, "lower", 0.15))
    # nine pairs are too few, and a gap inside the parent's spread is no gain
    assert not pairs.claim_met(pairs.summarize(parent[:9], faster[:9], "lower", 0.15))
    close = [p - 0.01 for p in parent]
    assert not pairs.claim_met(pairs.summarize(parent, close, "lower", 0.15))
    flat = pairs.summarize([20.0] * 10, faster, "lower", 0.15)
    assert flat["median_gap_over_parent_iqr"] is None
    assert not pairs.claim_met(flat)
    # higher is better for a throughput: slower runs are worse, not better
    s = pairs.summarize(parent, faster, "higher", 0.15)
    assert s["change_better_pairs"] == "0/10" and s["worse_by"] > 0
    assert not pairs.claim_met(s)
