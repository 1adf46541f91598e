"""Smoke test of the benchmark itself at a tiny size.

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json appears with its unit,
that the traced run reproduces the untraced signatures and group
operation counts, that the wrappers are gone afterwards, and that the
benchmark refuses to run without the library sources.
"""

import json
import shutil
import subprocess
import sys

import run  # this directory is on sys.path under pytest

assert run.add_source_path()

import bench  # noqa: E402
from multisig import endorsement, gamma, schemes  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
TINY_SIGN = bench.SignWorkload("tiny-sign", 3, toy_q=bench.TOY_Q)
TINY_ENDORSE = bench.EndorseWorkload("tiny-endorse", 2)
OPS = 6


def _units(entries) -> dict:
    return {e["name"]: e["unit"] for e in entries}


def _metric_units(result) -> dict:
    return {name: unit for name, (_value, unit) in result.metrics.items()}


def _entry_points() -> dict:
    return {(m.__name__, k): v for m in (schemes, gamma, endorsement)
            for k, v in vars(m).items() if callable(v)}


def _run_both(workload, tmp_path):
    before = _entry_points()
    plain = bench.run(workload, 5, 60, trace=False, max_ops=OPS)
    traced = bench.run(workload, 5, 60, trace=True, max_ops=OPS,
                       span_file=tmp_path / "spans.jsonl")
    assert _entry_points() == before
    assert not {"exp", "mul", "decode_element"} & set(vars(traced.state.par))
    assert plain.correct and traced.correct
    assert plain.failed == traced.failed == 0
    assert _metric_units(plain) == _units(SPEC["end_to_end"])
    assert _metric_units(traced) == _units(SPEC["per_layer"])
    assert len(traced.traced.samples) == len(plain.untraced.samples) == OPS
    for i, sample in traced.traced.samples.items():
        assert sample.signature == plain.untraced.samples[i].signature
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == traced.detail["spans"] > 0
    assert {"name", "start_ns", "end_ns", "parent", "op"} <= set(json.loads(lines[0]))
    return plain, traced


def test_sign_workload(tmp_path):
    _plain, traced = _run_both(TINY_SIGN, tmp_path)
    value = {name: v for name, (v, _unit) in traced.metrics.items()}
    n = TINY_SIGN.n
    assert value["group.exp_g1.calls"] == n + 1
    assert value["group.exp_var.calls"] == 2
    assert value["group.decode.calls"] == 2 * (n - 1)
    assert value["group.mul.calls"] == 2 * n - 1
    assert value["schemes.online_group_ops"] == 0
    assert value["tree.phases"] == 4
    assert "trace.overhead" in value


def test_endorse_workload(tmp_path):
    plain, traced = _run_both(TINY_ENDORSE, tmp_path)
    assert {"revised_ms.p50", "default_ms.p90"} <= set(plain.detail)
    value = {name: v for name, (v, _unit) in traced.metrics.items()}
    assert value["endorsement.revised.step7_verify_calls"] == 1
    assert value["endorsement.default.step7_verify_calls"] == TINY_ENDORSE.n
    assert value["schemes.online_group_ops"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sign-toy-511",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
