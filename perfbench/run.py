"""Benchmark entry point.

    python3 perfbench/run.py --workload sign-curve-64 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/`` of
the same checkout.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  The line before it holds the run's provenance and
details (error rate, sample counts, per-flow latencies).  Exit code 0
when every output checked out, 1 when one did not, 2 when the library
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def add_source_path() -> bool:
    """Put this checkout's ``src/`` first on ``sys.path``; False if absent."""
    if not (SRC / "multisig" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    if not add_source_path():
        print("run.py: the multisig sources (src/multisig) are missing",
              file=sys.stderr)
        return 2
    import bench
    import multisig

    if SRC not in Path(multisig.__file__).resolve().parents:
        print(f"run.py: multisig was imported from {multisig.__file__}, "
              "not from this checkout", file=sys.stderr)
        return 2

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    workload = bench.WORKLOADS[args.workload]
    span_file = ROOT / "perfbench" / "out" / f"{workload.name}.spans.jsonl"
    result = bench.run(workload, args.seed, args.seconds, bool(args.trace),
                       span_file=span_file)
    print(json.dumps({"provenance": result.provenance, "detail": result.detail}))
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
