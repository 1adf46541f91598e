"""Seeded CLI output pinned byte for byte against a recorded file.

Criterion 10 compares two runs of the same code, so a refactor that changes
an output still passes it; this test compares with outputs recorded from an
earlier commit (``tests/data/cli_golden.json``).  Regenerate the file only
when an output change is intended, and say so in the change log:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from multisig.cli import main

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

_TOY = ("--toy-q", "1048573", "--seed", "5")
_FILES = ("--out", "sig.bin", "--metrics", "metrics.json",
          "--transcript", "transcript.jsonl")

CASES = {
    **{f"simulate_{scheme}_toy": ("simulate", "--scheme", scheme,
                                  "--signers", "7", *_TOY, *_FILES)
       for scheme in ("agms", "gms", "cosi")},
    "simulate_agms_curve": ("simulate", "--scheme", "agms", "--signers", "5",
                            "--backend", "curve", "--seed", "5", *_FILES),
    "simulate_gamma_curve": ("simulate", "--scheme", "gamma", "--signers", "1",
                             "--backend", "curve", "--seed", "5", *_FILES),
    "bench_csv": ("bench", "--schemes", "gms,agms,cosi", "--signers-list",
                  "3,7", "--reps", "2", *_TOY, "--out", "bench.csv"),
    "endorse_csv": ("endorse", "--endorsers-list", "2,4", "--toy-q", "65521",
                    "--seed", "5", "--out", "endorse.csv"),
    "endorse_json": ("endorse", "--endorsers-list", "2,4", "--toy-q", "65521",
                     "--seed", "5", "--format", "json", "--out", "endorse.json"),
    **{f"endorse_flow_{flow}": ("endorse", "--flow", flow, "--endorsers-list",
                                "1,3", "--toy-q", "65521", "--seed", "5")
       for flow in ("revised", "default")},
    "attack_rogue": ("attack", "rogue", "--toy-q", "65521", "--seed", "5",
                     "--out", "rogue.json"),
    **{f"attack_ksum_{target}": ("attack", "ksum", "--target", target,
                                 "--toy-q", "65521", "--seed", "5",
                                 "--out", "ksum.json")
       for target in ("cosi", "agms")},
    # q = 5: fabricated proofs pass by chance, so the run exits 1
    "attack_rogue_violated": ("attack", "rogue", "--toy-q", "5", "--seed", "1",
                              "--message", "m"),
}


def run_case(argv, workdir: Path) -> dict:
    """Exit code, stdout, stderr and every file the command wrote (binary
    files as hex), from a run inside ``workdir``."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    files = {}
    for path in sorted(workdir.iterdir()):
        data = path.read_bytes()
        files[path.name] = data.hex() if path.suffix == ".bin" else data.decode()
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "files": files}


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_output_matches_recording(name, tmp_path):
    expected = json.loads(GOLDEN.read_text())[name]
    assert expected["argv"] == list(CASES[name])
    actual = run_case(CASES[name], tmp_path)
    for field in ("exit", "stdout", "stderr", "files"):
        assert actual[field] == expected[field], field


if __name__ == "__main__":
    doc = {}
    for name, argv in CASES.items():
        with tempfile.TemporaryDirectory() as tmp:
            doc[name] = {"argv": list(argv), **run_case(argv, Path(tmp))}
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN} ({len(doc)} cases)", file=sys.stderr)
