import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multisig
from multisig import cli, endorsement, gamma, schemes
from multisig.cli import MAX_SIZE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv):
    """The CLI in a child process, so a regression to a hang fails on the
    timeout instead of stalling the suite."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(multisig.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; from multisig.cli import main; sys.exit(main())",
         *argv],
        capture_output=True, text=True, timeout=30, env=env,
    )


def test_keygen_writes_public_and_secret_files(tmp_path, capsys):
    out = tmp_path / "keys.json"
    code, stdout, _ = run(capsys, "keygen", "--count", "4", "--out", str(out),
                          "--seed", "9")
    assert code == 0
    assert "4 public keys" in stdout
    doc = json.loads(out.read_text())
    assert doc["schema"] == "multisig/keys/v1"
    assert len(doc["keys"]) == 4
    secret = tmp_path / "keys.secret.json"
    assert json.loads(secret.read_text())["schema"] == "multisig/secrets/v1"


@pytest.mark.parametrize("count", ["-1", "0"])
def test_keygen_rejects_counts_below_one(tmp_path, capsys, count):
    out = tmp_path / "keys.json"
    code, _, stderr = run(capsys, "keygen", "--count", count,
                          "--out", str(out), "--seed", "9")
    assert code == 2
    assert "--count" in stderr
    assert list(tmp_path.iterdir()) == []


def test_explicit_seed_makes_outputs_bit_identical(tmp_path, capsys):
    files = []
    for tag in ("a", "b"):
        keys = tmp_path / f"{tag}.json"
        sig = tmp_path / f"{tag}.sig"
        metrics = tmp_path / f"{tag}.metrics.json"
        bench = tmp_path / f"{tag}.bench.csv"
        endorse = tmp_path / f"{tag}.endorse.csv"
        attack = tmp_path / f"{tag}.attack.json"
        assert run(capsys, "keygen", "--count", "3", "--out", str(keys),
                   "--seed", "5")[0] == 0
        assert run(capsys, "simulate", "--scheme", "agms", "--signers", "7",
                   "--seed", "5", "--out", str(sig),
                   "--metrics", str(metrics))[0] == 0
        assert run(capsys, "bench", "--schemes", "agms",
                   "--signers-list", "3,7", "--reps", "2", "--seed", "5",
                   "--out", str(bench))[0] == 0
        assert run(capsys, "endorse", "--endorsers-list", "2,4", "--seed", "5",
                   "--toy-q", "65521", "--out", str(endorse))[0] == 0
        assert run(capsys, "attack", "ksum", "--target", "agms", "--seed",
                   "5", "--toy-q", "251", "--k", "2",
                   "--out", str(attack))[0] == 0
        files.append([p.read_bytes()
                      for p in (keys, sig, metrics, bench, endorse, attack)])
    assert files[0] == files[1]


def test_default_seed_keeps_timings(tmp_path, capsys):
    code, stdout, _ = run(capsys, "simulate", "--scheme", "gms",
                          "--signers", "3")
    assert code == 0
    assert "verified=true" in stdout
    assert "_ns=" in stdout  # wall-clock lines present without --seed
    code, stdout, _ = run(capsys, "simulate", "--scheme", "gms",
                          "--signers", "3", "--seed", "1")
    assert code == 0
    assert "_ns=" not in stdout


@pytest.mark.parametrize("scheme, signers", [("agms", "7"), ("gamma", "1")])
def test_unseeded_simulate_draws_fresh_nonces(capsys, scheme, signers):
    # a nonce seed shared by two messages would publish the same c and give
    # away the aggregate secret key; without --seed each run draws its own
    cs = []
    for message in ("A", "B"):
        code, stdout, _ = run(capsys, "simulate", "--scheme", scheme,
                              "--signers", signers, "--toy-q", "1048573",
                              "--message", message)
        assert code == 0
        sig = bytes.fromhex(stdout.split("signature=")[1].split()[0])
        cs.append(sig[:len(sig) // 2])
    assert cs[0] != cs[1]


def test_unseeded_endorse_draws_fresh_nonces(tmp_path, capsys):
    # two messages endorsed on one c would give away the endorsers' summed key
    cs = []
    for message in ("A", "B"):
        out = tmp_path / f"{message}.json"
        code, _, _ = run(capsys, "endorse", "--endorsers-list", "2",
                         "--flow", "revised", "--format", "json",
                         "--toy-q", "65521", "--message", message,
                         "--out", str(out))
        assert code == 0
        record = json.loads(out.read_text())["records"][0]
        assert all(isinstance(s["wall_ns"], int) for s in record["steps"])
        sig = bytes.fromhex(record["signature_hex"])
        cs.append(sig[:len(sig) // 2])
    assert cs[0] != cs[1]


def test_unseeded_keygen_and_simulate_share_keys(tmp_path, capsys):
    # only the nonces are fresh: keys stay on the default seed
    keys = tmp_path / "keys.json"
    sig = tmp_path / "out.sig"
    assert run(capsys, "keygen", "--count", "7", "--out", str(keys))[0] == 0
    assert run(capsys, "simulate", "--scheme", "agms", "--signers", "7",
               "--message", "hi", "--out", str(sig))[0] == 0
    code, stdout, _ = run(capsys, "verify", "--scheme", "agms", "--keys",
                          str(keys), "--signature", str(sig),
                          "--message", "hi")
    assert code == 0
    assert "signature valid: true" in stdout


def test_simulate_reports_zero_exp_online(capsys):
    code, stdout, _ = run(capsys, "simulate", "--scheme", "agms",
                          "--signers", "7", "--seed", "2")
    assert code == 0
    assert "exp[sign_online]=0" in stdout
    assert "verified=true" in stdout


def test_simulate_agms_timing_split(tmp_path, capsys):
    # no --seed, so wall-clock fields are emitted; almost all signing work
    # happens before the message exists
    metrics = tmp_path / "m.json"
    code, stdout, _ = run(capsys, "simulate", "--scheme", "agms",
                          "--signers", "63", "--backend", "curve",
                          "--metrics", str(metrics))
    assert code == 0
    assert "offline_ns=" in stdout and "online_ns=" in stdout
    doc = json.loads(metrics.read_text())
    assert doc["schema"] == "multisig/metrics/v1"
    assert doc["timings"]["online_ns"] < doc["timings"]["offline_ns"]


def test_gms_and_agms_write_the_same_signature(tmp_path, capsys):
    sigs = []
    for scheme in ("gms", "agms"):
        out = tmp_path / f"{scheme}.sig"
        assert run(capsys, "simulate", "--scheme", scheme, "--signers", "7",
                   "--seed", "9", "--out", str(out))[0] == 0
        sigs.append(out.read_bytes())
    assert sigs[0] == sigs[1]


def test_simulate_rejects_oversized_tree(capsys):
    code, _, stderr = run(capsys, "simulate", "--scheme", "gms",
                          "--signers", "100", "--branching", "2")
    assert code == 2
    assert "error:" in stderr


@pytest.mark.parametrize("depth", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ("simulate", "--signers", "7"),
    ("bench", "--schemes", "agms", "--signers-list", "7", "--reps", "1"),
    ("endorse", "--endorsers-list", "7", "--flow", "revised"),
])
def test_impossible_depth_exits_two_without_hanging(argv, depth):
    proc = run_child(*argv, "--depth", depth)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("simulate", "--signers", "5", "--branching", "3", "--depth", "100000000"),
    ("simulate", "--signers", "5", "--depth", "10000000000"),
    ("bench", "--schemes", "agms", "--signers-list", "5", "--reps", "1",
     "--depth", "10000000000"),
    ("endorse", "--endorsers-list", "5", "--flow", "revised",
     "--depth", "10000000000"),
])
def test_deep_tree_is_sized_without_hanging(argv):
    # sizing a tree must cost nothing that grows with --depth: the fit
    # check walks only the levels that 5 nodes fill
    proc = run_child(*argv)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr


_M61 = 2**61 - 1  # prime; trial division of it runs for minutes


@pytest.mark.parametrize("command", ["verify-keys", "verify"])
@pytest.mark.parametrize("p,q", [(_M61, 11), (23, _M61), (23, 7)])
def test_crafted_toy_group_exits_two_without_hanging(tmp_path, command, p, q):
    keys = tmp_path / "keys.json"
    keys.write_text(json.dumps({
        "schema": "multisig/keys/v1",
        "group": {"backend": "toy", "p": p, "q": q, "g": 2},
        "keys": [{"y": "0002"}],
    }))
    argv = [command, "--keys", str(keys)]
    if command == "verify":
        argv += ["--signature", str(tmp_path / "sig.bin"), "--message", "m"]
    proc = run_child(*argv)
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_huge_toy_order_exits_two_without_hanging():
    proc = run_child("simulate", "--toy-q", str(_M61), "--seed", "1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("simulate", "--signers", "3"),
    ("bench", "--schemes", "agms", "--signers-list", "3", "--reps", "1"),
])
def test_zero_branching_is_a_usage_error(capsys, argv):
    # 0 used to be read as "not given" and replaced by the default fan-out
    code, stdout, stderr = run(capsys, *argv, "--branching", "0",
                               "--seed", "1")
    assert code == 2
    assert "branching" in stderr
    assert stdout == ""


def test_simulate_gamma_needs_single_signer(capsys):
    code, _, stderr = run(capsys, "simulate", "--scheme", "gamma",
                          "--signers", "3")
    assert code == 2
    assert "single-signer" in stderr
    assert run(capsys, "simulate", "--scheme", "gamma", "--signers", "1",
               "--seed", "3")[0] == 0


def test_keygen_then_verify_round_trip(tmp_path, capsys):
    keys = tmp_path / "keys.json"
    sig = tmp_path / "out.sig"
    run(capsys, "keygen", "--count", "5", "--out", str(keys), "--seed", "8")
    assert run(capsys, "simulate", "--scheme", "gms", "--signers", "5",
               "--seed", "8", "--message", "hello", "--out", str(sig))[0] == 0
    code, stdout, _ = run(capsys, "verify", "--scheme", "gms", "--keys",
                          str(keys), "--signature", str(sig),
                          "--message", "hello")
    assert code == 0
    assert "signature valid: true" in stdout
    code, stdout, _ = run(capsys, "verify", "--scheme", "gms", "--keys",
                          str(keys), "--signature", str(sig),
                          "--message", "tampered")
    assert code == 1
    assert "signature valid: false" in stdout


def test_gamma_round_trip_shares_key_derivation(tmp_path, capsys):
    # keygen and a single-signer simulation at the same seed derive the
    # same first key, so the saved public key verifies the saved signature
    keys = tmp_path / "keys.json"
    sig = tmp_path / "g.sig"
    run(capsys, "keygen", "--count", "1", "--out", str(keys), "--seed", "3")
    assert run(capsys, "simulate", "--scheme", "gamma", "--signers", "1",
               "--seed", "3", "--message", "hi", "--out", str(sig))[0] == 0
    code, stdout, _ = run(capsys, "verify", "--scheme", "gamma", "--keys",
                          str(keys), "--signature", str(sig),
                          "--message", "hi")
    assert code == 0
    assert "signature valid: true" in stdout


def test_gamma_verify_with_no_keys_is_a_usage_error(tmp_path, capsys):
    keys = tmp_path / "keys.json"
    sig = tmp_path / "g.sig"
    run(capsys, "keygen", "--count", "1", "--out", str(keys), "--seed", "3")
    assert run(capsys, "simulate", "--scheme", "gamma", "--signers", "1",
               "--seed", "3", "--message", "hi", "--out", str(sig))[0] == 0
    doc = json.loads(keys.read_text())
    doc["keys"] = []
    keys.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, "verify", "--scheme", "gamma", "--keys",
                          str(keys), "--signature", str(sig),
                          "--message", "hi")
    assert code == 2
    assert "no keys" in stderr


@pytest.mark.parametrize("others, mine_first", [(1, False), (2, True)])
def test_gamma_verify_needs_exactly_one_key(tmp_path, capsys, others,
                                            mine_first):
    # gamma verify used to read only the first key: the signer's key behind
    # another printed "signature valid: false", in front of two more "true"
    signer = tmp_path / "signer.json"
    keys = tmp_path / "keys.json"
    sig = tmp_path / "g.sig"
    run(capsys, "keygen", "--count", "1", "--out", str(signer), "--seed", "3")
    run(capsys, "keygen", "--count", str(others), "--out", str(keys),
        "--seed", "4")
    assert run(capsys, "simulate", "--scheme", "gamma", "--signers", "1",
               "--seed", "3", "--message", "hi", "--out", str(sig))[0] == 0
    argv = ("verify", "--scheme", "gamma", "--signature", str(sig),
            "--message", "hi", "--keys")
    assert run(capsys, *argv, str(signer))[:2] == (0, "signature valid: true\n")
    doc = json.loads(keys.read_text())
    [mine] = json.loads(signer.read_text())["keys"]
    doc["keys"] = [mine, *doc["keys"]] if mine_first else [*doc["keys"], mine]
    keys.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, *argv, str(keys))
    assert (code, stdout) == (2, "")
    assert f"holds {others + 1} keys, not 1" in stderr


@pytest.mark.parametrize("argv", [
    ("keygen", "--out", "k.json"),
    ("simulate", "--scheme", "gms"),
    ("simulate", "--scheme", "agms"),
    ("simulate", "--scheme", "cosi"),
    ("simulate", "--scheme", "gamma", "--signers", "1"),
    ("endorse", "--endorsers-list", "2"),
    ("bench", "--schemes", "agms", "--signers-list", "3", "--reps", "1"),
])
def test_toy_order_two_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    # with q = 2 every scalar draw is 1, so keygen's proof challenge stuck
    # at zero and each command exited 1, the code for a failed verification
    monkeypatch.chdir(tmp_path)
    for seed in ("1", "2", "3"):
        code, stdout, stderr = run(capsys, *argv, "--toy-q", "2", "--seed", seed)
        assert (code, stdout) == (2, "")
        assert "3 <= q < p < 2^40" in stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ("verify-keys",),
    ("verify", "--scheme", "gms"),
    ("verify", "--scheme", "agms"),
    ("verify", "--scheme", "cosi"),
    ("verify", "--scheme", "gamma"),
])
def test_empty_key_file_is_a_usage_error(tmp_path, capsys, argv):
    # verify-keys used to print "0/0 keys verified" and exit 0, and the
    # multi-signer schemes exited 1 as if a signature had failed
    keys = tmp_path / "keys.json"
    sig = tmp_path / "s.sig"
    run(capsys, "keygen", "--count", "1", "--out", str(keys), "--seed", "3")
    assert run(capsys, "simulate", "--scheme", "gamma", "--signers", "1",
               "--seed", "3", "--message", "hi", "--out", str(sig))[0] == 0
    doc = json.loads(keys.read_text())
    doc["keys"] = []
    keys.write_text(json.dumps(doc))
    extra = () if argv[0] == "verify-keys" else (
        "--signature", str(sig), "--message", "hi")
    proc = run_child(*argv, "--keys", str(keys), *extra)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "holds no keys" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_keys_flags_bad_proofs(tmp_path, capsys):
    keys = tmp_path / "keys.json"
    run(capsys, "keygen", "--count", "2", "--out", str(keys), "--seed", "1")
    assert run(capsys, "verify-keys", "--keys", str(keys))[0] == 0
    doc = json.loads(keys.read_text())
    doc["keys"][1]["d"] = "0000"
    keys.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "verify-keys", "--keys", str(keys))
    assert code == 1
    assert "key 1: FAIL" in stdout
    assert "1/2 keys verified" in stdout
    sig = tmp_path / "s.sig"
    assert run(capsys, "simulate", "--signers", "2", "--seed", "1",
               "--out", str(sig))[0] == 0
    code, stdout, _ = run(capsys, "verify", "--scheme", "agms", "--keys",
                          str(keys), "--signature", str(sig), "--message",
                          "simulated transaction")
    assert code == 1
    assert stdout == ("key 1 failed its possession check; refusing to "
                      "aggregate\n")


def test_missing_file_is_a_usage_error(tmp_path, capsys):
    code, _, stderr = run(capsys, "verify", "--scheme", "gms", "--keys",
                          str(tmp_path / "nope.json"), "--signature",
                          str(tmp_path / "nope.sig"), "--message", "m")
    assert code == 2
    assert "error:" in stderr


@pytest.mark.parametrize("argv", [
    ("keygen", "--out"),
    ("simulate", "--out"),
    ("simulate", "--metrics"),
    ("simulate", "--transcript"),
    ("bench", "--schemes", "agms", "--signers-list", "3", "--reps", "1",
     "--out"),
    ("endorse", "--endorsers-list", "2", "--out"),
    ("attack", "rogue", "--out"),
])
def test_unwritable_output_is_a_usage_error(tmp_path, argv):
    # an output path in a missing directory used to end in a traceback and
    # exit 1, the code for a failed verification
    target = tmp_path / "missing" / "out"
    proc = run_child(*argv, str(target), "--seed", "1")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert f"cannot write {target}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""            # no result line for a failed command
    assert not target.parent.exists()


def test_simulate_prints_no_result_when_an_output_fails(tmp_path):
    # it used to print signature=... and verified=true, then exit 2, and
    # leave the signature file it had written before the metrics failed
    proc = run_child("simulate", "--seed", "1", "--out", str(tmp_path / "s.bin"),
                     "--metrics", str(tmp_path / "missing" / "m.json"))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_keygen_leaves_no_public_file_without_its_secrets(tmp_path):
    (tmp_path / "k.secret.json").mkdir()
    proc = run_child("keygen", "--out", str(tmp_path / "k.json"), "--seed", "1")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stdout == ""
    assert [p.name for p in tmp_path.iterdir()] == ["k.secret.json"]


def test_bench_csv_schema(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code, _, _ = run(capsys, "bench", "--schemes", "gms,agms,cosi",
                     "--signers-list", "3,7", "--reps", "2", "--seed", "4",
                     "--out", str(out))
    assert code == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["scheme", "N", "phase", "mean_ns", "std_ns",
                       "exp_count"]
    # agms splits signing into offline/online; others do not
    phases = {(r[0], r[2]) for r in rows[1:]}
    assert ("agms", "sign_offline") in phases
    assert ("agms", "sign_online") in phases
    assert ("gms", "sign_online") in phases
    assert ("cosi", "verify") in phases
    by = {(r[0], r[1], r[2]): r for r in rows[1:]}
    assert by[("agms", "7", "sign_online")][5] == "0"
    assert by[("agms", "7", "sign_offline")][5] == "7"
    assert by[("gms", "7", "verify")][5] == "3"
    assert by[("cosi", "7", "verify")][5] == "2"
    assert all(r[3] == "" and r[4] == "" for r in rows[1:])  # seeded run
    # one row per scheme/N/phase: agms has three phases, the others two
    assert len(rows) == 1 + (3 + 2 + 2) * 2


@pytest.mark.parametrize("argv", [
    ("endorse", "--endorsers-list", ","),
    ("bench", "--signers-list", ","),
    ("bench", "--schemes", ","),
    ("bench", "--schemes", "gamma"),
    ("bench", "--schemes", "agms,nope"),
])
def test_commands_that_would_do_nothing_exit_two(capsys, argv):
    # an empty list used to print a bare CSV header and exit 0; an unknown
    # scheme is refused before any other scheme runs
    code, stdout, stderr = run(capsys, *argv, "--seed", "1")
    assert code == 2
    assert stderr.startswith("error:")
    assert stdout == ""


def test_bench_names_an_unknown_scheme(capsys):
    code, stdout, stderr = run(capsys, "bench", "--schemes", "bogus")
    assert code == 2
    assert "unknown scheme 'bogus'" in stderr
    assert stdout == ""


def test_bench_rejects_zero_reps(capsys):
    code, _, stderr = run(capsys, "bench", "--reps", "0")
    assert code == 2
    assert "--reps" in stderr


def test_bench_verify_time_flat_across_n(tmp_path, capsys):
    # unseeded so mean_ns is real; constant-size verification should not
    # care whether 4 or 64 signers produced the signature.  The smallest
    # mean over three runs per N keeps one scheduler stall from deciding.
    out = tmp_path / "bench.csv"
    verify_ns = {"4": [], "64": []}
    for _ in range(3):
        code, _, _ = run(capsys, "bench", "--schemes", "agms",
                         "--signers-list", "4,64", "--reps", "5",
                         "--backend", "curve", "--out", str(out))
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        for r in rows[1:]:
            if r[2] == "verify":
                verify_ns[r[1]].append(float(r[3]))
        assert all(r[5] == "0" for r in rows[1:] if r[2] == "sign_online")
    ratio = min(verify_ns["64"]) / min(verify_ns["4"])
    assert 0.5 < ratio < 2.0


def test_bench_builds_no_comb_table_besides_g1s(tmp_path, capsys,
                                               monkeypatch):
    # each rep verifies against its own run's aggregate key, one check
    # each, so no rep pays for a table that a later rep or scheme inherits
    from multisig import group as group_mod

    builds = []
    real_build = group_mod._build_comb
    monkeypatch.setattr(group_mod, "_g1_comb_table", None)
    monkeypatch.setattr(group_mod, "_build_comb",
                        lambda base: builds.append(base) or real_build(base))
    code, _, _ = run(capsys, "bench", "--backend", "curve", "--schemes",
                     "agms,gms", "--signers-list", "4", "--reps", "20",
                     "--seed", "1", "--out", str(tmp_path / "bench.csv"))
    assert code == 0
    assert builds == [group_mod._G1]


def test_bench_json_format(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code, _, _ = run(capsys, "bench", "--schemes", "gms", "--signers-list",
                     "3", "--reps", "1", "--seed", "1", "--format", "json",
                     "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "multisig/bench/v1"
    assert [r["phase"] for r in doc["rows"]] == ["sign_online", "verify"]


def test_attack_rogue_exit_codes(tmp_path, capsys):
    out = tmp_path / "rogue.json"
    code, stdout, _ = run(capsys, "attack", "rogue", "--toy-q", "65521",
                          "--seed", "6", "--out", str(out))
    assert code == 0
    assert "expectation=met" in stdout
    doc = json.loads(out.read_text())
    assert doc["attack"] == "rogue-key"
    assert doc["successes"] == 0
    assert doc["expectation_met"] is True


def test_attack_refuses_curve_backend(capsys):
    code, _, stderr = run(capsys, "attack", "rogue", "--backend", "curve")
    assert code == 2
    assert "toy" in stderr


def test_attack_ksum_negative_control(tmp_path, capsys):
    out = tmp_path / "ksum.json"
    code, stdout, _ = run(capsys, "attack", "ksum", "--target", "agms",
                          "--toy-q", "251", "--k", "2", "--seed", "0",
                          "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["successes"] == 0
    assert doc["expectation_met"] is True


def test_attack_ksum_signs_the_given_message(capsys, monkeypatch):
    # --message used to be dropped, so every run signed the default text
    import multisig.attacks as attacks

    seen = []

    def spy(run, m):
        seen.append(m)
        return real(run, m)

    real = attacks.announce
    monkeypatch.setattr(attacks, "announce", spy)
    code, _, _ = run(capsys, "attack", "ksum", "--target", "agms",
                     "--toy-q", "251", "--k", "2", "--retries", "1",
                     "--message", "pay someone else", "--seed", "0")
    assert code == 0
    assert seen and set(seen) == {b"pay someone else"}


@pytest.mark.parametrize("argv", [
    ("--k", "32"), ("--k", "64"), ("--k", "1024"), ("--k", "1048576"),
    ("--list-size", "10000"), ("--list-size", "100000"),
    ("--list-size", "1000000000"),
    ("--k", "2", "--list-size", "262000", "--retries", "1"),
])
def test_attack_ksum_refuses_unbounded_joins(argv):
    # each of these used to run on for seconds to hours: once the solver's
    # window floors at 1, every join squares its lists, and the last grinds
    # 524,000 candidates per retry
    proc = run_child("attack", "ksum", *argv, "--seed", "0")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: k=")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, flag", [
    (("ksum", "--target", "agms", "--retries", "0"), "--retries"),
    (("ksum", "--target", "cosi", "--retries", "-1"), "--retries"),
    (("rogue", "--retries-pop", "0"), "--retries-pop"),
    (("rogue", "--n-honest", "0"), "--n-honest"),
    (("ksum", "--target", "agms", "--n-honest", "0"), "--n-honest"),
    (("ksum", "--target", "cosi", "--list-size", "0"), "list size"),
])
def test_attack_rejects_empty_runs(capsys, argv, flag):
    # these used to report expectation=met (or exit 1) without attacking
    code, stdout, stderr = run(capsys, "attack", *argv, "--seed", "1")
    assert code == 2
    assert flag in stderr
    assert "Traceback" not in stderr
    assert stdout == ""


@pytest.mark.parametrize("argv", [
    ("attack", "rogue", "--retries", "0"),
    ("attack", "ksum", "--k", "2", "--retries-pop", "0"),
])
def test_attack_checks_only_the_flags_its_demo_reads(capsys, argv):
    # rogue never reads --retries and ksum never reads --retries-pop
    code, stdout, stderr = run(capsys, *argv, "--toy-q", "251", "--seed", "0")
    assert (code, stderr) == (0, "")
    assert "expectation=met" in stdout


_TOO_BIG = str(MAX_SIZE + 1)


@pytest.mark.parametrize("argv, flag", [
    (("keygen", "--count", _TOO_BIG, "--out", "@dir@/k.json"), "--count"),
    (("simulate", "--signers", _TOO_BIG), "--signers"),
    (("bench", "--signers-list", f"4,{_TOO_BIG}", "--reps", "1"),
     "--signers-list"),
    (("bench", "--signers-list", "4", "--reps", _TOO_BIG), "--reps"),
    (("endorse", "--endorsers-list", f"2,{_TOO_BIG}"), "--endorsers-list"),
    (("attack", "rogue", "--n-honest", _TOO_BIG), "--n-honest"),
    (("attack", "ksum", "--n-honest", _TOO_BIG), "--n-honest"),
    (("attack", "rogue", "--retries-pop", _TOO_BIG), "--retries-pop"),
    (("attack", "ksum", "--retries", _TOO_BIG), "--retries"),
])
def test_sizes_above_the_cap_are_refused_before_any_work(
        tmp_path, capsys, monkeypatch, argv, flag):
    # only ever cap + 1: a run at the cap holds a million signers.  Each
    # entry point that would start one fails the test instead
    def tripwire(*args, **kwargs):
        raise AssertionError("a refused size reached the protocol")

    for name in ("derive_keys", "build_tree", "bare_keygen",
                 "ksum_forgery_attack", "run_flows"):
        monkeypatch.setattr(cli, name, tripwire)
    argv = [a.replace("@dir@", str(tmp_path)) for a in argv]
    code, stdout, stderr = run(capsys, *argv, "--seed", "1")
    assert (code, stdout) == (2, "")
    assert stderr == f"error: {flag} must be at most {MAX_SIZE}\n"
    assert list(tmp_path.iterdir()) == []


def test_verify_refuses_a_key_file_over_the_cap(tmp_path, capsys,
                                                monkeypatch):
    # the CLI's count cap and the key file cap are one definition
    assert MAX_SIZE == schemes.MAX_KEYS
    keys, sig = tmp_path / "keys.json", tmp_path / "out.sig"
    run(capsys, "keygen", "--count", "5", "--out", str(keys), "--seed", "8")
    assert run(capsys, "simulate", "--scheme", "gms", "--signers", "5",
               "--seed", "8", "--message", "m", "--out", str(sig))[0] == 0
    monkeypatch.setattr(schemes, "MAX_KEYS", 4)
    code, stdout, stderr = run(capsys, "verify", "--scheme", "gms", "--keys",
                               str(keys), "--signature", str(sig),
                               "--message", "m")
    assert (code, stdout) == (2, "")
    assert stderr == f"error: key file {keys} lists 5 keys, more than 4\n"


def test_endorse_csv_schema(tmp_path, capsys):
    out = tmp_path / "endorse.csv"
    code, stdout, _ = run(capsys, "endorse", "--endorsers-list", "2,4",
                          "--toy-q", "65521", "--seed", "7", "--out", str(out))
    assert code == 0
    assert "revised n=2: step7_verify_calls=1" in stdout
    assert "default n=4: step7_verify_calls=4" in stdout
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == ["flow", "n_endorsers", "step", "wall_ns", "exp_count",
                       "verify_calls", "bytes"]
    assert len(rows) == 1 + 2 * (7 + 6)
    assert f"wrote {out} ({len(rows) - 1} rows)" in stdout
    for flow, n, step, wall_ns, _, vcalls, _ in rows[1:]:
        assert wall_ns == ""  # seeded run
        if step == "7":
            assert vcalls == ("1" if flow == "revised" else n)


def test_endorse_json_format(tmp_path, capsys):
    out = tmp_path / "endorse.json"
    code, _, _ = run(capsys, "endorse", "--endorsers-list", "2",
                     "--toy-q", "65521", "--seed", "7", "--format", "json",
                     "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["schema"] == "multisig/endorsement/v1"
    assert [r["flow"] for r in doc["records"]] == ["revised", "default"]
    assert all(r["accepted"] for r in doc["records"])
    assert all(s["wall_ns"] is None  # seeded run
               for r in doc["records"] for s in r["steps"])


@pytest.mark.parametrize("n", ["0", "-3"])
def test_endorse_rejects_endorser_counts_below_one(capsys, n):
    code, stdout, stderr = run(capsys, "endorse", "--flow", "default",
                               "--endorsers-list", n, "--seed", "1")
    assert code == 2
    assert "endorser" in stderr
    assert "accepted=" not in stdout


@pytest.mark.parametrize("flow, checker", [("revised", endorsement),
                                           ("default", gamma)])
def test_a_failed_client_side_check_exits_one(capsys, monkeypatch, flow, checker):
    # main's MultisigError branch: a refused endorsement is one error line
    # on stderr and exit 1, with no report and no traceback
    monkeypatch.setattr(checker, "verify", lambda *args: False)
    code, stdout, stderr = run(capsys, "endorse", "--flow", flow,
                               "--endorsers-list", "2", "--seed", "1")
    assert code == 1
    assert stdout == ""
    assert stderr.startswith("error: ")
    assert stderr.endswith("failed client-side check\n")
    assert stderr.count("\n") == 1


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
