"""End-to-end acceptance checks, one per shipped guarantee.

Each test computes its verdict, records a single PASS/FAIL line for the
run summary, then asserts.  Numbers in the lines (counts, fractions,
elapsed seconds) come from the run itself, not from constants.
"""

import hashlib
import time

from multisig import gamma
from multisig.attacks import ksum_forgery_attack, rogue_key_attack
from multisig.cli import main
from multisig.endorsement import run_flows
from multisig.group import derive_rng, toy_group_for_order
from multisig.schemes import (
    KeyProof,
    PublicKey,
    Signature,
    agms_offline,
    agms_online,
    bare_keygen,
    cosi_verify,
    derive_keys,
    gms_sign,
    key_verify,
    keygen,
    verify,
)
from multisig.tree import build_tree, min_branching


def _tree(n):
    return build_tree(n, min_branching(n), 3)


def _record(acceptance, num, ok, detail):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} — {detail}"
    acceptance(line)
    return line


def test_c01_completeness_across_sizes(toy, acceptance):
    t0 = time.perf_counter()
    rng = derive_rng(1, "messages")
    sizes = (1, 3, 7, 63, 511)
    runs = ok = 0
    for n in sizes:
        tree = _tree(n)
        keys = derive_keys(toy, n, n)
        for i in range(200):
            m = rng.randbytes(rng.randrange(1, 64))
            g = gms_sign(toy, tree, keys, m, seed=i)
            off = agms_offline(toy, tree, keys, seed=i)
            a = agms_online(toy, off, m)
            runs += 2
            ok += verify(toy, g.agg_key, m, g.signature)
            ok += verify(toy, a.agg_key, m, a.signature)
    key = bare_keygen(toy, derive_rng(0, "key", 0))
    for i in range(200):
        m = rng.randbytes(rng.randrange(1, 64))
        nonce = gamma.precompute(toy, key, i)
        sig = gamma.sign_online(toy, key, nonce, m)
        runs += 1
        ok += gamma.verify(toy, key.y, m, sig)
    elapsed = time.perf_counter() - t0
    good = ok == runs and elapsed < 120
    line = _record(acceptance, 1, good,
                   f"completeness: {ok}/{runs} sign+verify runs on random "
                   f"messages succeeded, N in {sizes}, {elapsed:.1f}s "
                   f"(limit 120s)")
    assert good, line


def test_c02_split_phases_change_nothing(toy, acceptance):
    matches = total = 0
    for n in (3, 15):
        tree = _tree(n)
        keys = derive_keys(toy, n, n)
        for seed in range(100):
            m = f"m{seed}".encode()
            g = gms_sign(toy, tree, keys, m, seed=seed)
            a = agms_online(toy, agms_offline(toy, tree, keys, seed=seed), m)
            total += 1
            matches += (g.signature == a.signature
                        and g.signature.to_bytes(toy) == a.signature.to_bytes(toy)
                        and g.agg_key.X == a.agg_key.X)
    good = matches == total
    line = _record(acceptance, 2, good,
                   f"phase reordering: {matches}/{total} seeded runs produced "
                   f"byte-identical signatures at N=3 and N=15")
    assert good, line


def test_c03_operation_counts(toy, curve, acceptance, node_spans):
    checks = []
    for par, n in ((toy, 15), (curve, 5)):
        keys = derive_keys(par, n, 2)
        spans = node_spans(par)
        off = agms_offline(par, _tree(n), keys, seed=2)
        checks.append(all(spans.exponentiations(s.node) == 1
                          for s in off.sessions))
        before = par.ops_total.snapshot()
        run = agms_online(par, off, b"m")
        checks.append(par.ops_total.snapshot() == before)
        with par.span() as sp:
            checks.append(verify(par, run.agg_key, b"m", run.signature))
        checks.append(sp.exponentiations <= 3)
        with par.span() as sp:
            checks.append(key_verify(par, keys[0].public))
        checks.append(sp.exponentiations <= 3)
    good = all(checks)
    line = _record(acceptance, 3, good,
                   "operation counts: offline = 1 exp/signer, online = 0 "
                   "group ops, verify <= 3 exps, key check <= 3 exps "
                   "(toy and curve backends)")
    assert good, line


def test_c04_online_fraction_at_scale(curve, acceptance):
    n = 1024
    keys = derive_keys(curve, n, 4)
    tree = _tree(n)
    with curve.span() as offline:
        off = agms_offline(curve, tree, keys, seed=4)
    before = curve.ops_total.snapshot()
    with curve.span() as online:
        run = agms_online(curve, off, b"large-scale payload")
    zero_online = curve.ops_total.snapshot() == before
    valid = verify(curve, run.agg_key, b"large-scale payload", run.signature)
    frac = online.wall_ns / (offline.wall_ns + online.wall_ns)
    good = zero_online and valid and frac <= 0.10
    line = _record(acceptance, 4, good,
                   f"N={n} on secp256k1: online phase = {frac:.2%} of "
                   f"sign time (limit 10%), 0 online group ops, verified")
    assert good, line


def test_c05_rogue_key(toy16, acceptance):
    honest = derive_keys(toy16, 3, 7)
    report = rogue_key_attack(toy16, honest, b"drain the account", seed=7,
                              proof_attempts=100)
    forged_ok = report.extra["baseline_accepts_forgery"] and cosi_verify(
        toy16, report.aggregate, b"drain the account", report.forgery)
    good = forged_ok and report.successes == 0
    line = _record(acceptance, 5, good,
                   f"rogue key: naive aggregation accepts the forgery; "
                   f"possession check rejected "
                   f"{report.attempts - report.successes}/"
                   f"{report.attempts} fabricated proofs")
    assert good, line


def test_c06_concurrent_session_forgery(toy16, acceptance):
    t0 = time.perf_counter()
    hit = ksum_forgery_attack(toy16, target="cosi", k=4, seed=0)
    forged = hit.successes >= 1 and cosi_verify(
        toy16, hit.aggregate, hit.message, hit.forgery)
    control = ksum_forgery_attack(toy16, target="agms", k=4, seed=0)
    elapsed = time.perf_counter() - t0
    good = forged and control.successes == 0 and elapsed < 300
    line = _record(acceptance, 6, good,
                   f"k-list forgery (q=65521, k=4): baseline forged within "
                   f"{hit.attempts} attempt(s); split-phase control "
                   f"{control.successes}/{control.attempts} successes, "
                   f"{elapsed:.1f}s (limit 300s)")
    assert good, line


def test_c07_endorsement_scaling(toy16, acceptance):
    n_list = [2, 4, 8, 16, 32]
    records = run_flows(toy16, n_list, b"proposal", seed=3)
    single = 2 * toy16.scalar_len
    checks = []
    for rec in records:
        checks.append(rec.accepted)
        if rec.flow == "revised":
            checks.append(rec.step7_verify_calls() == 1)
            checks.append(rec.signature_bytes == single)
        else:
            checks.append(rec.step7_verify_calls() == rec.n_endorsers)
            checks.append(rec.signature_bytes == rec.n_endorsers * single)
    good = all(checks)
    line = _record(acceptance, 7, good,
                   f"endorsement at N={n_list}: aggregated flow validates "
                   f"once with a {single}-byte signature at every N; "
                   f"per-signer flow does N validations over N-times bytes")
    assert good, line


def test_c08_tamper_rejection(curve, acceptance):
    from multisig.errors import MultisigError

    rng = derive_rng(8, "tamper")
    scalar_bits = curve.scalar_len * 8

    def flip_bit(value, bits):
        return value ^ (1 << rng.randrange(bits))

    trials = accepts = 0
    for base_seed in range(5):
        keys = derive_keys(curve, 7, base_seed)
        run = gms_sign(curve, _tree(7), keys, b"payment", seed=base_seed)
        X = run.agg_key
        c, s = run.signature.c, run.signature.s
        assert verify(curve, X, b"payment", run.signature)
        for _ in range(25):  # one bit of the challenge scalar
            trials += 1
            accepts += verify(curve, X, b"payment",
                              Signature(flip_bit(c, scalar_bits), s))
        for _ in range(25):  # one bit of the response scalar
            trials += 1
            accepts += verify(curve, X, b"payment",
                              Signature(c, flip_bit(s, scalar_bits)))
        for _ in range(25):  # one bit of the message
            m = bytearray(b"payment")
            pos = rng.randrange(len(m) * 8)
            m[pos // 8] ^= 1 << (pos % 8)
            trials += 1
            accepts += verify(curve, X, bytes(m), run.signature)
        for _ in range(15):  # one bit of the encoded aggregate key
            enc = bytearray(curve.encode_element(X.X))
            pos = rng.randrange(len(enc) * 8)
            enc[pos // 8] ^= 1 << (pos % 8)
            trials += 1
            try:
                bad_x = curve.decode_element(bytes(enc))
            except MultisigError:
                continue  # refused at decode: rejected before verification
            accepts += verify(curve, bad_x, b"payment", run.signature)
        pk = keys[0].public
        for _ in range(10):  # one bit of a possession-proof field
            a, d = pk.proof.a, pk.proof.d
            if rng.randrange(2):
                a = flip_bit(a, scalar_bits)
            else:
                d = flip_bit(d, scalar_bits)
            trials += 1
            accepts += key_verify(curve, PublicKey(pk.y, KeyProof(a, d)))
    good = trials >= 500 and accepts == 0
    line = _record(acceptance, 8, good,
                   f"single-bit tampering on secp256k1: {accepts} false "
                   f"accepts in {trials} trials across challenge/response/"
                   f"message/aggregate/proof flips")
    assert good, line


def _naive_exp(p, q, base, e):
    """Exponentiation by literally multiplying e-mod-q times."""
    acc = 1
    for _ in range(e % q):
        acc = (acc * base) % p
    return acc


def _naive_inv(q, a):
    """Inverse mod q found by trying every candidate."""
    for x in range(1, q):
        if (a * x) % q == 1:
            return x
    raise ValueError(f"{a} has no inverse mod {q}")


def _naive_hash(q, tag, items):
    payload = bytes([tag])
    for item in items:
        payload += len(item).to_bytes(4, "big") + item
    return int.from_bytes(hashlib.sha512(payload).digest(), "big") % q or 1


def _naive_enc(p, x):
    return x.to_bytes(max(2, (p.bit_length() + 7) // 8), "big")


def _naive_commitment(p, q, g, a, Y, b, c):
    """(g^a * Y^b)^(1/c), written out literally."""
    base = (_naive_exp(p, q, g, a) * _naive_exp(p, q, Y, b)) % p
    return _naive_exp(p, q, base, _naive_inv(q, c))


def _naive_verify(p, q, g, X, m, c, s):
    """Independent re-implementation: enumeration and hashlib only."""
    if not (0 < c < q and 0 <= s < q):
        return False
    V = _naive_commitment(p, q, g, s, X, _naive_hash(q, 3, [m]), c)
    return _naive_hash(q, 0, [_naive_enc(p, g), _naive_enc(p, V),
                              _naive_enc(p, X)]) == c


def test_c09_brute_force_oracle_agreement(toy, acceptance):
    rng = derive_rng(9, "oracle")
    # group equations against exhaustive enumeration
    ops_ok = 0
    elements = [_naive_exp(toy.p, toy.q, toy.g1, k) for k in range(toy.q)]
    for _ in range(1000):
        x = elements[rng.randrange(toy.q)]
        y = elements[rng.randrange(toy.q)]
        e = rng.randrange(4 * toy.q)
        ops_ok += (toy.exp(x, e) == _naive_exp(toy.p, toy.q, x, e)
                   and toy.mul(x, y) == (x * y) % toy.p
                   and toy.s_inv(e % toy.q or 1)
                   == _naive_inv(toy.q, e % toy.q or 1))
    # verification equation, valid and corrupted cases mixed
    agree = accepts = 0
    cases = 1000
    tree = _tree(3)
    for i in range(cases):
        keys = derive_keys(toy, 3, f"case{i}")
        run = gms_sign(toy, tree, keys, b"m", seed=i)
        X, sig, m = run.agg_key.X, run.signature, b"m"
        kind = i % 4
        if kind == 1:
            sig = Signature(rng.randrange(toy.q), rng.randrange(toy.q))
        elif kind == 2:
            sig = Signature(sig.c, (sig.s + rng.randrange(1, toy.q)) % toy.q)
        elif kind == 3:
            m = b"m" + bytes([rng.randrange(256)])
        lib = verify(toy, X, m, sig)
        ref = _naive_verify(toy.p, toy.q, toy.g1, X, m, sig.c, sig.s)
        agree += lib == ref
        accepts += lib
        if kind == 0:
            assert lib, f"untampered case {i} must verify"
    good = ops_ok == 1000 and agree == cases
    line = _record(acceptance, 9, good,
                   f"toy-group oracle: {ops_ok}/1000 group-equation cases and "
                   f"{agree}/{cases} verification cases matched an "
                   f"enumeration-only reimplementation ({accepts} accepts)")
    assert good, line


# Criterion 09's oracle, extended to the single-signer and possession-proof
# verifiers.  q = 1019 keeps the enumeration cheap and chance accepts rare.

def _naive_gamma_verify(p, q, g, y, m, c, s):
    if not (0 < c < q and 0 <= s < q):
        return False
    V = _naive_commitment(p, q, g, s, y, _naive_hash(q, 1, [m]), c)
    return _naive_hash(q, 0, [_naive_enc(p, V), _naive_enc(p, y)]) == c


def _naive_key_verify(p, q, g, members, y, a, d):
    if not (0 < a < q and 0 <= d < q) or y not in members or y == 1:
        return False
    b = _naive_hash(q, 2, [_naive_enc(p, y)])
    V = _naive_commitment(p, q, g, d, y, b, a)
    return _naive_hash(q, 1, [_naive_enc(p, g), _naive_enc(p, V)]) == a


def test_gamma_verify_matches_enumeration_oracle():
    par = toy_group_for_order(1019)
    rng = derive_rng(9, "gamma-oracle")
    verdicts = []
    for i in range(200):
        key = bare_keygen(par, derive_rng(9, "gamma-key", i))
        m = b"tx %d" % i
        sig = gamma.sign_online(par, key, gamma.precompute(par, key, i), m)
        kind = i % 4
        if kind == 1:
            sig = gamma.Signature((sig.c + rng.randrange(1, par.q)) % par.q, sig.s)
        elif kind == 2:
            sig = gamma.Signature(sig.c, (sig.s + rng.randrange(1, par.q)) % par.q)
        elif kind == 3:
            m += b"!"
        lib = gamma.verify(par, key.y, m, sig)
        assert lib == _naive_gamma_verify(par.p, par.q, par.g1, key.y, m,
                                          sig.c, sig.s), f"case {i}"
        verdicts.append(lib)
    assert verdicts[::4] == [True] * 50


def test_key_verify_matches_enumeration_oracle():
    par = toy_group_for_order(1019)
    members, x = set(), 1
    for _ in range(par.q):
        members.add(x)
        x = (x * par.g1) % par.p
    rng = derive_rng(9, "key-oracle")
    verdicts = []
    for i in range(200):
        pk = keygen(par, derive_rng(9, "proof-key", i)).public
        y, a, d = pk.y, pk.proof.a, pk.proof.d
        kind = i % 5
        if kind == 1:
            a = (a + rng.randrange(1, par.q)) % par.q
        elif kind == 2:
            d = (d + rng.randrange(1, par.q)) % par.q
        elif kind == 3:  # another member, often the identity
            y = rng.choice([1, (y * par.g1) % par.p])
        elif kind == 4:  # almost always outside the subgroup
            y = rng.randrange(1, par.p)
        lib = key_verify(par, PublicKey(y, KeyProof(a, d)))
        assert lib == _naive_key_verify(par.p, par.q, par.g1, members, y,
                                        a, d), f"case {i}"
        verdicts.append(lib)
    assert verdicts[::5] == [True] * 40


def test_c10_reproducible_cli(tmp_path, capsys, acceptance):
    outputs = []
    for tag in ("first", "second"):
        d = tmp_path / tag
        d.mkdir()
        cmds = [
            ["keygen", "--count", "3", "--out", str(d / "keys.json"),
             "--seed", "11"],
            ["simulate", "--scheme", "agms", "--signers", "7", "--seed", "11",
             "--out", str(d / "run.sig"), "--metrics", str(d / "run.json"),
             "--transcript", str(d / "run.jsonl")],
            ["bench", "--schemes", "gms,agms,cosi", "--signers-list", "3,7",
             "--reps", "2", "--seed", "11", "--out", str(d / "bench.csv")],
            ["endorse", "--endorsers-list", "2,4", "--toy-q", "65521",
             "--seed", "11", "--out", str(d / "endorse.csv")],
            ["attack", "rogue", "--toy-q", "65521", "--seed", "11",
             "--out", str(d / "rogue.json")],
        ]
        codes = [main(argv) for argv in cmds]
        capsys.readouterr()
        assert codes == [0] * len(cmds)
        outputs.append({p.name: p.read_bytes() for p in sorted(d.iterdir())})
    good = outputs[0] == outputs[1] and len(outputs[0]) == 8
    detail = (f"seeded CLI: {len(outputs[0])} output files (keys, secrets, "
              f"signature, metrics, transcript, bench, endorsement, attack) "
              f"byte-identical across two runs"
              if good else "seeded CLI outputs differ between runs")
    line = _record(acceptance, 10, good, detail)
    assert good, line
