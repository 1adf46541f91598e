"""Regenerate tests/data/golden_vectors.json.

Run from the repository root:  python3 tests/data/make_vectors.py

Every recorded value is recomputed here through an independent code path
(raw hashlib / pow arithmetic, no library hash or protocol helpers) and
asserted equal before it is written, so the file can only ever contain
values that two separate derivations agree on.  ``build()`` returns the
document without writing it; a test checks that it equals the committed
file.
"""

import hashlib
import json
from pathlib import Path

from multisig.gamma import precompute, sign_online
from multisig.gamma import verify as gamma_verify
from multisig.group import curve_group, derive_rng, toy_group
from multisig.hashing import H0, H1, H2, H3, hash_to_scalar
from multisig.schemes import (bare_keygen, derive_keys, gms_sign, key_aggregate,
                              keygen, verify)
from multisig.tree import build_tree

OUT = Path(__file__).with_name("golden_vectors.json")


def independent_hash(q, scalar_len, tag, chunks):
    """Same construction as the library, written from scratch: sha512 over
    the tag byte plus 4-byte-length-prefixed items, mod q, with 0 read as 1."""
    payload = bytes([tag])
    for chunk in chunks:
        payload += len(chunk).to_bytes(4, "big") + chunk
    return int.from_bytes(hashlib.sha512(payload).digest(), "big") % q or 1


def independent_nonce(q, scalar_len, tag, seed, node, sk):
    """Nonce written from scratch: 1 + sha512(tag ‖ 4-byte-length-prefixed
    str(seed) ‖ four zero bytes ‖ node ‖ sk) mod (q - 1).  Tree sessions use
    the tag b"multisig/nonce", gamma tokens b"multisig/gamma-nonce" at
    node 0."""
    seed_b = str(seed).encode()
    payload = (tag + len(seed_b).to_bytes(4, "big") + seed_b + bytes(4)
               + node.to_bytes(4, "big") + sk.to_bytes(scalar_len, "big"))
    return 1 + int.from_bytes(hashlib.sha512(payload).digest(), "big") % (q - 1)


def build() -> dict:
    """Every golden vector, each checked against its independent derivation."""
    doc = {}

    # ── hash vectors ────────────────────────────────────────────────────
    par = toy_group()
    vectors = []
    cases = [
        (int(H3), [b"msg"]),
        (int(H0), [b"msg"]),
        (int(H1), [b"msg"]),
        (int(H2), [b"msg"]),
        (int(H0), [b"ab", b"c"]),
        (int(H0), [b"a", b"bc"]),
        (int(H0), [par.encode_element(8), b"hello"]),
    ]
    for tag, chunks in cases:
        got = hash_to_scalar(par, tag, chunks)
        want = independent_hash(par.q, par.scalar_len, tag, chunks)
        assert got == want, (tag, chunks, got, want)
        vectors.append({"q": par.q, "tag": tag,
                        "items_hex": [c.hex() for c in chunks], "value": got})
    doc["hash_toy"] = vectors

    curve = curve_group()
    c_cases = [
        (int(H3), [b"msg"]),
        (int(H0), [curve.encode_element(curve.g1), b"x"]),
    ]
    c_vectors = []
    for tag, chunks in c_cases:
        got = hash_to_scalar(curve, tag, chunks)
        want = independent_hash(curve.q, curve.scalar_len, tag, chunks)
        assert got == want
        c_vectors.append({"tag": tag, "items_hex": [c.hex() for c in chunks],
                          "value_hex": hex(got)})
    doc["hash_curve"] = c_vectors

    # ── single-signer golden run, toy seed 42 ───────────────────────────
    key = bare_keygen(par, derive_rng(42, "key", 0))
    nonce = precompute(par, key, 42)
    # independent check of the nonce, the precomputed challenge and the
    # response algebra
    v = independent_nonce(par.q, par.scalar_len, b"multisig/gamma-nonce",
                          42, 0, key.sk)
    c = independent_hash(
        par.q, par.scalar_len, 0,
        [par.encode_element(pow(par.g1, v, par.p)), par.encode_element(key.y)])
    assert (nonce.v, nonce.c) == (v, c)
    assert nonce.V == pow(par.g1, v, par.p)
    sig = sign_online(par, key, nonce, b"msg")
    e = independent_hash(par.q, par.scalar_len, 1, [b"msg"])
    assert (sig.c, sig.s) == (c, (v * c - e * key.sk) % par.q)
    assert gamma_verify(par, key.y, b"msg", sig)
    doc["gamma_toy_seed42"] = {
        "seed": 42, "message": "msg",
        "sk": key.sk, "y": key.y,
        "v": nonce.v, "V": nonce.V, "c": nonce.c, "vc": nonce.vc,
        "sig_c": sig.c, "sig_s": sig.s,
    }

    # ── key generation golden, toy seed 7 ───────────────────────────────
    kp = keygen(par, derive_rng(7, "key", 0))
    pr = kp.public.proof
    assert kp.y == pow(par.g1, kp.sk, par.p)
    b = independent_hash(par.q, par.scalar_len, 2, [par.encode_element(kp.y)])
    # recover g^r from (a, d) and re-derive a
    V = pow(pow(par.g1, pr.d, par.p) * pow(kp.y, b, par.p) % par.p,
            pow(pr.a, -1, par.q), par.p)
    assert pr.a == independent_hash(
        par.q, par.scalar_len, 1,
        [par.encode_element(par.g1), par.encode_element(V)])
    doc["keygen_toy_seed7"] = {"seed": 7, "sk": kp.sk, "y": kp.y,
                               "a": pr.a, "d": pr.d}

    # ── aggregate signature golden, toy N=3 seed 3 ──────────────────────
    tree = build_tree(3, 2, 3)
    keys = derive_keys(par, 3, 3)
    run = gms_sign(par, tree, keys, b"msg", seed=3)
    agg = key_aggregate(par, keys)
    # independent: X is the plain product, S satisfies the verification identity
    x_ind = 1
    for k in keys:
        x_ind = x_ind * k.y % par.p
    assert agg.X == x_ind
    e = independent_hash(par.q, par.scalar_len, 3, [b"msg"])
    V = pow(pow(par.g1, run.signature.s, par.p) * pow(agg.X, e, par.p) % par.p,
            pow(run.signature.c, -1, par.q), par.p)
    assert run.signature.c == independent_hash(
        par.q, par.scalar_len, 0,
        [par.encode_element(par.g1), par.encode_element(V),
         par.encode_element(agg.X)])
    assert verify(par, agg, b"msg", run.signature)
    # independent: every node's nonce, and S = c*sum(v) - e*sum(sk)
    vs = [independent_nonce(par.q, par.scalar_len, b"multisig/nonce", 3,
                            i, k.sk)
          for i, k in enumerate(keys)]
    assert [sess.v for sess in run.sessions] == vs
    assert run.signature.s == (run.signature.c * sum(vs)
                               - e * sum(k.sk for k in keys)) % par.q
    doc["gms_toy_n3_seed3"] = {
        "seed": 3, "message": "msg", "n": 3,
        "X": agg.X, "c": run.signature.c, "S": run.signature.s,
        "sig_hex": run.signature.to_bytes(par).hex(),
    }
    return doc


def main():
    OUT.write_text(json.dumps(build(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
