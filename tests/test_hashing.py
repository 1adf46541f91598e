import hashlib
import random

import pytest

from multisig import gamma
from multisig.group import toy_group_for_order
from multisig.hashing import (
    H0,
    H1,
    H2,
    H3,
    HashDomain,
    derive_nonces,
    hash_to_scalar,
    serialize_items,
)
from multisig.schemes import (
    KeyProof,
    PublicKey,
    Signature,
    challenge_hash,
    derive_keys,
    key_verify,
    verify,
)


def test_frozen_vectors_toy(toy, golden):
    for vec in golden["hash_toy"]:
        items = [bytes.fromhex(h) for h in vec["items_hex"]]
        assert hash_to_scalar(toy, HashDomain(vec["tag"]), items) == vec["value"]


def test_frozen_vectors_curve(curve, golden):
    for vec in golden["hash_curve"]:
        items = [bytes.fromhex(h) for h in vec["items_hex"]]
        got = hash_to_scalar(curve, HashDomain(vec["tag"]), items)
        assert got == int(vec["value_hex"], 16)


def test_matches_direct_sha512(toy):
    # independent recomputation of the whole construction
    payload = bytes([0]) + len(b"ab").to_bytes(4, "big") + b"ab" \
        + len(b"c").to_bytes(4, "big") + b"c"
    want = int.from_bytes(hashlib.sha512(payload).digest(), "big") % toy.q or 1
    assert hash_to_scalar(toy, H0, [b"ab", b"c"]) == want


def test_domain_tags_separate(toy):
    values = {tag: hash_to_scalar(toy, tag, [b"same input"]) for tag in HashDomain}
    serial = {tag: serialize_items(tag, [b"same input"]) for tag in HashDomain}
    assert len(set(serial.values())) == 4
    assert serial[H0][0] == 0 and serial[H3][0] == 3
    assert len(values) == 4  # all computed; collisions possible mod 11 but tags differ


def test_domain_tags_never_collide_at_curve_order(curve):
    # mod-11 tag collisions are expected; mod ~2^256 they would be a bug
    rng = random.Random(5)
    for _ in range(1000):
        data = rng.randbytes(rng.randrange(0, 40))
        outs = {hash_to_scalar(curve, tag, [data]) for tag in HashDomain}
        assert len(outs) == 4


def test_item_boundaries_matter(toy):
    assert serialize_items(H0, [b"ab", b"c"]) != serialize_items(H0, [b"a", b"bc"])
    assert serialize_items(H0, [b"abc"]) != serialize_items(H0, [b"ab", b"c"])
    assert serialize_items(H0, [b""]) != serialize_items(H0, [])


def test_non_bytes_items_are_rejected(toy):
    # an int item used to be reduced mod q, so the toy elements 13 and 2
    # (13 = 2 mod 11) hashed alike; callers encode every item first
    # hash_to_scalar streams its items, so a bad one after a good one is
    # met after the good one was fed: it must still be refused
    for item in (5, 13, 3.14, (b"a",)):
        with pytest.raises(TypeError, match="hash items must be bytes"):
            hash_to_scalar(toy, H0, [item])
        with pytest.raises(TypeError, match="hash items must be bytes"):
            hash_to_scalar(toy, H0, [b"ok", item])
        with pytest.raises(TypeError, match="hash items must be bytes"):
            serialize_items(H0, [b"ok", item])


def test_output_range(toy, curve):
    rng = random.Random(0)
    for par in (toy, curve):
        for _ in range(1000):
            data = rng.randbytes(rng.randrange(0, 40))
            assert 0 < hash_to_scalar(par, H1, [data]) < par.q



def _reference_payload(tag, items) -> bytes:
    # the serialization rebuilt from the module docstring, not from the code
    out = bytes([tag])
    for item in items:
        out += len(item).to_bytes(4, "big") + item
    return out


def _random_items(rng) -> list:
    # up to 300 bytes an item, so one input can span several SHA-512 blocks
    return [rng.randbytes(rng.randrange(0, 301))
            for _ in range(rng.randrange(0, 5))]


@pytest.mark.parametrize("backend", ["toy", "curve"])
def test_matches_reference_over_random_items(backend, request):
    # hash_to_scalar streams its items into SHA-512 without building
    # serialize_items' bytes, and must digest exactly those bytes; empty
    # items and a one-shot generator included
    par = request.getfixturevalue(backend)
    rng = random.Random(2024)
    empty = [[], [b""], [b"", b""], [b"", b"x", b""]]
    for tag in HashDomain:
        for items in empty + [_random_items(rng) for _ in range(50)]:
            payload = _reference_payload(tag, items)
            want = int.from_bytes(hashlib.sha512(payload).digest(), "big") % par.q or 1
            assert serialize_items(tag, items) == payload
            assert hash_to_scalar(par, tag, items) == want
            assert hash_to_scalar(par, tag, (x for x in items)) == want


def _reference_nonce(par, tag, seed, i, sk) -> int:
    # 1 + SHA-512(tag ‖ len₄(seed) ‖ seed ‖ 0⁴ ‖ i₄ ‖ sk) mod (q−1), rebuilt
    # from the README's rule with the scalar as a fixed-width big-endian int
    seed_b = str(seed).encode()
    data = (tag + len(seed_b).to_bytes(4, "big") + seed_b + bytes(4)
            + i.to_bytes(4, "big") + sk.to_bytes(par.scalar_len, "big"))
    return 1 + int.from_bytes(hashlib.sha512(data).digest(), "big") % (par.q - 1)


@pytest.mark.parametrize("backend", ["toy", "curve"])
def test_derive_nonces_matches_its_formula(backend, request):
    par = request.getfixturevalue(backend)
    rng = random.Random(6979)
    sks = [rng.randrange(1, par.q) for _ in range(6)]
    for tag in (b"multisig/nonce", b"multisig/gamma-nonce"):
        for seed in (0, 1729, -5, "", "s", "run|revised|3"):
            got = derive_nonces(par, tag, seed, sks)
            assert got == [_reference_nonce(par, tag, seed, i, sk)
                           for i, sk in enumerate(sks)], (tag, seed)
            assert all(0 < v < par.q for v in got)
    # the index is hashed: one key at two positions draws two nonces
    a, b = derive_nonces(par, b"multisig/nonce", 1, [sks[0], sks[0]])
    assert a != b
    with pytest.raises(TypeError, match="nonce seed"):
        derive_nonces(par, b"multisig/nonce", 1.5, sks)


@pytest.mark.parametrize("check", ["verify", "gamma", "key_verify"])
def test_a_zero_residue_cannot_drop_the_key(check):
    # each check recovers V = (g1^s * Y^e)^(1/c); with e = 0 there, (c, v*c)
    # for a chosen v would pass without the secret key.  Each input below
    # hashes to 0 mod 65521 before the "or 1" (found by search)
    par = toy_group_for_order(65521)
    v = 12345
    V = par.exp(par.g1, v)
    y = derive_keys(par, 1, "zero")[0].y
    if check == "verify":  # e = H3(m)
        tag, item = H3, b"2761"
        c = challenge_hash(par, "agms", V, y, None)
        forged = verify(par, y, item, Signature(c, v * c % par.q))
    elif check == "gamma":  # e = H1(m)
        tag, item = H1, b"80924"
        c = hash_to_scalar(par, H0, [par.encode_element(V), par.encode_element(y)])
        forged = gamma.verify(par, y, item, Signature(c, v * c % par.q))
    else:  # b = H2(y), for a y whose discrete log the proof does not use
        y = par.exp(par.g1, 49420)
        tag, item = H2, par.encode_element(y)
        a = hash_to_scalar(par, H1, [par.encode_element(par.g1),
                                     par.encode_element(V)])
        forged = key_verify(par, PublicKey(y, KeyProof(a, v * a % par.q)))
    payload = _reference_payload(tag, [item])
    assert int.from_bytes(hashlib.sha512(payload).digest(), "big") % par.q == 0
    assert not forged
    assert hash_to_scalar(par, tag, [item]) == 1
