import random

import pytest

from multisig import gamma
from multisig.errors import BadLength, NonceReuse
from multisig.group import derive_rng
from multisig.hashing import H1, hash_to_scalar


def _golden_run(toy, golden):
    vec = golden["gamma_toy_seed42"]
    key = gamma.keygen(toy, derive_rng(vec["seed"], "key", 0))
    nonce = gamma.precompute(toy, key, derive_rng(vec["seed"], "v", 0, 0))
    return vec, key, nonce


def test_golden_vector_seed42(toy, golden):
    vec, key, nonce = _golden_run(toy, golden)
    assert (key.sk, key.y) == (vec["sk"], vec["y"])
    assert (nonce.v, nonce.V, nonce.c, nonce.vc) == (
        vec["v"], vec["V"], vec["c"], vec["vc"])
    sig = gamma.sign_online(toy, key, nonce, vec["message"].encode())
    assert (sig.c, sig.s) == (vec["sig_c"], vec["sig_s"])
    assert gamma.verify(toy, key.y, vec["message"].encode(), sig)


def test_precompute_is_one_exp_online_is_zero(toy):
    key = gamma.keygen(toy, derive_rng(1, "key", 0))
    with toy.span() as sp:
        nonce = gamma.precompute(toy, key, derive_rng(1, "v", 0, 0))
    assert sp.exponentiations == 1
    before = toy.ops_total.snapshot()
    gamma.sign_online(toy, key, nonce, b"anything")
    assert toy.ops_total.snapshot() == before  # no group work at all


def test_nonce_single_use(toy):
    key = gamma.keygen(toy, derive_rng(2, "key", 0))
    nonce = gamma.precompute(toy, key, derive_rng(2, "v", 0, 0))
    gamma.sign_online(toy, key, nonce, b"first")
    with pytest.raises(NonceReuse):
        gamma.sign_online(toy, key, nonce, b"second")


def test_verify_has_three_exponentiations(curve):
    key = gamma.keygen(curve, derive_rng(3, "key", 0))
    nonce = gamma.precompute(curve, key, derive_rng(3, "v", 0, 0))
    sig = gamma.sign_online(curve, key, nonce, b"m")
    with curve.span() as sp:
        assert gamma.verify(curve, key.y, b"m", sig)
    assert sp.exponentiations == 3
    assert sp.multiplications == 1


def test_rejects_wrong_message_key_and_tampering(curve):
    key = gamma.keygen(curve, derive_rng(4, "key", 0))
    other = gamma.keygen(curve, derive_rng(4, "key", 1))
    nonce = gamma.precompute(curve, key, derive_rng(4, "v", 0, 0))
    sig = gamma.sign_online(curve, key, nonce, b"paid 5")
    assert gamma.verify(curve, key.y, b"paid 5", sig)
    assert not gamma.verify(curve, key.y, b"paid 6", sig)
    assert not gamma.verify(curve, other.y, b"paid 5", sig)
    assert not gamma.verify(curve, key.y, b"paid 5",
                            gamma.Signature(sig.c, (sig.s + 1) % curve.q))
    assert not gamma.verify(curve, key.y, b"paid 5",
                            gamma.Signature((sig.c + 1) % curve.q, sig.s))
    assert not gamma.verify(curve, key.y, b"paid 5", gamma.Signature(0, sig.s))


def test_many_keys_round_trip(toy):
    # q=11 is tiny; make sure verification holds across the whole key space
    for i in range(40):
        key = gamma.keygen(toy, derive_rng(5, "key", i))
        nonce = gamma.precompute(toy, key, derive_rng(5, "v", 0, i))
        m = b"m%d" % i
        assert gamma.verify(toy, key.y, m, gamma.sign_online(toy, key, nonce, m))


def test_completeness_over_random_messages(toy):
    rng = random.Random(6)
    key = gamma.keygen(toy, derive_rng(6, "key", 0))
    for i in range(500):
        m = rng.randbytes(rng.randrange(0, 48))
        nonce = gamma.precompute(toy, key, derive_rng(6, "v", 0, i))
        assert gamma.verify(toy, key.y, m, gamma.sign_online(toy, key, nonce, m))


def test_bit_flips_and_shifted_s_never_verify(toy16):
    # at q=65521 a false accept would be ~1/q luck; seed pinned, so none occur
    rng = random.Random(7)
    key = gamma.keygen(toy16, derive_rng(7, "key", 0))
    accepted = 0
    for i in range(500):
        m = rng.randbytes(rng.randrange(1, 48))
        nonce = gamma.precompute(toy16, key, derive_rng(7, "v", 0, i))
        sig = gamma.sign_online(toy16, key, nonce, m)
        flipped = bytearray(m)
        bit = rng.randrange(8 * len(m))
        flipped[bit // 8] ^= 1 << (bit % 8)
        accepted += gamma.verify(toy16, key.y, bytes(flipped), sig)
        accepted += gamma.verify(toy16, key.y, m,
                                 gamma.Signature(sig.c, (sig.s + 1) % toy16.q))
    assert accepted == 0


def test_verification_matches_exhaustive_commitment_search(toy):
    # the recovered commitment is the unique V with g1^s * y^e = V^c
    everyone = [toy.exp(toy.g1, i) for i in range(toy.q)]
    assert len(set(everyone)) == toy.q
    for i in range(20):
        key = gamma.keygen(toy, derive_rng(8, "key", i))
        nonce = gamma.precompute(toy, key, derive_rng(8, "v", 0, i))
        m = b"oracle %d" % i
        sig = gamma.sign_online(toy, key, nonce, m)
        e = hash_to_scalar(toy, H1, [m])
        lhs = toy.mul(toy.exp(toy.g1, sig.s), toy.exp(key.y, e))
        assert [V for V in everyone if toy.exp(V, sig.c) == lhs] == [nonce.V]
        assert gamma.verify(toy, key.y, m, sig)


def test_signature_bytes(toy):
    sig = gamma.Signature(7, 6)
    data = sig.to_bytes(toy)
    assert data == bytes.fromhex("00070006")
    assert gamma.Signature.from_bytes(toy, data) == sig
    with pytest.raises(BadLength):
        gamma.Signature.from_bytes(toy, data + b"\x00")
