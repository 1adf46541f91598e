import random

import pytest

from multisig import gamma
from multisig.errors import BadLength, NonceReuse
from multisig.group import curve_group, derive_rng, toy_group_for_order
from multisig.hashing import H0, H1, hash_to_scalar
from multisig.schemes import bare_keygen, derive_keys, open_sessions
from multisig.tree import build_tree

GAMMA_TAG = b"multisig/gamma-nonce"


def _golden_run(toy, golden):
    vec = golden["gamma_toy_seed42"]
    key = bare_keygen(toy, derive_rng(vec["seed"], "key", 0))
    nonce = gamma.precompute(toy, key, vec["seed"])
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
    key = bare_keygen(toy, derive_rng(1, "key", 0))
    with toy.span() as sp:
        nonce = gamma.precompute(toy, key, 1)
    assert sp.exponentiations == 1
    before = toy.ops_total.snapshot()
    gamma.sign_online(toy, key, nonce, b"anything")
    assert toy.ops_total.snapshot() == before  # no group work at all


def test_nonce_single_use(toy):
    key = bare_keygen(toy, derive_rng(2, "key", 0))
    nonce = gamma.precompute(toy, key, 2)
    gamma.sign_online(toy, key, nonce, b"first")
    with pytest.raises(NonceReuse):
        gamma.sign_online(toy, key, nonce, b"second")


def test_verify_has_two_exponentiations(curve):
    key = bare_keygen(curve, derive_rng(3, "key", 0))
    nonce = gamma.precompute(curve, key, 3)
    sig = gamma.sign_online(curve, key, nonce, b"m")
    with curve.span() as sp:
        assert gamma.verify(curve, key.y, b"m", sig)
    assert sp.exponentiations == 2
    assert sp.multiplications == 1


@pytest.mark.parametrize("make", [lambda: toy_group_for_order(1048573),
                                  curve_group], ids=["toy", "curve"])
def test_recover_commitment_matches_literal_form(make):
    # g1^(a/c) * Y^(b/c) against (g1^a * Y^b)^(1/c); the last pool entry
    # raises a random Y through a fixed base, so on the curve both GLV and
    # a comb table other than g1's are hit
    par = make()
    rng = random.Random(25)
    points = [par.identity, par.g1] + [par.exp(par.g1, par.random_scalar(rng))
                                       for _ in range(2)]
    pool = [(Y, Y) for Y in points] + [(par.fixed_base(points[3]), points[3])]
    for i in range(50):
        base, Y = pool[i % 5]
        a = 0 if i % 6 == 0 else rng.randrange(par.q)
        b = 0 if i % 6 == 1 else rng.randrange(par.q)
        c = rng.randrange(1, par.q)
        literal = par.exp(par.mul(par.exp(par.g1, a), par.exp(Y, b)),
                          par.s_inv(c))
        assert gamma.recover_commitment(par, a, base, b, c) == literal, (i, a, b, c)


def test_rejects_wrong_message_key_and_tampering(curve):
    key = bare_keygen(curve, derive_rng(4, "key", 0))
    other = bare_keygen(curve, derive_rng(4, "key", 1))
    nonce = gamma.precompute(curve, key, 4)
    sig = gamma.sign_online(curve, key, nonce, b"paid 5")
    assert gamma.verify(curve, key.y, b"paid 5", sig)
    assert not gamma.verify(curve, key.y, b"paid 6", sig)
    assert not gamma.verify(curve, other.y, b"paid 5", sig)
    assert not gamma.verify(curve, key.y, b"paid 5",
                            gamma.Signature(sig.c, (sig.s + 1) % curve.q))
    assert not gamma.verify(curve, key.y, b"paid 5",
                            gamma.Signature((sig.c + 1) % curve.q, sig.s))
    assert not gamma.verify(curve, key.y, b"paid 5", gamma.Signature(0, sig.s))


def test_verdicts_hold_across_comb_promotion():
    # 40 signatures under one raw key: gamma.verify raises it through GLV
    # every time and leaves the group as it found it, and every verdict
    # matches the commitment recovered through the key's own comb table
    curve = curve_group()
    key = bare_keygen(curve, derive_rng(13, "key", 0))
    rng = random.Random(1994)
    cases = []
    for i in range(40):
        m = b"tx %d" % i
        sig = gamma.sign_online(curve, key, gamma.precompute(curve, key, i), m)
        flipped = gamma.Signature(sig.c, sig.s ^ (1 << rng.randrange(255)))
        cases += [(m, sig), (m, flipped)]
    before = {k: v for k, v in vars(curve).items() if k != "ops_total"}
    live = [gamma.verify(curve, key.y, m, sig) for m, sig in cases]
    assert {k: v for k, v in vars(curve).items() if k != "ops_total"} == before
    fixed, yb = curve.fixed_base(key.y), curve.encode_element(key.y)
    combed = [hash_to_scalar(curve, H0, [curve.encode_element(
        gamma.recover_commitment(curve, sig.s, fixed,
                                 hash_to_scalar(curve, H1, [m]), sig.c)), yb])
              == sig.c for m, sig in cases]
    assert live == combed == [True, False] * 40


def test_many_keys_round_trip(toy):
    # q=11 is tiny; make sure verification holds across the whole key space
    for i in range(40):
        key = bare_keygen(toy, derive_rng(5, "key", i))
        nonce = gamma.precompute(toy, key, f"5|{i}")
        m = b"m%d" % i
        assert gamma.verify(toy, key.y, m, gamma.sign_online(toy, key, nonce, m))


def test_completeness_over_random_messages(toy):
    rng = random.Random(6)
    key = bare_keygen(toy, derive_rng(6, "key", 0))
    for i in range(500):
        m = rng.randbytes(rng.randrange(0, 48))
        nonce = gamma.precompute(toy, key, f"6|{i}")
        assert gamma.verify(toy, key.y, m, gamma.sign_online(toy, key, nonce, m))


def test_bit_flips_and_shifted_s_never_verify(toy16):
    # at q=65521 a false accept would be ~1/q luck; seed pinned, so none occur
    rng = random.Random(7)
    key = bare_keygen(toy16, derive_rng(7, "key", 0))
    accepted = 0
    for i in range(500):
        m = rng.randbytes(rng.randrange(1, 48))
        nonce = gamma.precompute(toy16, key, f"7|{i}")
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
        key = bare_keygen(toy, derive_rng(8, "key", i))
        nonce = gamma.precompute(toy, key, f"8|{i}")
        m = b"oracle %d" % i
        sig = gamma.sign_online(toy, key, nonce, m)
        e = hash_to_scalar(toy, H1, [m])
        lhs = toy.mul(toy.exp(toy.g1, sig.s), toy.exp(key.y, e))
        assert [V for V in everyone if toy.exp(V, sig.c) == lhs] == [nonce.V]
        assert gamma.verify(toy, key.y, m, sig)


# ── nonces ───────────────────────────────────────────────────────────────────

def test_nonce_matches_raw_hashlib(toy16, curve, raw_nonce):
    # the key signs alone, at index 0, on the gamma tag
    for par in (toy16, curve):
        key = bare_keygen(par, derive_rng(9, "key", 0))
        for seed in (9, "9|x"):
            assert gamma.precompute(par, key, seed).v == raw_nonce(
                par, GAMMA_TAG, seed, 0, key.sk)


def test_nonces_stay_off_the_metered_hash_seam(toy, raw_nonce, hash_calls):
    # perfbench counts hash calls at this seam: it sees no nonce hash, and
    # gamma hashes exactly one H0(V, pk) per precompute, even on q = 11
    keys = derive_keys(toy, 7, 10)
    hash_calls.clear()  # keygen's possession proofs
    open_sessions(toy, "agms", build_tree(7, 2, 3), keys, 10)
    assert hash_calls == []
    key = keys[0]
    pk = toy.encode_element(key.y)
    for seed in range(40):
        hash_calls.clear()
        nonce = gamma.precompute(toy, key, seed)
        V = toy.exp(toy.g1, raw_nonce(toy, GAMMA_TAG, seed, 0, key.sk))
        assert nonce.V == V
        assert hash_calls == [(H0, (toy.encode_element(V), pk))]


def test_gamma_and_tree_nonces_are_tag_separated(curve):
    # one key on one seed never gets the same nonce from both schemes
    kp = derive_keys(curve, 1, 11)[0]
    tree = build_tree(1, 2, 1)
    for seed in (11, "11|x"):
        [session] = open_sessions(curve, "agms", tree, [kp], seed)
        assert gamma.precompute(curve, kp, seed).v != session.v


def test_precompute_rejects_an_rng_seed(toy):
    # str() of an RNG embeds its address: a nonce that no run reproduces
    key = bare_keygen(toy, derive_rng(12, "key", 0))
    with pytest.raises(TypeError, match="int or str"):
        gamma.precompute(toy, key, random.Random(1))


@pytest.mark.parametrize("backend", ["toy", "curve"])
def test_known_nonce_seed_does_not_reveal_the_key(backend, curve, raw_nonce):
    # the key comes from a secret seed, the nonce from a published one; a
    # nonce that depended on the seed alone would give sk = (v*c - s)/e
    par = curve if backend == "curve" else toy_group_for_order(1048573)
    key = bare_keygen(par, derive_rng("secret seed", "key", 0))
    nonce = gamma.precompute(par, key, 5)
    sig = gamma.sign_online(par, key, nonce, b"msg")
    e = hash_to_scalar(par, H1, [b"msg"])

    def unwind(v):
        return (v * sig.c - sig.s) * par.s_inv(e) % par.q

    # the algebra is right: the token's own nonce unwinds the signature
    assert unwind(nonce.v) == key.sk
    seed_only = {
        "mersenne twister": par.random_scalar(derive_rng(5, "nonce", 0)),
        "hash without sk": raw_nonce(par, GAMMA_TAG, 5, 0),
    }
    for name, v in seed_only.items():
        assert unwind(v) != key.sk, name


def test_signature_bytes(toy):
    sig = gamma.Signature(7, 6)
    data = sig.to_bytes(toy)
    assert data == bytes.fromhex("00070006")
    assert gamma.Signature.from_bytes(toy, data) == sig
    with pytest.raises(BadLength):
        gamma.Signature.from_bytes(toy, data + b"\x00")
