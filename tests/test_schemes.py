import json
import random
from dataclasses import astuple, replace

import pytest

from multisig import group as group_mod, schemes
from multisig.errors import (
    BadLength,
    BadPayload,
    EmptySet,
    HandlerFailure,
    IoError,
    MixedSessions,
    NonCanonical,
    NonceReuse,
    NotInGroup,
)
from multisig.group import curve_group, derive_rng, toy_group_for_order
from multisig.hashing import H3, hash_to_scalar, serialize_items
from multisig.schemes import (
    SCHEMES,
    KeyProof,
    PublicKey,
    Signature,
    agms_offline,
    agms_online,
    announce,
    bare_keygen,
    challenge,
    challenge_hash,
    commit,
    cosi_sign,
    cosi_verify,
    derive_keys,
    gms_sign,
    key_aggregate,
    key_verify,
    keygen,
    load_public_keys,
    load_secret_keys,
    open_sessions,
    read_signature,
    respond,
    save_public_keys,
    save_secret_keys,
    verify,
    write_signature,
)
from multisig.tree import Phase, build_tree

M = b"msg"


# ── keys ─────────────────────────────────────────────────────────────────────

def test_keygen_golden_seed7(toy, golden):
    vec = golden["keygen_toy_seed7"]
    kp = keygen(toy, derive_rng(vec["seed"], "key", 0))
    assert kp.sk == vec["sk"]
    assert kp.y == vec["y"]
    assert (kp.public.proof.a, kp.public.proof.d) == (vec["a"], vec["d"])
    assert key_verify(toy, kp.public)


def test_key_verify_rejects_forgeries(toy16):
    kp = keygen(toy16, derive_rng(0, "key", 0))
    good = kp.public
    assert key_verify(toy16, good)
    a, d = good.proof.a, good.proof.d
    assert not key_verify(toy16, PublicKey(good.y, KeyProof(a, (d + 1) % toy16.q)))
    assert not key_verify(toy16, PublicKey(good.y, KeyProof((a + 1) % toy16.q, d)))
    assert not key_verify(toy16, PublicKey(good.y, KeyProof(0, d)))
    assert not key_verify(toy16, PublicKey(good.y, None))
    # proof transplanted onto a different key
    other = keygen(toy16, derive_rng(0, "key", 1))
    assert not key_verify(toy16, PublicKey(other.y, good.proof))
    # identity as public key
    assert not key_verify(toy16, PublicKey(toy16.identity, good.proof))


def test_key_verify_costs_two_exps(toy):
    kp = keygen(toy, derive_rng(1, "key", 0))
    with toy.span() as sp:
        assert key_verify(toy, kp.public)
    assert sp.exponentiations == 2


def test_key_aggregate_toy_example(toy):
    # y1 = 4 = g^2, y2 = 8 = g^3: product is 32 mod 23 = 9 = g^5
    agg = key_aggregate(toy, [PublicKey(4), PublicKey(8)])
    assert agg.X == 9
    # same answer regardless of wrapper type and order
    k1, k2 = derive_keys(toy, 2, 77)
    a = key_aggregate(toy, [k1, k2])
    b = key_aggregate(toy, [k2.public, k1.public])
    assert a.X == b.X
    # a single key aggregates to itself; duplicates are allowed
    assert key_aggregate(toy, [k1]).X == k1.y
    assert key_aggregate(toy, [PublicKey(4), PublicKey(4)]).X == 16
    with pytest.raises(EmptySet):
        key_aggregate(toy, [])


def test_key_verify_holds_for_200_random_keys(toy16):
    for i in range(200):
        assert key_verify(toy16, keygen(toy16, derive_rng(19, "key", i)).public)


def test_distinct_seeds_give_distinct_keys(curve):
    # no y collisions across ten thousand draws at curve order; the bare
    # key draw on derive_keys's streams gives its keys without the proofs
    ys = [curve.encode_element(bare_keygen(curve, derive_rng("collision-scan", "key", i)).y)
          for i in range(10_000)]
    assert ys[:16] == [curve.encode_element(k.y)
                       for k in derive_keys(curve, 16, "collision-scan")]
    assert len(set(ys)) == 10_000


def test_derive_keys_deterministic_and_distinct(toy16):
    ks1 = derive_keys(toy16, 5, 42)
    ks2 = derive_keys(toy16, 5, 42)
    assert [k.sk for k in ks1] == [k.sk for k in ks2]
    assert len({k.sk for k in ks1}) == 5
    assert all(key_verify(toy16, k.public) for k in ks1)


# ── joint signing ────────────────────────────────────────────────────────────

def test_gms_golden_n3_seed3(toy, golden):
    vec = golden["gms_toy_n3_seed3"]
    tree = build_tree(3, 2, 3)
    keys = derive_keys(toy, 3, vec["seed"])
    run = gms_sign(toy, tree, keys, vec["message"].encode(), seed=vec["seed"])
    assert run.agg_key.X == vec["X"]
    assert (run.signature.c, run.signature.s) == (vec["c"], vec["S"])
    assert run.signature.to_bytes(toy).hex() == vec["sig_hex"]
    assert verify(toy, run.agg_key, vec["message"].encode(), run.signature)


def test_gms_agms_identical_signatures(toy):
    tree = build_tree(7, 2, 3)
    keys = derive_keys(toy, 7, 21)
    for seed in range(10):
        g = gms_sign(toy, tree, keys, M, seed=seed)
        off = agms_offline(toy, tree, keys, seed=seed)
        a = agms_online(toy, off, M)
        assert g.signature == a.signature
        assert g.signature.to_bytes(toy) == a.signature.to_bytes(toy)
        assert g.agg_key.X == a.agg_key.X
        assert verify(toy, a.agg_key, M, a.signature)


def test_all_schemes_verify_on_curve(curve):
    tree = build_tree(5, 2, 3)
    keys = derive_keys(curve, 5, 4)
    g = gms_sign(curve, tree, keys, M, seed=4)
    assert verify(curve, g.agg_key, M, g.signature)
    off = agms_offline(curve, tree, keys, seed=4)
    a = agms_online(curve, off, M)
    assert a.signature == g.signature
    c = cosi_sign(curve, tree, keys, M, seed=4)
    assert cosi_verify(curve, c.agg_key, M, c.signature)
    # the two verifiers are not interchangeable
    assert not verify(curve, c.agg_key, M, c.signature)
    assert not cosi_verify(curve, g.agg_key, M, g.signature)


def test_verdicts_hold_across_comb_promotion():
    # 40 signatures under one X~: its 16th check builds X~'s comb table, and
    # every verdict matches one against the raw point on a fresh group
    curve = curve_group()
    tree, keys = build_tree(3, 2, 2), derive_keys(curve, 3, "comb")
    rng = random.Random(1994)
    cases = []
    for i in range(40):
        m = b"tx %d" % i
        run = agms_online(curve, agms_offline(curve, tree, keys, seed=f"comb|{i}"), m)
        c, s = run.signature.c, run.signature.s
        cases += [(m, run.signature), (m, Signature(c, s ^ (1 << rng.randrange(255))))]
    agg = run.agg_key
    live = [verify(curve, agg, m, sig) for m, sig in cases]
    assert agg.base is not None and agg.checks == 80
    uncached = [verify(curve_group(), agg.X, m, sig) for m, sig in cases]
    assert live == uncached == [True, False] * 40


def test_held_aggregate_key_gets_its_table_on_the_16th_check(monkeypatch):
    curve = curve_group()
    tree, keys = build_tree(3, 2, 2), derive_keys(curve, 3, "held")
    agg = key_aggregate(curve, keys)
    cases = []
    for i in range(4):
        m = b"held %d" % i
        sig = gms_sign(curve, tree, keys, m, seed=f"held|{i}").signature
        cases += [(m, sig), (m, Signature(sig.c, sig.s ^ 1))]
    builds = []
    real_build = group_mod._build_comb
    monkeypatch.setattr(group_mod, "_build_comb",
                        lambda base: builds.append(base) or real_build(base))
    curve.exp(curve.g1, 1)               # g1's shared table, if not built yet
    builds.clear()
    for check in range(1, 21):
        m, sig = cases[check % len(cases)]
        with curve.span() as sp:
            ok = verify(curve, agg, m, sig)
        assert sp.exponentiations == 3, check
        assert ok == verify(curve, agg.X, m, sig) == (check % 2 == 0), check
        assert builds == ([] if check < 16 else [agg.X]), check
    assert agg.checks == 20
    assert agg == schemes.AggregateKey(agg.X)   # the count and table are not compared


def test_agms_online_zero_group_operations(toy, node_spans):
    tree = build_tree(15, 2, 3)
    keys = derive_keys(toy, 15, 33)
    spans = node_spans(toy)
    off = agms_offline(toy, tree, keys, seed=33)
    for sess in off.sessions:
        assert spans.exponentiations(sess.node) == 1   # exactly the commitment
        assert sess.vc is not None
    before = toy.ops_total.snapshot()
    run = agms_online(toy, off, M)
    assert toy.ops_total.snapshot() == before  # nothing, anywhere
    assert all(spans.exponentiations(s.node) == 1 for s in run.sessions)
    assert verify(toy, run.agg_key, M, run.signature)


def test_gms_online_is_one_exp_per_signer(toy, node_spans):
    tree = build_tree(7, 2, 3)
    keys = derive_keys(toy, 7, 3)
    spans = node_spans(toy)
    run = gms_sign(toy, tree, keys, M, seed=5)
    assert all(spans.exponentiations(s.node) == 1 for s in run.sessions)


def test_verify_costs_three_exps(toy):
    tree = build_tree(3, 2, 3)
    keys = derive_keys(toy, 3, 9)
    run = gms_sign(toy, tree, keys, M, seed=9)
    with toy.span() as sp:
        assert verify(toy, run.agg_key, M, run.signature)
    assert sp.exponentiations == 3
    c = cosi_sign(toy, tree, keys, M, seed=9)
    with toy.span() as sp:
        assert cosi_verify(toy, c.agg_key, M, c.signature)
    assert sp.exponentiations == 2


def test_message_counts(toy):
    # each phase runs once and crosses every one of the tree's n-1 edges
    def phases(*names):
        return [name for name in names for _ in range(n - 1)]

    for n in (1, 3, 7):
        tree = build_tree(n, 2, 3)
        keys = derive_keys(toy, n, n)
        run = gms_sign(toy, tree, keys, M, seed=0)
        assert [msg.phase for msg in run.messages] == phases(
            "announce", "commit", "challenge", "respond")
        off = agms_offline(toy, tree, keys, seed=0)
        assert [msg.phase for msg in off.messages] == phases("commit", "challenge")
        on = agms_online(toy, off, M)
        assert on is off       # one run, one transcript
        assert [msg.phase for msg in on.messages] == phases(
            "commit", "challenge", "announce", "respond")


def _edge_bytes(messages, phase):
    return {len(msg.payload) for msg in messages if msg.phase == phase}


def test_tree_payloads_carry_wire_points(toy, curve):
    # uncompressed SEC1 points on the curve's edges, element_len-sized ones
    # on the toy group's
    tree = build_tree(5, 2, 3)
    el, sl = toy.element_len, toy.scalar_len
    for par, agms, gms, cosi in ((curve, 130, 65, 32 + 65),
                                 (toy, 2 * el, el, sl + el)):
        keys = derive_keys(par, 5, 19)
        off = agms_offline(par, tree, keys, seed=19)
        assert _edge_bytes(off.messages, "commit") == {agms}
        assert _edge_bytes(off.messages, "challenge") == {par.scalar_len}
        run = gms_sign(par, tree, keys, M, seed=19)
        assert _edge_bytes(run.messages, "commit") == {gms}
        run = cosi_sign(par, tree, keys, M, seed=19)
        assert _edge_bytes(run.messages, "challenge") == {cosi}
        assert cosi_verify(par, run.agg_key, M, run.signature)


def test_message_absent_from_offline_hashes(toy, hash_calls):
    tree = build_tree(7, 2, 3)
    keys = derive_keys(toy, 7, 10)
    m = b"super secret future payload"
    off = agms_offline(toy, tree, keys, seed=10)
    assert hash_calls, "offline phase must hash something"
    for tag, items in hash_calls:
        assert m not in serialize_items(tag, items)
    run = agms_online(toy, off, m)
    assert verify(toy, run.agg_key, m, run.signature)


def test_online_hashes_only_the_message(toy, hash_calls):
    # one e = H3(m) per signer, and nothing else
    tree = build_tree(7, 2, 3)
    off = agms_offline(toy, tree, derive_keys(toy, 7, 11), seed=11)
    hash_calls.clear()
    m = b"online payload"
    agms_online(toy, off, m)
    assert hash_calls == [(H3, (m,))] * 7


def test_schedules_do_not_change_signatures(toy, shuffled_levels):
    tree = build_tree(15, 2, 3)
    keys = derive_keys(toy, 15, 6)

    def signatures(t):
        off = agms_offline(toy, t, keys, seed=6)
        return [gms_sign(toy, t, keys, M, seed=6).signature,
                agms_online(toy, off, M).signature,
                cosi_sign(toy, t, keys, M, seed=6).signature]

    base = signatures(tree)
    reversed_levels = replace(tree, levels=tuple(lv[::-1] for lv in tree.levels))
    orders = [reversed_levels] + [shuffled_levels(tree, s) for s in range(3)]
    for permuted in orders:
        assert permuted.levels != tree.levels
        assert signatures(permuted) == base


def test_tamper_rejection(toy16):
    tree = build_tree(7, 2, 3)
    keys = derive_keys(toy16, 7, 12)
    run = gms_sign(toy16, tree, keys, M, seed=12)
    X = run.agg_key
    sig = run.signature
    assert verify(toy16, X, M, sig)
    assert not verify(toy16, X, M + b"!", sig)
    assert not verify(toy16, X, M, Signature(sig.c, (sig.s + 1) % toy16.q))
    assert not verify(toy16, X, M, Signature((sig.c + 1) % toy16.q, sig.s))
    assert not verify(toy16, X, M, Signature(0, sig.s))
    wrong_x = toy16.mul(X.X, toy16.g1)
    assert not verify(toy16, wrong_x, M, sig)


def test_single_signer_degenerates_to_one_key(toy):
    tree = build_tree(1, 2, 3)
    keys = derive_keys(toy, 1, 20)
    run = gms_sign(toy, tree, keys, M, seed=20)
    assert run.agg_key.X == keys[0].y
    assert run.messages == []
    assert verify(toy, keys[0].y, M, run.signature)


def test_wrong_aggregate_never_verifies(toy16):
    # a signature for one signer set checked against another set's key
    tree = build_tree(3, 2, 3)
    run = gms_sign(toy16, tree, derive_keys(toy16, 3, "set-a"), M, seed=21)
    accepted = 0
    for i in range(200):
        other = key_aggregate(toy16, derive_keys(toy16, 3, f"set-b{i}"))
        accepted += verify(toy16, other, M, run.signature)
    assert accepted == 0


def test_baseline_completeness(toy16):
    tree = build_tree(7, 2, 3)
    keys = [bare_keygen(toy16, derive_rng(22, "key", i)) for i in range(7)]
    for seed in range(200):
        m = b"run %d" % seed
        run = cosi_sign(toy16, tree, keys, m, seed=seed)
        assert cosi_verify(toy16, run.agg_key, m, run.signature)
    c, s, q = run.signature.c, run.signature.s, toy16.q
    for out_of_range in (Signature(0, s), Signature(q, s), Signature(c, q)):
        assert not cosi_verify(toy16, run.agg_key, m, out_of_range)


def test_response_linearity(toy):
    # S is exactly the sum of the per-node responses v_i*c - e*sk_i
    from multisig.hashing import H3, hash_to_scalar

    tree = build_tree(7, 2, 3)
    keys = derive_keys(toy, 7, 23)
    e = hash_to_scalar(toy, H3, [M])
    for seed in range(5):
        run = gms_sign(toy, tree, keys, M, seed=seed)
        total = 0
        for sess in run.sessions:
            total = (total + sess.v * run.signature.c
                     - e * sess.key.sk) % toy.q
        assert total == run.signature.s


def test_verifier_cost_independent_of_signer_count(toy):
    from multisig.tree import min_branching

    counts = {}
    for n in (1, 16384):
        tree = build_tree(n, min_branching(n), 3)
        keys = derive_keys(toy, n, 24)
        run = gms_sign(toy, tree, keys, M, seed=24)
        with toy.span() as sp:
            assert verify(toy, run.agg_key, M, run.signature)
        counts[n] = (sp.exponentiations, sp.multiplications)
    assert counts[1] == counts[16384] == (3, 1)


def test_verify_accepts_raw_element_or_aggregate(toy):
    tree = build_tree(3, 2, 3)
    keys = derive_keys(toy, 3, 13)
    run = gms_sign(toy, tree, keys, M, seed=13)
    assert verify(toy, run.agg_key, M, run.signature)
    assert verify(toy, run.agg_key.X, M, run.signature)


# ── session discipline ───────────────────────────────────────────────────────

def test_offline_state_is_single_use(toy):
    tree = build_tree(3, 2, 3)
    keys = derive_keys(toy, 3, 14)
    off = agms_offline(toy, tree, keys, seed=14)
    agms_online(toy, off, M)
    with pytest.raises(NonceReuse):
        agms_online(toy, off, b"other message")


def test_refused_online_call_announces_nothing(toy):
    # announce checks for spent sessions before any node hears m, so no
    # session takes the new m
    tree = build_tree(7, 2, 3)
    off = agms_offline(toy, tree, derive_keys(toy, 7, 21), seed=21)
    first = agms_online(toy, off, M)
    with pytest.raises(NonceReuse):
        agms_online(toy, off, b"other")
    assert [sess.m for sess in off.sessions] == [M] * 7
    assert verify(toy, first.agg_key, M, first.signature)


def test_sessions_must_come_from_offline_run(toy):
    tree = build_tree(3, 2, 3)
    keys = derive_keys(toy, 3, 15)
    gms_run = gms_sign(toy, tree, keys, M, seed=15)
    off = agms_offline(toy, tree, keys, seed=15)
    fake = replace(off, sessions=gms_run.sessions)
    with pytest.raises((MixedSessions, NonceReuse)):
        agms_online(toy, fake, M)


def test_a_second_respond_is_a_bare_nonce_reuse(toy):
    # the revised endorsement flow calls announce and respond itself
    tree = build_tree(3, 2, 3)
    off = agms_offline(toy, tree, derive_keys(toy, 3, 18), seed=18)
    announce(off, M)
    respond(off)
    with pytest.raises(NonceReuse):
        respond(off)


def test_respond_before_announce_spends_no_session(toy):
    tree = build_tree(3, 2, 3)
    off = agms_offline(toy, tree, derive_keys(toy, 3, 19), seed=19)
    with pytest.raises(MixedSessions):
        respond(off)
    assert not any(sess.responded for sess in off.sessions)
    assert off.signature is None
    announce(off, M)
    respond(off)
    assert off.signature.c == off.c
    assert verify(toy, off.agg_key, M, off.signature)


def test_a_second_challenge_is_refused_and_online_still_signs(toy16):
    # a second c used to overwrite every session's c and v*c, and
    # agms_online then spent every nonce on a signature verify rejects
    tree = build_tree(7, 2, 3)
    off = agms_offline(toy16, tree, derive_keys(toy16, 7, 70), seed=70)
    before = [astuple(sess) for sess in off.sessions], off.c, len(off.messages)
    with pytest.raises(MixedSessions, match="already holds c"):
        challenge(off, off.c + 1, toy16.g1)
    assert ([astuple(sess) for sess in off.sessions], off.c,
            len(off.messages)) == before
    run = agms_online(toy16, off, M)
    assert verify(toy16, run.agg_key, M, run.signature)


def test_spent_sessions_keep_the_pair_they_answered(toy16):
    # announce and challenge used to rewrite (c, m) of spent sessions
    tree = build_tree(7, 2, 3)
    run = gms_sign(toy16, tree, derive_keys(toy16, 7, 71), b"m1", seed=71)
    c = run.signature.c
    with pytest.raises(NonceReuse):
        announce(run, b"other")
    with pytest.raises(NonceReuse):
        challenge(run, 5, toy16.g1)
    assert [(sess.c, sess.m) for sess in run.sessions] == [(c, b"m1")] * 7


def test_online_refuses_a_run_whose_challenge_its_sessions_do_not_hold(toy16):
    tree = build_tree(7, 2, 3)
    off = agms_offline(toy16, tree, derive_keys(toy16, 7, 72), seed=72)
    other = replace(off, c=off.c % (toy16.q - 1) + 1)
    with pytest.raises(MixedSessions, match="offline challenge"):
        agms_online(toy16, other, M)
    assert all(sess.m is None and not sess.responded for sess in off.sessions)


def test_keys_must_match_tree(toy):
    tree = build_tree(3, 2, 3)
    keys = derive_keys(toy, 2, 16)
    with pytest.raises(MixedSessions):
        gms_sign(toy, tree, keys, M, seed=16)


@pytest.mark.parametrize("name", ["cosy", "COSI", "gamma", ""])
def test_only_the_named_schemes_open_sessions(toy16, name):
    # an unknown name used to sign as GMS, byte for byte
    tree = build_tree(7, 2, 3)
    keys = derive_keys(toy16, 7, 18)
    assert SCHEMES == ("gms", "agms", "cosi")
    with pytest.raises(ValueError, match="unknown scheme"):
        open_sessions(toy16, name, tree, keys, 18)


@pytest.mark.parametrize("name", ["COSI", "cosy", "agms "])
def test_challenge_hash_refuses_unknown_schemes(toy16, name):
    # an unknown name used to hash as GMS/AGMS
    keys = derive_keys(toy16, 2, 19)
    X = key_aggregate(toy16, keys).X
    with pytest.raises(ValueError, match="unknown scheme"):
        challenge_hash(toy16, name, toy16.g1, X, M)


def test_baseline_nodes_check_the_challenge(toy16):
    # a leader that lies about the aggregate gets refused by honest nodes
    tree = build_tree(3, 2, 3)
    keys = [bare_keygen(toy16, derive_rng(17, "key", i)) for i in range(3)]
    run = open_sessions(toy16, "cosi", tree, keys, 17)
    announce(run, M)
    commit(run)
    with pytest.raises(HandlerFailure):
        challenge(run, 5, run.V)


def test_a_cosi_challenge_before_m_is_refused_untouched(toy16):
    # a CoSi node checks c against H0(V_ann, m): one that had heard no m
    # used to fail inside the hash, a TypeError wrapped at node 0
    run = open_sessions(toy16, "cosi", build_tree(7, 2, 3),
                        derive_keys(toy16, 7, 73), 73)
    commit(run)
    before = [astuple(sess) for sess in run.sessions], len(run.messages)
    with pytest.raises(MixedSessions, match="node 0 has no m"):
        challenge(run, 5, toy16.g1)
    assert ([astuple(sess) for sess in run.sessions], len(run.messages)) == before
    assert run.c is None
    announce(run, M)
    challenge(run, challenge_hash(toy16, "cosi", run.V, None, M), run.V)
    respond(run)
    assert cosi_verify(toy16, run.agg_key, M, run.signature)


@pytest.mark.parametrize("backend", ["toy", "curve"])
@pytest.mark.parametrize("scheme", ["gms", "agms"])
def test_nodes_refuse_a_zero_challenge(backend, scheme, curve):
    # under c = 0 every node fixes v*c = 0 and responds -e*sk_i, so -S~/e is
    # the sum of the keys below the sender: the aggregate secret of seven
    # nodes, or the own key of a leaf whose parent sends 0.  The root
    # refuses the caller's own 0, so the refusal names no sending node
    par = curve if backend == "curve" else toy_group_for_order(1048573)
    for n in (7, 1):
        tree = build_tree(n, 2, 3)
        keys = derive_keys(par, n, 50)
        run = open_sessions(par, scheme, tree, keys, 50)
        announce(run, M)
        commit(run)
        try:
            challenge(run, 0, run.V)
        except HandlerFailure as exc:
            assert exc.node == 0
            assert isinstance(exc.cause, BadPayload)
            assert exc.cause.src is None
            assert str(exc.cause.cause) == "challenge is 0"
            with pytest.raises(MixedSessions, match="challenge state"):
                respond(run)
            continue
        respond(run)
        S = run.signature.s
        e = hash_to_scalar(par, H3, [M])
        leaked = -S * par.s_inv(e) % par.q
        assert leaked == sum(k.sk for k in keys) % par.q
        pytest.fail(f"c = 0 accepted: -S/e is the key sum of {n} node(s)")


# ── strict payload lengths; a bad payload names its sender ──────────────────

def _tamper(monkeypatch, phase, node, rewrite):
    """Make ``node`` send ``rewrite(payload)`` in ``phase`` instead of its
    honest payload."""
    real = schemes.run_phase

    def run_phase(tree, ph, handler, **kwargs):
        if ph is phase:
            honest = handler

            def handler(n, arg):
                out = honest(n, arg)
                return rewrite(out) if n == node else out
        return real(tree, ph, handler, **kwargs)

    monkeypatch.setattr(schemes, "run_phase", run_phase)


# trailing bytes used to be ignored and forwarded, and the signature
# verified; junk of the right length was blamed on the honest receiver
_BAD_PAYLOADS = pytest.mark.parametrize("rewrite, cause", [
    (lambda p: p + bytes(8), BadLength),
    (lambda p: b"\xff" * len(p), NonCanonical),
], ids=["trailing", "junk"])


def _committed(par, scheme):
    """(run, c) for a 7-node binary tree (node 3's parent is 1, node 5's
    is 2) whose sessions have heard the message and committed."""
    keys = derive_keys(par, 7, 60)
    run = open_sessions(par, scheme, build_tree(7, 2, 3), keys, 60)
    announce(run, M)
    commit(run)
    assert run.agg_key == key_aggregate(par, keys)
    return run, challenge_hash(par, scheme, run.V, run.agg_key.X, M)


def _raised(exc_info, node, src, cause):
    """The receiver ``node`` raised; its cause names the sender ``src``."""
    failure = exc_info.value
    assert failure.node == node
    assert isinstance(failure.cause, BadPayload)
    assert failure.cause.src == src
    assert isinstance(failure.cause.cause, cause)


@_BAD_PAYLOADS
@pytest.mark.parametrize("backend", ["toy", "curve"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_bad_commit_is_refused_naming_the_sender(
        backend, scheme, rewrite, cause, toy16, curve, monkeypatch):
    par = curve if backend == "curve" else toy16
    run = open_sessions(par, scheme, build_tree(7, 2, 3),
                        derive_keys(par, 7, 60), 60)
    _tamper(monkeypatch, Phase.COMMIT, 3, rewrite)
    with pytest.raises(HandlerFailure) as exc:
        commit(run)
    _raised(exc, 1, 3, cause)


@_BAD_PAYLOADS
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_bad_challenge_is_refused_naming_the_sender(
        scheme, rewrite, cause, toy16, monkeypatch):
    run, c = _committed(toy16, scheme)
    _tamper(monkeypatch, Phase.CHALLENGE, 1, rewrite)
    with pytest.raises(HandlerFailure) as exc:
        challenge(run, c, run.V)
    _raised(exc, 3, 1, cause)


@_BAD_PAYLOADS
def test_a_bad_response_is_refused_naming_the_sender(
        rewrite, cause, toy16, monkeypatch):
    run, c = _committed(toy16, "gms")
    challenge(run, c, run.V)
    _tamper(monkeypatch, Phase.RESPOND, 5, rewrite)
    with pytest.raises(HandlerFailure) as exc:
        respond(run)
    _raised(exc, 2, 5, cause)


@pytest.mark.parametrize("backend", ["toy", "curve"])
@pytest.mark.parametrize("scheme, relayed, message", [
    ("gms", lambda c: 0, "challenge is 0"),
    ("agms", lambda c: 0, "challenge is 0"),
    ("cosi", lambda c: c + 1, "challenge does not match announced aggregate"),
], ids=["gms", "agms", "cosi"])
def test_a_refused_relayed_challenge_names_the_sender(
        backend, scheme, relayed, message, toy16, curve, monkeypatch):
    # a challenge that decodes but is refused names its sender too: node 1
    # relays it, so its child 3 names 1
    par = curve if backend == "curve" else toy16
    run, c = _committed(par, scheme)
    sl = par.scalar_len
    _tamper(monkeypatch, Phase.CHALLENGE, 1,
            lambda p: par.encode_scalar(relayed(c)) + p[sl:])
    with pytest.raises(HandlerFailure) as exc:
        challenge(run, c, run.V)
    _raised(exc, 3, 1, ValueError)
    assert run.c is None      # set only once every node took c
    assert str(exc.value.cause.cause) == message


# ── session nonces ───────────────────────────────────────────────────────────

TREE_TAG = b"multisig/nonce"


def nonces(par, tree, keys, seed):
    return [s.v for s in open_sessions(par, "agms", tree, keys, seed).sessions]


def test_session_nonces_cover_exactly_one_to_q_minus_one(toy):
    tree = build_tree(63, 2, 6)
    keys = derive_keys(toy, 63, 40)
    seen = set()
    for seed in range(8):
        seen.update(nonces(toy, tree, keys, seed))
    assert seen == set(range(1, toy.q))


def test_session_nonces_match_raw_hashlib(toy16, curve, raw_nonce):
    tree = build_tree(7, 2, 3)
    for par in (toy16, curve):
        keys = derive_keys(par, 7, 41)
        for seed in (41, "41|x"):
            assert nonces(par, tree, keys, seed) == [
                raw_nonce(par, TREE_TAG, seed, i, k.sk)
                for i, k in enumerate(keys)]


def test_open_sessions_rejects_an_rng_seed(toy):
    # str() of an RNG embeds its address: nonces that no run reproduces
    tree = build_tree(3, 2, 3)
    with pytest.raises(TypeError, match="int or str"):
        open_sessions(toy, "agms", tree, derive_keys(toy, 3, 45),
                      seed=random.Random(1))


def test_session_nonces_deterministic_and_distinct(curve):
    tree = build_tree(7, 2, 3)
    keys = derive_keys(curve, 7, 42)
    vs = nonces(curve, tree, keys, 42)
    assert vs == nonces(curve, tree, keys, 42)
    assert len(set(vs)) == 7                      # across nodes
    other = nonces(curve, tree, keys, 43)
    assert all(a != b for a, b in zip(vs, other))  # across seeds
    # only node 0's secret key changes, so only node 0's nonce changes
    swapped = [derive_keys(curve, 1, 44)[0], *keys[1:]]
    moved = nonces(curve, tree, swapped, 42)
    assert moved[0] != vs[0] and moved[1:] == vs[1:]


@pytest.mark.parametrize("backend", ["toy", "curve"])
def test_known_nonce_seed_does_not_reveal_the_aggregate_key(backend, curve,
                                                           raw_nonce):
    # keys come from a secret seed, nonces from a published one; a nonce
    # that depended on the seed alone would give sum(sk) = (c*sum(v) - S)/e
    par = curve if backend == "curve" else toy_group_for_order(1048573)
    tree = build_tree(7, 2, 3)
    keys = derive_keys(par, 7, "secret seed")
    run = gms_sign(par, tree, keys, M, seed=5)
    c, S = run.signature.c, run.signature.s
    e = hash_to_scalar(par, H3, [M])
    sum_sk = sum(k.sk for k in keys) % par.q

    def unwind(vs):
        return (c * sum(vs) - S) * par.s_inv(e) % par.q

    # the algebra is right: the signers' own nonces unwind the signature
    assert unwind([sess.v for sess in run.sessions]) == sum_sk
    seed_only = {
        "mersenne twister": [par.random_scalar(derive_rng(5, "v", 0, i))
                             for i in range(7)],
        "hash without sk": [raw_nonce(par, TREE_TAG, 5, i) for i in range(7)],
    }
    for name, vs in seed_only.items():
        assert unwind(vs) != sum_sk, name


# ── files ────────────────────────────────────────────────────────────────────

def test_key_file_round_trip(tmp_path, toy16):
    keys = derive_keys(toy16, 3, 18)
    pub = tmp_path / "keys.json"
    sec = tmp_path / "keys.secret.json"
    save_public_keys(pub, toy16, keys)
    save_secret_keys(sec, toy16, keys)
    par2, pks = load_public_keys(pub)
    assert par2.group_id == toy16.group_id
    assert [p.y for p in pks] == [k.y for k in keys]
    assert all(key_verify(par2, p) for p in pks)
    par3, sks = load_secret_keys(sec)
    assert sks == [k.sk for k in keys]
    # bare keys save without proof fields and load back proofless
    bare = [bare_keygen(toy16, derive_rng(18, "b", i)) for i in range(2)]
    save_public_keys(pub, toy16, bare)
    _, pks = load_public_keys(pub)
    assert all(p.proof is None for p in pks)


def test_curve_key_file_writes_compressed_and_reads_both_forms(tmp_path, curve):
    keys = derive_keys(curve, 2, 20)
    pub = tmp_path / "keys.json"
    save_public_keys(pub, curve, keys)
    doc = json.loads(pub.read_text())
    assert [len(bytes.fromhex(e["y"])) for e in doc["keys"]] == [33, 33]
    # the uncompressed form is the same point; every hash re-encodes it
    # compressed, so the proofs still check
    for entry, key in zip(doc["keys"], keys):
        entry["y"] = curve.encode_wire(key.y).hex()
    pub.write_text(json.dumps(doc))
    _, pks = load_public_keys(pub)
    assert [p.y for p in pks] == [k.y for k in keys]
    assert all(key_verify(curve, p) for p in pks)


def test_key_file_over_the_key_cap_is_refused_before_any_decode(
        tmp_path, toy16, monkeypatch):
    assert schemes.MAX_KEYS == 2**20
    pub = tmp_path / "keys.json"
    save_public_keys(pub, toy16, derive_keys(toy16, 4, 31))
    decodes = []
    real_decode = group_mod.ToyGroup.decode_element
    monkeypatch.setattr(group_mod.ToyGroup, "decode_element",
                        lambda par, data: decodes.append(data)
                        or real_decode(par, data))
    monkeypatch.setattr(schemes, "MAX_KEYS", 3)
    with pytest.raises(IoError, match="lists 4 keys, more than 3"):
        load_public_keys(pub)
    assert decodes == []
    monkeypatch.setattr(schemes, "MAX_KEYS", 4)
    _, pks = load_public_keys(pub)
    assert len(pks) == len(decodes) == 4


def test_key_file_rejects_garbage(tmp_path, toy):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all {")
    with pytest.raises(IoError):
        load_public_keys(bad)
    bad.write_text(json.dumps({"schema": "something/else"}))
    with pytest.raises(IoError):
        load_public_keys(bad)
    # y outside the subgroup fails element validation on load
    doc = {"schema": "multisig/keys/v1", "group": toy.descriptor(),
           "keys": [{"y": "0005"}]}
    bad.write_text(json.dumps(doc))
    with pytest.raises(NotInGroup):
        load_public_keys(bad)
    with pytest.raises(IoError):
        load_secret_keys(bad)
    # a key file with no keys is unusable by every command
    doc["keys"] = []
    bad.write_text(json.dumps(doc))
    with pytest.raises(IoError, match="no keys"):
        load_public_keys(bad)
    # a crafted toy group fails before any primality test
    bad.write_text(json.dumps({
        "schema": "multisig/secrets/v1",
        "group": {"backend": "toy", "p": 23, "q": 29, "g": 2}, "sks": []}))
    with pytest.raises(IoError, match="q < p"):
        load_secret_keys(bad)


def test_signature_file_round_trip(tmp_path, toy):
    path = tmp_path / "sig.bin"
    sig = Signature(7, 6)
    write_signature(path, toy, sig)
    assert path.read_bytes() == bytes.fromhex("00070006")
    assert len(path.read_bytes()) == 2 * toy.scalar_len
    assert read_signature(path, toy) == sig
    path.write_bytes(b"\x00" * 5)
    with pytest.raises(BadLength):
        read_signature(path, toy)
    with pytest.raises(IoError):
        read_signature(tmp_path / "missing.bin", toy)
