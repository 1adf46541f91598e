"""Every payload of a tree run against a flat reference signer.

The reference sees each node's nonce and key pair, and the tree's shape
only through the BFS formula: node j's parent is (j - 1) // b.  It sums
each subtree's nonces, secret keys and responses as scalars and raises g1
to the sums by the slow paths, ``pow`` on the toy group and the ladder on
the curve.  So no point product and no comb table takes part, and every
commit, challenge and respond payload is checked, not only the root's.
"""

import pytest
from test_group import _exp_ladder

from multisig.hashing import H3, hash_to_scalar
from multisig.schemes import (
    SCHEMES,
    Signature,
    agms_offline,
    agms_online,
    challenge_hash,
    cosi_sign,
    derive_keys,
    gms_sign,
)
from multisig.tree import build_tree

M = b"flat reference"

# (n, fan-out, depth): the root alone, two chains, a full binary tree,
# and partial last levels at fan-outs 3 and 4
_GRID = [(1, 2, 0), (2, 1, 1), (4, 1, 3), (7, 2, 2), (11, 4, 2), (13, 3, 2)]


def _slow_exp(par, e: int):
    """g1^e without the comb: the ladder on the curve, ``pow`` on the toy."""
    if par.group_id == "secp256k1":
        return _exp_ladder(par.g1, e % par.q)
    return pow(par.g1, e % par.q, par.p)


def _subtrees(n: int, b: int) -> list:
    """Node j's subtree, for each j, from the parent formula alone."""
    members = [[j] for j in range(n)]
    for i in range(1, n):
        j = i
        while j:
            j = (j - 1) // b
            members[j].append(i)
    return members


def _sign(par, scheme, tree, keys, seed):
    """(the run, its whole transcript)."""
    if scheme == "agms":
        off = agms_offline(par, tree, keys, seed=seed)
        run = agms_online(par, off, M)
        return run, off.messages + run.messages
    sign = gms_sign if scheme == "gms" else cosi_sign
    run = sign(par, tree, keys, M, seed=seed)
    return run, run.messages


def _expected(par, scheme, n, b, vs, sks) -> tuple:
    """(the payload on every edge of every phase, keyed by (phase, src,
    dst), and the signature), from the nonces ``vs`` and keys ``sks``."""
    q, wire, scalar = par.q, par.encode_wire, par.encode_scalar
    subs = _subtrees(n, b)
    V = [_slow_exp(par, sum(vs[i] for i in sub)) for sub in subs]
    X = [_slow_exp(par, sum(sks[i] for i in sub)) for sub in subs]
    c = challenge_hash(par, scheme, V[0], X[0], M)
    if scheme == "cosi":
        own = [v + c * sk for v, sk in zip(vs, sks)]
    else:
        e = hash_to_scalar(par, H3, [M])
        own = [v * c - e * sk for v, sk in zip(vs, sks)]
    s = [sum(own[i] for i in sub) % q for sub in subs]
    down = scalar(c) + (wire(V[0]) if scheme == "cosi" else b"")
    payloads = {}
    for j in range(1, n):
        p = (j - 1) // b
        payloads["announce", p, j] = M
        payloads["commit", j, p] = wire(V[j]) + (
            wire(X[j]) if scheme == "agms" else b"")
        payloads["challenge", p, j] = down
        payloads["respond", j, p] = scalar(s[j])
    return payloads, Signature(c, s[0]), X[0]


@pytest.mark.parametrize("backend", ["curve", "toy16"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_payload_matches_the_flat_reference(request, backend, scheme,
                                                  shuffled_levels):
    par = request.getfixturevalue(backend)
    for n, b, depth in _GRID:
        keys = derive_keys(par, n, f"flat|{n}")
        sks = [k.sk for k in keys]
        plain = build_tree(n, b, depth)
        for tree in (plain, shuffled_levels(plain, n)):
            run, messages = _sign(par, scheme, tree, keys, f"flat|{n}|{b}")
            vs = [sess.v for sess in run.sessions]
            payloads, sig, X = _expected(par, scheme, n, b, vs, sks)
            assert len(messages) == 4 * (n - 1)
            assert {(m.phase, m.src, m.dst): m.payload
                    for m in messages} == payloads, (n, b)
            assert run.signature == sig and run.agg_key.X == X, (n, b)
