"""Tree-based multi-signatures: GMS, AGMS, and a CoSi-style baseline.

All three schemes aggregate one (c, S) pair over a signer tree and differ
in two load-bearing ways:

* Response shape.  GMS/AGMS use the precomputable-challenge response
  s_i = v_i*c - e*sk_i with e = H3(m), so the challenge c = H0(g1, V~, X~)
  never touches the message and can be fixed before m exists.  The
  baseline uses the classical s_i = v_i + c*sk_i with c = H0(V~, m).

* Key discipline.  GMS/AGMS keys carry a proof of possession (a, d) that
  verifiers check before aggregating, which kills rogue-key tricks.  The
  baseline aggregates whatever keys it is handed.

AGMS is GMS with the rounds reordered: commitment aggregation (which also
aggregates the public keys up the tree) and challenge distribution run
offline; announcing the message and aggregating responses run online with
zero group operations per node.  Given the same per-node nonces both
schemes emit byte-identical signatures, which the tests pin.

All three, named once in ``SCHEMES``, run the same four tree rounds
through one public step API — ``open_sessions``, ``announce``,
``commit``, ``challenge`` and ``respond`` — in one straight line: every
hash is a nonzero scalar, so a challenge never forces fresh nonces.
``challenge_hash`` is the one definition of c that signers, verifiers and
the attack demos share.  A session's scheme decides what each step does:
whether commit also aggregates keys (AGMS), whether challenge is checked
against H0(V~, m) (baseline), and the response shape.  Steps run over
``tree.run_phase`` so every byte on every edge lands in a transcript, and
carry only protocol state: a step is metered from outside, with
``Group.span()``.  Each session hears one message and one challenge and
answers once, so a run in which a node refused the challenge its parent
relayed cannot be finished: the caller opens new sessions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

from .errors import (
    BadLength,
    BadPayload,
    EmptySet,
    IoError,
    MixedSessions,
    MultisigError,
    NonceReuse,
)
from .gamma import Signature, recover_commitment
from .group import Group, derive_rng, group_from_descriptor
from .hashing import H0, H1, H2, H3, derive_nonces, hash_to_scalar
from .tree import Phase, Tree, run_phase

__all__ = [
    "SCHEMES",
    "MAX_KEYS",
    "KeyProof",
    "PublicKey",
    "KeyPair",
    "AggregateKey",
    "Signature",
    "SigningSession",
    "SignRun",
    "OfflineRun",
    "open_sessions",
    "announce",
    "commit",
    "challenge_hash",
    "challenge",
    "respond",
    "keygen",
    "bare_keygen",
    "prove_possession",
    "key_verify",
    "key_aggregate",
    "derive_keys",
    "gms_sign",
    "agms_offline",
    "agms_online",
    "cosi_sign",
    "verify",
    "cosi_verify",
    "save_public_keys",
    "save_secret_keys",
    "load_public_keys",
    "load_secret_keys",
    "write_signature",
    "read_signature",
    "write_file",
]

_NONCE_TAG = b"multisig/nonce"  # gamma tokens use their own tag

SCHEMES = ("gms", "agms", "cosi")  # the steps refuse any other name

# the most keys a key file may list, and the most any CLI count may ask
# for: a run holds O(N) state, and perfbench's N is at most 1024
MAX_KEYS = 2**20


# ── keys ─────────────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class KeyProof:
    """Possession proof (a, d) for a public key y.

    Binds knowledge of sk = log_g1(y) via d = r*a - b*sk with a = H1(g1, g1^r)
    and b = H2(y); checking recovers g1^r as g1^(d/a) * y^(b/a).
    """

    a: int
    d: int


@dataclass(frozen=True)
class PublicKey:
    y: object
    proof: KeyProof | None = None


@dataclass(frozen=True)
class KeyPair:
    sk: int
    public: PublicKey

    @property
    def y(self):
        return self.public.y


# A comb table takes ≈22 ms to build and saves ≈0.63 ms a check (≈0.17 ms
# against ≈0.8 ms for GLV), so it pays back after ≈35 checks on one key.
# Only a long-running verifier makes 3 or more: perfbench's held
# ``SignState.agg`` (≈1.1 checks per operation).  Endorsement keys see 2
# checks, and ``verify`` and ``bench`` 1 per key.  At 16 the held key gets
# its table early in each sign-curve-64 run; moving the threshold moves
# that build, which the run's verify_ms.p90 can show.
_COMB_AFTER_CHECKS = 16


@dataclass
class AggregateKey:
    """X~, with the checks made against it and, from the 16th, the
    ``fixed_base`` verifiers raise; neither takes part in equality."""

    X: object
    checks: int = field(default=0, init=False, compare=False, repr=False)
    base: object = field(default=None, init=False, compare=False, repr=False)


def keygen(par: Group, rng) -> KeyPair:
    """Key pair plus possession proof."""
    key = bare_keygen(par, rng)
    proof = prove_possession(par, key.sk, key.y, rng)
    return KeyPair(key.sk, PublicKey(key.y, proof))


def bare_keygen(par: Group, rng) -> KeyPair:
    """Key pair without possession proof: the key draw of all four schemes."""
    sk = par.random_scalar(rng)
    return KeyPair(sk, PublicKey(par.exp(par.g1, sk)))


def prove_possession(par: Group, sk: int, y, rng) -> KeyProof:
    """One proof draw: a = H1(g1, g1^r), d = r*a - H2(y)*sk for one fresh r.

    It checks only if sk = log_g1(y); the rogue-key demo passes an sk that
    is not y's discrete log.
    """
    r = par.random_scalar(rng)
    a = hash_to_scalar(par, H1, [par.encode_element(par.g1),
                                 par.encode_element(par.exp(par.g1, r))])
    b = hash_to_scalar(par, H2, [par.encode_element(y)])
    return KeyProof(a, (r * a - b * sk) % par.q)


def key_verify(par: Group, pk: PublicKey) -> bool:
    """Check the possession proof: two exponentiations, one multiplication."""
    if pk.proof is None:
        return False
    a, d = pk.proof.a, pk.proof.d
    if not (0 < a < par.q) or not (0 <= d < par.q):
        return False
    if not par.is_element(pk.y) or pk.y == par.identity:
        return False
    b = hash_to_scalar(par, H2, [par.encode_element(pk.y)])
    V = recover_commitment(par, d, pk.y, b, a)
    g1b = par.encode_element(par.g1)
    return hash_to_scalar(par, H1, [g1b, par.encode_element(V)]) == a


def key_aggregate(par: Group, keys) -> AggregateKey:
    """X~ = product of all public keys.  Order-independent."""
    ys = [k.y for k in keys]
    if not ys:
        raise EmptySet("cannot aggregate zero keys")
    X = ys[0]
    for y in ys[1:]:
        X = par.mul(X, y)
    return AggregateKey(X)


def derive_keys(par: Group, n: int, seed) -> list[KeyPair]:
    """n proof-carrying key pairs from independent per-index RNG streams."""
    return [keygen(par, derive_rng(seed, "key", i)) for i in range(n)]


# ── signing sessions and phase steps ────────────────────────────────────────

@dataclass(slots=True)
class SigningSession:
    """Per-node state for one signature; nonces are strictly one-time."""

    scheme: str                 # one of SCHEMES
    node: int
    key: KeyPair
    v: int
    c: int | None = None
    vc: int | None = None       # v*c, fixed with c (CoSi's response ignores it)
    m: bytes | None = None
    responded: bool = False


def open_sessions(par: Group, scheme: str, tree: Tree, keys,
                  seed) -> list[SigningSession]:
    """One session per node, each with a fresh nonce bound to its secret key.

    Node i's nonce is ``derive_nonces`` over (seed, i, sk_i), so the
    seed alone cannot unwind a signature into the aggregate secret key.  One
    seed must never sign two messages; callers that publish signatures pass
    a fresh random seed.  A scheme not in ``SCHEMES`` is a ValueError.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if len(keys) != tree.n:
        raise MixedSessions(f"{len(keys)} keys for a {tree.n}-node tree")
    vs = derive_nonces(par, _NONCE_TAG, seed, [k.sk for k in keys])
    return [SigningSession(scheme, i, key, v)
            for i, (key, v) in enumerate(zip(keys, vs))]


def _check_sessions(sessions, writes: str) -> None:
    """Before a step that writes ``writes`` runs any node: a spent session
    is ``NonceReuse``; one that holds that field, or would respond without
    m or c, is ``MixedSessions``."""
    for sess in sessions:
        if sess.responded:
            raise NonceReuse(f"node {sess.node} already released its response")
        if writes == "responded":
            if sess.m is None or sess.c is None:
                raise MixedSessions(f"node {sess.node} missing announce/challenge state")
        elif getattr(sess, writes) is not None:
            raise MixedSessions(f"node {sess.node} already holds {writes}")


def announce(tree: Tree, sessions, m: bytes) -> list:
    """Top-down: every node learns the message, once."""
    _check_sessions(sessions, "m")

    def handler(node, payload):
        sessions[node].m = payload
        return payload

    return run_phase(tree, Phase.ANNOUNCE, handler, root_input=m).messages


def commit(par: Group, tree: Tree, sessions):
    """Bottom-up commitment aggregation; one exponentiation per node.

    AGMS payloads carry (V_agg, X_agg), so the key aggregate is computed by
    the same tree pass that aggregates commitments — no separate
    key-collection round.  A payload is ``encode_wire(V_agg)``, then for
    AGMS ``encode_wire(X_agg)``: ``wire_len`` bytes each, 65 on the curve
    (uncompressed, no square root to decode).  ``run_phase`` reads each
    child's payload with ``read``, so a payload of any other length, or
    one that does not decode, is a ``BadPayload`` naming the child that
    sent it.  Returns (V~, X~ or None, messages).
    """
    wl, g1 = par.wire_len, par.g1
    exp, mul, decode, encode = par.exp, par.mul, par.decode_element, par.encode_wire
    aggregate_keys = sessions[0].scheme == "agms"
    size = 2 * wl if aggregate_keys else wl
    V_agg = X_agg = None

    def read(payload):
        if len(payload) != size:
            raise BadLength(f"commit payload must be {size} bytes, "
                            f"got {len(payload)}")
        if aggregate_keys:
            return decode(payload[:wl]), decode(payload[wl:])
        return decode(payload), None

    def handler(node, child_aggregates):
        nonlocal V_agg, X_agg
        sess = sessions[node]
        V_agg = exp(g1, sess.v)
        X_agg = sess.key.public.y
        for V, X in child_aggregates:
            V_agg = mul(V_agg, V)
            if aggregate_keys:
                X_agg = mul(X_agg, X)
        out = encode(V_agg)
        if aggregate_keys:
            out += encode(X_agg)
        return out

    messages = run_phase(tree, Phase.COMMIT, handler, read=read).messages
    # the root's handler runs last, so its aggregates are what is left
    return V_agg, X_agg if aggregate_keys else None, messages


def challenge_hash(par: Group, scheme: str, V_agg, X, m: bytes | None) -> int:
    """c = H0(V~, m) for "cosi", H0(g1, V~, X~) for "gms" and "agms"."""
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    Vb = par.encode_element(V_agg)
    if scheme == "cosi":
        return hash_to_scalar(par, H0, [Vb, m])
    return hash_to_scalar(par, H0, [par.encode_element(par.g1), Vb,
                                    par.encode_element(X)])


def challenge(par: Group, tree: Tree, sessions, c: int, V_ann) -> list:
    """Top-down challenge distribution, once per session.

    Every node reads c from the payload's first ``scalar_len`` bytes and
    fixes c and v*c (the baseline's response ignores v*c).  Baseline nodes
    also read V_ann after c and refuse to continue unless c == H0(V_ann, m):
    the challenge must hash the aggregate the leader announces.  Every node
    refuses c = 0, which no hash yields: under it a GMS/AGMS response is
    -e*sk_i, the key itself.  A payload of another length than the root's,
    one that does not decode, a c of 0 and a baseline c that is not
    H0(V_ann, m) are each a ``BadPayload`` naming the parent that sent it
    (``None`` at the root, whose input is the caller's).
    """
    _check_sessions(sessions, "c")
    sl, q, baseline = par.scalar_len, par.q, sessions[0].scheme == "cosi"
    payload = par.encode_scalar(c)
    if baseline:
        payload += par.encode_wire(V_ann)

    def handler(node, data):
        sess = sessions[node]
        try:
            if len(data) != len(payload):
                raise BadLength(f"challenge payload must be {len(payload)} "
                                f"bytes, got {len(data)}")
            c = par.decode_scalar(data[:sl])
            if c == 0:
                raise ValueError("challenge is 0")
            if baseline and c != challenge_hash(
                    par, "cosi", par.decode_element(data[sl:]), None, sess.m):
                raise ValueError("challenge does not match announced aggregate")
        except (MultisigError, ValueError) as exc:
            raise BadPayload(tree.parent[node], exc) from exc
        sess.c, sess.vc = c, sess.v * c % q
        return data

    return run_phase(tree, Phase.CHALLENGE, handler, root_input=payload).messages


def respond(par: Group, tree: Tree, sessions):
    """Bottom-up response aggregation: S~ = own response + children's.

    GMS/AGMS nodes respond v*c - e*sk with e = H3(m); baseline nodes
    respond v + c*sk.  Returns (S~, messages).  The one place a session is
    spent: a spent session, or one without m or c, is refused before any
    node answers, and then no session is spent.  ``run_phase`` decodes
    each child's payload, so one that does not decode is a ``BadPayload``
    naming that child.
    """
    _check_sessions(sessions, "responded")
    baseline = sessions[0].scheme == "cosi"
    encode_scalar = par.encode_scalar

    def handler(node, child_sums):
        sess = sessions[node]
        sess.responded = True
        if baseline:
            s = sess.v + sess.c * sess.key.sk
        else:
            s = sess.vc - hash_to_scalar(par, H3, [sess.m]) * sess.key.sk
        for child_s in child_sums:
            s += child_s
        return encode_scalar(s)     # reduces the sum mod q

    res = run_phase(tree, Phase.RESPOND, handler, read=par.decode_scalar)
    return par.decode_scalar(res.root_output), res.messages


# ── runs ─────────────────────────────────────────────────────────────────────

@dataclass
class SignRun:
    signature: Signature
    agg_key: AggregateKey
    sessions: list
    messages: list = field(default_factory=list)


@dataclass
class OfflineRun:
    """Everything before the responses: the AGMS precomputation output."""

    tree: Tree
    sessions: list
    agg_key: AggregateKey
    c: int
    messages: list = field(default_factory=list)
    attempts: ClassVar[int] = 1  # nothing restarts; perfbench/ reads it


def _rounds_before_respond(par: Group, scheme: str, tree: Tree, keys,
                           m: bytes | None, seed) -> OfflineRun:
    """Open sessions, announce m (AGMS offline has no m yet), commit (AGMS's
    also aggregates the keys), hash the challenge and distribute it.
    Nothing restarts: no challenge is 0."""
    sessions = open_sessions(par, scheme, tree, keys, seed)
    messages = announce(tree, sessions, m) if m is not None else []
    V_agg, X_agg, msgs = commit(par, tree, sessions)
    messages += msgs
    agg = AggregateKey(X_agg) if scheme == "agms" else key_aggregate(par, keys)
    c = challenge_hash(par, scheme, V_agg, agg.X, m)
    messages += challenge(par, tree, sessions, c, V_agg)
    return OfflineRun(tree, sessions, agg, c, messages)


def _sign(par: Group, scheme: str, tree: Tree, keys, m: bytes, seed) -> SignRun:
    """The rounds before responding, message first, then the responses."""
    run = _rounds_before_respond(par, scheme, tree, keys, m, seed)
    S, msgs = respond(par, tree, run.sessions)
    return SignRun(Signature(run.c, S), run.agg_key, run.sessions,
                   run.messages + msgs)


def gms_sign(par: Group, tree: Tree, keys, m: bytes, *, seed) -> SignRun:
    """Four rounds, message first; the whole run is online."""
    return _sign(par, "gms", tree, keys, m, seed)


def agms_offline(par: Group, tree: Tree, keys, *, seed) -> OfflineRun:
    """Commitment + key aggregation and challenge distribution, no message.

    One exponentiation per signer; each node ends up holding c and v*c.
    """
    return _rounds_before_respond(par, "agms", tree, keys, None, seed)


def agms_online(par: Group, offline: OfflineRun, m: bytes) -> SignRun:
    """Announce m and aggregate responses: zero group operations anywhere.
    Sessions that are not AGMS or lack ``offline.c``, and those ``announce``
    refuses (spent or announced), are refused before m is sent, so a
    refused call leaves every session as it was."""
    sessions = offline.sessions
    for sess in sessions:
        if sess.scheme != "agms":
            raise MixedSessions(f"node {sess.node} holds a {sess.scheme} session")
        if sess.c != offline.c:
            raise MixedSessions(f"node {sess.node} lacks the offline challenge")
    messages = announce(offline.tree, sessions, m)
    S, msgs = respond(par, offline.tree, sessions)
    return SignRun(Signature(offline.c, S), offline.agg_key, sessions,
                   messages + msgs)


def cosi_sign(par: Group, tree: Tree, keys, m: bytes, *, seed) -> SignRun:
    """Baseline: c = H0(V~, m), additive responses, naive key aggregation."""
    return _sign(par, "cosi", tree, keys, m, seed)


# ── verification ─────────────────────────────────────────────────────────────

def _verify_base(par: Group, X):
    """(X~, the base to raise): a raw point is its own base; an
    ``AggregateKey`` counts the check and gets its base on the 16th."""
    if not isinstance(X, AggregateKey):
        return X, X
    X.checks += 1
    if X.checks == _COMB_AFTER_CHECKS:
        X.base = par.fixed_base(X.X)
    return X.X, X.X if X.base is None else X.base


def verify(par: Group, X, m: bytes, sig: Signature) -> bool:
    """GMS/AGMS verifier: V~ = (g1^S * X~^e)^(1/c), accept iff it re-hashes to c.

    Three exponentiations and one multiplication, independent of signer
    count — the verifier never learns how many keys are inside X~.
    """
    X, base = _verify_base(par, X)
    if not (0 < sig.c < par.q) or not (0 <= sig.s < par.q):
        return False
    e = hash_to_scalar(par, H3, [m])
    # Literal form: perfbench's expected_group_ops and test_smoke pin
    # exp_var == 2 here; ROADMAP item 7a moves both to recover_commitment.
    V = par.exp(par.mul(par.exp(par.g1, sig.s), par.exp(base, e)), par.s_inv(sig.c))
    return challenge_hash(par, "agms", V, X, m) == sig.c


def cosi_verify(par: Group, X, m: bytes, sig: Signature) -> bool:
    """Baseline verifier: V~ = g1^S * X~^(-c), accept iff H0(V~, m) == c."""
    X, base = _verify_base(par, X)
    if not (0 < sig.c < par.q) or not (0 <= sig.s < par.q):
        return False
    V = par.mul(par.exp(par.g1, sig.s), par.exp(base, par.q - sig.c))
    return challenge_hash(par, "cosi", V, X, m) == sig.c


# ── key and signature files ──────────────────────────────────────────────────

_KEYS_SCHEMA = "multisig/keys/v1"
_SECRETS_SCHEMA = "multisig/secrets/v1"


def write_file(path, data: bytes | str) -> None:
    """Write ``data`` (text as UTF-8) to ``path``; an unwritable path is an
    ``IoError``, like an unreadable one."""
    if isinstance(data, str):
        data = data.encode()
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def save_public_keys(path, par: Group, keys) -> None:
    entries = []
    for pk in [k.public for k in keys]:
        entry = {"y": par.encode_element(pk.y).hex()}
        if pk.proof is not None:
            entry["a"] = par.encode_scalar(pk.proof.a).hex()
            entry["d"] = par.encode_scalar(pk.proof.d).hex()
        entries.append(entry)
    doc = {"schema": _KEYS_SCHEMA, "group": par.descriptor(), "keys": entries}
    write_file(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def save_secret_keys(path, par: Group, keys) -> None:
    doc = {
        "schema": _SECRETS_SCHEMA,
        "group": par.descriptor(),
        "sks": [par.encode_scalar(k.sk).hex() for k in keys],
    }
    write_file(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load_doc(path, schema: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # too deeply nested
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        raise IoError(f"{path} is not a {schema} file")
    return doc


def load_public_keys(path) -> tuple[Group, list[PublicKey]]:
    """Rebuilds the group from the file header and validates every element;
    a file with no keys is an ``IoError``, since nothing can use it, and
    so is one with more than ``MAX_KEYS``, before any key is decoded."""
    doc = _load_doc(path, _KEYS_SCHEMA)
    try:
        par = group_from_descriptor(doc["group"])
        entries = doc["keys"]
        if len(entries) > MAX_KEYS:
            raise IoError(f"key file {path} lists {len(entries)} keys, "
                          f"more than {MAX_KEYS}")
        out = []
        for entry in entries:
            y = par.decode_element(bytes.fromhex(entry["y"]))
            proof = None
            if "a" in entry:
                proof = KeyProof(
                    par.decode_scalar(bytes.fromhex(entry["a"])),
                    par.decode_scalar(bytes.fromhex(entry["d"])),
                )
            out.append(PublicKey(y, proof))
    except (KeyError, TypeError, ValueError) as exc:
        raise IoError(f"malformed key file {path}: {exc}") from exc
    if not out:
        raise IoError(f"key file {path} holds no keys")
    return par, out


def load_secret_keys(path) -> tuple[Group, list[int]]:
    doc = _load_doc(path, _SECRETS_SCHEMA)
    try:
        par = group_from_descriptor(doc["group"])
        sks = [par.decode_scalar(bytes.fromhex(h)) for h in doc["sks"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise IoError(f"malformed secret file {path}: {exc}") from exc
    return par, sks


def write_signature(path, par: Group, sig: Signature) -> None:
    write_file(path, sig.to_bytes(par))


def read_signature(path, par: Group) -> Signature:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return Signature.from_bytes(par, data)
