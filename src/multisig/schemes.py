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

All three run the same four tree rounds through one public step API —
``open_sessions``, ``announce``, ``commit``, ``challenge`` and ``respond``
— and one restart loop (fresh nonces while the challenge hashes to 0);
``challenge_hash`` is the one definition of c that signers, verifiers and
the attack demos share.  A session's scheme decides what each step does:
whether commit also aggregates keys (AGMS), whether challenge is checked
against H0(V~, m) (baseline), and the response shape.  Steps run over
``tree.run_phase`` so every byte on every edge lands in a transcript.
Per-node costs accrue on each session's OpCounter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    EmptySet,
    InternalError,
    IoError,
    MixedSessions,
    NonceReuse,
)
from .gamma import Signature
from .group import Group, OpCounter, derive_rng, group_from_descriptor
from .hashing import H0, H1, H2, H3, hash_to_scalar
from .tree import Phase, SimSchedule, Tree, run_phase

__all__ = [
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
]

_MAX_RESTARTS = 64


# ── keys ─────────────────────────────────────────────────────────────────────

@dataclass(frozen=True)
class KeyProof:
    """Possession proof (a, d) for a public key y.

    Binds knowledge of sk = log_g1(y) via d = r*a - b*sk with a = H1(g1, g1^r)
    and b = H2(y); checking recovers g1^r as (g1^d * y^b)^(1/a).
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


@dataclass(frozen=True)
class AggregateKey:
    X: object
    count: int


def keygen(par: Group, rng) -> KeyPair:
    """Key pair plus possession proof; resamples r if a lands on 0."""
    sk = par.random_scalar(rng)
    y = par.exp(par.g1, sk)
    g1b = par.encode_element(par.g1)
    b = hash_to_scalar(par, H2, [par.encode_element(y)])
    for _ in range(_MAX_RESTARTS):
        r = par.random_scalar(rng)
        a = hash_to_scalar(par, H1, [g1b, par.encode_element(par.exp(par.g1, r))])
        if a == 0:
            continue
        d = par.s_sub(par.s_mul(r, a), par.s_mul(b, sk))
        return KeyPair(sk, PublicKey(y, KeyProof(a, d)))
    raise InternalError("proof challenge stuck at zero")


def bare_keygen(par: Group, rng) -> KeyPair:
    """Key pair without possession proof — what the baseline scheme uses."""
    sk = par.random_scalar(rng)
    return KeyPair(sk, PublicKey(par.exp(par.g1, sk)))


def key_verify(par: Group, pk: PublicKey) -> bool:
    """Check the possession proof: three exponentiations, one multiplication."""
    if pk.proof is None:
        return False
    a, d = pk.proof.a, pk.proof.d
    if not (0 < a < par.q) or not (0 <= d < par.q):
        return False
    if not par.is_element(pk.y) or pk.y == par.identity:
        return False
    b = hash_to_scalar(par, H2, [par.encode_element(pk.y)])
    base = par.mul(par.exp(par.g1, d), par.exp(pk.y, b))
    V = par.exp(base, par.s_inv(a))
    g1b = par.encode_element(par.g1)
    return hash_to_scalar(par, H1, [g1b, par.encode_element(V)]) == a


def _pub_y(k):
    if isinstance(k, KeyPair):
        return k.public.y
    if isinstance(k, PublicKey):
        return k.y
    return k  # raw group element


def key_aggregate(par: Group, keys) -> AggregateKey:
    """X~ = product of all public keys.  Order-independent."""
    ys = [_pub_y(k) for k in keys]
    if not ys:
        raise EmptySet("cannot aggregate zero keys")
    X = ys[0]
    for y in ys[1:]:
        X = par.mul(X, y)
    return AggregateKey(X, len(ys))


def derive_keys(par: Group, n: int, seed) -> list[KeyPair]:
    """n proof-carrying key pairs from independent per-index RNG streams."""
    return [keygen(par, derive_rng(seed, "key", i)) for i in range(n)]


# ── signing sessions and phase steps ────────────────────────────────────────

@dataclass
class SigningSession:
    """Per-node state for one signature; nonces are strictly one-time."""

    scheme: str                 # "gms", "agms" or "cosi"
    node: int
    key: KeyPair
    v: int
    ops: OpCounter
    V_agg: object = None        # commitment aggregated over this node's subtree
    X_agg: object = None        # key aggregate over the subtree (AGMS)
    c: int | None = None
    vc: int | None = None       # v*c, fixed on receiving c (GMS/AGMS)
    m: bytes | None = None
    responded: bool = False


def open_sessions(par: Group, scheme: str, tree: Tree, keys, seed,
                  attempt: int = 0) -> list[SigningSession]:
    """One session per node; node i draws its nonce from (seed, attempt, i)."""
    if len(keys) != tree.n:
        raise MixedSessions(f"{len(keys)} keys for a {tree.n}-node tree")
    return [
        SigningSession(
            scheme=scheme,
            node=i,
            key=keys[i],
            v=par.random_scalar(derive_rng(seed, "v", attempt, i)),
            ops=OpCounter(f"node{i}"),
        )
        for i in range(tree.n)
    ]


def announce(tree: Tree, sessions, m: bytes,
             schedule: SimSchedule | None = None) -> list:
    """Top-down: every node learns the message."""
    def handler(node, payload):
        sessions[node].m = payload
        return payload

    return run_phase(tree, Phase.ANNOUNCE, handler, root_input=m,
                     schedule=schedule).messages


def commit(par: Group, tree: Tree, sessions,
           schedule: SimSchedule | None = None):
    """Bottom-up commitment aggregation; one exponentiation per node.

    AGMS payloads carry (V_agg, X_agg), so the key aggregate is computed by
    the same tree pass that aggregates commitments — no separate
    key-collection round.  Returns (V~, X~ or None, messages).
    """
    el = par.element_len
    aggregate_keys = sessions[0].scheme == "agms"

    def handler(node, child_payloads):
        sess = sessions[node]
        V_agg = par.exp(par.g1, sess.v, ops=sess.ops)
        X_agg = sess.key.public.y
        for _child, payload in child_payloads:
            V_agg = par.mul(V_agg, par.decode_element(payload[:el]), ops=sess.ops)
            if aggregate_keys:
                X_agg = par.mul(X_agg, par.decode_element(payload[el:]), ops=sess.ops)
        sess.V_agg = V_agg
        out = par.encode_element(V_agg)
        if aggregate_keys:
            sess.X_agg = X_agg
            out += par.encode_element(X_agg)
        return out

    messages = run_phase(tree, Phase.COMMIT, handler, schedule=schedule).messages
    return sessions[0].V_agg, sessions[0].X_agg, messages


def challenge_hash(par: Group, scheme: str, V_agg, X, m: bytes | None) -> int:
    """c = H0(V~, m) for the baseline, H0(g1, V~, X~) for GMS/AGMS."""
    Vb = par.encode_element(V_agg)
    if scheme == "cosi":
        return hash_to_scalar(par, H0, [Vb, m])
    return hash_to_scalar(par, H0, [par.encode_element(par.g1), Vb,
                                    par.encode_element(X)])


def challenge(par: Group, tree: Tree, sessions, c: int, V_ann,
              schedule: SimSchedule | None = None) -> list:
    """Top-down challenge distribution.

    Baseline nodes receive (c, V_ann) and refuse to continue unless
    c == H0(V_ann, m): the challenge must be a genuine hash of the
    aggregate the leader announces.  GMS/AGMS nodes receive c alone and fix
    v*c on arrival — their response shape is what the scheme's security
    leans on, not a per-node recomputation.
    """
    sl = par.scalar_len
    baseline = sessions[0].scheme == "cosi"
    payload = par.encode_scalar(c)
    if baseline:
        payload += par.encode_element(V_ann)

    def handler(node, data):
        sess = sessions[node]
        c = par.decode_scalar(data[:sl])
        if baseline:
            V = par.decode_element(data[sl:])
            if c != challenge_hash(par, "cosi", V, None, sess.m):
                raise ValueError("challenge does not match announced aggregate")
        else:
            sess.vc = par.s_mul(sess.v, c)
        sess.c = c
        return data

    return run_phase(tree, Phase.CHALLENGE, handler, root_input=payload,
                     schedule=schedule).messages


def respond(par: Group, tree: Tree, sessions,
            schedule: SimSchedule | None = None):
    """Bottom-up response aggregation: S~ = own response + children's.

    GMS/AGMS nodes respond v*c - e*sk with e = H3(m); baseline nodes
    respond v + c*sk.  Returns (S~, messages).
    """
    baseline = sessions[0].scheme == "cosi"

    def handler(node, child_payloads):
        sess = sessions[node]
        if sess.responded:
            raise NonceReuse(f"node {node} already released its response")
        sess.responded = True
        if sess.m is None or sess.c is None:
            raise MixedSessions(f"node {node} missing announce/challenge state")
        if baseline:
            s = par.s_add(sess.v, par.s_mul(sess.c, sess.key.sk))
        else:
            e = hash_to_scalar(par, H3, [sess.m])
            s = par.s_sub(sess.vc, par.s_mul(e, sess.key.sk))
        for _child, payload in child_payloads:
            s = par.s_add(s, par.decode_scalar(payload))
        return par.encode_scalar(s)

    res = run_phase(tree, Phase.RESPOND, handler, schedule=schedule)
    return par.decode_scalar(res.root_output), res.messages


# ── runs ─────────────────────────────────────────────────────────────────────

@dataclass
class SignRun:
    scheme: str
    signature: Signature
    agg_key: AggregateKey
    sessions: list
    attempts: int
    messages: list = field(default_factory=list)


@dataclass
class OfflineRun:
    """Everything before the responses: the AGMS precomputation output."""

    tree: Tree
    sessions: list
    agg_key: AggregateKey
    V_agg: object
    c: int
    attempts: int
    messages: list = field(default_factory=list)


def _restart_loop(par: Group, scheme: str, tree: Tree, keys, m: bytes | None,
                  seed, schedule) -> OfflineRun:
    """The rounds every scheme runs before responding.

    Opens sessions, announces m once (AGMS offline has no m yet), then
    commits and hashes the challenge, restarting with fresh nonces while
    c == 0, and finally distributes c.
    """
    agg = None if scheme == "agms" else key_aggregate(par, keys)
    messages: list = []
    for attempt in range(_MAX_RESTARTS):
        sessions = open_sessions(par, scheme, tree, keys, seed, attempt)
        if m is not None and attempt == 0:
            messages += announce(tree, sessions, m, schedule)
        elif m is not None:
            for sess in sessions:  # m is fixed across restarts; announce once
                sess.m = m
        V_agg, X_agg, msgs = commit(par, tree, sessions, schedule)
        messages += msgs
        if scheme == "agms":
            agg = AggregateKey(X_agg, tree.n)
        c = challenge_hash(par, scheme, V_agg, agg.X, m)
        if c == 0:
            continue
        messages += challenge(par, tree, sessions, c, V_agg, schedule)
        return OfflineRun(tree, sessions, agg, V_agg, c, attempt + 1, messages)
    raise InternalError("challenge stuck at zero across restarts")


def _sign(par: Group, scheme: str, tree: Tree, keys, m: bytes, seed,
          schedule) -> SignRun:
    """The restart loop with the message first, then the responses."""
    run = _restart_loop(par, scheme, tree, keys, m, seed, schedule)
    S, msgs = respond(par, tree, run.sessions, schedule)
    return SignRun(scheme, Signature(run.c, S), run.agg_key, run.sessions,
                   run.attempts, run.messages + msgs)


def gms_sign(par: Group, tree: Tree, keys, m: bytes, *, seed,
             schedule: SimSchedule | None = None) -> SignRun:
    """Four rounds, message first; the whole run is online."""
    return _sign(par, "gms", tree, keys, m, seed, schedule)


def agms_offline(par: Group, tree: Tree, keys, *, seed,
                 schedule: SimSchedule | None = None) -> OfflineRun:
    """Commitment + key aggregation and challenge distribution, no message.

    One exponentiation per signer; each node ends up holding c and v*c.
    """
    return _restart_loop(par, "agms", tree, keys, None, seed, schedule)


def agms_online(par: Group, offline: OfflineRun, m: bytes, *,
                schedule: SimSchedule | None = None) -> SignRun:
    """Announce m and aggregate responses: zero group operations anywhere."""
    sessions = offline.sessions
    for sess in sessions:
        if sess.scheme != "agms" or sess.c is None or sess.vc is None:
            raise MixedSessions(f"node {sess.node} lacks offline state")
        if sess.responded:
            raise NonceReuse(f"node {sess.node} already signed with this nonce")
    messages = announce(offline.tree, sessions, m, schedule)
    S, msgs = respond(par, offline.tree, sessions, schedule)
    return SignRun("agms", Signature(offline.c, S), offline.agg_key, sessions,
                   offline.attempts, messages + msgs)


def cosi_sign(par: Group, tree: Tree, keys, m: bytes, *, seed,
              schedule: SimSchedule | None = None) -> SignRun:
    """Baseline: c = H0(V~, m), additive responses, naive key aggregation."""
    return _sign(par, "cosi", tree, keys, m, seed, schedule)


# ── verification ─────────────────────────────────────────────────────────────

def _agg_x(X):
    return X.X if isinstance(X, AggregateKey) else X


def verify(par: Group, X, m: bytes, sig: Signature) -> bool:
    """GMS/AGMS verifier: V~ = (g1^S * X~^e)^(1/c), accept iff it re-hashes to c.

    Three exponentiations and one multiplication, independent of signer
    count — the verifier never learns how many keys are inside X~.
    """
    X = _agg_x(X)
    if not (0 < sig.c < par.q) or not (0 <= sig.s < par.q):
        return False
    e = hash_to_scalar(par, H3, [m])
    base = par.mul(par.exp(par.g1, sig.s), par.exp(X, e))
    V = par.exp(base, par.s_inv(sig.c))
    return challenge_hash(par, "agms", V, X, m) == sig.c


def cosi_verify(par: Group, X, m: bytes, sig: Signature) -> bool:
    """Baseline verifier: V~ = g1^S * X~^(-c), accept iff H0(V~, m) == c."""
    X = _agg_x(X)
    if not (0 < sig.c < par.q) or not (0 <= sig.s < par.q):
        return False
    V = par.mul(par.exp(par.g1, sig.s), par.exp(X, par.q - sig.c))
    return challenge_hash(par, "cosi", V, X, m) == sig.c


# ── key and signature files ──────────────────────────────────────────────────

_KEYS_SCHEMA = "multisig/keys/v1"
_SECRETS_SCHEMA = "multisig/secrets/v1"


def save_public_keys(path, par: Group, keys) -> None:
    entries = []
    for k in keys:
        pk = k.public if isinstance(k, KeyPair) else k
        entry = {"y": par.encode_element(pk.y).hex()}
        if pk.proof is not None:
            entry["a"] = par.encode_scalar(pk.proof.a).hex()
            entry["d"] = par.encode_scalar(pk.proof.d).hex()
        entries.append(entry)
    doc = {"schema": _KEYS_SCHEMA, "group": par.descriptor(), "keys": entries}
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def save_secret_keys(path, par: Group, keys) -> None:
    sks = [k.sk if isinstance(k, KeyPair) else k for k in keys]
    doc = {
        "schema": _SECRETS_SCHEMA,
        "group": par.descriptor(),
        "sks": [par.encode_scalar(sk).hex() for sk in sks],
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _load_doc(path, schema: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != schema:
        raise IoError(f"{path} is not a {schema} file")
    return doc


def load_public_keys(path) -> tuple[Group, list[PublicKey]]:
    """Rebuilds the group from the file header and validates every element;
    a file with no keys is an ``IoError``, since nothing can use it."""
    doc = _load_doc(path, _KEYS_SCHEMA)
    try:
        par = group_from_descriptor(doc["group"])
        out = []
        for entry in doc["keys"]:
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
    Path(path).write_bytes(sig.to_bytes(par))


def read_signature(path, par: Group) -> Signature:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return Signature.from_bytes(par, data)
