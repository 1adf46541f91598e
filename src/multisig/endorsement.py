"""Endorsement-flow simulation: one aggregated endorsement vs N signatures.

Models a permissioned-ledger transaction lifecycle with an AND-of-N
endorsement policy and measures each step of two flows:

revised   The endorsers pre-synchronize offline (commitment aggregation,
          distributed key aggregation, challenge distribution — step 1),
          then endorse a proposal online with zero group operations per
          endorser; the client submits one constant-size joint signature,
          and block validation verifies exactly once no matter how many
          endorsers signed.

default   Every endorser signs individually (single-signer scheme standing
          in for certificate-based signatures); endorsement material and
          validation work both grow linearly in the endorser count.

Keys enter a registry before any flow runs: the revised registry admits a
key only when its possession proof verifies; the default registry mirrors
a classic CA and stores what it is given.  Each timed step runs inside
one ``Group.span()``, so its wall time and exponentiation count come from
the backend's counters and measure the code the protocols actually run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from . import gamma
from .errors import InvalidClient, PolicyUnsatisfied
from .group import Group, derive_rng
from .schemes import (
    agms_offline,
    announce,
    derive_keys,
    key_verify,
    respond,
    verify,
)
from .tree import build_tree, min_branching

__all__ = [
    "StepMetrics",
    "TransactionRecord",
    "KeyRegistry",
    "chaincode_stub",
    "run_revised_flow",
    "run_default_flow",
    "FlowComparison",
    "compare_flows",
    "CSV_HEADER",
]

CSV_HEADER = ["flow", "n_endorsers", "step", "wall_ns", "exp_count",
              "verify_calls", "bytes"]


@dataclass(frozen=True)
class StepMetrics:
    step: int
    name: str
    wall_ns: int
    exp_count: int
    verify_calls: int
    bytes_moved: int


@dataclass
class TransactionRecord:
    flow: str
    n_endorsers: int
    signature_bytes: int
    accepted: bool
    signature_hex: str = ""
    steps: list = field(default_factory=list)

    def step7_verify_calls(self) -> int:
        return sum(s.verify_calls for s in self.steps if s.step == 7)

    def to_json_dict(self, include_timing: bool = True) -> dict:
        return {
            "flow": self.flow,
            "n_endorsers": self.n_endorsers,
            "signature_bytes": self.signature_bytes,
            "signature_hex": self.signature_hex,
            "accepted": self.accepted,
            "steps": [
                {
                    "step": s.step,
                    "name": s.name,
                    "wall_ns": s.wall_ns if include_timing else None,
                    "exp_count": s.exp_count,
                    "verify_calls": s.verify_calls,
                    "bytes": s.bytes_moved,
                }
                for s in self.steps
            ],
        }


class KeyRegistry:
    """Membership authority for public keys.

    ``require_proof=True`` is the revised discipline: a key is admitted
    only if its possession proof checks out.  ``require_proof=False``
    mirrors a legacy registry that records whatever it is handed.
    """

    def __init__(self, par: Group, require_proof: bool = True):
        self.par = par
        self.require_proof = require_proof
        self._members: set[bytes] = set()

    def register(self, pk) -> bool:
        y = pk.y if hasattr(pk, "y") else pk
        if self.require_proof:
            public = pk.public if hasattr(pk, "public") else pk
            if not key_verify(self.par, public):
                return False
        self._members.add(self.par.encode_element(y))
        return True

    def is_registered(self, pk) -> bool:
        y = pk.y if hasattr(pk, "y") else pk
        return self.par.encode_element(y) in self._members


def chaincode_stub(proposal: bytes) -> bytes:
    """Stand-in for chaincode execution: a deterministic read/write set."""
    return hashlib.sha256(b"rwset|" + proposal).digest()


def _payload_bytes(messages) -> int:
    return sum(len(m.payload) for m in messages)


def run_revised_flow(par: Group, n_endorsers: int, proposal: bytes, *, seed=0,
                     branching: int | None = None, depth: int = 3,
                     tamper_block: bool = False,
                     failing_endorsers=()) -> TransactionRecord:
    """Aggregated endorsement: offline sync, zero-exponentiation endorsing,
    one constant-size signature through ordering and validation."""
    if branching is None:
        branching = min_branching(n_endorsers, depth)
    tree = build_tree(n_endorsers, branching, depth)
    endorser_keys = derive_keys(par, n_endorsers, f"{seed}|endorser")
    client_key = derive_keys(par, 1, f"{seed}|client")[0]
    registry = KeyRegistry(par, require_proof=True)
    for k in endorser_keys:
        if not registry.register(k):
            raise PolicyUnsatisfied("endorser key failed possession check")
    if not registry.register(client_key):
        raise InvalidClient("client key failed possession check")

    rec = TransactionRecord("revised", n_endorsers,
                            signature_bytes=2 * par.scalar_len, accepted=False)

    # Step 1 — synchronization: commitment + key aggregation, challenge out.
    # The nonce seed names n: endorser i keeps its key at every n, and the
    # same nonce under a different c would give the key away.
    with par.span() as sp:
        offline = agms_offline(par, tree, endorser_keys,
                               seed=f"{seed}|n{n_endorsers}")
    rec.steps.append(StepMetrics(1, "synchronize", sp.wall_ns, sp.exponentiations,
                                 0, _payload_bytes(offline.messages)))

    # Step 2 — proposal: client -> leader -> every endorser.
    with par.span() as sp:
        msgs = announce(tree, offline.sessions, proposal)
    rec.steps.append(StepMetrics(2, "proposal", sp.wall_ns, sp.exponentiations,
                                 0, len(proposal) + _payload_bytes(msgs)))

    # Step 3 — endorse: check the client, run chaincode, release responses.
    with par.span() as sp:
        failing = set(failing_endorsers)
        for sess in offline.sessions:
            if sess.node in failing:
                raise PolicyUnsatisfied(
                    f"endorser {sess.node} refused; AND policy needs all "
                    f"{n_endorsers}"
                )
            if not registry.is_registered(client_key):
                raise InvalidClient("unknown client")
            chaincode_stub(proposal)
        s_value, msgs = respond(par, tree, offline.sessions)
    rec.steps.append(StepMetrics(3, "endorse", sp.wall_ns, sp.exponentiations,
                                 0, _payload_bytes(msgs)))
    signature = gamma.Signature(offline.c, s_value)
    sig_bytes = signature.to_bytes(par)
    rec.signature_hex = sig_bytes.hex()

    # Step 4 — deliver the joint endorsement to the client.
    rec.steps.append(StepMetrics(4, "collect", 0, 0, 0, len(sig_bytes)))

    # Step 5 — client verifies once, then submits the transaction.
    with par.span() as sp:
        ok = verify(par, offline.agg_key, proposal, signature)
    if not ok:
        raise PolicyUnsatisfied("joint endorsement failed client-side check")
    tx = proposal + sig_bytes
    rec.steps.append(StepMetrics(5, "submit", sp.wall_ns, sp.exponentiations,
                                 1, len(tx)))

    # Step 6 — ordering: the transaction is placed into a block.
    with par.span() as sp:
        block = b"block|" + tx
    rec.steps.append(StepMetrics(6, "order", sp.wall_ns, sp.exponentiations,
                                 0, len(block)))

    if tamper_block:
        # flip the first payload byte after the block header
        block = block[:6] + bytes([block[6] ^ 0x01]) + block[7:]

    # Step 7 — validation: one verification regardless of endorser count.
    body = block[len(b"block|"):]
    m7, sig7 = body[: -len(sig_bytes)], body[-len(sig_bytes):]
    with par.span() as sp:
        ok = verify(par, offline.agg_key, m7,
                    gamma.Signature.from_bytes(par, sig7))
    rec.steps.append(StepMetrics(7, "validate", sp.wall_ns, sp.exponentiations,
                                 1, len(block)))
    rec.accepted = ok
    return rec


def run_default_flow(par: Group, n_endorsers: int, proposal: bytes, *, seed=0,
                     tamper_block: bool = False,
                     failing_endorsers=()) -> TransactionRecord:
    """Per-endorser signatures: no synchronization step, linear growth."""
    if n_endorsers < 1:
        raise ValueError("an AND policy needs at least one endorser")
    endorser_keys = [
        gamma.keygen(par, derive_rng(seed, "default-endorser", i))
        for i in range(n_endorsers)
    ]
    client_key = gamma.keygen(par, derive_rng(seed, "default-client"))
    registry = KeyRegistry(par, require_proof=False)
    for k in endorser_keys:
        registry.register(k)
    registry.register(client_key)

    sig_len = 2 * par.scalar_len
    rec = TransactionRecord("default", n_endorsers,
                            signature_bytes=n_endorsers * sig_len,
                            accepted=False)

    # Step 2 — proposal goes to every endorser individually.
    rec.steps.append(StepMetrics(2, "proposal", 0, 0, 0,
                                 n_endorsers * len(proposal)))

    # Step 3 — each endorser checks the client, runs chaincode, signs.
    with par.span() as sp:
        failing = set(failing_endorsers)
        sigs = []
        for i, key in enumerate(endorser_keys):
            if i in failing:
                raise PolicyUnsatisfied(
                    f"endorser {i} refused; AND policy needs all {n_endorsers}"
                )
            if not registry.is_registered(client_key):
                raise InvalidClient("unknown client")
            chaincode_stub(proposal)
            nonce = gamma.precompute(par, key, derive_rng(seed, "nonce", i))
            sigs.append(gamma.sign_online(par, key, nonce, proposal))
    rec.steps.append(StepMetrics(3, "endorse", sp.wall_ns, sp.exponentiations,
                                 0, 0))

    # Step 4 — endorsers return signatures; client checks each one.
    with par.span() as sp:
        for sig, key in zip(sigs, endorser_keys):
            if not gamma.verify(par, key.y, proposal, sig):
                raise PolicyUnsatisfied("endorsement failed client-side check")
    rec.steps.append(StepMetrics(4, "collect", sp.wall_ns, sp.exponentiations,
                                 n_endorsers, n_endorsers * sig_len))

    # Step 5 — submit proposal plus the whole endorsement set.
    sig_blob = b"".join(sig.to_bytes(par) for sig in sigs)
    rec.signature_hex = sig_blob.hex()
    tx = proposal + sig_blob
    rec.steps.append(StepMetrics(5, "submit", 0, 0, 0, len(tx)))

    # Step 6 — ordering.
    block = b"block|" + tx
    rec.steps.append(StepMetrics(6, "order", 0, 0, 0, len(block)))

    if tamper_block:
        block = block[:6] + bytes([block[6] ^ 0x01]) + block[7:]

    # Step 7 — validation re-verifies every endorser's signature.
    body = block[len(b"block|"):]
    m7, blob7 = body[: -len(sig_blob)], body[-len(sig_blob):]

    with par.span() as sp:
        ok = True
        for i, key in enumerate(endorser_keys):
            chunk = blob7[i * sig_len: (i + 1) * sig_len]
            ok &= gamma.verify(par, key.y, m7,
                               gamma.Signature.from_bytes(par, chunk))
    rec.steps.append(StepMetrics(7, "validate", sp.wall_ns, sp.exponentiations,
                                 n_endorsers, len(block)))
    rec.accepted = ok
    return rec


@dataclass
class FlowComparison:
    records: list

    def csv_rows(self, include_timing: bool = True) -> list:
        rows = [list(CSV_HEADER)]
        for rec in self.records:
            for s in rec.steps:
                rows.append([
                    rec.flow,
                    rec.n_endorsers,
                    s.step,
                    s.wall_ns if include_timing else "",
                    s.exp_count,
                    s.verify_calls,
                    s.bytes_moved,
                ])
        return rows

    def to_json_dict(self, include_timing: bool = True) -> dict:
        return {
            "schema": "multisig/endorsement/v1",
            "records": [r.to_json_dict(include_timing) for r in self.records],
        }


def compare_flows(par: Group, n_list, proposal: bytes, *, seed=0,
                  depth: int = 3) -> FlowComparison:
    """Both flows at every endorser count: 2*len(n_list) records."""
    records = []
    for n in n_list:
        records.append(run_revised_flow(par, n, proposal, seed=seed, depth=depth))
        records.append(run_default_flow(par, n, proposal, seed=seed))
    return FlowComparison(records)
