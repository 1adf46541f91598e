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

The revised flow first checks the possession proof of every endorser key
and of the client key.  Both flows share step 3's chaincode loop and
steps 6–7 (ordering, validation).  Each timed step runs inside one
``Group.span()``, so its wall time and exponentiation count come from the
backend's counters and measure the code the protocols actually run.
Keys and nonces derive from a ``seed`` every caller must name: two
proposals signed on one seed share nonces and give the keys away.
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
    bare_keygen,
    derive_keys,
    key_verify,
    respond,
    verify,
)
from .tree import build_tree, min_branching

__all__ = [
    "StepMetrics",
    "TransactionRecord",
    "chaincode_stub",
    "run_revised_flow",
    "run_default_flow",
    "run_flows",
]


@dataclass(frozen=True)
class StepMetrics:
    step: int
    name: str
    wall_ns: int
    exp_count: int
    verify_calls: int
    bytes: int


@dataclass
class TransactionRecord:
    """One flow at one endorser count; ``dataclasses.asdict`` of it is the
    record ``multisig endorse`` writes as JSON."""

    flow: str
    n_endorsers: int
    signature_bytes: int
    accepted: bool
    signature_hex: str = ""
    steps: list = field(default_factory=list)

    def step7_verify_calls(self) -> int:
        return sum(s.verify_calls for s in self.steps if s.step == 7)


def chaincode_stub(proposal: bytes) -> bytes:
    """Stand-in for chaincode execution: a deterministic read/write set."""
    return hashlib.sha256(b"rwset|" + proposal).digest()


def _payload_bytes(messages) -> int:
    return sum(len(m.payload) for m in messages)


def _execute(n_endorsers: int, proposal: bytes, failing_endorsers) -> None:
    """Step 3 before anyone signs: an endorser in ``failing_endorsers``
    refuses, which fails the AND policy; every other runs the chaincode."""
    failing = set(failing_endorsers)
    for i in range(n_endorsers):
        if i in failing:
            raise PolicyUnsatisfied(
                f"endorser {i} refused; AND policy needs all {n_endorsers}")
        chaincode_stub(proposal)


def _order_and_validate(par: Group, rec: TransactionRecord, proposal: bytes,
                        endorsement: bytes, tamper_block: bool, validate,
                        verify_calls: int) -> TransactionRecord:
    """Steps 6–7: order ``proposal ‖ endorsement`` into a block, optionally
    flip its first payload byte, split it again and record whether
    ``validate(message, endorsement)`` accepts it."""
    with par.span() as sp:
        block = b"block|" + proposal + endorsement
    rec.steps.append(StepMetrics(6, "order", sp.wall_ns, sp.exponentiations,
                                 0, len(block)))
    if tamper_block:
        block = block[:6] + bytes([block[6] ^ 0x01]) + block[7:]
    cut = len(block) - len(endorsement)
    with par.span() as sp:
        ok = validate(block[len(b"block|"):cut], block[cut:])
    rec.steps.append(StepMetrics(7, "validate", sp.wall_ns, sp.exponentiations,
                                 verify_calls, len(block)))
    rec.accepted = ok
    return rec


def run_revised_flow(par: Group, n_endorsers: int, proposal: bytes, *, seed,
                     depth: int = 3, tamper_block: bool = False,
                     failing_endorsers=()) -> TransactionRecord:
    """Aggregated endorsement: offline sync, zero-exponentiation endorsing,
    one constant-size signature through ordering and validation."""
    tree = build_tree(n_endorsers, min_branching(n_endorsers, depth), depth)
    endorser_keys = derive_keys(par, n_endorsers, f"{seed}|endorser")
    client_key = derive_keys(par, 1, f"{seed}|client")[0]
    if not all(key_verify(par, k.public) for k in endorser_keys):
        raise PolicyUnsatisfied("endorser key failed possession check")
    if not key_verify(par, client_key.public):
        raise InvalidClient("client key failed possession check")

    rec = TransactionRecord("revised", n_endorsers, 2 * par.scalar_len,
                            accepted=False)

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

    # Step 3 — endorse: run chaincode, release responses.
    with par.span() as sp:
        _execute(n_endorsers, proposal, failing_endorsers)
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
    rec.steps.append(StepMetrics(5, "submit", sp.wall_ns, sp.exponentiations,
                                 1, len(proposal) + len(sig_bytes)))

    # Steps 6–7 — validation: one verification regardless of endorser count.
    def validate(m, sig):
        return verify(par, offline.agg_key, m, gamma.Signature.from_bytes(par, sig))

    return _order_and_validate(par, rec, proposal, sig_bytes, tamper_block,
                               validate, 1)


def run_default_flow(par: Group, n_endorsers: int, proposal: bytes, *, seed,
                     tamper_block: bool = False,
                     failing_endorsers=()) -> TransactionRecord:
    """Per-endorser signatures: no synchronization step, linear growth."""
    if n_endorsers < 1:
        raise ValueError("an AND policy needs at least one endorser")
    endorser_keys = [
        bare_keygen(par, derive_rng(seed, "default-endorser", i))
        for i in range(n_endorsers)
    ]
    sig_len = 2 * par.scalar_len
    rec = TransactionRecord("default", n_endorsers, n_endorsers * sig_len,
                            accepted=False)

    # Step 2 — proposal goes to every endorser individually.
    rec.steps.append(StepMetrics(2, "proposal", 0, 0, 0,
                                 n_endorsers * len(proposal)))

    # Step 3 — each endorser runs chaincode and signs.
    with par.span() as sp:
        _execute(n_endorsers, proposal, failing_endorsers)
        sigs = [
            gamma.sign_online(par, key, gamma.precompute(par, key, seed),
                              proposal)
            for key in endorser_keys
        ]
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
    rec.steps.append(StepMetrics(5, "submit", 0, 0, 0,
                                 len(proposal) + len(sig_blob)))

    # Steps 6–7 — validation re-verifies every endorser's signature, even
    # after one has failed.
    def validate(m, blob):
        return all([
            gamma.verify(par, key.y, m, gamma.Signature.from_bytes(
                par, blob[i * sig_len:(i + 1) * sig_len]))
            for i, key in enumerate(endorser_keys)
        ])

    return _order_and_validate(par, rec, proposal, sig_blob, tamper_block,
                               validate, n_endorsers)


def run_flows(par: Group, n_list, proposal: bytes, *, seed, depth: int = 3,
              flows=("revised", "default")) -> list:
    """One record per flow in ``flows`` (in that order) at every endorser
    count in ``n_list``."""
    return [run_revised_flow(par, n, proposal, seed=seed, depth=depth)
            if flow == "revised" else run_default_flow(par, n, proposal, seed=seed)
            for n in n_list for flow in flows]
