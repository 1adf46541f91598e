"""The faulty-sender matrix: one node mutates what it sends in one phase.

On a 7-node binary tree of the toy group q = 65521, each node that sends
in a phase (a node with children in a down phase, any node but the root
in an up phase) has its outgoing payload mutated three ways: a byte
appended, a byte dropped, or the last bit flipped.  That is 18 senders
over the four phases, so 162 cells over the three schemes.  The mutation
wraps the handler that ``schemes.run_phase`` is handed, as
``test_schemes._tamper`` does, so no library seam is added, and the run
goes through the public one-call entry points only.

Each cell lands in one class:

* ``s``: refused, naming the sender (``BadPayload.src`` is the sender);
* ``o``: refused, naming another node;
* ``f``: signed, and the signature fails ``verify``: no one is named;
* ``v``: signed, and the signature verifies.

A ``v`` cell fails the test outright; the others are pinned, cell by
cell, so a change that moves one shows up here.
"""

import pytest

from multisig import schemes
from multisig.errors import BadPayload, HandlerFailure, MultisigError
from multisig.group import toy_group_for_order
from multisig.schemes import (
    agms_offline,
    agms_online,
    cosi_sign,
    cosi_verify,
    derive_keys,
    gms_sign,
    key_aggregate,
    verify,
)
from multisig.tree import Phase, build_tree

PAR = toy_group_for_order(65521)
TREE = build_tree(7, 2)
KEYS = derive_keys(PAR, 7, "matrix")
X = key_aggregate(PAR, KEYS)
M = b"faulty sender"
SEED = "s"

MUTATIONS = {
    "append": lambda p: p + b"\x00",
    "drop": lambda p: p[:-1],
    "flip": lambda p: p[:-1] + bytes([p[-1] ^ 1]),
}

# one letter per sender, in node order: nodes 0-2 send down, nodes 1-6 up.
# Lengths are checked on every edge but announce's, where GMS and AGMS
# nodes sign whatever m they hear and CoSi's challenge check names the
# relay; a flipped bit that still decodes (node 1's V~ share, a GMS or
# AGMS c, any s) is signed over, and AGMS nodes that took a flipped c are
# refused by ``agms_online``, which names the receiver
EXPECTED = {
    "gms": {
        Phase.ANNOUNCE: {"append": "fff", "drop": "fff", "flip": "fff"},
        Phase.COMMIT: {"append": "ssssss", "drop": "ssssss", "flip": "fsssss"},
        Phase.CHALLENGE: {"append": "sss", "drop": "sss", "flip": "fff"},
        Phase.RESPOND: {"append": "ssssss", "drop": "ssssss", "flip": "ffffff"},
    },
    "agms": {
        Phase.ANNOUNCE: {"append": "fff", "drop": "fff", "flip": "fff"},
        Phase.COMMIT: {"append": "ssssss", "drop": "ssssss", "flip": "ssssss"},
        Phase.CHALLENGE: {"append": "sss", "drop": "sss", "flip": "ooo"},
        Phase.RESPOND: {"append": "ssssss", "drop": "ssssss", "flip": "ffffff"},
    },
    "cosi": {
        Phase.ANNOUNCE: {"append": "sss", "drop": "sss", "flip": "sss"},
        Phase.COMMIT: {"append": "ssssss", "drop": "ssssss", "flip": "fsssss"},
        Phase.CHALLENGE: {"append": "sss", "drop": "sss", "flip": "sss"},
        Phase.RESPOND: {"append": "ssssss", "drop": "ssssss", "flip": "ffffff"},
    },
}


def _senders(phase: Phase) -> list:
    if phase.down:
        return [node for node in range(TREE.n) if TREE.children[node]]
    return [node for node in range(TREE.n) if TREE.parent[node] is not None]


def _sign_and_verify(scheme: str) -> bool:
    if scheme == "agms":
        run = agms_online(PAR, agms_offline(PAR, TREE, KEYS, seed=SEED), M)
    else:
        sign = cosi_sign if scheme == "cosi" else gms_sign
        run = sign(PAR, TREE, KEYS, M, seed=SEED)
    check = cosi_verify if scheme == "cosi" else verify
    return check(PAR, X, M, run.signature)


def _faulty(real, phase, sender, mutate):
    """``run_phase`` with ``sender``'s output in ``phase`` mutated."""
    def run_phase(tree, ph, handler, **kwargs):
        if ph is phase:
            honest = handler

            def handler(node, arg):
                out = honest(node, arg)
                return mutate(out) if node == sender else out
        return real(tree, ph, handler, **kwargs)

    return run_phase


def _outcome(monkeypatch, scheme, phase, sender, mutate) -> str:
    with monkeypatch.context() as mp:
        mp.setattr(schemes, "run_phase",
                   _faulty(schemes.run_phase, phase, sender, mutate))
        try:
            ok = _sign_and_verify(scheme)
        except HandlerFailure as exc:
            assert isinstance(exc.cause, MultisigError), exc
            named = isinstance(exc.cause, BadPayload) and exc.cause.src == sender
            return "s" if named else "o"
        except MultisigError:
            return "o"
    return "v" if ok else "f"


@pytest.mark.parametrize("scheme", schemes.SCHEMES)
def test_an_honest_run_verifies(scheme):
    assert _sign_and_verify(scheme)


@pytest.mark.parametrize("scheme", schemes.SCHEMES)
def test_every_mutated_payload_is_refused_or_fails_verify(scheme, monkeypatch):
    got = {phase: {name: "".join(_outcome(monkeypatch, scheme, phase, node, mutate)
                                 for node in _senders(phase))
                   for name, mutate in MUTATIONS.items()}
           for phase in Phase}
    assert not any("v" in row for rows in got.values() for row in rows.values())
    assert got == EXPECTED[scheme]


def test_the_matrix_has_162_cells():
    rows = [row for by_phase in EXPECTED.values()
            for by_mutation in by_phase.values() for row in by_mutation.values()]
    assert sum(map(len, rows)) == 162
    assert {k: "".join(rows).count(k) for k in "sofv"} == {
        "s": 118, "o": 3, "f": 41, "v": 0}
