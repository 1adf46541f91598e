"""Spanning-tree topology and phase-by-phase message simulation.

Signers are arranged as a complete-ish b-ary tree, BFS-numbered with the
leader at node 0: node i's children are the ids b*i+1 ... b*i+b below n,
node j's parent is (j-1) // b, and level k holds the next b^k ids.  n
nodes fit depth d when the level widths 1, b, b^2, ... of levels 0 ... d
add up to at least n.  A protocol run is a sequence of phases; each
phase either flows down (every node hears from its parent, then speaks
to its children) or up (every node hears from all children, then speaks
to its parent).  One message crosses each edge per phase, so a 4-phase
run over N nodes moves exactly 4*(N-1) messages.

``run_phase`` drives one phase given a per-node handler and records the
full transcript as ``Message`` tuples (an immutable ``NamedTuple``: phase,
src, dst, payload), each built by ``tuple.__new__`` to skip the
Python-level ``Message.__new__``.  What a node hears waits in a list
indexed by node id.  An up-phase handler hears its children's payloads,
as the caller's ``read`` decodes them, in a list in child order; only the
tree knows who sent which, so a payload ``read`` refuses is a
``BadPayload`` naming that child.  A down-phase handler reads its
parent's payload itself.  Handlers are ordinary functions; any exception
they or ``read`` raise is wrapped in HandlerFailure tagged with the
receiving node's id.  Handlers run one at a time, level by level, in the
order ``Tree.levels`` lists them; a caller that wants another processing
order passes a tree whose levels are permuted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import BadPayload, CapacityExceeded, HandlerFailure, MultisigError

__all__ = [
    "Phase",
    "Message",
    "Tree",
    "PhaseResult",
    "min_branching",
    "build_tree",
    "run_phase",
    "transcript_to_jsonl",
]


class Phase(Enum):
    ANNOUNCE = ("announce", True)   # down: root to leaves
    COMMIT = ("commit", False)      # up: leaves to root
    CHALLENGE = ("challenge", True)
    RESPOND = ("respond", False)

    def __init__(self, label: str, down: bool):
        self.label = label
        self.down = down


class Message(NamedTuple):
    phase: str
    src: int
    dst: int
    payload: bytes


@dataclass(frozen=True)
class Tree:
    n: int
    branching: int         # the fan-out the tree was built with
    parent: tuple          # parent[i] is None for the root
    children: tuple        # children[i] is a tuple of node ids
    levels: tuple          # node ids grouped by depth, root level first


def _fits(n: int, branching: int, max_depth: int) -> bool:
    """Whether n nodes fit depth max_depth: add level widths until they hold
    n, so any depth costs at most ceil(log_b n) + 1 steps for b >= 2."""
    held, width = 0, 1
    for _ in range(max_depth + 1):
        held += width
        if held >= n:
            return True
        width *= branching
    return False


def min_branching(n: int, max_depth: int = 3) -> int:
    """Smallest branching factor >= 2 that fits n nodes at this depth.

    Below depth 1 no fan-out adds room (the tree is the root alone, or
    empty), so a node count that does not fit raises CapacityExceeded.
    """
    if n < 1:
        raise ValueError("need at least one node")
    b = 2
    if max_depth < 1 and not _fits(n, b, max_depth):
        raise CapacityExceeded(f"{n} nodes do not fit in a tree of depth "
                               f"{max_depth}")
    while not _fits(n, b, max_depth):
        b += 1
    return b


def build_tree(n: int, branching: int | None = None,
               max_depth: int = 3) -> Tree:
    """BFS-numbered b-ary tree: node 0 is the leader, fill level by level.
    With no ``branching``, the fan-out is ``min_branching(n, max_depth)``."""
    if branching is None:
        branching = min_branching(n, max_depth)
    if n < 1:
        raise ValueError("need at least one node")
    if branching < 1:
        raise ValueError("branching must be >= 1")
    if not _fits(n, branching, max_depth):
        raise CapacityExceeded(f"{n} nodes do not fit in a depth-{max_depth} "
                               f"{branching}-ary tree")
    b, ids = branching, tuple(range(n))
    # node i's children are ids[b*i+1 : b*i+b+1]; the nodes after are leaves
    inner = tuple([ids[j:j + b] for j in range(1, n, b)])
    levels, start = [], 0
    while start < n:  # the level after the one at start begins at b*start+1
        levels.append(ids[start:b * start + 1])
        start = b * start + 1
    return Tree(
        n=n,
        branching=b,
        parent=(None, *[i // b for i in range(n - 1)]),
        children=inner + ((),) * (n - len(inner)),
        levels=tuple(levels),
    )


@dataclass
class PhaseResult:
    messages: list = field(default_factory=list)
    root_output: bytes | None = None


def run_phase(tree: Tree, phase: Phase, handler, *,
              root_input: bytes | None = None, read=None) -> PhaseResult:
    """Execute one phase over the tree.

    Down phases (``phase.down``): handler(node, payload_from_parent) ->
    payload for children; the root receives ``root_input``.  Up phases:
    handler(node, [read(payload) per child, in ``tree.children`` order]) ->
    payload for parent, with raw payloads if ``read`` is None; the root's
    output lands in ``PhaseResult.root_output``.  A ``MultisigError`` from
    ``read`` is raised as ``BadPayload(child, exc)``.
    """
    result = PhaseResult()
    label, children = phase.label, tree.children
    append, new = result.messages.append, tuple.__new__
    inbox: list = [None] * tree.n
    try:
        if phase.down:
            inbox[0] = root_input
            for level in tree.levels:
                for node in level:
                    out = handler(node, inbox[node])
                    for child in children[node]:
                        inbox[child] = out
                        append(new(Message, (label, node, child, out)))
            return result
        parent, read = tree.parent, read or (lambda payload: payload)
        for level in reversed(tree.levels):
            for node in level:
                heard = []
                try:
                    for src in children[node]:
                        heard.append(read(inbox[src]))
                except MultisigError as exc:
                    raise BadPayload(src, exc) from exc
                out = handler(node, heard)
                p = parent[node]
                if p is None:
                    result.root_output = out
                else:
                    inbox[node] = out
                    append(new(Message, (label, node, p, out)))
    except Exception as exc:  # noqa: BLE001 - deliberate wrap with node id
        raise HandlerFailure(node, exc) from exc
    return result


# ── transcript export ────────────────────────────────────────────────────────

def transcript_to_jsonl(messages: list) -> str:
    """One JSON object per line: {"phase", "from", "to", "payload_hex"}."""
    lines = [
        json.dumps(
            {"phase": m.phase, "from": m.src, "to": m.dst,
             "payload_hex": m.payload.hex() if m.payload else ""},
            sort_keys=True,
        )
        for m in messages
    ]
    return "\n".join(lines) + ("\n" if lines else "")
