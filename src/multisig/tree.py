"""Spanning-tree topology and phase-by-phase message simulation.

Signers are arranged as a complete-ish b-ary tree, BFS-numbered with the
leader at node 0.  A protocol run is a sequence of phases; each phase
either flows down (every node hears from its parent, then speaks to its
children) or up (every node hears from all children, then speaks to its
parent).  One message crosses each edge per phase, so a 4-phase run over
N nodes moves exactly 4*(N-1) messages.

``run_phase`` drives one phase given a per-node handler and records the
full transcript as ``Message`` tuples (an immutable ``NamedTuple``: phase,
src, dst, payload).  Each is built as ``tuple.__new__(Message, (...))``,
the same object ``Message(...)`` makes without its Python-level
``__new__`` call, and what a node hears waits in a list indexed by node
id.  Handlers are ordinary functions; any exception they raise is wrapped
in HandlerFailure tagged with the node id.  Handlers run one at a time,
level by level, in the order ``Tree.levels`` lists them; a caller that
wants another processing order passes a tree whose levels are permuted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import CapacityExceeded, HandlerFailure

__all__ = [
    "Direction",
    "Phase",
    "Message",
    "Tree",
    "PhaseResult",
    "capacity",
    "min_branching",
    "build_tree",
    "run_phase",
    "transcript_to_jsonl",
]


class Direction(Enum):
    DOWN = "down"  # root to leaves
    UP = "up"      # leaves to root


class Phase(Enum):
    ANNOUNCE = ("announce", Direction.DOWN)
    COMMIT = ("commit", Direction.UP)
    CHALLENGE = ("challenge", Direction.DOWN)
    RESPOND = ("respond", Direction.UP)

    def __init__(self, label: str, direction: Direction):
        self.label = label
        self.direction = direction


class Message(NamedTuple):
    phase: str
    src: int
    dst: int
    payload: bytes


@dataclass(frozen=True)
class Tree:
    n: int
    parent: tuple          # parent[i] is None for the root
    children: tuple        # children[i] is a tuple of node ids
    levels: tuple          # node ids grouped by depth, root level first


def capacity(branching: int, max_depth: int) -> int:
    """Nodes a b-ary tree of the given depth can hold (root is depth 0)."""
    if branching == 1:
        return max_depth + 1
    return (branching ** (max_depth + 1) - 1) // (branching - 1)


def min_branching(n: int, max_depth: int = 3) -> int:
    """Smallest branching factor >= 2 that fits n nodes at this depth.

    Below depth 1 no fan-out adds room (the tree is the root alone, or
    empty), so a node count that does not fit raises CapacityExceeded.
    """
    b = 2
    if max_depth < 1 and capacity(b, max_depth) < n:
        raise CapacityExceeded(
            f"{n} nodes do not fit in a tree of depth {max_depth}"
        )
    while capacity(b, max_depth) < n:
        b += 1
    return b


def build_tree(n: int, branching: int, max_depth: int = 3) -> Tree:
    """BFS-numbered b-ary tree: node 0 is the leader, fill level by level."""
    if n < 1:
        raise ValueError("need at least one node")
    if branching < 1:
        raise ValueError("branching must be >= 1")
    cap = capacity(branching, max_depth)
    if n > cap:
        raise CapacityExceeded(
            f"{n} nodes exceed capacity {cap} of a depth-{max_depth} "
            f"{branching}-ary tree"
        )
    parent: list = [None] * n
    children: list = [[] for _ in range(n)]
    levels: list = [[0]]
    next_id = 1
    while next_id < n:
        level: list = []
        for p in levels[-1]:
            for _ in range(branching):
                if next_id >= n:
                    break
                parent[next_id] = p
                children[p].append(next_id)
                level.append(next_id)
                next_id += 1
        levels.append(level)
    return Tree(
        n=n,
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        levels=tuple(tuple(lv) for lv in levels),
    )


@dataclass
class PhaseResult:
    messages: list = field(default_factory=list)
    root_output: bytes | None = None


def run_phase(tree: Tree, phase: Phase, handler, *,
              root_input: bytes | None = None) -> PhaseResult:
    """Execute one phase over the tree.

    DOWN phases: handler(node, payload_from_parent) -> payload for children;
    the root receives ``root_input``.  UP phases: handler(node,
    [(child, payload), ...]) -> payload for parent; the root's output lands
    in ``PhaseResult.root_output``.
    """
    result = PhaseResult()
    label, children = phase.label, tree.children
    append, new = result.messages.append, tuple.__new__
    inbox: list = [None] * tree.n
    if phase.direction is Direction.DOWN:
        inbox[0] = root_input
        for level in tree.levels:
            for node in level:
                try:
                    out = handler(node, inbox[node])
                except HandlerFailure:
                    raise
                except Exception as exc:  # noqa: BLE001 - deliberate wrap with node id
                    raise HandlerFailure(node, exc) from exc
                for child in children[node]:
                    inbox[child] = out
                    append(new(Message, (label, node, child, out)))
        return result
    parent = tree.parent
    for level in reversed(tree.levels):
        for node in level:
            kids = children[node]
            arg = [(ch, inbox[ch]) for ch in kids] if kids else []
            try:
                out = handler(node, arg)
            except HandlerFailure:
                raise
            except Exception as exc:  # noqa: BLE001 - deliberate wrap with node id
                raise HandlerFailure(node, exc) from exc
            p = parent[node]
            if p is None:
                result.root_output = out
            else:
                inbox[node] = out
                append(new(Message, (label, node, p, out)))
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
