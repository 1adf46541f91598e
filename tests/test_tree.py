import hashlib
import json

import pytest

from multisig import schemes
from multisig.errors import (
    BadPayload,
    CapacityExceeded,
    HandlerFailure,
    MultisigError,
    NonCanonical,
)
from multisig.group import toy_group_for_order
from multisig.tree import (
    Message,
    Phase,
    PhaseResult,
    Tree,
    build_tree,
    min_branching,
    run_phase,
    transcript_to_jsonl,
)


def test_seven_node_binary_tree():
    t = build_tree(7, 2, 3)
    assert t.children[0] == (1, 2)
    assert t.children[1] == (3, 4)
    assert t.children[2] == (5, 6)
    assert t.parent[0] is None
    assert t.parent[5] == 2
    assert t.levels == ((0,), (1, 2), (3, 4, 5, 6))


def test_capacity_limits():
    for branching, full in ((2, 15), (1, 4), (8, 585)):
        assert build_tree(full, branching, 3).n == full
        with pytest.raises(CapacityExceeded):
            build_tree(full + 1, branching, 3)
    with pytest.raises(CapacityExceeded):
        build_tree(100, 2, 3)
    build_tree(15, 2, 3)  # exactly full is fine


def test_min_branching():
    assert min_branching(1) == 2
    assert min_branching(15) == 2
    assert min_branching(16) == 3
    assert min_branching(63) == 4
    assert min_branching(511) == 8
    assert min_branching(1024) == 10
    assert min_branching(100000, 1) == 99999
    assert min_branching(5, 10**10) == 2


def test_min_branching_rejects_impossible_depth():
    # below depth 1 no fan-out adds room; this used to loop forever
    assert build_tree(1, min_branching(1, 0), 0).levels == ((0,),)
    for n, depth in ((2, 0), (7, 0), (1, -1), (7, -1), (7, -3)):
        with pytest.raises(CapacityExceeded):
            min_branching(n, depth)


def test_empty_signer_set_raises_one_error_at_every_depth():
    for depth in range(-3, 6):
        with pytest.raises(ValueError, match="need at least one node"):
            min_branching(0, depth)
        with pytest.raises(ValueError, match="need at least one node"):
            build_tree(0, 2, depth)


def test_irregular_last_level():
    t = build_tree(6, 2, 3)
    assert t.children[2] == (5,)
    assert sum(len(c) for c in t.children) == 5  # n-1 edges


def _sum_up(node, child_payloads):
    total = node + sum(int(p) for p in child_payloads)
    return str(total).encode()


def test_up_phase_aggregates_subtrees():
    t = build_tree(7, 2, 3)
    res = run_phase(t, Phase.COMMIT, _sum_up)
    assert res.root_output == str(sum(range(7))).encode()
    # node 1's subtree is {1, 3, 4}
    assert ("commit", 1, 0, b"8") in res.messages
    assert len(res.messages) == 6
    assert all(m.phase == "commit" for m in res.messages)


def test_down_phase_forwards_root_input():
    t = build_tree(7, 2, 3)
    seen = {}

    def handler(node, payload):
        seen[node] = payload
        return payload + b"!"

    res = run_phase(t, Phase.ANNOUNCE, handler, root_input=b"m")
    assert seen[0] == b"m"
    assert seen[1] == b"m!"
    assert seen[3] == b"m!!"          # grows one level at a time
    assert len(res.messages) == 6


def test_bottom_up_fires_leaves_first():
    t = build_tree(7, 2, 3)
    order = []

    def note(node, child_payloads):
        order.append(node)
        return b""

    run_phase(t, Phase.RESPOND, note)
    pos = {n: i for i, n in enumerate(order)}
    assert all(pos[leaf] < pos[mid] for leaf in (3, 4, 5, 6) for mid in (1, 2))
    assert pos[0] == 6


def test_up_phase_hands_over_child_payloads_in_child_order():
    # the handler hears payloads only; the transcript says who sent each
    t = build_tree(7, 2, 3)
    heard = {}

    def note(node, child_payloads):
        heard[node] = child_payloads
        return bytes([node])

    res = run_phase(t, Phase.COMMIT, note)
    assert heard == {0: [b"\x01", b"\x02"], 1: [b"\x03", b"\x04"],
                     2: [b"\x05", b"\x06"], 3: [], 4: [], 5: [], 6: []}
    assert {m.src: m.payload for m in res.messages} == {
        i: bytes([i]) for i in range(1, 7)}


def test_message_directions_follow_the_tree():
    t = build_tree(7, 2, 3)
    up = run_phase(t, Phase.RESPOND, lambda _, ps: b"u")
    assert all(t.parent[m.src] == m.dst for m in up.messages)
    down = run_phase(t, Phase.CHALLENGE, lambda _, p: p, root_input=b"d")
    assert all(t.parent[m.dst] == m.src for m in down.messages)


def test_messages_per_full_run():
    # one message per edge per phase: a 4-phase run moves 4*(n-1)
    for n in (1, 3, 7, 12):
        t = build_tree(n, 2, 3)
        total = 0
        for phase in Phase:
            if phase.down:
                total += len(run_phase(t, phase, lambda _, p: p, root_input=b"x").messages)
            else:
                total += len(run_phase(t, phase, lambda _, ps: b"y").messages)
        assert total == 4 * (n - 1)


def test_handler_failure_carries_node():
    t = build_tree(7, 2, 3)

    def bad(node, payload):
        if node == 4:
            raise ValueError("boom")
        return payload

    with pytest.raises(HandlerFailure) as exc:
        run_phase(t, Phase.ANNOUNCE, bad, root_input=b"x")
    assert exc.value.node == 4


def test_handler_failure_carries_node_in_up_phase():
    t = build_tree(7, 2, 3)

    def bad(node, child_payloads):
        if node == 2:
            raise ValueError("boom")
        return b"u"

    with pytest.raises(HandlerFailure) as exc:
        run_phase(t, Phase.RESPOND, bad)
    assert exc.value.node == 2
    assert isinstance(exc.value.cause, ValueError)


def test_message_is_immutable():
    m = Message("commit", 1, 0, b"p")
    assert (m.phase, m.src, m.dst, m.payload) == ("commit", 1, 0, b"p")
    for field in ("phase", "src", "dst", "payload"):
        with pytest.raises(AttributeError):
            setattr(m, field, None)
    with pytest.raises(AttributeError):
        m.extra = 1


def test_agms_transcript_at_scale_is_pinned():
    # one seeded AGMS run at N = 511, b = 8: every message, in order and
    # byte for byte, so a faster engine cannot change what goes on the wire
    par = toy_group_for_order(1048573)
    tree = build_tree(511, 8, 3)
    keys = schemes.derive_keys(par, 511, 9)
    off = schemes.agms_offline(par, tree, keys, seed=9)
    run = schemes.agms_online(par, off, b"pin the engine at scale")
    messages = off.messages + run.messages
    assert len(messages) == 4 * 510
    assert (run.signature.c, run.signature.s) == (324062, 679561)
    digest = hashlib.sha256(transcript_to_jsonl(messages).encode()).hexdigest()
    assert digest == ("d019237fd84e62173f249238e6d870341a2e5c44"
                      "0a3491590fa0f353dd48e7da")


def test_shuffled_schedule_same_result_permuted_order(shuffled_levels):
    t = build_tree(7, 2, 3)
    permuted = shuffled_levels(t, 5)
    assert permuted.levels != t.levels
    plain = run_phase(t, Phase.COMMIT, _sum_up)
    shuffled = run_phase(permuted, Phase.COMMIT, _sum_up)
    again = run_phase(permuted, Phase.COMMIT, _sum_up)
    assert shuffled.root_output == plain.root_output
    assert sorted(shuffled.messages) == sorted(plain.messages)
    assert shuffled.messages == again.messages      # same order => same transcript
    assert {(m.src, m.dst) for m in shuffled.messages} == {
        (m.src, m.dst) for m in plain.messages}


def test_transcript_jsonl():
    t = build_tree(3, 2, 3)
    res = run_phase(t, Phase.ANNOUNCE, lambda _, p: p, root_input=b"\x01\x02")
    lines = transcript_to_jsonl(res.messages).strip().split("\n")
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first == {"phase": "announce", "from": 0, "to": 1,
                     "payload_hex": "0102"}
    assert transcript_to_jsonl([]) == ""


def test_single_node_tree():
    t = build_tree(1, 2, 3)
    res = run_phase(t, Phase.COMMIT, _sum_up)
    assert res.root_output == b"0"
    assert res.messages == []


# ── slow reference for run_phase ─────────────────────────────────────────────

def _reference_run_phase(tree, phase, handler, *, root_input=None, read=None):
    """The straightforward loop run_phase is checked against: one dict
    inbox, one loop for both directions, ``Message(...)`` per edge, and
    each child's payload read on its own."""
    result = PhaseResult()
    down = phase.down
    inbox = {0: root_input}
    for level in tree.levels if down else reversed(tree.levels):
        for node in level:
            kids = tree.children[node]
            try:
                if down:
                    arg = inbox[node]
                else:
                    arg = [_reference_read(read, ch, inbox[ch]) for ch in kids]
                out = handler(node, arg)
            except Exception as exc:  # noqa: BLE001 - the wrap under test
                raise HandlerFailure(node, exc) from exc
            if down:
                for child in kids:
                    inbox[child] = out
                    result.messages.append(Message(phase.label, node, child, out))
            else:
                inbox[node] = out
                p = tree.parent[node]
                if p is None:
                    result.root_output = out
                else:
                    result.messages.append(Message(phase.label, node, p, out))
    return result


def _reference_read(read, src, payload):
    """``payload`` as ``read`` decodes it; a refusal names ``src``."""
    if read is None:
        return payload
    try:
        return read(payload)
    except MultisigError as exc:
        raise BadPayload(src, exc) from exc


def _recording_handler(fail_at=None):
    """A handler whose output is the node's id, then a digest of the node
    and everything it heard, and the list of (node, arg, type of arg)
    calls it saw."""
    calls = []

    def handler(node, arg):
        calls.append((node, list(arg) if isinstance(arg, list) else arg, type(arg)))
        if node == fail_at:
            raise ValueError(f"node {node} fails")
        heard = repr(arg).encode()
        node_id = node.to_bytes(2, "big")
        return node_id + hashlib.sha256(node_id + heard).digest()[:4]

    return handler, calls


def _decode(payload):
    """A read that turns a handler's output into (sender id, digest)."""
    return int.from_bytes(payload[:2], "big"), payload[2:]


def _refusing(bad):
    """A read that refuses the payload node ``bad`` sent, by its content."""
    def read(payload):
        src, digest = _decode(payload)
        if src == bad:
            raise NonCanonical(f"refused {digest.hex()}")
        return src, digest

    return read


def _phase_runs(tree, run, fail_at=None, read=None):
    """(calls, result or failure) per phase, through ``run``; an up phase
    reads with ``read``.  A failure is (node, type and text of its cause),
    and for a ``BadPayload`` (node, sender, type and text of its cause)."""
    out = {}
    for phase in Phase:
        handler, calls = _recording_handler(fail_at)
        kwargs = {"root_input": b"r"} if phase.down else {"read": read}
        try:
            out[phase] = calls, run(tree, phase, handler, **kwargs)
        except HandlerFailure as exc:
            cause = exc.cause
            if isinstance(cause, BadPayload):
                failure = (exc.node, cause.src, type(cause.cause), str(cause.cause))
            else:
                failure = (exc.node, type(cause), str(cause))
            out[phase] = calls, failure
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 511])
@pytest.mark.parametrize("branching", [1, 2, 3, 8])
def test_run_phase_matches_the_reference_loop(n, branching, shuffled_levels):
    plain = build_tree(n, branching, n)
    for tree in (plain, shuffled_levels(plain, n + branching)):
        for read in (None, _decode):
            fast = _phase_runs(tree, run_phase, read=read)
            slow = _phase_runs(tree, _reference_run_phase, read=read)
            for phase in Phase:
                (fast_calls, got), (slow_calls, want) = fast[phase], slow[phase]
                assert fast_calls == slow_calls
                assert got.messages == want.messages
                assert got.root_output == want.root_output
                assert len(got.messages) == n - 1
                assert all(type(m) is Message for m in got.messages)
                assert [(m.phase, m.src, m.dst, m.payload) for m in got.messages] == [
                    tuple(m) for m in want.messages]
                if not phase.down:
                    assert got.root_output is not None


@pytest.mark.parametrize("n", [1, 7, 64])
@pytest.mark.parametrize("where", ["leaf", "root"])
def test_run_phase_fails_like_the_reference_loop(n, where):
    tree = build_tree(n, 3, n)
    fail_at = tree.levels[-1][-1] if where == "leaf" else 0
    fast = _phase_runs(tree, run_phase, fail_at)
    slow = _phase_runs(tree, _reference_run_phase, fail_at)
    for phase in Phase:
        assert fast[phase] == slow[phase]
        assert fast[phase][1] == (fail_at, ValueError, f"node {fail_at} fails")
    if n == 1:
        return  # no child sends a payload to refuse
    # the read refuses one child's payload: its parent fails, naming it
    bad = fail_at if where == "leaf" else tree.children[0][-1]
    fast = _phase_runs(tree, run_phase, read=_refusing(bad))
    slow = _phase_runs(tree, _reference_run_phase, read=_refusing(bad))
    for phase in Phase:
        assert fast[phase] == slow[phase]
        if not phase.down:
            assert fast[phase][1][:3] == (tree.parent[bad], bad, NonCanonical)


# ── slow reference for build_tree and min_branching ─────────────────────────

def _reference_capacity(branching, max_depth):
    """Nodes a b-ary tree of the given depth holds, in closed form (root is
    depth 0); a negative depth gives a float at most 0."""
    if branching == 1:
        return max_depth + 1
    return (branching ** (max_depth + 1) - 1) // (branching - 1)


def _reference_build_tree(n, branching, max_depth=3):
    """The fill loop build_tree is checked against: the closed-form fit,
    then each parent, level by level, takes up to b of the next ids.  With
    no branching, the fan-out is the reference search's."""
    if branching is None:
        branching = _reference_min_branching(n, max_depth)
    if n < 1:
        raise ValueError("need at least one node")
    if branching < 1:
        raise ValueError("branching must be >= 1")
    if n > _reference_capacity(branching, max_depth):
        raise CapacityExceeded(f"{n} nodes do not fit")
    parent = [None] * n
    children = [[] for _ in range(n)]
    levels = [[0]]
    next_id = 1
    while next_id < n:
        level = []
        for p in levels[-1]:
            for _ in range(branching):
                if next_id >= n:
                    break
                parent[next_id] = p
                children[p].append(next_id)
                level.append(next_id)
                next_id += 1
        levels.append(level)
    return Tree(n=n, branching=branching, parent=tuple(parent),
                children=tuple(tuple(c) for c in children),
                levels=tuple(tuple(lv) for lv in levels))


def _reference_min_branching(n, max_depth=3):
    """The closed-form search min_branching is checked against (n >= 1)."""
    b = 2
    if max_depth < 1 and _reference_capacity(b, max_depth) < n:
        raise CapacityExceeded(f"{n} nodes do not fit")
    while _reference_capacity(b, max_depth) < n:
        b += 1
    return b


def _outcome(fn, *args):
    """What fn returns, or the class of the exception it raises."""
    try:
        return fn(*args)
    except (ValueError, CapacityExceeded) as exc:
        return type(exc)


_GRID_N = [*range(1, 81), 100, 255, 511, 512, 1023, 1024, 1100, 4096]


def test_build_tree_matches_the_reference_fill_loop():
    cases = 0
    for n in _GRID_N:
        for branching in (None, *range(12)):
            for depth in range(-2, 6):
                got = _outcome(build_tree, n, branching, depth)
                want = _outcome(_reference_build_tree, n, branching, depth)
                assert got == want, (n, branching, depth)
                if isinstance(got, Tree):
                    used = (_reference_min_branching(n, depth)
                            if branching is None else branching)
                    assert got.branching == used, (n, branching, depth)
                cases += 1
    assert cases == 9152


def test_min_branching_matches_the_closed_form():
    for n in _GRID_N:
        for depth in range(-3, 6):
            got = _outcome(min_branching, n, depth)
            assert got == _outcome(_reference_min_branching, n, depth), (n, depth)
