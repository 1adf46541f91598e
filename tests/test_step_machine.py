"""A model-based test of the step API.

Hypothesis calls ``open_sessions``, ``announce``, ``commit``,
``challenge``, ``respond`` and ``agms_online`` in any order, with repeats,
on session sets of every scheme over one 7-node tree of the toy group
q = 65521, and checks three invariants after every step:

* no nonce answers two different (c, e) pairs, e = H3(m);
* a refused call leaves every session's fields as they were;
* a session's m, c and v*c never change once set, and a spent session
  stays spent.

Every session set is opened with a fresh seed, so a nonce is named by its
set and its node.  Derandomized with a fixed example budget, so the run is
the same every time.  Skips where ``hypothesis`` is missing.
"""

import dataclasses

import pytest

from multisig import schemes
from multisig.errors import MixedSessions, MultisigError
from multisig.group import toy_group_for_order
from multisig.hashing import H3, hash_to_scalar
from multisig.tree import build_tree

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
stateful = pytest.importorskip("hypothesis.stateful")

PAR = toy_group_for_order(65521)
TREE = build_tree(7, 2)
KEYS = schemes.derive_keys(PAR, 7, "step machine")
MESSAGES = (b"m0", b"m1")

# calls made and refused over the whole run, by rule: the test asserts
# that both kinds happened, so the invariants were not checked in vain
CALLS: dict = {}


@dataclasses.dataclass
class SessionSet:
    sessions: list
    V: object = None    # the last commit's V~, X~
    X: object = None


class StepMachine(stateful.RuleBasedStateMachine):
    sets = stateful.Bundle("sets")

    def __init__(self):
        super().__init__()
        self.opened: list[SessionSet] = []
        self.answers: dict = {}     # (set, node) -> {(c, e)}
        self.seen: dict = {}        # (set, node) -> (m, c, vc, responded)

    def _snapshot(self) -> list:
        return [dataclasses.astuple(sess)
                for ss in self.opened for sess in ss.sessions]

    def _call(self, name, step, *args):
        """``step(*args)``, or None if refused, when no field of any
        session may have moved."""
        before = self._snapshot()
        try:
            out = step(*args)
        except MultisigError:
            CALLS[name, "refused"] = CALLS.get((name, "refused"), 0) + 1
            assert self._snapshot() == before, name
            return None
        CALLS[name, "ran"] = CALLS.get((name, "ran"), 0) + 1
        return out

    def _answered(self, i: int) -> None:
        """Each session of set i answered its (c, e)."""
        for sess in self.opened[i].sessions:
            e = hash_to_scalar(PAR, H3, [sess.m])
            self.answers.setdefault((i, sess.node), set()).add((sess.c, e))

    # at most three sets, so the other steps reach far into each one
    @stateful.precondition(lambda self: len(self.opened) < 3)
    @stateful.rule(target=sets, scheme=st.sampled_from(schemes.SCHEMES))
    def open(self, scheme):
        self.opened.append(SessionSet(schemes.open_sessions(
            PAR, scheme, TREE, KEYS, f"set {len(self.opened)}")))
        return len(self.opened) - 1

    @stateful.rule(i=sets, m=st.sampled_from(MESSAGES))
    def announce(self, i, m):
        self._call("announce", schemes.announce, TREE,
                   self.opened[i].sessions, m)

    @stateful.rule(i=sets)
    def commit(self, i):
        ss = self.opened[i]
        out = self._call("commit", schemes.commit, PAR, TREE, ss.sessions)
        if out is not None:
            ss.V, ss.X = out[0], out[1] or schemes.key_aggregate(PAR, KEYS).X

    @stateful.rule(i=sets, how=st.sampled_from(("hash", "zero", "other")),
                   other=st.integers(1, PAR.q - 1))
    def challenge(self, i, how, other):
        """The honest H0 once committed (and, for CoSi, announced), or a
        c of 0 or of any scalar; V_ann is the committed V~, or g1 before
        any commit."""
        ss = self.opened[i]
        scheme, m = ss.sessions[0].scheme, ss.sessions[0].m
        V = PAR.g1 if ss.V is None else ss.V
        if how == "zero":
            c = 0
        elif how == "hash" and ss.V is not None and (
                m is not None or scheme != "cosi"):
            c = schemes.challenge_hash(PAR, scheme, ss.V, ss.X, m)
        else:
            c = other
        self._call("challenge", schemes.challenge, PAR, TREE, ss.sessions,
                   c, V)

    @stateful.rule(i=sets)
    def respond(self, i):
        if self._call("respond", schemes.respond, PAR, TREE,
                      self.opened[i].sessions) is not None:
            self._answered(i)

    @stateful.rule(i=sets, m=st.sampled_from(MESSAGES))
    def agms_online(self, i, m):
        """Online over whatever state set i holds; ``OfflineRun`` is public,
        so a caller can hand in sessions that never saw a challenge."""
        ss = self.opened[i]
        c = ss.sessions[0].c or 1
        X = ss.X if ss.X is not None else PAR.g1
        off = schemes.OfflineRun(TREE, ss.sessions, schemes.AggregateKey(X), c)
        if self._call("agms_online", schemes.agms_online, PAR, off,
                      m) is not None:
            self._answered(i)

    @stateful.invariant()
    def one_answer_per_nonce(self):
        for nonce, pairs in self.answers.items():
            assert len(pairs) <= 1, (nonce, pairs)

    @stateful.invariant()
    def fields_are_set_once(self):
        for i, ss in enumerate(self.opened):
            for sess in ss.sessions:
                now = (sess.m, sess.c, sess.vc, sess.responded)
                for was, value in zip(self.seen.get((i, sess.node), now), now):
                    assert was is None or was is False or was == value, \
                        ((i, sess.node), was, value)
                self.seen[i, sess.node] = now


def test_step_api_state_machine():
    CALLS.clear()
    budget = hypothesis.settings(derandomize=True, database=None,
                                 deadline=None, max_examples=40,
                                 stateful_step_count=25)
    stateful.run_state_machine_as_test(StepMachine, settings=budget)
    for name in ("announce", "challenge", "respond", "agms_online"):
        assert CALLS.get((name, "ran")) and CALLS.get((name, "refused")), \
            (name, CALLS)


def test_agms_online_refuses_unchallenged_sessions_untouched():
    """The case the machine found: online over sessions that hold no c
    announced m before ``respond`` refused them."""
    sessions = schemes.open_sessions(PAR, "agms", TREE, KEYS, "unchallenged")
    off = schemes.OfflineRun(TREE, sessions, schemes.AggregateKey(PAR.g1), 1)
    with pytest.raises(MixedSessions, match="challenge"):
        schemes.agms_online(PAR, off, b"m0")
    assert all(sess.m is None for sess in sessions)
