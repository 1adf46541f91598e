"""A model-based test of the step API.

Hypothesis calls ``open_sessions``, ``announce``, ``commit``,
``challenge``, ``respond`` and ``agms_online`` in any order, with repeats,
on runs of every scheme over one 7-node tree of the toy group q = 65521,
and checks after every step:

* no nonce answers two different (c, e) pairs, e = H3(m);
* a refused call leaves every session's fields, and the run's V~, X~, c,
  signature and transcript length, as they were;
* a refusal that names a node wraps a ``MultisigError``, never a bare
  Python error;
* a session's m, c and v*c never change once set, a spent session stays
  spent, a run's c and signature never change once set, and its
  transcript only grows.

Every run is opened with a fresh seed, so a nonce is named by its run and
its node.  Derandomized with a fixed example budget, so the run is the
same every time.  Skips where ``hypothesis`` is missing.
"""

import dataclasses

import pytest

from multisig import schemes
from multisig.errors import HandlerFailure, MixedSessions, MultisigError
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


class StepMachine(stateful.RuleBasedStateMachine):
    runs = stateful.Bundle("runs")

    def __init__(self):
        super().__init__()
        self.opened: list[schemes.Run] = []
        self.answers: dict = {}     # (run, node) -> {(c, e)}
        self.seen: dict = {}        # (run, node) -> (m, c, vc, responded),
                                    # run -> (c, signature), (run, "sent") -> len

    def _snapshot(self) -> list:
        return [([dataclasses.astuple(sess) for sess in run.sessions],
                 run.V, run.agg_key, run.c, run.signature, len(run.messages))
                for run in self.opened]

    def _call(self, name, step, *args) -> bool:
        """Whether ``step(*args)`` ran; if it was refused, nothing in any
        run may have moved."""
        before = self._snapshot()
        try:
            step(*args)
        except MultisigError as exc:
            if isinstance(exc, HandlerFailure):
                assert isinstance(exc.cause, MultisigError), (name, exc)
            CALLS[name, "refused"] = CALLS.get((name, "refused"), 0) + 1
            assert self._snapshot() == before, name
            return False
        CALLS[name, "ran"] = CALLS.get((name, "ran"), 0) + 1
        return True

    def _answered(self, i: int) -> None:
        """Each session of run i answered its (c, e)."""
        for sess in self.opened[i].sessions:
            e = hash_to_scalar(PAR, H3, [sess.m])
            self.answers.setdefault((i, sess.node), set()).add((sess.c, e))

    # at most three runs, so the other steps reach far into each one
    @stateful.precondition(lambda self: len(self.opened) < 3)
    @stateful.rule(target=runs, scheme=st.sampled_from(schemes.SCHEMES))
    def open(self, scheme):
        self.opened.append(schemes.open_sessions(
            PAR, scheme, TREE, KEYS, f"set {len(self.opened)}"))
        return len(self.opened) - 1

    @stateful.rule(i=runs, m=st.sampled_from(MESSAGES))
    def announce(self, i, m):
        self._call("announce", schemes.announce, self.opened[i], m)

    @stateful.rule(i=runs)
    def commit(self, i):
        self._call("commit", schemes.commit, self.opened[i])

    @stateful.rule(i=runs, how=st.sampled_from(("hash", "zero", "other")),
                   other=st.integers(1, PAR.q - 1))
    def challenge(self, i, how, other):
        """The honest H0 once committed (and, for CoSi, announced), or a
        c of 0 or of any scalar; V_ann is the committed V~, or g1 before
        any commit."""
        run = self.opened[i]
        m = run.sessions[0].m
        V = PAR.g1 if run.V is None else run.V
        if how == "zero":
            c = 0
        elif how == "hash" and run.V is not None and (
                m is not None or run.scheme != "cosi"):
            c = schemes.challenge_hash(PAR, run.scheme, run.V, run.agg_key.X, m)
        else:
            c = other
        self._call("challenge", schemes.challenge, run, c, V)

    @stateful.rule(i=runs)
    def respond(self, i):
        if self._call("respond", schemes.respond, self.opened[i]):
            self._answered(i)

    @stateful.rule(i=runs, m=st.sampled_from(MESSAGES))
    def agms_online(self, i, m):
        """Online over whatever state run i holds, of any scheme."""
        if self._call("agms_online", schemes.agms_online, PAR,
                      self.opened[i], m):
            self._answered(i)

    @stateful.invariant()
    def one_answer_per_nonce(self):
        for nonce, pairs in self.answers.items():
            assert len(pairs) <= 1, (nonce, pairs)

    @stateful.invariant()
    def fields_are_set_once(self):
        for i, run in enumerate(self.opened):
            fields = {(i, sess.node): (sess.m, sess.c, sess.vc, sess.responded)
                      for sess in run.sessions}
            fields[i] = (run.c, run.signature)
            for key, now in fields.items():
                for was, value in zip(self.seen.get(key, now), now):
                    assert was is None or was is False or was == value, \
                        (key, was, value)
                self.seen[key] = now
            assert len(run.messages) >= self.seen.get((i, "sent"), 0), i
            self.seen[i, "sent"] = len(run.messages)


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
    run = schemes.open_sessions(PAR, "agms", TREE, KEYS, "unchallenged")
    for claimed in (run, dataclasses.replace(run, c=1)):
        with pytest.raises(MixedSessions, match="challenge"):
            schemes.agms_online(PAR, claimed, b"m0")
    assert all(sess.m is None for sess in run.sessions)
    assert run.messages == []
