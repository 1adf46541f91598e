import pytest

from multisig import group as group_mod, schemes
from multisig.endorsement import (
    chaincode_stub,
    run_default_flow,
    run_flows,
    run_revised_flow,
)
from multisig.errors import InvalidClient, PolicyUnsatisfied
from multisig.group import curve_group, derive_rng
from multisig.schemes import (
    agms_offline,
    agms_online,
    bare_keygen,
    derive_keys,
)
from multisig.tree import build_tree, min_branching

PROPOSAL = b"invoke:transfer(a,b,10)"


def _swap_in_bare_key(monkeypatch, role):
    # the flow derives the keys of ``role`` ("endorser" or "client") with
    # the last one stripped of its possession proof
    import multisig.endorsement as endorsement

    def fake_derive(par, n, seed):
        keys = derive_keys(par, n, seed)
        if str(seed).endswith(f"|{role}"):
            keys[-1] = bare_keygen(par, derive_rng(99, "x"))
        return keys

    monkeypatch.setattr(endorsement, "derive_keys", fake_derive)


def test_revised_flow_refuses_endorser_key_without_proof(toy16, monkeypatch):
    _swap_in_bare_key(monkeypatch, "endorser")
    with pytest.raises(PolicyUnsatisfied, match="possession"):
        run_revised_flow(toy16, 3, PROPOSAL, seed=0)


def test_flows_need_an_explicit_seed(toy16):
    # a default seed would sign every proposal on the same nonces
    for flow in (run_revised_flow, run_default_flow):
        with pytest.raises(TypeError, match="seed"):
            flow(toy16, 2, PROPOSAL)
    with pytest.raises(TypeError, match="seed"):
        run_flows(toy16, [2], PROPOSAL)


def test_chaincode_stub_is_deterministic():
    assert chaincode_stub(PROPOSAL) == chaincode_stub(PROPOSAL)
    assert chaincode_stub(PROPOSAL) != chaincode_stub(PROPOSAL + b"!")
    assert len(chaincode_stub(b"")) == 32


def test_revised_flow_shape(toy16):
    rec = run_revised_flow(toy16, 8, PROPOSAL, seed=1)
    assert rec.accepted
    assert rec.flow == "revised"
    assert [s.step for s in rec.steps] == [1, 2, 3, 4, 5, 6, 7]
    assert rec.signature_bytes == 2 * toy16.scalar_len
    # endorsing itself costs no exponentiations; all of those happened
    # during synchronization
    by_step = {s.step: s for s in rec.steps}
    assert by_step[3].exp_count == 0
    assert by_step[1].exp_count > 0
    assert rec.step7_verify_calls() == 1


def test_default_flow_shape(toy16):
    rec = run_default_flow(toy16, 8, PROPOSAL, seed=1)
    assert rec.accepted
    assert rec.flow == "default"
    assert [s.step for s in rec.steps] == [2, 3, 4, 5, 6, 7]
    assert rec.signature_bytes == 8 * 2 * toy16.scalar_len
    assert rec.step7_verify_calls() == 8


def test_validation_work_stays_flat_only_when_aggregated(toy16):
    for n in (2, 4, 16):
        revised = run_revised_flow(toy16, n, PROPOSAL, seed=0)
        default = run_default_flow(toy16, n, PROPOSAL, seed=0)
        assert revised.step7_verify_calls() == 1
        assert default.step7_verify_calls() == n


def test_flows_reject_impossible_endorser_sets(toy16):
    for n in (0, -3):
        with pytest.raises(ValueError):
            run_default_flow(toy16, n, PROPOSAL, seed=0)
        with pytest.raises(ValueError):
            run_revised_flow(toy16, n, PROPOSAL, seed=0)


def test_tampered_blocks_are_rejected(toy16):
    assert not run_revised_flow(toy16, 4, PROPOSAL, seed=2,
                                tamper_block=True).accepted
    assert not run_default_flow(toy16, 4, PROPOSAL, seed=2,
                                tamper_block=True).accepted


def test_and_policy_needs_every_endorser(toy16):
    with pytest.raises(PolicyUnsatisfied):
        run_revised_flow(toy16, 4, PROPOSAL, seed=0,
                         failing_endorsers=[2])
    with pytest.raises(PolicyUnsatisfied):
        run_default_flow(toy16, 4, PROPOSAL, seed=0,
                         failing_endorsers=[2])


def test_unregistered_client_is_refused(toy16, monkeypatch):
    _swap_in_bare_key(monkeypatch, "client")
    with pytest.raises(InvalidClient):
        run_revised_flow(toy16, 2, PROPOSAL, seed=0)


def test_run_flows_tabulates_both(toy16):
    records = run_flows(toy16, [2, 4], PROPOSAL, seed=3)
    assert [r.flow for r in records] == ["revised", "default"] * 2
    assert [r.n_endorsers for r in records] == [2, 2, 4, 4]
    assert [len(r.steps) for r in records] == [7, 6, 7, 6]
    only = run_flows(toy16, [2, 4], PROPOSAL, seed=3, flows=("default",))
    assert [(r.flow, r.signature_hex) for r in only] == [
        (r.flow, r.signature_hex) for r in records[1::2]]


def test_revised_flow_is_plain_aggregation_underneath(toy16):
    # the flow orchestrates the protocol; it must not alter its output
    n, seed = 4, 5
    rec = run_revised_flow(toy16, n, PROPOSAL, seed=seed)
    assert rec.accepted
    tree = build_tree(n, min_branching(n, 3), 3)
    keys = derive_keys(toy16, n, f"{seed}|endorser")
    run = agms_online(toy16, agms_offline(toy16, tree, keys, seed=f"{seed}|n{n}"),
                      PROPOSAL)
    assert rec.signature_hex == run.signature.to_bytes(toy16).hex()


def test_revised_flow_never_reuses_a_nonce_across_endorser_counts(toy16,
                                                                   monkeypatch):
    # endorser i keeps its key at every n while c changes with n, so one
    # (sk, v) pair opened twice would give that endorser's key away
    opened = []
    real = schemes.open_sessions

    def spy(*args, **kwargs):
        sessions = real(*args, **kwargs)
        opened.extend((s.key.sk, s.v) for s in sessions)
        return sessions

    monkeypatch.setattr(schemes, "open_sessions", spy)
    for n in (2, 4):
        assert run_revised_flow(toy16, n, PROPOSAL, seed=1729).accepted
    assert opened[0][0] == opened[2][0]             # same key at both n
    assert len(set(opened)) == len(opened)


def test_both_flows_accept_a_single_endorser(toy16):
    assert run_revised_flow(toy16, 1, PROPOSAL, seed=6).accepted
    assert run_default_flow(toy16, 1, PROPOSAL, seed=6).accepted


def test_submit_to_validate_work_is_flat_for_revised(toy16):
    records = run_flows(toy16, [2, 4, 8, 16], PROPOSAL, seed=7)

    def late_steps(rec):
        return [(s.exp_count, s.verify_calls) for s in rec.steps if s.step >= 5]

    revised = [late_steps(r) for r in records if r.flow == "revised"]
    assert all(steps == revised[0] for steps in revised)
    for rec in records:
        if rec.flow == "default":
            assert rec.step7_verify_calls() == rec.n_endorsers


def test_signature_bytes_scale_as_reported(toy16):
    def size(flow, n):
        return flow(toy16, n, PROPOSAL, seed=0).signature_bytes

    single = size(run_default_flow, 1)
    for n in (2, 4, 8):
        assert size(run_default_flow, n) == n * single
        assert size(run_revised_flow, n) == single


def test_endorsement_traffic_builds_no_comb_table(monkeypatch):
    # keys are fresh per transaction and checked 2-3 times, below the 16
    # checks that buy an aggregate key a ≈72 ms comb table
    builds = []
    real_build = group_mod._build_comb
    monkeypatch.setattr(group_mod, "_build_comb",
                        lambda base: builds.append(base) or real_build(base))
    curve = curve_group()
    curve.exp(curve.g1, 1)               # g1's shared table, if not built yet
    builds.clear()
    for i in range(3):
        for flow in (run_revised_flow, run_default_flow):
            rec = flow(curve, 4, PROPOSAL + b"%d" % i, seed=f"comb|{i}")
            assert rec.accepted
    assert builds == []
