"""Concrete attacks that motivate the scheme's two defenses.

Both attacks run only on the toy backend (``BackendRefused`` otherwise):
they are demonstrations meant to be watched, and refusing the curve keeps
anyone from mistaking them for tooling against real keys.

Rogue-key aggregation
    A signer who registers y_A = g1^sk_A * (prod of honest keys)^-1 makes
    the naive aggregate collapse to g1^sk_A, after which it can produce a
    "multi"-signature for the whole group alone.  The possession proof is
    the countermeasure: the adversary knows sk_A but not the discrete log
    of y_A itself, so every proof it can construct fails verification.

k-list challenge forgery
    The baseline's challenge c = H0(V~, m) is a random oracle, but a
    leader running ell = k-1 honest signing sessions concurrently can grind
    per-session challenge candidates (by varying its own commitment share)
    and forged-message candidates, then use a generalized-birthday solver
    to pick one from each list with sum(c_j) == c* mod q.  Closing the
    sessions with the chosen c_j and adding c* * sk_A yields a signature on
    a message nobody signed.  Honest nodes verify everything the protocol
    tells them to — the transcripts they see are individually well-formed.

    The same machinery pointed at the reordered scheme falls apart: the
    solver still finds sum(c_j) == c*, but responses scale the nonce by the
    challenge (v*c - e*sk), so summed responses do not assemble into
    anything the verifier accepts, and e = H3(m) re-binds the message
    independently of c.  The run is kept as a negative control.

Both demos return one ``AttackReport`` and decide its verdict themselves:
which result their target should show and whether the run showed it.  A
run with no attempt never meets its expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count, islice

from .errors import BackendRefused, KSumNotFound
from .group import Group, ToyGroup, derive_rng
from .hashing import H3, hash_to_scalar
from .schemes import (
    PublicKey,
    Signature,
    announce,
    bare_keygen,
    challenge,
    challenge_hash,
    commit,
    cosi_verify,
    derive_keys,
    key_aggregate,
    key_verify,
    open_sessions,
    prove_possession,
    respond,
    verify,
)
from .tree import build_tree

__all__ = [
    "require_toy",
    "AttackReport",
    "rogue_key_attack",
    "default_list_size",
    "solve",
    "ksum_forgery_attack",
]


def require_toy(par: Group) -> None:
    if not isinstance(par, ToyGroup):
        raise BackendRefused(
            "attack demonstrations only run on the brute-forceable toy backend"
        )


@dataclass(frozen=True)
class AttackReport:
    """One demo run and the demo's own verdict on it.

    ``params`` and ``extra`` (top-level keys only one demo writes) are
    JSON-ready.  ``forgery`` is the example signature or None, ``message``
    the message it signs and ``aggregate`` the element it verifies under.
    """
    attack: str
    params: dict
    attempts: int
    successes: int
    expectation_met: bool
    verdict: str
    forgery: Signature | None
    message: bytes | None
    aggregate: object
    extra: dict = field(default_factory=dict)

    def to_json_dict(self, par: Group) -> dict:
        forgery = self.forgery.to_bytes(par).hex() if self.forgery else None
        return {"attack": self.attack, "params": self.params,
                "attempts": self.attempts, "successes": self.successes,
                **self.extra, "example_forgery_hex": forgery,
                "expectation_met": self.expectation_met}


# ── rogue-key aggregation ────────────────────────────────────────────────────

def rogue_key_attack(par: Group, honest_keys, message: bytes, *, seed=0,
                     adversary_sk: int | None = None,
                     proof_attempts: int = 100) -> AttackReport:
    """Cancel the honest keys out of the aggregate, then sign alone.

    Also tries ``proof_attempts`` times to fabricate a possession proof for
    the rogue key using the only scalar the adversary knows (sk_A, which is
    *not* the rogue key's discrete log) plus fresh randomness — the count
    of accepted proofs is the report's ``successes``.  The expectation is
    met when the baseline accepts the forgery and no proof passes.  Honest
    keys that multiply to the identity are a ``ValueError``: y_A would be
    g1^sk_A, whose proofs are genuine.
    """
    require_toy(par)
    honest_keys = list(honest_keys)
    rng = derive_rng(seed, "rogue")
    sk_a = adversary_sk if adversary_sk is not None else par.random_scalar(rng)
    prod = key_aggregate(par, honest_keys).X
    if prod == par.identity:  # then y_A = g1^sk_A and every proof is genuine
        raise ValueError("honest keys aggregate to the identity; "
                         "nothing is left to cancel")
    # prod^(q-1) == prod^-1 in a group of prime order q
    y_a = par.mul(par.exp(par.g1, sk_a), par.exp(prod, par.q - 1))
    X = par.mul(y_a, prod)
    assert X == par.exp(par.g1, sk_a), "aggregate failed to collapse"

    v = par.random_scalar(rng)
    c = challenge_hash(par, "cosi", par.exp(par.g1, v), X, message)
    sig = Signature(c, (v + c * sk_a) % par.q)
    baseline_accepts = cosi_verify(par, X, message, sig)

    accepted = sum(
        key_verify(par, PublicKey(y_a, prove_possession(par, sk_a, y_a, rng)))
        for _ in range(proof_attempts)
    )

    return AttackReport(
        attack="rogue-key",
        params={"q": par.q, "rogue_y": par.encode_element(y_a).hex(),
                "aggregate": par.encode_element(X).hex(),
                "message": message.hex()},
        attempts=proof_attempts,
        successes=accepted,
        expectation_met=(baseline_accepts and accepted == 0
                         and proof_attempts > 0),
        verdict=(f"baseline_accepts={baseline_accepts} "
                 f"proofs_accepted={accepted}/{proof_attempts}"),
        forgery=sig,
        message=message,
        aggregate=X,
        extra={"baseline_accepts_forgery": baseline_accepts},
    )


# ── generalized birthday (k-list) solver ─────────────────────────────────────

def default_list_size(q: int) -> int:
    return 4 * math.ceil(q ** (1.0 / 3.0))


# The most list entries plus pair sums one ``solve`` may handle; k = 16
# lists of the default 164 on q = 65521 take ≈0.48 M.
_SOLVE_WORK_MAX = 2**20
# The most candidates one retry may grind for the solver's k lists.  A
# candidate (exponentiation, multiplication, hash) costs ≈45x a pair sum,
# so the bound above alone admits seconds of grinding at k = 2.  2^16 grind
# in under 0.5 s a retry; the defaults need at most 6,528 (k = 16).
_GRIND_MAX = 2**16


def _window(q: int, s_l: int, h: int) -> int:
    """Level h's join keeps the pair sums within this of 0 mod q."""
    return max(1, q // (2 * s_l ** h))


def _solve_work(q: int, k: int, s_l: int) -> int:
    """About how many entries and pair sums ``solve`` handles on k lists
    of s_l values, or a count past ``_SOLVE_WORK_MAX``.  A join of lists
    of L values over w residues keeps about L²·w'/w of its pair sums,
    w' = 2·window + 1: once the window floors at 1, joins square lists."""
    work, size, width = k * s_l, s_l, q
    for h in range(1, k.bit_length() - 1):
        work += (k >> h) * size * size
        if work > _SOLVE_WORK_MAX:
            return work
        new_width = min(q, 2 * _window(q, s_l, h) + 1)
        size, width = size * size * new_width // width, new_width
    return work + 2 * size


def _filtered_join(q: int, left, right, bound: int):
    out = []
    for v1, i1 in left:
        for v2, i2 in right:
            s = (v1 + v2) % q
            if s <= bound or s >= q - bound:
                out.append((s, i1 + i2))
    return out


def solve(q: int, lists):
    """Wagner-style tree join: filter pair sums of the k lists into
    shrinking windows around 0 mod q, then demand an exact zero at the top.
    Returns one index per list; raises KSumNotFound when the joins run dry.
    """
    k = len(lists)
    if k < 2 or k & (k - 1):
        raise ValueError("number of lists must be a power of two >= 2")
    if any(not lst for lst in lists):
        raise KSumNotFound("empty input list")
    s_l = max(len(lst) for lst in lists)
    layers = [[(v % q, (i,)) for i, v in enumerate(lst)] for lst in lists]
    height = k.bit_length() - 1
    for h in range(1, height):
        bound = _window(q, s_l, h)
        layers = [
            _filtered_join(q, layers[t], layers[t + 1], bound)
            for t in range(0, len(layers), 2)
        ]
        if any(not layer for layer in layers):
            raise KSumNotFound(f"level-{h} join produced an empty list")
    left, right = layers
    lookup: dict = {}
    for v, idx in right:
        lookup.setdefault(v, idx)
    for v, idx in left:
        other = lookup.get((q - v) % q)
        if other is not None:
            found = idx + other
            total = sum(lists[j][found[j]] for j in range(k)) % q
            assert total == 0, "solver produced a non-solution"
            return found
    raise KSumNotFound("no zero-sum tuple at the top join")


# ── k-list forgery against concurrent sessions ───────────────────────────────

# the forged messages are this prefix, "#" and a counter
_FORGED_PREFIX = b"pay the attacker everything"


def _grind(s_l, candidates):
    """The first s_l (challenge, item) candidates as (challenges, items).
    Draws no more than that, since the session lists share one RNG."""
    pairs = list(islice(candidates, s_l))
    return [c for c, _ in pairs], [item for _, item in pairs]


def _session_candidates(par, rng, V_sess, target, x_forge, message):
    """Challenges the leader can induce in one open session by varying its
    own commitment share r, each with the aggregate g1^r * V_sess it would
    announce."""
    while True:
        v_ann = par.mul(par.exp(par.g1, par.random_scalar(rng)), V_sess)
        yield challenge_hash(par, target, v_ann, x_forge, message), v_ann


def _target_candidates(par, V_bar, target, x_forge, message):
    """Forged messages, each with its target challenge c*.  The honest
    sessions' ``message`` is skipped: a signature on it is no forgery."""
    for u in count():
        m_star = _FORGED_PREFIX + b"#" + str(u).encode()
        if m_star != message:
            yield challenge_hash(par, target, V_bar, x_forge, m_star), m_star


def ksum_forgery_attack(par: Group, *, target: str = "cosi", k: int = 4,
                        n_honest: int = 3, list_size: int | None = None,
                        retries: int = 8, seed=0,
                        message: bytes = b"pay the usual 1"
                        ) -> AttackReport:
    """Run the concurrent-session forgery end to end against honest signers.

    ``target="cosi"`` forges (expected to succeed within a few retries);
    ``target="agms"`` runs the identical pipeline against the reordered
    scheme as a negative control (the solver succeeds, the forgery never
    verifies).  The expectation is at least one success against cosi and
    none against agms, over at least one attempt.  Honest signers execute
    the real phase handlers — nothing on their side is mocked.
    """
    require_toy(par)
    if target not in ("cosi", "agms"):
        raise ValueError(f"unknown target {target!r}")
    if k < 2 or k & (k - 1):
        raise ValueError("k must be a power of two >= 2")
    baseline = target == "cosi"
    s_l = default_list_size(par.q) if list_size is None else list_size
    if s_l < 1:
        raise ValueError(f"list size must be at least 1, got {s_l}")
    if k * s_l > _GRIND_MAX:
        raise ValueError(f"k={k} lists of {s_l} on q={par.q}: the solver's "
                         f"joins would need over {_GRIND_MAX} candidates")
    if _solve_work(par.q, k, s_l) > _SOLVE_WORK_MAX:
        raise ValueError(f"k={k} lists of {s_l} on q={par.q}: the solver's "
                         f"joins would handle over {_SOLVE_WORK_MAX} entries")
    ell = k - 1
    htree = build_tree(n_honest)
    if baseline:
        hkeys = [bare_keygen(par, derive_rng(seed, "honest-key", i))
                 for i in range(n_honest)]
    else:
        hkeys = derive_keys(par, n_honest, f"{seed}|honest")
    x_h = key_aggregate(par, hkeys).X
    adv = bare_keygen(par, derive_rng(seed, "adv"))
    x_forge = par.mul(x_h, adv.y)

    attempts = 0
    example: Signature | None = None
    example_m: bytes | None = None

    for t in range(retries):
        attempts += 1
        # open ell concurrent sessions; honest nodes commit first
        runs = []
        for j in range(ell):
            run = open_sessions(par, target, htree, hkeys, f"{seed}|t{t}|s{j}")
            announce(run, message)
            commit(run)
            runs.append(run)
        v_sess = [run.V for run in runs]
        v_bar = v_sess[0]
        for v in v_sess[1:]:
            v_bar = par.mul(v_bar, v)

        grind_rng = derive_rng(seed, "grind", t)
        ground = [_grind(s_l, _session_candidates(
            par, grind_rng, v, target, x_forge, message)) for v in v_sess]
        c_stars, msgs = _grind(s_l, _target_candidates(
            par, v_bar, target, x_forge, message))
        # negated, so the solver's zero sum means sum(c_j) == c* mod q
        lists = [vals for vals, _ in ground]
        lists.append([(par.q - c) % par.q for c in c_stars])
        announced = [anns for _, anns in ground]
        try:
            idx = solve(par.q, lists)
        except KSumNotFound:
            continue

        # close each session with the solver's challenge; collect responses
        s_total = 0
        for j, run in enumerate(runs):
            challenge(run, lists[j][idx[j]], announced[j][idx[j]])
            respond(run)
            s_total = (s_total + run.signature.s) % par.q

        u_k = idx[-1]
        m_star = msgs[u_k]
        c_star = c_stars[u_k]
        if baseline:
            s_star = (s_total + c_star * adv.sk) % par.q
            sig = Signature(c_star, s_star)
            ok = cosi_verify(par, x_forge, m_star, sig)
        else:
            e_star = hash_to_scalar(par, H3, [m_star])
            s_star = (s_total - e_star * adv.sk) % par.q
            sig = Signature(c_star, s_star)
            ok = verify(par, x_forge, m_star, sig)
        if ok:
            example, example_m = sig, m_star
            break

    successes = int(example is not None)
    params = {"target": target, "q": par.q, "k": k, "list_size": s_l,
              "n_honest": n_honest,
              "aggregate": par.encode_element(x_forge).hex()}
    if example_m is not None:
        params["forged_message"] = example_m.hex()
    return AttackReport(
        attack="ksum",
        params=params,
        attempts=attempts,
        successes=successes,
        expectation_met=attempts > 0 and (successes >= 1 if baseline
                                          else successes == 0),
        verdict=(f"target={target} attempts={attempts} "
                 f"successes={successes}"),
        forgery=example,
        message=example_m,
        aggregate=x_forge,
    )
