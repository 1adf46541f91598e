import pytest

from multisig.attacks import (
    default_list_size,
    ksum_forgery_attack,
    rogue_key_attack,
    solve,
)
from multisig.errors import BackendRefused, KSumNotFound
from multisig.group import derive_rng, toy_group_for_order
from multisig.schemes import (
    PublicKey,
    cosi_verify,
    derive_keys,
    key_verify,
    keygen,
)


def test_attacks_refuse_the_curve(curve):
    with pytest.raises(BackendRefused):
        rogue_key_attack(curve, [PublicKey(curve.g1)], b"m")
    with pytest.raises(BackendRefused):
        ksum_forgery_attack(curve)


# ── rogue-key aggregation ────────────────────────────────────────────────────

def test_rogue_key_worked_example(toy):
    # one honest key y = 8; adversary knows sk_A = 2 and publishes
    # y_A = g^2 * 8^(q-1) = 12 so the aggregate collapses to g^2 = 4
    report = rogue_key_attack(toy, [PublicKey(8)], b"transfer",
                              adversary_sk=2)
    assert report.params["rogue_y"] == toy.encode_element(12).hex()
    assert report.aggregate == 4
    assert report.extra["baseline_accepts_forgery"]
    assert cosi_verify(toy, report.aggregate, b"transfer", report.forgery)
    # rejection statistics live in the q=65521 test: at q=11 a wrong
    # message or fabricated proof slips through about once in eleven tries


def test_rogue_key_cannot_fake_possession(toy16):
    honest = derive_keys(toy16, 3, 7)
    report = rogue_key_attack(toy16, honest, b"m", seed=7,
                              proof_attempts=100)
    assert report.extra["baseline_accepts_forgery"]
    assert report.attempts == 100
    assert report.successes == 0
    assert cosi_verify(toy16, report.aggregate, b"m", report.forgery)


def test_rogue_report_serializes(toy):
    report = rogue_key_attack(toy, [PublicKey(8)], b"m", adversary_sk=2,
                              proof_attempts=3)
    doc = report.to_json_dict(toy)
    assert doc["attack"] == "rogue-key"
    assert doc["baseline_accepts_forgery"] is True
    assert doc["attempts"] == 3
    bytes.fromhex(doc["example_forgery_hex"])


# ── k-list solver ────────────────────────────────────────────────────────────

def random_instance(q: int, k: int, size: int | None = None, *,
                    seed=0) -> list:
    size = default_list_size(q) if size is None else size
    if size < 1:
        raise ValueError(f"list size must be at least 1, got {size}")
    rng = derive_rng(seed, "ksum-instance")
    return [[rng.randrange(q) for _ in range(size)] for _ in range(k)]


def plant_solution(q: int, lists, *, seed=0):
    """Overwrite one slot per list so a zero-sum tuple certainly exists.

    Planted values cancel pairwise (x, q-x), so they survive the solver's
    near-zero filtering at every level.  Returns (new lists, indices).
    """
    rng = derive_rng(seed, "ksum-plant")
    lists = [list(lst) for lst in lists]
    idx = tuple(rng.randrange(len(lst)) for lst in lists)
    for j in range(0, len(lists), 2):
        x = rng.randrange(1, q)
        lists[j][idx[j]] = x
        lists[j + 1][idx[j + 1]] = (q - x) % q
    return lists, idx


def test_list_sizes_track_cube_root():
    assert default_list_size(65521) == 164
    assert default_list_size(251) == 28


def test_solver_on_planted_instance():
    lists, planted = plant_solution(65521, random_instance(65521, 4, seed=1),
                                    seed=1)
    idx = solve(65521, lists)
    assert len(idx) == 4
    assert sum(lists[j][idx[j]] for j in range(4)) % 65521 == 0


def test_solver_k2_is_a_birthday_search():
    lists = random_instance(251, 2, seed=0)
    idx = solve(251, lists)
    assert sum(lists[j][idx[j]] for j in range(2)) % 251 == 0


def test_solver_success_rate_at_default_parameters():
    # probabilistic algorithm: record the hit rate over 20 fresh instances
    # and hold it to a coarse floor rather than an exact value
    hits = 0
    for seed in range(20):
        lists = random_instance(65521, 4, seed=seed)
        try:
            idx = solve(65521, lists)
        except KSumNotFound:
            continue
        assert sum(lists[j][idx[j]] for j in range(4)) % 65521 == 0
        hits += 1
    assert hits >= 10, f"solver succeeded on only {hits}/20 instances"


def test_solver_rejects_bad_shapes():
    lists = random_instance(11, 4, seed=0)
    for bad_k in (1, 3, 6):
        with pytest.raises(ValueError):
            solve(11, lists[:1] * bad_k)
    with pytest.raises(KSumNotFound):
        solve(11, ((1,), (), (1,), (1,)))


def test_solver_reports_unsatisfiable():
    # singletons summing to 4 mod 11: survives level-1 filters, dies on top
    with pytest.raises(KSumNotFound):
        solve(11, ((1,), (1,), (1,), (1,)))


# ── concurrent-session forgery ───────────────────────────────────────────────

def test_ksum_forges_against_the_baseline(toy16):
    report = ksum_forgery_attack(toy16, target="cosi", k=4, seed=0)
    assert report.successes >= 1
    assert report.forgery is not None
    assert report.message.startswith(b"pay the attacker")
    assert report.message != b"pay the usual 1"
    assert cosi_verify(toy16, report.aggregate, report.message,
                       report.forgery)
    assert report.expectation_met
    doc = report.to_json_dict(toy16)
    assert doc["successes"] == report.successes
    assert doc["params"]["k"] == 4
    assert doc["expectation_met"] is True


def test_ksum_fails_against_split_phases(toy16):
    report = ksum_forgery_attack(toy16, target="agms", k=4, seed=0)
    assert report.successes == 0
    assert report.forgery is None
    assert report.expectation_met
    assert report.to_json_dict(toy16)["example_forgery_hex"] is None


@pytest.mark.parametrize("target,k", [("cosi", 4), ("agms", 2)])
def test_ksum_never_counts_the_honest_message(target, k):
    # "#0" is the first forged-message candidate; on q = 251 with seed 1 the
    # solver used to pick it, and a signature on the message the honest
    # sessions signed was counted as a forgery (agms: expectation VIOLATED)
    honest = b"pay the attacker everything#0"
    report = ksum_forgery_attack(toy_group_for_order(251), target=target,
                                 k=k, seed=1, message=honest)
    assert report.message != honest
    assert report.expectation_met


def test_runs_without_attempts_never_meet_their_expectation(toy16):
    for target in ("cosi", "agms"):
        report = ksum_forgery_attack(toy16, target=target, retries=0)
        assert report.attempts == 0
        assert not report.expectation_met
    report = rogue_key_attack(toy16, derive_keys(toy16, 3, 7), b"m",
                              proof_attempts=0)
    assert report.extra["baseline_accepts_forgery"]
    assert report.attempts == report.successes == 0
    assert not report.expectation_met


def test_ksum_validates_target(toy16):
    with pytest.raises(ValueError):
        ksum_forgery_attack(toy16, target="gamma")


@pytest.mark.parametrize("size", [0, -1])
def test_list_sizes_below_one_are_rejected(toy16, size):
    # 0 used to be read as "not given" and replaced by the default size
    with pytest.raises(ValueError):
        random_instance(65521, 4, size, seed=0)
    with pytest.raises(ValueError):
        ksum_forgery_attack(toy16, target="cosi", list_size=size)


def test_honest_keys_unaffected_by_attack_runs(toy16):
    kp = keygen(toy16, derive_rng(0, "key", 0))
    rogue_key_attack(toy16, [kp.public], b"m", seed=1, proof_attempts=5)
    assert key_verify(toy16, kp.public)


@pytest.mark.parametrize("kwargs", [{"k": 32}, {"k": 1024}, {"k": 2**20},
                                    {"list_size": 10000},
                                    {"list_size": 10**9},
                                    {"k": 2, "list_size": 262000,
                                     "retries": 1}])
def test_ksum_refuses_unbounded_joins_before_any_key(toy16, monkeypatch,
                                                    kwargs):
    import multisig.attacks as attacks

    def tripwire(*args, **kw):
        raise AssertionError("a key was derived")

    for name in ("bare_keygen", "derive_keys"):
        monkeypatch.setattr(attacks, name, tripwire)
    with pytest.raises(ValueError, match="solver's joins"):
        ksum_forgery_attack(toy16, target="cosi", **kwargs)


def test_default_ksum_sizes_fit_the_solver_bound():
    from multisig.attacks import _SOLVE_WORK_MAX, _solve_work

    for q in (251, 65521):
        for k in (2, 4, 8, 16):
            assert _solve_work(q, k, default_list_size(q)) <= _SOLVE_WORK_MAX
    assert _solve_work(65521, 32, 164) > _SOLVE_WORK_MAX
