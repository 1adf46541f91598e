import random
import weakref

import pytest

from multisig.errors import BadLength, InvOfZero, IoError, NonCanonical, NotInGroup
from multisig import group as group_mod
from multisig.group import (
    OpCounter,
    ToyGroup,
    _comb8_digits,
    _comb_table,
    _decompress,
    _exp_comb,
    _exp_glv,
    _exp_ladder,
    _glv_split,
    _jac_double,
    _jac_to_affine,
    _toy_decode,
    _wnaf5,
    curve_group,
    derive_rng,
    group_from_descriptor,
    toy_group,
    toy_group_for_order,
)

# ── toy backend: worked examples ─────────────────────────────────────────────

def test_toy_defaults(toy):
    assert (toy.p, toy.q, toy.g1) == (23, 11, 2)
    assert toy.identity == 1
    assert toy.exp(toy.g1, 3) == 8
    assert toy.exp(toy.g1, 0) == 1
    assert toy.exp(toy.g1, 11) == 1          # generator order
    assert toy.mul(4, 8) == 9
    assert toy.mul(9, toy.identity) == 9
    assert toy.s_inv(3) == 4                 # 3*4 = 12 = 1 mod 11


def test_scalar_codec_fixed_width(toy):
    assert toy.scalar_len == 2
    assert toy.encode_scalar(5) == bytes.fromhex("0005")
    assert toy.decode_scalar(bytes.fromhex("0005")) == 5
    with pytest.raises(BadLength):
        toy.decode_scalar(b"\x05")
    with pytest.raises(NonCanonical):
        toy.decode_scalar(bytes.fromhex("000b"))  # 11 >= q


def test_element_codec_rejects_non_members(toy):
    # 5 is in Z_23^* but not in the order-11 subgroup
    with pytest.raises(NotInGroup):
        toy.decode_element(bytes.fromhex("0005"))
    with pytest.raises(NonCanonical):
        toy.decode_element(bytes.fromhex("0000"))
    with pytest.raises(NonCanonical):
        toy.decode_element((23).to_bytes(2, "big"))
    with pytest.raises(BadLength):
        toy.decode_element(b"\x08")
    # round trip over the whole subgroup
    members = sorted(pow(toy.g1, k, toy.p) for k in range(toy.q))
    assert len(set(members)) == 11
    for x in members:
        assert toy.decode_element(toy.encode_element(x)) == x


def test_scalar_field_ops(toy):
    assert toy.s_add(7, 8) == 4
    assert toy.s_sub(3, 7) == 7
    assert toy.s_mul(7, 8) == 1
    assert toy.s_inv(3) == 4
    for c in range(1, toy.q):
        assert toy.s_mul(toy.s_inv(c), c) == 1
        assert toy.s_sub(c, c) == 0
    with pytest.raises(InvOfZero):
        toy.s_inv(0)
    with pytest.raises(InvOfZero):
        toy.s_inv(11)


def test_exp_tower_law_exhaustive(toy):
    # (a^s)^t == a^(s*t mod q), checked over every (a, s, t) in the toy group
    for k in range(toy.q):
        a = pow(toy.g1, k, toy.p)
        for s in range(toy.q):
            a_s = toy.exp(a, s)
            for t in range(toy.q):
                assert toy.exp(a_s, t) == toy.exp(a, (s * t) % toy.q)


def test_mul_identity_and_commutativity(toy):
    rng = random.Random(7)
    for _ in range(50):
        x = pow(toy.g1, rng.randrange(toy.q), toy.p)
        y = pow(toy.g1, rng.randrange(toy.q), toy.p)
        assert toy.mul(x, toy.identity) == x
        assert toy.mul(x, y) == toy.mul(y, x)


def test_exp_matches_naive_square_and_multiply(toy):
    # oracle: independent left-to-right square-and-multiply
    def naive(base, e):
        acc = 1
        for bit in bin(e % toy.q)[2:]:
            acc = acc * acc % toy.p
            if bit == "1":
                acc = acc * base % toy.p
        return acc

    rng = random.Random(1234)
    for _ in range(1000):
        x = pow(toy.g1, rng.randrange(toy.q), toy.p)
        e = rng.randrange(0, 3 * toy.q)
        assert toy.exp(x, e) == naive(x, e)


def test_random_scalar_range_and_rough_uniformity(toy):
    rng = derive_rng(99, "uniform")
    counts = [0] * toy.q
    n = 11_000
    for _ in range(n):
        s = toy.random_scalar(rng)
        assert 1 <= s <= toy.q - 1
        counts[s] += 1
    assert counts[0] == 0
    # chi-square against uniform over [1, 10]; 9 dof, 27.9 is p ~ 0.001
    expected = n / (toy.q - 1)
    chi2 = sum((c - expected) ** 2 / expected for c in counts[1:])
    assert chi2 < 27.9


def test_derive_rng_streams_are_stable_and_independent():
    a = derive_rng(7, "v", 0, 3).getrandbits(64)
    assert a == derive_rng(7, "v", 0, 3).getrandbits(64)
    assert a != derive_rng(7, "v", 0, 4).getrandbits(64)
    assert a != derive_rng(7, "key", 0, 3).getrandbits(64)


def test_op_counters(toy):
    ops = OpCounter()
    before = toy.ops_total.snapshot()
    toy.exp(toy.g1, 5, ops=ops)
    toy.mul(2, 4, ops=ops)
    toy.exp(toy.g1, 7)
    assert ops.snapshot() == (1, 1)
    after = toy.ops_total.snapshot()
    assert after[0] - before[0] == 2
    assert after[1] - before[1] == 1


def test_span_meters_a_block(toy):
    with toy.span() as outer:
        toy.exp(toy.g1, 5)
        with toy.span() as inner:
            toy.mul(2, 4)
            toy.exp(toy.g1, 7)
    assert (inner.exponentiations, inner.multiplications) == (1, 1)
    assert (outer.exponentiations, outer.multiplications) == (2, 1)
    assert outer.wall_ns >= inner.wall_ns > 0
    with pytest.raises(InvOfZero):
        with toy.span() as failed:
            toy.exp(toy.g1, 3)
            toy.s_inv(0)
    assert (failed.exponentiations, failed.multiplications) == (1, 0)


def test_toy_group_for_order():
    g = toy_group_for_order(65521)
    assert (g.p - 1) % g.q == 0
    assert pow(g.g1, g.q, g.p) == 1
    assert g.g1 != 1
    assert g.scalar_len == 2
    with pytest.raises(ValueError):
        toy_group_for_order(65520)                    # not prime
    with pytest.raises(ValueError):
        toy_group(p=24, q=11, g=2)


def test_toy_group_bounds_sizes_before_primality():
    # checked before trial division, which a crafted 61-bit p keeps busy
    # for minutes; these sizes stay fast even if the bound regresses
    # (5, 2): q = 2 has one nonzero scalar, so keygen spun on a zero proof
    # challenge and every command exited 1 as if a verification had failed
    for p, q in ((2**40 + 1, 11), (23, 23), (5, 2)):
        with pytest.raises(ValueError, match=r"q < p < 2\^40"):
            ToyGroup(p, q, 2)
    for desc in ({"p": 23, "q": "11", "g": 2}, {"p": 5, "q": 2, "g": 4}):
        with pytest.raises(IoError):
            group_from_descriptor({"backend": "toy", **desc})


def test_descriptor_round_trip(toy, curve):
    for par in (toy, curve):
        rebuilt = group_from_descriptor(par.descriptor())
        assert rebuilt.group_id == par.group_id
        assert rebuilt.q == par.q
    with pytest.raises(IoError):
        group_from_descriptor({"backend": "nope"})
    with pytest.raises(IoError):
        group_from_descriptor({"backend": "toy", "p": 23})


# ── curve backend ────────────────────────────────────────────────────────────

def test_curve_constants_and_generator(curve):
    assert curve.scalar_len == 32
    assert curve.element_len == 33
    assert curve.encode_element(curve.g1).hex() == (
        "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
    )
    # 2G, a standard test vector
    assert curve.exp(curve.g1, 2)[0] == int(
        "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5", 16
    )


def test_curve_group_law(curve):
    g = curve.g1
    assert curve.mul(g, g) == curve.exp(g, 2)
    assert curve.mul(curve.exp(g, 3), curve.exp(g, 4)) == curve.exp(g, 7)
    assert curve.exp(g, curve.q) is None                   # full order
    assert curve.exp(g, 0) is None
    assert curve.mul(g, curve.identity) == g
    # inverse element: x * x^(q-1) = identity
    x = curve.exp(g, 123456789)
    assert curve.mul(x, curve.exp(x, curve.q - 1)) is None


def test_curve_exp_matches_naive_addition_chain(curve):
    rng = random.Random(7)
    for _ in range(8):
        e = rng.randrange(1, 500)
        acc = None
        for _ in range(e):
            acc = curve.mul(acc, curve.g1) if acc else curve.g1
        assert curve.exp(curve.g1, e) == acc


def test_curve_codec(curve):
    for e in (1, 2, 3, 0xDEADBEEF, curve.q - 1):
        x = curve.exp(curve.g1, e)
        assert curve.decode_element(curve.encode_element(x)) == x
    assert curve.encode_element(None) == b"\x00" * 33
    assert curve.decode_element(b"\x00" * 33) is None
    with pytest.raises(BadLength):
        curve.decode_element(b"\x02" + b"\x00" * 30)
    with pytest.raises(NonCanonical):
        curve.decode_element(b"\x05" + b"\x11" * 32)
    # x = 5 is not on secp256k1
    with pytest.raises(NotInGroup):
        curve.decode_element(b"\x02" + (5).to_bytes(32, "big"))


# ── curve fast paths against the reference ladder ───────────────────────────

def _edge_scalars(q):
    return [
        0, 1, 2, 15, 16, q - 1, q - 2,
        int("F" * 64, 16),            # every nibble 0xF (full comb width)
        int("F" * 62, 16),            # every nibble 0xF, below q
        int("0F" * 32, 16),           # alternating zero nibbles
        int("F0" * 32, 16),
        q,                            # the comb's last addition is P + (-P)
    ]


def test_curve_exp_matches_reference_ladder(curve):
    rng = random.Random(2210)
    var_base = _exp_ladder(curve.g1, rng.randrange(1, curve.q))
    scalars = _edge_scalars(curve.q) + [rng.randrange(curve.q)
                                        for _ in range(200)]
    for base in (curve.g1, var_base):
        for e in scalars:
            assert curve._exp(base, e) == _exp_ladder(base, e), (base, e)
    assert curve.exp(curve.g1, curve.q) is None
    assert curve.exp(var_base, curve.q) is None


def test_curve_exp_identity_base_and_fresh_g1_tuple(curve):
    for e in (0, 1, 12345, curve.q - 1):
        assert curve.exp(None, e) is None
    fresh = (int(hex(curve.g1[0]), 16), int(hex(curve.g1[1]), 16))
    assert fresh == curve.g1 and fresh is not curve.g1
    rng = random.Random(5)
    for e in (1, 2, curve.q - 1, rng.randrange(curve.q)):
        assert curve.exp(fresh, e) == _exp_ladder(curve.g1, e)
    # a negated base: (x, P-y) is the inverse of (x, y)
    x = curve.exp(curve.g1, 99)
    neg = (x[0], group_mod._P - x[1])
    assert curve.exp(neg, 5) == curve.exp(curve.g1, curve.q - 5 * 99)


def test_curve_exp_is_a_homomorphism(curve):
    rng = random.Random(11)
    bases = [curve.g1, curve.exp(curve.g1, rng.randrange(1, curve.q))]
    for base in bases:
        for _ in range(20):
            a, b = rng.randrange(curve.q), rng.randrange(curve.q)
            assert curve.mul(curve.exp(base, a), curve.exp(base, b)) == \
                curve.exp(base, a + b)


def test_wnaf5_digits_reconstruct_the_scalar():
    rng = random.Random(3)
    for e in [1, 15, 16, 31, 32, 2**256 - 1] + [rng.getrandbits(256) | 1
                                                 for _ in range(50)]:
        digits = _wnaf5(e)
        assert sum(d << i for i, d in enumerate(digits)) == e
        nonzero = [i for i, d in enumerate(digits) if d]
        assert all(digits[i] % 2 == 1 and -15 <= digits[i] <= 15
                   for i in nonzero)
        assert all(j - i >= 5 for i, j in zip(nonzero, nonzero[1:]))


def test_curve_fast_exp_counts_once(curve, comb_cache):
    ops = OpCounter()
    x = curve.exp(curve.g1, 7, ops=ops)
    curve.exp(x, 9, ops=ops)
    assert ops.snapshot() == (2, 0)
    # a base that repeats gets its own comb table on its K-th use; every
    # call through it is still one exponentiation and matches the ladder
    tables, _ = comb_cache
    base = curve.exp(curve.g1, 0xC0FFEE)
    for _ in range(group_mod._COMB_AFTER_USES - 1):
        assert curve.exp(base, 5) == _exp_glv(base, 5)
    assert base not in tables
    rng = random.Random(1994)
    for e in _comb8_edge_scalars(curve.q) + [rng.randrange(curve.q)
                                             for _ in range(50)] + [0]:
        total = curve.ops_total.exponentiations
        with curve.span() as sp:
            got = curve.exp(base, e, ops=ops)
        assert base in tables
        assert got == _exp_ladder(base, e % curve.q) == _exp_glv(base, e), hex(e)
        assert curve._exp(base, e) == _exp_ladder(base, e), hex(e)
        assert sp.exponentiations == 1, hex(e)
        assert curve.ops_total.exponentiations - total == 1, hex(e)
    assert list(tables) == [base]


def test_comb_cache_is_bounded(curve, comb_cache, monkeypatch):
    """Bookkeeping only: building and evaluating are stubbed out."""
    tables, uses = comb_cache
    k, cap = group_mod._COMB_AFTER_USES, group_mod._COMB_USES_MAX
    built = []
    monkeypatch.setattr(group_mod, "_build_comb",
                        lambda base: built.append(base) or [base])
    monkeypatch.setattr(group_mod, "_exp_glv", lambda base, e: None)
    monkeypatch.setattr(group_mod, "_exp_comb", lambda table, e: table[0])
    bases, pt = [], curve.g1
    for _ in range(200 + cap + 10):
        pt = curve._mul(pt, curve.g1)
        bases.append(pt)
    bases, fresh = bases[:200], bases[200:]
    for _ in range(k - 1):                # K-1 uses each: no table yet
        for base in bases:
            assert curve.exp(base, 3) is None
    assert built == [] and len(uses) == 200
    for base in bases:                    # the K-th use builds one
        assert curve.exp(base, 3) == base
        assert len(tables) <= group_mod._COMB_TABLES and base in tables
    assert built == bases
    assert list(tables) == bases[-group_mod._COMB_TABLES:]
    assert curve.exp(bases[-1], 3) == bases[-1] and len(built) == 200
    assert curve.exp(bases[0], 3) is None   # evicted: counts from 1 again
    assert len(built) == 200 and uses == {bases[0]: 1}
    sizes = []
    for base in fresh:                    # one use each, past the cap
        curve.exp(base, 3)
        sizes.append(len(uses))
    assert max(sizes) == cap and sizes[-1] < cap and len(built) == 200


def test_g1_table_built_once_and_shared(monkeypatch):
    builds = []
    real_build = group_mod._build_comb

    def counting_build(base):
        builds.append(base)
        return real_build(base)

    monkeypatch.setattr(group_mod, "_g1_comb_table", None)
    monkeypatch.setattr(group_mod, "_build_comb", counting_build)
    a, b = curve_group(), group_from_descriptor({"backend": "secp256k1"})
    assert a.exp(a.g1, 3) == b.exp(b.g1, 3) == _exp_ladder(a.g1, 3)
    a.exp(a.g1, 5)
    assert builds == [a.g1]
    table = _comb_table(a.g1)
    assert builds == [a.g1]
    assert len(table) == 33 and all(len(row) == 128 for row in table)
    assert table[1][0] == _exp_ladder(a.g1, 256)


def _comb8_edge_scalars(q):
    return [
        0x80, 0x81, 0xFF, 0x100, 0x17F,
        int("80" * 32, 16),           # every digit 128, the largest entry
        int("81" * 32, 16),           # negative digits, a carry into each row
        int("FF" * 32, 16),           # -1 and a carry chain through every row
        int("FF" * 31 + "80", 16),
        int("7F" * 32, 16),
        int("00FF" * 16, 16),
        q - 1, q - 2, q,
    ]


def test_g1_comb_signed_digit_edges_match_reference_ladder(curve):
    for e in _comb8_edge_scalars(curve.q):
        assert curve._exp(curve.g1, e) == _exp_ladder(curve.g1, e), hex(e)


def test_comb8_digits_reconstruct_the_scalar(curve):
    rng = random.Random(8)
    for e in _comb8_edge_scalars(curve.q) + [0, 1] + [
            rng.getrandbits(256) for _ in range(50)]:
        digits = _comb8_digits(e)
        assert len(digits) == 33
        assert sum(d << (8 * j) for j, d in enumerate(digits)) == e
        assert all(-127 <= d <= 128 for d in digits)


# ── GLV endomorphism ─────────────────────────────────────────────────────────

def _glv_basis():
    return [(group_mod._A1, group_mod._B1), (group_mod._A2, group_mod._B2)]


def _glv_edge_scalars():
    n, lam = group_mod._N, group_mod._LAMBDA
    return [0, 1, lam, n - lam, lam * lam % n, n - 1, n, 2**128,
            2**256 - 1] + [c for v in _glv_basis() for c in v]


def test_glv_constants():
    p, n = group_mod._P, group_mod._N
    beta, lam = group_mod._BETA, group_mod._LAMBDA
    assert pow(beta, 3, p) == 1 and beta != 1
    assert pow(lam, 3, n) == 1 and lam != 1
    gx, gy = group_mod._GX, group_mod._GY
    assert _exp_ladder((gx, gy), lam) == (beta * gx % p, gy)
    for a, b in _glv_basis():
        assert (a + b * lam) % n == 0


def test_glv_split_is_short_and_congruent():
    n, lam = group_mod._N, group_mod._LAMBDA
    rng = random.Random(129)
    for e in _glv_edge_scalars() + [rng.randrange(n) for _ in range(500)]:
        k1, k2 = _glv_split(e)
        assert (k1 + k2 * lam - e) % n == 0, hex(e)
        assert abs(k1) < 2**129 and abs(k2) < 2**129, hex(e)


def test_glv_exp_matches_comb_and_reference_ladder(curve):
    n = curve.q
    rng = random.Random(4242)
    x = _exp_ladder(curve.g1, rng.randrange(1, n))
    # small scalars put the wNAF's first nonzero digit, and so the first
    # addition from the identity, at each table entry and digit boundary
    scalars = [1, 2, 3, 15, 16, 17, 31, 32, 33] + _glv_edge_scalars()
    for e in scalars:
        ref = _exp_ladder(curve.g1, e % n)
        assert _exp_glv(curve.g1, e) == _exp_comb(_comb_table(curve.g1), e % n) \
            == ref, hex(e)
    for base in (x, (x[0], group_mod._P - x[1])):
        for e in scalars:
            assert _exp_glv(base, e) == _exp_ladder(base, e % n), hex(e)
    for _ in range(300):
        base = _exp_ladder(curve.g1, rng.randrange(1, n))
        e = rng.randrange(n)
        assert _exp_glv(base, e) == _exp_ladder(base, e), (base, hex(e))


def test_glv_exp_makes_one_inversion(curve, monkeypatch):
    """The odd-multiples table is built without an inversion; the one
    inversion left converts the result to affine."""
    rng = random.Random(2001)
    cases = [(_exp_ladder(curve.g1, rng.randrange(1, curve.q)),
              rng.randrange(1, curve.q)) for _ in range(5)]
    refs = [_exp_ladder(base, e) for base, e in cases]
    inversions = []

    def counting_pow(x, y, mod=None):
        if y == -1:
            inversions.append(mod)
        return pow(x, y, mod)

    monkeypatch.setattr(group_mod, "pow", counting_pow, raising=False)
    for (base, e), ref in zip(cases, refs):
        inversions.clear()
        assert _exp_glv(base, e) == ref
        assert inversions == [group_mod._P]


def test_jac_double_matches_affine_doubling(curve):
    """``_jac_double`` against the affine chord-and-tangent rule of
    ``_mul`` and the ladder, on points lifted to random Z."""
    p = group_mod._P
    rng = random.Random(1986)
    for _ in range(50):
        k = rng.randrange(1, curve.q)
        x, y = _exp_ladder(curve.g1, k)
        z = rng.randrange(1, p)
        doubled = _jac_double(((x * z * z) % p, (y * z * z * z) % p, z))
        assert _jac_to_affine(doubled) == curve._mul((x, y), (x, y)) \
            == _exp_ladder(curve.g1, 2 * k), hex(k)
    # Y = 0 and Z = 0 both give the identity, as the ladder does for 2·O
    assert _jac_double((5, 0, 7)) == group_mod._JAC_ID
    assert _jac_double(group_mod._JAC_ID) == group_mod._JAC_ID
    assert _jac_to_affine(_jac_double(group_mod._JAC_ID)) is None
    assert _exp_ladder(curve.g1, 0) is None and _exp_ladder(None, 2) is None


# ── decode memo ──────────────────────────────────────────────────────────────

def test_decode_memo_hit_equals_uncached_decode(curve):
    rng = random.Random(4096)
    encoded = [curve.encode_element(curve.exp(curve.g1, rng.randrange(1, curve.q)))
               for _ in range(200)]
    for data in encoded:
        curve.decode_element(data)
    hits = _decompress.cache_info().hits
    for data in encoded:
        assert curve.decode_element(bytearray(data)) == \
            _decompress.__wrapped__(data)
    assert _decompress.cache_info().hits - hits == 200


def test_decode_memo_never_caches_rejected_encodings(curve):
    _decompress.cache_clear()
    for data, err in ((b"\x02" + b"\x00" * 30, BadLength),
                      (b"\x05" + b"\x11" * 32, NonCanonical),
                      (b"\x02" + (5).to_bytes(32, "big"), NotInGroup)):
        for _ in range(2):
            with pytest.raises(err):
                curve.decode_element(data)
    info = _decompress.cache_info()
    assert info.currsize == 0 and info.hits == 0 and info.misses == 4


def test_decode_memo_is_bounded(curve):
    maxsize = _decompress.cache_info().maxsize
    pt = curve.g1
    for _ in range(1100):
        data = curve.encode_element(pt)
        assert curve.decode_element(data) == pt
        pt = curve._mul(pt, curve.g1)
    assert _decompress.cache_info().currsize <= maxsize


def test_toy_decode_memo_hit_equals_uncached_decode(toy16):
    rng = random.Random(2048)
    encoded = [toy16.encode_element(toy16.exp(toy16.g1, rng.randrange(1, toy16.q)))
               for _ in range(200)]
    for data in encoded:
        toy16.decode_element(data)
    hits = toy16._decode_memo.cache_info().hits
    for data in encoded:
        assert toy16.decode_element(bytearray(data)) == \
            _toy_decode(toy16.p, toy16.q, data)
    assert toy16._decode_memo.cache_info().hits - hits == 200


def test_toy_decode_memo_never_caches_rejected_encodings():
    par = toy_group()                   # p = 23: 5 is in Z_23^*, not in <2>
    for data, err in ((b"\x08", BadLength),
                      (bytes.fromhex("0000"), NonCanonical),
                      ((23).to_bytes(2, "big"), NonCanonical),
                      (bytes.fromhex("0005"), NotInGroup)):
        for _ in range(2):
            with pytest.raises(err):
                par.decode_element(data)
    info = par._decode_memo.cache_info()
    assert info.currsize == 0 and info.hits == 0 and info.misses == 6


def test_toy_decode_memo_is_bounded(toy16):
    maxsize = toy16._decode_memo.cache_info().maxsize
    assert maxsize >= 2048              # one N = 511 operation reuses 510 of 1,020
    x = toy16.g1
    for _ in range(maxsize + 100):
        assert toy16.decode_element(toy16.encode_element(x)) == x
        x = toy16._mul(x, toy16.g1)
    assert toy16._decode_memo.cache_info().currsize == maxsize


def test_a_dropped_toy_group_is_freed():
    par = toy_group_for_order(65521)
    par.decode_element(par.encode_element(par.exp(par.g1, 12345)))
    par.exp(par.exp(par.g1, 2), 3)
    ref = weakref.ref(par)
    del par
    assert ref() is None                # freed by refcount: no cycle, no global


# ── toy g1 table ─────────────────────────────────────────────────────────────

def test_toy_g1_table_matches_pow_on_every_exponent():
    for q in (3, 11, 13, 65521):
        par = toy_group_for_order(q)
        rows = par._g1_table()
        assert len(rows) == -(-q.bit_length() // 10)
        assert all(len(row) <= min(1024, q) for row in rows)
        for e in range(q):
            assert par.exp(par.g1, e) == pow(par.g1, e, par.p), (q, e)


def test_toy_g1_table_matches_pow_at_twenty_bits():
    par = toy_group_for_order(1048573)
    q = par.q
    rng = random.Random(1048573)
    edges = [0, 1, 1023, 1024, q - 1]
    for e in edges + [rng.randrange(q) for _ in range(10_000)]:
        assert par.exp(par.g1, e) == pow(par.g1, e, par.p), e
    assert [len(row) for row in par._g1_rows] == [1024, 1024]


def test_toy_other_bases_keep_pow():
    par = toy_group_for_order(65521)
    base = pow(par.g1, 7, par.p)
    rng = random.Random(7)
    for e in [0, 1, par.q - 1] + [rng.randrange(par.q) for _ in range(1000)]:
        assert par.exp(base, e) == pow(base, e, par.p)
    assert par._g1_rows is None         # built on the first use of g1 only
