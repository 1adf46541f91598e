import copy
import random
import tracemalloc
import weakref

import pytest

from multisig.errors import BadLength, InvOfZero, IoError, NonCanonical, NotInGroup
from multisig import group as group_mod
from multisig.group import (
    OpCounter,
    ToyGroup,
    _JAC_ID,
    _P,
    _accumulate,
    _decompress,
    _exp_comb,
    _exp_glv,
    _glv_split,
    _jac_double,
    _jac_madd,
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
    assert toy.s_inv(3) == 4
    for c in range(1, toy.q):
        assert toy.s_inv(c) * c % toy.q == 1
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
        ToyGroup(24, 11, 2)                           # p not prime
    with pytest.raises(ValueError, match="divide"):
        ToyGroup(23, 7, 2)                            # 7 does not divide 22


def test_toy_group_bounds_sizes_before_primality():
    # checked before trial division, which a crafted 61-bit p keeps busy
    # for minutes; these sizes stay fast even if the bound regresses
    # (5, 2): q = 2 has one nonzero scalar, so keygen spun on a zero proof
    # challenge and every command exited 1 as if a verification had failed
    for p, q in ((2**40 + 1, 11), (23, 23), (5, 2)):
        with pytest.raises(ValueError, match=r"q < p < 2\^40"):
            ToyGroup(p, q, 2)
    for desc in ({"p": 23, "q": "11", "g": 2}, {"p": 5, "q": 2, "g": 4},
                 {"p": 23, "q": 7, "g": 2}):
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
    assert curve.mul(curve.identity, g) == g
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
    with pytest.raises(NonCanonical):
        curve.decode_element(b"\x02" + _P.to_bytes(32, "big"))
    # x = 5 is not on secp256k1
    with pytest.raises(NotInGroup):
        curve.decode_element(b"\x02" + (5).to_bytes(32, "big"))
    assert curve.is_element(None)                          # the identity
    for not_a_point in (5, [1, 2], (1, 2, 3)):
        assert not curve.is_element(not_a_point)


def _uncompressed(x: int, y: int, prefix: int = 4) -> bytes:
    return bytes([prefix]) + x.to_bytes(32, "big") + y.to_bytes(32, "big")


def test_curve_wire_codec_matches_the_square_root_path(curve):
    assert curve.wire_len == 65
    rng = random.Random(65)
    points = [curve.exp(curve.g1, rng.randrange(1, curve.q)) for _ in range(200)]
    for x in points + [None]:
        wire = curve.encode_wire(x)
        assert len(wire) == 65
        assert curve.decode_element(wire) == x
        assert curve.decode_element(wire) == _decompress(curve.encode_element(x))
    assert curve.encode_wire(None) == bytes(65)
    px, py = points[0]
    assert curve.encode_wire(points[0]) == _uncompressed(px, py)


def test_curve_wire_decode_rejects_malformed_points(curve):
    px, py = curve.exp(curve.g1, 0xC0FFEE)
    for n in (64, 66):
        with pytest.raises(BadLength, match="33 or 65 bytes"):
            curve.decode_element(b"\x04" + bytes(n - 1))
    # 00 with a nonzero body, compressed prefixes at 65 bytes, hybrid 06/07
    non_canonical = [bytes(64) + b"\x01"]
    non_canonical += [_uncompressed(px, py, prefix) for prefix in (2, 3, 6, 7)]
    # a small x on the curve, shifted by p, still solves y² = x³ + 7 mod p
    x0 = next(x for x in range(1, 100) if pow(x**3 + 7, (_P - 1) // 2, _P) == 1)
    y0 = _decompress(b"\x02" + x0.to_bytes(32, "big"))[1]
    assert curve.decode_element(_uncompressed(x0, y0)) == (x0, y0)
    non_canonical += [_uncompressed(x0 + _P, y0), _uncompressed(_P, py),
                      _uncompressed(px, _P), _uncompressed(px, 2**256 - 1)]
    for data in non_canonical:
        with pytest.raises(NonCanonical):
            curve.decode_element(data)
    with pytest.raises(NotInGroup):
        curve.decode_element(_uncompressed(px, py + 1))


def test_toy_wire_form_is_the_element_form(toy):
    assert toy.wire_len == toy.element_len
    assert ToyGroup.encode_wire is ToyGroup.encode_element


# ── curve fast paths against the reference ladder ───────────────────────────

def _jac_add(p1, p2):
    """Jacobian ``p1`` plus Jacobian ``p2``; only the ladder below uses it."""
    X1, Y1, Z1 = p1
    X2, Y2, Z2 = p2
    if Z1 == 0:
        return p2
    if Z2 == 0:
        return p1
    Z1Z1 = (Z1 * Z1) % _P
    Z2Z2 = (Z2 * Z2) % _P
    U1 = (X1 * Z2Z2) % _P
    U2 = (X2 * Z1Z1) % _P
    S1 = (Y1 * Z2 * Z2Z2) % _P
    S2 = (Y2 * Z1 * Z1Z1) % _P
    if U1 == U2:
        if S1 != S2:
            return _JAC_ID
        return _jac_double(p1)
    H = (U2 - U1) % _P
    R = (S2 - S1) % _P
    HH = (H * H) % _P
    HHH = (H * HH) % _P
    V = (U1 * HH) % _P
    X3 = (R * R - HHH - 2 * V) % _P
    Y3 = (R * (V - X3) - S1 * HHH) % _P
    Z3 = (H * Z1 * Z2) % _P
    return (X3, Y3, Z3)


def _exp_ladder(base, e: int):
    """Generic left-to-right double-and-add; the reference the fast paths
    are tested against."""
    if base is None or e == 0:
        return None
    acc = _JAC_ID
    jb = (base[0], base[1], 1)
    for bit in bin(e)[2:]:
        acc = _jac_double(acc)
        if bit == "1":
            acc = _jac_add(acc, jb)
    return _jac_to_affine(acc)


def _edge_scalars(q):
    return [
        0, 1, 2, 15, 16, q - 1, q - 2,
        int("F" * 64, 16),            # every nibble 0xF (full comb width)
        int("F" * 62, 16),            # every nibble 0xF, below q
        int("0F" * 32, 16),           # alternating zero nibbles
        int("F0" * 32, 16),
        q,                            # GLV halves (0, 0): no addition at all
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


def _wnaf5_bit_by_bit(e: int) -> list:
    """Width-5 NAF digits of e >= 0, least significant first, one per bit
    (zeros included): the textbook definition ``_wnaf5`` must match."""
    digits = []
    while e:
        if e & 1:
            d = e & 31
            if d >= 16:
                d -= 32
            e -= d
        else:
            d = 0
        digits.append(d)
        e >>= 1
    return digits


def test_wnaf5_digits_reconstruct_the_scalar():
    rng = random.Random(3)
    for e in [0, 1, 15, 16, 31, 32, 2**256 - 1] + [
            rng.getrandbits(256) | 1 for _ in range(50)] + [
            rng.getrandbits(128) for _ in range(50)]:
        pairs = _wnaf5(e)
        assert sum(d << i for i, d in pairs) == e
        assert all(d % 2 == 1 and -15 <= d <= 15 for _, d in pairs)
        bits = [i for i, _ in pairs]
        assert all(j - i >= 5 for i, j in zip(bits, bits[1:]))
        assert pairs == [(i, d) for i, d in enumerate(_wnaf5_bit_by_bit(e))
                         if d]


def test_curve_fast_exp_counts_once():
    curve = curve_group()
    ops = OpCounter()
    x = curve.exp(curve.g1, 7, ops=ops)
    curve.exp(x, 9, ops=ops)
    assert ops.snapshot() == (2, 0)
    # a fixed base carries its own comb table; every call through it is
    # still one exponentiation and matches the ladder
    base = curve.exp(curve.g1, 0xC0FFEE)
    fixed = curve.fixed_base(base)
    rng = random.Random(1994)
    for e in _comb10_edge_scalars() + [rng.randrange(curve.q)
                                       for _ in range(50)] + [0]:
        total = curve.ops_total.exponentiations
        with curve.span() as sp:
            got = curve.exp(fixed, e, ops=ops)
        assert got == _exp_ladder(base, e % curve.q) == _exp_glv(base, e), hex(e)
        assert curve._exp(fixed, e) == _exp_ladder(base, e), hex(e)
        assert sp.exponentiations == 1, hex(e)
        assert curve.ops_total.exponentiations - total == 1, hex(e)
    assert curve.fixed_base(None) is None
    assert curve.exp(curve.fixed_base(None), 5) is None


def _group_state(par) -> dict:
    """A deep copy of everything ``par`` holds except its op totals."""
    return {k: copy.deepcopy(v) for k, v in vars(par).items()
            if k != "ops_total"}


def test_curve_group_keeps_no_per_base_state():
    curve = curve_group()
    base = curve.exp(curve.g1, 0xBEEF)
    before = _group_state(curve)
    for e in range(1, 21):
        assert curve.exp(base, e) == _exp_glv(base, e)
    assert _group_state(curve) == before


def _unpack(xy: int):
    """The affine (x, y) a comb row packs as x | (y << 256)."""
    return (xy & ((1 << 256) - 1), xy >> 256)


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
    table = group_mod._g1_comb_table
    assert [len(row) for row in table] == [2048] * 10 + [512]
    assert all(type(xy) is int for row in table for xy in row)
    assert _unpack(table[1][0]) == _exp_ladder(a.g1, 4096)


# One GLV half's signed digits: at 10 bits, 512 and -511 alternate over
# rows 0-11 and row 12 holds 1; at 12 bits, 2048 and -2047 alternate over
# rows 0-9 and row 10 holds 1.  So every row adds.  2^120 - 1 recodes to
# -1 with a carry through every row into the top one at either width.
_EDGE_HALF = sum(d << (10 * j) for j, d in enumerate([512, -511] * 6 + [1]))
_EDGE12_HALF = sum(d << (12 * j)
                   for j, d in enumerate([2048, -2047] * 5 + [1]))
_CARRY_HALF = 2**120 - 1


def _comb10_edge_halves():
    """(k1, k2) pairs, each half's sign as ``_glv_split`` gives it."""
    return [(_EDGE_HALF, _EDGE_HALF), (-_EDGE_HALF, _CARRY_HALF),
            (_CARRY_HALF, -_EDGE_HALF), (-_CARRY_HALF, -_EDGE_HALF)]


def _comb12_edge_halves():
    return [(_EDGE12_HALF, _EDGE12_HALF), (-_EDGE12_HALF, _CARRY_HALF),
            (_CARRY_HALF, -_EDGE12_HALF), (-_CARRY_HALF, -_EDGE12_HALF)]


def _comb_edge_scalars(halves, bits):
    """Scalars whose GLV halves are ``halves``, digit edges in row 0 of k1
    alone, ±1 and ±λ (one half ±1, the other 0), and the coordinates a1,
    b1, a2, b2 of the lattice basis taken as scalars."""
    n, lam, half = group_mod._N, group_mod._LAMBDA, 1 << (bits - 1)
    return [(k1 + k2 * lam) % n for k1, k2 in halves] + [
        half, half + 1, 2 * half - 1, 2 * half, 1, lam, n - lam, n - 1] + [
        c % n for v in _glv_basis() for c in v]


def _comb10_edge_scalars():
    return _comb_edge_scalars(_comb10_edge_halves(), 10)


def _comb12_edge_scalars():
    return _comb_edge_scalars(_comb12_edge_halves(), 12)


def test_g1_comb_signed_digit_edges_match_reference_ladder(curve):
    for e in _comb10_edge_scalars():
        assert curve._exp(curve.g1, e) == _exp_glv(curve.g1, e) \
            == _exp_ladder(curve.g1, e), hex(e)


def test_g1_comb12_signed_digit_edges_match_reference_ladder(curve):
    for e in _comb12_edge_scalars():
        assert curve._exp(curve.g1, e) == _exp_glv(curve.g1, e) \
            == _exp_ladder(curve.g1, e), hex(e)


def _comb_digits(k: int, bits: int, rows: int) -> list:
    """Signed base-2^bits digits of 0 <= k < 2^129, least significant
    first: ``rows`` digits in [-(2^(bits-1) - 1), 2^(bits-1)].  The
    recoding ``_exp_comb`` does inline, written out as a reference."""
    digits = []
    for _ in range(rows):
        d = k & ((1 << bits) - 1)
        if d > 1 << (bits - 1):
            d -= 1 << bits
        digits.append(d)
        k = (k - d) >> bits
    return digits


def _comb10_digits(k: int) -> list:
    return _comb_digits(k, 10, 13)


def _comb12_digits(k: int) -> list:
    return _comb_digits(k, 12, 11)


def _g1_table(curve):
    curve.exp(curve.g1, 1)  # builds g1's shared table on first use
    return group_mod._g1_comb_table


def _key_table(curve):
    """A ``fixed_base`` table, for the 10-bit digits."""
    return curve.fixed_base(_exp_ladder(curve.g1, 0xC0FFEE))


def _logged(table, reads):
    """``table`` with rows that append (row number, index) to ``reads`` on
    every read: one read per nonzero digit, and each read one addition."""
    class Row(list):
        def __getitem__(self, i):
            reads.append((self.j, i))
            return super().__getitem__(i)

    rows = [Row(row) for row in table]
    for j, row in enumerate(rows):
        row.j = j
    return rows


def _check_digits_and_reads(table, halves, scalars, digits, bits, rows):
    """Every half recodes to ``rows`` digits that sum back to it, and the
    comb reads row j at |d| - 1 for each nonzero digit, k2's first."""
    n, lam, half = group_mod._N, group_mod._LAMBDA, 1 << (bits - 1)
    for k1, k2 in halves:
        assert _glv_split((k1 + k2 * lam) % n) == (k1, k2)
    rng = random.Random(8)
    ks = [0, 1, half, half + 1, 2 * half - 1, 2 * half, 2**128 - 1,
          2**129 - 1] + [abs(k) for e in scalars for k in _glv_split(e)] + [
        rng.getrandbits(128) for _ in range(50)]
    for k in ks:
        ds = digits(k)
        assert len(ds) == rows
        assert sum(d << (bits * j) for j, d in enumerate(ds)) == k
        assert all(-(half - 1) <= d <= half for d in ds)
    reads = []
    logged = _logged(table, reads)
    for e in scalars + [rng.randrange(n) for _ in range(20)]:
        reads.clear()
        _exp_comb(logged, e)
        k1, k2 = _glv_split(e)
        assert reads == [(j, abs(d) - 1) for k in (k2, k1)
                         for j, d in enumerate(digits(abs(k))) if d]


def test_comb10_digits_reconstruct_the_scalar(curve):
    assert _comb10_digits(_EDGE_HALF) == [512, -511] * 6 + [1]
    assert _comb10_digits(_CARRY_HALF) == [-1] + [0] * 11 + [1]
    assert _comb10_digits(2**129 - 1) == [-1] + [0] * 11 + [512]
    _check_digits_and_reads(_key_table(curve), _comb10_edge_halves(),
                            _comb10_edge_scalars(), _comb10_digits, 10, 13)


def test_comb12_digits_reconstruct_the_scalar(curve):
    assert _comb12_digits(_EDGE12_HALF) == [2048, -2047] * 5 + [1]
    assert _comb12_digits(_CARRY_HALF) == [-1] + [0] * 9 + [1]
    assert _comb12_digits(2**129 - 1) == [-1] + [0] * 9 + [512]
    _check_digits_and_reads(_g1_table(curve), _comb12_edge_halves(),
                            _comb12_edge_scalars(), _comb12_digits, 12, 11)


def _count_additions(count_inversions, table, base, scalars) -> list:
    """One table read per nonzero digit of either half, each read one
    mixed addition, and no other group operation; the one inversion
    converts the result to affine.  The additions are written out in the
    loop, so the rows count the reads.  Returns each scalar's reads."""
    reads = []
    logged = _logged(table, reads)
    refs = [_exp_ladder(base, e) for e in scalars]
    inversions = count_inversions()
    counts = []
    for e, ref in zip(scalars, refs):
        reads.clear()
        inversions.clear()
        assert _exp_comb(logged, e) == ref, hex(e)
        assert inversions == [group_mod._P], hex(e)
        counts.append(len(reads))
    return counts


def test_comb_exp_makes_at_most_26_mixed_additions_and_one_inversion(
        curve, count_inversions):
    """A ``fixed_base`` table's 10-bit digits: 13 rows a half."""
    rng = random.Random(1024)
    table = _key_table(curve)
    base = _exp_ladder(curve.g1, 0xC0FFEE)
    cases = _comb10_edge_scalars() + [rng.randrange(1, curve.q)
                                      for _ in range(20)]
    counts = _count_additions(count_inversions, table, base, cases)
    assert counts[0] == max(counts) == 26


def test_g1_comb_exp_makes_at_most_22_mixed_additions_and_one_inversion(
        curve, count_inversions):
    """g1's 12-bit digits: 11 rows a half."""
    rng = random.Random(4096)
    cases = _comb12_edge_scalars() + [rng.randrange(1, curve.q)
                                      for _ in range(20)]
    counts = _count_additions(count_inversions, _g1_table(curve), curve.g1, cases)
    assert counts[0] == max(counts) == 22


def test_comb_exp_adds_on_after_the_accumulator_cancels(curve):
    """With row 0 in every row the comb sums its digits: 5 - 5·R + 7·R²,
    R the radix, reads 5·B, -5·B and 7·B, so the accumulator returns to
    the identity mid-run and must add on from there, in either half.  At
    both widths: g1's 12-bit table and a ``fixed_base`` 10-bit one."""
    n, lam = curve.q, group_mod._LAMBDA
    key = _exp_ladder(curve.g1, 0xC0FFEE)
    for table, base, bits, digits in (
            (_g1_table(curve), curve.g1, 12, _comb12_digits),
            (_key_table(curve), key, 10, _comb10_digits)):
        flat = [table[0]] * len(table)
        k = 5 - 5 * (1 << bits) + 7 * (1 << (2 * bits))
        assert digits(k)[:3] == [5, -5, 7]
        assert _glv_split(k) == (k, 0) and _glv_split(k * lam % n) == (0, k)
        assert _exp_comb(flat, k) == _exp_ladder(base, 7)
        assert _exp_comb(flat, k * lam % n) == _exp_ladder(base, 7 * lam % n)


def _check_row(curve, row, base, radix_power):
    """``row`` is d·2^radix_power·B for d = 1, 2, ...: entry by entry, each
    one the last plus the row's first (affine addition, a reference
    chain), and by the ladder at each round's last entry, 2^r, and at its
    centre, 3·2^r, which the round before made by a doubling."""
    step = _exp_ladder(base, 1 << radix_power)
    pts = [_unpack(xy) for xy in row]
    assert pts[0] == step
    for prev, pt in zip(pts, pts[1:]):
        assert pt == curve._mul(prev, step)
    for d in [1 << r for r in range(len(row).bit_length())] + [
            3 << r for r in range(len(row).bit_length() - 2)]:
        assert pts[d - 1] == _exp_ladder(base, d << radix_power), d


def test_comb_rows_match_the_reference_chain(curve):
    """One full row and the short top row of g1's table, and row 0 of a
    ``fixed_base`` table, against a chain of affine additions."""
    g1_table, key_table = _g1_table(curve), _key_table(curve)
    key = _exp_ladder(curve.g1, 0xC0FFEE)
    _check_row(curve, g1_table[3], curve.g1, 36)
    _check_row(curve, g1_table[-1], curve.g1, 120)
    assert [len(row) for row in key_table] == [512] * 13
    _check_row(curve, key_table[0], key, 0)
    _check_row(curve, key_table[-1], key, 120)


def _traced_size(base) -> int:
    """Bytes that ``_build_comb(base)``'s table holds, by tracemalloc."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = group_mod._build_comb(base)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_comb_tables_fit_the_memory_budget(curve):
    """g1's 12-bit table within 2.3 MiB, a ``fixed_base`` 10-bit one within
    0.75 MiB.  A wider digit or a looser layout shows here before it uses
    up peak RSS's bound in the benchmark."""
    assert _traced_size(curve.g1) <= 2.3 * 2**20
    assert _traced_size(_exp_ladder(curve.g1, 0xC0FFEE)) <= 0.75 * 2**20


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
        assert abs(k1) < 2**128 and abs(k2) < 2**128, hex(e)


def test_glv_exp_matches_comb_and_reference_ladder(curve):
    n = curve.q
    rng = random.Random(4242)
    x = _exp_ladder(curve.g1, rng.randrange(1, n))
    # small scalars put the wNAF's first nonzero digit, and so the first
    # addition from the identity, at each table entry and digit boundary
    scalars = [1, 2, 3, 15, 16, 17, 31, 32, 33] + _glv_edge_scalars()
    table = curve.fixed_base(curve.g1)
    for e in scalars:
        ref = _exp_ladder(curve.g1, e % n)
        assert _exp_glv(curve.g1, e) == _exp_comb(table, e % n) == ref, hex(e)
    for base in (x, (x[0], group_mod._P - x[1])):
        for e in scalars:
            assert _exp_glv(base, e) == _exp_ladder(base, e % n), hex(e)
    for _ in range(300):
        base = _exp_ladder(curve.g1, rng.randrange(1, n))
        e = rng.randrange(n)
        assert _exp_glv(base, e) == _exp_ladder(base, e), (base, hex(e))


def test_glv_exp_makes_one_inversion(curve, count_inversions):
    """The odd-multiples table is built without an inversion; the one
    inversion left converts the result to affine."""
    rng = random.Random(2001)
    cases = [(_exp_ladder(curve.g1, rng.randrange(1, curve.q)),
              rng.randrange(1, curve.q)) for _ in range(5)]
    refs = [_exp_ladder(base, e) for base, e in cases]
    inversions = count_inversions()
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


def test_jac_madd_handles_identity_and_equal_points(curve):
    p = group_mod._P
    x, y = curve.exp(curve.g1, 12345)
    z = 987654321
    lifted = ((x * z * z) % p, (y * z * z * z) % p, z)
    assert _jac_madd(group_mod._JAC_ID, (x, y)) == (x, y, 1)
    assert _jac_madd(lifted, (x, p - y)) == group_mod._JAC_ID       # P + (-P)
    assert _jac_to_affine(_jac_madd(lifted, (x, y))) == curve.exp(curve.g1,
                                                                  24690)


def test_accumulate_exceptional_steps_match_the_ladder(curve):
    """Each step ``_accumulate`` cannot take with its written-out formulas,
    and the doubling-only steps, against the ladder: a start from the
    identity, adding the accumulator's own point (a doubling through
    ``_jac_madd``), adding its negation and then going on, doubling the
    identity, and a tail that only doubles.  The accumulator ``a``·g1
    starts at a random Z."""
    n = curve.q
    rng = random.Random(1998)

    def run(acc, steps):
        return _jac_to_affine(_accumulate(acc, steps))

    def ref(k):
        return _exp_ladder(curve.g1, k % n)

    for _ in range(5):
        a, b = rng.randrange(1, n), rng.randrange(1, n)
        (x, y), B = ref(a), ref(b)
        ny = _P - y  # -(a·g1) is (x, ny)
        z = rng.randrange(1, _P)
        acc = ((x * z * z) % _P, (y * z * z * z) % _P, z)
        assert run(_JAC_ID, [(0, *B)]) == B
        assert run(_JAC_ID, [(0, *B), (0, x, y)]) == ref(a + b)
        assert run(acc, [(0, x, y)]) == ref(2 * a)
        assert run(acc, [(0, x, y), (1, *B)]) == ref(4 * a + b)
        assert run(acc, [(0, x, ny)]) is None
        assert run(acc, [(0, x, ny), (0, *B), (2, x, y)]) == ref(4 * b + a)
        assert run(acc, [(0, x, ny), (3, *B)]) == B
        assert run(_JAC_ID, [(3, None, None)]) is None
        assert run(_JAC_ID, [(4, *B), (1, x, y)]) == ref(2 * b + a)
        assert run(acc, [(5, None, None)]) == ref(32 * a)
        assert run(acc, [(0, *B), (3, None, None)]) == ref(8 * (a + b))
        assert run(acc, [(1, None, None), (0, *B)]) == ref(2 * a)  # stops


def test_fixed_base_g1_is_the_shared_table(monkeypatch):
    """``fixed_base(g1)`` hands back the table ``exp`` raises g1 with, and
    the table is built once, whichever of the two asks first."""
    builds = []
    real_build = group_mod._build_comb

    def counting_build(base):
        builds.append(base)
        return real_build(base)

    monkeypatch.setattr(group_mod, "_build_comb", counting_build)
    for fixed_first in (True, False):
        builds.clear()
        monkeypatch.setattr(group_mod, "_g1_comb_table", None)
        a, b = curve_group(), curve_group()
        if fixed_first:
            table = a.fixed_base(a.g1)
            assert b.exp(b.g1, 3) == _exp_ladder(a.g1, 3)
        else:
            assert b.exp(b.g1, 3) == _exp_ladder(a.g1, 3)
            table = a.fixed_base(a.g1)
        assert table is group_mod._g1_comb_table is b.fixed_base(b.g1)
        assert a.exp(table, 5) == _exp_ladder(a.g1, 5)
        assert builds == [a.g1]


# ── OpenSSL as a second secp256k1 ────────────────────────────────────────────
# These skip where the ``cryptography`` package is missing; the ladder tests
# above check the same paths without it.

@pytest.fixture(scope="module")
def ec():
    return pytest.importorskip("cryptography.hazmat.primitives.asymmetric.ec")


def _openssl_point(ec, k: int):
    """k·G from OpenSSL, as an affine (x, y), for 1 <= k < n."""
    pub = ec.derive_private_key(k, ec.SECP256K1()).public_key().public_numbers()
    return (pub.x, pub.y)


def _openssl_scalars(n: int) -> list:
    rng = random.Random(2048)
    return [e for e in _comb10_edge_scalars() if e] + [
        rng.randrange(1, n) for _ in range(40)]


def test_g1_comb_and_fixed_base_match_openssl(curve, ec):
    n = curve.q
    b = 0x5EED
    fixed = curve.fixed_base(_openssl_point(ec, b))
    for e in _openssl_scalars(n):
        assert curve.exp(curve.g1, e) == _openssl_point(ec, e), hex(e)
        assert curve.exp(fixed, e) == _openssl_point(ec, b * e % n), hex(e)


def test_g1_comb12_edges_match_openssl(curve, ec):
    for e in _comb12_edge_scalars():
        assert curve.exp(curve.g1, e) == _openssl_point(ec, e), hex(e)


def test_glv_exp_x_matches_openssl_ecdh(curve, ec):
    rng = random.Random(1976)
    for _ in range(40):
        b, e = rng.randrange(1, curve.q), rng.randrange(1, curve.q)
        base = _openssl_point(ec, b)
        peer = ec.EllipticCurvePublicNumbers(*base, ec.SECP256K1()).public_key()
        shared = ec.derive_private_key(e, ec.SECP256K1()).exchange(ec.ECDH(), peer)
        assert _exp_glv(base, e)[0].to_bytes(32, "big") == shared, hex(e)


def test_sec1_decodes_match_openssl(curve, ec):
    def openssl_decode(data):
        pub = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256K1(), data)
        numbers = pub.public_numbers()
        return (numbers.x, numbers.y)

    rng = random.Random(1998)
    for _ in range(20):
        x = _openssl_point(ec, rng.randrange(1, curve.q))
        for data in (curve.encode_element(x), curve.encode_wire(x)):
            assert curve.decode_element(data) == openssl_decode(data) == x
    # off the curve: y + 1 at 65 bytes, and an x with no y at 33 bytes
    px, py = _openssl_point(ec, 0xC0FFEE)
    x0 = next(x for x in range(1, 100) if pow(x**3 + 7, (_P - 1) // 2, _P) != 1)
    for data in (_uncompressed(px, py + 1), b"\x02" + x0.to_bytes(32, "big")):
        with pytest.raises(NotInGroup):
            curve.decode_element(data)
        with pytest.raises(ValueError):
            openssl_decode(data)


def test_product_matches_openssl(curve, ec):
    """Chains of OpenSSL points, one with k·G and (n − k)·G next to each
    other, against OpenSSL's point for the sum of their scalars."""
    n = curve.q
    rng = random.Random(3773)
    chains = [[rng.randrange(1, n) for _ in range(k)] for k in (2, 5, 17)]
    k = rng.randrange(1, n)
    chains.append([rng.randrange(1, n), k, n - k, rng.randrange(1, n)])
    for ks in chains:
        pts = [_openssl_point(ec, k) for k in ks]
        assert curve.product(pts[0], pts[1:]) == _openssl_point(ec, sum(ks) % n)


# ── per-group caches ─────────────────────────────────────────────────────────

def _toy16():
    return toy_group_for_order(65521)


_BACKENDS = pytest.mark.parametrize("make", [curve_group, _toy16],
                                    ids=["curve", "toy"])
# the decode memo is the toy group's alone: a curve decode is already cheap
_TOY_ONLY = pytest.mark.parametrize("make", [_toy16], ids=["toy"])


@_TOY_ONLY
def test_decode_memo_hit_equals_uncached_decode(make):
    par = make()
    rng = random.Random(2048)
    encoded = [par.encode_element(par.exp(par.g1, rng.randrange(1, par.q)))
               for _ in range(200)]
    for data in encoded:
        par.decode_element(data)
    hits = par._decode_memo.cache_info().hits
    for data in encoded:
        assert par.decode_element(bytearray(data)) == _toy_decode(par.p, par.q, data)
    assert par._decode_memo.cache_info().hits - hits == 200


@pytest.mark.parametrize("make, rejected, misses", [
    # p = 23: 5 is in Z_23^*, not in <2>
    (toy_group, ((b"\x08", BadLength),
                 (bytes.fromhex("0000"), NonCanonical),
                 ((23).to_bytes(2, "big"), NonCanonical),
                 (bytes.fromhex("0005"), NotInGroup)), 6),
], ids=["toy"])
def test_decode_memo_never_caches_rejected_encodings(make, rejected, misses):
    par = make()
    for data, err in rejected:
        for _ in range(2):
            with pytest.raises(err):
                par.decode_element(data)
    info = par._decode_memo.cache_info()
    assert info.currsize == 0 and info.hits == 0 and info.misses == misses


@_TOY_ONLY
def test_decode_memo_is_bounded(make):
    par = make()
    maxsize = par._decode_memo.cache_info().maxsize
    assert maxsize >= 2048              # one N = 1024 operation reuses 1,023 of 2,046
    x = par.g1
    for _ in range(maxsize + 100):
        assert par.decode_element(par.encode_element(x)) == x
        x = par._mul(x, par.g1)
    assert par._decode_memo.cache_info().currsize == maxsize


@_BACKENDS
def test_a_dropped_group_is_freed(make):
    par = make()
    par.decode_element(par.encode_element(par.exp(par.g1, 12345)))
    par.exp(par.exp(par.g1, 2), 3)
    ref = weakref.ref(par)
    del par
    assert ref() is None                # freed by refcount: no cycle, no global


def test_two_groups_share_no_cache_state():
    a, b = _toy16(), _toy16()
    data = a.encode_element(a.exp(a.g1, 5))
    a.decode_element(data)
    b.decode_element(data)
    assert a._decode_memo.cache_info().misses == 1
    assert b._decode_memo.cache_info().hits == 0
    # a fixed base's table travels with the base, not with the group that
    # built it, and neither curve group holds any per-base state
    a, b = curve_group(), curve_group()
    before = _group_state(b)
    base = a.exp(a.g1, 7)
    fixed = a.fixed_base(base)
    assert b.exp(fixed, 3) == b.exp(base, 3) == _exp_ladder(base, 3)
    assert _group_state(a) == _group_state(b) == before


# ── products ─────────────────────────────────────────────────────────────────

def _left_to_right(par, first, rest):
    """The slow path ``product`` stands for: one affine ``mul`` per element."""
    for x in rest:
        first = par.mul(first, x)
    return first


def _product_cases(par, rng) -> list:
    """(first, rest) chains: random ones of 1 to 17 elements, then each
    special case of a mixed addition at the start, middle and end."""
    def pick():
        return par.exp(par.g1, rng.randrange(1, par.q))

    P, Q, R = pick(), pick(), pick()
    one, QP = par.identity, par.mul(Q, P)
    cases = [(pick(), [pick() for _ in range(k)]) for k in (1, 2, 3, 5, 8, 17)]
    return cases + [
        (one, [P, Q]),                        # first is the identity
        (one, [one]),
        (P, [one, Q, one]),                   # the identity inside rest
        (P, [par.exp(P, par.q - 1), Q, R]),   # P·P⁻¹, then on
        (Q, [P, par.exp(QP, par.q - 1), R]),  # back to the identity mid-chain
        (P, [par.exp(P, par.q - 1)]),         # ends at the identity
        (P, [P]),                             # P·P, a doubling
        (Q, [P, QP, R]),                      # a doubling mid-chain
    ]


@_BACKENDS
def test_product_matches_left_to_right_mul(make):
    par = make()
    for first, rest in _product_cases(par, random.Random(37)):
        want = _left_to_right(par, first, rest)
        with par.span() as sp:
            assert par.product(first, rest) == want, (first, rest)
        assert (sp.exponentiations, sp.multiplications) == (0, len(rest))


@_BACKENDS
def test_product_of_nothing_is_first_itself(make):
    par = make()
    for first in (par.exp(par.g1, 5), par.identity):
        with par.span() as sp:
            assert par.product(first, []) is first
            assert par.product(first, ()) is first
        assert sp.multiplications == 0


@_BACKENDS
def test_product_multiplies_through_an_instance_mul(make):
    """A ``mul`` set on the instance, as perfbench's tracer sets one, sees
    every step: ``product`` bypasses no multiplication."""
    par = make()
    rest = [par.exp(par.g1, k) for k in (3, 5, 7)]
    seen = []
    real = par.mul
    par.mul = lambda a, b, ops=None: seen.append(b) or real(a, b, ops)
    assert par.product(par.g1, rest) == par.exp(par.g1, 16)
    assert seen == rest


def test_curve_product_makes_one_inversion(curve, count_inversions):
    """The Jacobian accumulator is made affine once, whatever the chain
    meets on the way; an empty ``rest``, or a chain that ends at the
    identity, makes no inversion.  The accumulator never leaves
    ``product``, and ``is_element`` refuses one."""
    cases = _product_cases(curve, random.Random(1998))
    wants = [_left_to_right(curve, first, rest) for first, rest in cases]
    inversions = count_inversions()
    for (first, rest), want in zip(cases, wants):
        inversions.clear()
        assert curve.product(first, rest) == want
        assert inversions == ([] if want is None else [_P]), (first, rest)
    inversions.clear()
    assert curve.product(curve.g1, []) == curve.g1 and inversions == []
    x, y = curve.g1
    assert not curve.is_element((x, y, 1))
    assert not curve.is_element(_JAC_ID)


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
