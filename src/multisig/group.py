"""Prime-order group backends with operation counting.

Two interchangeable backends sit behind one ``Group`` interface:

* ``ToyGroup`` — the order-q subgroup of Z_p^* for small primes.  Cheap
  enough to brute-force, which is exactly what the attack demos and the
  exhaustive oracle tests need.  It keeps the curve's two shortcuts at
  toy scale: ``g1^e`` is one table lookup per 10-bit digit of e (a table
  of at most 1,024 entries a row, built on the first use of ``g1``), and
  successful decodes are memoised in a bounded LRU (2,048 entries) that
  each group owns, so a repeated encoding skips its subgroup check.
* ``Secp256k1Group`` — the standard 256-bit curve group, pure python.
  Every exponentiation splits the scalar with the GLV endomorphism into
  two halves below 2^128.  Base ``g1`` then uses a fixed-base comb over
  signed 12-bit digits of both halves: a table of 11 rows, 10 of 2,048
  affine multiples and one of 512 (20,992 points, packed one int each,
  ≈2.1 MiB, built once per process in ≈60 ms; ``fixed_base(g1)`` returns
  it).  ``fixed_base(point)`` gives any other point a 10-bit table of its
  own, held by the caller: ``schemes.AggregateKey`` asks for one on its
  16th check.  Every other base interleaves both halves' width-5 wNAF
  digits, ≈128 doublings instead of 256, against odd multiples built on
  an isomorphic curve without an inversion.  Both paths run one loop,
  ``_accumulate``, on one Jacobian accumulator: the comb's k2 rows, the
  endomorphism, then its k1 rows (at most 22 additions, no doublings).
  Converting the result is the one inversion; the group keeps no
  per-base state.
  Hashes and key files encode a point compressed (33 bytes), whose
  decode costs a modular square root (≈98 µs); tree payloads carry it
  uncompressed (65 bytes), whose decode checks y² = x³ + 7 (≈1.4 µs).
  The curve keeps no decode memo: a warm N = 64 ``agms_offline`` took
  the same time with one and without (within 1.5%, either way).
  Slow by libsecp standards (≈0.15 ms per ``g1`` comb exponentiation,
  ≈0.8 ms through GLV, medians of 75 interleaved rounds; Python 3.11.7,
  2-vCPU VM) but honest: every benchmark number is produced by the same
  code path the protocols use.

Group elements are opaque to callers: ints for the toy backend, affine
``(x, y)`` tuples (or ``None`` for the identity) on the curve.  Scalars
are plain ints in ``[0, q)`` everywhere.

An affine curve multiplication makes one field inversion: ≈9.2 µs a
call, against ≈2.6 µs for a mixed Jacobian addition (best of 5 × 20,000
calls; Python 3.11.7, 2-vCPU VM).  So a running product goes through
``Group.product(first, rest)``.  Each of its steps is still one
``mul`` call; on the curve ``first`` opens a Jacobian accumulator, which
``mul`` takes as its first argument and adds to with one mixed addition,
and the product is made affine once.  A warm N = 64 ``agms_offline``
makes 96 inversions this way, against 190 with one per multiplication.

Every exponentiation and element multiplication bumps ``Group.ops_total``.
``Group.span()`` is the one way to meter a block of code: wall time,
exponentiations and multiplications, as deltas of the shared totals, so
spans nest.  ``exp``/``mul`` still accept an extra ``ops=`` counter for
callers outside the package; no protocol code passes one.
"""

from __future__ import annotations

import functools
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from operator import itemgetter

from .errors import BadLength, InvOfZero, IoError, NonCanonical, NotInGroup

__all__ = [
    "OpCounter",
    "Span",
    "Group",
    "ToyGroup",
    "Secp256k1Group",
    "toy_group",
    "toy_group_for_order",
    "curve_group",
    "group_from_descriptor",
    "derive_rng",
]


# ── operation counting ──────────────────────────────────────────────────────

@dataclass
class OpCounter:
    """Counts group operations (not scalar arithmetic) within one scope."""

    exponentiations: int = 0
    multiplications: int = 0

    def snapshot(self) -> tuple[int, int]:
        return (self.exponentiations, self.multiplications)


@dataclass
class Span:
    """What one ``with par.span()`` block cost; filled in when it exits."""

    wall_ns: int = 0
    exponentiations: int = 0
    multiplications: int = 0


# ── deterministic randomness ────────────────────────────────────────────────

def derive_rng(seed: int | str, *parts: object) -> random.Random:
    """Independent RNG stream for (seed, *parts).

    String seeding of ``random.Random`` hashes via SHA-512, so streams are
    stable across platforms and python versions, and distinct label tuples
    give unrelated streams.
    """
    return random.Random("|".join(str(p) for p in (seed, *parts)))


# ── shared interface ────────────────────────────────────────────────────────

class Group:
    """A prime-order cyclic group ⟨g1⟩ of order q with fixed-width codecs."""

    group_id: str
    q: int
    g1: object
    identity: object
    element_len: int
    wire_len: int
    scalar_len: int

    def __init__(self) -> None:
        self.ops_total = OpCounter()

    # group operations -------------------------------------------------

    def exp(self, base, e: int, ops: OpCounter | None = None):
        self.ops_total.exponentiations += 1
        if ops is not None:
            ops.exponentiations += 1
        return self._exp(base, e % self.q)

    def mul(self, a, b, ops: OpCounter | None = None):
        self.ops_total.multiplications += 1
        if ops is not None:
            ops.multiplications += 1
        return self._mul(a, b)

    def product(self, first, rest):
        """``first`` times each element of the sequence ``rest``, left to
        right.  Each step is one ``self.mul`` call, so ``span()``,
        ``ops_total`` and any ``mul`` set on the instance (perfbench's
        tracer sets one) count ``len(rest)`` multiplications.  An empty
        ``rest`` returns ``first`` itself.  Here the plain loop; the curve
        keeps a Jacobian accumulator between the calls."""
        mul = self.mul
        for x in rest:
            first = mul(first, x)
        return first

    @contextmanager
    def span(self):
        """Meter the enclosed block: wall time plus the exponentiations and
        multiplications it ran, read as deltas of ``ops_total``, so a span
        nested inside another is counted in both."""
        sp = Span()
        total = self.ops_total
        e0, m0 = total.exponentiations, total.multiplications
        t0 = time.perf_counter_ns()
        try:
            yield sp
        finally:
            sp.wall_ns = time.perf_counter_ns() - t0
            sp.exponentiations = total.exponentiations - e0
            sp.multiplications = total.multiplications - m0

    def fixed_base(self, point):
        """A base ``exp`` raises like ``point``, for a caller that raises it
        many times; here ``point`` itself.  A toy table would be faster than
        ``pow`` (10-bit rows raise a key in ≈0.3 µs against ≈1.2 µs, ≈9% of
        a toy verify), but it takes ≈0.28 ms to build, ≈280 checks of one
        key, and a verify is under 1% of a toy signing operation."""
        return point

    def is_element(self, x) -> bool:
        raise NotImplementedError

    def _exp(self, base, e: int):
        raise NotImplementedError

    def _mul(self, a, b):
        raise NotImplementedError

    # scalar field Z_q ---------------------------------------------------

    def s_inv(self, a: int) -> int:
        if a % self.q == 0:
            raise InvOfZero("no inverse of 0 mod q")
        return pow(a, -1, self.q)

    def random_scalar(self, rng: random.Random) -> int:
        """Uniform scalar in [1, q-1] by rejection sampling."""
        bits = self.q.bit_length()
        while True:
            x = rng.getrandbits(bits)
            if 1 <= x <= self.q - 1:
                return x

    # codecs -------------------------------------------------------------

    def encode_scalar(self, s: int) -> bytes:
        return (s % self.q).to_bytes(self.scalar_len, "big")

    def decode_scalar(self, data: bytes) -> int:
        if len(data) != self.scalar_len:
            raise BadLength(
                f"scalar must be {self.scalar_len} bytes, got {len(data)}"
            )
        s = int.from_bytes(data, "big")
        if s >= self.q:
            raise NonCanonical(f"scalar {s} >= group order {self.q}")
        return s

    def encode_element(self, x) -> bytes:
        """The canonical ``element_len``-byte form: hash inputs, key files."""
        raise NotImplementedError

    def encode_wire(self, x) -> bytes:
        """The ``wire_len``-byte form that tree payloads carry."""
        raise NotImplementedError

    def decode_element(self, data: bytes):
        """The element either form encodes; the one way to read a point."""
        raise NotImplementedError

    # persistence ---------------------------------------------------------

    def descriptor(self) -> dict:
        """JSON-safe description sufficient to reconstruct this group."""
        raise NotImplementedError


# ── toy backend: subgroup of Z_p^* ──────────────────────────────────────────

_TOY_P_LIMIT = 2**40   # trial division of a 40-bit p takes about 0.1 s


def _is_prime(n: int) -> bool:
    # trial division; only used on toy-scale moduli (below _TOY_P_LIMIT)
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# g1's table takes 10-bit digits: two rows of 1,024 cover a 20-bit q.
_TOY_DIGIT_BITS = 10
_TOY_DIGIT_MASK = (1 << _TOY_DIGIT_BITS) - 1

# The toy group memoises successful decodes: the subtree key aggregates
# arrive as the same bytes on every signature of one signer set.  At
# N = 1024 an operation decodes 2,046 encodings, 1,023 of them seen 2,045
# decodes earlier, so the memo holds 2,048.
_TOY_DECODES = 2048


def _toy_decode(p: int, q: int, data: bytes) -> int:
    """The subgroup element with big-endian encoding ``data``."""
    x = int.from_bytes(data, "big")
    if not (0 < x < p):
        raise NonCanonical(f"{x} outside [1, p-1]")
    if pow(x, q, p) != 1:
        raise NotInGroup(f"{x} is not in the order-{q} subgroup")
    return x


class ToyGroup(Group):
    """Order-q subgroup of Z_p^* with p = c*q + 1; elements are ints.

    Small enough to enumerate, so discrete logs are breakable on purpose —
    the attack demos refuse to run anywhere else.  Each group owns its
    decode memo and its ``g1`` table; neither refers back to the group,
    so dropping the group frees both.
    """

    def __init__(self, p: int, q: int, g: int):
        super().__init__()
        # a failed decode is not cached; a plain function, not a bound
        # method, so the memo does not refer back to the group
        self._decode_memo = functools.lru_cache(maxsize=_TOY_DECODES)(
            functools.partial(_toy_decode, p, q))
        # bound the sizes before trial division, which a crafted key file
        # could otherwise keep busy for hours; comparisons (not int()) keep
        # a non-int value a TypeError.  q = 2 has one nonzero scalar, so
        # every secret key, nonce and digest would be 1 and public
        if p >= _TOY_P_LIMIT or q < 3 or q >= p:
            raise ValueError("a toy group needs 3 <= q < p < 2^40")
        if not (_is_prime(p) and _is_prime(q)):
            raise ValueError("p and q must both be prime")
        if (p - 1) % q != 0:
            raise ValueError("q must divide p-1")
        if not (1 < g < p) or pow(g, q, p) != 1 or g == 1:
            raise ValueError("g does not generate an order-q subgroup")
        self.p = p
        self.q = q
        self.g1 = g
        self.identity = 1
        self.element_len = self.wire_len = max(2, (p.bit_length() + 7) // 8)
        self.scalar_len = max(2, (q.bit_length() + 7) // 8)
        self.group_id = f"toy:{p}:{q}:{g}"
        self._g1_rows: list | None = None

    def _g1_table(self) -> list:
        """Row j holds g1^(d·2^(10j)) for each digit d that row j of an
        exponent below q can take: at most 1,024 entries, never more than q."""
        rows = []
        base = self.g1
        for shift in range(0, self.q.bit_length(), _TOY_DIGIT_BITS):
            row = [1]
            for _ in range(min(_TOY_DIGIT_MASK, (self.q - 1) >> shift)):
                row.append(row[-1] * base % self.p)
            rows.append(row)
            base = pow(base, 1 << _TOY_DIGIT_BITS, self.p)
        return rows

    def _exp(self, base: int, e: int) -> int:
        if base != self.g1:
            return pow(base, e, self.p)
        rows = self._g1_rows
        if rows is None:
            rows = self._g1_rows = self._g1_table()
        p = self.p
        x = 1
        for row in rows:
            x = x * row[e & _TOY_DIGIT_MASK] % p
            e >>= _TOY_DIGIT_BITS
        return x

    def _mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def is_element(self, x) -> bool:
        return isinstance(x, int) and 0 < x < self.p and pow(x, self.q, self.p) == 1

    def encode_element(self, x: int) -> bytes:
        return x.to_bytes(self.element_len, "big")

    # one form on every path; an alias, so a tree payload costs no extra call
    encode_wire = encode_element

    def decode_element(self, data: bytes) -> int:
        if len(data) != self.element_len:
            raise BadLength(
                f"element must be {self.element_len} bytes, got {len(data)}"
            )
        return self._decode_memo(bytes(data))

    def descriptor(self) -> dict:
        return {"backend": "toy", "p": self.p, "q": self.q, "g": self.g1}


def toy_group() -> ToyGroup:
    """The worked-example group: p=23, q=11, g=2."""
    return ToyGroup(23, 11, 2)


def toy_group_for_order(q: int) -> ToyGroup:
    """Build a toy group for a chosen prime order q (intended q <= ~2^20).

    Finds the smallest even c with p = c*q + 1 prime, then a generator of
    the order-q subgroup as h^((p-1)/q).
    """
    if q.bit_length() > 25:
        raise ValueError("toy groups are for toy-sized q (<= ~2^25)")
    if not _is_prime(q):
        raise ValueError(f"q={q} is not prime")
    c = 2
    while not _is_prime(c * q + 1):
        c += 2
    p = c * q + 1
    for h in range(2, p):
        g = pow(h, (p - 1) // q, p)
        if g != 1:
            return ToyGroup(p, q, g)
    raise ValueError("no generator found")  # pragma: no cover


# ── secp256k1 backend ───────────────────────────────────────────────────────

_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

# Jacobian coordinates (X, Y, Z) ~ (X/Z^2, Y/Z^3); Z=0 is the identity.
# Its X is 0: a mixed addition to it finds U2 = x2·Z² = 0 = X, so the one
# special-case test in ``_accumulate`` (H = U2 - X = 0) also catches it.
_JAC_ID = (0, 1, 0)


def _jac_double(pt):
    X1, Y1, Z1 = pt
    if Z1 == 0 or Y1 == 0:
        return _JAC_ID
    A = (Y1 * Y1) % _P
    B = (4 * X1 * A) % _P
    D = (3 * (X1 * X1)) % _P  # a = 0 on secp256k1
    X3 = (D * D - 2 * B) % _P
    Y3 = (D * (B - X3) - 8 * (A * A)) % _P
    Z3 = (2 * Y1 * Z1) % _P
    return (X3, Y3, Z3)


def _jac_to_affine(pt):
    X, Y, Z = pt
    if Z == 0:
        return None
    zi = pow(Z, -1, _P)
    zi2 = (zi * zi) % _P
    return ((X * zi2) % _P, (Y * zi2 * zi) % _P)


def _jac_madd(p1, q2):
    """Jacobian ``p1`` plus affine ``q2`` (mixed addition, Z2 = 1)."""
    X1, Y1, Z1 = p1
    x2, y2 = q2
    if Z1 == 0:
        return (x2, y2, 1)
    Z1Z1 = (Z1 * Z1) % _P
    U2 = (x2 * Z1Z1) % _P
    S2 = (y2 * Z1 * Z1Z1) % _P
    if U2 == X1:
        if S2 != Y1:
            return _JAC_ID
        return _jac_double(p1)
    H = (U2 - X1) % _P
    R = (S2 - Y1) % _P
    HH = (H * H) % _P
    HHH = (H * HH) % _P
    V = (X1 * HH) % _P
    X3 = (R * R - HHH - 2 * V) % _P
    Y3 = (R * (V - X3) - Y1 * HHH) % _P
    Z3 = (Z1 * H) % _P
    return (X3, Y3, Z3)


# GLV (Gallant, Lambert and Vanstone, CRYPTO 2001): secp256k1 has the
# endomorphism φ(x, y) = (β·x, y) = λ·(x, y), with β a cube root of unity
# mod p and λ one mod n.  (a1, b1) and (a2, b2) are a reduced basis of the
# lattice of (a, b) with a + b·λ ≡ 0 (mod n); its determinant is n.
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
_B2 = _A1


def _glv_split(e: int) -> tuple[int, int]:
    """(k1, k2) with k1 + k2·λ ≡ e (mod n) and |k1|, |k2| < 2^128.

    Rounds (e, 0) to the nearest lattice point in the basis above (exact
    integer rounding, floor((2x + n) / 2n) = round(x / n)); the remainder
    is at most half a basis vector in each coordinate.
    """
    c1 = (2 * _B2 * e + _N) // (2 * _N)
    c2 = (-2 * _B1 * e + _N) // (2 * _N)
    return e - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


# Fixed-base comb (Lim and Lee, CRYPTO 1994) over the two GLV halves above:
# e = k1 + k2·λ with |k1|, |k2| < 2^128, and each half is recoded into
# signed w-bit digits in [-(2^(w-1) - 1), 2^(w-1)].  Row j holds the affine
# points d·2^(wj)·B for d = 1..2^(w-1), each packed into one int
# x | (y << 256).  The rows cover halves below 2^129, one bit of margin:
# the top row takes bits 120 to 128 plus the carry, so a digit of at most
# 512.  ``_accumulate``, the loop GLV runs too, takes k2's rows first,
# giving k2·B.  φ, which in Jacobian coordinates is (X, Y, Z) -> (β·X, Y,
# Z), then turns that into k2·λ·B with one field multiplication, and k1's
# rows follow.  A negative digit or half negates y.  So one mixed
# addition per nonzero digit, no doublings and one inversion.
#
# g1 is a constant of the curve, so its one table is built on first use
# and shared by every group: w = 12, 10 rows of 2,048 points and a top row
# of 512 (20,992 points, ≈2.1 MiB, ≈60 ms to build), at most 22
# additions.  Any other base gets a table only through ``fixed_base``,
# held by the caller that asked; the group keeps none.  A verifier may
# hold many of those, and each saves one exponentiation a check, so they
# keep w = 10: 13 rows of 512 (6,656 points, ≈0.65 MiB, ≈22 ms), at most
# 26 additions.  (Sizes by tracemalloc; times the medians of 5 interleaved
# rounds, each the fastest of 5 builds; Python 3.11.7, 2-vCPU VM.)
_G1 = (_GX, _GY)
_XMASK = (1 << 256) - 1
_g1_comb_table: list | None = None


def _comb_row(base, size: int) -> list:
    """d·B for d = 1..size, a power of two, as packed ints x | (y << 256),
    given the affine point ``base`` = B.

    The list of multiples 1..m doubles each round around the centre
    c = 3m/2: c·B ± d·B for d < m/2 share the denominator x_c − x_d,
    c·B + (m/2)·B is 2m·B, and c·B doubled, with denominator 2·y_c, is
    the next round's centre.  All of a round's denominators share one
    inversion (Montgomery's trick).  No addition meets equal or opposite
    points: every multiple is below n/2.
    """
    P = _P
    x, y = base
    x2, y2 = _jac_to_affine(_jac_double((x, y, 1)))
    xc, yc = _jac_to_affine(_jac_madd((x2, y2, 1), base))
    xs, ys = [x, x2], [y, y2]
    while len(xs) < size:
        h = len(xs) // 2
        acc = 1
        prefix = [1] + [acc := (acc * (xc - x)) % P for x in xs[:h]]
        inv = pow(acc * 2 * yc % P, -1, P)
        lam = (3 * xc * xc * inv * acc) % P
        inv = (inv * 2 * yc) % P
        xn = (lam * lam - 2 * xc) % P
        yn = (lam * (xc - xn) - yc) % P
        lo_x, lo_y, hi_x, hi_y = [], [], [], []
        for x, y, pre in zip(xs[h - 1::-1], ys[h - 1::-1], prefix[h - 1::-1]):
            i = (inv * pre) % P
            inv = (inv * (xc - x)) % P
            lam = ((yc - y) * i) % P           # c + d
            x3 = (lam * lam - x - xc) % P
            hi_x.append(x3)
            hi_y.append((lam * (x - x3) - y) % P)
            lam = ((yc + y) * i) % P           # c - d
            x3 = (lam * lam - x - xc) % P
            lo_x.append(x3)
            lo_y.append((lam * (x - x3) + y) % P)
        # lo holds c - m/2 .. c - 1, and c - m/2 = m is already in xs
        xs += lo_x[1:] + [xc] + hi_x[::-1]
        ys += lo_y[1:] + [yc] + hi_y[::-1]
        xc, yc = xn, yn
    return [x | (y << 256) for x, y in zip(xs, ys)]


def _build_comb(base) -> list:
    """``base``'s comb table: 12-bit digits for g1, 10-bit for any other."""
    bits = 12 if base == _G1 else 10
    rows = []
    for shift in range(0, 129, bits):
        if rows:  # 2^bits·B = 2·(2^(bits-1)·B), B the last row's base
            last = rows[-1][-1]
            base = _jac_to_affine(_jac_double((last & _XMASK, last >> 256, 1)))
        rows.append(_comb_row(base, min(1 << (bits - 1), 1 << (129 - shift))))
    return rows


def _accumulate(acc, steps):
    """The Jacobian ``acc`` after each step (doublings, x, y): that many
    doublings, then the affine (x, y) added; x None ends the run.  The one
    loop of every exponentiation, written out on local X, Y, Z (a call
    per step cost GLV ≈4%).  An addition with H = 0 (a doubling, a
    cancellation, or a start from the identity, whose X stays 0 when
    doubled) goes to ``_jac_madd``."""
    P = _P  # a local: a GLV run reads it over 1,000 times
    X, Y, Z = acc
    for n, x2, y2 in steps:
        while n:  # a range(0) per comb step cost the comb ≈3%
            A = (Y * Y) % P
            B = (4 * X * A) % P
            D = (3 * (X * X)) % P  # a = 0 on secp256k1
            Z = (2 * Y * Z) % P
            X = (D * D - 2 * B) % P
            Y = (D * (B - X) - 8 * (A * A)) % P
            n -= 1
        if x2 is None:
            break
        Z1Z1 = (Z * Z) % P
        H = (x2 * Z1Z1 - X) % P
        if not H:
            X, Y, Z = _jac_madd((X, Y, Z), (x2, y2))
            continue
        R = (y2 * Z * Z1Z1) % P - Y
        HH = (H * H) % P
        HHH = (H * HH) % P
        V = (X * HH) % P
        X = (R * R - HHH - 2 * V) % P
        Y = (R * (V - X) - Y * HHH) % P
        Z = (Z * H) % P
    return X, Y, Z


def _exp_comb(table: list, e: int):
    """B^e for any e >= 0, given B's comb ``table``: k2's rows, φ, then
    k1's rows through ``_accumulate``, one mixed addition per nonzero digit
    and one inversion.  The digit width w follows from row 0, which holds
    2^(w-1) points.  Each half is recoded into steps low digit first: a
    digit d above 2^(w-1) is read as d - 2^w, carrying 1 into the next."""
    P, M = _P, _XMASK
    half = len(table[0])
    bits, mask = half.bit_length(), 2 * half - 1
    k1, k2 = _glv_split(e)
    X, Y, Z = _JAC_ID
    # φ before each half: it turns k2·B into k2·λ·B, and fixes the identity
    for k in (k2, k1):
        neg = k < 0
        if neg:
            k = -k
        steps = []
        for row in table:
            d = k & mask
            k >>= bits
            if d > half:
                k += 1
                xy, flip = row[mask - d], not neg
            elif d:
                xy, flip = row[d - 1], neg
            else:
                continue
            y = xy >> 256
            steps.append((0, xy & M, P - y if flip else y))
        X, Y, Z = _accumulate(((_BETA * X) % P, Y, Z), steps)
    return _jac_to_affine((X, Y, Z))


def _wnaf5(e: int) -> list:
    """(bit, digit) for each nonzero width-5 NAF digit of e >= 0, least
    significant first, so e = sum(digit << bit); every digit is odd and in
    [-15, 15].  A run of zero digits costs one shift, not one step per bit.
    """
    pairs, bit = [], 0
    while e:
        zeros = (e & -e).bit_length() - 1
        e >>= zeros
        bit += zeros
        d = ((e + 16) & 31) - 16  # e mod 32, as a residue in [-16, 16)
        pairs.append((bit, d))
        e = (e - d) >> 5  # e - d ≡ 0 mod 32: the next four digits are 0
        bit += 5
    return pairs


def _glv_odd_multiples(base) -> tuple[list, int]:
    """(odd, u): the odd multiples P, 3P, ..., 15P of the affine point
    ``base`` = P as affine points of an isomorphic curve, and the factor
    that maps back: (x, y) in ``odd`` is (x/u², y/u³) on secp256k1.

    No inversion, as libsecp256k1 builds its ecmult table.  Doubling P in
    Jacobian coordinates gives 2P = (Xd, Yd, Zd); scaling P by Zd², Zd³
    moves it to y² = x³ + 7·Zd⁶, where 2P is the affine (Xd, Yd) and the
    formulas (a = 0) are unchanged.  Seven mixed additions of 2P give
    3P ... 15P there, each multiplying Z by its H; scaling each point by
    the later steps' H², H³ puts all eight on the last Z, so
    u = Zd·Z_last.  No step doubles or cancels: kP ≠ ±2P for odd k < 16
    in a group of prime order.
    """
    x, y = base
    Xd, Yd, Zd = _jac_double((x, y, 1))
    zz = (Zd * Zd) % _P
    X1, Y1, Z1 = (x * zz) % _P, (y * zz * Zd) % _P, 1
    pts, ratios = [(X1, Y1)], []
    for _ in range(7):
        Z1Z1 = (Z1 * Z1) % _P
        H = (Xd * Z1Z1) % _P - X1
        R = (Yd * Z1 * Z1Z1) % _P - Y1
        HH = (H * H) % _P
        HHH = (H * HH) % _P
        V = (X1 * HH) % _P
        X1 = (R * R - HHH - 2 * V) % _P
        Y1 = (R * (V - X1) - Y1 * HHH) % _P
        Z1 = (Z1 * H) % _P
        pts.append((X1, Y1))
        ratios.append((HH, HHH))
    odd = [pts.pop()]
    s2 = s3 = 1
    for (X, Y), (HH, HHH) in zip(reversed(pts), reversed(ratios)):
        s2, s3 = (s2 * HH) % _P, (s3 * HHH) % _P
        odd.append(((X * s2) % _P, (Y * s3) % _P))
    odd.reverse()
    return odd, (Zd * Z1) % _P


def _exp_glv(base, e: int):
    """base^e for any non-identity base: split e into two ≈128-bit halves
    k1 + k2·λ, then one ``_accumulate`` run of ≈128 doublings with one
    mixed addition per nonzero wNAF digit of either half, against the odd
    multiples of base and of φ(base), both on the curve of
    ``_glv_odd_multiples``.  One inversion, for the result.
    """
    P = _P
    k1, k2 = _glv_split(e)
    odd, u = _glv_odd_multiples(base)
    # (bit, x, y) per nonzero digit of either half, top bit first, then a
    # stop at bit 0 that adds nothing; a digit d reads |d|'s odd multiple,
    # negated when d and its half differ in sign
    adds = []
    for k, pts in ((k1, odd), (k2, [((_BETA * x) % P, y) for x, y in odd])):
        neg = k < 0
        for i, d in _wnaf5(abs(k)):
            x, y = pts[abs(d) >> 1]
            adds.append((i, x, P - y if (d < 0) != neg else y))
    adds.sort(key=itemgetter(0), reverse=True)
    adds.append((0, None, None))
    steps = [(top - i, x, y)
             for (top, _, _), (i, x, y) in zip([adds[0], *adds], adds)]
    X, Y, Z = _accumulate(_JAC_ID, steps)
    return _jac_to_affine((X, Y, (Z * u) % P))


# A compressed point costs a modular square root to decode, ≈0.8 of a g1
# exponentiation, so tree payloads carry the uncompressed form, whose
# decode checks the curve equation in a few field multiplications.
def _decompress(data: bytes):
    """The point with 33-byte compressed SEC1 encoding ``data`` (02/03),
    or the identity for 33 zero bytes."""
    if data == bytes(33):
        return None
    prefix = data[0]
    if prefix not in (2, 3):
        raise NonCanonical(f"bad compression prefix {prefix:#04x}")
    px = int.from_bytes(data[1:], "big")
    if px >= _P:
        raise NonCanonical(f"x-coordinate {px} >= field prime")
    y2 = (px * px * px + 7) % _P
    py = pow(y2, (_P + 1) // 4, _P)
    if (py * py) % _P != y2:
        raise NotInGroup(f"x-coordinate {px} is not on the curve")
    if (py & 1) != (prefix & 1):
        py = _P - py
    return (px, py)


def _parse_uncompressed(data: bytes):
    """The point with 65-byte uncompressed SEC1 encoding ``data``
    (04 ‖ x ‖ y), or the identity for 65 zero bytes.  Cofactor 1: a point
    on the curve is a group element."""
    if data[0] != 4:
        if data == bytes(65):
            return None
        raise NonCanonical(f"bad uncompressed prefix {data[0]:#04x}")
    px = int.from_bytes(data[1:33], "big")
    py = int.from_bytes(data[33:], "big")
    if px >= _P or py >= _P:
        raise NonCanonical("coordinate >= field prime")
    if (py * py - px * px * px - 7) % _P:
        raise NotInGroup(f"({px}, {py}) is not on the curve")
    return (px, py)


class Secp256k1Group(Group):
    """secp256k1 over affine tuples; identity is ``None``.

    Two SEC1 encodings (SEC 1 v2.0, §2.3.3–2.3.4).  The canonical one,
    which hashes and key files use, is 33-byte compressed (02/03 prefix +
    big-endian x).  Tree payloads carry the 65-byte uncompressed form
    (04 ‖ x ‖ y), which decodes without a square root.  SEC1 has no
    compressed or uncompressed form for the identity; here it is all zero
    bytes in either length.  ``decode_element`` reads both, by length.
    """

    def __init__(self) -> None:
        super().__init__()
        self.q = _N
        self.g1 = _G1
        self.identity = None
        self.element_len = 33
        self.wire_len = 65
        self.scalar_len = 32
        self.group_id = "secp256k1"

    def fixed_base(self, point):
        """``point``'s comb table, which ``exp`` takes as a base: ≈22 ms to
        build, then ≈0.63 ms saved a call over GLV.  g1's is built once,
        on first use, and shared by every group; ``exp`` reaches it here."""
        global _g1_comb_table
        if point != _G1:
            return None if point is None else _build_comb(point)
        if _g1_comb_table is None:
            _g1_comb_table = _build_comb(_G1)
        return _g1_comb_table

    def _exp(self, base, e: int):
        if base is None or e == 0:
            return None
        if base == _G1:
            base = self.fixed_base(base)
        if type(base) is list:
            return _exp_comb(base, e)
        return _exp_glv(base, e)

    def product(self, first, rest):
        """``Group.product`` with one inversion: ``first`` opens a Jacobian
        accumulator (X, Y, 1), or ``_JAC_ID`` for the identity, and each
        step is ``mul(acc, x)``, which takes the accumulator as its first
        argument and adds the affine ``x`` with one mixed addition.  The
        result is made affine once.  The accumulator never leaves here, and
        ``is_element`` refuses it."""
        if not rest:
            return first
        acc = _JAC_ID if first is None else (*first, 1)
        mul = self.mul
        for x in rest:
            acc = mul(acc, x)
        return _jac_to_affine(acc)

    def _mul(self, a, b):
        if b is None:
            return a
        if a is None:
            return b
        if len(a) == 3:  # product's accumulator: one mixed addition
            return _accumulate(a, ((0, *b),))
        x1, y1 = a
        x2, y2 = b
        if x1 == x2:
            if (y1 + y2) % _P == 0:
                return None
            lam = (3 * x1 * x1) * pow(2 * y1, -1, _P) % _P
        else:
            lam = (y2 - y1) * pow(x2 - x1, -1, _P) % _P
        x3 = (lam * lam - x1 - x2) % _P
        y3 = (lam * (x1 - x3) - y1) % _P
        return (x3, y3)

    def is_element(self, x) -> bool:
        if x is None:
            return True
        if not (isinstance(x, tuple) and len(x) == 2):
            return False
        px, py = x
        return (
            0 <= px < _P
            and 0 <= py < _P
            and (py * py - (px * px * px + 7)) % _P == 0
        )

    def encode_element(self, x) -> bytes:
        if x is None:
            return b"\x00" * 33
        px, py = x
        prefix = b"\x03" if py & 1 else b"\x02"
        return prefix + px.to_bytes(32, "big")

    def encode_wire(self, x) -> bytes:
        if x is None:
            return bytes(65)
        px, py = x
        return b"\x04" + px.to_bytes(32, "big") + py.to_bytes(32, "big")

    def decode_element(self, data: bytes):
        if len(data) == 65:
            return _parse_uncompressed(data)
        if len(data) == 33:
            return _decompress(data)
        raise BadLength(f"element must be 33 or 65 bytes, got {len(data)}")

    def descriptor(self) -> dict:
        return {"backend": "secp256k1"}


def curve_group() -> Secp256k1Group:
    return Secp256k1Group()


def group_from_descriptor(desc: dict) -> Group:
    """Rebuild a group from ``Group.descriptor()`` output (e.g. a key file)."""
    try:
        backend = desc["backend"]
        if backend == "toy":
            return ToyGroup(desc["p"], desc["q"], desc["g"])
        if backend == "secp256k1":
            return Secp256k1Group()
    except (KeyError, TypeError, ValueError) as exc:
        raise IoError(f"bad group descriptor: {exc}") from exc
    raise IoError(f"unknown backend {backend!r}")
