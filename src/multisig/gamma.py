"""Single-signer signatures with a precomputable challenge.

The scheme splits signing so that everything involving the group — the
nonce commitment V = g1^v, the challenge c = H0(V, pk), and the product
v*c — happens before the message exists.  Producing a signature for a
message m is then two scalar operations:

    s = v*c - e*sk  (mod q),   e = H1(m)

and the signature is (c, s).  Verification recovers the commitment as
V = (g1^s * pk^e)^(1/c), computed as g1^(s/c) * pk^(e/c), and accepts
iff H0(V, pk) == c.

Each precomputed nonce is strictly one-time: reusing (v, c) for two
messages leaks the secret key by linear algebra, so ``sign_online``
consumes the nonce and a second use raises NonceReuse.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BadLength, NonceReuse
from .group import Group
from .hashing import H0, H1, derive_nonces, hash_to_scalar

__all__ = ["GammaNonce", "Signature", "precompute", "sign_online",
           "recover_commitment", "verify"]

_NONCE_TAG = b"multisig/gamma-nonce"  # tree sessions use b"multisig/nonce"


@dataclass(frozen=True)
class Signature:
    """A (c, s) scalar pair; also the joint-signature shape downstream."""

    c: int
    s: int

    def to_bytes(self, par: Group) -> bytes:
        return par.encode_scalar(self.c) + par.encode_scalar(self.s)

    @classmethod
    def from_bytes(cls, par: Group, data: bytes) -> "Signature":
        half = par.scalar_len
        if len(data) != 2 * half:
            raise BadLength(f"signature must be {2 * half} bytes, got {len(data)}")
        return cls(par.decode_scalar(data[:half]), par.decode_scalar(data[half:]))


@dataclass
class GammaNonce:
    """One precomputed signing token: (v, V, c, v*c).  Single use."""

    v: int
    V: object
    c: int
    vc: int
    used: bool = False


def precompute(par: Group, key, seed: int | str) -> GammaNonce:
    """Offline half of signing: one exponentiation, message not needed.

    ``key`` is a ``schemes.KeyPair``, as for every scheme.  v is
    ``derive_nonces`` over (seed, 0, sk): the key signs alone at index 0.
    c = H0(V, pk) is never 0, so the verifier's 1/c always exists.  One
    seed signs one message per key.
    """
    [v] = derive_nonces(par, _NONCE_TAG, seed, [key.sk])
    V = par.exp(par.g1, v)
    c = hash_to_scalar(par, H0, [par.encode_element(V),
                                 par.encode_element(key.y)])
    return GammaNonce(v, V, c, par.s_mul(v, c))


def sign_online(par: Group, key, nonce: GammaNonce, m: bytes) -> Signature:
    """Online half for the ``schemes.KeyPair`` that ran ``precompute``: two
    scalar multiplications, zero group operations."""
    if nonce.used:
        raise NonceReuse("precomputed nonce already consumed")
    nonce.used = True
    e = hash_to_scalar(par, H1, [m])
    s = par.s_sub(nonce.vc, par.s_mul(e, key.sk))
    return Signature(nonce.c, s)


def recover_commitment(par: Group, a: int, Y, b: int, c: int):
    """(g1^a * Y^b)^(1/c): the commitment the signature and possession-proof
    checks recompute.

    Signature checks pass (s, e, c), the proof check (d, b, a).  Computed
    as g1^(a/c) * Y^(b/c): two exponentiations, one of them on the fixed
    base g1, and one multiplication.  Equal to the literal form for every
    group element Y, since 1/c exists mod the prime q; c must be nonzero.
    """
    ci = par.s_inv(c)
    return par.mul(par.exp(par.g1, par.s_mul(a, ci)), par.exp(Y, par.s_mul(b, ci)))


def verify(par: Group, y, m: bytes, sig: Signature) -> bool:
    """Two exponentiations and one multiplication; constant in everything."""
    if not (0 < sig.c < par.q) or not (0 <= sig.s < par.q):
        return False
    e = hash_to_scalar(par, H1, [m])
    V = recover_commitment(par, sig.s, y, e, sig.c)
    return hash_to_scalar(par, H0, [par.encode_element(V), par.encode_element(y)]) == sig.c
