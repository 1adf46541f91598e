"""Domain-separated hashing to scalars.

All protocol hashes are SHA-512 over a one-byte domain tag followed by the
length-prefixed input items, reduced mod the group order.  Four domains:

* ``H0`` — challenge derivation (programmable random-oracle slot)
* ``H1`` — key-possession / standalone challenge (random-oracle slot)
* ``H2`` — key blinding in possession proofs (target one-wayness suffices)
* ``H3`` — message digestion (target one-wayness suffices)

``derive_nonces`` hashes signing nonces under tags outside these domains.

The tag byte plus a 4-byte big-endian length prefix per item make the
serialization injective over tuples of byte strings: (b"ab", b"c") and
(b"a", b"bc") hash differently, as do same-bytes inputs under different
tags.  Items must be ``bytes``: callers encode scalars and group elements
first, since toy group elements are also ints and reducing one mod q
would make distinct elements hash alike.
"""

from __future__ import annotations

import hashlib
from enum import IntEnum
from typing import Iterable

__all__ = [
    "HashDomain",
    "H0",
    "H1",
    "H2",
    "H3",
    "serialize_items",
    "hash_to_scalar",
    "derive_nonces",
]


class HashDomain(IntEnum):
    CHALLENGE = 0   # H0
    KEY_PROOF = 1   # H1
    KEY_BLIND = 2   # H2
    MESSAGE = 3     # H3


H0 = HashDomain.CHALLENGE
H1 = HashDomain.KEY_PROOF
H2 = HashDomain.KEY_BLIND
H3 = HashDomain.MESSAGE


# ── serialization ────────────────────────────────────────────────────────────

def serialize_items(par, tag: HashDomain, items: Iterable) -> bytes:
    out = [bytes([tag])]
    for item in items:
        if not isinstance(item, bytes):
            raise TypeError(
                f"hash items must be bytes, got {type(item).__name__} (encode"
                " scalars and group elements with par.encode_* first)"
            )
        out.append(len(item).to_bytes(4, "big"))
        out.append(item)
    return b"".join(out)


# ── hashing ──────────────────────────────────────────────────────────────────

def hash_to_scalar(par, tag: HashDomain, items: Iterable) -> int:
    """SHA-512(tag ‖ length-prefixed items) reduced into [0, q)."""
    digest = hashlib.sha512(serialize_items(par, tag, items)).digest()
    return int.from_bytes(digest, "big") % par.q


def derive_nonces(par, tag: bytes, seed: int | str, attempt: int,
                  sks) -> list[int]:
    """Nonce i is 1 + (SHA-512(tag ‖ len-prefixed str(seed) ‖ attempt ‖ i ‖
    sk_i) mod (q-1)), in the spirit of RFC 6979: without sk_i the seed
    reveals nothing about it, so a signature cannot be unwound into the key.
    512 hash bits mod q-1 leave a bias below 2^-256 on the curve.  Equal
    inputs give equal nonces, so one seed signs one message.  ``tag`` must
    not start with a domain byte 0-3; ``seed`` must be an int or str, since
    another object's ``str`` need not be reproducible.
    """
    if not isinstance(seed, (int, str)):
        raise TypeError(f"nonce seed must be an int or str, "
                        f"got {type(seed).__name__}")
    seed_b = str(seed).encode()
    prefix = (tag + len(seed_b).to_bytes(4, "big") + seed_b
              + attempt.to_bytes(4, "big"))
    sha512, encode, q1 = hashlib.sha512, par.encode_scalar, par.q - 1
    return [1 + int.from_bytes(sha512(prefix + i.to_bytes(4, "big")
                                      + encode(sk)).digest(), "big") % q1
            for i, sk in enumerate(sks)]
