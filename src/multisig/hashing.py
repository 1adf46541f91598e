"""Domain-separated hashing to scalars.

All protocol hashes are SHA-512 over a one-byte domain tag followed by the
length-prefixed input items, reduced mod the group order, with 0 read as 1.
Every digest is therefore a nonzero scalar: a challenge always has the
inverse the verifier needs, and no digest can cancel a key.  Four domains:

* ``H0`` — challenge derivation (programmable random-oracle slot)
* ``H1`` — key-possession / standalone challenge (random-oracle slot)
* ``H2`` — key blinding in possession proofs (target one-wayness suffices)
* ``H3`` — message digestion (target one-wayness suffices)

``derive_nonces`` hashes signing nonces under tags outside these domains.

The tag byte plus a 4-byte big-endian length prefix per item make the
serialization injective over tuples of byte strings: (b"ab", b"c") and
(b"a", b"bc") hash differently, as do same-bytes inputs under different
tags.  ``serialize_items`` defines those bytes; ``hash_to_scalar`` streams
exactly them into SHA-512, item by item, without building them.  Items
must be ``bytes``: callers encode scalars and group elements first, since
toy group elements are also ints and reducing one mod q would make
distinct elements hash alike.
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


_TAG_BYTES = {tag: bytes([tag]) for tag in HashDomain}


def _not_bytes(item) -> TypeError:
    return TypeError(f"hash items must be bytes, got {type(item).__name__} "
                     "(encode scalars and group elements with par.encode_* "
                     "first)")


# ── serialization ────────────────────────────────────────────────────────────

def serialize_items(tag: HashDomain, items: Iterable) -> bytes:
    """The bytes every protocol hash digests: tag ‖ (len₄(item) ‖ item)*."""
    out = [bytes([tag])]
    for item in items:
        if not isinstance(item, bytes):
            raise _not_bytes(item)
        out.append(len(item).to_bytes(4, "big"))
        out.append(item)
    return b"".join(out)


# ── hashing ──────────────────────────────────────────────────────────────────

def hash_to_scalar(par, tag: HashDomain, items: Iterable) -> int:
    """SHA-512(tag ‖ length-prefixed items) mod q, or 1 when that is 0.

    The result lies in [1, q).  A nonzero residue keeps its value, so 1
    comes out with probability 2/q and every other scalar with 1/q: a bias
    of 1/q, which is 2^-256 on the curve.

    The digest is SHA-512 of exactly ``serialize_items(tag, items)``, fed
    one item at a time, so no joined copy of the input is built.  Each
    item is type-checked before it is fed.
    """
    h = hashlib.sha512(_TAG_BYTES[tag])
    for item in items:
        if not isinstance(item, bytes):
            raise _not_bytes(item)
        h.update(len(item).to_bytes(4, "big") + item)
    return int.from_bytes(h.digest(), "big") % par.q or 1


def derive_nonces(par, tag: bytes, seed: int | str, sks) -> list[int]:
    """Nonce i is 1 + (SHA-512(tag ‖ len-prefixed str(seed) ‖ 0000 ‖ i ‖
    sk_i) mod (q-1)), 0000 being four zero bytes, i four big-endian bytes
    and sk_i ``par.encode_scalar(sk_i)``, in the spirit of RFC
    6979: without sk_i the seed reveals nothing about it, so a signature
    cannot be unwound into the key.  512 hash bits mod q-1 leave a bias
    below 2^-256 on the curve.  Equal inputs give equal nonces, so one seed
    signs one message.  ``tag`` must not start with a domain byte 0-3;
    ``seed`` must be an int or str, since another object's ``str`` need not
    be reproducible.
    """
    if not isinstance(seed, (int, str)):
        raise TypeError(f"nonce seed must be an int or str, "
                        f"got {type(seed).__name__}")
    seed_b = str(seed).encode()
    # four zero bytes after the seed fix the input layout that every
    # published nonce, seeded signature and golden vector was made with
    prefix = tag + len(seed_b).to_bytes(4, "big") + seed_b + bytes(4)
    sha512, encode, q1 = hashlib.sha512, par.encode_scalar, par.q - 1
    return [1 + int.from_bytes(sha512(prefix + i.to_bytes(4, "big")
                                      + encode(sk)).digest(), "big") % q1
            for i, sk in enumerate(sks)]
