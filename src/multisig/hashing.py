"""Domain-separated hashing to scalars.

All protocol hashes are SHA-512 over a one-byte domain tag followed by the
length-prefixed input items, reduced mod the group order.  Four domains:

* ``H0`` — challenge derivation (programmable random-oracle slot)
* ``H1`` — key-possession / standalone challenge (random-oracle slot)
* ``H2`` — key blinding in possession proofs (target one-wayness suffices)
* ``H3`` — message digestion (target one-wayness suffices)

The tag byte plus a 4-byte big-endian length prefix per item make the
serialization injective over tuples of byte strings: (b"ab", b"c") and
(b"a", b"bc") hash differently, as do same-bytes inputs under different
tags.  Items are either raw ``bytes`` or ``int`` scalars (fixed-width
encoded); group elements must be pre-encoded by the caller, since toy
group elements are also ints and silent coercion would be ambiguous.
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

def _item_bytes(par, item) -> bytes:
    if isinstance(item, bytes):
        return item
    if isinstance(item, int):
        return par.encode_scalar(item)
    raise TypeError(
        f"hash items must be bytes or int scalars, got {type(item).__name__}"
        " (encode group elements with par.encode_element first)"
    )


def serialize_items(par, tag: HashDomain, items: Iterable) -> bytes:
    out = [bytes([tag])]
    for item in items:
        data = item if type(item) is bytes else _item_bytes(par, item)
        out.append(len(data).to_bytes(4, "big"))
        out.append(data)
    return b"".join(out)


# ── hashing ──────────────────────────────────────────────────────────────────

def hash_to_scalar(par, tag: HashDomain, items: Iterable) -> int:
    """SHA-512(tag ‖ length-prefixed items) reduced into [0, q)."""
    digest = hashlib.sha512(serialize_items(par, tag, items)).digest()
    return int.from_bytes(digest, "big") % par.q
