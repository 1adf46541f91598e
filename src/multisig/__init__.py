"""Tree-structured multi-signatures with an offline/online split.

The package provides:

* ``group`` — interchangeable prime-order group backends (toy subgroup of
  Z_p^*, pure-python secp256k1) with exponentiation counting;
* ``hashing`` — four domain-separated hashes to nonzero scalars;
* ``gamma`` — the single-signer scheme whose challenge precomputes;
* ``tree`` — signer-tree topology and phase-by-phase message simulation;
* ``schemes`` — GMS / AGMS multi-signatures with possession proofs, a
  CoSi-style baseline, verification, and key/signature file formats;
* ``attacks`` — rogue-key and concurrent-session k-list forgeries against
  the baseline, with the reordered scheme as a negative control;
* ``endorsement`` — an endorsement-flow simulator comparing one aggregated
  signature against N individual ones;
* ``cli`` — the ``multisig`` command.
"""

from .errors import (
    BackendRefused,
    BadLength,
    CapacityExceeded,
    EmptySet,
    HandlerFailure,
    InvalidClient,
    InvOfZero,
    IoError,
    KSumNotFound,
    MixedSessions,
    MultisigError,
    NonCanonical,
    NonceReuse,
    NotInGroup,
    PolicyUnsatisfied,
)
from .group import (
    Group,
    OpCounter,
    Secp256k1Group,
    ToyGroup,
    curve_group,
    derive_rng,
    group_from_descriptor,
    toy_group,
    toy_group_for_order,
)
from .hashing import H0, H1, H2, H3, hash_to_scalar
from .schemes import (
    AggregateKey,
    KeyPair,
    KeyProof,
    PublicKey,
    Signature,
    agms_offline,
    agms_online,
    bare_keygen,
    cosi_sign,
    cosi_verify,
    derive_keys,
    gms_sign,
    key_aggregate,
    key_verify,
    keygen,
    verify,
)
from .tree import Tree, build_tree, min_branching

__version__ = "0.1.0"
