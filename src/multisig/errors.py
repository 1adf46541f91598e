"""Exception taxonomy shared across the library.

Everything raised on purpose derives from MultisigError so callers can
catch the library's failures without swallowing genuine bugs.
"""


class MultisigError(Exception):
    """Base class for all errors raised by this package."""


# -- encoding / decoding ----------------------------------------------------

class BadLength(MultisigError):
    """Byte string has the wrong length for the expected fixed-width field."""


class NonCanonical(MultisigError):
    """Bytes decode to a value outside the canonical range (e.g. >= modulus)."""


class NotInGroup(MultisigError):
    """Decoded element is not a member of the prime-order group."""


# -- arithmetic -------------------------------------------------------------

class InvOfZero(MultisigError):
    """Multiplicative inverse of zero requested."""


# -- protocol machinery -----------------------------------------------------

class NonceReuse(MultisigError):
    """A signing session was asked to release a response twice."""


class MixedSessions(MultisigError):
    """Sessions from different runs/backends were combined."""


class EmptySet(MultisigError):
    """An aggregate was requested over zero inputs."""


# -- tree simulation --------------------------------------------------------

class CapacityExceeded(MultisigError):
    """Requested node count does not fit in a tree of the given shape."""


class HandlerFailure(MultisigError):
    """A per-node handler raised during a phase; ``node`` names which."""

    def __init__(self, node: int, cause: BaseException):
        super().__init__(f"handler failed at node {node}: {cause!r}")
        self.node = node
        self.cause = cause


class BadPayload(MultisigError):
    """A payload failed to decode at its receiver; ``src`` names the node
    that sent it (``None`` for the root's own input)."""

    def __init__(self, src: int | None, cause: BaseException):
        super().__init__(f"bad payload from node {src}: {cause!r}")
        self.src = src
        self.cause = cause


# -- attacks ----------------------------------------------------------------

class BackendRefused(MultisigError):
    """Attack code refused to run against a non-toy backend."""


class KSumNotFound(MultisigError):
    """The k-list solver found no zero-sum combination for this instance."""


# -- endorsement simulation -------------------------------------------------

class PolicyUnsatisfied(MultisigError):
    """Endorsement policy could not be met (missing/failed endorsers)."""


class InvalidClient(MultisigError):
    """Submitting client failed registry/key verification."""


# -- i/o --------------------------------------------------------------------

class IoError(MultisigError):
    """Malformed or unreadable key/signature/report file."""
