"""Exception types shared across the package."""


class ShingleSyncError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParameterError(ShingleSyncError, ValueError):
    """A parameter is outside its documented domain."""


class InvalidSymbolError(ShingleSyncError, ValueError):
    """A character is not part of the active alphabet."""


class InvalidTokenError(ShingleSyncError, ValueError):
    """A token does not have the length required by the token alphabet."""


class InvalidShingleError(ShingleSyncError, ValueError):
    """A shingle is malformed (empty, too short, or interior delimiter)."""


class OverlapMismatchError(ShingleSyncError, ValueError):
    """Two shingles do not overlap as required by non-overlapping concatenation."""


class InconsistentMultisetError(ShingleSyncError):
    """A shingle multiset does not assemble into any delimited word."""


class NotUniqueError(ShingleSyncError):
    """A second decoding was detected where a unique one was required."""


class EncodingCapacityError(ShingleSyncError):
    """A shingle/occurrence pair does not fit below the reserved point range."""


class InvalidPointError(ShingleSyncError, ValueError):
    """An evaluation point lies inside the shingle-encoding range."""


class BoundExceededError(ShingleSyncError):
    """Reconciliation failed verification; the difference bound was too small."""


class PointCollisionError(ShingleSyncError):
    """A characteristic-polynomial ratio was non-invertible at a sample point."""


class CapacityError(ShingleSyncError):
    """A rateless stream ran out of fresh sample points."""


class TransportClosedError(ShingleSyncError):
    """The peer endpoint closed the channel."""


class ProtocolError(ShingleSyncError):
    """A malformed or unexpected frame arrived on the wire."""


class InvariantError(ShingleSyncError):
    """An internal consistency check of a session failed."""


class SessionAbortError(ShingleSyncError):
    """The reconciliation session was aborted by either endpoint."""
