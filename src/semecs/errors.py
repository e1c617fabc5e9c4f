"""Exception hierarchy shared across the toolkit."""


class SemecsError(Exception):
    """Base class for all toolkit errors."""


class MalformedEncoding(SemecsError):
    """Octet string has the wrong length or decodes outside the valid range."""


class RngFailure(SemecsError):
    """The caller-supplied randomness source failed."""


class KeyExhausted(SemecsError):
    """All K signing indices of a multiple-time key have been consumed."""


class StatePersistFailure(SemecsError):
    """Signing counter could not be durably advanced; the signature was not released."""


class EmptyMessage(SemecsError):
    """Signing requires a non-empty message."""


class NotExtractable(SemecsError):
    """Transcript pair is singular (e == e*); the key cannot be solved for."""


class DuplicateBeta(SemecsError):
    """Two verification tokens collide; a sorted search index cannot be built."""


class CorruptState(SemecsError):
    """Key or state file failed magic/version/integrity/invariant validation."""


class StaleState(SemecsError):
    """On-disk counter does not match the expected value (concurrent writer)."""


class IoFailure(SemecsError):
    """Underlying filesystem operation failed."""
