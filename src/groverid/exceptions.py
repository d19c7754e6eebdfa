"""Exception types shared across the package."""


class GroveridError(Exception):
    """Base class for all package-specific errors."""


class IndistinguishableError(GroveridError):
    """Raised for N=2: the two oracles differ only by a global phase,
    so no scheme of any copy count can tell them apart."""


class TrivialStateError(GroveridError):
    """Raised when an operation needs a state that discriminates at
    least one pair but the state's discrimination graph is empty."""


class AmbiguousClassificationError(GroveridError):
    """Raised when identification finds zero or several candidates
    matching the black-box output; signals an invalid scheme."""


class ResourceCapError(GroveridError):
    """Raised when an enumeration, expansion or graph would exceed one of
    the fixed size caps (``schemes.MAX_TUPLES``,
    ``oracle.MAX_COMPOSITIONS``, ``oracle.MAX_COMPOSITION_ENTRIES``,
    ``discrimination.MAX_PAIRS``, ``optimizer.MAX_COVER_SETUP``) or the
    cover search's ``max_n``, checked before the work is done, or when
    the cover search enters more than ``optimizer.MAX_COVER_NODES``
    nodes."""


class SchemaError(GroveridError):
    """Raised when a JSON document does not conform to the scheme,
    state, or graph file schemas."""
