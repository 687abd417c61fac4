"""Exception hierarchy shared by all gaplab modules."""


class GaplabError(Exception):
    """Base class for all errors raised by this package."""


class DescriptorMismatchError(GaplabError):
    """Two objects live on different groups (or group/action mismatch)."""


class UnsupportedKindError(GaplabError):
    """The requested operation is not defined for this group/action kind."""


class PreconditionError(GaplabError):
    """A documented precondition of an operation was violated by the caller."""


class ResourceLimitError(GaplabError):
    """A support/size cap was exceeded; the message names the cap."""


class ConstructionError(GaplabError):
    """An action space could not be built from the given parameters."""


class GridResolutionError(GaplabError):
    """The discretization grid is too coarse for the requested construction."""
