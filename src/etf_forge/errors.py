"""Exception hierarchy.

Every domain failure raises a subclass of :class:`EtfForgeError` with a
message naming the first violated identity, so callers (and the CLI) can
distinguish usage errors from certification failures.
"""


class EtfForgeError(Exception):
    """Base class for all library errors."""


class InputError(EtfForgeError):
    """A malformed document or an unresolvable reference: a usage error,
    not a failed identity (the CLI exits 2)."""


class DomainError(EtfForgeError):
    """Incompatible scalar domains or matrix dimensions."""


class DesignError(EtfForgeError):
    """A block-design identity or parameter relation failed."""


class HadamardError(EtfForgeError):
    """A matrix failed flatness or orthogonality verification."""


class FrameError(EtfForgeError):
    """A frame failed certification (norms, tightness, angles, ...)."""


class CatalogError(EtfForgeError):
    """Catalog storage problem (bad record, failed audit, lock trouble)."""


class RecordLookupError(CatalogError, InputError):
    """An id prefix that is empty, ambiguous or matches no record."""
