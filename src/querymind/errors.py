"""Exception hierarchy shared by all querymind modules."""


class QuerymindError(Exception):
    """Base class for all errors raised by this package."""


class InvalidCodeError(QuerymindError):
    """A code has the wrong length, out-of-range colors, or illegal repeats."""


class DomainError(QuerymindError):
    """A parameter is outside the documented domain of an operation."""


class CapacityError(QuerymindError):
    """An enumeration or search would exceed its configured budget."""


class ContradictionError(QuerymindError):
    """A transcript is internally inconsistent with the game."""


class ProtocolError(QuerymindError):
    """A strategy violated the game protocol (e.g. emitted an invalid code)."""
