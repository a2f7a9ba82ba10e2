"""Exception hierarchy shared across the package."""


class BsGraphError(Exception):
    """Base class for all errors raised by this package."""


class WordSyntaxError(BsGraphError):
    """Malformed word text (bad character, negative exponent, ...)."""


class NotAPrefix(BsGraphError):
    """A word was required to be a left divisor of another but is not."""


class DuplicateId(BsGraphError):
    """A vertex or edge name was declared twice."""


class UnknownVertex(BsGraphError):
    """An edge refers to a vertex that was never declared."""


class UnknownEdge(BsGraphError):
    """A path or square refers to an edge that does not exist."""


class BadColour(BsGraphError):
    """An edge colour token is not one of a/b (or 1/2 in grid mode)."""


class NotComposable(BsGraphError):
    """Consecutive edges do not meet (s of one is not r of the next)."""

    def __init__(self, index, message):
        super().__init__(message)
        self.index = index


class ColourMismatch(BsGraphError):
    """A square slot was filled with an edge of the wrong colour."""


class JunctionMismatch(BsGraphError):
    """A square's edge images do not meet at the required vertices."""


class NotCovered(BsGraphError):
    """A boundary path has no square in the collection; the collection
    is not complete for this graph."""

    def __init__(self, boundary, message):
        super().__init__(message)
        self.boundary = tuple(boundary)


class Conflict(BsGraphError):
    """Lifts are not unique: a boundary belongs to more than one square of
    the collection (a completeness violation), or two morphisms of a
    verify pool share a shortest traversal."""


class ResourceLimit(BsGraphError):
    """A model graph or enumeration would exceed the configured size bound."""


class FixtureSyntaxError(BsGraphError):
    """A fixture file line could not be parsed."""
