"""Exception types shared across the library."""


class SingletError(Exception):
    """Base class for every error this library raises on bad input."""


class DomainError(SingletError, ValueError):
    """An argument lies outside the domain of the requested operation."""


class UnsupportedSpecies(SingletError):
    """The operation is not defined for this module species."""


class NonSemisimpleTwist(SingletError):
    """The ribbon twist is not a scalar on this (non-simple) module."""


class NotProjectiveClass(SingletError):
    """The K-class is not the class of any direct sum of projectives."""


class NotLocal(SingletError):
    """Induction to the orbifold requires every summand to be local."""


class OracleSubtractionFailure(SingletError):
    """A multiset subtraction inside the recursion oracle went negative.

    This never happens on correct inputs; seeing it indicates a bug in one
    of the fusion paths, which is exactly what the oracle is for.
    """


class ExprSyntaxError(SingletError):
    """Malformed expression text; ``offset`` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class ExprSemanticError(SingletError):
    """Well-formed expression with an invalid atom for the given parameters."""

    def __init__(self, message: str, atom: str | None = None):
        super().__init__(message if atom is None else f"{message}: {atom}")
        self.atom = atom
