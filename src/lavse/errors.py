"""Exception hierarchy shared across the package."""


class LavseError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(LavseError, ValueError):
    """Array shapes do not satisfy an operation's contract."""


class NonFinite(LavseError, ValueError):
    """An input contains NaN or infinite entries."""


class RankDeficient(LavseError):
    """A matrix that must have full column rank does not.

    Carries the computed numerical rank so callers can report how far
    short the matrix falls.
    """

    def __init__(self, rank: int, needed: int, context: str = ""):
        self.rank = int(rank)
        self.needed = int(needed)
        self.context = context
        where = f" ({context})" if context else ""
        super().__init__(f"rank {self.rank} < required {self.needed}{where}")


class MaxIterations(LavseError):
    """An iterative solve exceeded its iteration cap."""


class UnboundedProblem(LavseError):
    """The LP relaxation claims an unbounded objective.

    Cannot happen for a well-posed absolute-residual objective; treated as
    an internal error.
    """


class InvalidArgument(LavseError, ValueError):
    """A scalar argument is outside its documented domain."""


class IndexOutOfRange(LavseError, IndexError):
    """A row index does not refer to a measurement of the model."""


class UnknownLabel(LavseError, KeyError):
    """A measurement label does not resolve to a row."""


class UnsupportedKind(LavseError, ValueError):
    """A measurement kind is not handled by the selected model builder."""


class DisconnectedBus(LavseError):
    """A bus has no incident line, so no flow-based row can reference it."""


class EmptyPartition(LavseError):
    """A partition selects no measurements."""


class ParseError(LavseError, ValueError):
    """An input document is malformed or violates its schema."""
