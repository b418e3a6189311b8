"""Exception hierarchy shared across the package.

Each class derives from one of three categories, which the command line
maps to its exit code: ``ParseError`` (exit 2), ``PreconditionError``
(exit 3) or, for a failure of the package itself, ``LavseError`` (exit 5).
"""


class LavseError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(LavseError):
    """An input violates a precondition of the computation; the command line exits 3."""


class DimensionMismatch(PreconditionError, ValueError):
    """Array shapes do not satisfy an operation's contract."""


class NonFinite(PreconditionError, ValueError):
    """An input contains NaN or infinite entries."""


class RankDeficient(PreconditionError):
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


class InvalidArgument(PreconditionError, ValueError):
    """A scalar argument is outside its documented domain."""


class IndexOutOfRange(PreconditionError, IndexError):
    """A row index does not refer to a measurement of the model."""


class UnknownLabel(PreconditionError, KeyError):
    """A measurement label does not resolve to a row.

    Carries the label; ``context`` says where it was named.  The message
    is readable text, not ``KeyError``'s quoted key.
    """

    def __init__(self, label, context: str = ""):
        self.label = label
        self.context = context
        super().__init__(label)

    def __str__(self) -> str:
        where = f" in {self.context}" if self.context else ""
        return f"unknown measurement label {self.label!r}{where}"


class UnsupportedKind(PreconditionError, ValueError):
    """A measurement kind is not handled by the selected model builder."""


class DisconnectedBus(PreconditionError):
    """A bus has no incident line, so no flow-based row can reference it."""


class EmptyPartition(PreconditionError):
    """A partition selects no measurements."""


class ParseError(LavseError, ValueError):
    """An input document is malformed or violates its schema."""
