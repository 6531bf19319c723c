"""Exception hierarchy shared across the package."""

from __future__ import annotations

import math


class MatchainError(Exception):
    """Base class for all errors raised by matchain."""


class InconsistentPropertiesError(MatchainError):
    """A property set contradicts itself (e.g. vector + symmetric)."""


class DimensionPropertyMismatchError(MatchainError):
    """A property is incompatible with the operand's dimensions."""


class NonSquareError(MatchainError):
    """An inverse was requested for a non-square operand."""


class ParseError(MatchainError):
    """Base class for expression parsing errors.

    ``position`` is the 0-based character offset into the source text.
    """

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class ExprSyntaxError(ParseError):
    pass


class UndeclaredSymbolError(ParseError):
    pass


class NestedUnaryError(ParseError):
    """A unary operator was applied to an already-tagged factor."""


class InvalidChainError(MatchainError):
    """A chain with validation diagnostics was passed to the solver."""

    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        summary = "; ".join(str(d) for d in self.diagnostics)
        super().__init__(f"chain failed validation: {summary}")


class ProblemFileError(MatchainError):
    """A problem file could not be read; carries the 1-based line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class KernelConfigError(MatchainError):
    """A kernel configuration file could not be read."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class NoKernelApplicableError(MatchainError):
    """No kernel sequence within the length bound computes a combination.

    Signals an incomplete kernel database. ``segment`` is the (start, end)
    factor range of the offending combination when known.
    """

    def __init__(self, message: str, segment: tuple[int, int] | None = None):
        super().__init__(message)
        self.segment = segment


def _magnitude(value: int) -> str:
    """``value`` in decimal, or its power of ten when it has more digits
    than Python writes out."""
    try:
        return str(value)
    except ValueError:
        return f"~10^{int(math.log10(value))}"


class CostOverflowError(MatchainError):
    """A cost lies beyond the float range.

    Either one call's cost does: ``kernel_id`` at dimensions ``mkn``, in
    the chain segment ``segment`` (start, end) when the solver knows it. Or
    every call's cost fits but the total of the chain segment ``segment``
    does not, once its calls are charged its index multiplicity
    ``multiplicity``; ``kernel_id`` and ``mkn`` then name the segment's
    final call, and the message names the segment.
    """

    def __init__(
        self,
        kernel_id: str,
        mkn: tuple[int, int, int],
        multiplicity: int = 1,
        segment: tuple[int, int] | None = None,
    ):
        what = f"cost of {kernel_id} at (m, k, n) = {mkn}"
        if segment is not None:
            what = (
                f"total cost of factors {segment[0]}..{segment[1]} ({what}, "
                f"index multiplicity {_magnitude(multiplicity)})"
            )
        super().__init__(f"{what} is too large for a float")
        self.kernel_id = kernel_id
        self.mkn = mkn
        self.multiplicity = multiplicity
        self.segment = segment


class UnsatisfiableError(MatchainError):
    """A single-factor chain carries a tag no unary kernel discharges."""
