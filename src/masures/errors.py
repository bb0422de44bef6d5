"""Shared exception types."""

from __future__ import annotations


class MasureError(Exception):
    """Base class for every error raised by this package."""


class MatrixValidationError(MasureError):
    """A candidate Kac-Moody matrix violates one or more axioms.

    ``violations`` is a list of tags: ("NotSquare",), ("NotInteger", i, j)
    for an entry that is not an ``int`` (a ``bool`` included),
    ("DiagonalNotTwo", i), ("PositiveOffDiagonal", i, j),
    ("AsymmetricZero", i, j).  All violations are collected, not just the
    first; ("NotSquare",) stands alone, because nothing else can be checked.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(":".join(str(p) for p in v) for v in self.violations))


class RealizationError(MasureError):
    """A supplied realization fails compatibility or freeness."""


class IndexOutOfRange(MasureError, IndexError):
    pass


class DimensionMismatch(MasureError, ValueError):
    pass


class NotARealRoot(MasureError, ValueError):
    pass


class EmptyInput(MasureError, ValueError):
    pass


class DegenerateSegment(MasureError, ValueError):
    pass


class NotOnWall(MasureError, ValueError):
    pass


class IllegalFold(MasureError, ValueError):
    pass


class NonGenericSegment(MasureError, ValueError):
    """A segment meets two walls at one parameter; resample the endpoint."""


class PrecisionExhausted(MasureError, ArithmeticError):
    """A series operation needed Laurent coefficients beyond those known.

    Raised only by the series arithmetic of `models.laurent` and by the
    reference triangularization `models.sl3._triangularize`, which
    nothing on a campaign path calls.  Deliberately fatal: silent
    truncation could turn an unequal pair of lattice classes into an
    "equal" verdict.
    """


class WindowTooSmall(MasureError):
    """An apartment intersection touches the sampling window on all sides.

    Nothing in the window then distinguishes the fitted set from a larger
    one; rerun with a bigger window.
    """
