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


class UnorderedSegment(MasureError, ValueError):
    """Segment endpoints a, b with a <= b failing in the Tits preorder, or
    undecided.  A Hecke path runs from a to b only when b - a lies in the
    Tits cone; folding a reversed or incomparable pair never ends."""


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


class InvalidWindow(MasureError, ValueError):
    """A sampling window radius below 1.  A negative window holds no
    special point, so a verdict on it would claim an empty intersection
    that was never sampled; 1 is also the least `verify-theorem` accepts."""


class UnsupportedGerm(MasureError, ValueError):
    """A retraction asked for from a sector germ other than the ones at
    +infinity and -infinity, the only germs the models retract from."""


class InvalidBound(MasureError, ValueError):
    """A root height or Weyl length bound below its least value.  A negative
    bound holds no root and no Weyl element, so a saturation or
    completeness answer about it would be wrong whichever way it went."""


class WindowTooSmall(MasureError):
    """Raised nowhere: every model computes its apartment intersections
    exactly, so no sampling window is too small.  Kept because the
    benchmark's tracer (`perfbench/tracer.py`) catches it around
    `check_MA2`."""
