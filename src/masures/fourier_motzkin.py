"""Exact feasibility of small linear systems by Fourier-Motzkin elimination.

A constraint is (coeffs, const, strict) meaning coeffs . v + const >= 0,
with > instead of >= when strict.  Dimensions and constraint counts stay
small here (apartment dimensions, a few dozen half-spaces), which is the
regime where Fourier-Motzkin is simpler and more trustworthy than a
simplex implementation.

Elimination runs over the integers.  Each constraint is scaled to an
integer row (coeffs..., const) and divided by the gcd of its entries, so
one half-space has one row and duplicates collapse; combining two rows
keeps them integral.  `Fraction` arithmetic is left to the
back-substitution that builds the witness.
"""

from __future__ import annotations

import math
from fractions import Fraction as Q
from typing import Sequence

from .errors import DimensionMismatch
from .linalg import clear_denominators

Constraint = tuple[tuple[Q, ...], Q, bool]

# (c_0, ..., c_{dim-1}, const) in lowest terms, and strictness
Row = tuple[tuple[int, ...], bool]


def _primitive(entries: list[int]) -> tuple[int, ...]:
    g = math.gcd(*entries)
    return tuple(x // g for x in entries) if g > 1 else tuple(entries)


def _integer_row(coeffs: Sequence, const) -> tuple[int, ...]:
    values = [x if isinstance(x, (int, Q)) else Q(x) for x in (*coeffs, const)]
    _, (row,) = clear_denominators([values])
    return _primitive(list(row))


def _combine(p: tuple[int, ...], n: tuple[int, ...], k: int) -> tuple[int, ...]:
    # p has positive coefficient on var k, n negative; eliminate var k
    g = math.gcd(p[k], n[k])
    a, b = p[k] // g, -n[k] // g
    return _primitive([a * y + b * x for x, y in zip(p, n)])


def _bound(row: tuple[int, ...], k: int, denom: int, scaled: Sequence[int]) -> Q:
    """The value of var k that makes the row zero, given the earlier vars
    as integers `scaled` over the common denominator `denom`."""
    rest = sum(c * x for c, x in zip(row, scaled)) + row[-1] * denom
    return Q(-rest, row[k] * denom)


def feasible(constraints: Sequence[Constraint], dim: int) -> tuple[Q, ...] | None:
    """An exact rational point satisfying every constraint, or None."""
    current: dict[Row, None] = {}
    for coeffs, const, strict in constraints:
        if len(coeffs) != dim:
            raise DimensionMismatch(f"constraint of arity {len(coeffs)}, expected {dim}")
        current[(_integer_row(coeffs, const), strict)] = None

    stages: list[tuple[int, list[Row], list[Row]]] = []
    rows = list(current)
    for k in range(dim - 1, -1, -1):
        pos = [r for r in rows if r[0][k] > 0]
        neg = [r for r in rows if r[0][k] < 0]
        stages.append((k, pos, neg))
        fresh: dict[Row, None] = {r: None for r in rows if r[0][k] == 0}
        for p, pstrict in pos:
            for n, nstrict in neg:
                fresh[(_combine(p, n, k), pstrict or nstrict)] = None
        rows = list(fresh)

    for row, strict in rows:
        if row[-1] < 0 or (strict and row[-1] == 0):
            return None

    # rows of stage k vanish on the vars above k, and the vars below k are
    # already fixed when var k is chosen
    witness = [Q(0)] * dim
    for k, pos, neg in reversed(stages):
        denom, (scaled,) = clear_denominators([witness[:k]])
        lower = None  # (value, strict)
        upper = None
        for row, strict in pos:
            bound = _bound(row, k, denom, scaled)
            if lower is None or bound > lower[0] or (bound == lower[0] and strict):
                lower = (bound, strict)
        for row, strict in neg:
            bound = _bound(row, k, denom, scaled)
            if upper is None or bound < upper[0] or (bound == upper[0] and strict):
                upper = (bound, strict)
        if lower is None and upper is None:
            value = Q(0)
        elif upper is None:
            value = lower[0] + 1
        elif lower is None:
            value = upper[0] - 1
        elif lower[0] == upper[0]:
            value = lower[0]  # elimination guarantees both bounds non-strict here
        else:
            value = (lower[0] + upper[0]) / 2
        witness[k] = value
    return tuple(witness)
