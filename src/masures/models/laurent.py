"""Formal Laurent series over a finite field, with precision tracking.

A series stores its coefficients from the valuation up and `known_to`,
the largest exponent whose coefficient is known (None means every
coefficient is known, i.e. the series is an exact Laurent polynomial).
Arithmetic propagates knowledge honestly: adding an exact polynomial to a
series known to order 5 yields a series known to order 5, and asking any
question the data cannot answer (the valuation of a series whose known
coefficients all vanish, a coefficient beyond `known_to`) raises
PrecisionExhausted rather than guessing.  Silent truncation is the one
thing this module refuses to do: a wrong "these lattices are equal" is
worse than no answer.

Division is where precision is spent.  Inverting an exact monomial is
exact; inverting anything else is capped by the precision argument.
"""

from __future__ import annotations

import math

from ..errors import PrecisionExhausted
from .finite_field import GF


class Laurent:
    """Coefficients `coeffs[i]` at exponent `val + i`; nothing else below
    `known_to` is nonzero.  Exact zero: empty coeffs, known_to None."""

    __slots__ = ("field", "val_", "coeffs", "known_to")

    def __init__(self, field: GF, val: int, coeffs, known_to: int | None = None):
        coeffs = list(coeffs)
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            val += 1
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        if known_to is not None and coeffs and val + len(coeffs) - 1 > known_to:
            del coeffs[known_to - val + 1 :]
            while coeffs and coeffs[-1] == 0:
                coeffs.pop()
        self.field = field
        self.val_ = val if coeffs else None
        self.coeffs = tuple(coeffs)
        self.known_to = known_to

    def __repr__(self) -> str:
        if not self.coeffs:
            tail = "" if self.known_to is None else f" + O(t^{self.known_to + 1})"
            return f"Laurent(0{tail})"
        terms = " + ".join(
            f"{c}*t^{self.val_ + i}" for i, c in enumerate(self.coeffs) if c
        )
        tail = "" if self.known_to is None else f" + O(t^{self.known_to + 1})"
        return f"Laurent({terms}{tail})"

    @property
    def exact(self) -> bool:
        return self.known_to is None

    @property
    def is_exact_zero(self) -> bool:
        return not self.coeffs and self.known_to is None

    def val(self):
        """Valuation; math.inf for the exact zero."""
        if self.coeffs:
            return self.val_
        if self.known_to is None:
            return math.inf
        raise PrecisionExhausted(
            f"series is zero to order {self.known_to} but not known beyond"
        )

    def coeff(self, e: int) -> int:
        if self.known_to is not None and e > self.known_to:
            raise PrecisionExhausted(f"coefficient at t^{e} beyond known order {self.known_to}")
        if not self.coeffs or e < self.val_ or e >= self.val_ + len(self.coeffs):
            return 0
        return self.coeffs[e - self.val_]

    def coeff_window(self, lo: int, hi: int) -> tuple[int, ...]:
        """Coefficients at exponents lo..hi-1."""
        return tuple(self.coeff(e) for e in range(lo, hi))


def zero(field: GF) -> Laurent:
    return Laurent(field, 0, ())


def inexact_zero(field: GF, known_to: int) -> Laurent:
    return Laurent(field, 0, (), known_to)


def monomial(field: GF, e: int, c: int = 1) -> Laurent:
    return Laurent(field, e, (c,))


def one(field: GF) -> Laurent:
    return monomial(field, 0)


def from_coeffs(field: GF, val: int, coeffs) -> Laurent:
    return Laurent(field, val, coeffs)


def _min_known(x: Laurent, y: Laurent) -> int | None:
    if x.known_to is None:
        return y.known_to
    if y.known_to is None:
        return x.known_to
    return min(x.known_to, y.known_to)


def add(x: Laurent, y: Laurent) -> Laurent:
    f = x.field
    known = _min_known(x, y)
    if not x.coeffs and not y.coeffs:
        return Laurent(f, 0, (), known)
    starts = [s.val_ for s in (x, y) if s.coeffs]
    lo = min(starts)
    hi = max(s.val_ + len(s.coeffs) for s in (x, y) if s.coeffs)
    if known is not None:
        hi = min(hi, known + 1)
    out = []
    for e in range(lo, hi):
        a = x.coeffs[e - x.val_] if x.coeffs and x.val_ <= e < x.val_ + len(x.coeffs) else 0
        b = y.coeffs[e - y.val_] if y.coeffs and y.val_ <= e < y.val_ + len(y.coeffs) else 0
        out.append(f.add(a, b))
    return Laurent(f, lo, out, known)


def neg(x: Laurent) -> Laurent:
    f = x.field
    return Laurent(f, x.val_ or 0, tuple(f.neg(c) for c in x.coeffs), x.known_to)


def sub(x: Laurent, y: Laurent) -> Laurent:
    return add(x, neg(y))


def mul(x: Laurent, y: Laurent) -> Laurent:
    f = x.field
    if x.is_exact_zero or y.is_exact_zero:
        return zero(f)
    # unknown tail of one factor enters at its known_to + 1 plus the other's
    # val; an inexact zero has val at least known_to + 1
    known = None
    for s, t in ((x, y), (y, x)):
        if s.known_to is not None:
            shift = t.val_ if t.coeffs else t.known_to + 1
            cap = s.known_to + shift
            known = cap if known is None else min(known, cap)
    if not x.coeffs or not y.coeffs:
        return Laurent(f, 0, (), known)
    out = [0] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        if a:
            for j, b in enumerate(y.coeffs):
                if b:
                    out[i + j] = f.add(out[i + j], f.mul(a, b))
    return Laurent(f, x.val_ + y.val_, out, known)


def inverse(x: Laurent, precision: int) -> Laurent:
    """1/x.  Exact for a monomial; otherwise the result is known to
    `precision` orders past its valuation (less if x was inexact)."""
    f = x.field
    if x.is_exact_zero:
        raise ZeroDivisionError("inverse of the zero series")
    v = x.val()  # raises PrecisionExhausted on an inexact zero
    if x.exact and len(x.coeffs) == 1:
        return monomial(f, -v, f.inv(x.coeffs[0]))
    if x.known_to is None:
        rel = precision
    else:
        rel = x.known_to - v
    c0inv = f.inv(x.coeffs[0])
    unit = [0] * (rel + 1)
    unit[0] = c0inv
    for m in range(1, rel + 1):
        acc = 0
        for i in range(1, min(m, len(x.coeffs) - 1) + 1):
            acc = f.add(acc, f.mul(x.coeffs[i], unit[m - i]))
        unit[m] = f.neg(f.mul(c0inv, acc))
    return Laurent(f, -v, unit, -v + rel)


def divide(x: Laurent, y: Laurent, precision: int) -> Laurent:
    return mul(x, inverse(y, precision))


def floor_div_monomial(x: Laurent, e: int) -> Laurent:
    """The part of x with exponents >= e, divided by t^e.  Coefficients of
    x below e never matter here, so this loses no knowledge."""
    if not x.coeffs:
        return zero(x.field) if x.known_to is None else inexact_zero(x.field, x.known_to - e)
    start = max(x.val_, e)
    kept = x.coeffs[start - x.val_ :]
    known = None if x.known_to is None else x.known_to - e
    return Laurent(x.field, start - e, kept, known)


def definitely_zero(x: Laurent) -> bool:
    """True for the exact zero, False when a nonzero coefficient is known,
    PrecisionExhausted when the data cannot tell."""
    if x.coeffs:
        return False
    if x.known_to is None:
        return True
    raise PrecisionExhausted(
        f"zero to order {x.known_to} but not known beyond"
    )


def equal(x: Laurent, y: Laurent) -> bool:
    return definitely_zero(sub(x, y))
