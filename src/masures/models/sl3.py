"""The masure of SL3 over F_q((t)), at desk scale.

Building points are homothety classes of rank-3 lattices over F_q[[t]],
given by invertible matrices whose columns generate them.  An apartment is
a frame: an invertible matrix g with val(det g) divisible by 3, charting
the coweight point lam = (lam1, lam2, lam3) to the class of
g . diag(t^-lam1, t^-lam2, t^-lam3).  With this sign the elementary
unipotent x_alpha(u) fixes exactly the half-apartment D(alpha, omega(u)),
which is the anchor every retraction and membership computation here is
calibrated against.  The divisibility restriction keeps vertex types
matching between charts, so chart transitions land in the affine Weyl
group W^v x Q^vee rather than its type-rotating extension.

Apartment coordinates live in the realization of the A2 matrix; a point x
has alpha_1(x) = lam1 - lam2 and alpha_2(x) = lam2 - lam3, both integers
exactly at the special points.  Non-special points are barycenters of the
corners of their alcove; a point keeps the apartment it was charted
through and, for each corner, the coweight lam of its lattice class and
its barycentric weight.

Membership and retraction are read exactly off valuations of minors of
polynomial matrices, with no division.  A corner class L = g . diag(t^-lam)
lies in the apartment of h iff the lattice of N = adj(h) . g . diag(t^-lam)
is diagonal, that is iff the row minima of the entry valuations of N sum
to val(det N); those row minima then give the class's coordinates in h.
Triangularizing a matrix over F_q[[t]] in the row order (r0, r1, r2) gives
pivot exponents whose partial sums are the least valuations of its minors
on rows {r0}, {r0, r1} and all three rows; order (0,1,2) reads off the
retraction from minus infinity and (2,1,0) that from plus infinity.
Frames are exact Laurent polynomials, so each of these numbers is exact.

Point equality is a membership reading too.  Every apartment charts the
model apartment injectively, so two points are equal exactly when one
lies in the other's apartment at the other's coordinates; a point hashes
as its retraction from minus infinity, which equal points share.  No
comparison divides, so none can run out of series coefficients.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as Q
from typing import Sequence

from ..errors import DimensionMismatch, MasureError, PrecisionExhausted
from ..kmcore import RootGeneratingSystem, default_realization, validate_matrix
from ..linalg import Vector
from . import laurent as L
from .base import MasureModel
from .finite_field import GF

Matrix = tuple[tuple[L.Laurent, ...], ...]


def _sl3_rgs() -> RootGeneratingSystem:
    return default_realization(validate_matrix([[2, -1], [-1, 2]]))


# -- exact 3x3 Laurent linear algebra ----------------------------------------


def _matmul(A: Matrix, B: Matrix) -> Matrix:
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = L.zero(A[0][0].field)
            for k in range(3):
                acc = L.add(acc, L.mul(A[i][k], B[k][j]))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _det(A: Matrix) -> L.Laurent:
    def m2(a, b, c, d):
        return L.sub(L.mul(a, d), L.mul(b, c))

    return L.add(
        L.sub(
            L.mul(A[0][0], m2(A[1][1], A[1][2], A[2][1], A[2][2])),
            L.mul(A[0][1], m2(A[1][0], A[1][2], A[2][0], A[2][2])),
        ),
        L.mul(A[0][2], m2(A[1][0], A[1][1], A[2][0], A[2][1])),
    )


def _adjugate(A: Matrix) -> Matrix:
    def m2(a, b, c, d):
        return L.sub(L.mul(a, d), L.mul(b, c))

    cof = [[None] * 3 for _ in range(3)]
    idx = ((1, 2), (0, 2), (0, 1))
    for i in range(3):
        for j in range(3):
            r0, r1 = idx[i]
            c0, c1 = idx[j]
            minor = m2(A[r0][c0], A[r0][c1], A[r1][c0], A[r1][c1])
            cof[i][j] = minor if (i + j) % 2 == 0 else L.neg(minor)
    return tuple(tuple(cof[j][i] for j in range(3)) for i in range(3))


def _identity(field: GF) -> Matrix:
    return tuple(
        tuple(L.one(field) if i == j else L.zero(field) for j in range(3)) for i in range(3)
    )


# -- triangular form, the reference reading ------------------------------------


class TriangularForm:
    """Result of reducing an invertible matrix over the valuation ring.

    `pivots[r]` is the exponent of the monomial pivot in row r; `below` maps
    (row, pivot row) to the exact polynomial left after reduction, for rows
    processed after the pivot's.  The lattice is a diagonal one exactly
    when every `below` entry is zero.
    """

    __slots__ = ("pivots", "below")

    def __init__(self, pivots, below):
        self.pivots = pivots
        self.below = below

    @property
    def diagonal(self) -> bool:
        return all(e.is_exact_zero for e in self.below.values())


def _triangularize(M: Matrix, precision: int, row_order: Sequence[int]) -> TriangularForm:
    """Reduce M over Laurent series, dividing to `precision` orders, or
    raise PrecisionExhausted.  Nothing in the package calls it: the tests
    check `_pivots` and `_diagonal_exponents` against it, and
    perfbench/tracer.py looks it up by name."""
    field = M[0][0].field
    cols = [[M[i][j] for i in range(3)] for j in range(3)]

    for step, r in enumerate(row_order):
        # minimum valuation wins; an entry only known to be zero to some
        # order cannot win unless its possible valuations reach the
        # current minimum, in which case the budget is genuinely spent
        best = None
        best_val = math.inf
        floors = []
        for j in range(step, 3):
            e = cols[j][r]
            if e.coeffs:
                if e.val_ < best_val:
                    best, best_val = j, e.val_
            elif not e.exact:
                floors.append(e.known_to + 1)
        if best is None:
            if floors:
                raise PrecisionExhausted(
                    f"pivot for row {r} is zero to order {min(floors) - 1}"
                )
            raise MasureError("matrix is singular over the series field")
        if any(f <= best_val for f in floors):
            raise PrecisionExhausted(
                f"pivot valuation for row {r} undecidable at order {best_val}"
            )
        cols[step], cols[best] = cols[best], cols[step]
        pivot = cols[step][r]
        for j in range(step + 1, 3):
            entry = cols[j][r]
            if entry.is_exact_zero:
                continue
            q = L.divide(entry, pivot, precision)
            cols[j] = [L.sub(cols[j][i], L.mul(q, cols[step][i])) for i in range(3)]

    pivots = [0, 0, 0]
    for step, r in enumerate(row_order):
        pivot = cols[step][r]
        a = pivot.val()
        pivots[r] = a
        unit_inv = L.inverse(L.floor_div_monomial(pivot, a), precision)
        cols[step] = [L.mul(entry, unit_inv) for entry in cols[step]]
        cols[step][r] = L.monomial(field, a)

    below = {}
    for stepj in range(3):
        rj = row_order[stepj]
        for stepi in range(stepj + 1, 3):
            ri = row_order[stepi]
            a = pivots[ri]
            entry = cols[stepj][ri]
            q = L.floor_div_monomial(entry, a)
            if not q.is_exact_zero:
                cols[stepj] = [
                    L.sub(cols[stepj][k], L.mul(q, cols[stepi][k])) for k in range(3)
                ]
                entry = cols[stepj][ri]
            if entry.coeffs:
                lo = min(entry.val_, a)
            elif entry.known_to is None:
                lo = a
            else:
                lo = min(entry.known_to + 1, a)
            reduced = L.Laurent(field, lo, entry.coeff_window(lo, a))
            cols[stepj][ri] = reduced
            below[(ri, rj)] = reduced
    return TriangularForm(tuple(pivots), below)


# -- points and apartments -----------------------------------------------------


def _valuations(A: Matrix) -> tuple[tuple, ...]:
    """Entry valuations of an exact matrix; math.inf for a zero entry."""
    return tuple(tuple(e.val() for e in row) for row in A)


class SL3Point:
    """Barycenter of alcove corners of one apartment's chart.

    Each corner is a (lam, weight) pair standing for the class of
    frame . diag(t^-lam).  Two points are equal when the membership
    reading of one in the other's apartment gives the other's own
    alpha-values; a point hashes as its retraction from minus infinity.
    """

    __slots__ = ("apartment", "corners")

    def __init__(self, apartment: SL3Apartment, corners):
        self.apartment = apartment
        self.corners = tuple(corners)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SL3Point):
            return False
        g, h = self.apartment, other.apartment
        if g.matrix[0][0].field != h.matrix[0][0].field:
            return False
        own = _barycenter(([-e for e in lam], w) for lam, w in other.corners)
        return _membership(*_relative_frame(h, g), self.corners) == own

    def __hash__(self) -> int:
        return hash(_retraction(self, (0, 1, 2)))

    def __repr__(self) -> str:
        return f"SL3Point({len(self.corners)} corners)"


class SL3Apartment:
    """Frame matrix with exact polynomial entries, val(det) in 3Z; keeps
    its adjugate and the valuations of its entries, adjugate entries and
    determinant."""

    __slots__ = ("matrix", "_adj", "_vals", "_adj_vals", "_det_val")

    def __init__(self, matrix: Matrix):
        self.matrix = matrix
        if any(not e.exact for row in matrix for e in row):
            raise MasureError("frame entries must be exact polynomials")
        det = _det(matrix)
        if det.is_exact_zero:
            raise MasureError("frame is singular")
        self._det_val = det.val()
        if self._det_val % 3 != 0:
            raise MasureError("frame determinant valuation must be divisible by 3")
        self._adj = _adjugate(matrix)
        self._vals = _valuations(matrix)
        self._adj_vals = _valuations(self._adj)

    def __repr__(self) -> str:
        return "SL3Apartment(...)"


def _pivots(g: SL3Apartment, lam: Sequence[int], row_order: Sequence[int]) -> tuple[int, int, int]:
    """Pivot exponents of the triangular form of g . diag(t^-lam) in the
    given row order (r0, r1, r2), without forming it: their partial sums
    are the least valuations of the minors on rows {r0}, {r0, r1} and all
    rows, and the 2x2 minors on rows {r0, r1} are, up to sign, the
    adjugate entries adj(g)[c][r2], one for each dropped column c."""
    r0, r1, r2 = row_order
    total = sum(lam)
    top = min(g._adj_vals[c][r2] - (total - lam[c]) for c in range(3))
    d = [0, 0, 0]
    d[r0] = min(v - e for v, e in zip(g._vals[r0], lam))
    d[r1] = top - d[r0]
    d[r2] = g._det_val - total - top
    return tuple(d)


def _diagonal_exponents(vals, det_val: int, lam: Sequence[int]) -> list[int] | None:
    """Exponents e with P . diag(t^-lam) O^3 = diag(t^e) O^3, or None when
    that lattice is not diagonal; `vals` and `det_val` are the entry and
    determinant valuations of P.  The lattice lies in the diagonal lattice
    of its row minima with index val det minus their sum, so it is
    diagonal exactly when that index is zero."""
    d = [min(v - e for v, e in zip(row, lam)) for row in vals]
    return d if sum(d) == det_val - sum(lam) else None


def _relative_frame(h: SL3Apartment, g: SL3Apartment):
    """Entry valuations of the relative frame adj(h) . g, and
    val det(adj(h) . g) = 2 val det h + val det g."""
    return _valuations(_matmul(h._adj, g.matrix)), 2 * h._det_val + g._det_val


def _barycenter(weighted) -> tuple[Q, Q]:
    """Alpha-values (a, b) of the barycenter of the classes diag(t^e),
    given as (e, weight) pairs; such a class has coweight -e."""
    a = Q(0)
    b = Q(0)
    for e, w in weighted:
        a += w * (e[1] - e[0])
        b += w * (e[2] - e[1])
    return a, b


def _membership(vals, det_val: int, corners) -> tuple[Q, Q] | None:
    """Alpha-values in the chart of h of the point made of `corners` of the
    chart of g, or None when h does not contain it; `vals` and `det_val`
    are those of the relative frame adj(h) . g."""
    weighted = []
    for lam, w in corners:
        d = _diagonal_exponents(vals, det_val, lam)
        if d is None:
            return None
        weighted.append((d, w))
    a, b = _barycenter(weighted)
    # the corners of (a, b)'s alcove in this chart must be exactly the
    # classes the point is made of, with the same weights
    got = sorted((d[1] - d[0], d[2] - d[1], w) for d, w in weighted)
    return (a, b) if sorted(_alcove_corners(a, b)) == got else None


def _retraction(point: SL3Point, row_order: Sequence[int]) -> tuple[Q, Q]:
    """Alpha-values of the point's retraction, from minus infinity for row
    order (0, 1, 2) and from plus infinity for (2, 1, 0)."""
    return _barycenter((_pivots(point.apartment, lam, row_order), w) for lam, w in point.corners)


def _alcove_corners(a: Q, b: Q) -> list[tuple[int, int, Q]]:
    """Corners (integer alpha-values) and barycentric weights of the alcove
    containing the point with alpha-values (a, b); zero weights dropped."""
    m1 = a.numerator // a.denominator
    m2 = b.numerator // b.denominator
    f = a - m1
    g = b - m2
    if f + g <= 1:
        raw = [(m1, m2, 1 - f - g), (m1 + 1, m2, f), (m1, m2 + 1, g)]
    else:
        raw = [(m1 + 1, m2, 1 - g), (m1, m2 + 1, 1 - f), (m1 + 1, m2 + 1, f + g - 1)]
    return [(ca, cb, w) for ca, cb, w in raw if w > 0]


class SL3Model(MasureModel):
    """SL3 over F_q((t))."""

    name = "sl3"

    def __init__(self, q: int = 2):
        self.field = GF(q)
        self._rgs = _sl3_rgs()
        self._standard = SL3Apartment(_identity(self.field))
        self._relative_memo = None

    @property
    def rgs(self) -> RootGeneratingSystem:
        return self._rgs

    def standard_apartment(self) -> SL3Apartment:
        return self._standard

    # alpha-values (a, b) <-> realization coordinates

    def _alpha_values(self, coords: Sequence) -> tuple[Q, Q]:
        if len(coords) != 2:
            raise DimensionMismatch("apartment coordinates have dimension 2")
        x1, x2 = (Q(c) for c in coords)
        return (2 * x1 - x2, -x1 + 2 * x2)

    def _from_alpha(self, a: Q, b: Q) -> Vector:
        return (Q(2 * a + b, 3), Q(a + 2 * b, 3))

    def chart(self, apartment: SL3Apartment, coords: Sequence) -> SL3Point:
        a, b = self._alpha_values(coords)
        corners = [((ca + cb, cb, 0), w) for ca, cb, w in _alcove_corners(a, b)]
        return SL3Point(apartment, corners)

    def _relative(self, h: SL3Apartment, g: SL3Apartment):
        """`_relative_frame(h, g)`; the last pair asked for is kept, since
        a window's points all share it."""
        memo = self._relative_memo
        if memo is None or memo[0] is not h or memo[1] is not g:
            memo = (h, g, *_relative_frame(h, g))
            self._relative_memo = memo
        return memo[2], memo[3]

    def apartment_coords(self, apartment: SL3Apartment, point: SL3Point) -> Vector | None:
        reading = _membership(*self._relative(apartment, point.apartment), point.corners)
        return None if reading is None else self._from_alpha(*reading)

    def point_retract(self, point: SL3Point, germ) -> Vector:
        from ..apartment import minus_infinity

        order = (0, 1, 2) if germ == minus_infinity(self._rgs) else (2, 1, 0)
        return self._from_alpha(*_retraction(point, order))

    def special_points(self, window_radius: int) -> tuple[Vector, ...]:
        out = []
        for a in range(-window_radius, window_radius + 1):
            for b in range(-window_radius, window_radius + 1):
                if abs(a + b) <= window_radius:
                    out.append(self._from_alpha(Q(a), Q(b)))
        return tuple(out)

    def same_apartment(self, first: SL3Apartment, second: SL3Apartment) -> bool:
        # adj(first) . second is monomial iff adj(second) . first is; asking
        # in this order shares the relative frame that charting points of
        # `first` into `second` reads
        vals, _ = self._relative(second, first)
        if any(sum(1 for v in row if v != math.inf) != 1 for row in vals):
            return False
        return all(sum(1 for row in vals if row[j] != math.inf) == 1 for j in range(3))

    def random_apartment(self, seed: int, complexity: int) -> SL3Apartment:
        rng = random.Random(seed)
        frame = _identity(self.field)
        for _ in range(complexity):
            if rng.randrange(3) < 2:
                i, j = rng.sample(range(3), 2)
                val = rng.randrange(-complexity, complexity + 1)
                coeffs = [rng.randrange(self.field.q) for _ in range(complexity + 1)]
                u = L.from_coeffs(self.field, val, coeffs)
                factor = [[L.one(self.field) if r == c else L.zero(self.field) for c in range(3)] for r in range(3)]
                factor[i][j] = u
                frame = _matmul(frame, tuple(tuple(row) for row in factor))
            else:
                d = [rng.randrange(-complexity, complexity + 1) for _ in range(3)]
                d[2] -= (d[0] + d[1] + d[2]) % 3
                units = [rng.randrange(1, self.field.q) for _ in range(3)]
                factor = tuple(
                    tuple(
                        L.monomial(self.field, d[r], units[r]) if r == c else L.zero(self.field)
                        for c in range(3)
                    )
                    for r in range(3)
                )
                frame = _matmul(frame, factor)
        return SL3Apartment(frame)
