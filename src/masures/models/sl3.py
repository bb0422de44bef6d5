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
exactly at the special points.  A point keeps the apartment it was charted
through and its alpha-values (a, b); non-special points are barycenters of
the corners of their alcove, and those corners, each with the coweight
lam of its lattice class and its barycentric weight, are built only when
membership or equality reads them.

Membership and retraction are read exactly off valuations of minors of
polynomial matrices, with no division.  A corner class L = g . diag(t^-lam)
lies in the apartment of h iff the lattice of N = adj(h) . g . diag(t^-lam)
is diagonal, that is iff the row minima of the entry valuations of N sum
to val(det N); those row minima then give the class's coordinates in h.
Triangularizing a matrix over F_q[[t]] in the row order (r0, r1, r2) gives
pivot exponents whose partial sums are the least valuations of its minors
on rows {r0}, {r0, r1} and all three rows; order (0,1,2) reads off the
retraction from minus infinity and (2,1,0) that from plus infinity.
Those least valuations are minima of integer-affine functions of lam that
break only where some lam_j - lam_k is an integer, that is on walls, so
the retraction is affine on each alcove and is read once at the point's
own rational coweight lam = (a + b, b, 0), scaled to integers by the
common denominator of a and b.  Frames are exact Laurent polynomials, so
each of these numbers is exact.

A frame keeps its adjugate and its determinant valuation, which every
membership and retraction reading uses.  Random frames are products of
elementary and diagonal factors, built by column operations on the
identity frame, and their adjugates by the matching row operations
(adj(F E) = adj(E) adj(F)); their determinant valuation is the sum of the
diagonal factors' exponents.  Only a frame given as a bare matrix, such
as the standard apartment's, has its adjugate and determinant computed
from its entries.

Point equality is a membership reading too.  Every apartment charts the
model apartment injectively, so two points are equal exactly when one
lies in the other's apartment at the other's coordinates; a point hashes
as its retraction from minus infinity, which equal points share.  No
comparison divides, so none can run out of series coefficients.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction as Q
from typing import Sequence

from ..apartment import EnclosedSet, HalfApartment, empty_set, whole_apartment
from ..errors import DimensionMismatch, MasureError, PrecisionExhausted
from ..kmcore import (
    RootGeneratingSystem,
    default_realization,
    enumerate_real_roots,
    validate_matrix,
)
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


def _scaled(x: L.Laurent, m: L.Laurent) -> L.Laurent:
    """x . m, with nothing to do when x is zero."""
    return x if x.is_exact_zero else L.mul(x, m)


def _add_multiple(x: L.Laurent, u: L.Laurent, y: L.Laurent) -> L.Laurent:
    """x + u . y, with nothing to do when y is zero."""
    return x if y.is_exact_zero else L.add(x, L.mul(u, y))


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


@functools.lru_cache(maxsize=None)
def _identity(field: GF) -> Matrix:
    """The identity frame, built once per field."""
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
    """Point of one apartment's chart, kept as its alpha-values (a, b).

    `corners` are the (lam, weight) pairs of its alcove's corners, each
    standing for the class of frame . diag(t^-lam), built on first read.
    Two points are equal when the membership reading of one in the other's
    apartment gives the other's own alpha-values; a point hashes as its
    retraction from minus infinity.
    """

    __slots__ = ("apartment", "alpha", "_corners")

    def __init__(self, apartment: SL3Apartment, alpha: tuple[Q, Q]):
        self.apartment = apartment
        self.alpha = alpha
        self._corners = None

    @property
    def corners(self) -> tuple:
        if self._corners is None:
            self._corners = tuple(
                ((ca + cb, cb, 0), w) for ca, cb, w in _alcove_corners(*self.alpha)
            )
        return self._corners

    def __eq__(self, other) -> bool:
        if not isinstance(other, SL3Point):
            return False
        g, h = self.apartment, other.apartment
        if g.matrix[0][0].field != h.matrix[0][0].field:
            return False
        return _membership(*_relative_frame(h, g), self.corners) == other.alpha

    def __hash__(self) -> int:
        return hash(_retraction(self, (0, 1, 2)))

    def __repr__(self) -> str:
        return f"SL3Point(alpha=({self.alpha[0]}, {self.alpha[1]}))"


class SL3Apartment:
    """Frame matrix with exact polynomial entries, val(det) in 3Z; keeps
    its adjugate and the valuations of its entries, adjugate entries and
    determinant.

    A builder that tracks the adjugate and the determinant valuation along
    the frame, as `SL3Model.random_apartment` does, passes both; a frame
    given alone is checked for exact entries and invertibility, and both
    are read off it with `_adjugate` and `_det`."""

    __slots__ = ("matrix", "_adj", "_vals", "_adj_vals", "_det_val")

    def __init__(
        self, matrix: Matrix, adjugate: Matrix | None = None, det_val: int | None = None
    ):
        self.matrix = matrix
        if adjugate is None:
            if any(not e.exact for row in matrix for e in row):
                raise MasureError("frame entries must be exact polynomials")
            det = _det(matrix)
            if det.is_exact_zero:
                raise MasureError("frame is singular")
            det_val = det.val()
            adjugate = _adjugate(matrix)
        if det_val % 3 != 0:
            raise MasureError("frame determinant valuation must be divisible by 3")
        self._det_val = det_val
        self._adj = adjugate
        self._vals = _valuations(matrix)
        self._adj_vals = _valuations(adjugate)

    def __repr__(self) -> str:
        return "SL3Apartment(...)"


def _pivots(
    g: SL3Apartment, lam: Sequence[int], row_order: Sequence[int], scale: int = 1
) -> tuple[int, int, int]:
    """Pivot exponents of the triangular form of g . diag(t^-lam) in the
    given row order (r0, r1, r2), without forming it: their partial sums
    are the least valuations of the minors on rows {r0}, {r0, r1} and all
    rows, and the 2x2 minors on rows {r0, r1} are, up to sign, the
    adjugate entries adj(g)[c][r2], one for each dropped column c.  Every
    exponent is a minimum of functions linear in (lam, valuations), so
    with the valuations times `scale` this returns `scale` times the
    exponents at lam / scale."""
    r0, r1, r2 = row_order
    total = sum(lam)
    top = min(scale * g._adj_vals[c][r2] - (total - lam[c]) for c in range(3))
    d = [0, 0, 0]
    d[r0] = min(scale * v - e for v, e in zip(g._vals[r0], lam))
    d[r1] = top - d[r0]
    d[r2] = scale * g._det_val - total - top
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


def _retraction(point: SL3Point, row_order: Sequence[int]) -> Vector:
    """Realization coordinates of the point's retraction, from minus
    infinity for row order (0, 1, 2) and from plus infinity for (2, 1, 0).
    The pivots are affine on each alcove, so their barycenter over the
    corners is their reading at the point's own coweight (a + b, b, 0),
    taken in integers times the common denominator of a and b."""
    a, b = point.alpha
    scale = math.lcm(a.denominator, b.denominator)
    a_n = a.numerator * (scale // a.denominator)
    b_n = b.numerator * (scale // b.denominator)
    e0, e1, e2 = _pivots(point.apartment, (a_n + b_n, b_n, 0), row_order, scale)
    # the class diag(t^e) has coweight -e, so alpha-values (e1 - e0, e2 - e1)
    return _from_alpha(e1 - e0, e2 - e1, scale)


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


def _from_alpha(a, b, scale: int = 1) -> Vector:
    """Realization coordinates of the point with alpha-values
    (a / scale, b / scale)."""
    return (Q(2 * a + b, 3 * scale), Q(a + 2 * b, 3 * scale))


# simple-root coordinates of lam_m - lam_k, keyed (m, k), where alpha_1 is
# lam_0 - lam_1 and alpha_2 is lam_1 - lam_2
_COLUMN_ROOTS = {(0, 1): (1, 0), (1, 2): (0, 1), (0, 2): (1, 1),
                 (1, 0): (-1, 0), (2, 1): (0, -1), (2, 0): (-1, -1)}


@functools.lru_cache(maxsize=None)
def _window(window_radius: int) -> tuple[tuple[Vector, ...], tuple[tuple[int, int], ...]]:
    """The window's special points and their alpha-values, in the same
    order; built once per process for each radius, so every model hands
    out the same points."""
    span = range(-window_radius, window_radius + 1)
    alphas = tuple((a, b) for a in span for b in span if abs(a + b) <= window_radius)
    return tuple(_from_alpha(a, b) for a, b in alphas), alphas


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

    # realization coordinates -> alpha-values (a, b), the inverse of `_from_alpha`

    def _alpha_values(self, coords: Sequence) -> tuple[Q, Q]:
        if len(coords) != 2:
            raise DimensionMismatch("apartment coordinates have dimension 2")
        x1, x2 = (Q(c) for c in coords)
        n1, d1, n2, d2 = x1.numerator, x1.denominator, x2.numerator, x2.denominator
        # (2 x1 - x2, -x1 + 2 x2) over the common denominator d1 d2
        return (Q(2 * n1 * d2 - n2 * d1, d1 * d2), Q(2 * n2 * d1 - n1 * d2, d1 * d2))

    def chart(self, apartment: SL3Apartment, coords: Sequence) -> SL3Point:
        return SL3Point(apartment, self._alpha_values(coords))

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
        return None if reading is None else _from_alpha(*reading)

    def point_retract(self, point: SL3Point, germ) -> Vector:
        return _retraction(point, (0, 1, 2) if self._germ_sign(germ) < 0 else (2, 1, 0))

    def special_points(self, window_radius: int) -> tuple[Vector, ...]:
        return _window(window_radius)[0]

    def window_coords(
        self, first: SL3Apartment, second: SL3Apartment, window_radius: int, points
    ) -> list[Vector | None]:
        # The special point with alpha-values (a, b) charts to the single
        # corner lam = (a + b, b, 0) of weight 1, so its membership is one
        # diagonal reading of the relative frame, and its alpha-values in
        # `second` are (d1 - d0, d2 - d1).  `_membership`'s comparison with
        # the alcove corners of that reading is an identity for one integer
        # corner of weight 1, so skipping it here weakens nothing.  `points`
        # are `_window(window_radius)[0]`; their alpha-values are read instead.
        vals, det_val = self._relative(second, first)
        out = []
        for a, b in _window(window_radius)[1]:
            d = _diagonal_exponents(vals, det_val, (a + b, b, 0))
            out.append(None if d is None else _from_alpha(d[1] - d[0], d[2] - d[1]))
        return out

    def intersection(self, first: SL3Apartment, second: SL3Apartment) -> EnclosedSet:
        # `_diagonal_exponents` accepts the corner lam iff sum_i min_j
        # (v_ij - lam_j) = d - sum lam, whose left side never exceeds the
        # right: iff sum_i (v_{i j_i} - lam_{j_i}) + sum lam >= d for every
        # choice of columns (j_0, j_1, j_2).  Using each column once gives a
        # constant; column k twice and m never, D(lam_m - lam_k, sum - d);
        # one column thrice, nothing more (the tests pin this).  A point
        # lies in `second` iff its alcove's corners do, so the halves, at
        # integer levels, cut out the points as they cut out the corners.
        if self.same_apartment(first, second):
            return whole_apartment(self._rgs)
        vals, det_val = self._relative(second, first)
        least = {}
        for columns in itertools.product(range(3), repeat=3):
            total = sum(row[j] for row, j in zip(vals, columns))
            if total == math.inf:
                continue
            counts = [columns.count(j) for j in range(3)]
            if max(counts) == 1 and total < det_val:
                return empty_set(self._rgs)
            if max(counts) == 2:
                key = (counts.index(0), counts.index(2))
                least[key] = min(total, least.get(key, math.inf))
        roots = {r.coords: r for r in enumerate_real_roots(self._rgs, self.root_height_bound)}
        halves = [HalfApartment(roots[_COLUMN_ROOTS[key]], total - det_val)
                  for key, total in least.items()]
        return EnclosedSet(self._rgs, halves, truncated_at=self.root_height_bound)

    def same_apartment(self, first: SL3Apartment, second: SL3Apartment) -> bool:
        # adj(first) . second is monomial iff adj(second) . first is; asking
        # in this order shares the relative frame that charting points of
        # `first` into `second` reads
        vals, _ = self._relative(second, first)
        if any(sum(1 for v in row if v != math.inf) != 1 for row in vals):
            return False
        return all(sum(1 for row in vals if row[j] != math.inf) == 1 for j in range(3))

    def random_apartment(self, seed: int, complexity: int) -> SL3Apartment:
        """The product of `complexity` random factors, each an elementary
        x_ij(u) (two times in three), u a Laurent polynomial with
        valuation and complexity + 1 coefficients drawn, or a diagonal
        diag(c_r t^d_r) with units c_r and sum d divisible by 3.

        The frame is built by column operations: right-multiplying by
        x_ij(u) adds u . (column i) to column j, and by a diagonal factor
        scales column r by c_r t^d_r.  Its adjugate follows by the matching
        row operations, since adj(F E) = adj(E) adj(F): adj(x_ij(u)) is
        x_ij(-u), which takes u . (row j) from row i, and the adjugate of
        diag(m_0, m_1, m_2) scales row r by m_(r+1) m_(r+2).  The
        determinant valuation is the sum of the diagonal factors' d."""
        rng = random.Random(seed)
        field = self.field
        frame = [list(row) for row in _identity(field)]
        adj = [list(row) for row in _identity(field)]
        det_val = 0
        for _ in range(complexity):
            if rng.randrange(3) < 2:
                i, j = rng.sample(range(3), 2)
                val = rng.randrange(-complexity, complexity + 1)
                coeffs = [rng.randrange(field.q) for _ in range(complexity + 1)]
                u = L.from_coeffs(field, val, coeffs)
                if u.is_exact_zero:
                    continue
                for row in frame:
                    row[j] = _add_multiple(row[j], u, row[i])
                minus_u = L.neg(u)
                adj[i] = [_add_multiple(a, minus_u, b) for a, b in zip(adj[i], adj[j])]
            else:
                d = [rng.randrange(-complexity, complexity + 1) for _ in range(3)]
                d[2] -= (d[0] + d[1] + d[2]) % 3
                units = [rng.randrange(1, field.q) for _ in range(3)]
                m = [L.monomial(field, e, c) for e, c in zip(d, units)]
                for row in frame:
                    row[:] = [_scaled(e, m_r) for e, m_r in zip(row, m)]
                for r in range(3):
                    cofactor = L.mul(m[(r + 1) % 3], m[(r + 2) % 3])
                    adj[r] = [_scaled(e, cofactor) for e in adj[r]]
                det_val += sum(d)
        return SL3Apartment(tuple(map(tuple, frame)), tuple(map(tuple, adj)), det_val)
