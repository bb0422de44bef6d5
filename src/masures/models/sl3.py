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
through and its alpha-values (a, b), and is read once, at its coweight
lam = (a + b, b, 0) times the common denominator s of a and b.

Readings are exact valuations of minors of polynomial matrices, with no
division.  With v_ij and d the valuations of the relative frame adj(h) . g,
let F(lam) = sum_i min_j (v_ij - lam_j) - (d - sum lam).  Then F <= 0, and
at an integer lam, F = 0 exactly when the class g . diag(t^-lam) lies in
the apartment of h, whose coordinates there are the row minima d(lam).
A row's argmin changes only where some lam_j - lam_k is an integer, on a
wall, so one argmin per row serves a whole closed face, and F and d(lam)
are affine there.  Hence F = 0 at a point exactly when F = 0 at every
corner of its face, and d at the point is the barycenter of d at the
corners: membership and coordinates are read at s . lam, with the
valuations times s.  The corners' images form a face with the same
weights: on an alcove, F = 0 throughout makes the argmins a permutation,
so d is an affine Weyl element there, and on an edge, whose direction is
+-e_k modulo (1, 1, 1), exactly one row moves, so its image is a unit edge.

Triangularizing a matrix over F_q[[t]] in the row order (r0, r1, r2) gives
pivot exponents whose partial sums are the least valuations of its minors
on rows {r0}, {r0, r1} and all three rows; order (0,1,2) reads off the
retraction from minus infinity and (2,1,0) that from plus infinity.  They
too are minima of integer-affine functions of lam that break only on
walls, so the retraction is read at the same scaled coweight.

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

    Two points are equal when the membership reading of one in the other's
    apartment gives the other's own alpha-values; a point hashes as its
    retraction from minus infinity.
    """

    __slots__ = ("apartment", "alpha")

    def __init__(self, apartment: SL3Apartment, alpha: tuple[Q, Q]):
        self.apartment = apartment
        self.alpha = alpha

    def __eq__(self, other) -> bool:
        if not isinstance(other, SL3Point):
            return False
        g, h = self.apartment, other.apartment
        if g.matrix[0][0].field != h.matrix[0][0].field:
            return False
        return _membership(*_relative_frame(h, g), self.alpha) == other.alpha

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


def _diagonal_exponents(
    vals, det_val: int, lam: Sequence[int], scale: int = 1
) -> list[int] | None:
    """Exponents e with P . diag(t^-lam) O^3 = diag(t^e) O^3, or None when
    that lattice is not diagonal; `vals` and `det_val` are the entry and
    determinant valuations of P.  The lattice lies in the diagonal lattice
    of its row minima with index val det minus their sum, so it is
    diagonal exactly when that index is zero.  As in `_pivots`, with the
    valuations times `scale` this reads `scale` times the exponents at
    lam / scale."""
    d = [min(scale * v - e for v, e in zip(row, lam)) for row in vals]
    return d if sum(d) == scale * det_val - sum(lam) else None


def _relative_frame(h: SL3Apartment, g: SL3Apartment):
    """Entry valuations of the relative frame adj(h) . g, and
    val det(adj(h) . g) = 2 val det h + val det g."""
    return _valuations(_matmul(h._adj, g.matrix)), 2 * h._det_val + g._det_val


def _coweight(alpha: tuple[Q, Q]) -> tuple[int, tuple[int, int, int]]:
    """The common denominator s of the alpha-values (a, b) and the integer
    coweight s . (a + b, b, 0)."""
    a, b = alpha
    s = math.lcm(a.denominator, b.denominator)
    a_n = a.numerator * (s // a.denominator)
    b_n = b.numerator * (s // b.denominator)
    return s, (a_n + b_n, b_n, 0)


def _membership(vals, det_val: int, alpha: tuple[Q, Q]) -> tuple[Q, Q] | None:
    """Alpha-values in the chart of h of the point with alpha-values
    `alpha` in the chart of g, or None when h does not contain it; `vals`
    and `det_val` are those of the relative frame adj(h) . g."""
    s, lam = _coweight(alpha)
    d = _diagonal_exponents(vals, det_val, lam, s)
    return None if d is None else (Q(d[1] - d[0], s), Q(d[2] - d[1], s))


def _retraction(point: SL3Point, row_order: Sequence[int]) -> Vector:
    """Realization coordinates of the point's retraction, from minus
    infinity for row order (0, 1, 2) and from plus infinity for (2, 1, 0),
    read at the point's scaled coweight."""
    s, lam = _coweight(point.alpha)
    e0, e1, e2 = _pivots(point.apartment, lam, row_order, s)
    # the class diag(t^e) has coweight -e, so alpha-values (e1 - e0, e2 - e1)
    return _from_alpha(e1 - e0, e2 - e1, s)


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
        reading = _membership(*self._relative(apartment, point.apartment), point.alpha)
        return None if reading is None else _from_alpha(*reading)

    def point_retract(self, point: SL3Point, germ) -> Vector:
        return _retraction(point, (0, 1, 2) if self._germ_sign(germ) < 0 else (2, 1, 0))

    def special_points(self, window_radius: int) -> tuple[Vector, ...]:
        return _window(window_radius)[0]

    def window_coords(
        self, first: SL3Apartment, second: SL3Apartment, window_radius: int, points
    ) -> list[Vector | None]:
        # The special point with alpha-values (a, b) has the integer
        # coweight lam = (a + b, b, 0), so its membership is one diagonal
        # reading of the relative frame at scale 1, and its alpha-values in
        # `second` are (d1 - d0, d2 - d1).  `points` are
        # `_window(window_radius)[0]`; their alpha-values are read instead.
        vals, det_val = self._relative(second, first)
        out = []
        for a, b in _window(window_radius)[1]:
            d = _diagonal_exponents(vals, det_val, (a + b, b, 0))
            out.append(None if d is None else _from_alpha(d[1] - d[0], d[2] - d[1]))
        return out

    def intersection(self, first: SL3Apartment, second: SL3Apartment) -> EnclosedSet:
        # `_diagonal_exponents` accepts the integer lam iff sum_i min_j
        # (v_ij - lam_j) = d - sum lam, whose left side never exceeds the
        # right: iff sum_i (v_{i j_i} - lam_{j_i}) + sum lam >= d for every
        # choice of columns (j_0, j_1, j_2).  Using each column once gives a
        # constant; column k twice and m never, D(lam_m - lam_k, sum - d);
        # one column thrice, nothing more (the tests pin this).  The same
        # inequalities, times s, decide a point read at its coweight scaled
        # by s, so the halves cut out every point, not only special ones.
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
