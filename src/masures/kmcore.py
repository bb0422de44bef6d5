"""Kac-Moody matrices, realizations, real roots, and the Tits cone.

The objects here are the vectorial (linear) half of apartment geometry: a
Kac-Moody matrix together with a realization gives simple roots (linear
forms) and simple coroots (vectors) on an exact rational space; simple
reflections generate the vectorial Weyl group, whose orbit of the simple
roots is the set of real roots.  Membership in the Tits cone is decided by
reflection descent, and the two preorders (Tits cone, coroot cone) compare
points of the apartment.

Everything is exact: coordinates are ``fractions.Fraction``, root
coordinates are ``int``.  Enumerations that would be infinite for
non-finite types take explicit bounds and never pretend to be complete
beyond them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Iterable, Sequence

from . import linalg
from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    MatrixValidationError,
    RealizationError,
)
from .linalg import Matrix, Vector

# -- matrices ---------------------------------------------------------------


@dataclass(frozen=True)
class KacMoodyMatrix:
    """An integer matrix with 2s on the diagonal, nonpositive entries off it,
    and symmetric vanishing (a_ij = 0 iff a_ji = 0)."""

    entries: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i][j]

    def rows(self) -> list[list[int]]:
        return [list(r) for r in self.entries]


def validate_matrix(rows: Sequence[Sequence[int]]) -> KacMoodyMatrix:
    """Check every axiom and report all violations at once."""
    n = len(rows)
    violations: list[tuple] = []
    if n == 0 or any(len(r) != n for r in rows):
        raise MatrixValidationError([("NotSquare",)])
    for r in rows:
        for x in r:
            if not isinstance(x, int):
                raise MatrixValidationError([("NotSquare",)])  # non-integer input
    for i in range(n):
        if rows[i][i] != 2:
            violations.append(("DiagonalNotTwo", i))
    for i in range(n):
        for j in range(n):
            if i != j and rows[i][j] > 0:
                violations.append(("PositiveOffDiagonal", i, j))
    for i in range(n):
        for j in range(i + 1, n):
            if (rows[i][j] == 0) != (rows[j][i] == 0):
                violations.append(("AsymmetricZero", i, j))
    if violations:
        raise MatrixValidationError(violations)
    return KacMoodyMatrix(tuple(tuple(r) for r in rows))


# -- realizations -----------------------------------------------------------


@dataclass(frozen=True)
class RootGeneratingSystem:
    """A Kac-Moody matrix realized on an exact rational space.

    ``simple_coroots`` are vectors, ``simple_roots`` linear forms (stored as
    coefficient tuples), both free families, with
    ``simple_roots[j](simple_coroots[i]) == matrix[i][j]``.
    """

    matrix: KacMoodyMatrix
    dim: int
    simple_coroots: tuple[Vector, ...]
    simple_roots: tuple[Vector, ...]

    @property
    def size(self) -> int:
        return self.matrix.size

    def root_value(self, i: int, v: Vector) -> Q:
        """alpha_i(v)."""
        if not 0 <= i < self.size:
            raise IndexOutOfRange(f"simple root index {i}")
        if len(v) != self.dim:
            raise DimensionMismatch(f"expected dim {self.dim}, got {len(v)}")
        return linalg.dot(self.simple_roots[i], v)

    def zero(self) -> Vector:
        return linalg.zeros(self.dim)


def _completion_marks(matrix: KacMoodyMatrix) -> list[int]:
    """Column indices that receive a fresh completion coordinate.

    Scanning columns from the last to the first and keeping a maximal
    independent family leaves exactly ``n - rank`` marked columns; marking
    from the back pins the convention (for the rank-1 affine matrix the
    column 0 form is the completed one).
    """
    n = matrix.size
    cols = [[Q(matrix[i, j]) for i in range(n)] for j in range(n)]
    kept: list[list[Q]] = []
    marked = []
    for j in range(n - 1, -1, -1):
        if linalg.rank(kept + [cols[j]]) > len(kept):
            kept.append(cols[j])
        else:
            marked.append(j)
    marked.reverse()
    return marked


def default_realization(matrix: KacMoodyMatrix) -> RootGeneratingSystem:
    """The bundled realization of dimension n + corank.

    Coroots are the first n standard basis vectors; form j acts on them by
    column j of the matrix, and dependent columns are completed by 0/1 unit
    rows in the extra coordinates so the forms come out free.
    """
    n = matrix.size
    marked = _completion_marks(matrix)
    c = len(marked)
    dim = n + c
    coroots = tuple(linalg.basis_vector(dim, i) for i in range(n))
    extra = {j: n + k for k, j in enumerate(marked)}
    forms = []
    for j in range(n):
        coeffs = [Q(matrix[i, j]) for i in range(n)] + [Q(0)] * c
        if j in extra:
            coeffs[extra[j]] = Q(1)
        forms.append(tuple(coeffs))
    rgs = RootGeneratingSystem(matrix, dim, coroots, tuple(forms))
    _check_realization(rgs)
    return rgs


def realization(
    matrix: KacMoodyMatrix,
    coroots: Sequence[Sequence],
    forms: Sequence[Sequence],
) -> RootGeneratingSystem:
    """A user-supplied realization, validated."""
    if not coroots or not forms:
        raise RealizationError("empty realization")
    dim = len(coroots[0])
    rgs = RootGeneratingSystem(
        matrix,
        dim,
        tuple(linalg.vec(v) for v in coroots),
        tuple(linalg.vec(f) for f in forms),
    )
    _check_realization(rgs)
    return rgs


def _check_realization(rgs: RootGeneratingSystem) -> None:
    n = rgs.size
    if len(rgs.simple_coroots) != n or len(rgs.simple_roots) != n:
        raise RealizationError("need one coroot and one form per index")
    for v in rgs.simple_coroots:
        if len(v) != rgs.dim:
            raise DimensionMismatch("coroot of wrong dimension")
    for f in rgs.simple_roots:
        if len(f) != rgs.dim:
            raise DimensionMismatch("form of wrong dimension")
    for i in range(n):
        for j in range(n):
            got = linalg.dot(rgs.simple_roots[j], rgs.simple_coroots[i])
            if got != rgs.matrix[i, j]:
                raise RealizationError(
                    f"alpha_{j}(coroot_{i}) = {got}, expected {rgs.matrix[i, j]}"
                )
    if not linalg.independent(rgs.simple_coroots):
        raise RealizationError("coroots are not free")
    if not linalg.independent(rgs.simple_roots):
        raise RealizationError("forms are not free")


# -- reflections and the Weyl group -----------------------------------------


def reflect_simple(rgs: RootGeneratingSystem, i: int, v: Vector) -> Vector:
    """r_i(v) = v - alpha_i(v) coroot_i."""
    value = rgs.root_value(i, v)
    return linalg.sub(v, linalg.scale(value, rgs.simple_coroots[i]))


def _simple_matrix(rgs: RootGeneratingSystem, i: int) -> Matrix:
    d = rgs.dim
    coroot = rgs.simple_coroots[i]
    form = rgs.simple_roots[i]
    return tuple(
        tuple((Q(1) if r == c else Q(0)) - coroot[r] * form[c] for c in range(d))
        for r in range(d)
    )


@dataclass(frozen=True, eq=False)
class WeylElement:
    """A vectorial Weyl group element.

    ``word`` is a shortest witnessing word found by the ball enumeration (or
    whatever word built it); the group element itself is the matrix.  The
    word convention is the usual one: the rightmost letter acts first, so
    ``matrix`` is the ordered product of the letters' reflection matrices.
    """

    rgs: RootGeneratingSystem
    word: tuple[int, ...]
    matrix: Matrix
    inverse_matrix: Matrix

    def __eq__(self, other) -> bool:
        return isinstance(other, WeylElement) and self.matrix == other.matrix

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"WeylElement(word={self.word!r})"

    @property
    def length_bound(self) -> int:
        return len(self.word)

    def is_identity(self) -> bool:
        return self.matrix == linalg.identity(self.rgs.dim)

    def act(self, v: Vector) -> Vector:
        if len(v) != self.rgs.dim:
            raise DimensionMismatch(f"expected dim {self.rgs.dim}, got {len(v)}")
        return linalg.matvec(self.matrix, v)

    def act_on_form(self, form: Vector) -> Vector:
        """(w . phi)(x) = phi(w^{-1} x)."""
        if len(form) != self.rgs.dim:
            raise DimensionMismatch(f"expected dim {self.rgs.dim}, got {len(form)}")
        return linalg.vecmat(form, self.inverse_matrix)

    def compose(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(
            self.rgs,
            self.word + other.word,
            linalg.matmul(self.matrix, other.matrix),
            linalg.matmul(other.inverse_matrix, self.inverse_matrix),
        )

    def inverse(self) -> "WeylElement":
        return WeylElement(
            self.rgs, tuple(reversed(self.word)), self.inverse_matrix, self.matrix
        )


def weyl_identity(rgs: RootGeneratingSystem) -> WeylElement:
    eye = linalg.identity(rgs.dim)
    return WeylElement(rgs, (), eye, eye)


def weyl_simple(rgs: RootGeneratingSystem, i: int) -> WeylElement:
    if not 0 <= i < rgs.size:
        raise IndexOutOfRange(f"simple reflection index {i}")
    m = _simple_matrix(rgs, i)
    return WeylElement(rgs, (i,), m, m)


def weyl_word(rgs: RootGeneratingSystem, word: Iterable[int]) -> WeylElement:
    w = weyl_identity(rgs)
    for i in word:
        w = w.compose(weyl_simple(rgs, i))
    return w


def act(w: WeylElement, v: Vector) -> Vector:
    return w.act(v)


def act_on_form(w: WeylElement, form: Vector) -> Vector:
    return w.act_on_form(form)


@functools.lru_cache(maxsize=None)
def weyl_ball(rgs: RootGeneratingSystem, length_bound: int) -> tuple[WeylElement, ...]:
    """All elements of word length <= length_bound, shortest words attached.

    Breadth-first over right multiplication, dedup by matrix; for finite
    Weyl groups the ball saturates and is the whole group.
    """
    eye = weyl_identity(rgs)
    seen = {eye.matrix: eye}
    frontier = [eye]
    simples = [weyl_simple(rgs, i) for i in range(rgs.size)]
    for _ in range(length_bound):
        new_frontier = []
        for w in frontier:
            for s in simples:
                ws = w.compose(s)
                if ws.matrix not in seen:
                    seen[ws.matrix] = ws
                    new_frontier.append(ws)
        if not new_frontier:
            break
        frontier = new_frontier
    return tuple(sorted(seen.values(), key=lambda w: (len(w.word), w.word)))


def weyl_ball_complete(rgs: RootGeneratingSystem, length_bound: int) -> bool:
    """True when the ball of this radius is already the whole Weyl group."""
    return len(weyl_ball(rgs, length_bound + 1)) == len(weyl_ball(rgs, length_bound))


# -- real roots --------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Root:
    """A real root: integer coordinates on the simple roots, its linear
    form, its coroot, and a provenance word with root = word . alpha_base."""

    rgs: RootGeneratingSystem
    coords: tuple[int, ...]
    form: Vector
    coroot: Vector
    base: int
    word: tuple[int, ...]

    def __eq__(self, other) -> bool:
        return isinstance(other, Root) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash(self.coords)

    def __repr__(self) -> str:
        return f"Root({self.coords!r})"

    @property
    def height(self) -> int:
        return sum(abs(c) for c in self.coords)

    @property
    def is_positive(self) -> bool:
        return all(c >= 0 for c in self.coords)

    def value(self, v: Vector) -> Q:
        if len(v) != self.rgs.dim:
            raise DimensionMismatch(f"expected dim {self.rgs.dim}, got {len(v)}")
        return linalg.dot(self.form, v)

    def negated(self) -> "Root":
        # -(w . alpha_i) = (w r_i) . alpha_i
        return Root(
            self.rgs,
            tuple(-c for c in self.coords),
            linalg.scale(-1, self.form),
            linalg.scale(-1, self.coroot),
            self.base,
            self.word + (self.base,),
        )

    def reflect(self, v: Vector) -> Vector:
        """r_alpha(v) = v - alpha(v) coroot."""
        return linalg.sub(v, linalg.scale(self.value(v), self.coroot))


def apply_to_root(w: WeylElement, root: Root) -> Root:
    """w . root, rightmost letter of the word acting first."""
    out = root
    for j in reversed(w.word):
        out = _reflect_root(w.rgs, j, out)
    return out


def simple_root(rgs: RootGeneratingSystem, i: int) -> Root:
    if not 0 <= i < rgs.size:
        raise IndexOutOfRange(f"simple root index {i}")
    coords = tuple(1 if j == i else 0 for j in range(rgs.size))
    return Root(rgs, coords, rgs.simple_roots[i], rgs.simple_coroots[i], i, ())


def _reflect_root(rgs: RootGeneratingSystem, j: int, root: Root) -> Root:
    # r_j(alpha) in coordinates: c_j -= sum_k a_{jk} c_k
    a = rgs.matrix
    shift = sum(a[j, k] * root.coords[k] for k in range(rgs.size))
    coords = list(root.coords)
    coords[j] -= shift
    form = linalg.sub(
        root.form, linalg.scale(linalg.dot(root.form, rgs.simple_coroots[j]), rgs.simple_roots[j])
    )
    coroot = reflect_simple(rgs, j, root.coroot)
    return Root(rgs, tuple(coords), form, coroot, root.base, (j,) + root.word)


@functools.lru_cache(maxsize=None)
def enumerate_real_roots(rgs: RootGeneratingSystem, height_bound: int) -> tuple[Root, ...]:
    """All real roots of height <= height_bound, both signs.

    Breadth-first closure of the simple roots under simple reflections on
    the positive side; complete up to the bound because reflection chains
    inside the bound never need to leave it (heights change by one
    reflection step at a time and roots of minimal height are simple).
    """
    frontier = [simple_root(rgs, i) for i in range(rgs.size)]
    found = {r.coords: r for r in frontier}
    while frontier:
        new_frontier = []
        for root in frontier:
            for j in range(rgs.size):
                image = _reflect_root(rgs, j, root)
                if not image.is_positive or image.height > height_bound:
                    continue
                if image.coords not in found:
                    found[image.coords] = image
                    new_frontier.append(image)
        frontier = new_frontier
    positives = [r for r in found.values() if r.height <= height_bound]
    everything = positives + [r.negated() for r in positives]
    return tuple(sorted(everything, key=lambda r: (r.height, r.coords)))


def positive_roots(rgs: RootGeneratingSystem, height_bound: int) -> tuple[Root, ...]:
    return tuple(r for r in enumerate_real_roots(rgs, height_bound) if r.is_positive)


def roots_saturated(rgs: RootGeneratingSystem, height_bound: int) -> bool:
    """True when the bound already captures every real root.

    One closure pass: if no simple reflection of a found positive root
    produces a new positive root, the set is reflection-closed, and a
    reflection-closed set containing the simple roots is all of them.
    """
    found = {r.coords for r in positive_roots(rgs, height_bound)}
    for root in positive_roots(rgs, height_bound):
        for j in range(rgs.size):
            image = _reflect_root(rgs, j, root)
            if image.is_positive and image.coords not in found:
                return False
    return True


# -- Tits cone ---------------------------------------------------------------


@dataclass(frozen=True)
class ConeLocation:
    """Where a vector sits relative to the Tits cone.

    kind: "zero" | "interior" | "boundary" | "not_in_cone" | "unknown";
    side +1 for the cone itself, -1 for its negative; zero_set is the set of
    simple-root indices vanishing on the dominant representative.
    """

    kind: str
    side: int
    zero_set: frozenset[int]

    @property
    def decided_in(self) -> bool:
        return self.kind in ("zero", "interior", "boundary")


def _descend(rgs: RootGeneratingSystem, v: Vector, step_bound: int):
    """Reflect at the least negative simple root until dominant.

    Returns ("dominant", u) | ("cycle", None) | ("exhausted", None).
    """
    u = v
    seen = {u}
    for _ in range(step_bound):
        i = next((i for i in range(rgs.size) if rgs.root_value(i, u) < 0), None)
        if i is None:
            return "dominant", u
        u = reflect_simple(rgs, i, u)
        if u in seen:
            return "cycle", None
        seen.add(u)
    if all(rgs.root_value(i, u) >= 0 for i in range(rgs.size)):
        return "dominant", u
    return "exhausted", None


def _parabolic_is_finite(rgs: RootGeneratingSystem, J: frozenset[int], order_cap: int) -> bool:
    """Close the subgroup generated by {r_j : j in J} up to order_cap."""
    if not J:
        return True
    eye = linalg.identity(rgs.dim)
    seen = {eye}
    frontier = [eye]
    gens = [_simple_matrix(rgs, j) for j in sorted(J)]
    while frontier:
        new_frontier = []
        for m in frontier:
            for g in gens:
                mg = linalg.matmul(m, g)
                if mg not in seen:
                    if len(seen) >= order_cap:
                        return False
                    seen.add(mg)
                    new_frontier.append(mg)
        frontier = new_frontier
    return True


def tits_membership(
    rgs: RootGeneratingSystem,
    v: Vector,
    step_bound: int = 200,
    order_cap: int = 10000,
) -> ConeLocation:
    """Locate v relative to the Tits cone (union of Weyl images of the
    closed fundamental chamber) by reflection descent.

    Interior versus boundary is decided by finiteness of the parabolic
    fixing the dominant representative; exceeding order_cap counts as
    infinite.  A descent that neither terminates nor cycles within
    step_bound yields "unknown".
    """
    if len(v) != rgs.dim:
        raise DimensionMismatch(f"expected dim {rgs.dim}, got {len(v)}")
    if all(x == 0 for x in v):
        return ConeLocation("zero", 0, frozenset())
    proven_out = True
    for side in (1, -1):
        status, dom = _descend(rgs, linalg.scale(side, v), step_bound)
        if status == "dominant":
            J = frozenset(i for i in range(rgs.size) if rgs.root_value(i, dom) == 0)
            kind = "interior" if _parabolic_is_finite(rgs, J, order_cap) else "boundary"
            return ConeLocation(kind, side, J)
        if status != "cycle":
            proven_out = False
    if proven_out:
        return ConeLocation("not_in_cone", 0, frozenset())
    return ConeLocation("unknown", 0, frozenset())


EQ = "EQ"
LE = "LE"
GE = "GE"
LE_STRICT_INTERIOR = "LE_strict_interior"
GE_STRICT_INTERIOR = "GE_strict_interior"
INCOMPARABLE = "Incomparable"
UNKNOWN = "Unknown"


def tits_preorder(
    rgs: RootGeneratingSystem,
    x: Vector,
    y: Vector,
    step_bound: int = 200,
    order_cap: int = 10000,
) -> str:
    """Compare x <= y in the Tits preorder (y - x in the Tits cone)."""
    loc = tits_membership(rgs, linalg.sub(y, x), step_bound, order_cap)
    if loc.kind == "zero":
        return EQ
    if loc.kind == "interior":
        return LE_STRICT_INTERIOR if loc.side > 0 else GE_STRICT_INTERIOR
    if loc.kind == "boundary":
        return LE if loc.side > 0 else GE
    if loc.kind == "not_in_cone":
        return INCOMPARABLE
    return UNKNOWN


def dominance_compare(rgs: RootGeneratingSystem, x: Vector, y: Vector) -> str:
    """Compare in the coroot cone: x <= y iff y - x is a nonnegative
    rational combination of the simple coroots (unique by freeness)."""
    if len(x) != rgs.dim or len(y) != rgs.dim:
        raise DimensionMismatch("points of wrong dimension")
    if x == y:
        return EQ
    d = linalg.sub(y, x)
    cols = tuple(zip(*rgs.simple_coroots))  # dim x n system
    sol = linalg.solve(cols, d)
    if sol is None or linalg.vecmat(sol, rgs.simple_coroots) != d:
        return INCOMPARABLE
    if all(c >= 0 for c in sol):
        return LE
    if all(c <= 0 for c in sol):
        return GE
    return INCOMPARABLE


def coroot_coordinates(rgs: RootGeneratingSystem, v: Vector) -> Vector | None:
    """v as a rational combination of simple coroots, or None."""
    cols = tuple(zip(*rgs.simple_coroots))
    sol = linalg.solve(cols, v)
    if sol is None or linalg.vecmat(sol, rgs.simple_coroots) != v:
        return None
    return sol
