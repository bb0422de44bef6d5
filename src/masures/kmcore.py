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
    InvalidBound,
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
    """Check every axiom and report all violations at once.

    A ``bool`` is not an integer entry here, although Python counts it as
    one; a non-integer entry is reported and left out of the other checks.
    """
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise MatrixValidationError([("NotSquare",)])
    a = [[x if isinstance(x, int) and not isinstance(x, bool) else None for x in r] for r in rows]
    violations: list[tuple] = [
        ("NotInteger", i, j) for i in range(n) for j in range(n) if a[i][j] is None
    ]
    for i in range(n):
        if a[i][i] not in (2, None):
            violations.append(("DiagonalNotTwo", i))
    for i in range(n):
        for j in range(n):
            if i != j and a[i][j] is not None and a[i][j] > 0:
                violations.append(("PositiveOffDiagonal", i, j))
    for i in range(n):
        for j in range(i + 1, n):
            if None not in (a[i][j], a[j][i]) and (a[i][j] == 0) != (a[j][i] == 0):
                violations.append(("AsymmetricZero", i, j))
    if violations:
        raise MatrixValidationError(violations)
    return KacMoodyMatrix(tuple(tuple(r) for r in a))


@functools.lru_cache(maxsize=None)
def _finite_type(matrix: KacMoodyMatrix, J: frozenset[int]) -> bool:
    """True iff the parabolic subgroup generated by {r_j : j in J} is finite.

    Kac, *Infinite dimensional Lie algebras*, Prop. 4.9 and Thm. 4.3: W_J
    is finite iff A_J is of finite type, iff every principal minor of A_J
    is positive.  A principal minor is the product of the minors of the
    connected pieces of its Dynkin subdiagram, so only index sets whose
    subdiagram is connected are checked.
    """
    connected = {frozenset((j,)) for j in J}
    frontier = set(connected)
    while frontier:
        frontier = {
            S | {k} for S in frontier for i in S for k in J - S if matrix[i, k]
        } - connected
        connected |= frontier
    return all(
        linalg.det([[matrix[i, j] for j in S] for i in S]) > 0 for S in connected
    )


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

    def __post_init__(self):
        # every cached table is keyed on the system: hash its Fractions once
        fields = (self.matrix, self.dim, self.simple_coroots, self.simple_roots)
        object.__setattr__(self, "_hash", hash(fields))

    def __hash__(self) -> int:
        return self._hash

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


def _check_bound(kind: str, bound: int) -> None:
    if bound < 0:
        raise InvalidBound(f"{kind} bound must be at least 0, not {bound}")


@functools.lru_cache(maxsize=None)
def weyl_ball(rgs: RootGeneratingSystem, length_bound: int) -> tuple[WeylElement, ...]:
    """All elements of word length <= length_bound, shortest words attached.

    Breadth-first over right multiplication, dedup by matrix; for finite
    Weyl groups the ball saturates and is the whole group.  A negative
    bound raises InvalidBound.
    """
    _check_bound("length", length_bound)
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
        return self._negation

    @functools.cached_property
    def _negation(self) -> "Root":
        # -(w . alpha_i) = (w r_i) . alpha_i; built once per root
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
    reflection step at a time and roots of minimal height are simple).  A
    negative bound raises InvalidBound.
    """
    _check_bound("height", height_bound)
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


@functools.lru_cache(maxsize=None)
def positive_roots(rgs: RootGeneratingSystem, height_bound: int) -> tuple[Root, ...]:
    return tuple(r for r in enumerate_real_roots(rgs, height_bound) if r.is_positive)


def roots_saturated(rgs: RootGeneratingSystem, height_bound: int) -> bool:
    """True when the bound already captures every real root.

    Only a finite type has finitely many real roots, and a finite root
    system has roots at every height up to its highest root, so the bound
    is saturated exactly when no root has the next height.
    """
    return _finite_type(rgs.matrix, frozenset(range(rgs.size))) and len(
        positive_roots(rgs, height_bound + 1)
    ) == len(positive_roots(rgs, height_bound))


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


DESCENT_STEPS = 200


def _descend(matrix: KacMoodyMatrix, values: Sequence[int], step_bound: int):
    """Reflect at the least negative simple root until dominant.

    Works on a vector's simple-root values, integers over a common
    denominator: r_i lowers alpha_k by alpha_i(v) a_ik and moves v by
    -alpha_i(v) coroot_i, so every step stays in integers.  Returns
    ("dominant", values, shifts), where the dominant vector is
    v - sum_i shifts_i coroot_i over the same denominator, or
    ("cycle", None, None) or ("exhausted", None, None).  Two steps reach
    the same vector exactly when their shifts agree, the coroots being
    free, which is how a cycle is seen.
    """
    a = list(values)
    shifts = [0] * len(a)
    seen = {tuple(shifts)}
    for _ in range(step_bound):
        i = next((i for i, x in enumerate(a) if x < 0), None)
        if i is None:
            return "dominant", tuple(a), tuple(shifts)
        c = a[i]
        a = [x - c * r for x, r in zip(a, matrix.entries[i])]
        shifts[i] += c
        key = tuple(shifts)
        if key in seen:
            return "cycle", None, None
        seen.add(key)
    if all(x >= 0 for x in a):
        return "dominant", tuple(a), tuple(shifts)
    return "exhausted", None, None


def tits_membership(
    rgs: RootGeneratingSystem,
    v: Vector,
    step_bound: int = DESCENT_STEPS,
) -> ConeLocation:
    """Locate v relative to the Tits cone (union of Weyl images of the
    closed fundamental chamber) by reflection descent.

    The dominant representative lies in the interior exactly when the
    parabolic subgroup fixing it is finite, which the Cartan matrix
    decides exactly (`_finite_type`).  A descent that neither terminates
    nor cycles within step_bound yields "unknown".
    """
    if len(v) != rgs.dim:
        raise DimensionMismatch(f"expected dim {rgs.dim}, got {len(v)}")
    if all(x == 0 for x in v):
        return ConeLocation("zero", 0, frozenset())
    _, (values,) = linalg.clear_denominators([[linalg.dot(f, v) for f in rgs.simple_roots]])
    proven_out = True
    for side in (1, -1):
        status, dom, _ = _descend(rgs.matrix, [side * x for x in values], step_bound)
        if status == "dominant":
            J = frozenset(i for i, x in enumerate(dom) if x == 0)
            kind = "interior" if _finite_type(rgs.matrix, J) else "boundary"
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
    step_bound: int = DESCENT_STEPS,
) -> str:
    """Compare x <= y in the Tits preorder (y - x in the Tits cone)."""
    loc = tits_membership(rgs, linalg.sub(y, x), step_bound)
    if loc.kind == "zero":
        return EQ
    if loc.kind == "interior":
        return LE_STRICT_INTERIOR if loc.side > 0 else GE_STRICT_INTERIOR
    if loc.kind == "boundary":
        return LE if loc.side > 0 else GE
    if loc.kind == "not_in_cone":
        return INCOMPARABLE
    return UNKNOWN


@functools.lru_cache(maxsize=None)
def _coroot_solver(
    rgs: RootGeneratingSystem,
) -> tuple[int, tuple[tuple[int, ...], ...], int, tuple[tuple[int, ...], ...]]:
    """A left inverse of the coroot matrix C (columns the simple coroots),
    (C^T C)^-1 C^T, as integer rows over one denominator, and the simple
    coroots as integer rows over another.  The inverse sends a combination
    of the coroots to its coefficients, unique because the coroots are
    free."""
    gram = linalg.matmul(rgs.simple_coroots, tuple(zip(*rgs.simple_coroots)))
    denom, rows = linalg.clear_denominators(
        linalg.matmul(linalg.invert(gram), rgs.simple_coroots)
    )
    coroot_denom, coroots = linalg.clear_denominators(rgs.simple_coroots)
    return denom, tuple(rows), coroot_denom, tuple(coroots)


def _coroot_numerators(rgs: RootGeneratingSystem, v: Sequence[int]) -> tuple[int, ...] | None:
    """For an integer vector v, the integers c_j with v = sum_j (c_j / d)
    coroot_j, d the solver's denominator; None when v is no combination of
    the simple coroots."""
    denom, rows, coroot_denom, coroots = _coroot_solver(rgs)
    c = tuple(sum(r * x for r, x in zip(row, v)) for row in rows)
    scale = denom * coroot_denom
    for k, x in enumerate(v):
        if sum(cj * coroot[k] for cj, coroot in zip(c, coroots)) != scale * x:
            return None
    return c


def _order(c: Sequence[int] | None) -> str:
    """The dominance order of x and y read off the coroot numerators c of
    a nonzero y - x; c is None when y - x is no combination of the
    coroots."""
    if c is None:
        return INCOMPARABLE
    if all(x >= 0 for x in c):
        return LE
    if all(x <= 0 for x in c):
        return GE
    return INCOMPARABLE


def dominance_compare(rgs: RootGeneratingSystem, x: Vector, y: Vector) -> str:
    """Compare in the coroot cone: x <= y iff y - x is a nonnegative
    rational combination of the simple coroots (unique by freeness)."""
    if len(x) != rgs.dim or len(y) != rgs.dim:
        raise DimensionMismatch("points of wrong dimension")
    if x == y:
        return EQ
    _, (d,) = linalg.clear_denominators([linalg.sub(y, x)])
    return _order(_coroot_numerators(rgs, d))


def coroot_coordinates(rgs: RootGeneratingSystem, v: Vector) -> Vector | None:
    """v as a rational combination of simple coroots, or None."""
    scale, (ints,) = linalg.clear_denominators([v])
    c = _coroot_numerators(rgs, ints)
    if c is None:
        return None
    denom = _coroot_solver(rgs)[0] * scale
    return tuple(Q(x, denom) for x in c)
