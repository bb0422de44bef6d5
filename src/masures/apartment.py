"""Affine structure on the model apartment.

The apartment is the realization space of a root generating system.  A wall
is the affine hyperplane M(alpha, k) = {x : alpha(x) + k = 0} for a real
root alpha and an integer level k; the half-apartment D(alpha, k) is the
side alpha(x) + k >= 0.  Enclosed sets are finite intersections of
half-apartments; the enclosure of a finite point set is the smallest one
containing it.  Because a root system of indefinite type is infinite, the
enclosure is computed relative to a height bound and carries an `exact`
flag telling whether the bound already captured every real root.

Everything is exact rational arithmetic.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import groupby, repeat
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import linalg
from .errors import DegenerateSegment, DimensionMismatch, EmptyInput, NotARealRoot
from .fourier_motzkin import Constraint
from .fourier_motzkin import feasible as _feasible_system
from .fourier_motzkin import is_feasible
from .kmcore import (
    Root,
    RootGeneratingSystem,
    WeylElement,
    apply_to_root,
    coroot_coordinates,
    enumerate_real_roots,
    positive_roots,
    roots_saturated,
    simple_root,
    weyl_identity,
)
from .linalg import Vector


def _as_point(rgs: RootGeneratingSystem, v: Sequence) -> Vector:
    if len(v) != rgs.dim:
        raise DimensionMismatch(f"expected dim {rgs.dim}, got {len(v)}")
    return tuple(Q(x) for x in v)


@dataclass(frozen=True, eq=False)
class Wall:
    """M(alpha, k) = {x : alpha(x) + k = 0}.

    The same wall has two descriptions, (alpha, k) and (-alpha, -k);
    equality and hashing use the positive-root one.
    """

    root: Root
    level: int

    def __post_init__(self):
        if not isinstance(self.level, int):
            raise TypeError(f"wall level must be an integer, got {self.level!r}")

    def _key(self):
        if self.root.is_positive:
            return (self.root.coords, self.level)
        return (tuple(-c for c in self.root.coords), -self.level)

    def __eq__(self, other) -> bool:
        return isinstance(other, Wall) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        coords, level = self._key()
        return f"Wall({coords!r}, {level})"

    def positive(self) -> "Wall":
        if self.root.is_positive:
            return self
        return Wall(self.root.negated(), -self.level)

    def evaluate(self, v: Vector) -> Q:
        """alpha(v) + k in the stored orientation."""
        return self.root.value(v) + self.level

    def contains(self, v: Vector) -> bool:
        return self.evaluate(v) == 0

    def half(self, strict: bool = False) -> "HalfApartment":
        return HalfApartment(self.root, self.level, strict)


@dataclass(frozen=True, eq=False)
class HalfApartment:
    """D(alpha, k) = {x : alpha(x) + k >= 0}, or > 0 when strict."""

    root: Root
    level: int
    strict: bool = False

    def __post_init__(self):
        if not isinstance(self.level, int):
            raise TypeError(f"half-apartment level must be an integer, got {self.level!r}")

    def _key(self):
        return (self.root.coords, self.level, self.strict)

    def __eq__(self, other) -> bool:
        return isinstance(other, HalfApartment) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        op = ">" if self.strict else ">="
        return f"HalfApartment({self.root.coords!r}(x) + {self.level} {op} 0)"

    def wall(self) -> Wall:
        return Wall(self.root, self.level)

    def contains(self, v: Vector) -> bool:
        value = self.root.value(v) + self.level
        return value > 0 if self.strict else value >= 0

    def complement(self) -> "HalfApartment":
        # not(a >= 0) is -a > 0
        return HalfApartment(self.root.negated(), -self.level, not self.strict)

    def constraint(self) -> Constraint:
        return (self.root.form, Q(self.level), self.strict)


class Everything:
    """Marker for the degenerate half-apartment D(alpha, +infinity).

    As the level grows the half D(alpha, k) exhausts the apartment, so the
    limit is the whole space and carries no constraint.  A single shared
    instance, `EVERYTHING`, stands for it wherever a half-apartment is
    expected.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Everything"

    def contains(self, v: Sequence) -> bool:
        return True


EVERYTHING = Everything()


class EnclosedSet:
    """Finite intersection of half-apartments, canonicalized on creation.

    Canonical form: one half-apartment per root direction (the tightest),
    infeasible systems collapse to the empty set, and halves implied by
    the rest are dropped (greedily, in sorted order, so equal inputs give
    equal representations).  `EVERYTHING` members impose nothing and are
    discarded.  Equality is semantic, by mutual inclusion.

    `truncated_at` and `exact` record how the set was produced: a set built
    by `enclosure_of` under a height bound is only guaranteed to be the
    true enclosure when `exact` is True.
    """

    __hash__ = None

    def __init__(
        self,
        rgs: RootGeneratingSystem,
        halves: Iterable[HalfApartment],
        truncated_at: int | None = None,
        exact: bool = True,
    ):
        self.rgs = rgs
        self.dim = rgs.dim
        self.truncated_at = truncated_at
        self.exact = exact

        tightest: dict[tuple[int, ...], HalfApartment] = {}
        for h in halves:
            if isinstance(h, Everything):
                continue
            key = h.root.coords
            cur = tightest.get(key)
            if cur is None or (h.level, not h.strict) < (cur.level, not cur.strict):
                tightest[key] = h
        kept = sorted(tightest.values(), key=lambda h: (h.root.coords, h.level))

        if not is_feasible([h.constraint() for h in kept], self.dim):
            self._empty = True
            self.halves: tuple[HalfApartment, ...] = ()
            return
        self._empty = False

        i = 0
        while i < len(kept):
            others = kept[:i] + kept[i + 1 :]
            system = [o.constraint() for o in others] + [kept[i].complement().constraint()]
            if not is_feasible(system, self.dim):
                kept.pop(i)
            else:
                i += 1
        self.halves = tuple(kept)

    @property
    def is_empty(self) -> bool:
        return self._empty

    def __repr__(self) -> str:
        if self._empty:
            return "EnclosedSet(empty)"
        return f"EnclosedSet({len(self.halves)} halves)"

    def constraints(self) -> list[Constraint]:
        if self._empty:
            # canonical infeasible system
            zero = tuple(Q(0) for _ in range(self.dim))
            return [(zero, Q(-1), False)]
        return [h.constraint() for h in self.halves]

    def contains(self, v: Sequence) -> bool:
        v = _as_point(self.rgs, v)
        if self._empty:
            return False
        return all(h.contains(v) for h in self.halves)

    def sample_point(self) -> Vector | None:
        return _feasible_system(self.constraints(), self.dim)

    def includes(self, other: "EnclosedSet") -> bool:
        """Every point of `other` lies in `self`."""
        if other._empty:
            return True
        if self._empty:
            return False
        base = other.constraints()
        for h in self.halves:
            if is_feasible(base + [h.complement().constraint()], self.dim):
                return False
        return True

    def __eq__(self, other) -> bool:
        if not isinstance(other, EnclosedSet):
            return NotImplemented
        if self.rgs != other.rgs:
            return False
        return self.includes(other) and other.includes(self)

    def intersect(self, other: "EnclosedSet") -> "EnclosedSet":
        if self.rgs != other.rgs:
            raise DimensionMismatch("intersection across different systems")
        bounds = [b for b in (self.truncated_at, other.truncated_at) if b is not None]
        return EnclosedSet(
            self.rgs,
            self.halves + other.halves,
            truncated_at=min(bounds) if bounds else None,
            exact=self.exact and other.exact,
        )


def whole_apartment(rgs: RootGeneratingSystem) -> EnclosedSet:
    return EnclosedSet(rgs, ())


def empty_set(rgs: RootGeneratingSystem) -> EnclosedSet:
    alpha = simple_root(rgs, 0)
    return EnclosedSet(rgs, (HalfApartment(alpha, 0), HalfApartment(alpha.negated(), -1)))


def enclosure_of(
    rgs: RootGeneratingSystem, points: Iterable[Sequence], height_bound: int
) -> EnclosedSet:
    """Smallest intersection of half-apartments containing the points.

    Runs over every real root of height <= height_bound; for each, the
    tightest integer level k with alpha(x) + k >= 0 on all points is
    k = -floor(min alpha(x)).
    """
    pts = [_as_point(rgs, p) for p in points]
    if not pts:
        raise EmptyInput("enclosure of no points")
    halves = []
    for root in enumerate_real_roots(rgs, height_bound):
        level = -math.floor(min(root.value(p) for p in pts))
        halves.append(HalfApartment(root, level))
    return EnclosedSet(
        rgs, halves, truncated_at=height_bound, exact=roots_saturated(rgs, height_bound)
    )


class IntegerForms(NamedTuple):
    """The positive roots of height <= a bound in coordinate order, each
    with its form as an integer row over one common denominator and its
    coroot as an integer row over another."""

    denom: int
    roots: tuple[Root, ...]
    rows: tuple[tuple[int, ...], ...]
    coroot_denom: int
    coroots: tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=None)
def _integer_forms(rgs: RootGeneratingSystem, height_bound: int) -> IntegerForms:
    """The `IntegerForms` of the positive roots of height <= height_bound,
    built once per process for each system and bound."""
    roots = tuple(sorted(positive_roots(rgs, height_bound), key=lambda r: r.coords))
    denom, rows = linalg.clear_denominators([r.form for r in roots])
    coroot_denom, coroots = linalg.clear_denominators([r.coroot for r in roots])
    return IntegerForms(denom, roots, tuple(rows), coroot_denom, tuple(coroots))


@dataclass(frozen=True, eq=False)
class RootTable:
    """Every positive root's value at each point of a fixed tuple, as
    integers over one common denominator m.

    `rows[i][c]` is m alpha_c(points[i]) for the c-th root of `roots`
    (coordinate order).
    """

    points: tuple[Vector, ...]
    denom: int
    roots: tuple[Root, ...]
    rows: tuple[tuple[int, ...], ...]

    def half_tests(self, halves: Iterable[HalfApartment]) -> list[tuple[int, int, int]]:
        """(column, sign, offset) per half: D(sign alpha_column, k) holds
        the point of a row iff sign * row[column] + offset >= 0, where
        offset is m k, less one for a strict half."""
        index = {r.coords: c for c, r in enumerate(self.roots)}
        tests = []
        for h in halves:
            sign = 1 if h.root.is_positive else -1
            column = index[tuple(sign * c for c in h.root.coords)]
            tests.append((column, sign, self.denom * h.level - h.strict))
        return tests

    def outside(self, tests: Sequence[tuple[int, int, int]], i: int) -> set[int]:
        """Positions in `tests` of the halves that exclude the i-th point."""
        row = self.rows[i]
        return {j for j, (c, s, k) in enumerate(tests) if s * row[c] + k < 0}


@functools.lru_cache(maxsize=None)
def root_table(
    rgs: RootGeneratingSystem, height_bound: int, points: tuple[Vector, ...]
) -> RootTable:
    """The `RootTable` of the positive roots of height <= height_bound at
    the points, built once per process for each distinct argument."""
    forms = _integer_forms(rgs, height_bound)
    scale, cleared = linalg.clear_denominators(points)
    rows = tuple(
        tuple(sum(f * x for f, x in zip(form, p)) for form in forms.rows) for p in cleared
    )
    return RootTable(points, forms.denom * scale, forms.roots, rows)


def segment_values(
    rgs: RootGeneratingSystem, a: Sequence, b: Sequence, height_bound: int
) -> tuple[int, tuple[tuple[Root, int, int], ...]]:
    """Every positive root's values at a and b as integers over one
    denominator m: returns m and the triples (root, m alpha(a), m alpha(b)),
    in coordinate order."""
    a = _as_point(rgs, a)
    b = _as_point(rgs, b)
    if a == b:
        raise DegenerateSegment("walls_crossed of a single point")
    scale, (ia, ib) = linalg.clear_denominators((a, b))
    return integer_values(_integer_forms(rgs, height_bound), scale, ia, ib)


def integer_values(
    forms: IntegerForms, scale: int, a: Sequence[int], b: Sequence[int]
) -> tuple[int, tuple[tuple[Root, int, int], ...]]:
    """`segment_values` of the points a / scale and b / scale, given as
    integer vectors."""
    return forms.denom * scale, tuple(
        (root, sum(r * x for r, x in zip(row, a)), sum(r * x for r, x in zip(row, b)))
        for root, row in zip(forms.roots, forms.rows)
    )


def crossing_runs(
    m: int, values: Sequence[tuple[Root, int, int]]
) -> tuple[int, Iterator[tuple[int, int, int]]]:
    """The walls the open segment crosses, lazily, as integers.

    `m` and `values` are as `segment_values` returns them.  Returns a
    common denominator c and an iterator over the crossings in time order,
    each a triple (key, i, k): at time key / c the segment crosses the
    wall of level k of the root of `values[i]`.  A root whose values
    differ crosses the walls at the multiples of m strictly between them,
    at times forming one arithmetic run; the runs are merged on integer
    keys over the lcm of their spans.  Crossings at one time come in
    coordinate order.
    """
    spans = [(i, va, vb) for i, (_, va, vb) in enumerate(values) if va != vb]
    common = math.lcm(*(abs(vb - va) for _, va, vb in spans))
    runs = []
    for i, va, vb in spans:
        sign = 1 if vb > va else -1
        lo, hi = sign * va, sign * vb
        # multiples j m of m with lo < j m < hi, reached at time (j m - lo) / (hi - lo)
        first, last = lo // m + 1, -(-hi // m) - 1
        if first > last:
            continue
        unit = common // (hi - lo)
        runs.append(zip(
            range((first * m - lo) * unit, (last * m - lo) * unit + 1, m * unit),
            repeat(i),
            range(-sign * first, -sign * (last + 1), -sign),
        ))
    return common, heapq.merge(*runs)


def crossing_groups(
    m: int, values: Sequence[tuple[Root, int, int]]
) -> Iterator[tuple[Q, tuple[Wall, ...]]]:
    """The walls the open segment crosses, lazily, grouped by time.

    `m` and `values` are as `segment_values` returns them.  This is
    `crossing_runs` with each time built as a `Fraction` and each crossing
    as a `Wall`, in coordinate order within a group.
    """
    common, crossings = crossing_runs(m, values)
    for key, group in groupby(crossings, key=itemgetter(0)):
        yield Q(key, common), tuple(Wall(values[i][0], level) for _, i, level in group)


def walls_crossed(
    rgs: RootGeneratingSystem, a: Sequence, b: Sequence, height_bound: int
) -> tuple[tuple[Q, tuple[Wall, ...]], ...]:
    """Walls met by the open segment (a, b), grouped by crossing time.

    Only transversal crossings count: a wall containing the whole segment
    is never "crossed".  Times are exact rationals in (0, 1), sorted, each
    with the walls met at that time (several when the segment passes
    through a point on more than one wall), in coordinate order.  This is
    the whole of the lazy scan `crossing_groups`, which callers that stop
    at the first crossing of interest iterate instead.
    """
    return tuple(crossing_groups(*segment_values(rgs, a, b, height_bound)))


def generic_position(
    rgs: RootGeneratingSystem, a: Sequence, b: Sequence, walls: Iterable[Wall]
) -> bool:
    """True when no t in [0, 1] puts the segment on two distinct walls.

    A wall containing the whole segment occupies every time, so two such
    walls, or one plus any incidence, already fail.  Endpoints count: a
    segment ending at a point of two walls is not in generic position with
    respect to them.
    """
    a = _as_point(rgs, a)
    b = _as_point(rgs, b)
    if a == b:
        raise DegenerateSegment("generic_position of a single point")
    carriers = 0
    times: dict[Q, int] = {}
    seen: set = set()
    for wall in walls:
        key = wall.positive()._key()
        if key in seen:
            continue
        seen.add(key)
        va, vb = wall.evaluate(a), wall.evaluate(b)
        if va == vb:
            if va == 0:
                carriers += 1
            continue
        t = va / (va - vb)
        if 0 <= t <= 1:
            times[t] = times.get(t, 0) + 1
    if carriers >= 2 or (carriers and times):
        return False
    return all(n == 1 for n in times.values())


def affine_reflect(rgs: RootGeneratingSystem, root: Root, level: int, v: Sequence) -> Vector:
    """Reflection across M(alpha, k): v - (alpha(v) + k) coroot."""
    if not isinstance(root, Root) or root.rgs != rgs:
        raise NotARealRoot(f"{root!r} is not a real root of the given system")
    if not isinstance(level, int):
        raise TypeError(f"wall level must be an integer, got {level!r}")
    v = _as_point(rgs, v)
    return linalg.sub(v, linalg.scale(root.value(v) + level, root.coroot))


@dataclass(frozen=True, eq=False)
class AffineWeylElement:
    """x -> linear(x) + translation, translation in the coroot lattice."""

    linear: WeylElement
    translation: Vector

    def __post_init__(self):
        coords = coroot_coordinates(self.linear.rgs, self.translation)
        if coords is None or any(c.denominator != 1 for c in coords):
            raise ValueError(f"translation {self.translation!r} not in the coroot lattice")

    @property
    def rgs(self) -> RootGeneratingSystem:
        return self.linear.rgs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AffineWeylElement)
            and self.linear.matrix == other.linear.matrix
            and self.translation == other.translation
        )

    def __hash__(self) -> int:
        return hash((self.linear.matrix, self.translation))

    def __repr__(self) -> str:
        return f"AffineWeylElement(word={self.linear.word!r}, tau={self.translation!r})"

    def apply(self, v: Sequence) -> Vector:
        return linalg.add(self.linear.act(_as_point(self.rgs, v)), self.translation)

    def compose(self, other: "AffineWeylElement") -> "AffineWeylElement":
        return AffineWeylElement(
            self.linear.compose(other.linear),
            linalg.add(self.linear.act(other.translation), self.translation),
        )

    def inverse(self) -> "AffineWeylElement":
        linv = self.linear.inverse()
        return AffineWeylElement(linv, linalg.scale(-1, linv.act(self.translation)))

    def apply_to_wall(self, wall: Wall) -> Wall:
        image = apply_to_root(self.linear, wall.root)
        level = Q(wall.level) - image.value(self.translation)
        return Wall(image, int(level))

    def apply_to_half(self, h: HalfApartment) -> HalfApartment:
        image = apply_to_root(self.linear, h.root)
        level = Q(h.level) - image.value(self.translation)
        return HalfApartment(image, int(level), h.strict)


def translation(rgs: RootGeneratingSystem, tau: Sequence) -> AffineWeylElement:
    return AffineWeylElement(weyl_identity(rgs), _as_point(rgs, tau))


@functools.lru_cache(maxsize=None)
def _chamber_point(rgs: RootGeneratingSystem) -> tuple[int, tuple[int, ...]]:
    """A point x with every alpha_i(x) = 1, in the open fundamental chamber
    C, as a denominator and integer numerators.  It is taken in the span of
    the simple coroots when one is there, as it always is in finite type,
    where the Cartan matrix is invertible: there -w0 permutes the simple
    roots and keeps that span, so w0(x) = -x."""
    ones = [1] * rgs.size
    # alpha_i(sum_j c_j coroot_j) = sum_j c_j a_ji
    c = linalg.solve(tuple(zip(*rgs.matrix.entries)), ones)
    if c is None:
        x = linalg.solve(rgs.simple_roots, ones)
    else:
        x = rgs.zero()
        for cj, coroot in zip(c, rgs.simple_coroots):
            x = linalg.add(x, linalg.scale(cj, coroot))
    denom, (numerators,) = linalg.clear_denominators([x])
    return denom, numerators


@dataclass(frozen=True, eq=False)
class SectorGerm:
    """Direction class of a sector: sign * w(closed fundamental chamber).

    One chamber can have two names: in finite type -C = w0(C), so the
    germs (w, -1) and (w w0, +1) are the same.  Germs compare and hash by
    the point sign * w(x) of their chamber, x the `_chamber_point`, which
    lies in no other chamber; the point is kept in lowest terms over
    integers, computed once per germ, so comparing germs compares
    integers.
    """

    weyl: WeylElement
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError(f"sector germ sign must be +1 or -1, got {self.sign!r}")
        rgs = self.weyl.rgs
        x_denom, x = _chamber_point(rgs)
        w_denom, w = linalg.clear_denominators(self.weyl.matrix)
        point = [self.sign * sum(a * b for a, b in zip(row, x)) for row in w]
        g = math.gcd(x_denom * w_denom, *point)
        key = (rgs, x_denom * w_denom // g, tuple(c // g for c in point))
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    @property
    def rgs(self) -> RootGeneratingSystem:
        return self.weyl.rgs

    def __eq__(self, other) -> bool:
        return isinstance(other, SectorGerm) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        tag = "+" if self.sign == 1 else "-"
        return f"SectorGerm({tag}infinity, word={self.weyl.word!r})"

    def direction_contains(self, v: Sequence) -> bool:
        rgs = self.rgs
        u = linalg.scale(self.sign, self.weyl.inverse().act(_as_point(rgs, v)))
        return all(rgs.root_value(i, u) >= 0 for i in range(rgs.size))


@functools.lru_cache(maxsize=None)
def plus_infinity(rgs: RootGeneratingSystem) -> SectorGerm:
    """The germ of the fundamental chamber, built once per system."""
    return SectorGerm(weyl_identity(rgs), 1)


@functools.lru_cache(maxsize=None)
def minus_infinity(rgs: RootGeneratingSystem) -> SectorGerm:
    """The germ of the opposite chamber, built once per system."""
    return SectorGerm(weyl_identity(rgs), -1)


@dataclass(frozen=True, eq=False)
class Sector:
    """base + germ direction cone."""

    base: Vector
    germ: SectorGerm

    def __eq__(self, other) -> bool:
        return isinstance(other, Sector) and self.base == other.base and self.germ == other.germ

    def __hash__(self) -> int:
        return hash((self.base, self.germ))

    def contains(self, v: Sequence) -> bool:
        v = _as_point(self.germ.rgs, v)
        return self.germ.direction_contains(linalg.sub(v, self.base))
