"""The homogeneous tree of valence q + 1 as a rank-one building.

Vertices are address words: the root is the empty word, its q + 1
neighbors extend it by a letter in 0..q, and every deeper vertex has q
children labeled 1..q (letter 0 only ever appears first).  An end is an
infinite ray, described by a finite prefix followed by one letter
repeating forever; an apartment is the line between two distinct ends.

The model apartment uses the realization with alpha(x) = x and coroot 2,
so walls sit at the integers, vertices are the special points, and the
coroot lattice is the even integers, matching the fact that a vertex
coordinate always has the parity of its depth in the tree (each chart
below preserves this, which is what puts chart transitions in the affine
Weyl group).

The retraction from the germ at plus or minus infinity keeps the
Busemann function of that germ's end: along a line it falls or rises at
slope 1 and turns at most once, at the vertex where the ray to the end
leaves the line (`TreeApartment.projection`), so `TreeModel.retract_path`
reads a segment's one turn off the end words.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Sequence

from ..apartment import (
    EnclosedSet,
    HalfApartment,
    SectorGerm,
    empty_set,
    whole_apartment,
)
from ..errors import DimensionMismatch, MasureError
from ..heckepath import PLPath
from ..kmcore import RootGeneratingSystem, realization, simple_root, validate_matrix
from ..linalg import Vector
from .base import MasureModel

Word = tuple[int, ...]


def _tree_rgs() -> RootGeneratingSystem:
    return realization(validate_matrix([[2]]), coroots=[(2,)], forms=[(1,)])


@dataclass(frozen=True)
class TreeEnd:
    """Ray class `prefix` then `repeat` forever; the prefix never ends in
    the repeating letter, so each end has one description."""

    prefix: Word
    repeat: int

    def __post_init__(self):
        prefix = tuple(self.prefix)
        while prefix and prefix[-1] == self.repeat:
            prefix = prefix[:-1]
        object.__setattr__(self, "prefix", prefix)

    def letter(self, i: int) -> int:
        return self.prefix[i] if i < len(self.prefix) else self.repeat

    def ray_vertex(self, depth: int) -> Word:
        # a negative count repeats nothing
        return self.prefix[:depth] + (self.repeat,) * (depth - len(self.prefix))


def _shared_length(e: TreeEnd, f: TreeEnd) -> int | float:
    """Length of the longest common prefix of two ends' words, infinite
    when they are one end; each end has one description, so two distinct
    ends differ at some letter."""
    if e == f:
        return math.inf
    i = 0
    while e.letter(i) == f.letter(i):
        i += 1
    return i


@dataclass(frozen=True)
class TreeApartment:
    """The line between two distinct ends, oriented from minus to plus."""

    minus: TreeEnd
    plus: TreeEnd

    def __post_init__(self):
        if self.minus == self.plus:
            raise MasureError("an apartment needs two distinct ends")

    @functools.cached_property
    def depth(self) -> int:
        """Depth of the vertex where the two ends' words diverge, which is
        the line's vertex at coordinate `depth`."""
        return _shared_length(self.minus, self.plus)

    def vertex_at(self, n: int) -> Word:
        m = self.depth
        if n >= m:
            return self.plus.ray_vertex(n)
        return self.minus.ray_vertex(2 * m - n)

    def projection(self, end: TreeEnd) -> int | None:
        """Coordinate of the vertex where the ray to `end` leaves the line,
        None when `end` is one of the line's ends.  An end that follows
        the plus ray past the divergence vertex leaves it at depth k+ =
        its shared length with the plus end, coordinate k+; one that
        follows the minus ray leaves at depth k-, coordinate 2 depth - k-;
        any other end reaches the line at the divergence vertex."""
        reach_plus = _shared_length(end, self.plus)
        reach_minus = _shared_length(end, self.minus)
        if math.inf in (reach_plus, reach_minus):
            return None
        m = self.depth
        if reach_plus > m:
            return reach_plus
        if reach_minus > m:
            return 2 * m - reach_minus
        return m

    def vertex_coord(self, word: Word) -> int | None:
        m = self.depth
        if len(word) < m:
            return None
        if word == self.plus.ray_vertex(len(word)):
            return len(word)
        if word == self.minus.ray_vertex(len(word)):
            return 2 * m - len(word)
        return None


@dataclass(frozen=True)
class TreePoint:
    """A vertex, or a point at fraction `s` along the edge from `anchor`
    down to its child `anchor + (letter,)`."""

    anchor: Word
    letter: int | None
    s: Q

    def __post_init__(self):
        s = Q(self.s)
        anchor = tuple(self.anchor)
        letter = self.letter
        if letter is not None and s == 0:
            letter = None
        elif letter is not None and s == 1:
            anchor, letter, s = anchor + (letter,), None, Q(0)
        if letter is None:
            if s != 0:
                raise MasureError("a vertex point carries no offset")
        elif not 0 < s < 1:
            raise MasureError(f"edge offset {s} outside (0, 1)")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "letter", letter)
        object.__setattr__(self, "s", s)

    @property
    def is_vertex(self) -> bool:
        return self.letter is None


class TreeModel(MasureModel):
    """Homogeneous tree with q children per vertex."""

    name = "tree"

    def __init__(self, q: int = 2):
        if q < 2:
            raise MasureError("the tree needs q >= 2 to have more than one apartment")
        self.q = q
        self._rgs = _tree_rgs()
        self._standard = TreeApartment(TreeEnd((0,), 1), TreeEnd((), 1))

    @property
    def rgs(self) -> RootGeneratingSystem:
        return self._rgs

    def standard_apartment(self) -> TreeApartment:
        return self._standard

    def chart(self, apartment: TreeApartment, coords: Sequence) -> TreePoint:
        if len(coords) != 1:
            raise DimensionMismatch("tree apartment coordinates have dimension 1")
        x = Q(coords[0])
        n = x.numerator // x.denominator
        s = x - n
        v = apartment.vertex_at(n)
        if s == 0:
            return TreePoint(v, None, Q(0))
        w = apartment.vertex_at(n + 1)
        if len(w) == len(v) + 1:
            return TreePoint(v, w[-1], s)
        return TreePoint(w, v[-1], 1 - s)

    def apartment_coords(self, apartment: TreeApartment, point: TreePoint) -> Vector | None:
        c0 = apartment.vertex_coord(point.anchor)
        if c0 is None:
            return None
        if point.is_vertex:
            return (Q(c0),)
        c1 = apartment.vertex_coord(point.anchor + (point.letter,))
        if c1 is None:
            return None
        return (c0 + point.s * (c1 - c0),)

    def _standard_prefix_coord(self, word: Word) -> tuple[int, int]:
        """Longest prefix of `word` on the standard line: its length and
        its coordinate there."""
        if word and word[0] == 1:
            a = 1
            while a < len(word) and word[a] == 1:
                a += 1
            return a, a
        if word and word[0] == 0:
            b = 1
            while b < len(word) and word[b] == 1:
                b += 1
            return b, -b
        return 0, 0

    def point_retract(self, point: TreePoint, germ: SectorGerm) -> Vector:
        # each level a vertex lies off the standard line moves its image
        # one step away from the germ's end
        sign = -self._germ_sign(germ)

        def vertex_image(word: Word) -> int:
            depth, coord = self._standard_prefix_coord(word)
            return coord + sign * (len(word) - depth)

        v0 = vertex_image(point.anchor)
        if point.is_vertex:
            return (Q(v0),)
        v1 = vertex_image(point.anchor + (point.letter,))
        return (v0 + point.s * (v1 - v0),)

    def retract_path(
        self, apartment: TreeApartment, a: Vector, b: Vector, germ: SectorGerm, height_bound: int
    ) -> PLPath:
        """The retraction from an end keeps that end's Busemann function,
        which along a line falls or rises at slope 1 and turns at most
        once, at the end's projection onto the line
        (`TreeApartment.projection`).  So the knots are the endpoints and,
        when it lies strictly inside the segment, the projection; each
        knot's value is `point_retract` of the charted knot.  Each piece
        must then be carried isometrically, |value change| = |coordinate
        change|: a retraction does not increase distances, so a piece whose
        image is as long as the piece is carried affinely, and a turn
        inside it would have made the image shorter.  A piece that is not
        carried isometrically raises MasureError naming it."""
        end = self._standard.minus if self._germ_sign(germ) < 0 else self._standard.plus
        (x0,), (x1,) = a, b
        coords = [x0, x1]
        turn = apartment.projection(end)
        if turn is not None and min(x0, x1) < turn < max(x0, x1):
            coords.insert(1, Q(turn))
        times = [(x - x0) / (x1 - x0) for x in coords]
        values = [self.point_retract(self.chart(apartment, (x,)), germ) for x in coords]
        for i in range(len(coords) - 1):
            if abs(values[i + 1][0] - values[i][0]) != abs(coords[i + 1] - coords[i]):
                raise MasureError(
                    f"retraction is not an isometry on ({times[i]}, {times[i + 1]}); "
                    "missed turn"
                )
        return PLPath(times, values)

    def special_points(self, window_radius: int) -> tuple[Vector, ...]:
        return tuple((Q(k),) for k in range(-window_radius, window_radius + 1))

    def same_apartment(self, first: TreeApartment, second: TreeApartment) -> bool:
        return {first.minus, first.plus} == {second.minus, second.plus}

    def intersection(self, first: TreeApartment, second: TreeApartment) -> EnclosedSet:
        # A line's vertices are those of depth n >= its depth on its two
        # rays; the one of depth n on an end's ray lies on `second` iff
        # second.depth <= n and the end's word agrees with one of
        # `second`'s ends up to n letters.  On `first` it sits at
        # coordinate n on the plus ray and 2 first.depth - n on the minus
        # ray, so the shared vertices are one run of coordinates.
        if self.same_apartment(first, second):
            return whole_apartment(self._rgs)
        pivot = first.depth
        least = max(pivot, second.depth)
        spans = []
        for end, sign in ((first.plus, 1), (first.minus, -1)):
            reach = max(_shared_length(end, other) for other in (second.minus, second.plus))
            if reach >= least:
                spans += [pivot + sign * (least - pivot), pivot + sign * (reach - pivot)]
        if not spans:
            return empty_set(self._rgs)
        alpha = simple_root(self._rgs, 0)
        halves = []
        if min(spans) > -math.inf:
            halves.append(HalfApartment(alpha, -min(spans)))
        if max(spans) < math.inf:
            halves.append(HalfApartment(alpha.negated(), max(spans)))
        return EnclosedSet(self._rgs, halves, truncated_at=self.root_height_bound)

    def random_apartment(self, seed: int, complexity: int) -> TreeApartment:
        if complexity == 0:
            return self._standard
        rng = random.Random(seed)
        ends = []
        for base in (self._standard.minus, self._standard.plus):
            prefix = list(base.ray_vertex(rng.randrange(0, complexity + 1)))
            for _ in range(rng.randrange(0, complexity + 1)):
                low = 0 if not prefix else 1
                prefix.append(rng.randrange(low, self.q + 1))
            repeat = rng.randrange(1, self.q + 1)
            ends.append(TreeEnd(tuple(prefix), repeat))
        minus, plus = ends
        while minus == plus:
            repeat = rng.randrange(1, self.q + 1)
            plus = TreeEnd(plus.prefix + (repeat % self.q + 1,), repeat)
        return TreeApartment(minus, plus)
