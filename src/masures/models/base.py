"""Concrete buildings and the checks run against them.

A model provides a set of apartments, each with a chart mapping apartment
coordinates to building points, retractions onto the standard apartment
from the germs at plus and minus infinity, and the exact intersection of
two apartments.  Everything here is generic over that interface:
retracting a segment into a piecewise-linear path, and `check_MA2`.
The path comes from `MasureModel.retract_path`: by default the segment is
charted and retracted at every wall-crossing time and every midpoint
between them; the tree overrides it in closed form, with one turn at
most, where the segment comes nearest the germ's end.

The paper proves that two apartments meet in an enclosed set, a finite
intersection of half-apartments, and each model computes that set in
closed form (`MasureModel.intersection`); it is `check_MA2`'s `fitted`
certificate.  The window of special points only cross-checks it: charted
through the first apartment, each point must lie in the second exactly
when it lies in the set, and no verdict depends on the window's size.
Membership in the set compares integers m alpha(v) read off one root
table per window (`apartment.root_table`, which each model keeps by
window radius, `MasureModel.window_table`).  A model reads the window
into the second apartment with `MasureModel.window_coords`, point by
point unless it knows a faster reading (SL3 reads integer alpha-values).
The set's canonicalization only asks whether systems are feasible, which
the integer elimination decides without building a witness point
(`fourier_motzkin.is_feasible`), and the intertwiner search tests each
candidate on the hits and their images with denominators cleared.
`Fraction` arithmetic is left to each candidate's translation and the
convexity witness.  A window radius below 1 raises InvalidWindow.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Sequence

from .. import linalg
from ..apartment import (
    AffineWeylElement,
    EnclosedSet,
    RootTable,
    SectorGerm,
    empty_set,
    minus_infinity,
    plus_infinity,
    root_table,
    walls_crossed,
)
from ..errors import (
    DegenerateSegment,
    DimensionMismatch,
    InvalidWindow,
    MasureError,
    UnsupportedGerm,
)
from ..heckepath import FAIL, PASS, PLPath
from ..kmcore import (
    RootGeneratingSystem,
    WeylElement,
    coroot_coordinates,
    positive_roots,
    roots_saturated,
    weyl_ball,
)
from ..linalg import Vector


class MasureModel(ABC):
    """Building with charted apartments and germ retractions.

    Apartment handles are model-specific and opaque here; so are building
    points, which only need structural equality.  Charts are affine: the
    straight segment between two coordinate vectors maps to a geodesic.
    """

    name: str

    @property
    @abstractmethod
    def rgs(self) -> RootGeneratingSystem:
        """Root generating system of the model apartment."""

    @functools.cached_property
    def root_height_bound(self) -> int:
        """Least height at which real-root enumeration saturates.  The model
        apartment's root system is of finite type, so that height exists."""
        height = 1
        while not roots_saturated(self.rgs, height):
            height += 1
        return height

    @functools.cached_property
    def weyl_length_bound(self) -> int:
        """Length at which the Weyl ball is the whole vectorial group: the
        longest element has one inversion per positive root."""
        return len(positive_roots(self.rgs, self.root_height_bound))

    @abstractmethod
    def standard_apartment(self):
        ...

    @abstractmethod
    def chart(self, apartment, coords: Sequence):
        """Building point at the given apartment coordinates."""

    @abstractmethod
    def apartment_coords(self, apartment, point) -> Vector | None:
        """Coordinates of the point in the apartment, None when outside."""

    @abstractmethod
    def point_retract(self, point, germ: SectorGerm) -> Vector:
        """Standard-apartment coordinates of the retracted point; a germ
        other than those at +infinity and -infinity raises UnsupportedGerm."""

    @functools.cached_property
    def _infinite_germs(self) -> tuple[SectorGerm, SectorGerm]:
        return minus_infinity(self.rgs), plus_infinity(self.rgs)

    def _germ_sign(self, germ: SectorGerm) -> int:
        """-1 for the germ at minus infinity and +1 for plus infinity; any
        other germ raises UnsupportedGerm."""
        minus, plus = self._infinite_germs
        if germ == minus:
            return -1
        if germ == plus:
            return 1
        raise UnsupportedGerm("retraction is only available from the germs at +infinity and -infinity")

    @functools.cached_property
    def _window_tables(self) -> dict[int, RootTable]:
        return {}

    def window_table(self, window_radius: int) -> RootTable:
        """The `RootTable` of the window's special points at the model's
        root height bound, looked up by radius: the points' `Fraction`
        coordinates are hashed once per model and radius, not per call."""
        table = self._window_tables.get(window_radius)
        if table is None:
            table = self._window_tables[window_radius] = root_table(
                self.rgs, self.root_height_bound, self.special_points(window_radius)
            )
        return table

    @abstractmethod
    def special_points(self, window_radius: int) -> tuple[Vector, ...]:
        """Special points of the standard apartment within the window."""

    def window_coords(
        self, first, second, window_radius: int, points: Sequence[Vector]
    ) -> list[Vector | None]:
        """For each of the window's special points `points`, as
        `special_points(window_radius)` gave them, its coordinates in
        `second` once charted through `first`, or None when `second` does
        not contain it.  A model may read the window faster than point by
        point; the result must be this loop's."""
        return [self.apartment_coords(second, self.chart(first, v)) for v in points]

    def retract_path(
        self, apartment, a: Vector, b: Vector, germ: SectorGerm, height_bound: int
    ) -> PLPath:
        """Retraction of the geodesic from chart(a) to chart(b) from the
        germ, for distinct `Fraction` endpoints of the right dimension and
        a germ at +infinity or -infinity, as `retract_segment` checks them.

        The retracted image is piecewise affine with breakpoints only at
        times where the segment crosses a wall, so those crossing times
        are the candidate knots; affineness between consecutive knots is
        then checked at midpoints rather than assumed.  A model that knows
        where its path turns may compute it in closed form; the result
        must be this loop's.
        """
        times = [Q(0)] + [t for t, _ in walls_crossed(self.rgs, a, b, height_bound)] + [Q(1)]
        step = linalg.sub(b, a)

        def image(t: Q) -> Vector:
            x = linalg.add(a, linalg.scale(t, step))
            return self.point_retract(self.chart(apartment, x), germ)

        values = [image(t) for t in times]
        for t0, t1, v0, v1 in zip(times, times[1:], values, values[1:]):
            mid = image((t0 + t1) / 2)
            if mid != linalg.scale(Q(1, 2), linalg.add(v0, v1)):
                raise MasureError(
                    f"retraction is not affine on ({t0}, {t1}); missing wall crossing"
                )
        return PLPath(tuple(times), tuple(values))

    @abstractmethod
    def same_apartment(self, first, second) -> bool:
        """Equal as point sets (the charts may still differ)."""

    @abstractmethod
    def intersection(self, first, second) -> EnclosedSet:
        """The coordinates x in `first`'s chart whose points `second`
        contains, computed exactly: an enclosed set, flagged as truncated
        at `root_height_bound`; `whole_apartment` when the two apartments
        are the same and `empty_set` when they are disjoint."""

    @abstractmethod
    def random_apartment(self, seed: int, complexity: int):
        """Deterministic in the seed; complexity 0 is the standard one."""


def _validate_germ(model: MasureModel, germ: SectorGerm) -> SectorGerm:
    model._germ_sign(germ)
    return germ


def retract(model: MasureModel, point, germ: SectorGerm) -> Vector:
    """Image of a building point under the retraction onto the standard
    apartment centered at the germ."""
    return model.point_retract(point, _validate_germ(model, germ))


def retract_segment(
    model: MasureModel,
    apartment,
    a: Sequence,
    b: Sequence,
    germ: SectorGerm,
    height_bound: int,
) -> PLPath:
    """Retraction of the geodesic from chart(a) to chart(b), as a path.

    Validates the germ and the endpoints, then asks the model for the path
    (`MasureModel.retract_path`): the generic wall-crossing loop, or the
    tree's closed form, whose one turn lies where the segment comes
    nearest the germ's end.
    """
    germ = _validate_germ(model, germ)
    rgs = model.rgs
    a = tuple(Q(x) for x in a)
    b = tuple(Q(x) for x in b)
    if len(a) != rgs.dim or len(b) != rgs.dim:
        raise DimensionMismatch("segment endpoints of wrong dimension")
    if a == b:
        raise DegenerateSegment("retracting a constant segment")
    return model.retract_path(apartment, a, b, germ, height_bound)


def intersect_with_standard(
    model: MasureModel, apartment, window_radius: int
) -> tuple[tuple[Vector, ...], EnclosedSet, bool]:
    """The special points of the window lying in both apartments, the exact
    intersection in the standard chart, and its `exact` flag.  A sampled
    point whose membership disagrees with the exact set is an error."""
    standard = model.standard_apartment()
    table, pairs, misses = _sample(model, standard, apartment, window_radius)
    fitted = model.intersection(standard, apartment)
    wrong = _disagreement(table, *_mismatches(table, fitted, pairs, misses))
    if wrong:
        raise MasureError(wrong)
    return (tuple(table.points[i] for i, _ in pairs), fitted, fitted.exact)


def _sample(
    model: MasureModel, first, second, window_radius: int
) -> tuple[RootTable, list[tuple[int, Vector]], list[int]]:
    """The window's special points charted through `first` and tested for
    membership in `second`.  Returns the window's root table, whose
    `points` are the special points, the positions of the members each
    with its coordinates in `second`, and the positions of the
    non-members."""
    if window_radius < 1:
        raise InvalidWindow(f"window radius must be at least 1, not {window_radius}")
    table = model.window_table(window_radius)
    pairs = []
    misses = []
    for i, y in enumerate(model.window_coords(first, second, window_radius, table.points)):
        if y is None:
            misses.append(i)
        else:
            pairs.append((i, y))
    return table, pairs, misses


def _mismatches(
    table: RootTable,
    fitted: EnclosedSet,
    pairs: Sequence[tuple[int, Vector]],
    misses: Sequence[int],
) -> tuple[list[int], list[int]]:
    """Positions of the sampled members outside the exact set, and of the
    sampled non-members inside it."""
    if fitted.is_empty:
        return [i for i, _ in pairs], []
    tests = table.half_tests(fitted.halves)
    outside = [i for i, _ in pairs if table.outside(tests, i)]
    return outside, [i for i in misses if not table.outside(tests, i)]


def _disagreement(table: RootTable, outside: Sequence[int], inside: Sequence[int]) -> str:
    """The first sampled point, in window order, whose membership
    disagrees with the exact set, named; empty when there is none."""
    if not outside and not inside:
        return ""
    first = min([*outside, *inside])
    if first in inside:
        return f"non-member {table.points[first]!r} inside the fitted set"
    return f"member {table.points[first]!r} outside the fitted set"


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    verdict: str
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    """Machine-readable outcome of a verification run.

    `checks` carries one named verdict per property tested; `certificates`
    is a tuple of (name, value) pairs with the witnesses a PASS rests on
    (fitted set, intertwiner, sample counts) or the counterexamples behind
    a FAIL.  `trials` is 1 for a single check and larger for campaigns
    that aggregate many.
    """

    verdict: str
    trials: int
    checks: tuple[CheckOutcome, ...]
    certificates: tuple[tuple[str, object], ...]

    def certificate(self, name: str):
        for key, value in self.certificates:
            if key == name:
                return value
        raise KeyError(name)


def _between_hits(v: Vector, hits: Sequence[Vector]) -> tuple[Vector, Vector] | None:
    """A pair of hits with v strictly between them on a line, if any."""
    for x in hits:
        d = linalg.sub(v, x)
        if all(c == 0 for c in d):
            continue
        for y in hits:
            e = linalg.sub(y, v)
            if all(c == 0 for c in e):
                continue
            # e = s d with s > 0 makes v an interior point of [x, y]
            pairs = [(dc, ec) for dc, ec in zip(d, e) if dc != 0 or ec != 0]
            if any(dc == 0 or ec == 0 for dc, ec in pairs):
                continue
            ratios = {ec / dc for dc, ec in pairs}
            if len(ratios) == 1 and ratios.pop() > 0:
                return (x, y)
    return None


def _carries(
    w: WeylElement,
    tau: Sequence,
    hits: tuple[int, list[tuple[int, ...]]],
    images: tuple[int, list[tuple[int, ...]]],
) -> bool:
    """Whether x -> w x + tau sends every hit to its image.  `hits` and
    `images` are `linalg.clear_denominators` pairs (d_x, X) and (d_y, Y);
    with d_w clearing w's matrix M, the test is
    d_y (d_w M) X + d_w d_x d_y tau = d_w d_x Y, in integers."""
    dx, xs = hits
    dy, ys = images
    dw, matrix = linalg.clear_denominators(w.matrix)
    scale = dw * dx * dy
    if any(scale % t.denominator for t in tau):
        return False
    shift = [t.numerator * (scale // t.denominator) for t in tau]
    target = dw * dx
    return all(
        dy * sum(m * c for m, c in zip(row, x)) + s == target * c_y
        for x, y in zip(xs, ys)
        for row, s, c_y in zip(matrix, shift, y)
    )


def check_MA2(
    model: MasureModel, first, second, window_radius: int
) -> VerificationReport:
    """Check that two apartments intersect the way masures must.

    The exact intersection `model.intersection(first, second)` is the
    fitted set.  Each special point of the window, charted through the
    first apartment, must lie in the second exactly when it lies in the
    fitted set (enclosure-fit); no non-member may lie strictly between two
    members (convexity); and some affine Weyl element must carry the first
    chart to the second on every member (intertwiner).  A non-member
    between two members lies in any convex set holding both, so while
    every member lies in the fitted set the convexity witness is searched
    for only among the non-members inside it.  Disjoint apartments pass
    with an empty certificate.
    """
    rgs = model.rgs
    table, pairs, misses = _sample(model, first, second, window_radius)
    fitted = model.intersection(first, second)
    outside, inside = _mismatches(table, fitted, pairs, misses)
    wrong = _disagreement(table, outside, inside)
    xs = [table.points[i] for i, _ in pairs]
    ys = [y for _, y in pairs]

    convex_bad = None
    for i in misses if outside else inside:
        witness = _between_hits(table.points[i], xs)
        if witness is not None:
            convex_bad = (table.points[i], witness)
            break

    intertwiner = None
    carried = (PASS, "no sampled member to carry")
    if xs:
        hits, images = linalg.clear_denominators(xs), linalg.clear_denominators(ys)
        for w in weyl_ball(rgs, model.weyl_length_bound):
            tau = linalg.sub(ys[0], w.act(xs[0]))
            coords = coroot_coordinates(rgs, tau)
            if coords is None or any(c.denominator != 1 for c in coords):
                continue
            if _carries(w, tau, hits, images):
                intertwiner = AffineWeylElement(w, tau)
                break
        carried = (
            (PASS, f"affine Weyl element matching all {len(xs)} sampled points")
            if intertwiner is not None else (FAIL, "no affine Weyl element matches the sample")
        )

    if fitted.is_empty and not xs:
        fitted = empty_set(rgs)
        checks = tuple(
            CheckOutcome(name, PASS, "empty intersection")
            for name in ("enclosure-fit", "convexity", "intertwiner")
        )
    else:
        checks = (
            CheckOutcome(
                "enclosure-fit",
                FAIL if wrong else PASS,
                wrong or f"{len(xs)} members match the fit on {len(table.points)} sampled points",
            ),
            CheckOutcome(
                "convexity",
                FAIL if convex_bad else PASS,
                f"non-member {convex_bad[0]!r} between members {convex_bad[1]!r}"
                if convex_bad else "no sampled segment leaves the intersection",
            ),
            CheckOutcome("intertwiner", *carried),
        )
    verdict = FAIL if any(c.verdict == FAIL for c in checks) else PASS
    certificates = (
        ("hits", len(xs)),
        ("window_radius", window_radius),
        ("fitted", fitted),
        ("intertwiner", intertwiner),
        ("empty", fitted.is_empty),
    )
    return VerificationReport(verdict, 1, checks, certificates)
