"""Concrete buildings and the checks run against them.

A model provides a set of apartments, each with a chart mapping apartment
coordinates to building points, plus retractions onto the standard
apartment from the germs at plus and minus infinity.  Everything here is
generic over that interface: retracting a segment into a piecewise-linear
path, sampling the intersection of an apartment with the standard one, and
`check_MA2`, which verifies on a window of special points that the
intersection of two apartments is enclosed, convex, and carried one chart
to the other by an element of the affine Weyl group.  Convexity is read
off the enclosure fit: the fit is an intersection of half-apartments, so
it is convex and holds every member, and a sample it separates from the
non-members is convex too.  A convexity witness is searched for only
among the non-members inside the fit, that is, only when the fit fails.

Root values at the window's special points come from one integer table
per window (`apartment.root_table`, cached per process on the root
system, the height bound and the points): the window test, the fit
levels, the pruning of window-clip halves and the search for non-members
inside the fit compare integers m alpha(v) read off it.  A model reads
the window into the second apartment with `MasureModel.window_coords`,
point by point unless it knows a faster reading (SL3 reads integer
alpha-values).  The canonicalization of the fitted set eliminates over
the integers (`fourier_motzkin`), and the intertwiner search tests each
candidate on the hits and their images with denominators cleared, in
integers.  `Fraction` arithmetic is left to each candidate's
translation, the Fourier-Motzkin witness and the convexity witness.

All verification is windowed: a verdict certifies the window, nothing
beyond it.  When the window cannot tell the intersection apart from a
bigger set (it touches the boundary in every root direction), the check
refuses to answer and raises WindowTooSmall instead.  A window radius
below 1 raises InvalidWindow.
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
    whole_apartment,
)
from ..errors import (
    DegenerateSegment,
    DimensionMismatch,
    InvalidWindow,
    MasureError,
    WindowTooSmall,
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
        """Standard-apartment coordinates of the retracted point."""

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

    @abstractmethod
    def same_apartment(self, first, second) -> bool:
        """Equal as point sets (the charts may still differ)."""

    @abstractmethod
    def random_apartment(self, seed: int, complexity: int):
        """Deterministic in the seed; complexity 0 is the standard one."""


def _validate_germ(model: MasureModel, germ: SectorGerm) -> SectorGerm:
    if germ == plus_infinity(model.rgs) or germ == minus_infinity(model.rgs):
        return germ
    raise ValueError("retraction is only available from the germs at +infinity and -infinity")


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

    The retracted image is piecewise affine with breakpoints only at times
    where the segment crosses a wall, so those crossing times are the
    candidate knots; affineness between consecutive knots is then checked
    at midpoints rather than assumed.
    """
    germ = _validate_germ(model, germ)
    rgs = model.rgs
    a = tuple(Q(x) for x in a)
    b = tuple(Q(x) for x in b)
    if len(a) != rgs.dim or len(b) != rgs.dim:
        raise DimensionMismatch("segment endpoints of wrong dimension")
    if a == b:
        raise DegenerateSegment("retracting a constant segment")

    times = [Q(0)] + [t for t, _ in walls_crossed(rgs, a, b, height_bound)] + [Q(1)]

    def image(t: Q) -> Vector:
        x = linalg.add(a, linalg.scale(t, linalg.sub(b, a)))
        return model.point_retract(model.chart(apartment, x), germ)

    values = [image(t) for t in times]
    for t0, t1, v0, v1 in zip(times, times[1:], values, values[1:]):
        mid = image((t0 + t1) / 2)
        if mid != linalg.scale(Q(1, 2), linalg.add(v0, v1)):
            raise MasureError(
                f"retraction is not affine on ({t0}, {t1}); missing wall crossing"
            )
    return PLPath(tuple(times), tuple(values))


def intersect_with_standard(
    model: MasureModel, apartment, window_radius: int
) -> tuple[tuple[Vector, ...], EnclosedSet, bool]:
    """Sampled intersection with the standard apartment, and its fit.

    Returns the special points of the window lying in both apartments, the
    same pruned fit that `check_MA2` reads enclosedness and convexity off,
    and whether that fit was computed from a saturated root enumeration.
    A sampled non-member inside the fit would contradict enclosedness of
    the intersection, so it is treated as a hard error here.  Pruning
    never admits a non-member, so checking after it finds the same ones.
    """
    rgs = model.rgs
    table, pairs, misses = _sample(model, model.standard_apartment(), apartment, window_radius)
    if not pairs:
        return ((), empty_set(rgs), True)
    fitted = _fit(model, table, [i for i, _ in pairs], misses, identical=False)
    bad = _fit_bad(table, fitted, misses)
    if bad:
        raise MasureError(f"non-member {table.points[bad[0]]!r} inside the fitted enclosure")
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
    specials = model.special_points(window_radius)
    pairs = []
    misses = []
    for i, y in enumerate(model.window_coords(first, second, window_radius, specials)):
        if y is None:
            misses.append(i)
        else:
            pairs.append((i, y))
    return root_table(model.rgs, model.root_height_bound, specials), pairs, misses


def _fit(
    model: MasureModel,
    table: RootTable,
    hits: Sequence[int],
    misses: Sequence[int],
    identical: bool,
) -> EnclosedSet:
    """Enclosure of the hits, or the whole apartment when the two
    apartments are equal as sets, less the halves that only record the
    window's clipping.  Hits and misses are positions in the table."""
    rgs = model.rgs
    height = model.root_height_bound
    if identical:
        fitted = whole_apartment(rgs)
    else:
        fitted = EnclosedSet(
            rgs,
            table.enclosure_halves(hits),
            truncated_at=height,
            exact=roots_saturated(rgs, height),
        )
    return _prune_window_clip(table, fitted, misses)


def _prune_window_clip(
    table: RootTable, fitted: EnclosedSet, misses: Sequence[int]
) -> EnclosedSet:
    """Drop halves that exclude no sampled non-member given the rest.

    Such a half only records the clipping of the sample by the window.  A
    non-member inside the fit blocks every drop, so the loop never admits
    one and leaves a failing fit untouched.  A non-member lies in the rest
    exactly when every half excluding it is the one tested or one already
    dropped.
    """
    kept = sorted(fitted.halves, key=lambda h: (h.root.coords, h.level))
    tests = table.half_tests(kept)
    outside = [table.outside(tests, i) for i in misses]
    dropped: set[int] = set()
    for j in range(len(kept)):
        if not any(out <= dropped | {j} for out in outside):
            dropped.add(j)
    return EnclosedSet(
        fitted.rgs,
        [h for j, h in enumerate(kept) if j not in dropped],
        truncated_at=fitted.truncated_at,
        exact=fitted.exact,
    )


def _fit_bad(table: RootTable, fitted: EnclosedSet, misses: Sequence[int]) -> list[int]:
    """Positions of the non-members inside the fit."""
    tests = table.half_tests(fitted.halves)
    return [i for i in misses if not table.outside(tests, i)]


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


def _touches_all_sides(table: RootTable, hits: Sequence[int]) -> bool:
    """The hits reach the window's extreme value of every root, both ways."""
    return table.bounds(hits) == (table.top, table.bottom)


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
    """Windowed check that two apartments intersect the way masures must.

    Special points of the window are charted through the first apartment
    and tested for membership in the second.  The sampled intersection
    must be exactly an enclosed set (no non-member inside the fit), convex
    on the sample, and some affine Weyl element must carry the first chart
    to the second on every sampled point.  Convexity follows from the fit:
    a non-member strictly between two members lies in the convex fit, so
    the witness for a convexity FAIL is searched for only among the
    non-members inside the fit.  An empty sample passes with an
    empty certificate.  When the sample touches the window boundary in
    every root direction (and the apartments are not equal as sets), no
    windowed verdict is defensible and WindowTooSmall is raised.
    """
    rgs = model.rgs
    identical = model.same_apartment(first, second)
    table, pairs, misses = _sample(model, first, second, window_radius)

    if not pairs:
        checks = (
            CheckOutcome("enclosure-fit", PASS, "empty intersection"),
            CheckOutcome("convexity", PASS, "empty intersection"),
            CheckOutcome("intertwiner", PASS, "empty intersection"),
        )
        certificates = (
            ("hits", 0),
            ("window_radius", window_radius),
            ("fitted", empty_set(rgs)),
            ("intertwiner", None),
            ("empty", True),
        )
        return VerificationReport(PASS, 1, checks, certificates)

    positions = [i for i, _ in pairs]
    if not identical and _touches_all_sides(table, positions):
        raise WindowTooSmall(
            f"intersection fills the window of radius {window_radius} in every direction"
        )

    fitted = _fit(model, table, positions, misses, identical)
    fit_bad = [table.points[i] for i in _fit_bad(table, fitted, misses)]
    xs = [table.points[i] for i in positions]
    ys = [y for _, y in pairs]
    enclosure_check = CheckOutcome(
        "enclosure-fit",
        FAIL if fit_bad else PASS,
        f"non-member {fit_bad[0]!r} inside the fitted set" if fit_bad else
        f"{len(xs)} members match the fit on {len(table.points)} sampled points",
    )

    convex_bad = None
    for v in fit_bad:
        witness = _between_hits(v, xs)
        if witness is not None:
            convex_bad = (v, witness)
            break
    convexity_check = CheckOutcome(
        "convexity",
        FAIL if convex_bad else PASS,
        f"non-member {convex_bad[0]!r} between members {convex_bad[1]!r}"
        if convex_bad else "no sampled segment leaves the intersection",
    )

    intertwiner = None
    hits, images = linalg.clear_denominators(xs), linalg.clear_denominators(ys)
    for w in weyl_ball(rgs, model.weyl_length_bound):
        tau = linalg.sub(ys[0], w.act(xs[0]))
        coords = coroot_coordinates(rgs, tau)
        if coords is None or any(c.denominator != 1 for c in coords):
            continue
        if _carries(w, tau, hits, images):
            intertwiner = AffineWeylElement(w, tau)
            break
    intertwiner_check = CheckOutcome(
        "intertwiner",
        PASS if intertwiner is not None else FAIL,
        f"affine Weyl element matching all {len(pairs)} sampled points"
        if intertwiner is not None else "no affine Weyl element matches the sample",
    )

    checks = (enclosure_check, convexity_check, intertwiner_check)
    verdict = FAIL if any(c.verdict == FAIL for c in checks) else PASS
    certificates = (
        ("hits", len(pairs)),
        ("window_radius", window_radius),
        ("fitted", fitted),
        ("intertwiner", intertwiner),
        ("empty", False),
    )
    return VerificationReport(verdict, 1, checks, certificates)
