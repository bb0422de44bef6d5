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

All verification is windowed: a verdict certifies the window, nothing
beyond it.  When the window cannot tell the intersection apart from a
bigger set (it touches the boundary in every root direction), the check
refuses to answer and raises WindowTooSmall instead.
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
    SectorGerm,
    empty_set,
    enclosure_of,
    minus_infinity,
    plus_infinity,
    walls_crossed,
    whole_apartment,
)
from ..errors import DegenerateSegment, DimensionMismatch, MasureError, WindowTooSmall
from ..heckepath import FAIL, PASS, PLPath
from ..kmcore import (
    RootGeneratingSystem,
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
    _, pairs, misses = _sample(model, model.standard_apartment(), apartment, window_radius)
    if not pairs:
        return ((), empty_set(rgs), True)
    hits = tuple(v for v, _ in pairs)
    fitted = _fit(model, hits, misses, identical=False)
    for v in misses:
        if fitted.contains(v):
            raise MasureError(f"non-member {v!r} inside the fitted enclosure")
    return (hits, fitted, fitted.exact)


def _sample(
    model: MasureModel, first, second, window_radius: int
) -> tuple[tuple[Vector, ...], list[tuple[Vector, Vector]], list[Vector]]:
    """The window's special points charted through `first`, split into
    (coordinates, coordinates in `second`) pairs and non-members."""
    specials = model.special_points(window_radius)
    pairs = []
    misses = []
    for v in specials:
        y = model.apartment_coords(second, model.chart(first, v))
        if y is None:
            misses.append(v)
        else:
            pairs.append((v, y))
    return specials, pairs, misses


def _fit(
    model: MasureModel, hits: Sequence[Vector], misses: Sequence[Vector], identical: bool
) -> EnclosedSet:
    """Enclosure of the hits, or the whole apartment when the two
    apartments are equal as sets, less the halves that only record the
    window's clipping."""
    rgs = model.rgs
    fitted = whole_apartment(rgs) if identical else enclosure_of(rgs, hits, model.root_height_bound)
    return _prune_window_clip(rgs, fitted, misses)


def _prune_window_clip(
    rgs: RootGeneratingSystem, fitted: EnclosedSet, misses: Sequence[Vector]
) -> EnclosedSet:
    """Drop halves that exclude no sampled non-member given the rest.

    Such a half only records the clipping of the sample by the window.  A
    non-member inside the fit blocks every drop, so the loop never admits
    one and leaves a failing fit untouched.
    """
    kept = sorted(fitted.halves, key=lambda h: (h.root.coords, h.level))
    for h in list(kept):
        rest = [o for o in kept if o is not h]
        if not any(all(o.contains(v) for o in rest) for v in misses):
            kept = rest
    return EnclosedSet(rgs, kept, truncated_at=fitted.truncated_at, exact=fitted.exact)


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


def _touches_all_sides(
    rgs: RootGeneratingSystem,
    height_bound: int,
    hits: Sequence[Vector],
    specials: Sequence[Vector],
) -> bool:
    for root in positive_roots(rgs, height_bound):
        for sign in (1, -1):
            top = max(sign * root.value(v) for v in specials)
            if max(sign * root.value(v) for v in hits) < top:
                return False
    return True


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
    specials, pairs, misses = _sample(model, first, second, window_radius)

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

    xs = [x for x, _ in pairs]
    if not identical and _touches_all_sides(rgs, model.root_height_bound, xs, specials):
        raise WindowTooSmall(
            f"intersection fills the window of radius {window_radius} in every direction"
        )

    fitted = _fit(model, xs, misses, identical)
    fit_bad = [v for v in misses if fitted.contains(v)]
    enclosure_check = CheckOutcome(
        "enclosure-fit",
        FAIL if fit_bad else PASS,
        f"non-member {fit_bad[0]!r} inside the fitted set" if fit_bad else
        f"{len(xs)} members match the fit on {len(specials)} sampled points",
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
    x0, y0 = pairs[0]
    for w in weyl_ball(rgs, model.weyl_length_bound):
        tau = linalg.sub(y0, w.act(x0))
        coords = coroot_coordinates(rgs, tau)
        if coords is None or any(c.denominator != 1 for c in coords):
            continue
        candidate = AffineWeylElement(w, tau)
        if all(candidate.apply(x) == y for x, y in pairs):
            intertwiner = candidate
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
