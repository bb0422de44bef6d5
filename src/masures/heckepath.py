"""Piecewise-linear paths in the apartment and the folding calculus.

A path here is rational piecewise-linear on [0, 1].  Folding the tail at a
time t lying on a wall reflects everything after t across that wall.  A
fold is legal when the wall's positive root alpha has alpha(d) < 0 for the
incoming derivative d: the path is moving down through the wall and gets
folded back up, which is exactly what retracting from the germ at minus
infinity does to a segment.

The seeded generators scan the tail's wall crossings lazily, in time
order (`apartment.crossing_groups`), and stop at the first fold; the
crossings of the folded tail are scanned afresh.  A mutant is planted in
one pass: the scan records a resume point at each crossing the tail
moves up through, and the chosen one is resumed by replaying the scan's
fold draws on a fresh generator up to it and folding there.

`verify_growth` checks the laws such paths obey: every one-sided derivative
in the Weyl orbit of the initial one, every breakpoint a single legal
reflection, derivatives increasing in dominance order, endpoint dominating
the straight displacement (strictly as soon as one fold happened).  Root
and Weyl enumeration is truncated by bounds; verdicts distinguish a
definitive violation from evidence exhausted under truncation, and a
bounded search that comes up empty never reports PASS.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Sequence

from . import linalg
from .apartment import Wall, affine_reflect, crossing_groups, segment_values
from .errors import (
    DegenerateSegment,
    DimensionMismatch,
    IllegalFold,
    IndexOutOfRange,
    NonGenericSegment,
    NotOnWall,
)
from .kmcore import (
    EQ,
    LE,
    Root,
    RootGeneratingSystem,
    dominance_compare,
    positive_roots,
    roots_saturated,
    weyl_ball,
    weyl_ball_complete,
)
from .linalg import Vector

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True, eq=False)
class PLPath:
    """Piecewise-linear path on [0, 1], breakpoints with equal derivatives
    on both sides are merged away, so the representation is canonical."""

    times: tuple[Q, ...]
    points: tuple[Vector, ...]

    def __post_init__(self):
        times = tuple(Q(t) for t in self.times)
        points = tuple(tuple(Q(x) for x in p) for p in self.points)
        if len(times) != len(points):
            raise DimensionMismatch("times and points of different lengths")
        if len(times) < 2:
            raise DegenerateSegment("a path needs at least two knots")
        if times[0] != 0 or times[-1] != 1:
            raise ValueError("path must be parametrized over [0, 1]")
        if any(t1 <= t0 for t0, t1 in zip(times, times[1:])):
            raise ValueError("knot times must increase strictly")
        dim = len(points[0])
        if any(len(p) != dim for p in points):
            raise DimensionMismatch("knot points of mixed dimensions")

        def deriv(i):
            return linalg.scale(1 / (times[i + 1] - times[i]), linalg.sub(points[i + 1], points[i]))

        keep = [0]
        for i in range(1, len(times) - 1):
            if deriv(i - 1) != deriv(i):
                keep.append(i)
        keep.append(len(times) - 1)
        object.__setattr__(self, "times", tuple(times[i] for i in keep))
        object.__setattr__(self, "points", tuple(points[i] for i in keep))

    @classmethod
    def straight(cls, a: Sequence, b: Sequence) -> "PLPath":
        return cls((Q(0), Q(1)), (tuple(Q(x) for x in a), tuple(Q(x) for x in b)))

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def __eq__(self, other) -> bool:
        return isinstance(other, PLPath) and self.times == other.times and self.points == other.points

    def __hash__(self) -> int:
        return hash((self.times, self.points))

    def __repr__(self) -> str:
        return f"PLPath({len(self.times) - 1} pieces)"

    def value(self, t) -> Vector:
        t = Q(t)
        if not 0 <= t <= 1:
            raise IndexOutOfRange(f"time {t} outside [0, 1]")
        i = bisect.bisect_right(self.times, t) - 1
        if i == len(self.times) - 1:
            return self.points[-1]
        s = (t - self.times[i]) / (self.times[i + 1] - self.times[i])
        return linalg.add(self.points[i], linalg.scale(s, linalg.sub(self.points[i + 1], self.points[i])))

    def piece_derivatives(self) -> tuple[Vector, ...]:
        return tuple(
            linalg.scale(1 / (t1 - t0), linalg.sub(p1, p0))
            for t0, t1, p0, p1 in zip(self.times, self.times[1:], self.points, self.points[1:])
        )

    def derivative_before(self, t) -> Vector:
        t = Q(t)
        if not 0 < t <= 1:
            raise IndexOutOfRange(f"no incoming derivative at {t}")
        i = bisect.bisect_left(self.times, t) - 1
        return self.piece_derivatives()[max(i, 0)]

    def derivative_after(self, t) -> Vector:
        t = Q(t)
        if not 0 <= t < 1:
            raise IndexOutOfRange(f"no outgoing derivative at {t}")
        i = bisect.bisect_right(self.times, t) - 1
        return self.piece_derivatives()[i]

    @property
    def breakpoints(self) -> tuple[Q, ...]:
        return self.times[1:-1]

    def displacement(self) -> Vector:
        return linalg.sub(self.points[-1], self.points[0])


def derivatives(path: PLPath, t) -> tuple[Vector | None, Vector | None]:
    """One-sided derivatives at t, None on the missing side at 0 and 1."""
    t = Q(t)
    if not 0 <= t <= 1:
        raise IndexOutOfRange(f"time {t} outside [0, 1]")
    left = path.derivative_before(t) if t > 0 else None
    right = path.derivative_after(t) if t < 1 else None
    return (left, right)


def fold_tail(
    rgs: RootGeneratingSystem,
    path: PLPath,
    t,
    root: Root,
    level: int,
    require_legal: bool = True,
) -> PLPath:
    """Reflect the part of the path after time t across M(alpha, k).

    The point path(t) must lie on the wall.  With legality required, the
    given root must be negative on the incoming derivative; note the wall
    M(alpha, k) = M(-alpha, -k) carries two descriptions and the check
    reads the one passed in, so growth-legal folds use the positive root.
    """
    t = Q(t)
    if not 0 < t < 1:
        raise IndexOutOfRange(f"fold time {t} not interior to [0, 1]")
    wall = Wall(root, level)
    x = path.value(t)
    if not wall.contains(x):
        raise NotOnWall(f"path({t}) = {x!r} is not on {wall!r}")
    if require_legal and root.value(path.derivative_before(t)) >= 0:
        raise IllegalFold(f"incoming derivative at {t} does not point below {wall!r}")

    times = [s for s in path.times if s < t] + [t]
    points = [p for s, p in zip(path.times, path.points) if s < t] + [x]
    for s, p in zip(path.times, path.points):
        if s > t:
            times.append(s)
            points.append(affine_reflect(rgs, root, level, p))
    return PLPath(tuple(times), tuple(points))


@dataclass(frozen=True)
class BreakpointCheck:
    """Outcome at one breakpoint.

    `status` is `legal` (with the coordinates of the positive root whose
    reflection realizes the turn), `illegal`, or `unknown` when the search
    was truncated.
    """

    time: Q
    left: Vector
    right: Vector
    status: str
    witness: tuple[int, ...] | None
    note: str = ""


@dataclass(frozen=True)
class GrowthReport:
    """Verdict plus the evidence it rests on.

    The four named checks are each PASS, FAIL or INCONCLUSIVE; the overall
    verdict is FAIL when any check definitively fails, INCONCLUSIVE when
    nothing fails but some search was truncated, PASS otherwise.  `exact`
    records whether root enumeration was saturated at the height bound.
    """

    verdict: str
    breakpoints: tuple[BreakpointCheck, ...]
    orbit_condition: str
    monotone_chain: str
    endpoint_inequality: str
    strictness: str
    endpoint_comparison: str
    first_offense: Q | None
    exact: bool


_FOLD_CAP = 10000


def verify_growth(
    rgs: RootGeneratingSystem,
    path: PLPath,
    height_bound: int,
    weyl_length_bound: int,
) -> GrowthReport:
    """Check the growth laws of a folded path.

    Every one-sided derivative must be a Weyl image (within the length
    bound) of the initial one; at every breakpoint the outgoing derivative
    must be the reflection of the incoming one by a single positive root
    that is negative on it; the derivative sequence must increase in
    dominance order; and the endpoint must dominate the straight
    displacement of the same initial derivative, strictly exactly when the
    path folded.  A turn that no single reflection explains is a definitive
    FAIL once root enumeration is saturated; under a non-exhaustive bound
    it gives INCONCLUSIVE, never PASS.
    """
    if path.dim != rgs.dim:
        raise DimensionMismatch(f"path in dim {path.dim}, system in dim {rgs.dim}")
    roots = positive_roots(rgs, height_bound)
    exact = roots_saturated(rgs, height_bound)
    ball_complete = weyl_ball_complete(rgs, weyl_length_bound)
    derivs = path.piece_derivatives()

    offenses = []
    unknowns = []

    orbit = {w.act(derivs[0]) for w in weyl_ball(rgs, weyl_length_bound)}
    orbit_condition = PASS
    for i, d in enumerate(derivs):
        if d not in orbit:
            orbit_condition = FAIL if ball_complete else INCONCLUSIVE
            target = offenses if ball_complete else unknowns
            target.append(path.times[i] if i else Q(0))

    checks = []
    monotone_chain = PASS
    for i, t in enumerate(path.breakpoints):
        d_minus, d_plus = derivs[i], derivs[i + 1]
        order = dominance_compare(rgs, d_minus, d_plus)
        if order != LE:
            monotone_chain = FAIL
            checks.append(
                BreakpointCheck(
                    t, d_minus, d_plus, "illegal", None,
                    f"derivative not dominance-increasing ({order})",
                )
            )
            offenses.append(t)
            continue
        witness = None
        for root in roots:
            value = root.value(d_minus)
            if value < 0 and linalg.sub(d_minus, linalg.scale(value, root.coroot)) == d_plus:
                witness = root.coords
                break
        if witness is not None:
            checks.append(BreakpointCheck(t, d_minus, d_plus, "legal", witness))
        elif exact:
            checks.append(
                BreakpointCheck(
                    t, d_minus, d_plus, "illegal", None,
                    "no single legal reflection realizes this turn",
                )
            )
            offenses.append(t)
        else:
            checks.append(
                BreakpointCheck(
                    t, d_minus, d_plus, "unknown", None,
                    f"no witness within height bound {height_bound}",
                )
            )
            unknowns.append(t)

    comparison = dominance_compare(rgs, derivs[0], path.displacement())
    folded = len(derivs) >= 2
    endpoint_inequality = PASS if comparison in (EQ, LE) else FAIL
    strictness = PASS if comparison == (LE if folded else EQ) else FAIL
    if endpoint_inequality == FAIL or strictness == FAIL:
        offenses.append(Q(1))

    if offenses:
        verdict = FAIL
    elif unknowns:
        verdict = INCONCLUSIVE
    else:
        verdict = PASS
    return GrowthReport(
        verdict=verdict,
        breakpoints=tuple(checks),
        orbit_condition=orbit_condition,
        monotone_chain=monotone_chain,
        endpoint_inequality=endpoint_inequality,
        strictness=strictness,
        endpoint_comparison=comparison,
        first_offense=min(offenses) if offenses else None,
        exact=exact,
    )


def _generic_for_scan(rgs: RootGeneratingSystem, a: Vector, b: Vector, height_bound: int) -> bool:
    """No wall carries the segment and no time meets two walls at once."""
    m, values = segment_values(rgs, a, b, height_bound)
    if any(va == vb and va % m == 0 for _, va, vb in values):
        return False
    return all(len(walls) == 1 for _, walls in crossing_groups(m, values))


def _perturbed_start(
    rgs: RootGeneratingSystem,
    rng: random.Random,
    a: Vector,
    b: Vector,
    height_bound: int,
    attempts: int,
) -> Vector:
    if a != b and _generic_for_scan(rgs, a, b, height_bound):
        return a
    for k in range(attempts):
        denom = 1009 * (k + 1)
        delta = tuple(Q(rng.randrange(-50, 51), denom) for _ in range(rgs.dim))
        cand = linalg.add(a, delta)
        if cand != b and _generic_for_scan(rgs, cand, b, height_bound):
            return cand
    raise NonGenericSegment(f"no generic perturbation of {a!r} toward {b!r} found")


def _fold(
    rgs: RootGeneratingSystem,
    times: list[Q],
    points: list[Vector],
    tail_to: Vector,
    s: Q,
    wall: Wall,
) -> Vector:
    """Fold the tail from the last knot to `tail_to` across `wall`, which it
    crosses at time s of the tail: append the fold as a knot and return the
    reflected end of the tail."""
    t0, tail_from = times[-1], points[-1]
    times.append(t0 + s * (1 - t0))
    points.append(linalg.add(tail_from, linalg.scale(s, linalg.sub(tail_to, tail_from))))
    return affine_reflect(rgs, wall.root, wall.level, tail_to)


def _scan_and_fold(
    rgs: RootGeneratingSystem,
    rng: random.Random,
    height_bound: int,
    p: Q,
    times: list[Q],
    points: list[Vector],
    tail_to: Vector,
    resumes: list | None = None,
) -> PLPath:
    """Scan the tail from the last knot to `tail_to` left to right and fold
    it, in place, at each legal single-wall crossing with probability p,
    recomputing the crossings of the new tail after each fold; then close
    the path at time 1.

    When `resumes` is a list, each illegal-direction crossing appends a
    resume point to it: the number of knots so far, the tail's end, the
    crossing time on the tail, its wall, and how many fold-probability
    draws the scan had made.  Folding there after as many draws on a fresh
    RNG continues the scan exactly as a pass that folded there would.
    """
    draws = 0
    while True:
        if len(times) - 1 > _FOLD_CAP:
            raise RuntimeError("folding did not terminate within the fold cap")
        m, values = segment_values(rgs, points[-1], tail_to, height_bound)
        # roots negative on the tail's direction: folding at their walls is legal
        falling = {root.coords for root, va, vb in values if vb < va}
        for s, walls in crossing_groups(m, values):
            if len(walls) > 1:
                continue
            wall = walls[0]
            if wall.root.coords in falling:
                draws += 1
                if rng.randrange(p.denominator) < p.numerator:
                    break
            elif resumes is not None:
                resumes.append((len(times), tail_to, s, wall, draws))
        else:
            break
        tail_to = _fold(rgs, times, points, tail_to, s, wall)
    times.append(Q(1))
    points.append(tail_to)
    return PLPath(tuple(times), tuple(points))


def _start_scan(
    rgs: RootGeneratingSystem,
    seed: int,
    a: Sequence,
    b: Sequence,
    height_bound: int,
    fold_probability,
) -> tuple[Q, Vector, Vector, random.Random, int]:
    """The set-up both generators share: the checked fold probability, the
    endpoints with the start moved to generic position, the seeded RNG
    after those draws, and the seed of the scan drawn from it."""
    p = Q(fold_probability)
    if not 0 <= p <= 1:
        raise ValueError(f"fold probability {p} outside [0, 1]")
    a = tuple(Q(x) for x in a)
    b = tuple(Q(x) for x in b)
    if len(a) != rgs.dim or len(b) != rgs.dim:
        raise DimensionMismatch("segment endpoints of wrong dimension")
    if a == b:
        raise DegenerateSegment("folding a constant segment")
    rng = random.Random(seed)
    a = _perturbed_start(rgs, rng, a, b, height_bound, attempts=24)
    return p, a, b, rng, rng.getrandbits(64)


def random_folded_path(
    rgs: RootGeneratingSystem,
    seed: int,
    a: Sequence,
    b: Sequence,
    height_bound: int,
    fold_probability=Q(1, 2),
) -> PLPath:
    """Randomly folded path starting along the segment from a to b.

    When the segment is not in generic position with respect to the walls
    it meets, the start is re-sampled nearby first.  The segment is then
    scanned left to right, folding the tail at legal crossings with the
    given probability; crossings on the updated tail are recomputed after
    each fold.  Deterministic in the seed.
    """
    p, a, b, _, scan_seed = _start_scan(rgs, seed, a, b, height_bound, fold_probability)
    return _scan_and_fold(rgs, random.Random(scan_seed), height_bound, p, [Q(0)], [a], b)


def mutated_folded_path(
    rgs: RootGeneratingSystem,
    seed: int,
    a: Sequence,
    b: Sequence,
    height_bound: int,
    fold_probability=Q(1, 2),
) -> tuple[PLPath, Q] | None:
    """Folded path with exactly one fold in the illegal direction.

    Runs the same scan as `random_folded_path` but additionally folds at
    one uniformly chosen crossing whose wall the tail was moving up
    through, the kind of fold the legality check exists to refuse.
    Returns the path and the time of the planted fold, or None when the
    scan meets no illegal-direction crossing.
    """
    p, a, b, rng, scan_seed = _start_scan(rgs, seed, a, b, height_bound, fold_probability)
    times, points, resumes = [Q(0)], [a], []
    _scan_and_fold(rgs, random.Random(scan_seed), height_bound, p, times, points, b, resumes)
    if not resumes:
        return None
    knots, tail_to, s, wall, draws = resumes[rng.randrange(len(resumes))]
    scan_rng = random.Random(scan_seed)
    for _ in range(draws):
        scan_rng.randrange(p.denominator)
    times, points = times[:knots], points[:knots]
    tail_to = _fold(rgs, times, points, tail_to, s, wall)
    planted = times[-1]
    return _scan_and_fold(rgs, scan_rng, height_bound, p, times, points, tail_to), planted
