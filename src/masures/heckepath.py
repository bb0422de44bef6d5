"""Piecewise-linear paths in the apartment and the folding calculus.

A path here is rational piecewise-linear on [0, 1].  Folding the tail at a
time t lying on a wall reflects everything after t across that wall.  A
fold is legal when the wall's positive root alpha has alpha(d) < 0 for the
incoming derivative d: the path is moving down through the wall and gets
folded back up, which is exactly what retracting from the germ at minus
infinity does to a segment.

A path keeps its knots over one common denominator as integer tuples
beside their `Fraction` form, and the folding and the growth checks run
on those integers.  The seeded generators scan the tail's wall crossings
lazily, in time order (`apartment.crossing_runs`), and stop at the first
fold; the crossings of the folded tail are scanned afresh.  A mutant is
planted in one pass: the scan records a resume point at each crossing
the tail moves up through, and the chosen one is resumed by replaying the
scan's fold draws on a fresh generator up to it and folding there.

`verify_growth` checks the laws of Hecke paths (Gaussent-Rousseau,
*Kac-Moody groups, hovels and Littelmann paths*, 2008): every one-sided
derivative lies in the Weyl orbit of the initial one; at every
breakpoint t a chain of reflections r_beta, each by a positive root whose
wall passes through path(t) and which is negative on the derivative it
reflects, carries the incoming derivative to the outgoing one; the
derivatives increase in dominance order; and the endpoint dominates the
straight displacement, strictly as soon as one fold happened.  Root
enumeration is truncated by a height bound; a chain search that comes up
empty under it gives `unknown`, never PASS.  The orbit law needs no
length bound where it can be decided exactly (see `verify_growth`).
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction as Q
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple, Sequence

from . import linalg
from .apartment import (
    IntegerForms,
    Wall,
    _integer_forms,
    affine_reflect,
    crossing_runs,
    integer_values,
)
from .errors import (
    DegenerateSegment,
    DimensionMismatch,
    IllegalFold,
    IndexOutOfRange,
    NonGenericSegment,
    NotOnWall,
    UnorderedSegment,
)
from .kmcore import (
    DESCENT_STEPS,
    EQ,
    GE,
    GE_STRICT_INTERIOR,
    INCOMPARABLE,
    LE,
    LE_STRICT_INTERIOR,
    Root,
    RootGeneratingSystem,
    _check_bound,
    _coroot_numerators,
    _coroot_solver,
    _descend,
    _finite_type,
    _order,
    coroot_coordinates,
    positive_roots,
    roots_saturated,
    tits_preorder,
    weyl_ball,
    weyl_ball_complete,
)
from .linalg import Vector

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"


class PLPath:
    """Piecewise-linear path on [0, 1], breakpoints with equal derivatives
    on both sides are merged away, so the representation is canonical.

    `knots` holds the knots over the common denominator `denom`, as
    integer tuples with the time first: knot i is `knots[i] / denom`.
    `times` and `points` are the same knots as `Fraction`s; a path the
    folding scan builds from integers makes them on first read.
    """

    def __init__(self, times: Sequence, points: Sequence):
        times = tuple(Q(t) for t in times)
        points = tuple(tuple(Q(x) for x in p) for p in points)
        if len(times) != len(points):
            raise DimensionMismatch("times and points of different lengths")
        if len(times) < 2:
            raise DegenerateSegment("a path needs at least two knots")
        dim = len(points[0])
        if any(len(p) != dim for p in points):
            raise DimensionMismatch("knot points of mixed dimensions")
        self.denom, knots = linalg.clear_denominators([(t,) + p for t, p in zip(times, points)])
        keep = _corners(self.denom, knots)
        self.knots = tuple(knots[i] for i in keep)
        self.times = tuple(times[i] for i in keep)
        self.points = tuple(points[i] for i in keep)

    @classmethod
    def _from_knots(cls, knots: Sequence[tuple[int, tuple[int, ...]]]) -> "PLPath":
        """The path through knots given as (d, (T, *P)) for time T / d and
        point P / d, each over a denominator of its own."""
        path = object.__new__(cls)
        path.denom = math.lcm(*(d for d, _ in knots))
        ints = [tuple(x * (path.denom // d) for x in k) for d, k in knots]
        path.knots = tuple(ints[i] for i in _corners(path.denom, ints))
        return path

    @functools.cached_property
    def times(self) -> tuple[Q, ...]:
        return tuple(Q(k[0], self.denom) for k in self.knots)

    @functools.cached_property
    def points(self) -> tuple[Vector, ...]:
        return tuple(tuple(Q(x, self.denom) for x in k[1:]) for k in self.knots)

    @classmethod
    def straight(cls, a: Sequence, b: Sequence) -> "PLPath":
        return cls((Q(0), Q(1)), (tuple(Q(x) for x in a), tuple(Q(x) for x in b)))

    @property
    def dim(self) -> int:
        return len(self.knots[0]) - 1

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

    @functools.cached_property
    def _derivatives(self) -> tuple[Vector, ...]:
        return tuple(
            tuple(Q(y - x, k1[0] - k0[0]) for x, y in zip(k0[1:], k1[1:]))
            for k0, k1 in zip(self.knots, self.knots[1:])
        )

    def piece_derivatives(self) -> tuple[Vector, ...]:
        return self._derivatives

    def derivative_before(self, t) -> Vector:
        t = Q(t)
        if not 0 < t <= 1:
            raise IndexOutOfRange(f"no incoming derivative at {t}")
        i = bisect.bisect_left(self.times, t) - 1
        return self._derivatives[max(i, 0)]

    def derivative_after(self, t) -> Vector:
        t = Q(t)
        if not 0 <= t < 1:
            raise IndexOutOfRange(f"no outgoing derivative at {t}")
        i = bisect.bisect_right(self.times, t) - 1
        return self._derivatives[i]

    @property
    def breakpoints(self) -> tuple[Q, ...]:
        return self.times[1:-1]

    def displacement(self) -> Vector:
        return linalg.sub(self.points[-1], self.points[0])


def _corners(denom: int, knots: Sequence[tuple[int, ...]]) -> list[int]:
    """Positions of the knots a canonical path keeps, from the integer
    knots (T, *P) over `denom`: the ends, and each knot where the
    derivative changes, seen by cross-multiplying the two pieces' steps."""
    if knots[0][0] != 0 or knots[-1][0] != denom:
        raise ValueError("path must be parametrized over [0, 1]")
    steps = [tuple(y - x for x, y in zip(k0, k1)) for k0, k1 in zip(knots, knots[1:])]
    if any(step[0] <= 0 for step in steps):
        raise ValueError("knot times must increase strictly")
    keep = [0]
    for i, (u, w) in enumerate(zip(steps, steps[1:]), start=1):
        if any(x * w[0] != y * u[0] for x, y in zip(u[1:], w[1:])):
            keep.append(i)
    keep.append(len(knots) - 1)
    return keep


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

    `status` is `legal`, `illegal`, or `unknown` when the search was
    truncated.  A legal turn's `witness` is the coordinates of the
    positive root whose reflection realizes it, or, for a turn that takes
    a chain of two or more reflections, the tuple of their roots'
    coordinates in the order they act.
    """

    time: Q
    left: Vector
    right: Vector
    status: str
    witness: tuple[int, ...] | tuple[tuple[int, ...], ...] | None
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


class _RootData(NamedTuple):
    """What `verify_growth` reads of the positive roots of height <= a
    bound, in integers: their forms (`IntegerForms`, coordinate order),
    the positions of the roots in `positive_roots` order, and per position
    the coroot's coordinates on the simple coroots and the root's values
    on the simple coroots; the positions of the simple roots; and whether
    the bound saturates the root system."""

    forms: IntegerForms
    order: tuple[int, ...]
    coroot_coords: tuple[tuple[int, ...], ...]
    on_coroots: tuple[tuple[int, ...], ...]
    simple: tuple[int, ...]
    exact: bool


@functools.lru_cache(maxsize=None)
def _root_data(rgs: RootGeneratingSystem, height_bound: int) -> _RootData:
    forms = _integer_forms(rgs, height_bound)
    position = {r.coords: i for i, r in enumerate(forms.roots)}
    a = rgs.matrix
    return _RootData(
        forms,
        tuple(position[r.coords] for r in positive_roots(rgs, height_bound)),
        tuple(tuple(int(c) for c in coroot_coordinates(rgs, r.coroot)) for r in forms.roots),
        tuple(
            tuple(sum(b * a[j, k] for k, b in enumerate(r.coords)) for j in range(rgs.size))
            for r in forms.roots
        ),
        tuple(position[tuple(int(j == i) for j in range(rgs.size))] for i in range(rgs.size)),
        roots_saturated(rgs, height_bound),
    )


def _dot(row: Sequence[int], v: Sequence[int]) -> int:
    return sum(r * x for r, x in zip(row, v))


def _chain(
    data: _RootData, start: dict[int, int], target: tuple[int, ...]
) -> tuple[int, ...] | None:
    """A shortest chain of legal reflections carrying a derivative xi to
    xi + sum_j (target_j / N) coroot_j, by breadth-first search.

    `start` maps the position of each root whose wall may be used to
    N beta(xi).  A state is the numerators kappa of the coroot coordinates
    of the current derivative minus xi, so N beta of the current derivative
    is start[beta] + sum_j kappa_j beta(coroot_j); reflecting by a beta
    negative on it adds -N beta times the coordinates of beta's coroot.
    Every step raises sum(kappa) by at least 1 and no state may pass the
    target, so the search ends.  Returns root positions in acting order,
    or None.
    """
    origin = (0,) * len(target)
    frontier = [(origin, ())]
    seen = {origin}
    while frontier:
        following = []
        for kappa, chain in frontier:
            for k, value in start.items():
                c = -(value + _dot(data.on_coroots[k], kappa))
                if c <= 0:
                    continue
                step = tuple(x + c * m for x, m in zip(kappa, data.coroot_coords[k]))
                if step == target:
                    return chain + (k,)
                if step not in seen and all(x <= y for x, y in zip(step, target)):
                    seen.add(step)
                    following.append((step, chain + (k,)))
        frontier = following
    return None


def verify_growth(
    rgs: RootGeneratingSystem,
    path: PLPath,
    height_bound: int,
    weyl_length_bound: int,
) -> GrowthReport:
    """Check the growth laws of a folded path.

    At every breakpoint t the outgoing derivative must be reached from
    the incoming one by a chain of reflections, each by a positive root
    whose wall passes through path(t) and which is negative on the
    derivative it reflects; the derivative sequence must increase in
    dominance order; and the endpoint must dominate the straight
    displacement of the same initial derivative, strictly exactly when the
    path folded.  A turn no chain explains is a definitive FAIL once root
    enumeration is saturated; under a non-exhaustive bound it gives
    INCONCLUSIVE, never PASS.

    Every one-sided derivative must lie in the Weyl orbit of the initial
    one.  A witnessed turn is a product of reflections, so it keeps the
    derivative's orbit.  After any other turn, membership is decided by
    reducing both derivatives to dominant ones (`kmcore._descend`), which
    is exact in finite type and on the Tits cone.  Only where descent is
    undecided is the derivative looked for among the images of the initial
    one under the Weyl ball of `weyl_length_bound`: found is PASS, and
    not found is FAIL when the ball is the whole group and INCONCLUSIVE
    otherwise.

    Everything is read in integers: the derivatives over one denominator,
    root values and coroot coordinates as integer dot products.
    """
    if path.dim != rgs.dim:
        raise DimensionMismatch(f"path in dim {path.dim}, system in dim {rgs.dim}")
    _check_bound("length", weyl_length_bound)
    data = _root_data(rgs, height_bound)
    rows = data.forms.rows
    knots = path.knots
    spans = [tuple(y - x for x, y in zip(k0, k1)) for k0, k1 in zip(knots, knots[1:])]
    # derivative i is deltas[i] / scale; root values are over N = forms.denom * scale
    scale = math.lcm(*(span[0] for span in spans))
    deltas = [tuple(x * (scale // span[0]) for x in span[1:]) for span in spans]
    derivs = path.piece_derivatives()
    solver_denom = _coroot_solver(rgs)[0]
    wall_denom = data.forms.denom * path.denom

    offenses = []
    unknowns = []
    checks = []
    monotone_chain = PASS
    witnessed = []
    for i, t in enumerate(path.breakpoints):
        d_minus, d_plus = deltas[i], deltas[i + 1]
        c = _coroot_numerators(rgs, tuple(y - x for x, y in zip(d_minus, d_plus)))
        order = _order(c)
        witness = None
        if order != LE:
            monotone_chain = FAIL
            checks.append(
                BreakpointCheck(
                    t, derivs[i], derivs[i + 1], "illegal", None,
                    f"derivative not dominance-increasing ({order})",
                )
            )
            offenses.append(t)
        else:
            point = knots[i + 1][1:]
            start = {
                k: _dot(rows[k], d_minus)
                for k in data.order
                if _dot(rows[k], point) % wall_denom == 0
            }
            target = tuple(data.forms.denom * x for x in c)
            chain = None
            if all(x % solver_denom == 0 for x in target):
                chain = _chain(data, start, tuple(x // solver_denom for x in target))
            if chain is not None:
                roots = [data.forms.roots[k].coords for k in chain]
                witness = roots[0] if len(roots) == 1 else tuple(roots)
                checks.append(BreakpointCheck(t, derivs[i], derivs[i + 1], "legal", witness))
            elif data.exact:
                checks.append(
                    BreakpointCheck(
                        t, derivs[i], derivs[i + 1], "illegal", None,
                        "no chain of legal reflections in walls through this point realizes this turn",
                    )
                )
                offenses.append(t)
            else:
                checks.append(
                    BreakpointCheck(
                        t, derivs[i], derivs[i + 1], "unknown", None,
                        f"no witness within height bound {height_bound}",
                    )
                )
                unknowns.append(t)
        witnessed.append(witness is not None)

    members = _orbit_members(rgs, data, deltas, derivs, witnessed, weyl_length_bound)
    for i, member in enumerate(members):
        if member is False:
            offenses.append(path.times[i])
        elif member is None:
            unknowns.append(path.times[i])
    if False in members:
        orbit_condition = FAIL
    elif None in members:
        orbit_condition = INCONCLUSIVE
    else:
        orbit_condition = PASS

    first, last = knots[0], knots[-1]
    gap = tuple(
        scale * (y - x) - path.denom * d for x, y, d in zip(first[1:], last[1:], deltas[0])
    )
    comparison = _order(_coroot_numerators(rgs, gap)) if any(gap) else EQ
    folded = len(deltas) >= 2
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
        exact=data.exact,
    )


def _orbit_members(
    rgs: RootGeneratingSystem,
    data: _RootData,
    deltas: Sequence[tuple[int, ...]],
    derivs: Sequence[Vector],
    witnessed: Sequence[bool],
    weyl_length_bound: int,
) -> list[bool | None]:
    """Per piece, whether its derivative lies in the Weyl orbit of the
    first one: True, False, or None when undecided.

    The derivatives are deltas[i] / scale (the scale cancels here).  A
    witnessed turn carries membership over.  After any other turn the
    sign s with s deltas[0] in the Tits cone is found by descent, and the
    outgoing derivative is in the orbit iff s times it descends to the
    same dominant vector; a descent that cycles leaves the Tits cone, so
    the answer is no.  What descent cannot decide goes to the Weyl ball.
    """
    simple = [data.forms.rows[k] for k in data.simple]
    _, _, coroot_denom, coroots = _coroot_solver(rgs)
    scale = data.forms.denom * coroot_denom

    def descend(sign, delta):
        return _descend(rgs.matrix, [sign * _dot(row, delta) for row in simple], DESCENT_STEPS)

    @functools.cache
    def reference():
        for sign in (1, -1):
            status, _, shifts = descend(sign, deltas[0])
            if status == "dominant":
                return sign, shifts
        return None, None

    @functools.cache
    def ball_images():
        return {w.act(derivs[0]) for w in weyl_ball(rgs, weyl_length_bound)}

    def member(i):
        sign, shifts0 = reference()
        if sign is not None:
            status, _, shifts = descend(sign, deltas[i])
            if status == "cycle":
                return False
            if status == "dominant":
                moved = [s - s0 for s, s0 in zip(shifts, shifts0)]
                return all(
                    sign * scale * (x - x0) == sum(m * c[k] for m, c in zip(moved, coroots))
                    for k, (x, x0) in enumerate(zip(deltas[i], deltas[0]))
                )
        if derivs[i] in ball_images():
            return True
        return False if weyl_ball_complete(rgs, weyl_length_bound) else None

    members = [True]
    for i, known in enumerate(witnessed, start=1):
        members.append(members[-1] if known else member(i))
    return members


def _generic_for_scan(forms: IntegerForms, a: Vector, b: Vector) -> bool:
    """No wall carries the segment and no time meets two walls at once."""
    scale, (ia, ib) = linalg.clear_denominators((a, b))
    m, values = integer_values(forms, scale, ia, ib)
    if any(va == vb and va % m == 0 for _, va, vb in values):
        return False
    _, crossings = crossing_runs(m, values)
    previous = None
    for key, _, _ in crossings:
        if key == previous:
            return False
        previous = key
    return True


def _perturbed_start(
    rgs: RootGeneratingSystem,
    rng: random.Random,
    a: Vector,
    b: Vector,
    height_bound: int,
    attempts: int,
) -> Vector:
    forms = _integer_forms(rgs, height_bound)
    if _generic_for_scan(forms, a, b):
        return a
    for k in range(attempts):
        denom = 1009 * (k + 1)
        delta = tuple(Q(rng.randrange(-50, 51), denom) for _ in range(rgs.dim))
        cand = linalg.add(a, delta)
        if cand != b and _generic_for_scan(forms, cand, b):
            return cand
    raise NonGenericSegment(f"no generic perturbation of {a!r} toward {b!r} found")


# A scan keeps its knots as (d, (T, *P)), time T / d and point P / d, and
# the end of the tail as (d, P), each over a denominator of its own.


def _reduced(denom: int, ints: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    g = math.gcd(denom, *ints)
    return denom // g, tuple(x // g for x in ints)


def _tail(knot, tail) -> tuple[int, int, tuple[int, ...], tuple[int, ...]]:
    """The tail from the last knot to the tail's end over one denominator
    L: returns L, the knot's time and point and the end, times L."""
    (dk, (t0, *a)), (dt, b) = knot, tail
    L = math.lcm(dk, dt)
    fa, fb = L // dk, L // dt
    return L, t0 * fa, tuple(x * fa for x in a), tuple(x * fb for x in b)


def _fold(
    forms: IntegerForms,
    knots: list,
    tail: tuple[int, tuple[int, ...]],
    key: int,
    common: int,
    i: int,
    level: int,
) -> tuple[int, tuple[int, ...]]:
    """Fold the tail from the last knot across the wall of level `level`
    of `forms.roots[i]`, which it crosses at time key / common of the
    tail: append the fold as a knot and return the reflected end of the
    tail, v - (alpha(v) + level) coroot, in integers."""
    L, t0, a, b = _tail(knots[-1], tail)
    knots.append(_reduced(
        L * common,
        (t0 * common + key * (L - t0),) + tuple(x * common + key * (y - x) for x, y in zip(a, b)),
    ))
    # m (alpha(b) + level) with m = forms.denom * L
    shift = _dot(forms.rows[i], b) + level * forms.denom * L
    factor = forms.denom * forms.coroot_denom
    return _reduced(L * factor, tuple(y * factor - shift * c for y, c in zip(b, forms.coroots[i])))


def _scan_and_fold(
    rgs: RootGeneratingSystem,
    rng: random.Random,
    height_bound: int,
    p: Q,
    knots: list,
    tail: tuple[int, tuple[int, ...]],
    resumes: list | None = None,
) -> PLPath:
    """Scan the tail from the last knot to `tail` left to right and fold
    it, in place, at each legal single-wall crossing with probability p,
    recomputing the crossings of the new tail after each fold; then close
    the path at time 1.

    When `resumes` is a list, each illegal-direction crossing appends a
    resume point to it: the number of knots so far, the tail's end, the
    crossing as `_fold` takes it, and how many fold-probability draws the
    scan had made.  Folding there after as many draws on a fresh RNG
    continues the scan exactly as a pass that folded there would.
    """
    forms = _integer_forms(rgs, height_bound)
    draws = 0
    while True:
        if len(knots) - 1 > _FOLD_CAP:
            raise RuntimeError("folding did not terminate within the fold cap")
        L, _, a, b = _tail(knots[-1], tail)
        m, values = integer_values(forms, L, a, b)
        common, crossings = crossing_runs(m, values)
        for key, group in groupby(crossings, key=itemgetter(0)):
            (_, i, level), *others = group
            if others:
                continue
            # a root falling along the tail is negative on its direction: folding is legal
            if values[i][2] < values[i][1]:
                draws += 1
                if rng.randrange(p.denominator) < p.numerator:
                    break
            elif resumes is not None:
                resumes.append((len(knots), tail, key, common, i, level, draws))
        else:
            break
        tail = _fold(forms, knots, tail, key, common, i, level)
    denom, end = tail
    knots.append((denom, (denom,) + end))
    return PLPath._from_knots(knots)


_UNORDERED = {
    GE: "reversed: b - a lies on the boundary of the negative Tits cone",
    GE_STRICT_INTERIOR: "reversed: b - a lies in the interior of the negative Tits cone",
    INCOMPARABLE: "incomparable: b - a lies in neither the Tits cone nor its negative",
}


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
    after those draws, and the seed of the scan drawn from it.

    A Hecke path from a to b needs a <= b in the Tits preorder.  Outside
    finite type, where the Tits cone is not the whole space, a pair that
    is reversed, incomparable or undecided by descent raises
    UnorderedSegment.
    """
    p = Q(fold_probability)
    if not 0 <= p <= 1:
        raise ValueError(f"fold probability {p} outside [0, 1]")
    a = tuple(Q(x) for x in a)
    b = tuple(Q(x) for x in b)
    if len(a) != rgs.dim or len(b) != rgs.dim:
        raise DimensionMismatch("segment endpoints of wrong dimension")
    if a == b:
        raise DegenerateSegment("folding a constant segment")
    if not _finite_type(rgs.matrix, frozenset(range(rgs.size))):
        order = tits_preorder(rgs, a, b)
        if order not in (LE, LE_STRICT_INTERIOR):
            reason = _UNORDERED.get(
                order, f"unknown: descent did not place b - a within {DESCENT_STEPS} steps"
            )
            ends = (f"({', '.join(map(str, v))})" for v in (a, b))
            raise UnorderedSegment("no Hecke path from {} to {}, the pair is ".format(*ends) + reason)
    rng = random.Random(seed)
    a = _perturbed_start(rgs, rng, a, b, height_bound, attempts=24)
    return p, a, b, rng, rng.getrandbits(64)


def _scan_start(a: Vector, b: Vector) -> tuple[list, tuple[int, tuple[int, ...]]]:
    """The first knot (time 0 at a) and the tail's end b, in integers."""
    da, (ia,) = linalg.clear_denominators([(Q(0),) + a])
    db, (ib,) = linalg.clear_denominators([b])
    return [(da, ia)], (db, ib)


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
    knots, tail = _scan_start(a, b)
    return _scan_and_fold(rgs, random.Random(scan_seed), height_bound, p, knots, tail)


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
    knots, tail = _scan_start(a, b)
    resumes = []
    _scan_and_fold(rgs, random.Random(scan_seed), height_bound, p, knots, tail, resumes)
    if not resumes:
        return None
    count, tail, key, common, i, level, draws = resumes[rng.randrange(len(resumes))]
    scan_rng = random.Random(scan_seed)
    for _ in range(draws):
        scan_rng.randrange(p.denominator)
    knots = knots[:count]
    tail = _fold(_integer_forms(rgs, height_bound), knots, tail, key, common, i, level)
    denom, (time, *_) = knots[-1]
    planted = Q(time, denom)
    return _scan_and_fold(rgs, scan_rng, height_bound, p, knots, tail), planted
