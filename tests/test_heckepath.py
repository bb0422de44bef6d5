"""Folding calculus and the growth laws.

The A1 cases are fully worked by hand: the segment 3/4 -> -3/4 descends
through the walls x = 1/2, 0, -1/2 at times 1/6, 1/2, 5/6, and folding at
the middle one reflects the tail up again.  The affine cases pin down the
truncation behavior: a witness that needs a height-3 root must turn the
verdict INCONCLUSIVE, not PASS or FAIL, when the search stops at height 1.
"""

import functools
import hashlib
import math
import random
import time
from fractions import Fraction as Q

import pytest

from masures import heckepath, linalg
from masures.apartment import affine_reflect, walls_crossed

from masures.errors import (
    DegenerateSegment,
    IllegalFold,
    IndexOutOfRange,
    NotOnWall,
    UnorderedSegment,
)
from masures.heckepath import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    BreakpointCheck,
    GrowthReport,
    PLPath,
    _start_scan,
    derivatives,
    fold_tail,
    mutated_folded_path,
    random_folded_path,
    verify_growth,
)
from masures.kmcore import (
    EQ,
    GE,
    INCOMPARABLE,
    LE,
    LE_STRICT_INTERIOR,
    default_realization,
    dominance_compare,
    positive_roots,
    roots_saturated,
    simple_root,
    tits_preorder,
    validate_matrix,
    weyl_ball,
    weyl_ball_complete,
)

A1 = default_realization(validate_matrix([[2]]))
A2 = default_realization(validate_matrix([[2, -1], [-1, 2]]))
B2 = default_realization(validate_matrix([[2, -1], [-2, 2]]))
AFF = default_realization(validate_matrix([[2, -2], [-2, 2]]))

ALPHA = simple_root(A1, 0)
# the affine root of height 3, and two segments it folds at time 1/2: one
# through the origin, one through (1/4, 0, 1/4), which lies on no wall of
# a height-1 root
TALL = next(r for r in positive_roots(AFF, 3) if r.coords == (2, 1))
THROUGH_ORIGIN = ((Q(1), Q(0), Q(0)), (Q(-1), Q(0), Q(0)))
OFF_WALL = ((Q(5, 4), Q(0), Q(1, 4)), (Q(-3, 4), Q(0), Q(1, 4)))

SYSTEMS = (
    (A1, 1, 1),
    (A2, 2, 3),
    (B2, 3, 4),
)


def descent(rgs):
    """Endpoints from the sum of the coroots down to its negative; every
    wall crossing of the straight segment is then in the legal direction."""
    rho = rgs.zero()
    for coroot in rgs.simple_coroots:
        rho = tuple(x + c for x, c in zip(rho, coroot))
    return rho, tuple(-x for x in rho)


# -- paths as data ---------------------------------------------------------------


class TestPLPath:
    def test_collinear_knot_merged(self):
        p = PLPath((Q(0), Q(1, 2), Q(1)), ((Q(0),), (Q(1, 2),), (Q(1),)))
        assert p.times == (Q(0), Q(1))
        assert p.breakpoints == ()

    def test_value_and_derivatives(self):
        p = PLPath((Q(0), Q(1, 2), Q(1)), ((Q(0),), (Q(1),), (Q(0),)))
        assert p.value(Q(1, 4)) == (Q(1, 2),)
        assert p.value(Q(1, 2)) == (Q(1),)
        assert p.piece_derivatives() == ((Q(2),), (Q(-2),))
        assert derivatives(p, Q(1, 2)) == ((Q(2),), (Q(-2),))
        assert derivatives(p, 0) == (None, (Q(2),))
        assert derivatives(p, 1) == ((Q(-2),), None)

    def test_displacement(self):
        p = PLPath.straight((Q(1), Q(2)), (Q(0), Q(0)))
        assert p.displacement() == (Q(-1), Q(-2))

    def test_validation(self):
        with pytest.raises(ValueError):
            PLPath((Q(0), Q(2)), ((Q(0),), (Q(1),)))
        with pytest.raises(ValueError):
            PLPath((Q(0), Q(1, 2), Q(1, 2), Q(1)), ((Q(0),), (Q(1),), (Q(2),), (Q(3),)))
        with pytest.raises(DegenerateSegment):
            PLPath((Q(0),), ((Q(0),),))
        with pytest.raises(IndexOutOfRange):
            PLPath.straight((Q(0),), (Q(1),)).value(Q(2))

    def test_knots_not_in_lowest_terms(self):
        """A path built from integer knots over denominators that share a
        factor with every entry is the one built from their `Fraction`s,
        down to its common denominator and integer knots; a knot merged
        away leaves no factor of its denominator behind."""
        path = PLPath._from_knots([(6, (0, 6)), (6, (6, 12))])
        assert (path.denom, path.knots) == (1, ((0, 1), (1, 2)))
        merged = PLPath((Q(0), Q(1, 3), Q(1)), ((Q(0),), (Q(1, 3),), (Q(1),)))
        assert (merged.denom, merged.knots) == (1, ((0, 0), (1, 1)))
        path = PLPath._from_knots([(1, (0, 0)), (3, (1, 1)), (1, (1, 1))])
        assert (path.denom, path.knots) == (merged.denom, merged.knots)
        rng = random.Random(26)
        for _ in range(300):
            dim = rng.randrange(1, 4)
            count = rng.randrange(2, 6)
            times = [Q(0)] + sorted({Q(rng.randrange(1, 12), 12) for _ in range(count - 2)}) + [Q(1)]
            points = [tuple(Q(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(dim))
                      for _ in times]
            knots = []
            for t, p in zip(times, points):
                d = math.lcm(t.denominator, *(x.denominator for x in p)) * rng.randrange(1, 5)
                knots.append((d, (int(t * d),) + tuple(int(x * d) for x in p)))
            built, reference = PLPath._from_knots(knots), PLPath(times, points)
            assert (built.denom, built.knots) == (reference.denom, reference.knots)
            assert built == reference


# -- folding ----------------------------------------------------------------------


class TestFoldTail:
    def test_legal_fold_reflects_the_tail(self):
        p = PLPath.straight((Q(3, 4),), (Q(-3, 4),))
        folded = fold_tail(A1, p, Q(1, 2), ALPHA, 0)
        assert folded.times == (Q(0), Q(1, 2), Q(1))
        assert folded.points == ((Q(3, 4),), (Q(0),), (Q(3, 4),))

    def test_fold_point_must_be_on_the_wall(self):
        p = PLPath.straight((Q(3, 4),), (Q(-3, 4),))
        with pytest.raises(NotOnWall):
            fold_tail(A1, p, Q(1, 3), ALPHA, 0)

    def test_ascending_fold_is_illegal(self):
        p = PLPath.straight((Q(-3, 4),), (Q(3, 4),))
        with pytest.raises(IllegalFold):
            fold_tail(A1, p, Q(1, 2), ALPHA, 0)
        forced = fold_tail(A1, p, Q(1, 2), ALPHA, 0, require_legal=False)
        assert forced.points == ((Q(-3, 4),), (Q(0),), (Q(-3, 4),))

    def test_fold_time_interior(self):
        p = PLPath.straight((Q(1, 2),), (Q(-1, 2),))
        with pytest.raises(IndexOutOfRange):
            fold_tail(A1, p, Q(0), ALPHA, 0)

    def test_legality_reads_the_root_as_given(self):
        # the same wall described by the negative root flips the test
        p = PLPath.straight((Q(3, 4),), (Q(-3, 4),))
        with pytest.raises(IllegalFold):
            fold_tail(A1, p, Q(1, 2), ALPHA.negated(), 0)


# -- growth laws ------------------------------------------------------------------


class TestVerifyGrowth:
    def test_straight_path_passes_with_equality(self):
        report = verify_growth(A1, PLPath.straight((Q(1, 4),), (Q(-3, 4),)), 1, 1)
        assert report.verdict == PASS
        assert report.breakpoints == ()
        assert report.endpoint_comparison == EQ
        assert report.strictness == PASS
        assert report.exact

    def test_single_legal_fold_passes_strictly(self):
        p = fold_tail(A1, PLPath.straight((Q(3, 4),), (Q(-3, 4),)), Q(1, 2), ALPHA, 0)
        report = verify_growth(A1, p, 1, 1)
        assert report.verdict == PASS
        assert report.endpoint_comparison == LE
        assert [bp.status for bp in report.breakpoints] == ["legal"]
        assert report.breakpoints[0].witness == (1,)

    def test_reversed_fold_fails_at_the_breakpoint(self):
        p = fold_tail(
            A1,
            PLPath.straight((Q(-3, 4),), (Q(3, 4),)),
            Q(1, 2),
            ALPHA,
            0,
            require_legal=False,
        )
        report = verify_growth(A1, p, 1, 1)
        assert report.verdict == FAIL
        assert report.first_offense == Q(1, 2)
        assert report.breakpoints[0].status == "illegal"
        assert report.monotone_chain == FAIL

    def test_witness_beyond_height_bound_is_inconclusive(self):
        """Folding across a wall of the height-3 affine root at a point on
        no wall of a height-1 root: with the root enumeration cut at height
        1 nothing explains the turn, and an unsaturated search must refuse
        to pass or fail."""
        p = fold_tail(AFF, PLPath.straight(*OFF_WALL), Q(1, 2), TALL, -1)
        narrow = verify_growth(AFF, p, 1, 3)
        assert narrow.verdict == INCONCLUSIVE
        assert narrow.breakpoints[0].status == "unknown"
        assert not narrow.exact
        wide = verify_growth(AFF, p, 3, 3)
        assert wide.verdict == PASS
        assert wide.breakpoints[0].witness == (2, 1)

    def test_chain_of_short_roots_explains_a_tall_reflection(self):
        """At the origin every linear wall meets, and the reflection by the
        height-3 root (2, 1) is the chain r_(1,0) r_(0,1) r_(1,0), each
        step by a root negative on the derivative it reflects: a legal turn
        even when the search stops at height 1."""
        p = fold_tail(AFF, PLPath.straight(*THROUGH_ORIGIN), Q(1, 2), TALL, 0)
        narrow = verify_growth(AFF, p, 1, 3)
        assert narrow.verdict == PASS
        assert narrow.breakpoints[0].witness == ((1, 0), (0, 1), (1, 0))
        assert verify_growth(AFF, p, 3, 3).breakpoints[0].witness == (2, 1)

    def test_short_weyl_ball_is_inconclusive_not_pass(self):
        """The single turn has the exact witness (2, 1), so the outgoing
        derivative is in the orbit of the incoming one whatever the length
        bound.  An unwitnessed turn whose derivatives descent cannot place
        (affine, level 0) falls back to the ball: a ball too short to hold
        the reflection leaves the orbit law INCONCLUSIVE, never PASS."""
        p = fold_tail(AFF, PLPath.straight(*THROUGH_ORIGIN), Q(1, 2), TALL, 0)
        report = verify_growth(AFF, p, 3, 1)
        assert report.verdict == PASS
        assert report.orbit_condition == PASS
        off = fold_tail(AFF, PLPath.straight(*OFF_WALL), Q(1, 2), TALL, -1)
        short = verify_growth(AFF, off, 1, 1)
        assert short.verdict == INCONCLUSIVE
        assert short.orbit_condition == INCONCLUSIVE
        assert verify_growth(AFF, off, 1, 3).orbit_condition == PASS


# -- seeded generators ---------------------------------------------------------------


class TestGenerators:
    def test_deterministic_in_the_seed(self):
        a, b = descent(A2)
        assert random_folded_path(A2, 7, a, b, 2) == random_folded_path(A2, 7, a, b, 2)
        assert mutated_folded_path(A2, 7, a, b, 2) == mutated_folded_path(A2, 7, a, b, 2)

    @pytest.mark.parametrize("rgs,height,length", SYSTEMS, ids=("A1", "A2", "B2"))
    def test_random_paths_pass(self, rgs, height, length):
        a, b = descent(rgs)
        for seed in range(150):
            path = random_folded_path(rgs, seed, a, b, height)
            report = verify_growth(rgs, path, height, length)
            assert report.verdict == PASS, (seed, report)
            folded = len(path.piece_derivatives()) > 1
            assert report.endpoint_comparison == (LE if folded else EQ)

    @pytest.mark.parametrize("rgs,height,length", SYSTEMS, ids=("A1", "A2", "B2"))
    def test_mutants_fail_at_the_planted_fold(self, rgs, height, length):
        a, b = descent(rgs)
        produced = 0
        for seed in range(150):
            out = mutated_folded_path(rgs, seed, a, b, height)
            if out is None:
                continue
            produced += 1
            path, planted = out
            report = verify_growth(rgs, path, height, length)
            assert report.verdict == FAIL, (seed, report)
            assert planted in {bp.time for bp in report.breakpoints if bp.status == "illegal"}
        assert produced > 50

    def test_mutant_none_when_nothing_ascends(self):
        # an unfolded descent never moves up through a wall
        a, b = descent(A1)
        outcomes = {mutated_folded_path(A1, seed, a, b, 1) is None for seed in range(40)}
        assert outcomes == {True, False}

    def test_degenerate_endpoints_rejected(self):
        with pytest.raises(DegenerateSegment):
            random_folded_path(A1, 0, (Q(1),), (Q(1),), 1)


# -- the one-pass mutant and the lazy scan, pinned -------------------------------------

G2 = default_realization(validate_matrix([[2, -1], [-3, 2]]))
# (system, saturation height, Weyl length bound), as the Hecke benchmark draws them
PINNED_SYSTEMS = ((A2, 2, 3), (B2, 3, 4), (G2, 5, 6))


def pinned_segments():
    """150 seeded segments per system, each with its folding seed."""
    rng = random.Random(6060)
    for rgs, height, length in PINNED_SYSTEMS:
        for _ in range(150):
            while True:
                a = tuple(Q(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(2))
                b = tuple(Q(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(2))
                if a != b:
                    break
            yield rgs, height, length, a, b, rng.getrandbits(32)


def two_pass_mutant(rgs, seed, a, b, height_bound, fold_probability=Q(1, 2), make=PLPath):
    """The mutant as two full scans plant it: count the illegal-direction
    crossings, draw one, then scan again from the start folding there too.
    Also returns the first scan's path, the plain folded path.  Each path
    is `make(times, points)` of the scan's `Fraction` knots."""
    p, a, b, rng, scan_seed = _start_scan(rgs, seed, a, b, height_bound, fold_probability)

    def scan(target):
        scan_rng = random.Random(scan_seed)
        times, points = [Q(0)], [a]
        tail_from, tail_to, t0 = a, b, Q(0)
        planted, illegal_seen = None, 0
        while True:
            direction = tuple(y - x for x, y in zip(tail_from, tail_to))
            for s, walls in walls_crossed(rgs, tail_from, tail_to, height_bound):
                if len(walls) > 1:
                    continue
                wall = walls[0]
                t = t0 + s * (1 - t0)
                if wall.root.value(direction) < 0:
                    if scan_rng.randrange(p.denominator) >= p.numerator:
                        continue
                else:
                    illegal_seen += 1
                    if illegal_seen - 1 != target:
                        continue
                    planted = t
                tail_from = tuple(x + s * d for x, d in zip(tail_from, direction))
                tail_to = affine_reflect(rgs, wall.root, wall.level, tail_to)
                times.append(t)
                points.append(tail_from)
                t0 = t
                break
            else:
                break
        times.append(Q(1))
        points.append(tail_to)
        return make(tuple(times), tuple(points)), planted, illegal_seen

    folded, _, illegal_seen = scan(None)
    if illegal_seen == 0:
        return folded, None
    mutant, planted, _ = scan(rng.randrange(illegal_seen))
    return folded, (mutant, planted)


class TestPinnedScan:
    def test_one_pass_mutant_matches_the_two_pass_oracle(self):
        nones = 0
        for rgs, height, _, a, b, seed in pinned_segments():
            for h in (height, 1):
                folded, mutant = two_pass_mutant(rgs, seed, a, b, h)
                assert random_folded_path(rgs, seed, a, b, h) == folded
                assert mutated_folded_path(rgs, seed, a, b, h) == mutant, (a, b, seed, h)
                nones += mutant is None
        assert nones > 0

    def test_outputs_hash_as_pinned(self):
        """Crossings, folded paths, mutants and growth reports of the
        pinned segments at saturation height and at height 1."""
        digest = hashlib.sha256()
        for rgs, height, length, a, b, seed in pinned_segments():
            for h in (height, 1):
                path = random_folded_path(rgs, seed, a, b, h)
                out = mutated_folded_path(rgs, seed, a, b, h)
                lines = [
                    repr(walls_crossed(rgs, a, b, h)),
                    repr((path.times, path.points, verify_growth(rgs, path, h, length))),
                    "None" if out is None else repr(
                        (out[0].times, out[0].points, out[1], verify_growth(rgs, out[0], h, length))
                    ),
                ]
                for line in lines:
                    digest.update(line.encode() + b"\n")
        assert digest.hexdigest()[:16] == PINNED_DIGEST


# computed by the eager two-pass scan this module's oracle reproduces
PINNED_DIGEST = "1eb4bf32a79fc5a5"


# -- the integer path layer against its Fraction oracles ----------------------------

HYPERBOLIC = default_realization(validate_matrix([[2, -3], [-3, 2]]))
# (system, height, Weyl length bound): the saturation height in finite
# type; the two infinite types have no such height and are checked at 3
ORACLE_SYSTEMS = (
    (A1, 1, 1), (A2, 2, 3), (B2, 3, 4), (G2, 5, 6), (AFF, 3, 4), (HYPERBOLIC, 3, 4),
)


def fraction_knots(times, points):
    """`PLPath`'s canonical knots as `Fraction` division finds them: a knot
    stays when the derivatives on its two sides differ."""

    def deriv(i):
        return linalg.scale(1 / (times[i + 1] - times[i]), linalg.sub(points[i + 1], points[i]))

    keep = [0] + [i for i in range(1, len(times) - 1) if deriv(i - 1) != deriv(i)]
    keep.append(len(times) - 1)
    return tuple(times[i] for i in keep), tuple(points[i] for i in keep)


@functools.cache
def fraction_solver(rgs):
    """The left inverse (C^T C)^-1 C^T of the coroot matrix, in Fractions."""
    gram = linalg.matmul(rgs.simple_coroots, tuple(zip(*rgs.simple_coroots)))
    return linalg.matmul(linalg.invert(gram), rgs.simple_coroots)


def fraction_dominance(rgs, x, y):
    """`dominance_compare` by the `Fraction` left inverse of the coroots."""
    if x == y:
        return EQ
    d = linalg.sub(y, x)
    sol = linalg.matvec(fraction_solver(rgs), d)
    if linalg.vecmat(sol, rgs.simple_coroots) != d:
        return INCOMPARABLE
    if all(c >= 0 for c in sol):
        return LE
    if all(c <= 0 for c in sol):
        return GE
    return INCOMPARABLE


def fraction_growth(rgs, times, points, height, length):
    """The growth report in `Fraction` arithmetic, with the orbit law read
    off the Weyl ball of the given length and each turn explained by one
    reflection, whatever wall it lies on."""
    roots = positive_roots(rgs, height)
    exact = roots_saturated(rgs, height)
    complete = weyl_ball_complete(rgs, length)
    derivs = [
        linalg.scale(1 / (t1 - t0), linalg.sub(p1, p0))
        for t0, t1, p0, p1 in zip(times, times[1:], points, points[1:])
    ]
    offenses, unknowns = [], []
    orbit = {w.act(derivs[0]) for w in weyl_ball(rgs, length)}
    orbit_condition = PASS
    for i, d in enumerate(derivs):
        if d not in orbit:
            orbit_condition = FAIL if complete else INCONCLUSIVE
            (offenses if complete else unknowns).append(times[i])
    checks = []
    monotone = PASS
    for i, t in enumerate(times[1:-1]):
        left, right = derivs[i], derivs[i + 1]
        order = fraction_dominance(rgs, left, right)
        if order != LE:
            monotone = FAIL
            note = f"derivative not dominance-increasing ({order})"
            checks.append(BreakpointCheck(t, left, right, "illegal", None, note))
            offenses.append(t)
            continue
        witness = next(
            (r.coords for r in roots if r.value(left) < 0 and r.reflect(left) == right), None
        )
        if witness is not None:
            checks.append(BreakpointCheck(t, left, right, "legal", witness))
        elif exact:
            note = "no chain of legal reflections in walls through this point realizes this turn"
            checks.append(BreakpointCheck(t, left, right, "illegal", None, note))
            offenses.append(t)
        else:
            note = f"no witness within height bound {height}"
            checks.append(BreakpointCheck(t, left, right, "unknown", None, note))
            unknowns.append(t)
    comparison = fraction_dominance(rgs, derivs[0], linalg.sub(points[-1], points[0]))
    folded = len(derivs) >= 2
    endpoint = PASS if comparison in (EQ, LE) else FAIL
    strictness = PASS if comparison == (LE if folded else EQ) else FAIL
    if FAIL in (endpoint, strictness):
        offenses.append(Q(1))
    return GrowthReport(
        verdict=FAIL if offenses else INCONCLUSIVE if unknowns else PASS,
        breakpoints=tuple(checks),
        orbit_condition=orbit_condition,
        monotone_chain=monotone,
        endpoint_inequality=endpoint,
        strictness=strictness,
        endpoint_comparison=comparison,
        first_offense=min(offenses) if offenses else None,
        exact=exact,
    )


def upgrades(new, old, rgs, length):
    """The kinds of difference between the integer report and the oracle's,
    every one a documented upgrade: a turn left `unknown` under a height
    bound that a chain of lower roots explains, and an orbit law the ball
    left INCONCLUSIVE that descent or the witnesses decide.  Every other
    field must be equal."""
    kinds = set()
    assert len(new.breakpoints) == len(old.breakpoints)
    for got, want in zip(new.breakpoints, old.breakpoints):
        if got != want:
            assert (want.status, got.status, old.exact) == ("unknown", "legal", False)
            assert isinstance(got.witness[0], tuple) and len(got.witness) >= 2
            kinds.add("chain")
    if new.orbit_condition != old.orbit_condition:
        assert old.orbit_condition == INCONCLUSIVE and not weyl_ball_complete(rgs, length)
        kinds.add("orbit")
    for name in ("monotone_chain", "endpoint_inequality", "strictness", "endpoint_comparison", "exact"):
        assert getattr(new, name) == getattr(old, name), name
    if not kinds:
        assert new == old
    elif old.verdict == FAIL:
        assert new.verdict == FAIL
    return kinds


def oracle_segments(per_system):
    """Seeded segments a -> b with a <= b in the Tits preorder, each with a
    folding seed, `per_system` for every system of ORACLE_SYSTEMS."""
    rng = random.Random(1111)
    for rgs, height, length in ORACLE_SYSTEMS:
        count = 0
        while count < per_system:
            a = tuple(Q(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(rgs.dim))
            b = tuple(Q(rng.randrange(-8, 9), rng.randrange(1, 5)) for _ in range(rgs.dim))
            if a == b or tits_preorder(rgs, a, b) not in (LE, LE_STRICT_INTERIOR):
                continue
            count += 1
            yield rgs, height, length, a, b, rng.getrandbits(32)


class TestIntegerOracles:
    def test_paths_and_reports_match_the_fraction_oracles(self):
        """Folded paths and mutants over A1, A2, B2, G2, affine A1 and
        [[2, -3], [-3, 2]], at the saturation height (3 outside finite
        type) and at height 1: the integer scan's knots equal the
        `Fraction` two-pass scan's, canonicalized by `Fraction` division;
        `PLPath.knots` are those knots over `denom`; each derivative pair
        compares as the `Fraction` solver compares it; and every report
        field equals the `Fraction` oracle's but for documented upgrades."""
        reports = 0
        kinds = set()
        for rgs, height, length, a, b, seed in oracle_segments(48):
            for h in (height, 1):
                folded, mutant = two_pass_mutant(rgs, seed, a, b, h, make=fraction_knots)
                path = random_folded_path(rgs, seed, a, b, h)
                out = mutated_folded_path(rgs, seed, a, b, h)
                assert (path.times, path.points) == folded
                assert (out is None) == (mutant is None)
                cases = [(path, None)]
                if out is not None:
                    assert (out[0].times, out[0].points) == mutant[0]
                    assert out[1] == mutant[1]
                    cases.append(out)
                for p, planted in cases:
                    assert list(p.knots) == [
                        tuple(x * p.denom for x in (t,) + v) for t, v in zip(p.times, p.points)
                    ]
                    derivs = p.piece_derivatives()
                    for x, y in zip(derivs, derivs[1:]):
                        assert dominance_compare(rgs, x, y) == fraction_dominance(rgs, x, y)
                    new = verify_growth(rgs, p, h, length)
                    kinds |= upgrades(new, fraction_growth(rgs, p.times, p.points, h, length), rgs, length)
                    if planted is None:
                        assert new.verdict != FAIL, (rgs.matrix, a, b, seed, h)
                    else:
                        assert new.verdict == FAIL
                        assert planted in {bp.time for bp in new.breakpoints if bp.status == "illegal"}
                    reports += 1
        assert reports >= 1000
        # the affine ball is never the whole group, so descent decides there
        assert "orbit" in kinds


class TestOrbitLaw:
    @pytest.mark.parametrize(
        "rgs,height,length",
        [(A2, 2, 3), (B2, 3, 4), (G2, 5, 6), (AFF, 3, 4), (HYPERBOLIC, 3, 4)],
        ids=("A2", "B2", "G2", "affine-A1", "hyperbolic"),
    )
    def test_unwitnessed_turns_match_the_ball(self, rgs, height, length):
        """Turns at a point on no wall are never witnessed, so the orbit law
        of the outgoing derivative is decided by descent, or by the ball
        where descent cannot.  An image of the first derivative under the
        ball must PASS; any other derivative must FAIL when the ball is the
        whole group, and may FAIL elsewhere only when a longer ball does
        not reach it either.  Half the first derivatives are drawn from
        the Tits cone or its negative, where descent is exact."""
        rng = random.Random(rgs.dim * 10 + height)
        roots = positive_roots(rgs, height)
        ball = weyl_ball(rgs, length)
        wide = weyl_ball(rgs, 2 * length)
        verdicts = set()
        for _ in range(120):
            x = tuple(Q(rng.randrange(-20, 21), rng.choice((11, 13))) for _ in range(rgs.dim))
            if rng.random() < 0.5:
                first = tuple(Q(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(rgs.dim))
            else:
                # an image of a dominant vector or of its negative: descent decides
                dominant = linalg.solve(rgs.simple_roots, [rng.randrange(0, 4) for _ in range(rgs.size)])
                first = rng.choice(ball).act(linalg.scale(rng.choice((1, -1)), dominant))
            if not any(first) or any(r.value(x).denominator == 1 for r in roots):
                continue
            if rng.random() < 0.5:
                second = rng.choice(ball).act(first)
            else:
                second = tuple(Q(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(rgs.dim))
            if second == first:
                continue
            report = verify_growth(rgs, turn_at(x, first, second), height, length)
            assert report.breakpoints[0].status != "legal"
            verdicts.add(report.orbit_condition)
            if second in {w.act(first) for w in ball}:
                assert report.orbit_condition == PASS
            elif weyl_ball_complete(rgs, length):
                assert report.orbit_condition == FAIL
            elif report.orbit_condition == FAIL:
                assert second not in {w.act(first) for w in wide}
        assert {PASS, FAIL} <= verdicts


def bfs_chains(walls, start):
    """Shortest chains of legal reflections from `start`: each step by a
    root of `walls` negative on the current vector.  Returns each vector
    reached with the roots of one shortest chain to it."""
    chains = {start: ()}
    frontier = [start]
    while frontier:
        following = []
        for xi in frontier:
            for root in walls:
                if root.value(xi) < 0:
                    eta = root.reflect(xi)
                    if eta not in chains:
                        chains[eta] = chains[xi] + (root,)
                        following.append(eta)
        frontier = following
    return chains


def turn_at(x, left, right):
    """A path turning at x at time 1/2 from derivative `left` to `right`."""
    half = Q(1, 2)
    return PLPath(
        (Q(0), half, Q(1)),
        (linalg.sub(x, linalg.scale(half, left)), x, linalg.add(x, linalg.scale(half, right))),
    )


class TestChainSearch:
    @pytest.mark.parametrize("rgs,height,length", PINNED_SYSTEMS, ids=("A2", "B2", "G2"))
    def test_chains_match_a_bfs_over_the_stabilizer(self, rgs, height, length):
        """At seeded points x, for every vector of the orbit of a seeded
        derivative d under the reflections in the walls through x, the
        turn from d to it is legal exactly when a breadth-first search over
        those reflections reaches it by legal steps, and then the witness
        is a chain of the same length whose every step is legal."""
        rng = random.Random(rgs.size * 100 + height)
        roots = positive_roots(rgs, height)
        turns = chains_seen = 0
        while turns < 150:
            x = tuple(Q(rng.randrange(-6, 7), rng.choice((1, 2, 3))) for _ in range(2))
            d = tuple(Q(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(2))
            walls = [r for r in roots if r.value(x).denominator == 1]
            if not walls or not any(d):
                continue
            orbit, frontier = {d}, [d]
            while frontier:
                frontier = [r.reflect(v) for v in frontier for r in walls if r.reflect(v) not in orbit]
                orbit.update(frontier)
            chains = bfs_chains(walls, d)
            for target in sorted(orbit - {d}):
                check = verify_growth(rgs, turn_at(x, d, target), height, length).breakpoints[0]
                turns += 1
                if target not in chains:
                    assert check.status == "illegal"
                    continue
                assert check.status == "legal"
                chain = check.witness if isinstance(check.witness[0], tuple) else (check.witness,)
                assert len(chain) == len(chains[target])
                chains_seen += len(chain) > 1
                xi = d
                for coords in chain:
                    root = next(r for r in walls if r.coords == coords)
                    assert root.value(xi) < 0
                    xi = root.reflect(xi)
                assert xi == target
        assert chains_seen > 0

    def test_the_sl3_vertex_turn_is_a_chain_of_two(self):
        """The turn an SL3 campaign's retraction makes at the vertex (0, 0),
        from (-7/12, -7/12) to (7/12, 0): reflecting by (0, 1) and then by
        (1, 0), each negative on what it reflects."""
        check = verify_growth(A2, turn_at((Q(0), Q(0)), (Q(-7, 12), Q(-7, 12)), (Q(7, 12), Q(0))), 2, 3)
        assert check.verdict == PASS
        assert check.breakpoints[0].witness == ((0, 1), (1, 0))

    def test_a_turn_on_no_wall_fails(self):
        """A single reflection, legal in direction, at a point on no wall:
        no chain of reflections in walls through the point explains it."""
        x = (Q(1, 5), Q(1, 7))
        assert all(r.value(x).denominator > 1 for r in positive_roots(A2, 2))
        alpha = simple_root(A2, 0)
        left = (Q(-1), Q(0))
        report = verify_growth(A2, turn_at(x, left, alpha.reflect(left)), 2, 3)
        assert report.verdict == FAIL
        assert report.monotone_chain == PASS
        assert report.orbit_condition == PASS
        assert report.breakpoints[0].status == "illegal"
        assert report.first_offense == Q(1, 2)
        on_wall = verify_growth(A2, turn_at((Q(0), Q(0)), left, alpha.reflect(left)), 2, 3)
        assert on_wall.verdict == PASS and on_wall.breakpoints[0].witness == (1, 0)


class TestUnorderedSegments:
    def test_reversed_pair_is_refused_before_folding(self):
        start = time.monotonic()
        with pytest.raises(UnorderedSegment, match="reversed"):
            random_folded_path(HYPERBOLIC, 0, (-1, -1), (1, 1), 2)
        with pytest.raises(UnorderedSegment, match="unknown"):
            mutated_folded_path(AFF, 0, (1, 0, 0), (0, 1, 0), 2)
        assert time.monotonic() - start < 1

    def test_incomparable_pair_is_named(self, monkeypatch):
        monkeypatch.setattr(heckepath, "tits_preorder", lambda *args: INCOMPARABLE)
        with pytest.raises(UnorderedSegment, match="incomparable"):
            random_folded_path(HYPERBOLIC, 0, (-1, -1), (1, 1), 2)

    def test_ordered_pairs_fold_outside_finite_type(self):
        path = random_folded_path(HYPERBOLIC, 3, (0, 0), (-3, -3), 2)
        assert verify_growth(HYPERBOLIC, path, 2, 3).verdict == PASS

    def test_finite_type_skips_the_preorder(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the Tits cone of a finite type is the whole space")

        monkeypatch.setattr(heckepath, "tits_preorder", refuse)
        random_folded_path(A2, 0, (1, 1), (-1, -1), 2)
