"""Walls, half-apartments, enclosed sets, the affine Weyl group.

Rank one is small enough to work out every expected value by hand (the
default A1 realization has alpha(x) = 2x, so walls sit at half-integers);
those frozen facts anchor the suite, and hypothesis covers the general
properties of enclosures on A2.
"""

import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masures import linalg
from masures.apartment import (
    EVERYTHING,
    AffineWeylElement,
    EnclosedSet,
    HalfApartment,
    Sector,
    SectorGerm,
    Wall,
    affine_reflect,
    crossing_groups,
    empty_set,
    enclosure_of,
    generic_position,
    minus_infinity,
    plus_infinity,
    root_table,
    segment_values,
    translation,
    walls_crossed,
    whole_apartment,
)
from masures.errors import DegenerateSegment, EmptyInput
from masures.kmcore import (
    default_realization,
    enumerate_real_roots,
    positive_roots,
    realization,
    simple_root,
    validate_matrix,
    weyl_ball,
    weyl_identity,
    weyl_word,
)
from masures.models import SL3Model, TreeModel
from masures.models.base import _between_hits, _carries, _mismatches

A1 = default_realization(validate_matrix([[2]]))
A2 = default_realization(validate_matrix([[2, -1], [-1, 2]]))

ALPHA = simple_root(A1, 0)


def affine_identity(rgs):
    return AffineWeylElement(weyl_identity(rgs), rgs.zero())


def wall_reflection(wall):
    """The affine reflection fixing the wall pointwise: across M(alpha, k)
    the map is v - (alpha(v) + k) coroot, the linear reflection r_alpha
    followed by translation by -k coroot."""
    root = wall.root
    linear = weyl_word(root.rgs, root.word + (root.base,) + tuple(reversed(root.word)))
    return AffineWeylElement(linear, tuple(-wall.level * c for c in root.coroot))


def a2_points(n):
    coords = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    point = st.tuples(coords, coords)
    return st.lists(point, min_size=1, max_size=n)


# -- walls and halves ------------------------------------------------------------


class TestWall:
    def test_two_descriptions_one_wall(self):
        assert Wall(ALPHA, 3) == Wall(ALPHA.negated(), -3)
        assert hash(Wall(ALPHA, 3)) == hash(Wall(ALPHA.negated(), -3))
        assert Wall(ALPHA, 3) != Wall(ALPHA, -3)

    def test_contains_and_positive(self):
        # alpha(x) = 2x, so M(alpha, 3) is the point x = -3/2
        wall = Wall(ALPHA.negated(), -3)
        assert wall.contains((Q(-3, 2),))
        assert not wall.contains((Q(3, 2),))
        assert wall.positive().root.is_positive

    def test_level_must_be_integral(self):
        with pytest.raises(TypeError):
            Wall(ALPHA, Q(1, 2))


class TestHalfApartment:
    def test_contains(self):
        half = HalfApartment(ALPHA, -1)  # 2x - 1 >= 0
        assert half.contains((Q(1, 2),))
        assert not half.contains((Q(0),))
        assert not HalfApartment(ALPHA, -1, strict=True).contains((Q(1, 2),))

    def test_complement_partitions(self):
        half = HalfApartment(ALPHA, 0)
        for x in (Q(-1), Q(0), Q(1, 3)):
            assert half.contains((x,)) != half.complement().contains((x,))

    def test_oriented_equality(self):
        # unlike walls, D(alpha, k) and D(-alpha, -k) are different sets
        assert HalfApartment(ALPHA, 1) != HalfApartment(ALPHA.negated(), -1)
        assert HalfApartment(ALPHA, 1) == HalfApartment(ALPHA, 1)


# -- enclosed sets -----------------------------------------------------------------


class TestEnclosedSet:
    def test_tightest_half_per_direction(self):
        s = EnclosedSet(A1, (HalfApartment(ALPHA, 2), HalfApartment(ALPHA, 0)))
        assert s.halves == (HalfApartment(ALPHA, 0),)

    def test_infeasible_collapses_to_empty(self):
        s = EnclosedSet(A1, (HalfApartment(ALPHA, 0), HalfApartment(ALPHA.negated(), -1)))
        assert s.is_empty
        assert s.halves == ()
        assert not s.contains((Q(0),))
        assert s.sample_point() is None

    def test_everything_member_is_discarded(self):
        s = EnclosedSet(A1, (EVERYTHING, HalfApartment(ALPHA, 0)))
        assert s.halves == (HalfApartment(ALPHA, 0),)

    def test_semantic_equality(self):
        a = EnclosedSet(A1, (HalfApartment(ALPHA, 0), HalfApartment(ALPHA.negated(), 1)))
        b = EnclosedSet(
            A1,
            (
                HalfApartment(ALPHA, 0),
                HalfApartment(ALPHA, 2),
                HalfApartment(ALPHA.negated(), 1),
            ),
        )
        assert a == b
        assert b == a
        assert a != whole_apartment(A1)

    def test_includes(self):
        inner = EnclosedSet(A1, (HalfApartment(ALPHA, 0), HalfApartment(ALPHA.negated(), 1)))
        outer = EnclosedSet(A1, (HalfApartment(ALPHA, 2),))
        assert outer.includes(inner)
        assert not inner.includes(outer)
        assert whole_apartment(A1).includes(outer)
        assert outer.includes(empty_set(A1))

    def test_intersect(self):
        first = EnclosedSet(A1, (HalfApartment(ALPHA, 0), HalfApartment(ALPHA.negated(), 1)))
        shifted = EnclosedSet(
            A1, (HalfApartment(ALPHA, -1), HalfApartment(ALPHA.negated(), 3))
        )
        both = first.intersect(shifted)  # [0, 1/2] and [1/2, 3/2] meet in the point 1/2
        assert both.contains((Q(1, 2),))
        assert not both.contains((Q(0),)) and not both.contains((Q(3, 4),))
        assert not both.is_empty

    def test_empty_and_whole(self):
        assert empty_set(A2).is_empty
        assert whole_apartment(A2).contains((Q(100), Q(-100)))
        assert whole_apartment(A2).halves == ()


GRID = tuple((Q(x), Q(y)) for x in range(-3, 4) for y in range(-3, 4))


def hit_subsets():
    """50 seeded (hits, misses) splits of GRID."""
    rng = random.Random(5)
    for _ in range(50):
        hits = rng.sample(GRID, rng.randrange(1, len(GRID)))
        yield hits, [v for v in GRID if v not in hits]


GRID_INDEX = {v: i for i, v in enumerate(GRID)}


def positions(points):
    return [GRID_INDEX[v] for v in points]


class TestEnclosureOf:
    def test_a1_interval(self):
        s = enclosure_of(A1, [(Q(0),), (Q(3, 10),)], 1)
        assert s.halves == (HalfApartment(ALPHA.negated(), 1), HalfApartment(ALPHA, 0))
        assert s.contains((Q(1, 2),))  # rounds out to the walls
        assert not s.contains((Q(6, 10),))
        assert s.exact and s.truncated_at == 1

    def test_single_lattice_point_is_pinned(self):
        s = enclosure_of(A2, [(Q(0), Q(0))], 2)
        assert s.contains((Q(0), Q(0)))
        assert not s.contains((Q(1, 7), Q(0)))
        assert s.sample_point() == (Q(0), Q(0))

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            enclosure_of(A1, [], 1)

    def test_affine_truncation_is_flagged(self):
        affine = default_realization(validate_matrix([[2, -2], [-2, 2]]))
        s = enclosure_of(affine, [(Q(0), Q(0), Q(0)), (Q(1), Q(0), Q(0))], 5)
        assert not s.exact
        assert s.truncated_at == 5

    @given(a2_points(5))
    @settings(max_examples=50, deadline=None)
    def test_contains_points_and_combinations(self, pts):
        s = enclosure_of(A2, pts, 2)
        for p in pts:
            assert s.contains(p)
        mid = tuple(sum(c[i] for c in pts) / len(pts) for i in range(2))
        assert s.contains(mid)

    @given(a2_points(4))
    @settings(max_examples=50, deadline=None)
    def test_walls_are_tight(self, pts):
        """Every root direction is cut at the nearest admissible level, so
        some point sits within distance one of each bounding wall."""
        s = enclosure_of(A2, pts, 2)
        for root in enumerate_real_roots(A2, 2):
            level = -min(root.value(p) for p in pts).__floor__()
            assert HalfApartment(root, level) in set(s.halves) or EnclosedSet(
                A2, set(s.halves) | {HalfApartment(root, level)}
            ) == s


# -- wall crossings ------------------------------------------------------------------


class TestWallsCrossed:
    def test_a1_three_crossings(self):
        crossings = walls_crossed(A1, (Q(-1, 4),), (Q(5, 4),), 1)
        assert [t for t, _ in crossings] == [Q(1, 6), Q(1, 2), Q(5, 6)]
        assert [ws[0] for _, ws in crossings] == [
            Wall(ALPHA, 0),
            Wall(ALPHA, -1),
            Wall(ALPHA, -2),
        ]

    def test_carrier_wall_not_crossed(self):
        # the segment runs inside M(alpha_1, 0); only transversal walls count
        crossings = walls_crossed(A2, (Q(0), Q(0)), (Q(0), Q(1)), 2)
        assert all(w.root.coords != (1, 0) for _, ws in crossings for w in ws)

    def test_simultaneous_crossings_grouped(self):
        crossings = walls_crossed(A2, (Q(-1), Q(-1)), (Q(1), Q(1)), 2)
        at_origin = [ws for t, ws in crossings if t == Q(1, 2)]
        assert len(at_origin) == 1
        assert len(at_origin[0]) == 3

    def test_endpoints_excluded(self):
        crossings = walls_crossed(A1, (Q(0),), (Q(1, 4),), 1)
        assert crossings == ()

    def test_degenerate(self):
        with pytest.raises(DegenerateSegment):
            walls_crossed(A1, (Q(0),), (Q(0),), 1)


# -- the lazy scan against a brute-force oracle --------------------------------------

B2 = default_realization(validate_matrix([[2, -1], [-2, 2]]))
G2 = default_realization(validate_matrix([[2, -1], [-3, 2]]))
A3 = default_realization(validate_matrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]]))
AFF = default_realization(validate_matrix([[2, -2], [-2, 2]]))
# A2 on the coroots 2 e_0, 2 e_1, so the forms (1, -1/2), (-1/2, 1) carry halves
A2_HALVES = realization(
    validate_matrix([[2, -1], [-1, 2]]),
    [(2, 0), (0, 2)],
    [(1, Q(-1, 2)), (Q(-1, 2), 1)],
)

# (system, saturated height, a height below saturation or None)
CROSSING_SYSTEMS = (
    (A1, 1, None),
    (A2, 2, 1),
    (B2, 3, 1),
    (G2, 5, 2),
    (A3, 3, 2),
    (AFF, 3, 1),
    (A2_HALVES, 2, 1),
)
CROSSING_IDS = ("A1", "A2", "B2", "G2", "A3", "affA1", "A2-halves")


def crossings_oracle(rgs, a, b, height):
    """Every positive root evaluated with Fraction, every integer level
    strictly between its two values, grouped by exact crossing time."""
    groups = {}
    for root in positive_roots(rgs, height):
        va, vb = root.value(a), root.value(b)
        if va == vb:
            continue
        n = math.floor(min(va, vb)) + 1
        while n < max(va, vb):
            groups.setdefault((n - va) / (vb - va), []).append((root.coords, -n))
            n += 1
    return [(t, sorted(ws)) for t, ws in sorted(groups.items())]


def as_keys(groups):
    return [(t, [(w.root.coords, w.level) for w in ws]) for t, ws in groups]


def random_point(rng, dim):
    return tuple(Q(rng.randrange(-12, 13), rng.choice((1, 2, 3, 5, 7))) for _ in range(dim))


def onto_wall(root, p):
    """p moved along the coroot onto the wall M(root, -floor(root(p)))."""
    value = root.value(p)
    shift = (math.floor(value) - value) / 2  # root(coroot) = 2
    return tuple(x + shift * c for x, c in zip(p, root.coroot))


class TestCrossingGroups:
    def check(self, rgs, a, b, height):
        expected = crossings_oracle(rgs, a, b, height)
        assert as_keys(walls_crossed(rgs, a, b, height)) == expected
        first = next(crossing_groups(*segment_values(rgs, a, b, height)), None)
        assert as_keys([first] if first else []) == expected[:1]
        return expected

    @pytest.mark.parametrize("rgs,saturated,low", CROSSING_SYSTEMS, ids=CROSSING_IDS)
    def test_matches_the_oracle(self, rgs, saturated, low):
        rng = random.Random(saturated)
        crossed = 0
        for height in (saturated, low):
            if height is None:
                continue
            for _ in range(100):
                a, b = random_point(rng, rgs.dim), random_point(rng, rgs.dim)
                if a != b:
                    crossed += bool(self.check(rgs, a, b, height))
        assert crossed > 80

    @pytest.mark.parametrize("rgs,saturated,low", CROSSING_SYSTEMS, ids=CROSSING_IDS)
    def test_endpoints_on_walls_are_excluded(self, rgs, saturated, low):
        rng = random.Random(100 + saturated)
        roots = positive_roots(rgs, saturated)
        for _ in range(60):
            a = onto_wall(rng.choice(roots), random_point(rng, rgs.dim))
            b = onto_wall(rng.choice(roots), random_point(rng, rgs.dim))
            if a != b:
                self.check(rgs, a, b, saturated)

    @pytest.mark.parametrize("rgs,saturated,low", CROSSING_SYSTEMS[1:], ids=CROSSING_IDS[1:])
    def test_segments_inside_a_wall(self, rgs, saturated, low):
        rng = random.Random(200 + saturated)
        crossed = 0
        for _ in range(60):
            root = rng.choice(positive_roots(rgs, saturated))
            # a direction the form kills: two coordinates of the form, swapped
            i, j = rng.sample(range(rgs.dim), 2)
            v = [Q(0)] * rgs.dim
            v[i], v[j] = root.form[j], -root.form[i]
            a = onto_wall(root, random_point(rng, rgs.dim))
            step = rng.randrange(1, 4)
            b = tuple(x + step * y for x, y in zip(a, v))
            if a == b:
                continue
            groups = self.check(rgs, a, b, saturated)
            assert all(coords != root.coords for _, ws in groups for coords, _ in ws)
            crossed += bool(groups)
        assert crossed > 20

    @pytest.mark.parametrize("rgs,saturated,low", CROSSING_SYSTEMS[1:], ids=CROSSING_IDS[1:])
    def test_segments_through_a_vertex(self, rgs, saturated, low):
        # every root is integral at an integral point c of these
        # realizations, so a segment through c meets all its walls at once
        rng = random.Random(300 + saturated)
        for _ in range(40):
            c = tuple(Q(2 * rng.randrange(-2, 3)) for _ in range(rgs.dim))
            a = random_point(rng, rgs.dim)
            b = tuple(2 * z - x for z, x in zip(c, a))
            if a == b:
                continue
            groups = self.check(rgs, a, b, saturated)
            moving = sum(r.value(a) != r.value(b) for r in positive_roots(rgs, saturated))
            assert (Q(1, 2), moving) in [(t, len(ws)) for t, ws in groups]

    def test_fractional_forms_share_one_denominator(self):
        a, b = (Q(1, 3), Q(0)), (Q(0), Q(5, 7))
        m, values = segment_values(A2_HALVES, a, b, 2)
        assert m == 2 * 21
        for root, va, vb in values:
            assert (Q(va, m), Q(vb, m)) == (root.value(a), root.value(b))


# -- the window root table against Fraction evaluation ------------------------------


def check_table(rgs, height, points):
    table = root_table(rgs, height, points)
    roots = sorted(positive_roots(rgs, height), key=lambda r: r.coords)
    assert table.roots == tuple(roots)
    m = table.denom
    assert len(table.rows) == len(points)
    for v, row in zip(points, table.rows):
        assert list(row) == [m * r.value(v) for r in roots]


TABLE_SYSTEMS = ((A2, 2), (B2, 3), (G2, 5), (A2_HALVES, 2))


class TestRootTable:
    @pytest.mark.parametrize("radius", range(1, 17))
    def test_tree_windows(self, radius):
        model = TreeModel(q=2)
        check_table(model.rgs, model.root_height_bound, model.special_points(radius))

    @pytest.mark.parametrize("radius", range(1, 13))
    def test_sl3_windows(self, radius):
        model = SL3Model(q=2)
        check_table(model.rgs, model.root_height_bound, model.special_points(radius))

    @pytest.mark.parametrize("rgs, height", TABLE_SYSTEMS, ids=("A2", "B2", "G2", "A2-halves"))
    def test_grids_and_fractional_points(self, rgs, height):
        check_table(rgs, height, GRID)
        rng = random.Random(41)
        for _ in range(30):
            count = rng.randrange(1, 12)
            check_table(rgs, height, tuple(random_point(rng, 2) for _ in range(count)))

    def test_fractional_forms_and_points_share_one_denominator(self):
        table = root_table(A2_HALVES, 2, ((Q(1, 3), Q(0)), (Q(0), Q(5, 7))))
        assert table.denom == 2 * 21

    def test_table_is_built_once_per_window(self):
        model = SL3Model(q=2)
        first = root_table(model.rgs, 2, model.special_points(6))
        assert root_table(SL3Model(q=2).rgs, 2, model.special_points(6)) is first

    @pytest.mark.parametrize("rgs, height", TABLE_SYSTEMS, ids=("A2", "B2", "G2", "A2-halves"))
    def test_mismatches_match_the_fraction_oracle(self, rgs, height):
        """The members outside an enclosed set and the non-members inside
        it, read off the integer table, against `EnclosedSet.contains`, for
        sets cut by a few random half-apartments (and the empty set) and
        seeded member/non-member splits of the grid.  A non-member between
        two members lies inside any such set holding every member, which
        is why `check_MA2` then searches only those for a convexity
        witness."""
        table = root_table(rgs, height, GRID)
        roots = enumerate_real_roots(rgs, height)
        rng = random.Random(7)
        sets = [empty_set(rgs), whole_apartment(rgs)] + [
            EnclosedSet(rgs, [HalfApartment(rng.choice(roots), rng.randrange(-2, 4))
                              for _ in range(rng.randrange(1, 4))])
            for _ in range(40)
        ]
        checked = 0
        for fitted in sets:
            held = {v for v in GRID if fitted.contains(v)}
            for hits, misses in hit_subsets():
                pairs = [(i, None) for i in positions(hits)]
                outside, inside = _mismatches(table, fitted, pairs, positions(misses))
                assert outside == positions([v for v in hits if v not in held])
                assert inside == positions([v for v in misses if v in held])
                if not outside:
                    for v in misses:
                        if v not in held:
                            assert _between_hits(v, hits) is None
                            checked += 1
        assert checked > 0

    def test_strict_and_negative_halves(self):
        table = root_table(A2_HALVES, 2, GRID)
        halves = [HalfApartment(r, k, strict) for r in enumerate_real_roots(A2_HALVES, 2)
                  for k in (-1, 0, 2) for strict in (False, True)]
        tests = table.half_tests(halves)
        for i, v in enumerate(GRID):
            out = table.outside(tests, i)
            assert out == {j for j, h in enumerate(halves) if not h.contains(v)}


class TestGenericPosition:
    def test_distinct_times(self):
        walls = [Wall(ALPHA, 0), Wall(ALPHA, -1)]
        assert generic_position(A1, (Q(-1, 4),), (Q(3, 4),), walls)

    def test_two_walls_one_time(self):
        a, b = (Q(-1), Q(-1)), (Q(1), Q(1))
        walls = [Wall(simple_root(A2, 0), 0), Wall(simple_root(A2, 1), 0)]
        assert not generic_position(A2, a, b, walls)

    def test_lone_carrier_is_generic(self):
        a, b = (Q(0), Q(0)), (Q(0), Q(1))
        assert generic_position(A2, a, b, [Wall(simple_root(A2, 0), 0)])

    def test_carrier_plus_incidence_is_not(self):
        a, b = (Q(0), Q(0)), (Q(0), Q(1))
        walls = [Wall(simple_root(A2, 0), 0), Wall(simple_root(A2, 1), 0)]
        assert not generic_position(A2, a, b, walls)

    def test_endpoint_incidence_counts(self):
        # both simple walls pass through the start point
        a, b = (Q(0), Q(0)), (Q(1), Q(0))
        walls = [Wall(simple_root(A2, 0), 0), Wall(simple_root(A2, 1), 0)]
        assert not generic_position(A2, a, b, walls)


# -- affine Weyl ------------------------------------------------------------------------


class TestAffineReflect:
    def test_a1_frozen_value(self):
        assert affine_reflect(A1, ALPHA, 1, (Q(0),)) == (Q(-1),)

    def test_fixes_the_wall(self):
        assert affine_reflect(A1, ALPHA, 1, (Q(-1, 2),)) == (Q(-1, 2),)

    def test_involution(self):
        rho = simple_root(A2, 0)
        v = (Q(2), Q(-3))
        once = affine_reflect(A2, rho, 2, v)
        assert affine_reflect(A2, rho, 2, once) == v


class TestAffineWeylElement:
    def test_translation_must_be_in_coroot_lattice(self):
        with pytest.raises(ValueError):
            translation(A2, (Q(1, 2), Q(0)))
        tree = __import__("masures.models.tree", fromlist=["_tree_rgs"])._tree_rgs()
        with pytest.raises(ValueError):
            translation(tree, (Q(1),))  # coroot lattice is 2Z there
        assert translation(tree, (Q(4),)).apply((Q(1),)) == (Q(5),)

    def test_compose_and_inverse(self):
        w = AffineWeylElement(weyl_word(A2, (0, 1)), (Q(1), Q(-1)))
        g = AffineWeylElement(weyl_word(A2, (1,)), (Q(0), Q(2)))
        v = (Q(1, 3), Q(5))
        assert w.compose(g).apply(v) == w.apply(g.apply(v))
        assert w.compose(w.inverse()) == affine_identity(A2)
        assert w.inverse().apply(w.apply(v)) == v

    def test_wall_reflection_fixes_wall_and_involutes(self):
        root = simple_root(A2, 0)
        wall = Wall(root, 2)
        r = wall_reflection(wall)
        x = (Q(-1), Q(0))  # alpha_1(x) + 2 = 0
        assert wall.contains(x)
        assert r.apply(x) == x
        assert r.compose(r) == affine_identity(A2)
        assert r.apply_to_wall(wall) == wall

    def test_apply_to_wall_moves_points_with_the_wall(self):
        g = AffineWeylElement(weyl_word(A2, (1,)), (Q(1), Q(2)))
        wall = Wall(simple_root(A2, 0), -1)
        x = (Q(1, 2), Q(0))
        assert wall.contains(x)
        assert g.apply_to_wall(wall).contains(g.apply(x))

    def test_apply_to_half_preserves_membership(self):
        g = AffineWeylElement(weyl_word(A2, (0,)), (Q(-1), Q(1)))
        half = HalfApartment(simple_root(A2, 1), 1)
        for v in ((Q(0), Q(0)), (Q(3), Q(-2)), (Q(-1), Q(-1))):
            assert half.contains(v) == g.apply_to_half(half).contains(g.apply(v))


# A2 on the coroots (1, 0), (-1/2, 1), whose reflections have fractional matrices
A2_SKEW = realization(
    validate_matrix([[2, -1], [-1, 2]]),
    [(1, 0), (Q(-1, 2), 1)],
    [(2, 0), (-1, Q(3, 2))],
)


class TestIntegerIntertwinerMatch:
    """`_carries` tests a candidate on denominator-cleared integer vectors;
    `AffineWeylElement.apply` is the reference."""

    @pytest.mark.parametrize(
        "rgs", [A1, A2, A2_SKEW, B2, G2], ids=["A1", "A2", "A2-skew", "B2", "G2"]
    )
    def test_agrees_with_apply(self, rgs):
        rng = random.Random(23)
        ball = weyl_ball(rgs, 6)
        outcomes = set()
        for _ in range(150):
            w = rng.choice(ball)
            tau = rgs.zero()
            for coroot in rgs.simple_coroots:
                k = rng.randrange(-3, 4)
                tau = tuple(t + k * c for t, c in zip(tau, coroot))
            candidate = AffineWeylElement(w, tau)
            xs = [random_point(rng, rgs.dim) for _ in range(rng.randrange(1, 9))]
            ys = [candidate.apply(x) for x in xs]
            kind = rng.randrange(3)
            if kind == 1:
                # exactly one coordinate of one image is off
                i, j = rng.randrange(len(ys)), rng.randrange(rgs.dim)
                off = Q(rng.choice((-1, 1)), rng.randrange(1, 7))
                ys[i] = ys[i][:j] + (ys[i][j] + off,) + ys[i][j + 1:]
            elif kind == 2:
                ys = [random_point(rng, rgs.dim) for _ in xs]
            expected = all(candidate.apply(x) == y for x, y in zip(xs, ys))
            cleared = linalg.clear_denominators
            assert _carries(w, tau, cleared(xs), cleared(ys)) == expected
            assert kind != 1 or not expected
            outcomes.add(expected)
        assert outcomes == {True, False}

    def test_fractional_matrices_occur(self):
        assert any(c.denominator > 1 for w in weyl_ball(A2_SKEW, 3) for row in w.matrix for c in row)


class TestSectorGerms:
    def test_plus_minus_distinct(self):
        assert plus_infinity(A2) != minus_infinity(A2)
        assert plus_infinity(A2) == SectorGerm(weyl_word(A2, (0, 0)), 1)

    @pytest.mark.parametrize(
        "rgs",
        [
            A1,
            A2,
            default_realization(validate_matrix([[2, -2], [-1, 2]])),
            default_realization(validate_matrix([[2, -3], [-1, 2]])),
            # a realization of dimension above the rank
            realization(validate_matrix([[2]]), [(1, 1)], [(1, 1)]),
        ],
        ids=["A1", "A2", "B2", "G2", "A1-dim2"],
    )
    def test_one_chamber_has_two_names_in_finite_type(self, rgs):
        """-C = w0(C), so the germs (w, -1) and (w w0, +1) are one germ:
        they compare and hash equal, and the group's 2 |W| names cover
        exactly |W| germs."""
        group = weyl_ball(rgs, 6)
        w0 = group[-1]
        assert len(group) == 2 * len(w0.word)  # the whole dihedral group
        for w in group:
            minus, plus = SectorGerm(w, -1), SectorGerm(w.compose(w0), 1)
            assert minus == plus and hash(minus) == hash(plus)
        assert len({SectorGerm(w, sign) for w in group for sign in (1, -1)}) == len(group)

    def test_opposite_signs_never_meet_outside_finite_type(self):
        """In affine A1 the Tits cone and its negative have disjoint
        interiors, so a + germ never equals a - germ."""
        ball = weyl_ball(AFF, 5)
        plus = [SectorGerm(w, 1) for w in ball]
        minus = [SectorGerm(w, -1) for w in ball]
        assert not any(p == m for p in plus for m in minus)
        assert len(set(plus)) == len(set(minus)) == len(ball)
        assert not set(plus) & set(minus)

    def test_repr_keeps_the_name_given(self):
        assert repr(SectorGerm(weyl_word(A2, (0, 1, 0)), 1)) == "SectorGerm(+infinity, word=(0, 1, 0))"
        assert repr(minus_infinity(A2)) == "SectorGerm(-infinity, word=())"
        assert repr(SectorGerm(weyl_word(A2, (1,)), -1)) == "SectorGerm(-infinity, word=(1,))"

    def test_direction_contains(self):
        plus = plus_infinity(A2)
        assert plus.direction_contains((Q(1), Q(1)))
        assert not plus.direction_contains((Q(-1), Q(0)))
        minus = minus_infinity(A2)
        assert minus.direction_contains((Q(-2), Q(-1)))

    def test_sector_translates_the_cone(self):
        sector = Sector((Q(1), Q(1)), plus_infinity(A2))
        assert sector.contains((Q(2), Q(2)))
        assert not sector.contains((Q(0), Q(0)))
