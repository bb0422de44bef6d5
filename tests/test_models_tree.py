"""Tree model: charts, retractions, apartment intersections.

The retraction oracle here knows nothing about folding: it walks the
graph.  A vertex image under the retraction from a germ is read off the
geodesic from a deep anchor on that germ's ray, and the geodesic distance
between address words has the closed form len(u) + len(w) - 2 lcp(u, w),
which a breadth-first search over the actual neighbor structure
cross-checks below.  Edge points interpolate their endpoints, since walls
only pass through vertices.
"""

import random
from fractions import Fraction as Q

import pytest

from masures.apartment import (
    HalfApartment,
    SectorGerm,
    empty_set,
    minus_infinity,
    plus_infinity,
    whole_apartment,
)
from masures.errors import DegenerateSegment, InvalidWindow, MasureError, UnsupportedGerm
from masures.heckepath import FAIL, PASS, PLPath
from masures.kmcore import default_realization, simple_root, validate_matrix, weyl_word
from masures.models import (
    TreeApartment,
    TreeEnd,
    TreeModel,
    TreePoint,
    check_MA2,
    intersect_with_standard,
    retract,
    retract_segment,
)
from masures.models.base import MasureModel

MODEL = TreeModel(q=2)
A2 = default_realization(validate_matrix([[2, -1], [-1, 2]]))
RGS = MODEL.rgs
ALPHA = simple_root(RGS, 0)
STD = MODEL.standard_apartment()

ANCHOR_DEPTH = 64


# -- graph oracle ----------------------------------------------------------------


def neighbors(q, word):
    out = [] if not word else [word[:-1]]
    low = 0 if not word else 1
    out.extend(word + (letter,) for letter in range(low, q + 1))
    return out


def bfs_distance(q, u, w):
    seen = {u}
    frontier = [u]
    d = 0
    while True:
        if w in frontier:
            return d
        frontier = [
            n for x in frontier for n in neighbors(q, x) if n not in seen and not seen.add(n)
        ]
        d += 1


def word_distance(u, w):
    lcp = 0
    while lcp < min(len(u), len(w)) and u[lcp] == w[lcp]:
        lcp += 1
    return len(u) + len(w) - 2 * lcp


def oracle_vertex_image(word, germ_sign):
    """Coordinate of the retracted vertex, off the geodesic from a deep
    anchor: from the minus ray the image is anchor coordinate plus the
    distance, from the plus ray it is anchor coordinate minus it."""
    if germ_sign < 0:
        anchor = (0,) + (1,) * (ANCHOR_DEPTH - 1)
        return -ANCHOR_DEPTH + word_distance(anchor, word)
    anchor = (1,) * ANCHOR_DEPTH
    return ANCHOR_DEPTH - word_distance(anchor, word)


def oracle_point_image(point, germ_sign):
    v0 = oracle_vertex_image(point.anchor, germ_sign)
    if point.is_vertex:
        return (Q(v0),)
    v1 = oracle_vertex_image(point.anchor + (point.letter,), germ_sign)
    return (v0 + point.s * (v1 - v0),)


def test_word_distance_is_the_graph_distance():
    words = [()]
    for _ in range(4):
        words += [w + (letter,) for w in words if len(w) < 4 for letter in range(0 if not w else 1, 3)]
    words = sorted(set(words))[:20]
    for u in words:
        for w in words:
            assert word_distance(u, w) == bfs_distance(2, u, w)


def test_model_bounds_are_derived_from_the_root_data():
    # A1: one positive root, of height 1, and W = {1, r}
    assert (MODEL.root_height_bound, MODEL.weyl_length_bound) == (1, 1)


# -- addresses --------------------------------------------------------------------


class TestAddresses:
    def test_end_prefix_never_ends_in_repeat(self):
        assert TreeEnd((1, 1, 2, 1, 1), 1).prefix == (1, 1, 2)
        assert TreeEnd((), 1) == TreeEnd((1, 1), 1)

    def test_apartment_needs_two_ends(self):
        with pytest.raises(MasureError):
            TreeApartment(TreeEnd((), 1), TreeEnd((1,), 1))

    def test_divergence_and_vertices(self):
        ap = TreeApartment(TreeEnd((2, 1, 2), 1), TreeEnd((2,), 1))
        assert ap.depth == 2
        assert ap.vertex_at(2) == (2, 1)
        assert ap.vertex_at(3) == (2, 1, 1)
        assert ap.vertex_at(1) == (2, 1, 2)
        assert ap.vertex_at(0) == (2, 1, 2, 1)
        assert ap.vertex_coord((2, 1, 1)) == 3
        assert ap.vertex_coord((1, 1)) is None

    def test_words_match_the_per_letter_construction(self):
        """Ray words, divergence depth, vertices and coordinates against
        the letter-by-letter reading of the two ends."""

        def ray_word(end, depth):
            return tuple(end.letter(i) for i in range(depth))

        def divergence_depth(ap):
            i = 0
            while ap.minus.letter(i) == ap.plus.letter(i):
                i += 1
            return i

        rng = random.Random(23)
        for _ in range(300):
            q = rng.randrange(2, 5)

            def random_end():
                prefix = tuple(rng.randrange(0 if i == 0 else 1, q + 1) for i in range(rng.randrange(6)))
                return TreeEnd(prefix, rng.randrange(1, q + 1))

            minus, plus = random_end(), random_end()
            if minus == plus:
                continue
            ap = TreeApartment(minus, plus)
            m = divergence_depth(ap)
            assert ap.depth == m
            for depth in range(12):
                assert plus.ray_vertex(depth) == ray_word(plus, depth)
                assert minus.ray_vertex(depth) == ray_word(minus, depth)
            for n in range(-8, 12):
                word = ray_word(plus, n) if n >= m else ray_word(minus, 2 * m - n)
                assert ap.vertex_at(n) == word
                assert ap.vertex_coord(word) == n
                # a sibling of the vertex, off the line unless it is the other ray's vertex
                sibling = word[:-1] + (word[-1] % q + 1,) if word else ()
                if sibling not in (ray_word(plus, len(sibling)), ray_word(minus, len(sibling))):
                    assert ap.vertex_coord(sibling) is None

    def test_point_normalization(self):
        assert TreePoint((1,), 1, Q(0)) == TreePoint((1,), None, Q(0))
        assert TreePoint((1,), 1, Q(1)) == TreePoint((1, 1), None, Q(0))
        with pytest.raises(MasureError):
            TreePoint((1,), None, Q(1, 2))
        with pytest.raises(MasureError):
            TreePoint((1,), 2, Q(3, 2))

    def test_model_rejects_thin_tree(self):
        with pytest.raises(MasureError):
            TreeModel(q=1)


# -- charts -----------------------------------------------------------------------


class TestCharts:
    @pytest.mark.parametrize("x", [Q(-3), Q(-1, 2), Q(0), Q(1, 3), Q(2), Q(7, 4)])
    def test_round_trip_on_standard(self, x):
        point = MODEL.chart(STD, (x,))
        assert MODEL.apartment_coords(STD, point) == (x,)

    def test_round_trip_on_random_apartments(self):
        rng = random.Random(5)
        for _ in range(25):
            ap = MODEL.random_apartment(rng.getrandbits(32), 6)
            x = Q(rng.randrange(-12, 13), rng.choice((1, 2, 3)))
            point = MODEL.chart(ap, (x,))
            assert MODEL.apartment_coords(ap, point) == (x,)

    def test_chart_respects_orientation(self):
        # integer coordinates land on vertices, with parity matching depth
        for n in range(-4, 5):
            word = MODEL.chart(STD, (Q(n),)).anchor
            assert (len(word) - n) % 2 == 0

    def test_points_off_the_apartment(self):
        other = TreeApartment(TreeEnd((2,), 1), TreeEnd((2, 2), 1))
        point = MODEL.chart(other, (Q(0),))
        assert MODEL.apartment_coords(STD, point) is None

    def test_special_points_are_the_window_integers(self):
        assert MODEL.special_points(3) == tuple((Q(k),) for k in range(-3, 4))

    def test_same_apartment_ignores_orientation(self):
        swapped = TreeApartment(STD.plus, STD.minus)
        assert MODEL.same_apartment(STD, swapped)
        assert not MODEL.same_apartment(STD, TreeApartment(TreeEnd((2,), 1), STD.plus))

    def test_random_apartment_deterministic(self):
        a = MODEL.random_apartment(99, 7)
        b = MODEL.random_apartment(99, 7)
        assert a.minus == b.minus and a.plus == b.plus
        assert MODEL.random_apartment(0, 0) is STD


# -- retractions -------------------------------------------------------------------


class TestRetractions:
    def test_vertex_images_match_graph_oracle(self):
        words = [(), (1,), (0,), (2,), (1, 2), (0, 2, 1), (2, 1, 1, 2), (1, 1, 2, 2)]
        for word in words:
            point = TreePoint(word, None, Q(0))
            assert retract(MODEL, point, minus_infinity(RGS)) == (
                Q(oracle_vertex_image(word, -1)),
            )
            assert retract(MODEL, point, plus_infinity(RGS)) == (
                Q(oracle_vertex_image(word, +1)),
            )

    def test_edge_points_interpolate(self):
        point = TreePoint((2,), 1, Q(1, 3))
        for germ, sign in ((minus_infinity(RGS), -1), (plus_infinity(RGS), +1)):
            assert retract(MODEL, point, germ) == oracle_point_image(point, sign)

    def test_segment_retraction_agrees_with_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            ap = MODEL.random_apartment(rng.getrandbits(32), rng.randrange(9))
            a = (Q(rng.randrange(-8, 9), rng.choice((1, 2, 3))),)
            b = (Q(rng.randrange(-8, 9), rng.choice((1, 2, 3))),)
            if a == b:
                continue
            for germ, sign in ((minus_infinity(RGS), -1), (plus_infinity(RGS), +1)):
                path = retract_segment(MODEL, ap, a, b, germ, 1)
                for j in range(20):
                    t = Q(j, 19)
                    x = (a[0] + t * (b[0] - a[0]),)
                    expected = oracle_point_image(MODEL.chart(ap, x), sign)
                    assert path.value(t) == expected

    def test_inside_standard_the_retraction_is_the_identity(self):
        path = retract_segment(MODEL, STD, (Q(-3, 2),), (Q(5, 4),), minus_infinity(RGS), 1)
        assert path.times == (Q(0), Q(1))
        assert path.points == ((Q(-3, 2),), (Q(5, 4),))

    def test_folded_image_is_a_hecke_path(self):
        ap = TreeApartment(TreeEnd((2,), 1), STD.plus)
        path = retract_segment(MODEL, ap, (Q(3),), (Q(-3),), minus_infinity(RGS), 1)
        from masures.heckepath import verify_growth

        assert verify_growth(RGS, path, 1, 1).verdict == PASS

    @pytest.mark.parametrize("sign", [1, -1])
    def test_reflected_germ_is_the_opposite_infinity(self, sign):
        """w0 = r_0 here, so (r_0, sign) names the germ at -sign infinity:
        it compares and hashes equal to that germ and retracts the same."""
        germ = SectorGerm(weyl_word(RGS, (0,)), sign)
        infinite = plus_infinity(RGS) if sign < 0 else minus_infinity(RGS)
        assert germ == infinite and hash(germ) == hash(infinite)
        assert germ != (minus_infinity(RGS) if sign < 0 else plus_infinity(RGS))
        rng = random.Random(31)
        for _ in range(20):
            apartment = MODEL.random_apartment(rng.getrandbits(48), 4)
            point = MODEL.chart(apartment, (Q(rng.randrange(-12, 13), rng.randrange(1, 5)),))
            assert MODEL.point_retract(point, germ) == MODEL.point_retract(point, infinite)
            assert retract(MODEL, point, germ) == retract(MODEL, point, infinite)

    def test_degenerate_segment_rejected(self):
        with pytest.raises(DegenerateSegment):
            retract_segment(MODEL, STD, (Q(1),), (Q(1),), minus_infinity(RGS), 1)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_other_germs_are_refused(self, sign):
        """A germ other than +-infinity, passed to the model directly or
        through `retract` and `retract_segment`, raises instead of being
        read as one of them.  Every germ of the tree's own system is one
        of the two, so the germ here is one of A2's."""
        germ = SectorGerm(weyl_word(A2, (0,)), sign)
        point = MODEL.chart(MODEL.random_apartment(5, 3), (Q(1, 3),))
        with pytest.raises(UnsupportedGerm):
            MODEL.point_retract(point, germ)
        with pytest.raises(UnsupportedGerm) as caught:
            retract(MODEL, point, germ)
        assert isinstance(caught.value, ValueError)
        with pytest.raises(UnsupportedGerm):
            retract_segment(MODEL, STD, (Q(0),), (Q(1),), germ, 1)

    def test_separation(self):
        """Retractions from the two germs coincide exactly on segments that
        stay in the standard apartment."""
        rng = random.Random(23)
        coincided = left = 0
        for _ in range(80):
            ap = MODEL.random_apartment(rng.getrandbits(32), rng.randrange(9))
            a = (Q(rng.randrange(-6, 7), rng.choice((1, 2))),)
            b = (Q(rng.randrange(-6, 7), rng.choice((1, 2))),)
            if a == b:
                continue
            minus = retract_segment(MODEL, ap, a, b, minus_infinity(RGS), 1)
            plus = retract_segment(MODEL, ap, a, b, plus_infinity(RGS), 1)
            samples = [Q(j, 16) for j in range(17)]
            in_std = all(
                MODEL.apartment_coords(
                    STD, MODEL.chart(ap, (a[0] + t * (b[0] - a[0]),))
                )
                is not None
                for t in samples
            )
            if minus == plus:
                coincided += 1
                assert in_std
            if not in_std:
                left += 1
                assert minus != plus
        assert coincided > 10 and left > 10


class TestClosedFormRetraction:
    """`TreeModel.retract_path` reads the turn off the end words; the
    generic wall-crossing and midpoint loop, `MasureModel.retract_path`,
    is its reference."""

    def test_projection_is_the_vertex_nearest_the_end(self):
        """Among a line's vertices the end's projection is the one nearest
        a deep anchor on the end's ray, by graph distance."""
        rng = random.Random(41)
        for _ in range(200):
            ap = MODEL.random_apartment(rng.getrandbits(32), rng.randrange(9))
            for end in (STD.minus, STD.plus):
                turn = ap.projection(end)
                if end in (ap.minus, ap.plus):
                    assert turn is None
                    continue
                anchor = end.ray_vertex(ANCHOR_DEPTH)
                distance = {n: word_distance(ap.vertex_at(n), anchor) for n in range(-40, 41)}
                nearest = min(distance.values())
                assert [n for n, d in distance.items() if d == nearest] == [turn]

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_closed_form_equals_the_base_loop(self, q):
        """1000 segments per germ, denominators 1-4, on apartments of
        complexity 0-8, in five equal shares: random segments, segments of
        the standard apartment, segments of lines sharing one end with it,
        segments starting or ending at the germ's turn vertex, and
        segments across it."""
        model = TreeModel(q)
        rng = random.Random(100 + q)

        def coordinate():
            return Q(rng.randrange(-10, 11), rng.randrange(1, 5))

        for germ, end in ((minus_infinity(RGS), STD.minus), (plus_infinity(RGS), STD.plus)):
            done = turned = at_turn = 0
            while done < 1000:
                kind = done % 5
                ap = model.random_apartment(rng.getrandbits(32), rng.randrange(9))
                if kind == 1:
                    ap = STD
                elif kind == 2:
                    shared = rng.choice((STD.minus, STD.plus))
                    other = ap.plus if ap.plus != shared else ap.minus
                    ap = TreeApartment(*rng.sample((shared, other), 2))
                a, b = coordinate(), coordinate()
                turn = ap.projection(end)
                if kind == 3 and turn is not None:
                    a, b = rng.sample((Q(turn), a), 2)
                elif kind == 4 and turn is not None:
                    a, b = rng.sample((turn - abs(a) - Q(1, 4), turn + abs(b)), 2)
                if a == b:
                    continue
                path = model.retract_path(ap, (a,), (b,), germ, 1)
                assert path == MasureModel.retract_path(model, ap, (a,), (b,), germ, 1)
                turned += len(path.times) == 3
                at_turn += turn in (a, b)
                done += 1
            assert turned > 150 and at_turn > 150

    def test_planted_misplaced_turn_is_refused(self):
        """A model whose retraction of one line turns one vertex past the
        germ's projection: the base loop accepts it, since its break
        still sits on an integer wall, but the closed form finds the piece
        it folds carried shorter than itself and names it."""
        line = TreeApartment(TreeEnd((2,), 1), STD.plus)

        class Turned(TreeModel):
            def point_retract(self, point, germ):
                y = self.apartment_coords(line, point)
                if y is not None:
                    point = self.chart(line, (y[0] - 1,))
                return super().point_retract(point, germ)

        model = Turned(q=2)
        germ = minus_infinity(RGS)
        assert line.projection(STD.minus) == 0
        a, b = (Q(3),), (Q(-3),)
        loop = MasureModel.retract_path(model, line, a, b, germ, 1)
        assert loop.times == (Q(0), Q(1, 3), Q(1))
        assert loop.points == ((Q(2),), (Q(0),), (Q(4),))
        with pytest.raises(MasureError, match=r"isometry on \(0, 1/2\)"):
            retract_segment(model, line, a, b, germ, 1)
        with pytest.raises(MasureError, match=r"isometry on \(0, 1\)"):
            retract_segment(model, line, (Q(1, 2),), a, germ, 1)
        assert retract_segment(TreeModel(q=2), line, a, b, germ, 1) == PLPath(
            (Q(0), Q(1, 2), Q(1)), ((Q(3),), (Q(0),), (Q(3),))
        )


# -- apartment intersections ---------------------------------------------------------


class TestIntersections:
    def test_shared_ray_segment(self):
        """An apartment meeting the standard line in the coordinates 0..3
        must fit exactly the pair D(alpha, 0), D(-alpha, 3)."""
        ap = TreeApartment(TreeEnd((2,), 1), TreeEnd((1, 1, 1, 2), 1))
        hits, fitted, exact = intersect_with_standard(MODEL, ap, 16)
        assert hits == tuple((Q(k),) for k in range(4))
        assert set(fitted.halves) == {
            HalfApartment(ALPHA, 0),
            HalfApartment(ALPHA.negated(), 3),
        }
        assert exact

    def test_disjoint_apartment(self):
        ap = TreeApartment(TreeEnd((2,), 1), TreeEnd((2, 2), 1))
        hits, fitted, exact = intersect_with_standard(MODEL, ap, 16)
        assert hits == ()
        assert fitted.is_empty

    def test_whole_line_shared(self):
        hits, fitted, _ = intersect_with_standard(MODEL, STD, 8)
        assert len(hits) == 17
        assert fitted.halves == ()

    def test_half_line_shared(self):
        ap = TreeApartment(TreeEnd((2,), 1), STD.plus)
        _, fitted, _ = intersect_with_standard(MODEL, ap, 16)
        assert set(fitted.halves) == {HalfApartment(ALPHA, 0)}


def shared_coordinates(first, second, reach):
    """Coordinates n/2 with |n/2| <= reach whose point of `first` lies on
    `second`: a vertex by `vertex_coord`, an edge point by charting it."""
    out = set()
    for n in range(-2 * reach, 2 * reach + 1):
        x = Q(n, 2)
        if x.denominator == 1:
            shared = second.vertex_coord(first.vertex_at(int(x))) is not None
        else:
            shared = MODEL.apartment_coords(second, MODEL.chart(first, (x,))) is not None
        if shared:
            out.add(x)
    return out


def past_every_prefix(*apartments):
    """A reach beyond which every vertex of the lines, on either side,
    lies deeper than all their ends' prefixes."""
    longest = max(len(e.prefix) for ap in apartments for e in (ap.minus, ap.plus))
    return 2 * longest + 4


class TestExactIntersection:
    """`TreeModel.intersection` against a scan of the first line's points
    out to coordinates past every prefix, where each ray either follows
    an end of the second line forever or has left it."""

    def assert_matches_the_scan(self, first, second) -> set:
        reach = past_every_prefix(first, second)
        fitted = MODEL.intersection(first, second)
        shared = shared_coordinates(first, second, reach)
        for n in range(-2 * reach, 2 * reach + 1):
            assert fitted.contains((Q(n, 2),)) == (Q(n, 2) in shared), (first, second, n)
        return shared

    def test_shared_line(self):
        for second in (STD, TreeApartment(STD.plus, STD.minus)):
            shared = self.assert_matches_the_scan(STD, second)
            assert len(shared) == 4 * past_every_prefix(STD) + 1
            fitted = MODEL.intersection(STD, second)
            assert fitted == whole_apartment(RGS)
            assert fitted.truncated_at is None

    def test_shared_ray(self):
        ap = TreeApartment(TreeEnd((2,), 1), STD.plus)
        self.assert_matches_the_scan(STD, ap)
        assert set(MODEL.intersection(STD, ap).halves) == {HalfApartment(ALPHA, 0)}
        # in `ap`'s chart, too, the shared ray starts at its divergence vertex
        self.assert_matches_the_scan(ap, STD)
        assert set(MODEL.intersection(ap, STD).halves) == {HalfApartment(ALPHA, 0)}

    def test_segment(self):
        ap = TreeApartment(TreeEnd((2,), 1), TreeEnd((1, 1, 1, 2), 1))
        self.assert_matches_the_scan(STD, ap)
        fitted = MODEL.intersection(STD, ap)
        assert set(fitted.halves) == {HalfApartment(ALPHA, 0), HalfApartment(ALPHA.negated(), 3)}
        assert (fitted.truncated_at, fitted.exact) == (1, True)

    def test_single_vertex(self):
        """Two lines through the vertex 11 leaving it by different edges;
        in the binary tree two lines through a vertex share an edge, so
        this needs three children per vertex."""
        ap = TreeApartment(TreeEnd((1, 1, 2), 3), TreeEnd((1, 1, 3), 2))
        assert self.assert_matches_the_scan(STD, ap) == {Q(2)}
        assert set(MODEL.intersection(STD, ap).halves) == {
            HalfApartment(ALPHA, -2),
            HalfApartment(ALPHA.negated(), 2),
        }

    def test_empty(self):
        ap = TreeApartment(TreeEnd((2,), 1), TreeEnd((2, 2), 1))
        assert self.assert_matches_the_scan(STD, ap) == set()
        assert MODEL.intersection(STD, ap) == empty_set(RGS)

    def test_random_pairs(self):
        kinds = set()
        for q in (2, 3):
            model = TreeModel(q=q)
            rng = random.Random(60 + q)
            for _ in range(150):
                first = model.random_apartment(rng.getrandbits(32), rng.randrange(9))
                second = model.random_apartment(rng.getrandbits(32), rng.randrange(9))
                for a, b in ((first, second), (second, first), (first, first)):
                    shared = self.assert_matches_the_scan(a, b)
                    fitted = MODEL.intersection(a, b)
                    if fitted.is_empty:
                        kinds.add("empty")
                    elif len(shared) == 1:
                        kinds.add("vertex")
                    else:
                        kinds.add(("line", "ray", "segment")[len(fitted.halves)])
        assert kinds == {"empty", "vertex", "line", "ray", "segment"}


class TestCheckMA2:
    def test_identical_apartments(self):
        report = check_MA2(MODEL, STD, STD, 8)
        assert report.verdict == PASS
        assert report.certificate("fitted").halves == ()
        assert report.certificate("intertwiner") is not None
        assert report.certificate("hits") == 17

    def test_orientation_reversal_needs_the_reflection(self):
        swapped = TreeApartment(STD.plus, STD.minus)
        report = check_MA2(MODEL, STD, swapped, 8)
        assert report.verdict == PASS
        tau = report.certificate("intertwiner")
        assert tau.apply((Q(5),)) == (Q(-5),)

    def test_empty_intersection_passes_with_empty_certificate(self):
        ap = TreeApartment(TreeEnd((2,), 1), TreeEnd((2, 2), 1))
        report = check_MA2(MODEL, STD, ap, 8)
        assert report.verdict == PASS
        assert report.certificate("empty") is True
        assert report.certificate("hits") == 0

    @pytest.mark.parametrize("radius", [0, -1, -3])
    def test_window_below_one_is_an_error(self, radius):
        """A negative window holds no point; it must not read as an empty
        intersection."""
        ap = MODEL.random_apartment(3, 4)
        with pytest.raises(InvalidWindow) as caught:
            check_MA2(MODEL, STD, ap, radius)
        assert isinstance(caught.value, ValueError)
        with pytest.raises(InvalidWindow):
            intersect_with_standard(MODEL, ap, radius)

    def test_shared_segment_wider_than_the_window(self):
        """Two apartments sharing more line than the window can see: the
        window of radius 16 is all members, and the verdict still names
        the whole shared segment, -21..20."""
        deep = TreeApartment(
            TreeEnd((0,) + (1,) * 20 + (2,), 1), TreeEnd((1,) * 20 + (2,), 1)
        )
        report = check_MA2(MODEL, STD, deep, 16)
        assert report.verdict == PASS
        assert report.certificate("window_radius") == 16
        assert report.certificate("hits") == 33
        fitted = report.certificate("fitted")
        assert set(fitted.halves) == {
            HalfApartment(ALPHA, 21),
            HalfApartment(ALPHA.negated(), 20),
        }

    def test_apartments_meeting_outside_the_window(self):
        """The lines share the segment 20..25, which the window of radius 16
        misses: the report carries that segment, not an empty set."""
        far = TreeApartment(TreeEnd((1,) * 20 + (2,), 1), TreeEnd((1,) * 25 + (2,), 1))
        report = check_MA2(MODEL, STD, far, 16)
        assert report.verdict == PASS
        assert report.certificate("hits") == 0
        assert report.certificate("empty") is False
        assert set(report.certificate("fitted").halves) == {
            HalfApartment(ALPHA, -20),
            HalfApartment(ALPHA.negated(), 25),
        }
        assert [c.detail for c in report.checks] == [
            "0 members match the fit on 33 sampled points",
            "no sampled segment leaves the intersection",
            "no sampled member to carry",
        ]

    def test_member_outside_the_exact_set_fails(self):
        """A model that also reports -3 of the standard line as lying on a
        line sharing only the ray from 0: the fit names that member, and
        the convexity witness, -2 between -3 and 0, lies outside the exact
        set, where the search must still find it."""
        ray = TreeApartment(TreeEnd((2,), 1), STD.plus)

        class Stretched(TreeModel):
            def apartment_coords(self, apartment, point):
                if apartment == ray and point == self.chart(STD, (Q(-3),)):
                    return (Q(-3),)
                return super().apartment_coords(apartment, point)

        report = check_MA2(Stretched(q=2), STD, ray, 8)
        assert report.verdict == FAIL
        checks = {c.name: (c.verdict, c.detail) for c in report.checks}
        assert checks["enclosure-fit"] == (FAIL, "member (Fraction(-3, 1),) outside the fitted set")
        assert checks["convexity"] == (
            FAIL,
            "non-member (Fraction(-2, 1),) between members ((Fraction(-3, 1),), (Fraction(0, 1),))",
        )

    def test_shifted_images_have_no_intertwiner(self):
        """A model that moves every image with positive coordinate one step
        further: the sample is still the whole window, so the fit and the
        convexity hold, but no single affine Weyl element carries the hits
        on both sides of 0 to their images."""

        class Shifted(TreeModel):
            def apartment_coords(self, apartment, point):
                y = super().apartment_coords(apartment, point)
                return (y[0] + 1,) if y is not None and y[0] > 0 else y

        report = check_MA2(Shifted(q=2), STD, STD, 8)
        assert report.verdict == FAIL
        checks = {c.name: (c.verdict, c.detail) for c in report.checks}
        assert checks["enclosure-fit"][0] == PASS
        assert checks["convexity"][0] == PASS
        assert checks["intertwiner"] == (FAIL, "no affine Weyl element matches the sample")
        assert report.certificate("intertwiner") is None
        assert report.certificate("hits") == 17

    def test_random_pairs_pass(self):
        rng = random.Random(3)
        for _ in range(30):
            first = MODEL.random_apartment(rng.getrandbits(32), rng.randrange(9))
            second = MODEL.random_apartment(rng.getrandbits(32), rng.randrange(9))
            assert check_MA2(MODEL, first, second, 16).verdict == PASS

    @pytest.mark.parametrize(
        "target, fit_detail, convexity_detail",
        [
            (
                TreeApartment(TreeEnd((2,), 1), STD.plus),
                "non-member (Fraction(0, 1),) inside the fitted set",
                "non-member (Fraction(3, 1),) between members "
                "((Fraction(1, 1),), (Fraction(4, 1),))",
            ),
            (
                STD,
                "non-member (Fraction(0, 1),) inside the fitted set",
                "non-member (Fraction(0, 1),) between members "
                "((Fraction(-8, 1),), (Fraction(1, 1),))",
            ),
        ],
    )
    def test_planted_non_convex_sample_fails(self, target, fit_detail, convexity_detail):
        """A model that drops coordinates 0 and 3 from one apartment makes
        its sampled intersection with the standard one non-convex; both the
        fit and the convexity check must FAIL with a certificate.  The fit
        names the first non-member inside the exact set, 0 in both cases;
        the convexity witness is the first non-member between two members."""

        class Punctured(TreeModel):
            def apartment_coords(self, apartment, point):
                y = super().apartment_coords(apartment, point)
                if apartment == target and y in ((Q(0),), (Q(3),)):
                    return None
                return y

        report = check_MA2(Punctured(q=2), STD, target, 8)
        assert report.verdict == FAIL
        checks = {c.name: c for c in report.checks}
        assert (checks["enclosure-fit"].verdict, checks["enclosure-fit"].detail) == (FAIL, fit_detail)
        assert (checks["convexity"].verdict, checks["convexity"].detail) == (FAIL, convexity_detail)
