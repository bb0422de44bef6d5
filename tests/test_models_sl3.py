"""Lattice model over F_q((t)): valuation readings, charts, retractions.

The oracle for lattice questions avoids the triangularization entirely:
L(A) is contained in L(B) iff B^-1 A is integral, i.e. iff every entry of
adj(B) . A has valuation at least val(det B), and on exact polynomial
frames that is a finite exact computation.  Point equality is then
required to agree with mutual inclusion of the corner lattices.
"""

import functools
import itertools
import random
from fractions import Fraction as Q

import pytest

from masures.apartment import (
    EnclosedSet,
    HalfApartment,
    SectorGerm,
    minus_infinity,
    plus_infinity,
    whole_apartment,
)
from masures.cli import _retraction_trial, derive_seed, run_campaign
from masures.errors import InvalidWindow, MasureError, PrecisionExhausted, UnsupportedGerm
from masures.fourier_motzkin import feasible
from masures.heckepath import FAIL, PASS, verify_growth
from masures.kmcore import enumerate_real_roots, simple_root, weyl_ball_complete, weyl_word
from masures.models import (
    MasureModel,
    SL3Apartment,
    SL3Model,
    check_MA2,
    intersect_with_standard,
    retract,
    retract_segment,
)
from masures.models import laurent as L
from masures.models import sl3
from masures.models.sl3 import (
    SL3Point,
    _adjugate,
    _det,
    _diagonal_exponents,
    _from_alpha,
    _identity,
    _matmul,
    _pivots,
    _relative_frame,
    _triangularize,
    _window,
)

MODEL = SL3Model(q=2)
F = MODEL.field
RGS = MODEL.rgs
STD = MODEL.standard_apartment()
ALPHA1 = simple_root(RGS, 0)
ALPHA2 = simple_root(RGS, 1)


# -- oracle ------------------------------------------------------------------------


def lattice_leq(A, B):
    """Column lattice of A inside that of B, by integrality of B^-1 A."""
    N = _matmul(_adjugate(B), A)
    d = _det(B).val()
    return all(e.is_exact_zero or e.val() >= d for row in N for e in row)


def same_lattice(A, B):
    return lattice_leq(A, B) and lattice_leq(B, A)


def same_class(A, B):
    """Same lattice once B is scaled by the homothety that equalises the
    determinant valuations; none does unless they differ by a multiple of 3."""
    shift, rest = divmod(_det(A).val() - _det(B).val(), 3)
    field = A[0][0].field
    return rest == 0 and same_lattice(A, _matmul(B, _diag(field, (shift, shift, shift))))


def alcove_corners(a, b):
    """Corners (integer alpha-values) and barycentric weights of the alcove
    containing the point with alpha-values (a, b); zero weights dropped,
    so these are the corners of the point's face."""
    m1 = a.numerator // a.denominator
    m2 = b.numerator // b.denominator
    f = a - m1
    g = b - m2
    if f + g <= 1:
        raw = [(m1, m2, 1 - f - g), (m1 + 1, m2, f), (m1, m2 + 1, g)]
    else:
        raw = [(m1 + 1, m2, 1 - g), (m1, m2 + 1, 1 - f), (m1 + 1, m2 + 1, f + g - 1)]
    return [(ca, cb, w) for ca, cb, w in raw if w > 0]


def corners(point):
    """The (lam, weight) pairs of the corners of the point's face, each
    standing for the class of frame . diag(t^-lam)."""
    return tuple(((ca + cb, cb, 0), w) for ca, cb, w in alcove_corners(*point.alpha))


def corner_membership(vals, det_val, point):
    """The point's alpha-values in the chart of h read corner by corner, or
    None: one diagonal reading of the relative frame adj(h) . g (valuations
    `vals`, `det_val`) per corner of the point's face, their barycenter,
    and the check that the corners' images are exactly the corners of the
    barycenter's face, with the same weights."""
    images = []
    for lam, w in corners(point):
        d = _diagonal_exponents(vals, det_val, lam)
        if d is None:
            return None
        images.append((d[1] - d[0], d[2] - d[1], w))
    a = sum(w * x for x, _, w in images)
    b = sum(w * y for _, y, w in images)
    return (a, b) if sorted(alcove_corners(a, b)) == sorted(images) else None


def same_point(p, q):
    """The same corner classes with the same weights; the corners of one
    point are distinct classes, so this pairs them off one to one."""
    def classes(point):
        g = point.apartment.matrix
        field = g[0][0].field
        return [(_matmul(g, _diag(field, [-e for e in lam])), w) for lam, w in corners(point)]

    mine, theirs = classes(p), classes(q)
    return len(mine) == len(theirs) and all(
        any(w == v and same_class(M, N) for N, v in theirs) for M, w in mine
    )


def matrix(rows):
    return tuple(tuple(e for e in row) for row in rows)


def _diag(field, exponents):
    return matrix(
        [L.monomial(field, exponents[i]) if i == j else L.zero(field) for j in range(3)]
        for i in range(3)
    )


def elementary(field, i, j, u):
    rows = [[L.one(field) if r == c else L.zero(field) for c in range(3)] for r in range(3)]
    rows[i][j] = u
    return matrix(rows)


def permutation(field, perm):
    rows = [[L.zero(field)] * 3 for _ in range(3)]
    for r, c in enumerate(perm):
        rows[r][c] = L.one(field)
    return matrix(rows)


def random_integral_unimodular(rng, field):
    """Product of elementary integral column operations, unit determinant,
    so that frame . U spans the frame's own lattice."""
    out = _identity(field)
    for _ in range(rng.randrange(1, 5)):
        kind = rng.randrange(3)
        if kind == 0:
            i, j = rng.sample(range(3), 2)
            u = L.from_coeffs(field, rng.randrange(0, 3), [rng.randrange(field.q) for _ in range(4)])
            out = _matmul(out, elementary(field, i, j, u))
        elif kind == 1:
            perm = list(range(3))
            rng.shuffle(perm)
            out = _matmul(out, permutation(field, perm))
        else:
            lead = rng.randrange(1, field.q)
            unit = L.from_coeffs(field, 0, [lead] + [rng.randrange(field.q) for _ in range(3)])
            d = [L.one(field)] * 3
            d[rng.randrange(3)] = unit
            rows = [[d[r] if r == c else L.zero(field) for c in range(3)] for r in range(3)]
            out = _matmul(out, matrix(rows))
    return out


def random_frame(rng):
    return MODEL.random_apartment(rng.getrandbits(48), 2).matrix


# -- canonical form ------------------------------------------------------------------


def test_model_bounds_are_derived_from_the_root_data():
    # A2: highest root alpha_0 + alpha_1 of height 2, longest element of length 3
    assert (MODEL.root_height_bound, MODEL.weyl_length_bound) == (2, 3)
    assert weyl_ball_complete(RGS, 3) and not weyl_ball_complete(RGS, 2)


class TestTriangularForm:
    def test_pivots_invariant_under_integral_column_operations(self):
        rng = random.Random(1)
        for _ in range(20):
            M = random_frame(rng)
            U = random_integral_unimodular(rng, F)
            left = _triangularize(M, 40, (0, 1, 2))
            right = _triangularize(_matmul(M, U), 40, (0, 1, 2))
            assert left.pivots == right.pivots

    def test_pivots_sum_to_determinant_valuation(self):
        rng = random.Random(3)
        for _ in range(15):
            M = random_frame(rng)
            form = _triangularize(M, 40, (0, 1, 2))
            assert sum(form.pivots) == _det(M).val()

    def test_diagonal_frames(self):
        form = _triangularize(_diag(F, (2, -1, -1)), 40, (0, 1, 2))
        assert form.pivots == (2, -1, -1)
        assert form.diagonal

    def test_row_order_changes_the_reading(self):
        g = matrix(
            [
                [L.one(F), L.zero(F), L.zero(F)],
                [L.monomial(F, -1), L.one(F), L.zero(F)],
                [L.zero(F), L.zero(F), L.one(F)],
            ]
        )
        down = _triangularize(g, 40, (0, 1, 2))
        up = _triangularize(g, 40, (2, 1, 0))
        assert down.pivots != up.pivots

    def test_undecidable_pivot_raises(self):
        # an entry zero to order 5 competes with an exact t^10: the best
        # valuation cannot be decided from the data
        M = matrix(
            [
                [L.inexact_zero(F, 5), L.zero(F), L.monomial(F, 10)],
                [L.zero(F), L.one(F), L.zero(F)],
                [L.one(F), L.zero(F), L.zero(F)],
            ]
        )
        with pytest.raises(PrecisionExhausted):
            _triangularize(M, 40, (0, 1, 2))

    def test_hopeless_inexact_candidate_is_ignored(self):
        # the same inexact zero cannot beat an exact t^3, so the form is
        # still decided
        M = matrix(
            [
                [L.inexact_zero(F, 5), L.zero(F), L.monomial(F, 3)],
                [L.zero(F), L.one(F), L.zero(F)],
                [L.one(F), L.zero(F), L.zero(F)],
            ]
        )
        form = _triangularize(M, 40, (0, 1, 2))
        assert form.pivots[0] == 3

    def test_singular_matrix_raises(self):
        M = matrix(
            [
                [L.one(F), L.one(F), L.zero(F)],
                [L.one(F), L.one(F), L.zero(F)],
                [L.zero(F), L.zero(F), L.one(F)],
            ]
        )
        with pytest.raises(MasureError):
            _triangularize(M, 40, (0, 1, 2))


class TestValuationReadings:
    """Pivots and membership read off valuations of minors agree with the
    triangular form they replace on the campaign path."""

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_minor_valuations_match_the_triangular_form(self, q):
        model = SL3Model(q=q)
        rng = random.Random(100 + q)
        members = 0
        for _ in range(10):
            g = model.random_apartment(rng.getrandbits(48), rng.randrange(4))
            h = model.random_apartment(rng.getrandbits(48), rng.randrange(3))
            vals, det_val = model._relative(h, g)
            for _ in range(20):
                lam = [rng.randint(-6, 6) for _ in range(3)]
                M = _matmul(g.matrix, _diag(model.field, [-e for e in lam]))
                N = _matmul(h._adj, M)
                exponents = _diagonal_exponents(vals, det_val, lam)
                for order in ((0, 1, 2), (2, 1, 0)):
                    assert _pivots(g, lam, order) == _triangularize(M, 40, order).pivots
                    form = _triangularize(N, 40, order)
                    assert (exponents is not None) == form.diagonal
                    if exponents is not None:
                        assert tuple(exponents) == form.pivots
                members += exponents is not None
        # both outcomes of the membership test are exercised
        assert 0 < members < 200


class TestPointEquality:
    def _pair_with_members(self):
        rng = random.Random(31)
        while True:
            first = MODEL.random_apartment(rng.getrandbits(48), 2)
            second = MODEL.random_apartment(rng.getrandbits(48), 2)
            if not MODEL.same_apartment(first, second):
                hits = [
                    (x, y)
                    for x in MODEL.special_points(3)
                    if (y := MODEL.apartment_coords(second, MODEL.chart(first, x))) is not None
                ]
                if hits:
                    return first, second, hits

    def test_the_same_point_through_two_charts(self):
        first, second, hits = self._pair_with_members()
        for x, y in hits:
            p = MODEL.chart(first, x)
            p2 = MODEL.chart(second, y)
            assert p == p2
            assert hash(p) == hash(p2)

    def test_neighbouring_special_points_differ(self):
        first, second, hits = self._pair_with_members()
        x, y = hits[0]
        p = MODEL.chart(first, x)
        for step in ((Q(1), Q(0)), (Q(0), Q(1)), (Q(-1), Q(-1))):
            neighbour = tuple(c + s for c, s in zip(y, step))
            assert p != MODEL.chart(second, neighbour)

    @pytest.mark.parametrize("perm", [(1, 0, 2), (2, 0, 1)])
    def test_barycenters_compare_by_class_and_weight(self, perm):
        # a reflected chart lists the alcove's corners in another order
        ap = SL3Apartment(_matmul(permutation(F, perm), _diag(F, (1, -1, 0))))
        x = (Q(1, 3), Q(5, 7))
        y = MODEL.apartment_coords(STD, MODEL.chart(ap, x))
        assert MODEL.chart(ap, x) == MODEL.chart(STD, y)
        assert hash(MODEL.chart(ap, x)) == hash(MODEL.chart(STD, y))
        assert MODEL.chart(ap, x) != MODEL.chart(ap, (Q(1, 3), Q(4, 7)))


    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_equality_matches_the_lattice_oracle(self, q):
        model = SL3Model(q=q)
        rng = random.Random(500 + q)
        xs = [
            (Q(0), Q(0)), (Q(1), Q(-1)), (Q(2), Q(1)), (Q(1, 2), Q(0)),
            (Q(1, 3), Q(5, 7)), (Q(-3, 4), Q(11, 6)), (Q(1, 3), Q(1, 3)), (Q(-1, 4), Q(1, 2)),
        ]
        unequal = equal_specials = equal_barycenters = 0
        for _ in range(4):
            g = model.random_apartment(rng.getrandbits(48), rng.randrange(1, 4))
            h = model.random_apartment(rng.getrandbits(48), rng.randrange(1, 4))
            # another frame of the lattice that g charts at the origin
            k = SL3Apartment(_matmul(g.matrix, random_integral_unimodular(rng, model.field)))
            left = [model.chart(g, x) for x in xs]
            right = [model.chart(a, x) for a in (h, k) for x in xs]
            for p in left:
                y = model.apartment_coords(h, p)
                if y is not None:
                    right.append(model.chart(h, y))
                    right.append(model.chart(h, (y[0] + 1, y[1])))
            for p in left:
                for r in right:
                    expected = same_point(p, r)
                    assert (p == r) == expected
                    assert (r == p) == expected
                    if not expected:
                        unequal += 1
                        continue
                    assert hash(p) == hash(r)
                    if len(corners(p)) == 1:
                        equal_specials += 1
                    else:
                        equal_barycenters += 1
        assert unequal and equal_specials and equal_barycenters

    def test_equality_needs_no_division_budget(self):
        # on complexity-6 frames the triangular form runs out of series
        # coefficients at precision 4, and equality still decides
        rng = random.Random(6)
        decided = 0
        for _ in range(200):
            g = MODEL.random_apartment(rng.getrandbits(48), 6)
            try:
                _triangularize(g.matrix, 4, (0, 1, 2))
                continue
            except PrecisionExhausted:
                pass
            k = SL3Apartment(_matmul(g.matrix, random_integral_unimodular(rng, F)))
            p = MODEL.chart(g, (Q(0), Q(0)))
            for x in ((Q(0), Q(0)), (Q(1), Q(0)), (Q(1, 2), Q(1, 3))):
                r = MODEL.chart(k, x)
                assert (p == r) == same_point(p, r) == (x == (Q(0), Q(0)))
            assert p == MODEL.chart(g, (Q(0), Q(0)))
            assert hash(p) == hash(MODEL.chart(k, (Q(0), Q(0))))
            decided += 1
            if decided == 5:
                break
        assert decided == 5

    def test_points_over_different_fields_differ(self):
        origin = (Q(0), Q(0))
        p = MODEL.chart(STD, origin)
        assert p != SL3Model(q=3).chart(SL3Model(q=3).standard_apartment(), origin)
        # another model over the same field charts the same point
        other = SL3Model(q=2)
        assert p == other.chart(other.standard_apartment(), origin)


class TestApartmentValidation:
    def test_determinant_valuation_must_be_divisible_by_three(self):
        with pytest.raises(MasureError):
            SL3Apartment(_diag(F, (1, 0, 0)))
        SL3Apartment(_diag(F, (1, 1, 1)))

    def test_inexact_frames_rejected(self):
        g = [list(row) for row in _identity(F)]
        g[0][1] = L.Laurent(F, 0, (1,), 5)
        with pytest.raises(MasureError):
            SL3Apartment(matrix(g))

    def test_singular_frames_rejected(self):
        g = [list(row) for row in _identity(F)]
        g[2][2] = L.zero(F)
        with pytest.raises(MasureError):
            SL3Apartment(matrix(g))


# -- charts and retractions ------------------------------------------------------------


class TestCharts:
    def test_round_trip_on_specials(self):
        for x in MODEL.special_points(3):
            p = MODEL.chart(STD, x)
            assert MODEL.apartment_coords(STD, p) == x

    @pytest.mark.parametrize(
        "x",
        [(Q(1, 2), Q(0)), (Q(1, 3), Q(5, 7)), (Q(-3, 4), Q(11, 6)), (Q(2, 3), Q(2, 3))],
    )
    def test_round_trip_on_barycenters(self, x):
        p = MODEL.chart(STD, x)
        assert MODEL.apartment_coords(STD, p) == x

    def test_round_trip_on_random_frames(self):
        rng = random.Random(17)
        for _ in range(8):
            ap = MODEL.random_apartment(rng.getrandbits(48), 2)
            for x in ((Q(0), Q(0)), (Q(1), Q(-1)), (Q(1, 2), Q(3, 2))):
                p = MODEL.chart(ap, x)
                assert MODEL.apartment_coords(ap, p) == x

    def test_hexagonal_window(self):
        assert len(MODEL.special_points(6)) == 127
        assert len(MODEL.special_points(1)) == 7

    def test_scaled_frame_charts_the_same_points(self):
        scaled = SL3Apartment(_diag(F, (1, 1, 1)))
        for x in ((Q(0), Q(0)), (Q(2), Q(-1)), (Q(1, 2), Q(1, 3))):
            assert MODEL.apartment_coords(STD, MODEL.chart(scaled, x)) == x

    def test_coroot_frame_translates(self):
        ap = SL3Apartment(_diag(F, (1, -1, 0)))
        y0 = MODEL.apartment_coords(STD, MODEL.chart(ap, (Q(0), Q(0))))
        y1 = MODEL.apartment_coords(STD, MODEL.chart(ap, (Q(1), Q(2))))
        assert y0 is not None and y0 != (Q(0), Q(0))
        assert tuple(b - a for a, b in zip(y0, y1)) == (Q(1), Q(2))

    def test_membership_boundary_of_a_unipotent_frame(self):
        # I + E01 fixes D(alpha_1, 0) pointwise and nothing below it
        ap = SL3Apartment(_unipotent(0))
        for a in range(-3, 4):
            x = _from_alpha(Q(a), Q(0))
            inside = MODEL.apartment_coords(ap, MODEL.chart(STD, x))
            assert (inside is not None) == (a >= 0)

    def test_same_apartment(self):
        diag = SL3Apartment(_diag(F, (3, -2, -1)))
        swapped = SL3Apartment(_matmul(permutation(F, (1, 0, 2)), _diag(F, (3, -2, -1))))
        unip = SL3Apartment(_unipotent(0))
        assert MODEL.same_apartment(STD, diag)
        assert MODEL.same_apartment(diag, swapped)
        assert not MODEL.same_apartment(STD, unip)

    def test_random_apartment_deterministic(self):
        a = MODEL.random_apartment(41, 2)
        b = MODEL.random_apartment(41, 2)
        assert all(
            L.equal(x, y) for ra, rb in zip(a.matrix, b.matrix) for x, y in zip(ra, rb)
        )


def reference_frame(model, seed, complexity):
    """The frame `random_apartment` draws, built as the product of its
    factors with `_matmul`, with its adjugate and determinant read off the
    product by `_adjugate` and `_det`."""
    rng = random.Random(seed)
    field = model.field
    frame = _identity(field)
    for _ in range(complexity):
        if rng.randrange(3) < 2:
            i, j = rng.sample(range(3), 2)
            val = rng.randrange(-complexity, complexity + 1)
            u = L.from_coeffs(field, val, [rng.randrange(field.q) for _ in range(complexity + 1)])
            frame = _matmul(frame, elementary(field, i, j, u))
        else:
            d = [rng.randrange(-complexity, complexity + 1) for _ in range(3)]
            d[2] -= (d[0] + d[1] + d[2]) % 3
            units = [rng.randrange(1, field.q) for _ in range(3)]
            factor = matrix(
                [L.monomial(field, d[r], units[r]) if r == c else L.zero(field) for c in range(3)]
                for r in range(3)
            )
            frame = _matmul(frame, factor)
    return frame, _adjugate(frame), _det(frame).val()


def _entries(A):
    return tuple((e.val_, e.coeffs, e.known_to) for row in A for e in row)


class TestTrackedFrame:
    def test_random_frames_match_the_matrix_product(self):
        """The frame, adjugate and determinant valuation `random_apartment`
        tracks by column and row operations are those of the product of
        its factors, and so are the valuations it keeps: 2000 seeds,
        complexity 0-6, over GF(2) and GF(3) and, half as often, over the
        slower GF(4) and GF(9)."""
        models = [SL3Model(q=q) for q in (2, 3, 4, 2, 3, 9)]
        for seed in range(2000):
            model = models[seed % 6]
            complexity = seed % 7
            ap = model.random_apartment(seed, complexity)
            frame, adj, det_val = reference_frame(model, seed, complexity)
            assert _entries(ap.matrix) == _entries(frame)
            assert _entries(ap._adj) == _entries(adj)
            assert ap._det_val == det_val
            assert ap._vals == tuple(tuple(e.val() for e in row) for row in frame)
            assert ap._adj_vals == tuple(tuple(e.val() for e in row) for row in adj)


def _unipotent_rows(k):
    g = [list(row) for row in _identity(F)]
    g[0][1] = L.monomial(F, k)
    return g


def _unipotent(k):
    return matrix(_unipotent_rows(k))


class TestRetractions:
    def test_identity_on_the_standard_apartment(self):
        for x in list(MODEL.special_points(2)) + [(Q(1, 2), Q(1, 3))]:
            p = MODEL.chart(STD, x)
            assert retract(MODEL, p, minus_infinity(RGS)) == x
            assert retract(MODEL, p, plus_infinity(RGS)) == x

    def test_germs_differ_off_the_standard_apartment(self):
        g = [list(row) for row in _identity(F)]
        g[1][0] = L.monomial(F, -1)
        ap = SL3Apartment(matrix(g))
        p = MODEL.chart(ap, (Q(0), Q(0)))
        assert retract(MODEL, p, minus_infinity(RGS)) != retract(
            MODEL, p, plus_infinity(RGS)
        )

    @pytest.mark.parametrize("sign", [1, -1])
    def test_longest_element_names_the_opposite_infinity(self, sign):
        """w0 = r_0 r_1 r_0, so (w0, sign) names the germ at -sign infinity:
        it compares and hashes equal to that germ and retracts the same."""
        germ = SectorGerm(weyl_word(RGS, (0, 1, 0)), sign)
        infinite = plus_infinity(RGS) if sign < 0 else minus_infinity(RGS)
        assert germ == infinite and hash(germ) == hash(infinite)
        assert germ != (minus_infinity(RGS) if sign < 0 else plus_infinity(RGS))
        rng = random.Random(37)
        for _ in range(10):
            ap = MODEL.random_apartment(rng.getrandbits(48), 3)
            x = (Q(rng.randrange(-9, 10), rng.randrange(1, 4)), Q(rng.randrange(-9, 10), rng.randrange(1, 4)))
            p = MODEL.chart(ap, x)
            assert MODEL.point_retract(p, germ) == MODEL.point_retract(p, infinite)
            assert retract(MODEL, p, germ) == retract(MODEL, p, infinite)
        a, b = (Q(0), Q(0)), (Q(1), Q(1, 2))
        assert retract_segment(MODEL, STD, a, b, germ, 2) == retract_segment(MODEL, STD, a, b, infinite, 2)

    def test_only_the_two_infinite_germs_retract(self):
        p = MODEL.chart(STD, (Q(0), Q(0)))
        with pytest.raises(ValueError):
            retract(MODEL, p, SectorGerm(weyl_word(RGS, (0,)), 1))

    @pytest.mark.parametrize("word, sign", [((0,), 1), ((1,), -1), ((0, 1), 1)])
    def test_other_germs_are_refused_by_the_model(self, word, sign):
        """Passed straight to the model, a germ other than +-infinity
        raises instead of being read as +infinity."""
        germ = SectorGerm(weyl_word(RGS, word), sign)
        p = MODEL.chart(MODEL.random_apartment(5, 3), (Q(1, 3), Q(2, 5)))
        with pytest.raises(UnsupportedGerm) as caught:
            MODEL.point_retract(p, germ)
        assert isinstance(caught.value, ValueError)
        with pytest.raises(UnsupportedGerm):
            retract_segment(MODEL, STD, (Q(0), Q(0)), (Q(1), Q(1, 2)), germ, 2)

    def test_retracted_segment_is_a_hecke_path(self):
        ap = SL3Apartment(_unipotent(0))
        path = retract_segment(
            MODEL, ap, (Q(3, 2), Q(1, 4)), (Q(-5, 4), Q(-2)), minus_infinity(RGS), 2
        )
        assert verify_growth(RGS, path, 2, 3).verdict == PASS


@functools.lru_cache(maxsize=None)
def _triangular_pivots(apartment, lam, row_order):
    field = apartment.matrix[0][0].field
    M = _matmul(apartment.matrix, _diag(field, [-e for e in lam]))
    return _triangularize(M, 40, row_order).pivots


def oracle_retraction(point, germ_sign):
    """The retraction read corner by corner: the pivots of the triangular
    form of frame . diag(t^-lam) at each corner of the point's alcove,
    averaged with the corners' weights; realization coordinates."""
    order = (0, 1, 2) if germ_sign < 0 else (2, 1, 0)
    a = b = Q(0)
    for lam, w in corners(point):
        e = _triangular_pivots(point.apartment, lam, order)
        a += w * (e[1] - e[0])
        b += w * (e[2] - e[1])
    return _from_alpha(a, b)


def _fraction(rng, whole):
    """A rational in [-4, 5) with denominator up to 12: an integer when
    `whole`, never one otherwise."""
    if whole:
        return Q(rng.randint(-4, 4))
    d = rng.randint(2, 12)
    n = rng.choice([k for k in range(-4 * d, 5 * d) if k % d])
    return Q(n, d)


def _placed_points(rng):
    """Alpha-values (a, b), with the number of alcove corners each must
    have: vertices (on a wall of each of the three directions; in A2 two
    walls meet only at vertices), points on exactly one wall a, b or
    a + b in Z, and alcove interiors."""
    out = []
    for _ in range(3):
        out.append(((_fraction(rng, True), _fraction(rng, True)), 1))
        out.append(((_fraction(rng, True), _fraction(rng, False)), 2))
        out.append(((_fraction(rng, False), _fraction(rng, True)), 2))
        a = _fraction(rng, False)
        out.append(((a, _fraction(rng, True) - a), 2))
        while True:
            a, b = _fraction(rng, False), _fraction(rng, False)
            if (a + b).denominator != 1:
                break
        out.append(((a, b), 3))
    return out


class TestClosedFormRetraction:
    """`point_retract` reads the pivots once at the point's own rational
    coweight; the oracle is the corner-by-corner reading of the triangular
    form, which never goes through `_pivots`."""

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_points_match_the_corner_reading(self, q):
        model = SL3Model(q=q)
        rng = random.Random(900 + q)
        germs = ((minus_infinity(model.rgs), -1), (plus_infinity(model.rgs), 1))
        moved = 0
        for complexity in range(5):
            for _ in range(1 if q == 9 else 2):
                ap = model.random_apartment(rng.getrandbits(48), complexity)
                for (a, b), count in _placed_points(rng):
                    p = model.chart(ap, _from_alpha(a, b))
                    assert p.alpha == (a, b)
                    assert len(corners(p)) == count
                    assert sum(w for _, w in corners(p)) == 1
                    for germ, sign in germs:
                        got = model.point_retract(p, germ)
                        assert got == oracle_retraction(p, sign)
                        moved += got != _from_alpha(a, b)
        # the frames move points, so the readings are not all the identity
        assert moved

    def test_segment_knots_match_the_corner_reading(self):
        rng = random.Random(77)
        germs = ((minus_infinity(RGS), -1), (plus_infinity(RGS), 1))
        knots = 0
        for _ in range(200):
            ap = MODEL.random_apartment(rng.getrandbits(48), rng.randrange(5))
            while True:
                a = tuple(Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
                b = tuple(Q(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2))
                if a != b:
                    break
            for germ, sign in germs:
                path = retract_segment(MODEL, ap, a, b, germ, 2)
                for t, v in zip(path.times, path.points):
                    x = tuple(ai + t * (bi - ai) for ai, bi in zip(a, b))
                    assert v == oracle_retraction(MODEL.chart(ap, x), sign)
                    knots += 1
        # more knots than the 800 endpoints: the segments cross walls
        assert knots > 2 * 2 * 200

    @pytest.mark.parametrize("q", [2, 3])
    def test_equal_points_through_two_apartments_hash_equal(self, q):
        model = SL3Model(q=q)
        rng = random.Random(60 + q)
        grid = [(Q(i, 6), Q(j, 6)) for i in range(-12, 13, 5) for j in range(-12, 13, 7)]
        shared = 0
        for _ in range(6):
            first = model.random_apartment(rng.getrandbits(48), rng.randrange(1, 4))
            second = model.random_apartment(rng.getrandbits(48), rng.randrange(1, 4))
            for a, b in grid:
                p = model.chart(first, _from_alpha(a, b))
                y = model.apartment_coords(second, p)
                if y is None:
                    continue
                p2 = model.chart(second, y)
                assert p == p2 and p2 == p
                assert hash(p) == hash(p2)
                shared += len(corners(p)) > 1
        assert shared


def _partner(model, rng, g, kind):
    """An apartment to read the points of g in: a random one; g moved by
    an elementary x_ij(t^k), which shares a half-apartment with g; or the
    apartment of g itself through another frame, permuted and translated."""
    field = model.field
    if kind == "random":
        return model.random_apartment(rng.getrandbits(48), rng.randrange(7))
    if kind == "half":
        i, j = rng.sample(range(3), 2)
        u = L.monomial(field, rng.randint(-3, 3))
        return SL3Apartment(_matmul(g.matrix, elementary(field, i, j, u)))
    perm = list(range(3))
    rng.shuffle(perm)
    d = [rng.randint(-3, 3) for _ in range(3)]
    d[2] -= sum(d) % 3
    return SL3Apartment(_matmul(g.matrix, _matmul(permutation(field, perm), _diag(field, d))))


class TestSingleReading:
    """Membership, coordinates in another chart and equality read once at
    the point's scaled coweight agree with the corner-by-corner reading
    (`corner_membership`): for each field 84 apartment pairs, complexity
    0-6, in equal shares random, sharing a half-apartment and equal, and
    60 points of `_placed_points` each, denominators 1-12, so 5040 points
    per field.  Equality is compared both ways round with the oracle's
    reading; `_relative_frame` is memoized for the test, since
    `SL3Point.__eq__` builds the relative frame on every call."""

    @pytest.mark.parametrize("q", [2, 3, 4, 9])
    def test_matches_the_corner_reading(self, q, monkeypatch):
        monkeypatch.setattr(sl3, "_relative_frame", functools.lru_cache(maxsize=2)(_relative_frame))
        model = SL3Model(q=q)
        rng = random.Random(2500 + q)
        points = members = non_special = 0
        for complexity in range(7):
            for kind in ("random", "half", "same") * 4:
                g = model.random_apartment(rng.getrandbits(48), complexity)
                h = _partner(model, rng, g, kind)
                vals, det_val = _relative_frame(h, g)
                for _ in range(4):
                    for (a, b), _count in _placed_points(rng):
                        p = SL3Point(g, (a, b))
                        want = corner_membership(vals, det_val, p)
                        got = model.apartment_coords(h, p)
                        assert got == (None if want is None else _from_alpha(*want))
                        if want is None:
                            others = [(a, b)]
                        else:
                            others = [want, (want[0] + Q(1, 12), want[1])]
                            members += 1
                            non_special += len(corners(p)) > 1
                        for alpha in others:
                            r = SL3Point(h, alpha)
                            assert (p == r) == (r == p) == (want == alpha)
                        points += 1
        assert points == 5040
        # the same-apartment pairs alone make a third of the points members
        assert non_special >= 1250 and points - members >= 500


# -- apartment intersections ------------------------------------------------------------


class TestIntersections:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_unipotent_fixator_anchor(self, k):
        """The frame I + t^k E01 meets the standard apartment exactly in
        the half-apartment D(alpha_1, k)."""
        hits, fitted, exact = intersect_with_standard(MODEL, SL3Apartment(_unipotent(k)), 6)
        assert set(fitted.halves) == {HalfApartment(ALPHA1, k)}
        assert exact
        assert all(ALPHA1.value(v) + k >= 0 for v in hits)

    def test_identical_apartments_fit_no_constraints(self):
        _, fitted, _ = intersect_with_standard(MODEL, SL3Apartment(_diag(F, (1, 1, 1))), 3)
        assert fitted.halves == ()

    def test_check_MA2_on_the_unipotent_pair(self):
        report = check_MA2(MODEL, STD, SL3Apartment(_unipotent(0)), 6)
        assert report.verdict == PASS
        assert report.certificate("fitted").halves == (HalfApartment(ALPHA1, 0),)
        assert report.certificate("intertwiner") is not None

    def test_check_MA2_translation_intertwiner(self):
        report = check_MA2(MODEL, STD, SL3Apartment(_diag(F, (1, -1, 0))), 4)
        assert report.verdict == PASS
        tau = report.certificate("intertwiner")
        assert tau.linear.is_identity()
        assert tau.translation != (Q(0), Q(0))

    @pytest.mark.parametrize("radius", [0, -1, -3])
    def test_window_below_one_is_an_error(self, radius):
        """A negative window holds no point; it must not read as an empty
        intersection."""
        ap = SL3Apartment(_unipotent(1))
        with pytest.raises(InvalidWindow) as caught:
            check_MA2(MODEL, STD, ap, radius)
        assert isinstance(caught.value, ValueError)
        with pytest.raises(InvalidWindow):
            intersect_with_standard(MODEL, ap, radius)

    def test_random_pairs_pass(self):
        rng = random.Random(29)
        for _ in range(12):
            first = MODEL.random_apartment(rng.getrandbits(48), rng.randrange(3))
            second = MODEL.random_apartment(rng.getrandbits(48), rng.randrange(3))
            report = check_MA2(MODEL, first, second, 6)
            assert report.verdict == PASS


def _campaign_pair(model, seed, complexity=2, index=0):
    """The apartment pair of a trial of an SL3 campaign with this seed."""
    rng = random.Random(derive_seed(seed, index))
    first = model.random_apartment(rng.getrandbits(48), rng.randrange(complexity + 1))
    second = model.random_apartment(rng.getrandbits(48), rng.randrange(complexity + 1))
    return first, second


class TestWindowReading:
    """`SL3Model.window_coords` reads the window off integer alpha-values;
    the oracle is the point-by-point loop of `MasureModel.window_coords`,
    which charts each point and reads its membership through `_membership`."""

    @staticmethod
    def assert_matches_the_loop(model, first, second) -> list:
        """Compare at radii 1, 6 and 12; returns the radius-12 reading."""
        for radius in (1, 6, 12):
            points = model.special_points(radius)
            got = model.window_coords(first, second, radius, points)
            assert got == MasureModel.window_coords(model, first, second, radius, points)
        return got

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_random_pairs_match_the_point_loop(self, q):
        model = SL3Model(q=q)
        rng = random.Random(40 + q)
        hits = misses = 0
        for complexity in range(5):
            for _ in range(2):
                first = model.random_apartment(rng.getrandbits(48), complexity)
                second = model.random_apartment(rng.getrandbits(48), complexity)
                got = self.assert_matches_the_loop(model, first, second)
                hits += sum(y is not None for y in got)
                misses += got.count(None)
                assert None not in self.assert_matches_the_loop(model, second, second)
        assert hits and misses

    @pytest.mark.parametrize("seed", [179, 282, 477])
    def test_window_retry_pairs_match_the_point_loop(self, seed):
        first, second = _campaign_pair(MODEL, seed)
        self.assert_matches_the_loop(MODEL, first, second)

    @pytest.mark.parametrize("radius", [1, 2, 6, 12])
    def test_cached_alpha_values_line_up_with_the_points(self, radius):
        points, alphas = _window(radius)
        assert MODEL.special_points(radius) is points
        assert SL3Model(q=3).special_points(radius) is points
        assert len(points) == len(alphas) == 3 * radius * (radius + 1) + 1
        for v, (a, b) in zip(points, alphas):
            assert MODEL._alpha_values(v) == (a, b)
            assert max(abs(a), abs(b), abs(a + b)) <= radius


GRID = [(a, b) for a in range(-9, 10) for b in range(-9, 10)]


def _grid_members(first, second):
    """The alpha-values (a, b) on the grid whose special point of `first`
    lies in `second`, by the diagonal reading of the relative frame."""
    vals, det_val = _relative_frame(second, first)
    return {(a, b) for a, b in GRID if _diagonal_exponents(vals, det_val, (a + b, b, 0)) is not None}


# lam_j of the corner (a + b, b, 0) as coordinates on (a, b) = (alpha_1, alpha_2)
LAM = ((1, 1), (0, 1), (0, 0))
ROOTS = {r.coords: r for r in enumerate_real_roots(RGS, 2)}


def _column_choices(first, second):
    """Each choice of columns (j_0, j_1, j_2) with a finite entry in every
    row, as its column counts and its constant sum_i v_{i j_i} - d: the
    corner lam lies in `second` iff
    constant + sum_j (1 - count_j) lam_j >= 0 for every choice."""
    vals, det_val = _relative_frame(second, first)
    for columns in itertools.product(range(3), repeat=3):
        total = sum(row[j] for row, j in zip(vals, columns))
        if total != float("inf"):
            yield [columns.count(j) for j in range(3)], total - det_val


def _choice_coords(counts):
    """The (a, b) coordinates of sum_j (1 - count_j) lam_j."""
    return tuple(sum((1 - c) * lam[i] for c, lam in zip(counts, LAM)) for i in range(2))


def _exact_pairs():
    """At least 450 pairs over GF(2), GF(3) and GF(4), complexity 0-4,
    with equal apartments and the pairs campaigns once retried at window
    12 (seeds 179, 282, 477)."""
    pairs = [(MODEL, *_campaign_pair(MODEL, seed)) for seed in (179, 282, 477)]
    for q in (2, 3, 4):
        model = SL3Model(q=q)
        rng = random.Random(70 + q)
        for complexity in range(5):
            for _ in range(30):
                first = model.random_apartment(rng.getrandbits(48), complexity)
                second = model.random_apartment(rng.getrandbits(48), rng.randrange(complexity + 1))
                pairs.append((model, first, second))
            pairs.append((model, first, first))
    return pairs


EXACT_PAIRS = _exact_pairs()


class TestExactIntersection:
    """`SL3Model.intersection` against membership read point by point off
    `_diagonal_exponents`, on the 19 x 19 grid of alpha-values in [-9, 9]."""

    def test_pair_count(self):
        assert len(EXACT_PAIRS) >= 450

    def test_matches_membership_on_the_grid(self):
        kinds = set()
        for model, first, second in EXACT_PAIRS:
            fitted = model.intersection(first, second)
            members = _grid_members(first, second)
            got = {(a, b) for a, b in GRID if fitted.contains(_from_alpha(a, b))}
            assert got == members, (model.field.q, len(members), len(got))
            assert fitted.truncated_at in (None, model.root_height_bound) and fitted.exact
            kinds.add("empty" if fitted.is_empty else len(fitted.halves))
        # empty sets, the whole apartment and one to four halves all occur
        assert kinds == {"empty", 0, 1, 2, 3, 4}

    def test_equal_apartments_give_the_whole_apartment(self):
        for model, first, _ in EXACT_PAIRS[3::31]:
            fitted = model.intersection(first, first)
            assert fitted == whole_apartment(RGS) and fitted.truncated_at is None

    def test_single_column_choices_cut_nothing_more(self):
        """The choices using one column three times have non-root normals;
        adding them as Fourier-Motzkin rows leaves every set as it is, so
        the intersection is cut by root half-apartments alone."""
        tested = 0
        for model, first, second in EXACT_PAIRS:
            fitted = model.intersection(first, second)
            if fitted.is_empty:
                continue
            for counts, constant in _column_choices(first, second):
                if max(counts) == 3:
                    a, b = _choice_coords(counts)
                    form = tuple(a * x + b * y for x, y in zip(ALPHA1.form, ALPHA2.form))
                    complement = (tuple(-c for c in form), Q(-constant), True)
                    assert feasible(fitted.constraints() + [complement], 2) is None
                    tested += 1
        assert tested > 100

    def test_each_column_once_cuts_nothing_more(self):
        """A failing constant choice (each column once) empties the set; the
        root half-apartments of the choices that repeat a column then
        already have no common point, so emptiness too is read off root
        half-apartments alone."""
        failing = 0
        for model, first, second in EXACT_PAIRS:
            choices = list(_column_choices(first, second))
            if all(constant >= 0 for counts, constant in choices if max(counts) == 1):
                continue
            failing += 1
            assert model.intersection(first, second).is_empty
            halves = [HalfApartment(ROOTS[_choice_coords(counts)], constant)
                      for counts, constant in choices if max(counts) == 2]
            assert EnclosedSet(RGS, halves).is_empty
        assert failing > 40

    def test_window_edge_artifact_of_seed_13(self):
        """Trial 17 of the campaign with seed 13: the half alpha_2 + 4 >= 0
        cuts off no point of the window of radius 6 that D(-alpha_1, -2)
        keeps, so a fit to the window sees only the latter; the exact set
        holds both."""
        first, second = _campaign_pair(MODEL, 13, index=17)
        report = check_MA2(MODEL, first, second, 6)
        assert report.verdict == PASS
        assert set(report.certificate("fitted").halves) == {
            HalfApartment(ALPHA1.negated(), -2),
            HalfApartment(ALPHA2, 4),
        }

    def test_apartments_meeting_outside_the_window(self):
        """The apartments of the campaign with seed 267 meet in
        alpha_2 <= -8, which the window misses: the report carries that set
        and claims no emptiness."""
        report = run_campaign({"model": "sl3", "trials": 1, "seed": 267})
        assert report["summary"]["pass"] == 1
        ma2 = report["trials"][0]["ma2"]
        assert ma2["verdict"] == PASS
        certificates = {c["name"]: c["value"] for c in ma2["certificates"]}
        assert certificates["hits"] == 0
        assert certificates["empty"] is False
        assert certificates["fitted"]["halves"] == [{"root": [0, -1], "level": -8}]
        assert not any("empty" in c["detail"] for c in ma2["checks"])


# -- planted faults ----------------------------------------------------------------------


def _checks(report):
    return {c.name: (c.verdict, c.detail) for c in report.checks}


PLANTED_PAIRS = [(STD, SL3Apartment(_unipotent(0))), _campaign_pair(MODEL, 13, index=17)]


class TestPlantedModels:
    """Models with one planted fault, driven through `check_MA2` and
    `cli._retraction_trial` directly (`run_campaign` builds its own
    model): exactly the check the fault breaks FAILs."""

    @pytest.mark.parametrize("first, second", PLANTED_PAIRS)
    def test_misread_member_fails_the_fit_alone(self, first, second):
        """Reading the window's last member as a non-member: that point is
        a vertex of the members' hull, so no convexity witness appears,
        and the other members still have their intertwiner."""

        class Misread(SL3Model):
            def window_coords(self, first, second, window_radius, points):
                out = super().window_coords(first, second, window_radius, points)
                last = max(i for i, y in enumerate(out) if y is not None)
                self.misread = points[last]
                out[last] = None
                return out

        model = Misread(q=2)
        checks = _checks(check_MA2(model, first, second, 6))
        assert checks["enclosure-fit"] == (FAIL, f"non-member {model.misread!r} inside the fitted set")
        assert checks["convexity"][0] == checks["intertwiner"][0] == PASS

    @pytest.mark.parametrize("first, second", PLANTED_PAIRS)
    def test_dropped_half_fails_the_fit_alone(self, first, second):
        """An intersection without its first half holds non-members; the
        fit names the first of them, and the members keep their convex
        hull and their intertwiner.  Window 3 keeps the convexity search
        over the uncovered non-members short."""

        class Loosened(SL3Model):
            def intersection(self, first, second):
                exact = super().intersection(first, second)
                return EnclosedSet(self.rgs, exact.halves[1:], truncated_at=exact.truncated_at)

        report = check_MA2(Loosened(q=2), first, second, 3)
        checks = _checks(report)
        verdict, detail = checks["enclosure-fit"]
        assert verdict == FAIL and detail.startswith("non-member (")
        point = next(x for x in MODEL.special_points(3) if detail == f"non-member {x!r} inside the fitted set")
        assert report.certificate("fitted").contains(point)
        assert not MODEL.intersection(first, second).contains(point)
        assert MODEL.apartment_coords(second, MODEL.chart(first, point)) is None
        assert checks["convexity"][0] == checks["intertwiner"][0] == PASS

    def test_swapped_germs_fail_growth_alone(self):
        """Retracting from the opposite germ: over the first 100 trials of
        the campaign with seed 3 (q = 2, complexity 2, window 6) some
        retracted segment is no Hecke path for its germ, and no other
        check FAILs."""

        class Swapped(SL3Model):
            def point_retract(self, point, germ):
                minus, plus = minus_infinity(self.rgs), plus_infinity(self.rgs)
                return super().point_retract(point, plus if germ == minus else minus)

        model = Swapped(q=2)
        config = {"window_radius": 6, "height_bound": 2, "length_bound": 3}
        growth = 0
        for index in range(100):
            rng = random.Random(derive_seed(3, index))
            first = model.random_apartment(rng.getrandbits(48), rng.randrange(3))
            second = model.random_apartment(rng.getrandbits(48), rng.randrange(3))
            assert check_MA2(model, first, second, 6).verdict == PASS
            trial = _retraction_trial(model, rng, first, config)
            assert trial["separation"] == PASS
            growth += trial["growth"] == FAIL
        assert growth
