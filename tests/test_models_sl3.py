"""Lattice model over F_q((t)): valuation readings, charts, retractions.

The oracle for lattice questions avoids the triangularization entirely:
L(A) is contained in L(B) iff B^-1 A is integral, i.e. iff every entry of
adj(B) . A has valuation at least val(det B), and on exact polynomial
frames that is a finite exact computation.  Point equality is then
required to agree with mutual inclusion of the corner lattices.
"""

import random
from fractions import Fraction as Q

import pytest

from masures.apartment import (
    HalfApartment,
    SectorGerm,
    minus_infinity,
    plus_infinity,
)
from masures.errors import MasureError, PrecisionExhausted
from masures.heckepath import PASS, verify_growth
from masures.kmcore import simple_root, weyl_ball_complete, weyl_word
from masures.models import (
    SL3Apartment,
    SL3Model,
    check_MA2,
    intersect_with_standard,
    retract,
    retract_segment,
)
from masures.models import laurent as L
from masures.models.sl3 import (
    _adjugate,
    _det,
    _diagonal_exponents,
    _identity,
    _matmul,
    _pivots,
    _triangularize,
)

MODEL = SL3Model(q=2)
F = MODEL.field
RGS = MODEL.rgs
STD = MODEL.standard_apartment()
ALPHA1 = simple_root(RGS, 0)


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


def same_point(p, q):
    """The same corner classes with the same weights; the corners of one
    point are distinct classes, so this pairs them off one to one."""
    def corners(point):
        g = point.apartment.matrix
        field = g[0][0].field
        return [(_matmul(g, _diag(field, [-e for e in lam])), w) for lam, w in point.corners]

    mine, theirs = corners(p), corners(q)
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
                    if len(p.corners) == 1:
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
            x = MODEL._from_alpha(Q(a), Q(0))
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

    def test_only_the_two_infinite_germs_retract(self):
        p = MODEL.chart(STD, (Q(0), Q(0)))
        with pytest.raises(ValueError):
            retract(MODEL, p, SectorGerm(weyl_word(RGS, (0,)), 1))

    def test_retracted_segment_is_a_hecke_path(self):
        ap = SL3Apartment(_unipotent(0))
        path = retract_segment(
            MODEL, ap, (Q(3, 2), Q(1, 4)), (Q(-5, 4), Q(-2)), minus_infinity(RGS), 2
        )
        assert verify_growth(RGS, path, 2, 3).verdict == PASS


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

    def test_random_pairs_pass(self):
        rng = random.Random(29)
        for _ in range(12):
            first = MODEL.random_apartment(rng.getrandbits(48), rng.randrange(3))
            second = MODEL.random_apartment(rng.getrandbits(48), rng.randrange(3))
            report = check_MA2(MODEL, first, second, 6)
            assert report.verdict == PASS
