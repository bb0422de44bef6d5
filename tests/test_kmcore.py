"""Root systems, reflections, Weyl balls, the Tits cone.

The counting tests are checked against a brute-force oracle that knows
nothing about the library: roots as integer coordinate vectors closed
under the reflection formula, Weyl elements as raw matrices multiplied
out breadth-first.  Neither uses height pruning or provenance words.
"""

import itertools
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masures import linalg
from masures.errors import (
    DimensionMismatch,
    IndexOutOfRange,
    InvalidBound,
    MatrixValidationError,
    RealizationError,
)
from masures.kmcore import (
    EQ,
    GE,
    INCOMPARABLE,
    LE,
    LE_STRICT_INTERIOR,
    apply_to_root,
    coroot_coordinates,
    default_realization,
    dominance_compare,
    enumerate_real_roots,
    positive_roots,
    realization,
    roots_saturated,
    simple_root,
    tits_membership,
    tits_preorder,
    validate_matrix,
    weyl_ball,
    weyl_ball_complete,
    weyl_identity,
    weyl_simple,
    weyl_word,
)
from masures.kmcore import _finite_type

A1 = [[2]]
A2 = [[2, -1], [-1, 2]]
B2 = [[2, -1], [-2, 2]]
G2 = [[2, -1], [-3, 2]]
A1_AFFINE = [[2, -2], [-2, 2]]


# -- oracles -------------------------------------------------------------------


def oracle_root_closure(rows, height_cap=None):
    """All real-root coordinate vectors: the simple basis vectors closed
    under r_i(c) = c - (sum_j c_j a_ij) e_i, expanded naively.

    Saturates for finite types with no cap; an infinite system needs the
    cap, which then means "closed under reflections staying at height
    <= cap" (heights only shrink toward the simples, so this is still
    every real root up to the cap).
    """
    n = len(rows)

    def reflect(i, c):
        pairing = sum(c[j] * rows[i][j] for j in range(n))
        out = list(c)
        out[i] -= pairing
        return tuple(out)

    found = {tuple(1 if j == i else 0 for j in range(n)) for i in range(n)}
    frontier = set(found)
    while frontier:
        fresh = set()
        for c in frontier:
            for i in range(n):
                image = reflect(i, c)
                if image in found:
                    continue
                if height_cap is not None and sum(map(abs, image)) > height_cap:
                    continue
                fresh.add(image)
        found |= fresh
        frontier = fresh
    return found


def oracle_reflection_matrix(rgs, i):
    """Matrix of r_i on the realization space, straight from the formula
    r_i(v) = v - alpha_i(v) alpha_i^vee, one basis vector per column."""
    cols = []
    for k in range(rgs.dim):
        e = linalg.basis_vector(rgs.dim, k)
        cols.append(linalg.sub(e, linalg.scale(rgs.root_value(i, e), rgs.simple_coroots[i])))
    return tuple(tuple(cols[j][i] for j in range(rgs.dim)) for i in range(rgs.dim))


def oracle_weyl_ball(rgs, length_bound):
    """Matrices of all products of at most length_bound reflections."""
    gens = [oracle_reflection_matrix(rgs, i) for i in range(rgs.size)]
    ball = {linalg.identity(rgs.dim)}
    frontier = set(ball)
    for _ in range(length_bound):
        frontier = {linalg.matmul(g, m) for m in frontier for g in gens} - ball
        ball |= frontier
    return ball


# order of the largest finite Weyl group of each rank up to 4: A1, G2, B3, F4
LARGEST_FINITE_WEYL_GROUP = {0: 1, 1: 2, 2: 12, 3: 48, 4: 1152}


def oracle_parabolic_is_finite(rows, J):
    """W_J closed by brute force: products of the reflections r_j, j in J,
    as integer matrices on root coordinates (W acts faithfully there),
    where r_j m subtracts sum_k a_jk m_k from row j of m.  A closure that
    outgrows the largest finite Weyl group of rank |J| is infinite.
    """
    n = len(rows)

    def reflect(j, m):
        row = tuple(m[j][c] - sum(rows[j][k] * m[k][c] for k in range(n)) for c in range(n))
        return m[:j] + (row,) + m[j + 1 :]

    group = {tuple(tuple(int(r == c) for c in range(n)) for r in range(n))}
    frontier = set(group)
    while frontier:
        frontier = {reflect(j, m) for m in frontier for j in J} - group
        group |= frontier
        if len(group) > LARGEST_FINITE_WEYL_GROUP[len(J)]:
            return False
    return True


def oracle_roots_saturated(rows, height):
    """The closure pass: the positive roots up to the height are closed
    under the simple reflections."""
    n = len(rows)
    found = {c for c in oracle_root_closure(rows, height_cap=height) if min(c) >= 0}
    for c in found:
        for i in range(n):
            image = list(c)
            image[i] -= sum(c[j] * rows[i][j] for j in range(n))
            if min(image) >= 0 and tuple(image) not in found:
                return False
    return True


def chain_plus_three(rows):
    """The matrix with one more node, bonded to the last by -3 both ways."""
    n = len(rows)
    out = [list(r) + [0] for r in rows] + [[0] * n + [2]]
    out[n - 1][n] = out[n][n - 1] = -3
    return out


def a_chain(n):
    return [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]


def e6():
    rows = [r + [0] for r in a_chain(5)] + [[0, 0, -1, 0, 0, 2]]
    rows[2][5] = -1
    return rows


# -- matrix validation -----------------------------------------------------------


class TestValidateMatrix:
    def test_valid(self):
        m = validate_matrix(A2)
        assert m.size == 2
        assert m.rows() == A2
        assert m[0, 1] == -1

    def test_all_violations_reported_together(self):
        with pytest.raises(MatrixValidationError) as e:
            validate_matrix([[1, 3], [0, 2]])
        kinds = {v[0] for v in e.value.violations}
        assert kinds == {"DiagonalNotTwo", "PositiveOffDiagonal", "AsymmetricZero"}

    def test_diagonal(self):
        with pytest.raises(MatrixValidationError) as e:
            validate_matrix([[0]])
        assert ("DiagonalNotTwo", 0) in e.value.violations

    def test_asymmetric_zero(self):
        with pytest.raises(MatrixValidationError) as e:
            validate_matrix([[2, 0], [-1, 2]])
        assert ("AsymmetricZero", 0, 1) in e.value.violations

    def test_not_square(self):
        with pytest.raises(MatrixValidationError):
            validate_matrix([[2, -1]])
        with pytest.raises(MatrixValidationError):
            validate_matrix([])

    @pytest.mark.parametrize("entry", [True, 1.5, -1.0, "-1", None])
    def test_non_integer_entry(self, entry):
        with pytest.raises(MatrixValidationError) as e:
            validate_matrix([[2, entry], [-1, 2]])
        assert e.value.violations == [("NotInteger", 0, 1)]

    def test_non_integer_entries_reported_with_the_rest(self):
        with pytest.raises(MatrixValidationError) as e:
            validate_matrix([[2.0, 3], [0, False]])
        assert e.value.violations == [
            ("NotInteger", 0, 0),
            ("NotInteger", 1, 1),
            ("PositiveOffDiagonal", 0, 1),
            ("AsymmetricZero", 0, 1),
        ]


# -- realizations -----------------------------------------------------------------


class TestRealization:
    def test_default_a1(self):
        rgs = default_realization(validate_matrix(A1))
        assert rgs.dim == 1
        assert rgs.simple_coroots == ((Q(1),),)
        assert rgs.root_value(0, (Q(1),)) == 2

    def test_default_a2(self):
        rgs = default_realization(validate_matrix(A2))
        assert rgs.dim == 2
        assert rgs.simple_roots == ((Q(2), Q(-1)), (Q(-1), Q(2)))

    def test_default_affine_gets_completion_coordinate(self):
        rgs = default_realization(validate_matrix(A1_AFFINE))
        assert rgs.dim == 3
        for i in range(2):
            for j in range(2):
                assert rgs.root_value(j, rgs.simple_coroots[i]) == A1_AFFINE[i][j]
        # the forms must be a free family despite the rank-1 matrix
        assert linalg.rank(rgs.simple_roots) == 2

    def test_custom_realization_validates_pairing(self):
        with pytest.raises(RealizationError):
            realization(validate_matrix(A1), coroots=[(1,)], forms=[(1,)])

    def test_custom_realization_accepts_tree_convention(self):
        rgs = realization(validate_matrix(A1), coroots=[(2,)], forms=[(1,)])
        assert rgs.root_value(0, (Q(2),)) == 2

    def test_root_value_bounds(self):
        rgs = default_realization(validate_matrix(A2))
        with pytest.raises(IndexOutOfRange):
            rgs.root_value(2, (Q(0), Q(0)))
        with pytest.raises(DimensionMismatch):
            rgs.root_value(0, (Q(0),))


# -- reflection algebra ------------------------------------------------------------


@st.composite
def km_matrices(draw, max_size=4, floor=-3):
    n = draw(st.integers(1, max_size))
    rows = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rows[i][j] = draw(st.integers(floor, -1))
                rows[j][i] = draw(st.integers(floor, -1))
    return rows


class TestReflectionAlgebra:
    @given(km_matrices())
    @settings(max_examples=60, deadline=None)
    def test_involution_and_form_law(self, rows):
        """r_i r_i = id and alpha_j . r_i = alpha_j - a_ij alpha_i, exactly,
        on every basis vector of the realization."""
        rgs = default_realization(validate_matrix(rows))
        n = rgs.size
        for i in range(n):
            assert weyl_word(rgs, (i, i)) == weyl_identity(rgs)
            r = weyl_simple(rgs, i)
            for j in range(n):
                for k in range(rgs.dim):
                    e = linalg.basis_vector(rgs.dim, k)
                    lhs = rgs.root_value(j, r.act(e))
                    rhs = rgs.root_value(j, e) - rows[i][j] * rgs.root_value(i, e)
                    assert lhs == rhs

    def test_word_acts_rightmost_letter_first(self):
        rgs = default_realization(validate_matrix(A2))
        v = (Q(1), Q(0))
        w = weyl_word(rgs, (0, 1))
        step = weyl_simple(rgs, 1).act(v)
        assert w.act(v) == weyl_simple(rgs, 0).act(step)

    def test_inverse_and_compose(self):
        rgs = default_realization(validate_matrix(G2))
        w = weyl_word(rgs, (0, 1, 0))
        assert w.compose(w.inverse()) == weyl_identity(rgs)
        assert w.inverse().compose(w) == weyl_identity(rgs)

    def test_act_on_form_is_contragredient(self):
        rgs = default_realization(validate_matrix(B2))
        w = weyl_word(rgs, (1, 0))
        form = rgs.simple_roots[0]
        v = (Q(3), Q(-2))
        assert linalg.dot(w.act_on_form(form), v) == linalg.dot(form, w.inverse().act(v))


# -- real roots ---------------------------------------------------------------------


class TestRealRoots:
    @pytest.mark.parametrize(
        "rows,count", [(A2, 6), (B2, 8), (G2, 12)], ids=("A2", "B2", "G2")
    )
    def test_finite_counts_match_oracle(self, rows, count):
        oracle = oracle_root_closure(rows)
        assert len(oracle) == count
        rgs = default_realization(validate_matrix(rows))
        height = max(sum(map(abs, c)) for c in oracle)
        roots = enumerate_real_roots(rgs, height)
        assert {r.coords for r in roots} == oracle
        assert roots_saturated(rgs, height)
        assert not roots_saturated(rgs, height - 1)

    def test_affine_two_positive_roots_per_odd_height(self):
        oracle = oracle_root_closure(A1_AFFINE, height_cap=21)
        rgs = default_realization(validate_matrix(A1_AFFINE))
        roots = enumerate_real_roots(rgs, 21)
        assert {r.coords for r in roots} == oracle
        positives = [r for r in roots if r.is_positive]
        for h in range(1, 22):
            expected = 2 if h % 2 else 0
            assert sum(1 for r in positives if r.height == h) == expected
        assert not roots_saturated(rgs, 21)

    def test_root_data_consistent_with_coords(self):
        """form and coroot are determined by the integer coordinates; the
        enumeration must keep them in sync."""
        rgs = default_realization(validate_matrix(G2))
        for root in enumerate_real_roots(rgs, 5):
            form = rgs.zero()
            for c, alpha in zip(root.coords, rgs.simple_roots):
                form = linalg.add(form, linalg.scale(c, alpha))
            assert root.form == form
            built = weyl_word(rgs, root.word)
            base = simple_root(rgs, root.base)
            assert built.act(base.coroot) == root.coroot

    def test_negated(self):
        rgs = default_realization(validate_matrix(A2))
        alpha = simple_root(rgs, 0)
        assert alpha.negated().coords == (-1, 0)
        assert alpha.negated().negated() == alpha
        assert not alpha.negated().is_positive

    def test_reflect_by_root(self):
        rgs = default_realization(validate_matrix(A2))
        alpha = simple_root(rgs, 0)
        v = (Q(1), Q(1))
        assert alpha.reflect(v) == linalg.sub(v, linalg.scale(alpha.value(v), alpha.coroot))
        assert alpha.reflect(alpha.reflect(v)) == v

    def test_apply_to_root_tracks_weyl_action(self):
        rgs = default_realization(validate_matrix(B2))
        w = weyl_word(rgs, (0, 1))
        alpha = simple_root(rgs, 1)
        image = apply_to_root(w, alpha)
        for v in ((Q(1), Q(0)), (Q(0), Q(1)), (Q(2), Q(-3))):
            assert image.value(v) == alpha.value(w.inverse().act(v))

    def test_positive_roots_filter(self):
        rgs = default_realization(validate_matrix(A2))
        assert all(r.is_positive for r in positive_roots(rgs, 2))
        assert len(positive_roots(rgs, 2)) == 3


# -- Weyl balls -----------------------------------------------------------------------


class TestWeylBall:
    @pytest.mark.parametrize("rows", [A2, B2, G2], ids=("A2", "B2", "G2"))
    def test_sizes_match_brute_matrices(self, rows):
        rgs = default_realization(validate_matrix(rows))
        for L in range(7):
            assert len(weyl_ball(rgs, L)) == len(oracle_weyl_ball(rgs, L))

    def test_finite_saturation(self):
        rgs = default_realization(validate_matrix(A2))
        assert len(weyl_ball(rgs, 3)) == 6
        assert weyl_ball_complete(rgs, 3)
        assert not weyl_ball_complete(rgs, 2)

    def test_affine_ball_grows_linearly(self):
        rgs = default_realization(validate_matrix(A1_AFFINE))
        for L in range(7):
            brute = oracle_weyl_ball(rgs, L)
            assert len(brute) == 2 * L + 1
            assert len(weyl_ball(rgs, L)) == 2 * L + 1
        assert not weyl_ball_complete(rgs, 6)

    def test_ball_elements_have_matching_matrices(self):
        rgs = default_realization(validate_matrix(B2))
        assert {w.matrix for w in weyl_ball(rgs, 4)} == oracle_weyl_ball(rgs, 4)


class TestNegativeBounds:
    """A negative bound holds no root and no element; the saturation and
    completeness questions about it once answered True."""

    @pytest.mark.parametrize("bound", [-1, -5])
    def test_roots(self, bound):
        rgs = default_realization(validate_matrix(A2))
        for call in (roots_saturated, enumerate_real_roots, positive_roots):
            with pytest.raises(InvalidBound) as caught:
                call(rgs, bound)
            assert isinstance(caught.value, ValueError)

    @pytest.mark.parametrize("bound", [-1, -5])
    def test_weyl_ball(self, bound):
        rgs = default_realization(validate_matrix(A2))
        for call in (weyl_ball_complete, weyl_ball):
            with pytest.raises(InvalidBound):
                call(rgs, bound)

    def test_zero_is_a_bound(self):
        rgs = default_realization(validate_matrix(A2))
        assert enumerate_real_roots(rgs, 0) == () and not roots_saturated(rgs, 0)
        assert len(weyl_ball(rgs, 0)) == 1 and not weyl_ball_complete(rgs, 0)


# -- Tits cone ------------------------------------------------------------------------


class TestTitsCone:
    def test_zero(self):
        rgs = default_realization(validate_matrix(A2))
        loc = tits_membership(rgs, (Q(0), Q(0)))
        assert loc.kind == "zero" and loc.side == 0

    def test_finite_type_is_all_interior(self):
        rgs = default_realization(validate_matrix(A2))
        loc = tits_membership(rgs, (Q(-2), Q(1)))
        assert loc.kind == "interior" and loc.side == 1
        on_wall = tits_membership(rgs, (Q(1), Q(2)))
        assert on_wall.kind == "interior"
        assert on_wall.zero_set == frozenset({0})

    def test_affine_interior(self):
        rgs = default_realization(validate_matrix(A1_AFFINE))
        loc = tits_membership(rgs, (Q(0), Q(1), Q(3)))
        assert loc.kind == "interior" and loc.side == 1
        assert loc.zero_set == frozenset()

    def test_affine_null_ray_is_boundary(self):
        rgs = default_realization(validate_matrix(A1_AFFINE))
        loc = tits_membership(rgs, (Q(1), Q(1), Q(0)))
        assert loc.kind == "boundary"
        assert loc.zero_set == frozenset({0, 1})

    def test_affine_level_zero_escape_is_unknown(self):
        # orbit neither reaches a dominant vector nor cycles; a truncated
        # search must say so instead of guessing
        rgs = default_realization(validate_matrix(A1_AFFINE))
        loc = tits_membership(rgs, (Q(1), Q(0), Q(0)), step_bound=60)
        assert loc.kind == "unknown"
        assert not loc.decided_in

    def test_preorder(self):
        rgs = default_realization(validate_matrix(A2))
        zero = (Q(0), Q(0))
        assert tits_preorder(rgs, zero, zero) == EQ
        assert tits_preorder(rgs, zero, (Q(1), Q(1))) == LE_STRICT_INTERIOR

    @pytest.mark.parametrize(
        "rows,J",
        [(chain_plus_three(a_chain(7)), range(7)), (chain_plus_three(e6()), range(6))],
        ids=("A7", "E6"),
    )
    def test_large_finite_parabolic_is_interior(self, rows, J):
        """W(A7) and W(E6), of orders 40320 and 51840, are finite parabolics
        of an infinite type; the Cartan matrix decides that without closing
        the group."""
        rgs = default_realization(validate_matrix(rows))
        n = len(rows)
        v = linalg.solve(rgs.simple_roots, [0] * (n - 1) + [1])
        loc = tits_membership(rgs, v)
        assert loc.kind == "interior" and loc.side == 1
        assert loc.zero_set == frozenset(J)
        assert not _finite_type(rgs.matrix, frozenset(range(n)))


class TestFiniteType:
    @given(km_matrices())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_closure_on_every_parabolic(self, rows):
        matrix = validate_matrix(rows)
        n = len(rows)
        for k in range(n + 1):
            for J in itertools.combinations(range(n), k):
                assert _finite_type(matrix, frozenset(J)) == oracle_parabolic_is_finite(rows, J)

    @pytest.mark.parametrize(
        "rows,finite",
        [(a_chain(8), True), (e6(), True), (chain_plus_three(a_chain(7)), False),
         (A1_AFFINE, False), ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], False)],
        ids=("A8", "E6", "A7+3", "affine-A1", "affine-A2"),
    )
    def test_known_types(self, rows, finite):
        assert _finite_type(validate_matrix(rows), frozenset(range(len(rows)))) == finite

    @pytest.mark.parametrize(
        "rows", [A2, B2, G2, A1_AFFINE, [[2, -3], [-3, 2]]],
        ids=("A2", "B2", "G2", "affine-A1", "hyperbolic"),
    )
    def test_saturation_matches_closure_pass(self, rows):
        rgs = default_realization(validate_matrix(rows))
        for height in range(1, 13):
            assert roots_saturated(rgs, height) == oracle_roots_saturated(rows, height)


class TestDominance:
    def test_coroot_cone_comparisons(self):
        rgs = default_realization(validate_matrix(A2))
        zero = (Q(0), Q(0))
        assert dominance_compare(rgs, zero, zero) == EQ
        assert dominance_compare(rgs, zero, (Q(1), Q(2))) == LE
        assert dominance_compare(rgs, (Q(1), Q(2)), zero) == GE
        assert dominance_compare(rgs, zero, (Q(1), Q(-1))) == INCOMPARABLE

    def test_rational_combinations_count(self):
        rgs = default_realization(validate_matrix(A2))
        assert dominance_compare(rgs, (Q(0), Q(0)), (Q(1, 2), Q(0))) == LE

    def test_off_lattice_direction(self):
        rgs = default_realization(validate_matrix(A1_AFFINE))
        zero = (Q(0), Q(0), Q(0))
        assert dominance_compare(rgs, zero, (Q(0), Q(0), Q(1))) == INCOMPARABLE
        assert dominance_compare(rgs, zero, (Q(1), Q(1), Q(0))) == LE

    @pytest.mark.parametrize("rows", [A1, A2, B2, G2, A1_AFFINE, "skew affine"])
    def test_cached_solver_matches_elimination(self, rows):
        """coroot_coordinates and dominance_compare read one cached left
        inverse; fresh Gaussian elimination must give the same answers."""
        if rows == "skew affine":
            # affine A1 on coroots that are neither basis vectors nor integral
            rgs = realization(
                validate_matrix(A1_AFFINE),
                [(Q(1, 2), 1, 0), (0, 1, 1)],
                [(4, 0, -2), (-2, -1, 3)],
            )
        else:
            rgs = default_realization(validate_matrix(rows))

        def eliminated(v):
            sol = linalg.solve(tuple(zip(*rgs.simple_coroots)), v)
            if sol is None or linalg.vecmat(sol, rgs.simple_coroots) != v:
                return None
            return sol

        rng = random.Random(len(rgs.simple_coroots) * 10 + rgs.dim)
        spanned = 0
        for _ in range(200):
            if rng.random() < 0.5:
                coeffs = [Q(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in rgs.simple_coroots]
                v = linalg.vecmat(tuple(coeffs), rgs.simple_coroots)
            else:
                v = tuple(Q(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(rgs.dim))
            expected = eliminated(v)
            assert coroot_coordinates(rgs, v) == expected
            spanned += expected is not None
            if all(x == 0 for x in v):
                continue
            order = dominance_compare(rgs, rgs.zero(), v)
            if expected is not None and all(c >= 0 for c in expected):
                assert order == LE
            elif expected is not None and all(c <= 0 for c in expected):
                assert order == GE
            else:
                assert order == INCOMPARABLE
        assert spanned >= 100
