"""Exact rational linear algebra and feasibility search."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from masures import linalg
from masures.errors import DimensionMismatch
from masures.fourier_motzkin import feasible

rationals = st.fractions(
    min_value=-6, max_value=6, max_denominator=4
)


def square(n):
    return st.lists(
        st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n
    )


def vectors(n):
    return st.lists(rationals, min_size=n, max_size=n)


class TestSolveInvert:
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(square(n), vectors(n))))
    @settings(max_examples=60, deadline=None)
    def test_solve_solves(self, data):
        m, b = data
        a = linalg.mat(m)
        x = linalg.solve(a, b)
        if x is None:
            assert linalg.rank(m) < len(m) or linalg.rank(m) < linalg.rank(
                [row + [c] for row, c in zip([list(r) for r in m], b)]
            )
        else:
            assert linalg.matvec(a, x) == linalg.vec(b)

    @given(st.integers(1, 4).flatmap(square))
    @settings(max_examples=60, deadline=None)
    def test_invert_inverts(self, m):
        a = linalg.mat(m)
        inv = linalg.invert(a)
        n = len(m)
        if inv is None:
            assert linalg.rank(m) < n
        else:
            assert linalg.matmul(a, inv) == linalg.identity(n)
            assert linalg.matmul(inv, a) == linalg.identity(n)

    def test_rank(self):
        assert linalg.rank([[1, 2], [2, 4]]) == 1
        assert linalg.rank([[1, 0], [0, 1]]) == 2
        assert linalg.rank([[0, 0], [0, 0]]) == 0
        assert linalg.rank([[1, 2, 3], [4, 5, 6]]) == 2

    def test_independent(self):
        assert linalg.independent([(1, 0, 0), (0, 1, 0)])
        assert not linalg.independent([(1, 2), (2, 4)])

    def test_underdetermined_solve_still_exact(self):
        x = linalg.solve([[1, 1], [2, 2]], [3, 6])
        assert x is not None
        assert x[0] + x[1] == 3

    def test_inconsistent_solve_is_none(self):
        assert linalg.solve([[1, 1], [1, 1]], [0, 1]) is None


class TestVectorOps:
    def test_arithmetic(self):
        assert linalg.add((1, 2), (3, 4)) == (4, 6)
        assert linalg.sub((1, 2), (3, 4)) == (-2, -2)
        assert linalg.scale(Q(1, 2), (1, 3)) == (Q(1, 2), Q(3, 2))
        assert linalg.dot((1, 2), (3, 4)) == 11

    def test_matvec_vecmat(self):
        m = linalg.mat([[1, 2], [0, 1]])
        assert linalg.matvec(m, (1, 1)) == (3, 1)
        assert linalg.vecmat((1, 1), m) == (1, 3)

    def test_basis_and_identity(self):
        assert linalg.basis_vector(3, 1) == (0, 1, 0)
        assert linalg.identity(2) == ((1, 0), (0, 1))
        assert linalg.zeros(2) == (0, 0)


class TestFeasibility:
    def test_witness_satisfies_everything(self):
        cons = [
            ((Q(1), Q(0)), Q(-1), False),
            ((Q(0), Q(1)), Q(2), True),
            ((Q(-1), Q(-1)), Q(10), False),
        ]
        v = feasible(cons, 2)
        assert v is not None
        for coeffs, const, strict in cons:
            s = sum(c * x for c, x in zip(coeffs, v)) + const
            assert s > 0 if strict else s >= 0

    def test_infeasible_band(self):
        cons = [((Q(1),), Q(0), False), ((Q(-1),), Q(-1), False)]
        assert feasible(cons, 1) is None

    def test_strictness_matters_at_a_point(self):
        point = [((Q(1),), Q(0), False), ((Q(-1),), Q(0), False)]
        assert feasible(point, 1) == (Q(0),)
        open_point = [((Q(1),), Q(0), True), ((Q(-1),), Q(0), False)]
        assert feasible(open_point, 1) is None

    def test_empty_system_is_feasible(self):
        assert feasible([], 2) is not None

    def test_arity_mismatch(self):
        with pytest.raises(ValueError):
            feasible([((Q(1),), Q(0), False)], 2)

    def test_arity_mismatch_is_typed(self):
        with pytest.raises(DimensionMismatch):
            feasible([((Q(1), Q(2)), Q(0), False)], 1)

    @given(
        st.lists(vectors(2), min_size=1, max_size=6),
        vectors(2),
    )
    @settings(max_examples=60, deadline=None)
    def test_systems_built_around_a_point_are_feasible(self, normals, p):
        # every constraint is chosen to hold at p, so p certifies the system
        cons = []
        for c in normals:
            const = -sum(ci * pi for ci, pi in zip(c, p))
            cons.append((tuple(c), const, False))
        v = feasible(cons, 2)
        assert v is not None
        for coeffs, const, strict in cons:
            assert sum(c * x for c, x in zip(coeffs, v)) + const >= 0


# -- Fourier-Motzkin over the rationals, the reference for the integer one ----


def _fraction_normalized(c):
    coeffs, const, strict = c
    lead = next((abs(x) for x in coeffs if x != 0), None)
    if lead is None:
        return c
    return tuple(x / lead for x in coeffs), const / lead, strict


def _fraction_combine(p, n, k):
    pc, pconst, pstrict = p
    nc, nconst, nstrict = n
    a, b = pc[k], -nc[k]
    coeffs = tuple(a * nc[i] + b * pc[i] for i in range(len(pc)))
    return coeffs, a * nconst + b * pconst, pstrict or nstrict


def fraction_feasible(constraints, dim):
    """Fourier-Motzkin with every row kept as `Fraction`s, scaled so that
    its first nonzero coefficient has absolute value 1."""
    rows = list(dict.fromkeys(
        _fraction_normalized((tuple(Q(x) for x in coeffs), Q(const), strict))
        for coeffs, const, strict in constraints
    ))
    stages = []
    for k in range(dim - 1, -1, -1):
        pos = [r for r in rows if r[0][k] > 0]
        neg = [r for r in rows if r[0][k] < 0]
        stages.append((k, pos, neg))
        fresh = {r: None for r in rows if r[0][k] == 0}
        for p in pos:
            for n in neg:
                fresh[_fraction_normalized(_fraction_combine(p, n, k))] = None
        rows = list(fresh)
    for coeffs, const, strict in rows:
        if (strict and not const > 0) or const < 0:
            return None
    witness = [Q(0)] * dim
    for k, pos, neg in reversed(stages):
        lower = upper = None
        for coeffs, const, strict in pos:
            rest = sum((coeffs[i] * witness[i] for i in range(dim) if i != k), Q(0))
            bound = -(rest + const) / coeffs[k]
            if lower is None or bound > lower[0] or (bound == lower[0] and strict):
                lower = (bound, strict)
        for coeffs, const, strict in neg:
            rest = sum((coeffs[i] * witness[i] for i in range(dim) if i != k), Q(0))
            bound = -(rest + const) / coeffs[k]
            if upper is None or bound < upper[0] or (bound == upper[0] and strict):
                upper = (bound, strict)
        if lower is None and upper is None:
            witness[k] = Q(0)
        elif upper is None:
            witness[k] = lower[0] + 1
        elif lower is None:
            witness[k] = upper[0] - 1
        elif lower[0] == upper[0]:
            witness[k] = lower[0]
        else:
            witness[k] = (lower[0] + upper[0]) / 2
    return tuple(witness)


sparse_rationals = st.one_of(st.just(Q(0)), rationals)


@st.composite
def systems(draw):
    """A system in dimension 1-3 with strict rows, repeated rows, positive
    multiples of rows and rows whose coefficients are all zero."""
    dim = draw(st.integers(1, 3))
    row = st.tuples(st.tuples(*[sparse_rationals] * dim), sparse_rationals, st.booleans())
    rows = draw(st.lists(row, max_size=7))
    for coeffs, const, strict in list(rows):
        factor = draw(st.sampled_from([None, Q(1), Q(2), Q(1, 3), Q(5, 2)]))
        if factor is not None:
            rows.append((tuple(factor * c for c in coeffs), factor * const, strict))
    zero = st.tuples(st.just((Q(0),) * dim), sparse_rationals, st.booleans())
    rows += draw(st.lists(zero, max_size=2))
    return dim, draw(st.permutations(rows))


class TestIntegerElimination:
    @given(systems())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_fraction_elimination(self, system):
        dim, rows = system
        assert feasible(rows, dim) == fraction_feasible(rows, dim)

    def test_integer_and_fraction_inputs_agree(self):
        rows = [((1, -2), 3, False), ((Q(-1, 2), Q(1)), Q(-3, 2), True), ((0, 0), 0, False)]
        as_fractions = [(tuple(map(Q, c)), Q(k), s) for c, k, s in rows]
        assert feasible(rows, 2) == feasible(as_fractions, 2) == fraction_feasible(rows, 2)
