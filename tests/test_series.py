"""Finite fields and truncated Laurent arithmetic.

What matters here is honesty of the precision tracking: every coefficient
a series claims to know must agree with the fully exact computation, and
every question past the knowledge horizon must raise rather than guess.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_irreducible_p, gf_mul, gf_rem

from masures.errors import MasureError, PrecisionExhausted
from masures.models import laurent as L
from masures.models.finite_field import GF

PRIME_POWERS = (2, 3, 4, 5, 7, 8, 9)


class TestGF:
    @pytest.mark.parametrize("q", [0, 1, 6, 10, 12])
    def test_rejects_non_prime_powers(self, q):
        with pytest.raises(MasureError):
            GF(q)

    @pytest.mark.parametrize("q", PRIME_POWERS)
    def test_field_axioms_exhaustively(self, q):
        f = GF(q)
        xs = list(f.elements())
        assert len(xs) == q
        for a in xs:
            assert f.add(a, 0) == a and f.mul(a, 1) == a
            assert f.add(a, f.neg(a)) == 0
            if a:
                assert f.mul(a, f.inv(a)) == 1
        for a in xs:
            for b in xs:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in xs:
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))

    @pytest.mark.parametrize("q", PRIME_POWERS)
    def test_characteristic(self, q):
        f = GF(q)
        acc = 0
        for _ in range(f.p):
            acc = f.add(acc, 1)
        assert acc == 0

    def test_inv_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            GF(3).inv(0)


class TestGFAgainstSympy:
    """GF(p^k) against `sympy.polys.galoistools`, which works on
    coefficient lists over Z/p, highest degree first.  An element n of
    GF(p^k) is the polynomial whose coefficients are n's base-p digits,
    lowest first, reduced modulo the field's own `modulus` (the prime
    fields reduce modulo x, which leaves the constants alone).
    `sympy.GF(4)` is Z/4, not a field, so it is no oracle here."""

    @staticmethod
    def poly(f, n):
        digits = []
        while n:
            digits.append(n % f.p)
            n //= f.p
        return [ZZ(c) for c in reversed(digits)]

    @pytest.mark.parametrize("q, p, k", [(2, 2, 1), (3, 3, 1), (4, 2, 2), (8, 2, 3), (9, 3, 2)])
    def test_ops_exhaustively(self, q, p, k):
        f = GF(q)
        assert (f.p, f.k) == (p, k)
        if k == 1:
            modulus = [ZZ(1), ZZ(0)]
        else:
            modulus = [ZZ(c) for c in reversed(f.modulus)]
            assert len(modulus) == k + 1 and modulus[0] == 1
        assert gf_irreducible_p(modulus, p, ZZ)
        polys = [self.poly(f, n) for n in f.elements()]

        def of(n):
            assert 0 <= n < q
            return polys[n]

        for a, pa in enumerate(polys):
            assert gf_add(pa, of(f.neg(a)), p, ZZ) == []
            if a:
                assert gf_rem(gf_mul(pa, of(f.inv(a)), p, ZZ), modulus, p, ZZ) == [1]
            for b, pb in enumerate(polys):
                assert of(f.add(a, b)) == gf_add(pa, pb, p, ZZ)
                assert gf_add(of(f.sub(a, b)), pb, p, ZZ) == pa
                assert of(f.mul(a, b)) == gf_rem(gf_mul(pa, pb, p, ZZ), modulus, p, ZZ)


F = GF(2)
F3 = GF(3)


def poly(field, val, coeffs):
    return L.from_coeffs(field, val, coeffs)


@st.composite
def exact_polys(draw, field=F3, nonzero=False):
    val = draw(st.integers(-4, 4))
    coeffs = draw(st.lists(st.integers(0, field.q - 1), min_size=1, max_size=6))
    if nonzero and not any(coeffs):
        coeffs[0] = 1
    return poly(field, val, coeffs)


class TestLaurentBasics:
    def test_normalization(self):
        x = poly(F3, 2, (0, 0, 1, 2, 0))
        assert x.val() == 4
        assert x.coeffs == (1, 2)
        assert x.exact

    def test_known_to_clamps(self):
        x = L.Laurent(F3, 0, (1, 1, 1, 1), known_to=1)
        assert x.coeffs == (1, 1)
        assert x.coeff(1) == 1
        with pytest.raises(PrecisionExhausted):
            x.coeff(2)

    def test_zero_kinds(self):
        assert L.zero(F).is_exact_zero
        assert L.zero(F).val() > 10**9
        iz = L.inexact_zero(F, 7)
        assert not iz.is_exact_zero and not iz.exact
        with pytest.raises(PrecisionExhausted):
            iz.val()

    def test_definitely_zero_trichotomy(self):
        assert L.definitely_zero(L.zero(F))
        assert not L.definitely_zero(L.one(F))
        with pytest.raises(PrecisionExhausted):
            L.definitely_zero(L.inexact_zero(F, 3))

    def test_equal(self):
        assert L.equal(poly(F, 0, (1, 1)), poly(F, 0, (1, 1)))
        assert not L.equal(poly(F, 0, (1, 1)), poly(F, 0, (1,)))
        with pytest.raises(PrecisionExhausted):
            L.equal(L.Laurent(F, 0, (1, 1), 5), poly(F, 0, (1, 1)))


class TestArithmeticHonesty:
    @given(exact_polys(), exact_polys(), st.integers(-2, 6))
    @settings(max_examples=80, deadline=None)
    def test_truncated_product_never_lies(self, p, q, k):
        exact = L.mul(p, q)
        t = L.mul(L.Laurent(p.field, p.val_ or 0, p.coeffs, k), q)
        # an exact zero factor erases the uncertainty; otherwise it remains
        assert (t.known_to is None) == q.is_exact_zero
        horizon = t.known_to if t.known_to is not None else 15
        for e in range(-15, horizon + 1):
            assert t.coeff(e) == exact.coeff(e)

    @given(exact_polys(), exact_polys(), st.integers(-2, 6))
    @settings(max_examples=80, deadline=None)
    def test_truncated_sum_never_lies(self, p, q, k):
        exact = L.add(p, q)
        t = L.add(L.Laurent(p.field, p.val_ or 0, p.coeffs, k), q)
        assert t.known_to == k
        for e in range(-15, k + 1):
            assert t.coeff(e) == exact.coeff(e)

    @given(exact_polys(nonzero=True).filter(lambda x: x.coeffs))
    @settings(max_examples=60, deadline=None)
    def test_inverse_inverts_to_precision(self, x):
        inv = L.inverse(x, 12)
        prod = L.mul(x, inv)
        assert prod.coeff(0) == 1
        horizon = prod.known_to if prod.known_to is not None else 12
        for e in range(1, horizon + 1):
            assert prod.coeff(e) == 0

    def test_inverse_of_monomial_is_exact(self):
        inv = L.inverse(L.monomial(F3, 5, 2), 3)
        assert inv.exact
        assert L.equal(L.mul(inv, L.monomial(F3, 5, 2)), L.one(F3))

    def test_inverse_of_inexact_zero_raises(self):
        with pytest.raises(PrecisionExhausted):
            L.inverse(L.inexact_zero(F, 4), 10)

    def test_divide_caps_by_precision(self):
        q = L.divide(L.one(F3), poly(F3, 0, (1, 1)), 8)
        assert q.known_to == 8

    def test_multiplying_by_exact_zero_erases_uncertainty(self):
        assert L.mul(L.inexact_zero(F, 2), L.zero(F)).is_exact_zero


class TestFloorDiv:
    def test_drops_low_terms(self):
        x = poly(F3, -1, (1, 2, 1, 1))  # t^-1 + 2 + t + t^2
        q = L.floor_div_monomial(x, 1)
        assert q.val() == 0 and q.coeffs == (1, 1)
        assert q.exact

    def test_whole_series_below_cut(self):
        x = poly(F3, -3, (1,))
        assert L.floor_div_monomial(x, 0).is_exact_zero

    def test_inexact_knowledge_shifts(self):
        x = L.Laurent(F3, 0, (1, 1, 1), 4)
        q = L.floor_div_monomial(x, 2)
        assert q.known_to == 2
        assert q.coeff(0) == 1

    def test_inexact_zero_stays_inexact(self):
        q = L.floor_div_monomial(L.inexact_zero(F, 6), 2)
        assert not q.exact
        assert q.known_to == 4
