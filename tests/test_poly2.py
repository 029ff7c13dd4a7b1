import pytest
from hypothesis import given, strategies as st

from shiftperm.poly2 import (
    ONE,
    X,
    ZERO,
    BinPoly,
    ext_gcd,
    factor,
    find_irreducible_of_order,
    gcd,
    irreducible_polys,
    is_irreducible,
    order,
    x_power,
)

P = BinPoly.parse

polys = st.integers(0, (1 << 65) - 1).map(BinPoly)
nonzero_polys = st.integers(1, (1 << 65) - 1).map(BinPoly)


class TestRepresentation:
    def test_parse_forms(self):
        assert P("111") == BinPoly(0b111)
        assert P("0,1,2") == BinPoly(0b111)
        assert P("1101011") == BinPoly.from_exponents([0, 1, 3, 5, 6])
        assert P("3") == x_power(3)
        assert P("0") == ZERO and P("1") == ONE

    def test_parse_errors(self):
        for bad in ("", "x^2", "1,a", "2x"):
            with pytest.raises(ValueError):
                P(bad)

    def test_strings(self):
        assert P("1101011").to_string() == "1101011"
        assert str(P("1011")) == "1 + X^2 + X^3"
        assert ZERO.to_string() == "0" and str(ZERO) == "0"

    def test_degree_and_weight(self):
        assert ZERO.degree == -1
        assert ONE.degree == 0
        assert P("1101011").degree == 6
        assert P("1101011").weight == 5

    def test_duplicate_exponents_cancel(self):
        assert BinPoly.from_exponents([2, 2]) == ZERO


class TestArithmetic:
    def test_product_example(self):
        assert P("11") * P("111") == P("1001")  # (1+X)(1+X+X^2) = 1+X^3

    def test_frobenius_square(self):
        assert P("11") ** 2 == P("101")

    def test_shift_multiplies_by_monomial(self):
        assert (P("11") << 2) == P("0011")
        assert (P("11") << 2) == P("11") * x_power(2)

    def test_divrem_example(self):
        q, r = divmod(P("1001"), P("111"))
        assert q == P("11") and r == ZERO

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(P("101"), ZERO)

    @given(polys, nonzero_polys)
    def test_divrem_identity(self, a, b):
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree

    @given(polys, polys, polys)
    def test_mul_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


class TestGcd:
    def test_examples(self):
        assert gcd(P("11"), x_power(4) + ONE) == P("11")
        assert gcd(P("1101"), x_power(11) + ONE) == ONE
        f = P("110101")
        assert gcd(f, f) == f

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            gcd(ZERO, ZERO)
        with pytest.raises(ValueError):
            ext_gcd(ZERO, ZERO)

    def test_ext_gcd_examples(self):
        g, u, v = ext_gcd(P("111"), x_power(3))
        assert g == ONE and u == P("11")
        g, u, v = ext_gcd(P("111"), BinPoly.from_exponents([4, 8]))
        assert g == ONE and u == P("1101011")
        assert ext_gcd(P("10011"), ONE) == (ONE, ZERO, ONE)

    @given(polys, polys)
    def test_ext_gcd_identity(self, a, b):
        if a.is_zero and b.is_zero:
            return
        g, u, v = ext_gcd(a, b)
        assert u * a + v * b == g
        if not a.is_zero:
            assert (a % g).is_zero
        if not b.is_zero:
            assert (b % g).is_zero

    @given(nonzero_polys, nonzero_polys)
    def test_ext_gcd_normalized(self, a, b):
        g, u, v = ext_gcd(a, b)
        if (a % b).is_zero or b.degree <= g.degree:
            return
        assert u.degree < b.degree - g.degree


def _has_small_factor(f):
    # trial division by everything up to half the degree
    for gb in range(2, 1 << (f.degree // 2 + 1)):
        if BinPoly(gb).degree >= 1 and (f % BinPoly(gb)).is_zero:
            return True
    return False


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible(P("111"))
        assert not is_irreducible(P("101"))
        assert is_irreducible(P("1101"))

    def test_constant_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(ONE)

    def test_against_trial_division(self):
        for bits in range(2, 1 << 11):
            f = BinPoly(bits)
            assert is_irreducible(f) == (not _has_small_factor(f)), f

    def test_known_counts(self):
        counts = {1: 2, 2: 1, 3: 2, 4: 3, 5: 6, 6: 9, 7: 18, 8: 30}
        for d, c in counts.items():
            assert len(irreducible_polys(d)) == c


class TestFactor:
    def test_examples(self):
        assert [(g.to_string(), e) for g, e in factor(BinPoly.from_exponents([3, 6]))] == [
            ("01", 3),
            ("11", 1),
            ("111", 1),
        ]
        assert [(g.to_string(), e) for g, e in factor(P("1001"))] == [("11", 1), ("111", 1)]
        assert list(factor(P("1101"))) == [(P("1101"), 1)]
        assert len(factor(ONE)) == 0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factor(ZERO)

    def test_roundtrip_exhaustive(self):
        for bits in range(1, 1 << 13):
            f = BinPoly(bits)
            fac = factor(f)
            assert fac.product() == f, f
            for g, e in fac:
                assert is_irreducible(g) or g.degree == 1
                assert e >= 1

    def test_factors_sorted_and_distinct(self):
        fac = factor(P("11") * P("111") ** 2 * x_power(2))
        pairs = list(fac)
        assert pairs == sorted(pairs, key=lambda ge: (ge[0].degree, ge[0].bits))
        assert len({g for g, _ in pairs}) == len(pairs)


def _order_bruteforce(f):
    acc = X % f
    l = 1
    while acc != ONE:
        acc = (acc * X) % f
        l += 1
    return l


class TestOrder:
    def test_examples(self):
        assert order(P("111")) == 3
        assert order(P("11")) == 1
        assert order(P("1101")) == 7

    def test_errors(self):
        with pytest.raises(ValueError):
            order(X)  # constant term 0
        with pytest.raises(ValueError):
            order(ZERO)

    def test_against_bruteforce(self):
        import random

        rng = random.Random(11)
        seen = 0
        while seen < 120:
            bits = 1 | (rng.randrange(1 << 10) << 1)
            f = BinPoly(bits)
            if f.degree < 1:
                continue
            assert order(f) == _order_bruteforce(f), f
            seen += 1

    def test_irreducible_order_divides(self):
        for d in range(2, 9):
            for g in irreducible_polys(d):
                if g.constant_term:
                    assert ((1 << d) - 1) % order(g) == 0

    def test_power_law(self):
        for g in (P("11"), P("111"), P("1101")):
            base = order(g)
            for e in range(1, 9):
                expect = base << (e - 1).bit_length()
                assert order(g**e) == expect, (g, e)

    def test_divides_iff(self):
        import random

        rng = random.Random(5)
        for _ in range(25):
            f = BinPoly(1 | (rng.randrange(1 << 8) << 1))
            if f.degree < 1:
                continue
            o = order(f)
            for l in range(1, 64):
                divides = ((x_power(l) + ONE) % f).is_zero
                assert divides == (l % o == 0), (f, l)


class TestFindIrreducibleOfOrder:
    def test_examples(self):
        assert find_irreducible_of_order(1) == P("11")
        assert find_irreducible_of_order(3) == P("111")
        assert find_irreducible_of_order(7) == P("1101")

    def test_roundtrip_small_odd(self):
        for t in range(1, 52, 2):
            g = find_irreducible_of_order(t)
            assert is_irreducible(g) and order(g) == t, t

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            find_irreducible_of_order(6)


class TestCalculus:
    @given(polys)
    def test_square_has_zero_derivative(self, f):
        assert (f * f).derivative() == ZERO

    @given(polys)
    def test_sqrt_of_square(self, f):
        assert (f * f).sqrt() == f

    def test_derivative_example(self):
        assert P("111").derivative() == ONE
        assert P("1011").derivative() == BinPoly.from_exponents([2])
        assert BinPoly.from_exponents([1, 5, 6]).derivative() == BinPoly.from_exponents([0, 4])

    def test_sqrt_rejects_non_square(self):
        with pytest.raises(ValueError):
            P("11").sqrt()
