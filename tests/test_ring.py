import random

import pytest

from shiftperm import poly2
from shiftperm.poly2 import BinPoly, ONE, ZERO, X, factor, x_power
from shiftperm.gammaspan import GammaCombination
from shiftperm.ring import (
    DIMENSION_CAP,
    Modulus,
    NonUnitError,
    is_unit,
    reduce,
    ring_inverse,
    ring_mul,
    unit_group_order,
)

from oracles import euclid_gcd, euclid_inverse, factor_product, long_division, shift_and_add, units_from_divisors

P = BinPoly.parse

# every 2-adic exponent s = 0..5 below 65, and large n with s = 3, 0, 1, 3
FOLD_DIMENSIONS = list(range(1, 65)) + [1000, 1001, 2002, 5144]


def non_unit_witness(f: BinPoly, mod: Modulus) -> NonUnitError:
    """ring_inverse(f) raises with the witness is_permutation reports: X when
    f has no constant term, else gcd(f, X^m + 1), found here by long division.
    It is not 1 and divides f and the modulus."""
    with pytest.raises(NonUnitError) as info:
        ring_inverse(f, mod)
    w = info.value.witness.bits
    expected = euclid_gcd(f.bits, 1 << mod.odd_part | 1) if f.bits & 1 else 0b10
    assert w == expected, (mod.n, f)
    assert w != 1 and long_division(f.bits, w)[1] == long_division(mod.poly.bits, w)[1] == 0, (mod.n, f)
    return info.value


class TestModulus:
    def test_parity_of_modulus_polynomial(self):
        assert Modulus(5).poly == x_power(3)
        assert Modulus(6).poly == x_power(6) + x_power(3)
        assert Modulus(1).poly == X
        assert Modulus(2).poly == x_power(2) + X

    def test_degree(self):
        assert Modulus(5).degree == 3
        assert Modulus(6).degree == 6

    def test_two_adic_split(self):
        for n, m, s in [(5, 5, 0), (6, 3, 1), (8, 1, 3), (12, 3, 2), (48, 3, 4), (1, 1, 0)]:
            mod = Modulus(n)
            assert mod.odd_part == m, n
            assert n == (1 << s) * m

    def test_bad_dimension(self):
        with pytest.raises(ValueError):
            Modulus(0)

    def test_dimension_cap(self):
        assert Modulus(DIMENSION_CAP).degree == DIMENSION_CAP
        for n in (0, -1, DIMENSION_CAP + 1):
            with pytest.raises(ValueError, match=f"dimension {n} is outside 1..{DIMENSION_CAP}"):
                Modulus(n)
            with pytest.raises(ValueError, match=f"dimension {n} is outside"):
                GammaCombination(0b111, n)


class TestReduceAndMul:
    def test_reduce_examples(self):
        assert reduce(x_power(6), Modulus(6)) == x_power(3)
        assert reduce(ZERO, Modulus(6)) == ZERO
        assert reduce(BinPoly.from_exponents([0, 4, 8]), Modulus(8)) == ONE

    def test_reduce_is_idempotent(self):
        mod = Modulus(9)
        for v in range(1 << 7):
            r = reduce(BinPoly(v), mod)
            assert reduce(r, mod) == r

    def test_any_representative_gives_the_canonical_result(self):
        # f + q * modulus for a random q of up to 2n bits: representatives of up to 3n bits
        rng = random.Random(20)
        for n in FOLD_DIMENSIONS:
            mod = Modulus(n)
            for _ in range(4):
                a, b = (BinPoly(rng.getrandbits(mod.degree)) for _ in range(2))
                a_, b_ = (f + BinPoly(rng.getrandbits(2 * n)) * mod.poly for f in (a, b))
                assert ring_mul(a_, b_, mod) == ring_mul(a, b, mod) == a * b % mod.poly, n
                assert is_unit(a_, mod) == is_unit(a, mod), n
                if is_unit(a, mod):
                    assert ring_inverse(a_, mod) == ring_inverse(a, mod), n
                    continue
                with pytest.raises(NonUnitError) as canonical:
                    ring_inverse(a, mod)
                with pytest.raises(NonUnitError) as info:
                    ring_inverse(a_, mod)
                assert info.value.witness == canonical.value.witness, n
                assert str(info.value) == str(canonical.value), n

    def test_inverse_of_a_multiple_of_the_odd_modulus(self):
        # X^((n+1)/2) is the odd modulus itself, the coset of 0: the witness is X
        for n in (1, 3, 5, 9, 1001):
            assert non_unit_witness(x_power((n + 1) // 2), Modulus(n)).witness == X, n

    def test_mul_examples(self):
        big = Modulus(20)
        assert ring_mul(reduce(P("11"), big), reduce(P("11"), big), big) == P("101")
        m8 = Modulus(8)
        assert ring_mul(reduce(P("111"), m8), reduce(P("1101011"), m8), m8) == ONE
        a = reduce(P("1011"), m8)
        assert ring_mul(a, ONE, m8) == a

    def test_mul_ring_axioms_small(self):
        mod = Modulus(6)
        elems = [reduce(BinPoly(v), mod) for v in range(1 << 6)]
        for a in elems[:16]:
            for b in elems[:16]:
                assert ring_mul(a, b, mod) == ring_mul(b, a, mod)
                for c in elems[:8]:
                    assert ring_mul(ring_mul(a, b, mod), c, mod) == ring_mul(a, ring_mul(b, c, mod), mod)


class TestUnits:
    def test_examples(self):
        assert not is_unit(reduce(P("11"), Modulus(6)), Modulus(6))
        assert is_unit(ONE, Modulus(6))
        assert is_unit(reduce(P("111"), Modulus(8)), Modulus(8))

    def test_unit_criterion_by_parity(self):
        # odd n: unit iff constant term 1; even n = 2^s m: also coprime to 1+X^m
        for n in range(1, 11):
            mod = Modulus(n)
            check = x_power(mod.odd_part) + ONE
            for v in range(1 << mod.degree):
                el = reduce(BinPoly(v), mod)
                if n % 2:
                    expected = el.constant_term == 1
                else:
                    expected = (
                        el.constant_term == 1
                        and poly2.gcd(el, check) == ONE
                    )
                assert is_unit(el, mod) == expected, (n, v)

    def test_unit_iff_inverse_exists_bruteforce(self):
        for n in range(1, 9):
            mod = Modulus(n)
            size = 1 << mod.degree
            elems = [reduce(BinPoly(v), mod) for v in range(size)]
            for a in elems:
                found = any(ring_mul(a, b, mod) == ONE for b in elems)
                assert found == is_unit(a, mod), (n, a)

    def test_inverse_roundtrip_exhaustive(self):
        for n in range(1, 11):
            mod = Modulus(n)
            for v in range(1 << mod.degree):
                el = reduce(BinPoly(v), mod)
                if is_unit(el, mod):
                    assert ring_mul(el, ring_inverse(el, mod), mod) == ONE, (n, v)

    def test_inverse_examples(self):
        assert ring_inverse(reduce(P("111"), Modulus(5)), Modulus(5)) == P("11")
        assert ring_inverse(ONE, Modulus(7)) == ONE
        assert ring_inverse(reduce(P("111"), Modulus(10)), Modulus(10)) == P("110111011")

    def test_non_unit_carries_witness(self):
        with pytest.raises(NonUnitError) as info:
            ring_inverse(reduce(P("11"), Modulus(6)), Modulus(6))
        assert info.value.witness == P("11")

    def test_non_unit_message_gives_degrees_only(self):
        # the message stays short at large n: no polynomial is rendered
        # X^30000 + 1 = (X^1875 + 1)^16 for the odd part m = 1875 of 60000
        f = x_power(30000) + ONE
        error = non_unit_witness(reduce(f, Modulus(60000)), Modulus(60000))
        assert error.witness == x_power(1875) + ONE
        assert str(error) == "not a unit for n = 60000: degree 30000, gcd degree 1875"


class TestFoldedArithmetic:
    """The folded reduction and the lifted inverse against division and
    extended Euclid on the full modulus."""

    def test_reduce_matches_division(self):
        rng = random.Random(21)
        for n in FOLD_DIMENSIONS:
            mod = Modulus(n)
            for length in (0, 1, n // 2, n, n + 1, 2 * n, 3 * n):
                f = BinPoly(rng.getrandbits(length))
                assert reduce(f, mod) == f % mod.poly, (n, length)

    def test_inverse_matches_euclid(self):
        rng = random.Random(22)
        for n in FOLD_DIMENSIONS:
            mod = Modulus(n)
            for constant in (0, 1):
                for j in range(6):
                    f = BinPoly(rng.getrandbits(mod.degree) & ~1 | constant)
                    # a factor (1 + X)^e, 0 < e < 2^(s+1), gives non-units of every multiplicity
                    e = rng.randrange(1, 2 * (n // mod.odd_part)) if j % 2 else 0
                    f = f * P("11") ** e % mod.poly
                    u = euclid_inverse(f.bits, mod.poly.bits)
                    if u is not None:
                        assert ring_inverse(f, mod).bits == u, (n, f)
                        assert is_unit(f, mod)
                    else:
                        non_unit_witness(f, mod)
                        assert not is_unit(f, mod)

    def test_inverse_mod_x_power_by_shift_and_add(self):
        # the odd dimension 2k - 1 has the modulus X^k, and its recursion runs top-down over
        # k, ceil(k/2), ceil(k/4), ..., 1; odd k need the ceiling
        rng = random.Random(24)
        for k in list(range(1, 301)) + [2**15 - 1, 2**15, 2**15 + 1, 30001]:
            f = rng.getrandbits(k + rng.randrange(3)) | 1
            u = ring_inverse(BinPoly(f), Modulus(2 * k - 1)).bits
            low = (1 << k) - 1
            assert u.bit_length() <= k and shift_and_add(f & low, u) & low == 1, k

    def test_inverse_by_shift_and_add_at_every_two_adic_exponent(self):
        # n = 2^s m, s = 0..5: the high lift doubles X^m + 1 up to X^h + 1, h = n/2, s - 1 times
        rng = random.Random(25)
        for s in range(6):
            for m in (1, 3, 15, 625, 1875):
                n = m << s
                mod = Modulus(n)
                for j in range(4 if n < 5000 else 2):
                    f = BinPoly(rng.getrandbits(mod.degree) | 1)
                    if j % 2:  # a factor X or (1 + X)^e, 0 < e < 2^(s+1), makes a non-unit
                        f = f * (X if n % 2 else P("11") ** rng.randrange(1, 2 << s)) % mod.poly
                    if n % 2 == 0 and euclid_gcd(f.bits, 1 << m | 1) != 1 or not f.bits & 1:
                        non_unit_witness(f, mod)
                        continue
                    u = ring_inverse(f, mod).bits
                    assert u.bit_length() <= mod.degree, n
                    assert long_division(shift_and_add(f.bits, u), mod.poly.bits)[1] == 1, n

    def test_mul_matches_shift_and_add(self):
        # on even n the product is joined from its residues mod X^h and X^h + 1; h = t and
        # h = 3t + 1 take the product mod X^h, cut to h bits, at and past the Toom threshold t,
        # and the folded product mod X^h + 1, both cut into thirds
        rng = random.Random(23)
        t = poly2._TOOM_MIN_BITS
        for n in FOLD_DIMENSIONS + [2 * t - 1, 2 * t, 6 * t + 1, 6 * t + 2, 60000, 60001]:
            mod = Modulus(n)
            for _ in range(2 if n > 5144 else 6):
                a, b = (BinPoly(rng.getrandbits(mod.degree)) for _ in range(2))
                expect = long_division(shift_and_add(a.bits, b.bits), mod.poly.bits)[1]
                assert ring_mul(a, b, mod).bits == expect, n

    @pytest.mark.parametrize("s", [1, 2, 3, 4, 5])
    def test_witness_matches_gcd(self, s):
        # m = 3 * 5 * 7: 1 + X + X^2 and the other factors of X^m + 1 have
        # multiplicity k = 2^(s-1) in the modulus; e runs across k
        rng = random.Random(24 + s)
        k = 1 << (s - 1)
        mod = Modulus(105 << s)
        h = mod.n // 2
        factors = (P("111"), P("1101"), P("11111"), P("11"))
        for e in sorted({1, max(k - 1, 1), k, k + 1, 2 * k + 1}):
            for factor in factors:
                for v in (0, 0, 1, h - 1, h, h + 3):
                    f = BinPoly(rng.getrandbits(mod.degree) | 1) * factor**e
                    f = (f << v) % mod.poly
                    non_unit_witness(f, mod)

    def test_witness_without_constant_term(self):
        rng = random.Random(25)
        for n in FOLD_DIMENSIONS:
            mod = Modulus(n)
            for v in {1, 2, max(mod.degree // 2, 1), max(mod.degree - 1, 1), mod.degree}:
                f = BinPoly(rng.getrandbits(mod.degree) << v) % mod.poly
                assert non_unit_witness(f, mod).witness == X, (n, f)


class TestModulusFactorization:
    def test_examples(self):
        assert [(g.to_string(), e) for g, e in factor(Modulus(6).poly)] == [
            ("01", 3),
            ("11", 1),
            ("111", 1),
        ]
        assert [(g.to_string(), e) for g, e in factor(Modulus(8).poly)] == [
            ("01", 4),
            ("11", 4),
        ]
        assert [(g.to_string(), e) for g, e in factor(Modulus(5).poly)] == [("01", 3)]

    def test_reconstructs_modulus_up_to_64(self):
        for n in range(1, 65):
            mod = Modulus(n)
            assert factor_product(factor(mod.poly)) == mod.poly.bits, n

    def test_one_plus_x_multiplicity_is_half_power(self):
        # the repeated-factor exponent on 1+X^m is 2^(s-1), not 2^s
        for n in (4, 8, 12, 16, 24, 48):
            mod = Modulus(n)
            mults = {g: e for g, e in factor(mod.poly)}
            assert mults[P("11")] == n // mod.odd_part // 2, n


def _units_from_factors(mod):
    """The product of 2^((e-1)d) (2^d - 1) over the irreducible factors
    of the modulus (degree d, multiplicity e)."""
    total = 1
    for g, e in factor(mod.poly):
        d = g.degree
        total *= (1 << ((e - 1) * d)) * ((1 << d) - 1)
    return total


class TestUnitGroupOrder:
    def test_examples(self):
        assert unit_group_order(Modulus(6)) == 12
        assert unit_group_order(Modulus(5)) == 4
        assert unit_group_order(Modulus(8)) == 64

    def test_matches_exhaustive_count(self):
        for n in range(1, 17):
            mod = Modulus(n)
            count = sum(
                1 for v in range(1 << mod.degree) if is_unit(BinPoly(v), mod)
            )
            assert count == unit_group_order(mod), n

    def test_matches_product_over_factors(self):
        for n in range(1, 129):
            assert unit_group_order(Modulus(n)) == _units_from_factors(Modulus(n)), n

    def test_matches_divisor_form(self):
        for n in list(range(2, 2001, 2)) + [100002]:
            assert unit_group_order(Modulus(n)) == units_from_divisors(n), n

    def test_calls_no_factoring(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("unit_group_order must not factor")

        for name in ("factor", "factor_int", "is_irreducible", "irreducible_polys"):
            monkeypatch.setattr(poly2, name, refuse)
        assert unit_group_order(Modulus(150)) == units_from_divisors(150)
