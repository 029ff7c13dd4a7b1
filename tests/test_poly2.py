import functools
import importlib
import itertools
import math
import pkgutil
import random
from math import isqrt

import pytest
from hypothesis import given, strategies as st

import shiftperm
from shiftperm import poly2
from shiftperm.poly2 import (
    ONE,
    X,
    ZERO,
    BinPoly,
    BoundExceededError,
    ext_gcd,
    factor,
    factor_int,
    find_irreducible_of_order,
    gcd,
    irreducible_polys,
    is_irreducible,
    is_prime,
    order,
    x_power,
)

from checks import count_calls, run_bounded
from oracles import (
    euclid_gcd, factor_product, long_division, ord2, powmod, rabin_irreducible, shift_and_add, trial_factor,
    x_order,
)

P = BinPoly.parse

polys = st.integers(0, (1 << 65) - 1).map(BinPoly)
nonzero_polys = st.integers(1, (1 << 65) - 1).map(BinPoly)


def test_oracles_load_nothing_of_the_package():
    # every comparison with an oracle rests on this: a child with the package and the
    # test helpers importable imports oracles and has no shiftperm module loaded
    proc = run_bounded(
        "import sys, oracles\nprint(sorted(m for m in sys.modules if m.partition('.')[0] == 'shiftperm'))",
        timeout=30,
    )
    assert proc.stdout == "[]\n", proc.stderr


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

    def test_bit_views_match_per_bit_reference(self):
        rng = random.Random(5)
        for _ in range(500):
            f = BinPoly(rng.getrandbits(rng.randrange(0, 300)))
            per_bit = [(f.bits >> i) & 1 for i in range(max(f.bits.bit_length(), 1))]
            assert f.exponents() == tuple(i for i, c in enumerate(per_bit) if c)
            assert f.to_string() == "".join(map(str, per_bit))
            square = BinPoly(sum(1 << (2 * i) for i in f.exponents()))
            assert square.sqrt() == f
            if f.bits > 1:
                with pytest.raises(ValueError):
                    (square + BinPoly(1 << (2 * rng.randrange(f.degree) + 1))).sqrt()

    def test_bit_views_at_200000_bits(self):
        # the reference is built from the exponents, since a per-bit walk is quadratic
        exps = sorted(random.Random(6).sample(range(200_000), 5000)) + [200_000]
        f = BinPoly.from_exponents(exps)
        assert f.exponents() == tuple(exps)
        s = f.to_string()
        assert len(s) == 200_001 and s.count("1") == len(exps) and s[exps[17]] == "1"
        assert BinPoly.from_exponents(2 * e for e in exps).sqrt() == f


class TestArithmetic:
    def test_product_example(self):
        assert P("11") * P("111") == P("1001")  # (1+X)(1+X+X^2) = 1+X^3

    def test_frobenius_square(self):
        assert P("11") ** 2 == P("101")

    def test_clmul_matches_shift_and_add_around_window(self):
        rng = random.Random(7)
        w = poly2._WINDOW_MIN_BITS
        lengths = (1, 8, 9, w - 1, w, w + 1, w + 8, 3 * w, 4000)
        for la in lengths:
            for lb in lengths:
                a, b = rng.getrandbits(la) | (1 << (la - 1)), rng.getrandbits(lb) | (1 << (lb - 1))
                assert poly2._clmul(a, b) == shift_and_add(a, b), (la, lb)
        assert poly2._clmul(0, rng.getrandbits(2 * w)) == 0

    def test_clmul_matches_shift_and_add_around_toom(self):
        # the longer length cuts into thirds of k = ceil(la/3) bits: t - 1 stays on the byte
        # table, the products of the thirds of 3t - 1, 3t and 3t + 1 fall on either side of t,
        # 9t + 2 cuts twice; against 9t + 2 a multiplier of 3t + 1 = k bits is not split and
        # one of 6t + 2 = 2k has no top third
        rng = random.Random(8)
        t = poly2._TOOM_MIN_BITS
        lengths = (t - 1, t, t + 1, 2 * t + 2, 3 * t - 1, 3 * t, 3 * t + 1, 6 * t + 2, 9 * t + 2)
        for la, lb in itertools.combinations_with_replacement(lengths, 2):
            a, b = rng.getrandbits(la) | (1 << (la - 1)), rng.getrandbits(lb) | (1 << (lb - 1))
            assert poly2._clmul(a, b) == shift_and_add(a, b), (la, lb)
            # monomials leave thirds, values and the quotients by 1 + X zero
            assert poly2._clmul(1 << la - 1, 1 << lb - 1 | 1) == 1 << la + lb - 2 | 1 << la - 1, (la, lb)
        for length in (t, 9 * t + 2):
            assert poly2._clmul(0, rng.getrandbits(length)) == 0
            assert poly2._clmul(rng.getrandbits(length), 0) == 0

    def test_powmod_bits_by_shift_and_add(self):
        # X takes the shift path, X + 1 and the rest the product; m ^ 2 reduces to X, m to 0
        rng = random.Random(26)
        moduli = [1, 2, 3] + [rng.getrandbits(d) | 1 << d for d in (2, 12, 32, 64, 137) for _ in range(2)]
        exponents = [0, 1, rng.getrandbits(130)] + [e for k in (1, 2, 7, 64, 129) for e in (1 << k, (1 << k) - 1)]
        for m in moduli:
            d = m.bit_length() - 1
            for base in (0, 1, 2, 3, rng.getrandbits(d), m, m ^ 2, rng.getrandbits(d + 40)):
                for e in exponents:
                    assert poly2._powmod_bits(base, e, m) == powmod(base, e, m), (base, e, m)

    def test_square_and_deinterleave_by_shift_and_add(self):
        # byte boundaries and the Toom size; all-ones fills every table entry's nibble
        rng = random.Random(8)
        for length in (0, 1, 7, 8, 9, 63, 64, 65, 4095, 4096, 4097, 30000):
            for a in (rng.getrandbits(length) | (1 << length >> 1), (1 << length) - 1):
                assert poly2._square(a) == shift_and_add(a, a), length
                e, o = poly2._deinterleave(a)
                assert a == shift_and_add(e, e) ^ shift_and_add(o, o) << 1, length
                assert BinPoly(shift_and_add(e, e)).sqrt().bits == e, length
                if o:
                    with pytest.raises(ValueError):
                        BinPoly(a).sqrt()

    def test_power_matches_repeated_product(self):
        rng = random.Random(9)
        for length in (1, 5, 70, 300):
            f = rng.getrandbits(length)
            expect = 1
            for e in range(12):
                assert (BinPoly(f) ** e).bits == expect, (f, e)
                expect = shift_and_add(expect, f)

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
        g, u = ext_gcd(P("111"), x_power(3))
        assert g == ONE and u == P("11")
        g, u = ext_gcd(P("111"), BinPoly.from_exponents([4, 8]))
        assert g == ONE and u == P("1101011")
        a, b = P("10011"), ONE
        assert ext_gcd(a, b) == (ONE, ZERO)
        assert _cofactor(a, b, ONE, ZERO) == ONE

    @given(polys, polys)
    def test_ext_gcd_identity(self, a, b):
        if a.is_zero and b.is_zero:
            return
        g, u = ext_gcd(a, b)
        v = ZERO if b.is_zero else _cofactor(a, b, g, u)
        assert u * a + v * b == g
        if not a.is_zero:
            assert (a % g).is_zero
        if not b.is_zero:
            assert (b % g).is_zero

    def test_ext_gcd_and_mod_by_long_division(self):
        # zero operands, a | b and b | a, and operands of up to 3000 bits
        rng = random.Random(9)
        pairs = [(0, 0b1011), (0b1011, 0), (0b11, 0b1111), (0b1111, 0b11), (1, 1)]
        for la, lb in ((20, 20), (200, 90), (90, 200), (3000, 3000), (3000, 40)):
            a, b = rng.getrandbits(la), rng.getrandbits(lb) | 1
            c = rng.getrandbits(la // 3)
            pairs += [(a, b), (shift_and_add(c, b), b), (b, shift_and_add(c, b)), (a, a)]
        for a, b in pairs:
            g, u = ext_gcd(BinPoly(a), BinPoly(b))
            assert g.bits == euclid_gcd(a, b), (a, b)
            if b:
                assert long_division(shift_and_add(u.bits, a) ^ g.bits, b)[1] == 0, (a, b)
                assert poly2._mod_bits(a, b) == long_division(a, b)[1], (a, b)

    @given(nonzero_polys, nonzero_polys)
    def test_ext_gcd_normalized(self, a, b):
        g, u = ext_gcd(a, b)
        if (a % b).is_zero or b.degree <= g.degree:
            return
        assert u.degree < b.degree - g.degree


def _cofactor(a, b, g, u):
    """The cofactor v of b with u a + v b = g, by exact division of g - u a by b."""
    v, r = divmod(g + u * a, b)
    assert r.is_zero
    return v


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
            assert is_irreducible(f) == (trial_factor(bits) == [(bits, 1)]), f

    def test_known_counts(self):
        # (1/d) sum over e | d of mu(e) 2^(d/e), X and 1 + X at d = 1 included
        def mobius(e):
            primes = [p for p in range(2, e + 1) if e % p == 0 and all(p % q for q in range(2, p))]
            return 0 if any(e % (p * p) == 0 for p in primes) else (-1) ** len(primes)

        counts = [sum(mobius(e) << d // e for e in range(1, d + 1) if d % e == 0) // d for d in range(1, 13)]
        assert counts == [2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335]
        assert [len(irreducible_polys(d)) for d in range(1, 13)] == counts

    def test_agrees_with_rabin(self):
        # seeded random polynomials of degree 13..300, their irreducible factors of
        # degree 13 up, and three primitive trinomials with and without a factor 1 + X + X^2
        rng = random.Random(16)
        cases = [rng.getrandbits(d) | 1 << d for d in (rng.randrange(13, 301) for _ in range(60))]
        cases += [g.bits for f in cases for g, _ in factor(BinPoly(f)) if g.degree >= 13]
        for exps in ([0, 1, 127], [0, 32, 521], [0, 105, 607]):
            f = sum(1 << e for e in exps)
            cases += [f, shift_and_add(f, 0b111)]
        verdicts = [is_irreducible(BinPoly(f)) for f in cases]
        assert verdicts == [rabin_irreducible(f) for f in cases]
        assert 10 < sum(verdicts) < len(cases) - 10


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
        # every f of degree <= 14, against trial division, which shares no code with factor
        seen = set()
        for bits in range(1, 1 << 15):
            f = BinPoly(bits)
            fac = factor(f)
            assert factor_product(fac) == bits, f
            assert [(g.bits, e) for g, e in fac] == trial_factor(bits), f
            seen.update(g for g, _ in fac)
        assert all(is_irreducible(g) for g in seen)

    def test_two_factors_of_one_degree(self):
        # 1 + X + X^7 and 1 + X^3 + X^7 fall into one distinct-degree block
        g1, g2 = P("11000001"), P("10010001")
        assert is_irreducible(g1) and is_irreducible(g2)
        assert factor(g1 * g2 * P("111")) == ((P("111"), 1), (g1, 1), (g2, 1))
        assert factor(g1 * P("111") ** 2) == ((P("111"), 2), (g1, 1))

    def test_cyclotomic_blocks(self):
        # X^m + 1, m odd, is squarefree with phi(e) / ord_e(2) factors of degree
        # ord_e(2) for each e | m: blocks of many equal degrees, the degree-20
        # factors of Phi_75 among them
        for m in range(1, 200, 2):
            f = x_power(m) + ONE
            fac = factor(f)
            expected = []
            for e in (e for e in range(1, m + 1) if m % e == 0):
                o = next(o for o in range(1, e + 1) if pow(2, o, e) == 1 % e)
                totient = sum(1 for j in range(1, e + 1) if math.gcd(j, e) == 1)
                expected += [o] * (totient // o)
            assert sorted(g.degree for g, _ in fac) == sorted(expected), m
            assert factor_product(fac) == f.bits and all(e == 1 and rabin_irreducible(g.bits) for g, e in fac), m

    def test_degree_300(self):
        f = BinPoly.from_exponents([0, 1, 300])
        fac = factor(f)
        assert factor_product(fac) == f.bits
        assert all(rabin_irreducible(g.bits) for g, _ in fac)

    def test_factors_sorted_and_distinct(self):
        fac = factor(P("11") * P("111") ** 2 * x_power(2))
        pairs = list(fac)
        assert pairs == sorted(pairs, key=lambda ge: (ge[0].degree, ge[0].bits))
        assert len({g for g, _ in pairs}) == len(pairs)

    def test_splitter_gives_up_on_a_block_it_cannot_split(self):
        # X^4 + X + 1 is irreducible, so no power of X splits it as a block of degree-2 factors;
        # run bounded, as a splitter that tries without end would stall the suite instead of failing
        proc = run_bounded(
            "from shiftperm.poly2 import _split_equal_degree\n"
            "try:\n"
            "    _split_equal_degree(0b10011, 2)\n"
            "except AssertionError as e:\n"
            "    print(e)\n",
            timeout=10,
        )
        assert proc.stdout == "X^3 left a block of degree 4 unsplit into degree 2\n", proc.stderr

    def test_splitter_separates_every_pair_of_one_degree(self):
        # the docstring's bound: the odd powers of X up to X^(2d-1) part any two irreducibles of
        # degree d, so every product of two (7035 pairs for d <= 10) and the product of all of one
        # degree split into their factors; a power short of the bound leaves some pairs whole
        pairs = 0
        for d in range(1, 11):
            polys = [g.bits for g in irreducible_polys(d)]
            for g, h in itertools.combinations(polys, 2):
                assert sorted(poly2._split_equal_degree(shift_and_add(g, h), d)) == [g, h], (g, h)
                pairs += 1
            assert sorted(poly2._split_equal_degree(functools.reduce(shift_and_add, polys), d)) == polys
        assert pairs == 7035

    def test_no_random_source(self):
        # the splitter draws nothing: no module of the package, poly2 included, imports random
        for info in pkgutil.iter_modules(shiftperm.__path__):
            assert not hasattr(importlib.import_module(f"shiftperm.{info.name}"), "random"), info.name


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
            assert order(f) == x_order(f.bits, 1 << f.degree), f
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

    def test_factors_once_per_degree(self, monkeypatch):
        # f once, and 2^d - 1 once per factor degree d, here two factors of degree 4 and
        # random f of degree up to 12, their degrees read off trial division
        rng = random.Random(17)
        polys = [P("10011") ** 3 * P("11001"), P("11") * P("111") ** 2 * P("1101") * P("1011")]
        polys += [BinPoly(rng.randrange(1 << 12) | 1) for _ in range(20)]
        calls = count_calls(monkeypatch, poly2, "factor", "factor_int")
        for f in polys:
            for log in calls.values():
                log.clear()
            assert order(f) == x_order(f.bits, 1 << f.degree), f
            assert len(calls["factor"]) == 1, f
            degrees = sorted({g.bit_length() - 1 for g, _ in trial_factor(f.bits)})
            assert calls["factor_int"] == [((1 << d) - 1,) for d in degrees], f

    def test_divides_iff(self):
        import random

        rng = random.Random(5)
        for _ in range(25):
            f = BinPoly(1 | (rng.randrange(1 << 8) << 1))
            if f.degree < 1:
                continue
            o = order(f)
            for l in range(1, 64):
                divides = long_division(1 << l | 1, f.bits)[1] == 0
                assert divides == (l % o == 0), (f, l)


class TestFindIrreducibleOfOrder:
    def test_examples(self):
        assert find_irreducible_of_order(1) == P("11")
        assert find_irreducible_of_order(3) == P("111")
        assert find_irreducible_of_order(7) == P("1101")

    def test_smallest_of_each_order_up_to_degree_12(self):
        # every odd t with ord_t(2) <= 12: the smallest odd polynomial of degree
        # ord_t(2) that trial division finds irreducible and in which X has order t
        orders = [t for t in range(1, 1 << 12, 2) if ord2(t) <= 12]
        assert len(orders) == 40
        for t in orders:
            d = ord2(t)
            smallest = next(
                f for f in range((1 << d) | 1, 1 << (d + 1), 2)
                if x_order(f, t) == t and trial_factor(f) == [(f, 1)]
            )
            assert find_irreducible_of_order(t).bits == smallest, t

    def test_constructed_degrees_13_to_20(self):
        pool = [t for t in range(3, 1 << 12, 2) if 12 < ord2(t) <= 20]
        for t in random.Random(15).sample(pool, 30):
            f = find_irreducible_of_order(t).bits
            assert f.bit_length() - 1 == ord2(t), t
            assert trial_factor(f) == [(f, 1)] and x_order(f, t) == t, t

    def test_factors_once_per_call(self, monkeypatch):
        # 2^d - 1 once, in the enumeration (t = 13, 4095) and the construction (8191, 65537);
        # a cold irreducible_polys makes the count independent of the test order
        poly2.irreducible_polys.cache_clear()
        calls = []
        monkeypatch.setattr(poly2, "factor_int", lambda n: calls.append(n) or factor_int(n))
        for t in (13, 4095, 8191, 65537):
            calls.clear()
            d = find_irreducible_of_order(t).degree
            assert calls.count((1 << d) - 1) == 1, t

    def test_roundtrip_small_odd(self):
        for t in range(1, 52, 2):
            g = find_irreducible_of_order(t)
            assert is_irreducible(g) and order(g) == t, t

    def test_even_rejected(self):
        with pytest.raises(ValueError):
            find_irreducible_of_order(6)

    def test_degree_above_the_bound(self):
        # ord_1000003(2) > 128: the bounded search raises before any field is built
        proc = run_bounded(
            "import time\n"
            "from shiftperm.poly2 import BoundExceededError, find_irreducible_of_order\n"
            "start = time.perf_counter()\n"
            "try:\n"
            "    find_irreducible_of_order(1000003)\n"
            "except BoundExceededError as e:\n"
            "    print(time.perf_counter() - start, e)\n",
            timeout=30,
        )
        seconds, message = proc.stdout.split(" ", 1)
        assert float(seconds) < 1, proc.stderr
        assert message == "order 1000003 needs the degree ord_1000003(2) > 128\n"


# The prime factorization of 2^d - 1 for d <= 96, as sympy.factorint
# printed it (p^e for multiplicity e > 1).
MERSENNE_FACTORS = {
    1: "",
    2: "3",
    3: "7",
    4: "3 5",
    5: "31",
    6: "3^2 7",
    7: "127",
    8: "3 5 17",
    9: "7 73",
    10: "3 11 31",
    11: "23 89",
    12: "3^2 5 7 13",
    13: "8191",
    14: "3 43 127",
    15: "7 31 151",
    16: "3 5 17 257",
    17: "131071",
    18: "3^3 7 19 73",
    19: "524287",
    20: "3 5^2 11 31 41",
    21: "7^2 127 337",
    22: "3 23 89 683",
    23: "47 178481",
    24: "3^2 5 7 13 17 241",
    25: "31 601 1801",
    26: "3 2731 8191",
    27: "7 73 262657",
    28: "3 5 29 43 113 127",
    29: "233 1103 2089",
    30: "3^2 7 11 31 151 331",
    31: "2147483647",
    32: "3 5 17 257 65537",
    33: "7 23 89 599479",
    34: "3 43691 131071",
    35: "31 71 127 122921",
    36: "3^3 5 7 13 19 37 73 109",
    37: "223 616318177",
    38: "3 174763 524287",
    39: "7 79 8191 121369",
    40: "3 5^2 11 17 31 41 61681",
    41: "13367 164511353",
    42: "3^2 7^2 43 127 337 5419",
    43: "431 9719 2099863",
    44: "3 5 23 89 397 683 2113",
    45: "7 31 73 151 631 23311",
    46: "3 47 178481 2796203",
    47: "2351 4513 13264529",
    48: "3^2 5 7 13 17 97 241 257 673",
    49: "127 4432676798593",
    50: "3 11 31 251 601 1801 4051",
    51: "7 103 2143 11119 131071",
    52: "3 5 53 157 1613 2731 8191",
    53: "6361 69431 20394401",
    54: "3^4 7 19 73 87211 262657",
    55: "23 31 89 881 3191 201961",
    56: "3 5 17 29 43 113 127 15790321",
    57: "7 32377 524287 1212847",
    58: "3 59 233 1103 2089 3033169",
    59: "179951 3203431780337",
    60: "3^2 5^2 7 11 13 31 41 61 151 331 1321",
    61: "2305843009213693951",
    62: "3 715827883 2147483647",
    63: "7^2 73 127 337 92737 649657",
    64: "3 5 17 257 641 65537 6700417",
    65: "31 8191 145295143558111",
    66: "3^2 7 23 67 89 683 20857 599479",
    67: "193707721 761838257287",
    68: "3 5 137 953 26317 43691 131071",
    69: "7 47 178481 10052678938039",
    70: "3 11 31 43 71 127 281 86171 122921",
    71: "228479 48544121 212885833",
    72: "3^3 5 7 13 17 19 37 73 109 241 433 38737",
    73: "439 2298041 9361973132609",
    74: "3 223 1777 25781083 616318177",
    75: "7 31 151 601 1801 100801 10567201",
    76: "3 5 229 457 174763 524287 525313",
    77: "23 89 127 581283643249112959",
    78: "3^2 7 79 2731 8191 121369 22366891",
    79: "2687 202029703 1113491139767",
    80: "3 5^2 11 17 31 41 257 61681 4278255361",
    81: "7 73 2593 71119 262657 97685839",
    82: "3 83 13367 164511353 8831418697",
    83: "167 57912614113275649087721",
    84: "3^2 5 7^2 13 29 43 113 127 337 1429 5419 14449",
    85: "31 131071 9520972806333758431",
    86: "3 431 9719 2099863 2932031007403",
    87: "7 233 1103 2089 4177 9857737155463",
    88: "3 5 17 23 89 353 397 683 2113 2931542417",
    89: "618970019642690137449562111",
    90: "3^3 7 11 19 31 73 151 331 631 23311 18837001",
    91: "127 911 8191 112901153 23140471537",
    92: "3 5 47 277 1013 1657 30269 178481 2796203",
    93: "7 2147483647 658812288653553079",
    94: "3 283 2351 4513 13264529 165768537521",
    95: "31 191 524287 420778751 30327152671",
    96: "3^2 5 7 13 17 97 193 241 257 673 65537 22253377",
}


def _smallest_prime_factors(limit):
    spf = list(range(limit))
    for p in range(2, isqrt(limit - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, limit, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


# strong Lucas pseudoprimes with Selfridge's parameters below 2^16 (A217255)
STRONG_LUCAS = {5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519}


class TestIntegers:
    def test_factor_int_matches_trial_division_below_2_16(self):
        spf = _smallest_prime_factors(1 << 16)
        for n in range(1, 1 << 16):
            expect, m = {}, n
            while m > 1:
                expect[spf[m]] = expect.get(spf[m], 0) + 1
                m //= spf[m]
            assert factor_int(n) == expect, n

    def test_is_prime_matches_sieve(self):
        lo, hi = 1 << 16, (1 << 16) + (1 << 14)
        composite = set()
        for p in range(2, isqrt(hi) + 1):
            composite.update(range(max(p * p, (lo + p - 1) // p * p), hi, p))
        for n in range(lo, hi):
            assert is_prime(n) == (n not in composite), n
        # strong base-2 pseudoprimes (A001262) in the range: Lucas rejects them
        assert {74665, 80581} <= composite
        assert [n for n in range(64) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61
        ]

    def test_strong_lucas_pseudoprimes_below_2_16(self):
        spf = _smallest_prime_factors(1 << 16)
        for n in range(257, 1 << 16, 2):
            if isqrt(n) ** 2 != n:
                expect = spf[n] == n or n in STRONG_LUCAS
                assert poly2._strong_lucas(n) == expect, n

    def test_baillie_psw_rejects_pseudoprimes(self):
        for n in (561, 1105, 1729, 2047, 3277, 4033, 4681, 8321,
                  3215031751, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n), n
        # the last two have no factor below 256 and pass base-2 Fermat
        # (indeed strong) tests; only Lucas rejects them
        for n in (3825123056546413051, 318665857834031151167461):
            assert pow(2, n - 1, n) == 1
        # strong Lucas pseudoprimes with no factor below 256: only
        # Miller-Rabin rejects them
        for n in (161027, 176399):  # 283 * 569, 419 * 421
            assert poly2._strong_lucas(n) and not is_prime(n), n

    def test_baillie_psw_accepts_mersenne_primes(self):
        for e in (61, 89, 127):
            assert is_prime((1 << e) - 1), e

    def test_mersenne_factorizations(self):
        for d, text in MERSENNE_FACTORS.items():
            expect = {}
            for term in text.split():
                p, _, e = term.partition("^")
                expect[int(p)] = int(e or 1)
            got = factor_int((1 << d) - 1)
            assert got == expect and list(got) == sorted(got), d

    def test_rho_splits_large_composites(self):
        p, q, r = (1 << 31) - 1, 1000000007, 65537
        assert factor_int(p * q) == {q: 1, p: 1}
        assert factor_int(r**3 * p**2 * 3) == {3: 1, r: 3, p: 2}
        assert factor_int(1) == {}
        with pytest.raises(ValueError):
            factor_int(0)

    def test_rho_budget(self, monkeypatch):
        # 2^101 - 1 = 7432339208719 * 341117531003194129 takes rounds up to 2^21 steps
        monkeypatch.setattr(poly2, "RHO_BUDGET", 1 << 20)
        with pytest.raises(BoundExceededError, match=r"^factoring 2\^101 - 1 needs more than 1048576 rho steps$"):
            factor_int((1 << 101) - 1)
        p, q = 1000000007, 998244353
        monkeypatch.setattr(poly2, "RHO_BUDGET", 8)
        with pytest.raises(BoundExceededError, match=f"^factoring {p * q} "):
            factor_int(p * q)

    def test_factors_past_the_digit_limit(self):
        # str() refuses past 4300 digits, and trial division alone factors this one
        assert factor_int(10**5000) == {2: 5000, 5: 5000}

    def test_rho_refuses_past_the_digit_limit(self, monkeypatch):
        # a 5061-digit operand is named by its bits; is_prime itself would take seconds on it
        monkeypatch.setattr(poly2, "RHO_BUDGET", 0)
        monkeypatch.setattr(poly2, "is_prime", lambda m: False)
        with pytest.raises(BoundExceededError, match=r"^factoring a 16812-bit integer needs more than 0 rho steps$"):
            factor_int(257**2100)


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
