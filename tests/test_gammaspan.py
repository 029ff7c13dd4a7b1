import inspect
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftperm import poly2, tables
from shiftperm.analysis import inverse, is_permutation
from shiftperm.bitstate import BitVector, eval_gamma
from shiftperm.gammaspan import (
    GammaCombination,
    chi,
    compose,
    compose_oracle,
    evaluate,
    gamma_term,
    identity,
    kappa,
    phi,
    psi,
)
from shiftperm.poly2 import BinPoly
from shiftperm.ring import Modulus, reduce, ring_mul
from shiftperm.tables import BoundExceededError

from oracles import monoid_masks, pointwise_value, span_masks


def per_bit_canonical_mask(mask, n):
    """Reference canonical form, one coefficient at a time: on odd n drop
    every k with 2k > n, on even n send k >= n/2 to n/2 + (k mod n/2)."""
    half = n // 2
    out = 0
    for k in range(mask.bit_length()):
        if not (mask >> k) & 1:
            continue
        if n % 2 == 0:
            out ^= 1 << (k if k < half else half + k % half)
        elif 2 * k <= n:
            out ^= 1 << k
    return out


class TestCanonicalize:
    def test_even_wrapping(self):
        c = GammaCombination.from_indices([0, 6], 6)
        assert c.indices == (0, 3)

    def test_even_cancellation(self):
        assert GammaCombination.from_indices([6, 12], 6).is_zero

    def test_odd_vanishing(self):
        assert GammaCombination.from_indices([4], 7).is_zero
        assert GammaCombination.from_indices([0, 4, 2], 7).indices == (0, 2)

    def test_canonical_ranges(self):
        for n in range(1, 12):
            for k in range(3 * n + 2):
                c = GammaCombination.from_indices([k], n)
                assert c.mask == per_bit_canonical_mask(1 << k, n), (n, k)
                for idx in c.indices:
                    if n % 2:
                        assert 2 * idx <= n
                    else:
                        assert idx < n

    def test_matches_per_bit_rule_on_random_masks(self):
        rng = random.Random(11)
        for _ in range(2000):
            n = rng.randrange(1, 200)
            mask = rng.getrandbits(rng.randrange(1, 8 * n))
            assert GammaCombination(mask, n).mask == per_bit_canonical_mask(mask, n), (mask, n)

    def test_indices_match_per_bit_reference(self):
        rng = random.Random(12)
        for _ in range(500):
            mask = rng.getrandbits(rng.randrange(0, 300))
            expected = tuple(k for k in range(mask.bit_length()) if (mask >> k) & 1)
            assert GammaCombination(mask).indices == expected
        exps = sorted(rng.sample(range(200_000), 3000))
        assert GammaCombination.from_indices(exps).indices == tuple(exps)

    def test_huge_index(self):
        # k = 10^7 wraps to 4 + (10^7 mod 4) = 4 on n = 8, without a per-bit walk
        assert GammaCombination.parse("g20000000", 8) == gamma_term(4, 8)
        assert GammaCombination.parse("g20000000", 9).is_zero

    def test_huge_index_builds_no_huge_mask(self):
        # 1 << 10^10 would take 1.25 GB: each index moves to its canonical
        # position first; 10^10 mod 30000 = 10000
        for n, canonical in ((8, [0, 4]), (9, [0]), (60000, [0, 40000])):
            c = GammaCombination.from_indices([0, 10**10], n)
            assert c == GammaCombination.from_indices(canonical, n), n
        # duplicates still cancel after the move
        assert GammaCombination.from_indices([4, 10**10], 8).is_zero
        assert GammaCombination.from_indices([10**10, 10**10 + 4], 8).is_zero

    def test_canonicalization_preserves_function(self):
        for n in range(1, 9):
            for k in range(2 * n + 2):
                c = GammaCombination.from_indices([k], n)
                for v in range(1 << n):
                    x = BitVector(n, v)
                    assert evaluate(c, x) == eval_gamma(k, x), (n, k, v)


class TestParse:
    def test_forms(self):
        assert GammaCombination.parse("g0+g2+g4") == kappa()
        assert GammaCombination.parse("0,1,2") == kappa()
        assert GammaCombination.parse("111") == kappa()
        assert GammaCombination.parse("3") == gamma_term(3)
        assert GammaCombination.parse("G0+G2", 9) == chi(9)

    def test_errors(self):
        for bad in ("", "g1", "g2+x", "2.5"):
            with pytest.raises(ValueError):
                GammaCombination.parse(bad)

    def test_strings(self):
        k = kappa(8)
        assert k.gamma_string() == "g0+g2+g4"
        assert k.poly_string() == "111"
        assert GammaCombination(0).gamma_string() == "0"


class TestEvaluate:
    def test_identity(self):
        for v in range(16):
            x = BitVector(4, v)
            assert evaluate(identity(4), x) == x

    def test_chi_small(self):
        assert evaluate(chi(3), BitVector.from_bits([1, 0, 0])) == BitVector.from_bits([1, 1, 0])

    def test_kappa_coordinate_rule_n8(self):
        f = kappa(8)
        for v in range(256):
            x = BitVector(8, v)
            expect = BitVector.from_bits(
                [
                    x[i]
                    ^ ((1 ^ x[i + 1]) & x[i + 2])
                    ^ ((1 ^ x[i + 1]) & (1 ^ x[i + 3]) & x[i + 4])
                    for i in range(8)
                ]
            )
            assert evaluate(f, x) == expect, v

    def test_additivity_exhaustive_small(self):
        for n in (2, 3, 4, 5):
            for fm in span_masks(n):
                for gm in span_masks(n):
                    f, g = GammaCombination(fm, n), GammaCombination(gm, n)
                    for v in range(1 << n):
                        x = BitVector(n, v)
                        assert evaluate(f + g, x) == evaluate(f, x) + evaluate(g, x)

    def test_formal_evaluates_on_any_dimension(self):
        f = GammaCombination.from_indices([0, 3, 12])
        for n in (5, 8, 11):
            for v in (0, 1, (1 << n) - 1):
                x = BitVector(n, v)
                assert evaluate(f, x) == evaluate(f.at(n), x)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(chi(5), BitVector(6, 0))


class TestPhiPsi:
    def test_examples(self):
        assert phi(chi(12)) == BinPoly.parse("11")
        assert phi(identity(9)) == BinPoly(1)
        assert phi(GammaCombination.from_indices([0, 1, 3], 22)) == BinPoly.parse("1101")
        assert psi(reduce(BinPoly(1), Modulus(6)), Modulus(6)) == identity(6)
        assert psi(reduce(BinPoly.parse("111"), Modulus(9)), Modulus(9)) == kappa(9)
        assert psi(reduce(BinPoly.from_exponents([0, 3, 12]), Modulus(26)), Modulus(26)).indices == (0, 3, 12)

    def test_mutually_inverse_exhaustive(self):
        for n in range(1, 11):
            for mask in span_masks(n):
                f = GammaCombination(mask, n)
                assert psi(phi(f), Modulus(n)) == f
        for n in (4, 7):
            mod = Modulus(n)
            for v in range(1 << mod.degree):
                el = reduce(BinPoly(v), mod)
                assert phi(psi(el, mod)) == el

    def test_formal_needs_binding(self):
        with pytest.raises(ValueError):
            phi(kappa())


class TestCompose:
    def test_identity_neutral(self):
        f = GammaCombination.from_indices([0, 2, 3], 8)
        assert compose(f, identity(8)) == f
        assert compose(identity(8), f) == f

    def test_chi_squared_odd(self):
        for n in (9, 11, 13):
            assert compose(chi(n), chi(n)).indices == (0, 2)

    def test_left_gamma_expansion(self):
        inner = GammaCombination.from_indices([0, 2, 3], 8)  # g0+g4+g6
        assert compose(gamma_term(1, 8), inner).indices == (1, 3, 4)  # g2+g6+g8

    def test_inner_outside_monoid_rejected(self):
        with pytest.raises(ValueError):
            compose(chi(8), gamma_term(1, 8))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose(chi(8), chi(10))
        with pytest.raises(ValueError):
            compose(chi(8), chi())

    def test_matches_oracle_exhaustive_small(self):
        for n in range(2, 7):
            tbls = {m: tables.function_table(m, n) for m in span_masks(n)}
            for fm in span_masks(n):
                for gm in monoid_masks(n):
                    f, g = GammaCombination(fm, n), GammaCombination(gm, n)
                    c = compose(f, g)
                    assert np.array_equal(tbls[c.mask], tbls[fm][tbls[gm]]), (n, fm, gm)

    def test_homomorphism_exhaustive_small(self):
        for n in range(2, 9):
            for fm in monoid_masks(n):
                for gm in monoid_masks(n):
                    f, g = GammaCombination(fm, n), GammaCombination(gm, n)
                    assert phi(compose(f, g)) == ring_mul(phi(f), phi(g), Modulus(n))

    def test_commutative_on_monoid(self):
        for n in range(1, 7):
            for fm in monoid_masks(n):
                for gm in monoid_masks(n):
                    f, g = GammaCombination(fm, n), GammaCombination(gm, n)
                    assert compose(f, g) == compose(g, f)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(7, 16), st.randoms(use_true_random=False))
    def test_matches_oracle_randomized(self, n, rnd):
        dim = n if n % 2 == 0 else (n + 1) // 2
        fm = rnd.randrange(1 << dim) | 1
        gm = rnd.randrange(1 << dim) | 1
        f, g = GammaCombination(fm, n), GammaCombination(gm, n)
        c = compose(f, g)
        assert np.array_equal(tables.function_table(c.mask, n), compose_oracle(f, g))
        assert compose(g, f) == c  # commutative on the monoid

    def test_formal_composition_binds_consistently(self):
        f = GammaCombination.from_indices([0, 2])
        g = GammaCombination.from_indices([0, 1, 5])
        formal = compose(f, g)
        for n in (4, 6, 9, 12):
            assert formal.at(n) == compose(f.at(n), g.at(n)), n

    def test_oracle_identity_table(self):
        assert np.array_equal(compose_oracle(identity(6), identity(6)), tables.domain(6))

    def test_oracle_of_kappa_and_its_inverse(self):
        from shiftperm.ring import ring_inverse

        k = kappa(8)
        kinv = psi(ring_inverse(phi(k), Modulus(8)), Modulus(8))
        assert np.array_equal(compose_oracle(k, kinv), tables.domain(8))
        assert np.array_equal(compose_oracle(kinv, k), tables.domain(8))

    def test_oracle_bound(self):
        with pytest.raises(BoundExceededError):
            compose_oracle(chi(17), chi(17))


class TestPointwiseMaps:
    """The map-level claims (composition is the ring product, the inverse map the ring
    inverse) checked past the table limits by oracles.pointwise_value."""

    def test_evaluator_matches_eval_gamma(self):
        # every term k <= 2n (wrapping and vanishing included) and random sums, every input
        rng = random.Random(27)
        for n in range(1, 11):
            masks = [1 << k for k in range(2 * n + 1)] + [rng.getrandbits(2 * n + 1) for _ in range(4)]
            for mask in masks:
                ks = [k for k in range(mask.bit_length()) if mask >> k & 1]
                for v in range(1 << n):
                    x = BitVector(n, v)
                    expect = 0
                    for k in ks:
                        expect ^= eval_gamma(k, x).bits
                    assert pointwise_value(mask, n, v) == expect, (n, mask, v)

    def test_evaluator_calls_nothing_of_the_package(self):
        assert not inspect.getclosurevars(pointwise_value).globals

    @pytest.mark.parametrize("n", [125 << s for s in range(6)] + [16385, 16388])
    def test_round_trips_past_the_toom_threshold(self, n):
        # n = 125 * 2^s, s = 0..5, takes ring_inverse through each branch of its recursion: the
        # odd dimensions, the join at n = 2m and the halving at 4 | n.  At 16385 and 16388,
        # ceil(n/2) >= 2t + 1: ring_mul's product mod X^ceil(n/2) and the last Newton step's
        # products, on ceil(ceil(n/2)/2) bits, both take Toom-3.  Dense random points are cheap,
        # as their keep dies within a few positions.  The third point keeps it alive: on odd n
        # one of weight one, whose image reads out the whole mask; on even n one on the even
        # positions, where the map is linear in every coefficient
        assert n <= 4000 or (n + 1) // 2 >= 2 * poly2._TOOM_MIN_BITS + 1
        rng = random.Random(n)
        degree = Modulus(n).degree

        def unit(draw):
            while not is_permutation(f := GammaCombination(draw() | 1, n))[0]:
                pass
            return f

        operands = [kappa(n), chi(n), unit(lambda: sum(1 << k for k in rng.sample(range(degree), 5))),
                    unit(lambda: rng.getrandbits(degree))]
        points = [rng.getrandbits(n), rng.getrandbits(n),
                  1 << rng.randrange(n) if n % 2 else sum(rng.getrandbits(1) << i for i in range(0, n, 2))]
        for i, f in enumerate(operands):
            h = operands[(i + 1) % len(operands)]
            fh = compose(f, h)
            g = inverse(f) if is_permutation(f)[0] else None  # chi is no permutation on even n
            for x in points:
                hx = pointwise_value(h.mask, n, x)
                assert pointwise_value(fh.mask, n, x) == pointwise_value(f.mask, n, hx), (n, i)
                if g is not None:
                    assert pointwise_value(g.mask, n, pointwise_value(f.mask, n, x)) == x, (n, i)
                    assert pointwise_value(f.mask, n, pointwise_value(g.mask, n, x)) == x, (n, i)


class TestLinearStructure:
    def test_gamma_tables_linearly_independent(self):
        def rank_f2(cols):
            basis = {}
            r = 0
            for c in cols:
                while c:
                    lead = c.bit_length() - 1
                    if lead in basis:
                        c ^= basis[lead]
                    else:
                        basis[lead] = c
                        r += 1
                        break
            return r

        for n in range(2, 11):
            dim = n if n % 2 == 0 else (n + 1) // 2
            cols = []
            for k in range(dim):
                t = tables.function_table(1 << k, n)
                v = 0
                for x, out in enumerate(t):
                    v |= int(out) << (n * x)
                cols.append(v)
            assert rank_f2(cols) == dim, n


class TestTablesAgainstScalar:
    def test_gamma_table_matches_eval_gamma(self):
        for n in range(1, 11):
            for k in (0, 1, 2, n // 2, n, 2 * n - 1):
                tbl = tables.function_table(1 << k, n)
                for v in range(1 << n):
                    assert int(tbl[v]) == eval_gamma(k, BitVector(n, v)).bits, (n, k, v)

    def test_function_table_matches_evaluate(self):
        rng = random.Random(21)
        for n in range(2, 13):
            dim = n if n % 2 == 0 else (n + 1) // 2
            inputs = range(1 << n) if n <= 9 else rng.sample(range(1 << n), 256)
            for _ in range(6):
                f = GammaCombination(rng.randrange(1, 1 << dim), n)
                tbl = tables.function_table(f.mask, n)
                for v in inputs:
                    assert int(tbl[v]) == evaluate(f, BitVector(n, v)).bits, (n, f.mask, v)
