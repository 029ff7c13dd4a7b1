import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shiftperm import tables
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


def monoid_masks(n):
    """All coefficient masks of combinations containing gamma(0) on F_2^n."""
    dim = n if n % 2 == 0 else (n + 1) // 2
    return range(1, 1 << dim, 2)


def span_masks(n):
    dim = n if n % 2 == 0 else (n + 1) // 2
    return range(1 << dim)


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

    def test_huge_index(self):
        # k = 10^7 wraps to 4 + (10^7 mod 4) = 4 on n = 8, without a per-bit walk
        assert GammaCombination.parse("g20000000", 8) == gamma_term(4, 8)
        assert GammaCombination.parse("g20000000", 9).is_zero

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
        assert phi(chi(12)).rep == BinPoly.parse("11")
        assert phi(identity(9)).rep == BinPoly(1)
        assert phi(GammaCombination.from_indices([0, 1, 3], 22)).rep == BinPoly.parse("1101")
        assert psi(reduce(BinPoly(1), Modulus(6))) == identity(6)
        assert psi(reduce(BinPoly.parse("111"), Modulus(9))) == kappa(9)
        assert psi(reduce(BinPoly.from_exponents([0, 3, 12]), Modulus(26))).indices == (0, 3, 12)

    def test_mutually_inverse_exhaustive(self):
        for n in range(1, 11):
            for mask in span_masks(n):
                f = GammaCombination(mask, n)
                assert psi(phi(f)) == f
        for n in (4, 7):
            mod = Modulus(n)
            for v in range(1 << mod.degree):
                el = reduce(BinPoly(v), mod)
                assert phi(psi(el)) == el

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
                    assert phi(compose(f, g)) == ring_mul(phi(f), phi(g))

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
        kinv = psi(ring_inverse(phi(k)))
        assert np.array_equal(compose_oracle(k, kinv), tables.domain(8))
        assert np.array_equal(compose_oracle(kinv, k), tables.domain(8))

    def test_oracle_bound(self):
        with pytest.raises(BoundExceededError):
            compose_oracle(chi(17), chi(17))


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
                t = tables.gamma_table(k, n)
                v = 0
                for x, out in enumerate(t):
                    v |= int(out) << (n * x)
                cols.append(v)
            assert rank_f2(cols) == dim, n


class TestTablesAgainstScalar:
    def test_gamma_table_matches_eval_gamma(self):
        for n in (1, 2, 5, 6, 9, 12):
            for k in (0, 1, 2, n // 2, n, 2 * n - 1):
                tbl = tables.gamma_table(k, n)
                for v in range(min(1 << n, 64)):
                    assert int(tbl[v]) == eval_gamma(k, BitVector(n, v)).bits, (n, k, v)

    def test_function_table_matches_evaluate(self):
        f = GammaCombination.from_indices([0, 1, 4])
        for n in (6, 9):
            tbl = tables.function_table(f.mask, n)
            for v in range(1 << n):
                assert int(tbl[v]) == evaluate(f, BitVector(n, v)).bits
