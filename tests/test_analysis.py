import random
import re
from math import prod

import numpy as np
import pytest

from shiftperm import analysis, poly2, tables
from shiftperm.analysis import (
    algebraic_degree,
    analyze,
    differential_uniformity,
    inv_membership,
    inverse,
    is_permutation,
    is_permutation_bruteforce,
    kappa_cofactor,
    kappa_flip_predicate,
    kappa_inverse_closed_form,
    perturb,
    realize_xi,
    xi,
    xi_upper_bound,
)
from shiftperm.bitstate import BitVector
from shiftperm.gammaspan import (
    GammaCombination, chi, compose, compose_oracle, evaluate, gamma_term, identity, kappa, phi,
)
from shiftperm.poly2 import BinPoly, ONE, ZERO
from shiftperm.ring import Modulus, NonUnitError, ring_inverse
from shiftperm.tables import BoundExceededError

from checks import (
    check_divisor_closure,
    check_kappa_landscape,
    check_pair_graph,
    check_p3k_identity,
    check_xi_membership,
    count_calls,
    run_bounded,
)
from oracles import local_rule, monoid_masks, span_masks, trial_factor, x_order

P = BinPoly.parse
TAU = GammaCombination.from_indices([0, 1, 3])  # g0+g2+g6, polynomial 1+X+X^3


class TestPermutationCriterion:
    def test_examples(self):
        assert is_permutation(chi(6)) == (False, P("11"))
        assert is_permutation(kappa(8)) == (True, ONE)
        ok, witness = is_permutation(kappa(12))
        assert not ok and witness == P("111")
        assert is_permutation(chi(5)) == (True, ONE)

    def test_oracle_examples(self):
        assert is_permutation_bruteforce(chi(5))
        assert not is_permutation_bruteforce(chi(6))
        assert not is_permutation_bruteforce(kappa(6))

    def test_outside_monoid_rejected(self):
        with pytest.raises(ValueError):
            is_permutation(gamma_term(1, 6))

    def test_criterion_matches_oracle_exhaustive(self):
        for n in range(4, 11):
            for mask in monoid_masks(n):
                f = GammaCombination(mask, n)
                assert is_permutation(f)[0] == is_permutation_bruteforce(f), (n, mask)

    def test_criterion_matches_oracle_randomized(self):
        rng = random.Random(3)
        for n in range(11, 17):
            dim = n if n % 2 == 0 else (n + 1) // 2
            for _ in range(8):
                f = GammaCombination(rng.randrange(1 << dim) | 1, n)
                assert is_permutation(f)[0] == is_permutation_bruteforce(f), (n, f.mask)

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            is_permutation_bruteforce(chi(21))

    def test_matches_the_pair_graph(self):
        # masks of bit length <= 3 (at most 256 pair states) at every n <= 130
        # and at a few n near 10^6, far past the tables; n <= 10 also by scan
        assert check_pair_graph(large=(999424, 999999, 1000000, 1000001)) == 7 * 134

    def test_power_of_two_rule(self):
        # on n = 4, 8: permutation iff odd number of terms, against brute force
        for n in (4, 8):
            for mask in monoid_masks(n):
                f = GammaCombination(mask, n)
                odd_weight = bin(f.mask).count("1") % 2 == 1
                assert is_permutation_bruteforce(f) == odd_weight, (n, mask)
        # n = 16 via the criterion only
        for mask in monoid_masks(16):
            f = GammaCombination(mask, 16)
            assert is_permutation(f)[0] == (bin(f.mask).count("1") % 2 == 1), mask

    def test_reduction_to_twice_odd_part(self):
        # for n = 2^s m with s >= 2, permutation on F_2^n iff on F_2^(2m)
        rng = random.Random(9)
        for n in range(4, 49, 4):
            m = n
            while m % 2 == 0:
                m //= 2
            for _ in range(25):
                f = GammaCombination(rng.randrange(1 << 12) | 1)
                assert is_permutation(f, n)[0] == is_permutation(f, 2 * m)[0], (n, f.mask)

    def test_divisor_closure(self):
        assert check_divisor_closure(max_n=12) > 0


class TestInverse:
    def test_examples(self):
        assert inverse(kappa(5)) == chi(5)
        assert inverse(identity(9)) == identity(9)
        assert inverse(kappa(8)).poly_string() == "1101011"

    def test_non_permutation_witness(self):
        with pytest.raises(NonUnitError) as info:
            inverse(kappa(12))
        assert info.value.witness == P("111")

    def test_witness_is_the_permutation_witness(self):
        # one witness, gcd(F, X^m + 1), also where 4 divides n and X^m + 1 is
        # a proper divisor of X^(n/2) + 1
        rng = random.Random(26)
        cases = [GammaCombination(mask, n) for n in range(2, 13, 2) for mask in monoid_masks(n)]
        cases += [GammaCombination(rng.getrandbits(n) | 1, n) for n in (1000, 60000) for _ in range(30)]
        for f in cases:
            ok, witness = is_permutation(f)
            if not ok:
                with pytest.raises(NonUnitError) as info:
                    inverse(f)
                assert info.value.witness == witness, (f.n, f.mask)

    def test_roundtrip_exhaustive(self):
        for n in range(1, 11):
            for mask in monoid_masks(n):
                f = GammaCombination(mask, n)
                if is_permutation(f)[0]:
                    assert compose(f, inverse(f)) == identity(n), (n, mask)


class TestXi:
    def test_examples(self):
        assert xi(chi()) == frozenset({2})
        assert xi(kappa()) == frozenset({6})
        assert xi(TAU) == frozenset({14})
        assert xi(identity()) == frozenset()

    def test_accepts_polynomials_and_bound_combinations(self):
        assert xi(P("1101")) == frozenset({14})
        assert xi(kappa(8)) == frozenset({6})

    def test_elements_are_twice_odd(self):
        rng = random.Random(1)
        for _ in range(30):
            f = GammaCombination(rng.randrange(1 << 7) | 1)
            for t in xi(f):
                assert t % 2 == 0 and (t // 2) % 2 == 1, (f.mask, t)

    def test_factors_once_per_call(self, monkeypatch):
        # the oracle is trial division and the order of X by stepping; f is factored once,
        # 2^d - 1 once per factor degree d (the third polynomial has two factors of degree 4)
        rng = random.Random(9)
        polys = [P("11") * P("111") ** 2 * P("1101"), P("10011") ** 3, P("10011") ** 3 * P("11001")] + [
            BinPoly(rng.randrange(1 << 12) | 1) for _ in range(20)
        ]
        calls = count_calls(monkeypatch, poly2, "factor", "factor_int")
        for F in polys:
            factors = [g for g, _ in trial_factor(F.bits)]
            want = frozenset(2 * x_order(g, (1 << g.bit_length() - 1) - 1) for g in factors)
            for log in calls.values():
                log.clear()
            assert xi(F) == want, F
            assert len(calls["factor"]) == 1, F
            assert calls["factor_int"] == [((1 << d) - 1,) for d in sorted({g.bit_length() - 1 for g in factors})], F

    def test_upper_bound_examples(self, monkeypatch):
        # the divisors of 2^d - 1 over the factor degrees d, and no order: the last operand
        # has two factors of degree 4, and 1 + X + X^300 has degrees 54, 116 and 130
        calls = count_calls(monkeypatch, poly2, "_order_mod")
        assert xi_upper_bound(TAU) == frozenset({2, 14})
        assert xi_upper_bound(chi()) == frozenset({2})
        assert xi_upper_bound(kappa()) == frozenset({2, 6})
        assert xi_upper_bound(P("10011") ** 3 * P("11001") * P("1101")) == frozenset({2, 6, 10, 30, 14})
        bound = xi_upper_bound(P("0,1,300"))
        assert calls["_order_mod"] == []
        assert xi(P("0,1,300")) <= bound and calls["_order_mod"]

    def test_upper_bound_divisor_cap(self):
        # the count is refused before any divisor is listed: 2^180 - 1, the first to pass
        # the cap alone, has 6291456 divisors; 2^204 - 1 and 2^216 - 1 have 786432 and
        # 655360, each within the cap, together past it
        cases = [([180], [[0, 3, 180]], 6291456), ([204, 216], [[0, 2, 4, 5, 204], [0, 1, 3, 7, 216]], 1441792)]
        for degrees, factors, count in cases:
            f = prod((BinPoly.from_exponents(e) for e in factors), start=ONE)
            message = f"xi_upper_bound: {count} divisors of 2^d - 1, d in {degrees}, exceed 1048576"
            with pytest.raises(BoundExceededError, match=f"^{re.escape(message)}$"):
                xi_upper_bound(f)

    def test_contained_in_upper_bound(self):
        rng = random.Random(2)
        for _ in range(40):
            f = GammaCombination(rng.randrange(1 << 6) | 1)
            assert xi(f) <= xi_upper_bound(f), f.mask

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            xi(GammaCombination(0))
        with pytest.raises(ValueError):
            xi(gamma_term(2))

    def test_membership_examples(self):
        assert inv_membership(TAU, 22)
        assert not inv_membership(kappa(), 6)
        assert inv_membership(TAU, 1)

    def test_membership_matches_criterion(self):
        assert check_xi_membership(max_deg=5, max_n=24, samples=40) > 0

    def test_tau_window(self):
        assert is_permutation(TAU, 22)[0]
        assert not is_permutation_bruteforce(TAU, 14)


class TestRealizeXi:
    def test_examples(self):
        assert realize_xi({2}) == chi()
        assert realize_xi({6}) == kappa()
        f = realize_xi({6, 14})
        assert f.poly() == P("111") * P("1101")
        assert xi(f) == frozenset({6, 14})

    def test_empty_target(self):
        assert realize_xi(set()) == identity()

    def test_roundtrip(self):
        for targets in ({2}, {6}, {14}, {2, 6}, {6, 14, 62}):
            assert xi(realize_xi(targets)) == frozenset(targets), targets

    def test_malformed_targets(self):
        for bad in ({4}, {3}, {0}, {12}):
            with pytest.raises(ValueError):
                realize_xi(bad)


class TestPerturb:
    def test_tau_example(self):
        moved = perturb(TAU, ONE, 11)
        assert moved.indices == (0, 3, 12)
        assert is_permutation(moved, 44)[0]

    def test_zero_multiplier_is_identity(self):
        assert perturb(kappa(), ZERO, 5) == kappa()

    def test_kappa_example(self):
        moved = perturb(kappa(), ONE, 5)
        assert moved.poly() == BinPoly.from_exponents([0, 2, 6])
        assert is_permutation(moved, 10)[0]

    def test_preserves_permutation_on_matching_dimensions(self):
        rng = random.Random(4)
        for _ in range(20):
            f = GammaCombination(rng.randrange(1 << 5) | 1)
            m = rng.choice([3, 5, 7, 9, 11])
            mult = BinPoly(rng.randrange(1 << 4))
            moved = perturb(f, mult, m)
            for s in (1, 2):
                n = (1 << s) * m
                if is_permutation(f, n)[0]:
                    assert is_permutation(moved, n)[0], (f.mask, m, n)

    def test_even_m_rejected(self):
        with pytest.raises(ValueError):
            perturb(kappa(), ONE, 4)


class TestDegrees:
    def test_examples(self):
        assert algebraic_degree(gamma_term(1, 8)) == 2
        assert algebraic_degree(kappa(8)) == 3
        assert algebraic_degree(inverse(kappa(8))) == 5
        assert algebraic_degree(identity(5)) == 1

    def test_gamma_degree_law_even(self):
        for n in (2, 4, 6, 8, 10, 12):
            for k in range(n):
                expect = k + 1 if k <= n // 2 else n // 2 + 1
                assert algebraic_degree(gamma_term(k, n)) == expect, (n, k)

    def test_gamma_degree_law_odd(self):
        for n in (5, 7, 9, 11):
            for k in range((n + 1) // 2):
                assert algebraic_degree(gamma_term(k, n)) == k + 1, (n, k)

    def test_kappa_inverse_degree_table(self):
        cases = {5: 2, 7: 4, 8: 5, 10: 6, 11: 5, 13: 7, 14: 8, 16: 9}
        for n, expect in cases.items():
            assert algebraic_degree(kappa(n)) == 3, n
            assert algebraic_degree(inverse(kappa(n))) == expect, n

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError):
            algebraic_degree(GammaCombination(0, 6))

    def test_bound(self):
        # the closed form has no scan limit
        assert algebraic_degree(kappa(17)) == 3
        assert algebraic_degree(inverse(kappa(100001))) == 50000

    def test_builds_no_table(self, monkeypatch):
        def refuse(mask, n):
            raise AssertionError(f"table built for mask {mask} at n={n}")

        monkeypatch.setattr(tables, "function_table", refuse)
        assert algebraic_degree(kappa(8)) == 3
        assert algebraic_degree(inverse(kappa(16))) == 9

    def test_matches_anf_oracle_exhaustive(self):
        for n in range(1, 13):
            for mask in span_masks(n)[1:]:
                f = GammaCombination(mask, n)
                assert f.mask == mask, (n, mask)
                assert algebraic_degree(f) == _anf_degree(tables.function_table(mask, n), n), (n, mask)

    def test_matches_anf_oracle_randomized(self):
        rng = random.Random(14)
        for n in range(13, 17):
            cases = [GammaCombination(rng.choice(span_masks(n)[1:]), n) for _ in range(10)]
            if n % 6:
                cases.append(inverse(kappa(n)))
            for f in cases:
                assert algebraic_degree(f) == _anf_degree(tables.function_table(f.mask, n), n), (n, f.mask)


class TestIsBijective:
    def test_matches_set_oracle(self):
        rng = random.Random(12)
        for n in range(1, 13):
            size = 1 << n
            perm = rng.sample(range(size), size)
            i, j = rng.sample(range(size), 2)
            clash = list(perm)
            clash[i] = clash[j]  # same size, one value twice and one missing
            for values in (perm, clash, [size - 1] * size):
                table = np.array(values, dtype=np.uint64)
                assert tables.is_bijective(table) == (len(set(values)) == size), n


def _moebius(table, n):
    """Moebius (ANF) transform of a packed table, all coordinates at once."""
    t = table.copy()
    for i in range(n):
        s = 1 << i
        t = t.reshape(-1, 2 * s)
        t[:, s:] ^= t[:, :s]
        t = t.reshape(-1)
    return t


def _anf_degree(table, n):
    """Degree of coordinate 0: the largest monomial in its ANF support."""
    support = np.flatnonzero(_moebius(table, n) & np.uint64(1))
    return max(int(m).bit_count() for m in support)


def _ddt_max_scalar(table):
    size = len(table)
    best = 0
    for a in range(1, size):
        counts = {}
        for x in range(size):
            b = table[x ^ a] ^ table[x]
            counts[b] = counts.get(b, 0) + 1
        best = max(best, max(counts.values()))
    return best


class TestDifferentialUniformity:
    def test_chi_known_value(self):
        for n in (5, 7, 9):
            assert differential_uniformity(chi(n)) == 1 << (n - 2), n

    def test_kappa_small(self):
        # entries of a difference table pair up (x with x+a), so they are even;
        # at n=5 the maximum is 8, matching chi since kappa is its inverse there
        assert differential_uniformity(kappa(5)) == 8
        for n in (6, 7, 8, 9):
            assert differential_uniformity(kappa(n)) == (1 << (n - 2)) - (1 << (n - 5)), n

    def test_linear_map_attains_full_count(self):
        assert differential_uniformity(identity(6)) == 64

    def test_matches_scalar_oracle(self):
        for f, n in ((chi(5), 5), (kappa(5), 5), (TAU.at(6), 6)):
            scal = [evaluate(f, BitVector(n, v)).bits for v in range(1 << n)]
            assert differential_uniformity(f) == _ddt_max_scalar(scal), (f.mask, n)

    def test_entries_always_even(self):
        # solutions pair up as {x, x+a}, so no odd count can ever appear
        rng = random.Random(6)
        for _ in range(10):
            n = rng.randrange(4, 8)
            dim = n if n % 2 == 0 else (n + 1) // 2
            f = GammaCombination(rng.randrange(1 << dim), n)
            scal = [evaluate(f, BitVector(n, v)).bits for v in range(1 << n)]
            for a in range(1, 1 << n):
                counts = {}
                for x in range(1 << n):
                    b = scal[x ^ a] ^ scal[x]
                    counts[b] = counts.get(b, 0) + 1
                assert all(c % 2 == 0 for c in counts.values()), (n, f.mask, a)

    def test_shift_class_scan_agrees(self):
        # one input difference per cyclic-shift class must give the full scan's maximum
        for f, n in ((kappa(8), 8), (chi(9), 9), (TAU.at(10), 10)):
            scal = [evaluate(f, BitVector(n, v)).bits for v in range(1 << n)]
            assert differential_uniformity(f) == _ddt_max_scalar(scal), (f.mask, n)

    def test_matches_full_numpy_scan(self):
        # every nonzero difference over the whole domain: no shift classes, no pairing
        def full_scan(table, n):
            t = table.astype(np.int64)
            ids = np.arange(1 << n)
            return max(int(np.bincount(t ^ t[ids ^ a]).max()) for a in range(1, 1 << n))

        rng = random.Random(13)
        for n in range(1, 14):
            dim = n if n % 2 == 0 else (n + 1) // 2
            masks = {0, 1, 0b111 & ((1 << dim) - 1)} | {rng.randrange(1 << dim) for _ in range(2)}
            for mask in sorted(masks):
                f = GammaCombination(mask, n)
                table = tables.function_table(f.mask, n)
                assert differential_uniformity(f) == full_scan(table, n), (mask, n)
            # swapping 0 and 1...1 commutes with the shift, and only the last class
            # row, a = 1...1, reaches 2^n: the last batch must be scanned
            swap = tables.domain(n)
            swap[[0, -1]] = swap[[-1, 0]]
            assert tables.ddt_max(swap, n) == full_scan(swap, n) == 1 << n, n

    def test_batches_end_partial_at_12_and_13(self):
        # the oracle comparison above must cover several batches and a short last one
        for n in (12, 13):
            rows = tables.DDT_BATCH >> (n - 1)
            classes = tables.shift_class_representatives(n).size - 1
            assert classes > rows and classes % rows, n

    def test_class_representatives_odd(self):
        # the pairing of x with x ^ a needs every nonzero representative a to be odd
        for n in range(1, 17):
            assert (tables.shift_class_representatives(n)[1:] % 2 == 1).all(), n

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            differential_uniformity(kappa(15))
        with pytest.raises(BoundExceededError):
            differential_uniformity(kappa(9), limit=8)
        assert differential_uniformity(kappa(9), limit=9) == 112


def _row_one_max(f, n):
    """Largest entry of the difference table row of the single-bit difference a = 1."""
    t = tables.function_table(f.mask, n).astype(np.int64)
    return int(np.bincount(t ^ t[np.arange(1 << n) ^ 1]).max())


def _local_row_one_count(mask):
    """c_f: flipping x_0 changes the w = 2L - 1 coordinates whose windows hold
    it, L the bit length of mask, and they read 2w - 1 input bits; the largest
    number of those local inputs that give one output difference."""
    w = 2 * mask.bit_length() - 1
    rule = [local_rule(mask, v) for v in range(1 << w)]
    low = (1 << w) - 1
    counts = {}
    for x in range(1 << (2 * w - 1)):  # bit j is x_(j - w + 1)
        y = x ^ 1 << (w - 1)
        diff = sum((rule[x >> i & low] ^ rule[y >> i & low]) << i for i in range(w))
        counts[diff] = counts.get(diff, 0) + 1
    return max(counts.values())


class TestDifferenceRowOne:
    def test_attains_du_when_every_index_is_below_half(self):
        # canonical masks whose gamma(2k) all have k < n/2: every mask on odd n
        masks = [(mask, n) for n in range(1, 13) for mask in range(1, 1 << ((n + 1) // 2))]
        assert len(masks) == 240
        for mask, n in masks:
            f = GammaCombination(mask, n)
            assert _row_one_max(f, n) == differential_uniformity(f), (mask, n)

    def test_attains_du_on_random_masks_up_to_16(self):
        # three seeded masks with every index below n/2 at each n = 13..16, past DU_LIMIT
        rng = random.Random(13)
        for n in range(13, 17):
            for mask in (rng.randrange(1, 1 << ((n + 1) // 2)) for _ in range(3)):
                f = GammaCombination(mask, n)
                assert f.mask == mask and _row_one_max(f, n) == differential_uniformity(f, limit=16), (mask, n)

    def test_closed_form_from_the_local_count(self):
        # for n >= 2w - 1 the other n - 2w + 1 input bits are free, so the row
        # a = 1, and with it the DU, is c_f 2^(n - 2w + 1)
        for mask, c in ((0b11, 8), (0b111, 112), (0b101, 216), (0b1011, 1760)):  # chi, kappa, g0+g4, g0+g2+g6
            assert _local_row_one_count(mask) == c, mask
            w = 2 * mask.bit_length() - 1
            for n in range(2 * w - 1, 15):
                assert differential_uniformity(GammaCombination(mask, n)) == c << (n - 2 * w + 1), (mask, n)


class TestKappaClosedForm:
    def test_cofactor_identity(self):
        assert check_p3k_identity(max_k=32) == 32

    def test_table_rows(self):
        rows = {8: "1101011", 10: "110111011", 14: "1101101011011", 16: "110110111011011"}
        for n, coeffs in rows.items():
            assert kappa_inverse_closed_form(n).to_string() == coeffs, n

    def test_small_odd(self):
        assert kappa_inverse_closed_form(5) == P("11")

    def test_agrees_with_euclid_up_to_64(self):
        for n in range(4, 65):
            if n % 6 == 0:
                continue
            assert kappa_inverse_closed_form(n) == ring_inverse(phi(kappa(n)), Modulus(n)), n

    def test_palindrome_for_even_dimensions(self):
        for n in range(4, 65, 2):
            if n % 6 == 0:
                continue
            s = kappa_inverse_closed_form(n).to_string()
            assert s == s[::-1], n

    def test_rejected_dimensions(self):
        for n in (3, 2, 6, 12, 60):
            with pytest.raises(ValueError):
                kappa_inverse_closed_form(n)


class TestKappaLandscape:
    def test_patterns(self):
        x = BitVector.from_bits([0, 0, 1, 1, 0, 0, 0, 0])
        assert kappa_flip_predicate(x, 0) == 1  # window 011 after position 0
        y = BitVector.from_bits([0, 1, 0, 0, 0, 0, 0, 0])
        assert kappa_flip_predicate(y, 0) == 0  # x_{i+1} = 1 blocks every pattern

    def test_agrees_with_evaluation(self):
        assert check_kappa_landscape(dims=(5, 6, 7, 8, 9, 10)) > 0

    def test_errors(self):
        with pytest.raises(ValueError):
            kappa_flip_predicate(BitVector(4, 0), 0)
        with pytest.raises(IndexError):
            kappa_flip_predicate(BitVector(8, 0), 8)


class TestAnalyze:
    def test_kappa_report(self):
        report = analyze(kappa(8))
        d = report.to_dict()
        assert d["n"] == 8
        assert d["f"] == {"gamma": "g0+g2+g4", "poly": "111"}
        assert d["is_permutation"] is True
        assert d["gcd_witness"] == "1"
        assert d["inverse"] == {"gamma": "g0+g2+g6+g10+g12", "poly": "1101011"}
        assert d["xi"] == [6]
        assert d["degree"] == 3
        assert d["inverse_degree"] == 5
        assert d["differential_uniformity"] == 56

    def test_builds_one_table_per_map(self, monkeypatch):
        built = []
        real = tables.function_table

        def counting(mask, n):
            built.append(mask)
            return real(mask, n)

        monkeypatch.setattr(tables, "function_table", counting)
        report = analyze(kappa(8))
        assert report.algebraic_degree == 3 and report.differential_uniformity == 56
        assert built == [kappa(8).mask]
        built.clear()
        report = analyze(kappa(8), du_limit=7)
        assert report.inverse_degree == 5 and report.differential_uniformity is None
        assert built == []

    def test_non_permutation_report(self):
        report = analyze(chi(6))
        assert not report.is_permutation
        assert report.inverse is None and report.inverse_degree is None
        assert report.gcd_witness == P("11")

    def test_fields_above_limits_are_empty(self):
        report = analyze(kappa(20))
        assert report.algebraic_degree == 3
        assert report.differential_uniformity is None
        assert report.is_permutation and report.inverse is not None

    def test_raised_limit_is_passed_through(self):
        report = analyze(kappa(17))
        assert report.algebraic_degree == 3
        assert report.inverse_degree == (17 - 1) // 2
        assert report.differential_uniformity is None

    def test_one_euclid_per_report(self, monkeypatch):
        # the witness comes from the inversion's ext_gcd; no separate gcd runs
        calls = []

        def counting(name):
            real = getattr(poly2, name)

            def call(a, b):
                calls.append(name)
                return real(a, b)

            return call

        for name in ("gcd", "ext_gcd"):
            monkeypatch.setattr(poly2, name, counting(name))
        for f, ok in ((kappa(1000), True), (GammaCombination.parse("g0+g8+g10+g18", 1000), False)):
            calls.clear()
            assert analyze(f).is_permutation is ok
            assert calls == ["ext_gcd"], (f.mask, calls)

    def test_permutation_fields_match_the_criterion(self, monkeypatch):
        # xi of a random operand of degree near 1000 may exhaust the rho budget
        # and feeds none of these fields; poly2.gcd (is_permutation's Euclid)
        # must not run inside analyze
        rng = random.Random(27)
        cases = [GammaCombination(mask, n) for n in range(2, 13, 2) for mask in monoid_masks(n)]
        cases += [GammaCombination(rng.getrandbits(1000) | 1, 1000) for _ in range(30)]
        expected = []
        for f in cases:
            ok, witness = is_permutation(f)
            expected.append((ok, witness, inverse(f) if ok else None))
        monkeypatch.setattr(analysis, "xi", lambda f: frozenset())
        monkeypatch.setattr(poly2, "gcd", lambda a, b: pytest.fail("poly2.gcd ran inside analyze"))
        for f, want in zip(cases, expected):
            report = analyze(f, du_limit=0)
            assert (report.is_permutation, report.gcd_witness, report.inverse) == want, (f.n, f.mask)

    def test_report_invariants(self):
        rng = random.Random(8)
        for _ in range(12):
            n = rng.randrange(4, 13)
            dim = n if n % 2 == 0 else (n + 1) // 2
            report = analyze(GammaCombination(rng.randrange(1 << dim) | 1, n))
            assert (report.inverse is not None) == report.is_permutation
            assert all(t % 2 == 0 and (t // 2) % 2 == 1 for t in report.xi)


# Each guard that no other test reaches: call -> the exception it raises.  Without its guard each
# call returns, or raises another type; the last two then loop without end, so they run in a
# bounded child.  x_power(-1) and irreducible_polys(0) are left out as equivalent mutants: without
# their guards they still raise ValueError, from 1 << -1 and from is_irreducible(ONE).
GUARDS = {
    "algebraic_degree(kappa())": ValueError,
    "algebraic_degree(kappa(5), 6)": ValueError,
    "xi(5)": TypeError,
    "inv_membership(kappa(), 0)": ValueError,
    "perturb(gamma_term(1), ONE, 3)": ValueError,
    "kappa_cofactor(-1)": ValueError,
    "GammaCombination(-1)": ValueError,
    "kappa(5) + kappa(6)": ValueError,
    "compose_oracle(kappa(5), kappa(4))": ValueError,
    "compose_oracle(kappa(), kappa())": ValueError,
    "BinPoly(-1)": ValueError,
    "BinPoly(1) ** -1": ValueError,
    "poly2._mod_bits(5, 0)": ZeroDivisionError,
}
UNBOUNDED_WITHOUT_GUARD = ("BinPoly(1) ** -1", "poly2._mod_bits(5, 0)")


@pytest.mark.parametrize("call", GUARDS)
def test_guard_raises(call):
    error = GUARDS[call]
    if call in UNBOUNDED_WITHOUT_GUARD:
        code = ("from shiftperm import poly2\nfrom shiftperm.poly2 import BinPoly\n"
                f"try:\n    {call}\nexcept {error.__name__}:\n    print('raised')\n")
        proc = run_bounded(code, timeout=10)
        assert proc.stdout == "raised\n", proc.stderr
    else:
        with pytest.raises(error):
            eval(call)
