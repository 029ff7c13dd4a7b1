import random

import pytest

from shiftperm import tables
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
from shiftperm.gammaspan import GammaCombination, chi, compose, evaluate, gamma_term, identity, kappa, phi
from shiftperm.poly2 import BinPoly, ONE, ZERO
from shiftperm.ring import NonUnitError, ring_inverse
from shiftperm.tables import BoundExceededError

from checks import (
    check_divisor_closure,
    check_kappa_landscape,
    check_p3k_identity,
    check_xi_membership,
)

P = BinPoly.parse
TAU = GammaCombination.from_indices([0, 1, 3])  # g0+g2+g6, polynomial 1+X+X^3


def monoid_masks(n):
    dim = n if n % 2 == 0 else (n + 1) // 2
    return range(1, 1 << dim, 2)


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

    def test_upper_bound_examples(self):
        assert xi_upper_bound(TAU) == frozenset({2, 14})
        assert xi_upper_bound(chi()) == frozenset({2})
        assert xi_upper_bound(kappa()) == frozenset({2, 6})

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
        with pytest.raises(BoundExceededError):
            algebraic_degree(kappa(17))


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

    def test_bound(self):
        with pytest.raises(BoundExceededError):
            differential_uniformity(kappa(15))
        with pytest.raises(BoundExceededError):
            differential_uniformity(kappa(9), limit=8)
        assert differential_uniformity(kappa(9), limit=9) == 112


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
            assert kappa_inverse_closed_form(n) == ring_inverse(phi(kappa(n))).rep, n

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
        assert built == [kappa(8).mask, report.inverse.mask]

    def test_non_permutation_report(self):
        report = analyze(chi(6))
        assert not report.is_permutation
        assert report.inverse is None and report.inverse_degree is None
        assert report.gcd_witness == P("11")

    def test_fields_above_limits_are_empty(self):
        report = analyze(kappa(20))
        assert report.algebraic_degree is None
        assert report.differential_uniformity is None
        assert report.is_permutation and report.inverse is not None

    def test_raised_limit_is_passed_through(self):
        report = analyze(kappa(17), anf_limit=17)
        assert report.algebraic_degree == 3
        assert report.inverse_degree == (17 - 1) // 2
        assert report.differential_uniformity is None

    def test_report_invariants(self):
        rng = random.Random(8)
        for _ in range(12):
            n = rng.randrange(4, 13)
            dim = n if n % 2 == 0 else (n + 1) // 2
            report = analyze(GammaCombination(rng.randrange(1 << dim) | 1, n))
            assert (report.inverse is not None) == report.is_permutation
            assert all(t % 2 == 0 and (t // 2) % 2 == 1 for t in report.xi)
