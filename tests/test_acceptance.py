"""End-to-end acceptance checks, one test and one printed line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines; each
shows the measured runtime next to the verdict.
"""

import time
from contextlib import contextmanager

import numpy as np

from shiftperm import tables
from shiftperm.analysis import (
    algebraic_degree,
    differential_uniformity,
    inverse,
    is_permutation,
    is_permutation_bruteforce,
    kappa_inverse_closed_form,
    xi,
)
from shiftperm.gammaspan import GammaCombination, chi, compose, gamma_term, kappa, phi
from shiftperm.ring import Modulus, ring_inverse, ring_mul, unit_group_order

from checks import (
    check_divisor_closure,
    check_kappa_landscape,
    check_p3k_identity,
    check_shift_invariance,
    check_xi_membership,
)
from oracles import monoid_masks, span_masks

TAU = GammaCombination.from_indices([0, 1, 3])
TABLE1 = {8: "1101011", 10: "110111011", 14: "1101101011011", 16: "110110111011011"}


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>2} {label}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    print(f"ACCEPTANCE {number:>2} {label}: PASS ({time.perf_counter() - start:.2f}s)")


def test_criterion_1_table1_reproduction():
    with criterion(1, "table1 via closed form and Euclid"):
        for n, coeffs in TABLE1.items():
            assert kappa_inverse_closed_form(n).to_string() == coeffs, n
            assert ring_inverse(phi(kappa(n)), Modulus(n)).to_string() == coeffs, n


def test_criterion_2_kappa_permutation_window():
    with criterion(2, "kappa bijective on 4..16 iff 6 does not divide n"):
        for n in range(4, 17):
            brute = is_permutation_bruteforce(kappa(n))
            assert brute == (n % 6 != 0), n
            assert brute == is_permutation(kappa(n))[0], n


def test_criterion_3_chi_parity_law():
    with criterion(3, "chi bijective on 3..16 iff n odd; xi(chi) = {2}"):
        for n in range(3, 17):
            assert is_permutation_bruteforce(chi(n)) == (n % 2 == 1), n
        assert xi(chi()) == frozenset({2})


def test_criterion_4_xi_values():
    with criterion(4, "xi(kappa) = {6}, xi(tau) = {14}, tau window"):
        assert xi(kappa()) == frozenset({6})
        assert xi(TAU) == frozenset({14})
        assert is_permutation(TAU, 22)[0]
        assert not is_permutation_bruteforce(TAU, 14)


def test_criterion_5_isomorphism_suite():
    with criterion(5, "compose mirrors ring product, exhaustive n in 4..8"):
        for n in range(4, 9):
            tbls = {m: tables.function_table(m, n) for m in span_masks(n)}
            residues = {m: phi(GammaCombination(m, n)) for m in span_masks(n)}
            for fm in monoid_masks(n):
                for gm in monoid_masks(n):
                    c = compose(GammaCombination(fm, n), GammaCombination(gm, n))
                    assert phi(c) == ring_mul(residues[fm], residues[gm], Modulus(n)), (n, fm, gm)
                    assert np.array_equal(tbls[c.mask], tbls[fm][tbls[gm]]), (n, fm, gm)


def test_criterion_6_unit_count():
    with criterion(6, "bijections counted by brute force match the unit group order"):
        for n in range(4, 11):
            count = sum(
                1
                for m in monoid_masks(n)
                if tables.is_bijective(tables.function_table(m, n))
            )
            assert count == unit_group_order(Modulus(n)), n


def test_criterion_7_power_of_two_rule():
    with criterion(7, "on n = 8: permutation iff odd coefficient weight"):
        checked = 0
        for m in monoid_masks(8):
            f = GammaCombination(m, 8)
            assert is_permutation_bruteforce(f) == (bin(m).count("1") % 2 == 1), m
            checked += 1
        assert checked == 128


def test_criterion_8_degree_laws():
    with criterion(8, "ANF degrees of gamma terms, kappa and its inverses"):
        for n in (6, 8, 10, 12):
            for k in range(n):
                expect = k + 1 if k <= n // 2 else n // 2 + 1
                assert algebraic_degree(gamma_term(k, n)) == expect, (n, k)
        inverse_degrees = {5: 2, 7: 4, 8: 5, 10: 6, 11: 5, 13: 7, 14: 8, 16: 9}
        for n, expect in inverse_degrees.items():
            assert algebraic_degree(kappa(n)) == 3, n
            assert algebraic_degree(inverse(kappa(n))) == expect, n


def test_criterion_9_differential_uniformity():
    with criterion(9, "DU(kappa) = 2^(n-2) - 2^(n-5) on 5..12; DU(chi) = 2^(n-2)"):
        for n in (5, 7, 9, 11):
            assert differential_uniformity(chi(n)) == 1 << (n - 2), n
        mismatches = []
        for n in range(5, 13):
            stated = (1 << (n - 2)) - (1 << (n - 5))
            actual = differential_uniformity(kappa(n))
            if actual != stated:
                mismatches.append((n, stated, actual))
        assert not mismatches, (
            f"stated DU values unattained: {mismatches}; at n = 5 the stated 7 is odd, "
            "but difference-table entries pair up as {x, x+a} and are therefore even "
            "(and kappa is the inverse of chi there, so both share DU 8)"
        )


def test_criterion_10_closed_form_vs_euclid():
    with criterion(10, "closed-form inverse equals Euclid up to n = 64, palindromic"):
        for n in range(4, 65):
            if n % 6 == 0:
                continue
            closed = kappa_inverse_closed_form(n)
            assert closed == ring_inverse(phi(kappa(n)), Modulus(n)), n
            if n % 2 == 0:
                s = closed.to_string()
                assert s == s[::-1], n


def test_criterion_11_property_suites():
    with criterion(11, "property suites at their stated bounds"):
        assert check_shift_invariance(max_n=10) > 0
        assert check_divisor_closure(max_n=12) > 0
        assert check_xi_membership(max_deg=5, max_n=24, samples=40) > 0
        assert check_p3k_identity(max_k=32) == 32
        assert check_kappa_landscape(dims=(5, 6, 7, 8, 9, 10)) > 0
