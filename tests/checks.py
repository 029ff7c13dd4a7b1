"""Exhaustive invariant checks shared by the module tests and the acceptance run,
and the shift-and-add product the arithmetic tests compare against.

Each check raises AssertionError on the first violation and returns
the number of cases it verified, so callers can sanity-check coverage.
"""

import random

from shiftperm.bitstate import BitVector, eval_gamma
from shiftperm.gammaspan import GammaCombination, evaluate, kappa
from shiftperm.analysis import (
    inv_membership,
    is_permutation,
    kappa_cofactor,
    kappa_flip_predicate,
)
from shiftperm.poly2 import BinPoly, ONE, x_power


def shift_and_add(a: int, b: int) -> int:
    """Carry-less product, one multiplier bit per step."""
    out = 0
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            out ^= a << i
    return out


def factor_product(pairs) -> BinPoly:
    """The product of g^e over (g, e) pairs, by shift-and-add."""
    out = 1
    for g, e in pairs:
        for _ in range(e):
            out = shift_and_add(out, g.bits)
    return BinPoly(out)


def check_shift_invariance(max_n: int = 10) -> int:
    """eval_gamma commutes with the cyclic shift for every k <= 2n and input."""
    cases = 0
    for n in range(1, max_n + 1):
        for k in range(2 * n + 1):
            for v in range(1 << n):
                x = BitVector(n, v)
                assert eval_gamma(k, x.shift(1)) == eval_gamma(k, x).shift(1), (n, k, v)
                cases += 1
    return cases


def check_divisor_closure(max_n: int = 12) -> int:
    """A permutation on F_2^n stays one on F_2^d for every divisor d."""
    cases = 0
    for n in range(2, max_n + 1):
        divisors = [d for d in range(1, n) if n % d == 0]
        dim = n if n % 2 == 0 else (n + 1) // 2
        for mask in range(1, 1 << dim, 2):
            f = GammaCombination(mask)  # formal, rebound per dimension
            if not is_permutation(f, n)[0]:
                continue
            for d in divisors:
                assert is_permutation(f, d)[0], (n, mask, d)
                cases += 1
    return cases


def check_xi_membership(max_deg: int = 5, max_n: int = 24, samples: int = 40, seed: int = 7) -> int:
    """Deciding by xi agrees with the direct gcd criterion on every dimension."""
    rng = random.Random(seed)
    cases = 0
    for _ in range(samples):
        mask = 1 | (rng.randrange(1 << max_deg) << 1)
        f = GammaCombination(mask)
        for n in range(1, max_n + 1):
            assert inv_membership(f, n) == is_permutation(f, n)[0], (mask, n)
            cases += 1
    return cases


def check_p3k_identity(max_k: int = 32) -> int:
    """(1+X+X^2) * P(3k) = 1 + X^{3k}; support avoids exponents 2 mod 3; degree 3k-2."""
    three = BinPoly.parse("111")
    for k in range(1, max_k + 1):
        p = kappa_cofactor(k)
        assert three * p == x_power(3 * k) + ONE, k
        assert p.degree == 3 * k - 2, k
        for i in range(p.degree + 1):
            bit = (p.bits >> i) & 1
            assert (bit == 0) == (i % 3 == 2), (k, i)
    assert kappa_cofactor(0).is_zero
    return max_k


def check_kappa_landscape(dims=(5, 6, 7, 8, 9, 10)) -> int:
    """The window patterns reproduce x + kappa(x) bit for bit."""
    cases = 0
    for n in dims:
        k = kappa(n)
        for v in range(1 << n):
            x = BitVector(n, v)
            flipped = x + evaluate(k, x)
            for i in range(n):
                assert kappa_flip_predicate(x, i) == flipped[i], (n, v, i)
                cases += 1
    return cases
