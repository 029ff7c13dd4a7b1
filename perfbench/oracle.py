"""GF(2)[X] arithmetic used only to check the library's answers.

It shares no code with shiftperm: polynomials are plain ints (bit i is
the coefficient of X^i), division is the textbook shift-and-xor loop,
large products go through a floating-point FFT convolution reduced
mod 2, and integer factoring is trial division.
"""

from __future__ import annotations

import numpy as np

_FFT_THRESHOLD = 2048  # bits of the smaller factor above which the FFT pays


def _to_bits(a: int, length: int) -> np.ndarray:
    raw = np.frombuffer(a.to_bytes((length + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(raw, bitorder="little")[:length].astype(np.float64)


def _from_bits(bits: np.ndarray) -> int:
    return int.from_bytes(np.packbits(bits.astype(np.uint8), bitorder="little").tobytes(), "little")


def clmul(a: int, b: int) -> int:
    """Carry-less product."""
    if a == 0 or b == 0:
        return 0
    la, lb = a.bit_length(), b.bit_length()
    if min(la, lb) <= _FFT_THRESHOLD:
        if la < lb:
            a, b = b, a
        out = 0
        while b:
            low = (b & -b).bit_length() - 1
            out ^= a << low
            b &= b - 1
        return out
    size = la + lb - 1
    fft_len = 1 << (size - 1).bit_length()
    prod = np.fft.irfft(np.fft.rfft(_to_bits(a, la), fft_len) * np.fft.rfft(_to_bits(b, lb), fft_len), fft_len)
    # coefficients are at most min(la, lb) < 2^20, far inside float64 precision
    return _from_bits(np.rint(prod[:size]).astype(np.int64) & 1)


def pmod(a: int, m: int) -> int:
    """Remainder of a modulo m (m nonzero)."""
    dm = m.bit_length()
    while a.bit_length() >= dm:
        a ^= m << (a.bit_length() - dm)
    return a


def pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, pmod(a, b)
    return a


def ring_modulus(n: int) -> int:
    """X^((n+1)/2) for odd n, X^n + X^(n/2) for even n."""
    return 1 << ((n + 1) // 2) if n % 2 else (1 << n) | (1 << (n // 2))


def ring_reduce(p: int, n: int) -> int:
    """p modulo the ring modulus for dimension n, by folding X^n -> X^(n/2)."""
    if n % 2:
        return p & ((1 << ((n + 1) // 2)) - 1)
    low = (1 << n) - 1
    while p >> n:
        p = (p & low) ^ ((p >> n) << (n // 2))
    return p


def powmod(base: int, e: int, m: int) -> int:
    result, base = pmod(1, m), pmod(base, m)
    while e:
        if e & 1:
            result = pmod(clmul(result, base), m)
        base = pmod(clmul(base, base), m)
        e >>= 1
    return result


def prime_factors(n: int) -> list:
    """Distinct prime factors by trial division (fine below 2^40)."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def divisors(n: int) -> list:
    out = [1]
    for p in prime_factors(n):
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def is_irreducible(f: int) -> bool:
    """Rabin's test."""
    d = f.bit_length() - 1
    if d < 1:
        return False
    x_pow = [2]  # x_pow[k] = X^(2^k) mod f
    for _ in range(d):
        x_pow.append(pmod(clmul(x_pow[-1], x_pow[-1]), f))
    if x_pow[d] != pmod(2, f):
        return False
    return all(pgcd(f, x_pow[d // p] ^ 2) == 1 for p in prime_factors(d))


def irreducible_order(g: int) -> int:
    """Least l with g | X^l + 1, for an irreducible g with constant term 1."""
    t = (1 << (g.bit_length() - 1)) - 1
    for p in prime_factors(t):
        while t % p == 0 and powmod(2, t // p, g) == 1:
            t //= p
    return t


def multiplicative_order_of_2(u: int) -> int:
    """ord_u(2) for odd u >= 1."""
    if u == 1:
        return 1
    k, x = 1, 2 % u
    while x != 1:
        x = 2 * x % u
        k += 1
    return k


def euler_phi(n: int) -> int:
    out = n
    for p in prime_factors(n):
        out -= out // p
    return out


def unit_count_formula(n: int) -> int:
    """Number of units of the ring for dimension n, from the cyclotomic split
    X^m + 1 = prod over e | m of Phi_e, each a product of phi(e)/ord_e(2)
    irreducibles of degree ord_e(2)."""
    if n % 2:
        return 1 << ((n + 1) // 2 - 1)
    m = n
    while m % 2 == 0:
        m //= 2
    num, den_bits = 1 << (n - 1), 0
    for e in divisors(m):
        o = multiplicative_order_of_2(e)
        c = euler_phi(e) // o
        num *= ((1 << o) - 1) ** c
        den_bits += o * c
    return num >> den_bits


def unit_count_exhaustive(n: int) -> int:
    """Number of residues coprime to the modulus, by trying every one."""
    m = ring_modulus(n)
    deg = m.bit_length() - 1
    return sum(1 for r in range(1, 1 << deg, 2) if pgcd(m, r) == 1)


def necklace_count(n: int) -> int:
    """Number of cyclic-shift classes of F_2^n."""
    return sum(euler_phi(d) * (1 << (n // d)) for d in divisors(n)) // n
