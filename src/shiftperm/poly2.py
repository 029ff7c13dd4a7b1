"""Arithmetic with polynomials over GF(2).

A polynomial is stored as a nonnegative int: bit i is the coefficient
of X^i, so 0b1011 represents 1 + X + X^3.  BinPoly is a thin immutable
wrapper around that int; the zero polynomial is BinPoly(0) and has
degree -1.

Besides ring arithmetic (+, *, divmod, gcd, extended gcd) the module provides an
irreducibility test, complete factorization into irreducibles by distinct degrees and
then by the traces of odd powers of X, with no random draws, the multiplicative order of
a polynomial (the least l with f dividing X^l + 1), and a deterministic search for an
irreducible polynomial of prescribed order.

The irreducibility test is Ben-Or's (FOCS 1981): the distinct-degree loop of factor,
stopped at its first block.  Every order comes from one routine, _order_mod, which
strips primes from a known multiple: for a factor of degree d, from 2^d - 1; each test
is X^e mod g, raised left to right by _powmod_bits, a shift per product by X.  factor and
factor_int meet in one pass, factor_degrees, which factors f once and each 2^d - 1 once
per degree; order, xi and xi's upper bound read it.  factor_int splits 2^d - 1 into
Phi_e(2), e | d, trial-divides by the primes below 256 and splits the rest by Brent's
Pollard rho.  Primality is Baillie-PSW, exact below 2^64, no counterexample known above.

Two text forms are accepted everywhere downstream: a binary string
whose i-th character (left to right) is the coefficient of X^i, e.g.
"111" for 1 + X + X^2, and a comma-separated exponent list, e.g.
"0,1,2" for the same polynomial.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd as int_gcd, isqrt, lcm, prod


REALIZE_DEGREE_LIMIT = 128  # largest degree find_irreducible_of_order builds: d = 101 is the slowest, 4.4 s on 2 cores
RHO_BUDGET = 1 << 24  # squarings per _rho call: 2^305 - 1 needs 16.3 M, 2^137 - 1 about 10^10
FACTOR_DEGREE_LIMIT = 4096  # largest degree factor splits: 1 + X + X^4000 takes 2.1 s on 2 cores
EXPONENT_CAP = 1 << 24  # largest exponent of a formal operand, one with no dimension to reduce it


class BoundExceededError(ValueError):
    """A search or an exhaustive scan would exceed its configured size limit."""


class BinPoly:
    """Immutable binary polynomial, little-endian bit-packed."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("coefficient mask must be nonnegative")
        self.bits = bits

    @classmethod
    def from_exponents(cls, exponents) -> "BinPoly":
        """Build from exponents of at most EXPONENT_CAP; repeated exponents cancel mod 2."""
        bits = 0
        for e in exponents:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
            if e > EXPONENT_CAP:
                raise ValueError(f"exponent {e} exceeds the cap {EXPONENT_CAP} on formal operands")
            bits ^= 1 << e
        return cls(bits)

    @classmethod
    def parse(cls, text: str) -> "BinPoly":
        """Parse a binary coefficient string or an exponent list.

        "1101011" means 1+X+X^3+X^5+X^6; "0,1,3,5,6" means the same.
        A lone integer above 1 is read as a single exponent.
        """
        t = text.strip().replace(" ", "")
        if not t:
            raise ValueError("empty polynomial text")
        if "," in t:
            return cls.from_exponents(int(p) for p in t.split(","))
        if set(t) <= {"0", "1"}:
            return cls(int(t[::-1], 2))
        if t.isdigit():
            return cls.from_exponents([int(t)])
        raise ValueError(f"cannot parse polynomial {text!r}")

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return self.bits.bit_length() - 1

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    @property
    def constant_term(self) -> int:
        return self.bits & 1

    @property
    def weight(self) -> int:
        """Number of nonzero coefficients."""
        return self.bits.bit_count()

    def exponents(self) -> tuple:
        """Exponents of the nonzero terms, ascending."""
        return tuple(i for i, c in enumerate(self.to_string()) if c == "1")

    def to_string(self) -> str:
        """Binary coefficient string, character i = coefficient of X^i."""
        return format(self.bits, "b")[::-1]

    def derivative(self) -> "BinPoly":
        """Formal derivative: of e(X^2) + X o(X^2) it is o(X^2), as 2 = 0."""
        return BinPoly(_square(_deinterleave(self.bits)[1]))

    def sqrt(self) -> "BinPoly":
        """Square root of a perfect square (all exponents even)."""
        even, odd = _deinterleave(self.bits)
        if odd:
            raise ValueError("polynomial is not a perfect square")
        return BinPoly(even)

    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        return isinstance(other, BinPoly) and self.bits == other.bits

    def __hash__(self):
        return hash(("BinPoly", self.bits))

    def __add__(self, other):
        return BinPoly(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other):
        return BinPoly(_clmul(self.bits, other.bits))

    def __lshift__(self, k: int):
        """Multiply by X^k."""
        return BinPoly(self.bits << k)

    def __divmod__(self, other):
        q, r = _divmod_bits(self.bits, other.bits)
        return BinPoly(q), BinPoly(r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result, base = 1, self.bits
        while e:
            if e & 1:
                result = _clmul(result, base)
            base = _square(base)
            e >>= 1
        return BinPoly(result)

    def __str__(self):
        if self.bits == 0:
            return "0"
        terms = []
        for i in self.exponents():
            terms.append("1" if i == 0 else ("X" if i == 1 else f"X^{i}"))
        return " + ".join(terms)

    def __repr__(self):
        return f"BinPoly('{self.to_string()}')"


ZERO = BinPoly(0)
ONE = BinPoly(1)
X = BinPoly(2)


def x_power(k: int) -> BinPoly:
    """The monomial X^k."""
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    return BinPoly(1 << k)


_WINDOW_MIN_BITS = 256  # multiplier length from which the byte table pays for itself
_TOOM_MIN_BITS = 4096  # multiplier length from which Toom-3 splits pay for themselves
_SPREAD_LOW = bytes(sum((b >> i & 1) << 2 * i for i in range(4)) for b in range(256))  # bits 0-3 to 0, 2, 4, 6
_SPREAD_HIGH = bytes(_SPREAD_LOW[b >> 4] for b in range(256))  # bits 4-7 to 0, 2, 4, 6
_EVENS = bytes(sum((b >> 2 * i & 1) << i for i in range(4)) for b in range(256))  # bits 0, 2, 4, 6 to 0-3
_ODDS = bytes(_EVENS[b >> 1] for b in range(256))  # bits 1, 3, 5, 7 to 0-3


def _clmul(a: int, b: int) -> int:
    """Carry-less product.

    From _TOOM_MIN_BITS multiplier bits on, Bodrato's Toom-3 over GF(2) (WAIFI
    2007): with y = X^k, k a third of the longer length, a = a0 + a1 y + a2 y^2
    and b alike, c = a b = c0 + c1 y + ... + c4 y^4 comes from five products of
    thirds, its values at y = 0, 1, X, X + 1 and infinity, in place of nine.
    Less c0 and c4, the values at 1, X and X + 1 are c1 + c2 + c3, X (c1 + c2 X
    + c3 X^2) and (1 + X)(c1 + c2 + c3 + c2 X + c3 X^2): two exact divisions by
    X and two by 1 + X give c1, c2, c3.  A multiplier of at most k bits is not
    split, each third of the longer operand takes it whole.  Below that a short
    multiplier is taken bit by bit, a longer one a byte per step, from a table
    of the 256 multiples of the other operand by the polynomials of degree
    below 8.  The threshold won a sweep of 3072 to 8192 on random balanced
    products of 3000 to 60000 bits (CPython 3.11, 2-core x86-64 VM): 4096 took
    0.85-1.02 of the time of the Karatsuba split it replaced up to 15000 bits,
    0.72-0.92 at 30000 and 0.64-0.73 at 60000; 3072 took 1.10 at 30000, where it
    cuts 1112-bit ninths.  At 10^6 bits a product takes 0.85-0.94 s, against 1.4-1.8 s."""
    if a < b:
        a, b = b, a
    if b.bit_length() >= _TOOM_MIN_BITS:
        k = (a.bit_length() + 2) // 3
        low = (1 << k) - 1
        a0, a1, a2 = a & low, a >> k & low, a >> 2 * k
        if b >> k == 0:
            return _clmul(a0, b) ^ _clmul(a1, b) << k ^ _clmul(a2, b) << 2 * k
        b0, b1, b2 = b & low, b >> k & low, b >> 2 * k
        v1, w1 = a0 ^ a1 ^ a2, b0 ^ b1 ^ b2  # at 1
        v2, w2 = a0 ^ a1 << 1 ^ a2 << 2, b0 ^ b1 << 1 ^ b2 << 2  # at X
        v3, w3 = v2 ^ v1 ^ a0, w2 ^ w1 ^ b0  # at X + 1
        p0, p4 = _clmul(a0, b0), _clmul(a2, b2)  # c0 and c4 of c(y) = sum c_i y^i
        q = p0 ^ p4 << 4
        s = _clmul(v1, w1) ^ p0 ^ p4  # c1 + c2 + c3
        t = _div_x1(_clmul(v3, w3) ^ q ^ p4)  # c1 + c2 + c3 + c2 X + c3 X^2
        d = (_clmul(v2, w2) ^ q) >> 1 ^ t  # c1 + c2 X + c3 X^2 + t = c2 + c3
        c3 = _div_x1((s ^ t) >> 1 ^ d)  # (c2 + c3 X + c2 + c3) / (1 + X)
        return p0 ^ (s ^ d) << k ^ (d ^ c3) << 2 * k ^ c3 << 3 * k ^ p4 << 4 * k
    if b.bit_length() < _WINDOW_MIN_BITS:
        c = 0
        while b:
            if b & 1:
                c ^= a
            a <<= 1
            b >>= 1
        return c
    table = [0]
    for i in range(8):
        shifted = a << i
        table += [t ^ shifted for t in table]
    c = 0
    for byte in b.to_bytes((b.bit_length() + 7) // 8, "big"):
        c = (c << 8) ^ table[byte]
    return c


def _div_x1(p: int) -> int:
    """p / (1 + X) for a multiple p of 1 + X: bit i of the quotient is the XOR of bits
    0..i of p, a prefix XOR of log2(n) shift-xors, cut to n - 1 bits for p of n bits."""
    n, s = p.bit_length(), 1
    while s < n:
        p ^= p << s
        s *= 2
    return p & ((1 << n) - 1) >> 1


def _square(a: int) -> int:
    """Carry-less square: bit i moves to bit 2i (squaring is linear over GF(2)).
    Byte j of a spreads into bytes 2j and 2j + 1 of the square, its low and
    its high nibble each through a 256-entry table, by bytes.translate."""
    data = a.to_bytes((a.bit_length() + 7) // 8, "little")
    out = bytearray(2 * len(data))
    out[0::2], out[1::2] = data.translate(_SPREAD_LOW), data.translate(_SPREAD_HIGH)
    return int.from_bytes(out, "little")


def _deinterleave(a: int):
    """(e, o) with a = e(X^2) + X o(X^2): the even- and the odd-indexed bits,
    packed; bytes 2j and 2j + 1 of a give the low and high nibbles of byte j."""
    data = a.to_bytes((a.bit_length() + 15) // 16 * 2, "little")
    low, high = data[0::2], data[1::2]
    return tuple(int.from_bytes(low.translate(t), "little") | int.from_bytes(high.translate(t), "little") << 4
                 for t in (_EVENS, _ODDS))


def _divmod_bits(a: int, b: int):
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length()
    q = 0
    while (shift := a.bit_length() - db) >= 0:
        a ^= b << shift
        q |= 1 << shift
    return q, a


def _mod_bits(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length()
    while (shift := a.bit_length() - db) >= 0:
        a ^= b << shift
    return a


def _gcd_bits(a: int, b: int) -> int:
    while b:
        a, b = b, _mod_bits(a, b)
    return a


def _powmod_bits(base: int, e: int, m: int) -> int:
    """base^e mod m, left to right (Knuth, TAOCP 2, 4.6.3): a square per bit of e from the top,
    then a product by base where the bit is set.  The multiplier stays base mod m, not X^(2^i) as
    right to left, so for base X, every order's, it is one shift and, past deg m, one XOR of m."""
    base, r, top = _mod_bits(base, m), _mod_bits(1, m), m.bit_length() - 1
    for bit in format(e, "b"):
        r = _mod_bits(_clmul(r, r), m)
        if bit == "1" and base == 2:
            r <<= 1
            if r >> top:
                r ^= m
        elif bit == "1":
            r = _mod_bits(_clmul(r, base), m)
    return r


def gcd(a: BinPoly, b: BinPoly) -> BinPoly:
    """Greatest common divisor; over GF(2) the result is monic by construction."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    return BinPoly(_gcd_bits(a.bits, b.bits))


def ext_gcd(a: BinPoly, b: BinPoly):
    """Extended Euclid without the cofactor of b: (g, u) with g = gcd(a, b), u a = g mod b;
    each quotient bit X^shift updates the cofactor as it clears a leading term, no quotient is built."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    r0, r1, s0, s1 = a.bits, b.bits, 1, 0  # s_i a = r_i mod b
    while r1:
        d1 = r1.bit_length()
        while (shift := r0.bit_length() - d1) >= 0:
            r0 ^= r1 << shift
            s0 ^= s1 << shift
        r0, r1, s0, s1 = r1, r0, s1, s0
    return BinPoly(r0), BinPoly(s0)


def is_irreducible(f: BinPoly) -> bool:
    """Ben-Or's test: factor's distinct-degree loop, stopped at its first
    block.  gcd(f, X^(2^d) + X) holds once each irreducible factor of f of
    degree dividing d, repeated ones and X included, so for any f, squarefree
    or not, the first block comes at the least factor degree; it is the rest,
    f itself of degree deg f, only if no factor has degree up to deg f / 2."""
    if f.degree < 1:
        raise ValueError("irreducibility is undefined for constants")
    return next(_distinct_degrees(f.bits))[0] == f.degree


@functools.lru_cache(maxsize=None)
def irreducible_polys(degree: int) -> tuple:
    """All irreducible polynomials of the given degree, ascending."""
    if degree < 1:
        raise ValueError("degree must be positive")
    return tuple(
        BinPoly(bits)
        for bits in range(1 << degree, 1 << (degree + 1))
        if is_irreducible(BinPoly(bits))
    )


def factor(f: BinPoly) -> tuple:
    """Complete factorization of a nonzero polynomial into irreducibles:
    (irreducible, multiplicity) pairs, sorted by (degree, coefficient value).

    Squarefree decomposition first (gcd with the derivative; a vanishing
    derivative means the polynomial is a perfect square), then each
    squarefree part is split by distinct degrees and each block of equal
    degree by the traces of the odd powers of X.  Degrees past FACTOR_DEGREE_LIMIT raise
    BoundExceededError.  No order is computed here; factor_orders does that.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.degree > FACTOR_DEGREE_LIMIT:
        raise BoundExceededError(f"factoring degree {f.degree} exceeds the limit {FACTOR_DEGREE_LIMIT}")
    counts: dict = {}
    _factor_into(f.bits, 1, counts)
    ordered = sorted(counts.items(), key=lambda kv: (kv[0].bit_length(), kv[0]))
    return tuple((BinPoly(b), e) for b, e in ordered)


def _factor_into(fb: int, mult: int, counts: dict) -> None:
    if fb == 1:
        return
    df = BinPoly(fb).derivative().bits
    if df == 0:
        _factor_into(BinPoly(fb).sqrt().bits, 2 * mult, counts)
        return
    c = _gcd_bits(fb, df)
    for d, block in _distinct_degrees(_divmod_bits(fb, c)[0]):
        for gb in _split_equal_degree(block, d):
            counts[gb] = counts.get(gb, 0) + mult
    if c != 1:
        _factor_into(c, mult, counts)


def _distinct_degrees(wb: int):
    """(d, block) pairs of w, lazily: with the factors of degree below d divided
    out, those of degree d multiply to the block gcd(w, X^(2^d) + X).  Past
    half the degree of what is left, the rest is irreducible, its own block."""
    h, d = 2, 1
    while 2 * d < wb.bit_length():
        h = _mod_bits(_square(h), wb)  # X^(2^d) mod w
        if (block := _gcd_bits(wb, h ^ 2)) != 1:
            yield d, block
            wb = _divmod_bits(wb, block)[0]
        d += 1
    if wb != 1:
        yield wb.bit_length() - 1, wb


def _split_equal_degree(b: int, d: int, start: int = 1) -> list:
    """The factors of a squarefree b whose factors all have degree d.  Modulo a factor g,
    t = a + a^2 + ... + a^(2^(d-1)) is Tr(a mod g), 0 or 1, so gcd(b, t) holds the factors of
    trace 0 (Cantor and Zassenhaus, Math. Comp. 36, 1981).  a = X^i, odd i < 2d, parts any two
    factors g != h with roots x, y: Tr(x^i) + Tr(y^i) sums the i-th powers of the 2d roots of gh,
    distinct, and nonzero for d >= 2 (at d = 1, i = 1 tells X from 1 + X), so by Vandermonde it is 1
    at some i <= 2d, and as Tr(y^2) = Tr(y) also at the odd part of i.  Each part is whole under X^i
    and under every power that left b whole, so it goes on from i + 2.  d = 4 needs X^(2d-1)."""
    if b.bit_length() - 1 == d:
        return [b]
    for i in range(start, 2 * d, 2):
        a = t = 1 << i  # below b, of degree at least 2d
        for _ in range(d - 1):
            a = _mod_bits(_square(a), b)
            t ^= a
        if (g := _gcd_bits(b, t)) not in (1, b):
            return _split_equal_degree(g, d, i + 2) + _split_equal_degree(_divmod_bits(b, g)[0], d, i + 2)
    raise AssertionError(f"X^{2 * d - 1} left a block of degree {b.bit_length() - 1} unsplit into degree {d}")


_SMALL_PRIMES = [p for p in range(2, 256) if all(p % q for q in range(2, p))]


def _jacobi(a: int, n: int) -> int:
    a, sign = a % n, 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd non-square n, with
    Selfridge's parameters: P = 1, D the first of 5, -7, 9, ... with
    Jacobi symbol (D/n) = -1, and Q = (1 - D)/4."""
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else 2 - D
    s = ((n + 1) & -(n + 1)).bit_length() - 1  # n + 1 = d * 2^s, d odd
    Q, half = (1 - D) // 4 % n, (n + 1) // 2  # half = 1/2 mod n
    U, V, Qk = 1, 1, Q  # U_k, V_k, Q^k for k = 1, then k = d
    for bit in format((n + 1) >> s, "b")[1:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = (U + V) * half % n, (D * U + V) * half % n, Qk * Q % n
    found = U == 0
    for _ in range(s):  # V_{d 2^r} for r < s
        found = found or V == 0
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return found


def is_prime(n: int) -> bool:
    """Baillie-PSW: trial division by the primes below 256, a strong
    base-2 Miller-Rabin test, then a strong Lucas test."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < 256 * 256:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^s, d odd
    x = pow(2, (n - 1) >> s, n)
    if x != 1 and n - 1 not in [pow(x, 1 << r, n) for r in range(s)]:
        return False
    return isqrt(n) ** 2 != n and _strong_lucas(n)


def _rho(n: int, top: int) -> int:
    """A proper factor of the odd composite n, a divisor of factor_int's top:
    Brent's variant of Pollard rho, gcds batched over 128 steps, y_0 = 2, c = 1, 2, ....
    Past RHO_BUDGET steps it raises BoundExceededError naming top, by its bits past 4300 digits."""
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > RHO_BUDGET:
                d = top.bit_length()  # str() refuses past 4300 digits
                name = f"2^{d} - 1" if top & (top + 1) == 0 else top if top < 10**4300 else f"a {d}-bit integer"
                raise BoundExceededError(f"factoring {name} needs more than {RHO_BUDGET} rho steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                if (g := int_gcd(q, n)) != 1:
                    break
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = int_gcd(x - ys, n)
        if g != n:
            return g


def factor_int(n: int) -> dict:
    """Prime factorization {p: multiplicity} of a positive integer, p ascending."""
    if n < 1:
        raise ValueError("only positive integers are factored")
    stack = [n]
    if n & (n + 1) == 0:  # 2^d - 1: split into Phi_e(2), e | d, by exact division
        d, phis = n.bit_length(), {}
        for e in (e for e in range(1, d + 1) if d % e == 0):
            phis[e] = ((1 << e) - 1) // prod(v for f, v in phis.items() if e % f == 0)
        stack = list(phis.values())
    counts: dict = {}
    while stack:
        m = stack.pop()
        for p in _SMALL_PRIMES:
            if p * p > m:
                break
            while m % p == 0:
                counts[p] = counts.get(p, 0) + 1
                m //= p
        if m > 1 and is_prime(m):
            counts[m] = counts.get(m, 0) + 1
        elif m > 1:
            f = _rho(m, n)
            stack += [f, m // f]
    return dict(sorted(counts.items()))


def _order_mod(a: int, t: int, primes, m: int) -> int:
    """The order of a modulo m, given a^t = 1 mod m and primes holding every
    prime of t: each prime is stripped from t while a^(t/p) stays 1."""
    for p in primes:
        while t % p == 0 and _powmod_bits(a, t // p, m) == 1:
            t //= p
    return t


def factor_degrees(f: BinPoly) -> list:
    """The factoring pass: (d, primes of 2^d - 1, ((g, e), ...)) for each factor degree d of f, ascending."""
    blocks = itertools.groupby(factor(f), lambda ge: ge[0].degree)
    return [(d, factor_int((1 << d) - 1), tuple(pairs)) for d, pairs in blocks]


def factor_orders(blocks) -> list:
    """The order of each factor in factor_degrees' blocks: _order_mod over the primes of 2^d - 1."""
    return [_order_mod(2, (1 << d) - 1, primes, g.bits) for d, primes, pairs in blocks for g, _ in pairs]


def order(f: BinPoly) -> int:
    """Least l >= 1 such that f divides X^l + 1.

    Defined for polynomials with constant term 1.  Computed from the
    factorization: the lcm of the irreducible orders, doubled up to the
    smallest power of two at least the maximal multiplicity.
    """
    if f.is_zero or f.constant_term != 1:
        raise ValueError("order requires a constant term of 1")
    blocks = factor_degrees(f)
    max_mult = max((e for _, _, pairs in blocks for _, e in pairs), default=1)
    return lcm(*factor_orders(blocks)) << (max_mult - 1).bit_length()


_ENUMERATION_DEGREE = 12


def find_irreducible_of_order(t: int) -> BinPoly:
    """A deterministic irreducible polynomial with the given odd order t.

    Its degree is d = ord_t(2); a d above REALIZE_DEGREE_LIMIT raises
    BoundExceededError.  2^d - 1 is factored once, for every order test.
    For d up to 12 the result is the smallest irreducible of degree d and
    order t.  Beyond that it is the minimal polynomial, the product of
    X + alpha^(2^i), i < d, of the first alpha = gen^((2^d - 1)/t), gen = 2,
    3, ..., of order t in F_{2^d} = F_2[Y]/(p), p the smallest irreducible
    of degree d.  Both exist: the unit group of F_{2^d} is cyclic of order 2^d - 1.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError("an irreducible order is odd and positive")
    if t == 1:
        return BinPoly(0b11)
    d = next((d for d in range(1, REALIZE_DEGREE_LIMIT + 1) if pow(2, d, t) == 1), None)
    if d is None:
        raise BoundExceededError(f"order {t} needs the degree ord_{t}(2) > {REALIZE_DEGREE_LIMIT}")
    n = (1 << d) - 1
    primes = factor_int(n)
    if d <= _ENUMERATION_DEGREE:
        return next(g for g in irreducible_polys(d) if _order_mod(2, n, primes, g.bits) == t)
    p = next(b for b in range((1 << d) | 1, 1 << (d + 1), 2) if is_irreducible(BinPoly(b)))
    powers = (_powmod_bits(gen, n // t, p) for gen in range(2, 1 << d))
    alpha = next(a for a in powers if _order_mod(a, t, primes, p) == t)
    coeffs = [1]  # of the product so far, lowest first, each in F_{2^d}
    conj = alpha
    for _ in range(d):
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] ^= _mod_bits(_clmul(conj, coeffs[i + 1]), p)
        conj = _mod_bits(_square(conj), p)
    f = sum(c << i for i, c in enumerate(coeffs))
    assert max(coeffs) == 1 and _powmod_bits(2, t, f) == 1 and _order_mod(2, t, primes, f) == t
    return BinPoly(f)
