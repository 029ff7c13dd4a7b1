"""Arithmetic with polynomials over GF(2).

A polynomial is stored as a nonnegative int: bit i is the coefficient
of X^i, so 0b1011 represents 1 + X + X^3.  BinPoly is a thin immutable
wrapper around that int; the zero polynomial is BinPoly(0) and has
degree -1.

Besides ring arithmetic (+, *, divmod, gcd, extended gcd) the module
provides an irreducibility test, complete factorization into
irreducibles, the multiplicative order of a polynomial (the least l
with f dividing X^l + 1), and a deterministic search for an irreducible
polynomial of prescribed order.

Two text forms are accepted everywhere downstream: a binary string
whose i-th character (left to right) is the coefficient of X^i, e.g.
"111" for 1 + X + X^2, and a comma-separated exponent list, e.g.
"0,1,2" for the same polynomial.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import lcm

import sympy


class BinPoly:
    """Immutable binary polynomial, little-endian bit-packed."""

    __slots__ = ("bits",)

    def __init__(self, bits: int = 0):
        if bits < 0:
            raise ValueError("coefficient mask must be nonnegative")
        self.bits = bits

    @classmethod
    def from_coeffs(cls, coeffs) -> "BinPoly":
        """Build from an iterable of 0/1 coefficients, index i = X^i."""
        bits = 0
        for i, c in enumerate(coeffs):
            if c not in (0, 1):
                raise ValueError(f"coefficient {c!r} is not a bit")
            bits |= c << i
        return cls(bits)

    @classmethod
    def from_exponents(cls, exponents) -> "BinPoly":
        """Build from exponents; repeated exponents cancel mod 2."""
        bits = 0
        for e in exponents:
            if e < 0:
                raise ValueError("exponents must be nonnegative")
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
        return tuple(i for i in range(self.bits.bit_length()) if (self.bits >> i) & 1)

    def to_string(self) -> str:
        """Binary coefficient string, character i = coefficient of X^i."""
        if self.bits == 0:
            return "0"
        return "".join(str((self.bits >> i) & 1) for i in range(self.degree + 1))

    def derivative(self) -> "BinPoly":
        """Formal derivative; in characteristic 2 only odd-exponent terms survive."""
        shifted = self.bits >> 1
        if not shifted:
            return BinPoly(0)
        width = shifted.bit_length() + (shifted.bit_length() & 1)
        even_positions = ((1 << width) - 1) // 3  # ...010101, ones at even indices
        return BinPoly(shifted & even_positions)

    def sqrt(self) -> "BinPoly":
        """Square root of a perfect square (all exponents even)."""
        out = 0
        for i in range(self.bits.bit_length()):
            if (self.bits >> i) & 1:
                if i % 2:
                    raise ValueError("polynomial is not a perfect square")
                out |= 1 << (i // 2)
        return BinPoly(out)

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
            base = _clmul(base, base)
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


def _clmul(a: int, b: int) -> int:
    if a < b:
        a, b = b, a
    c = 0
    while b:
        if b & 1:
            c ^= a
        a <<= 1
        b >>= 1
    return c


def _divmod_bits(a: int, b: int):
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = b.bit_length()
    q = 0
    while a.bit_length() >= db:
        shift = a.bit_length() - db
        a ^= b << shift
        q |= 1 << shift
    return q, a


def _mod_bits(a: int, b: int) -> int:
    return _divmod_bits(a, b)[1]


def _gcd_bits(a: int, b: int) -> int:
    while b:
        a, b = b, _mod_bits(a, b)
    return a


def _mulmod_bits(a: int, b: int, m: int) -> int:
    return _mod_bits(_clmul(a, b), m)


def _powmod_bits(base: int, e: int, m: int) -> int:
    result = _mod_bits(1, m)
    base = _mod_bits(base, m)
    while e:
        if e & 1:
            result = _mulmod_bits(result, base, m)
        base = _mulmod_bits(base, base, m)
        e >>= 1
    return result


def gcd(a: BinPoly, b: BinPoly) -> BinPoly:
    """Greatest common divisor; over GF(2) the result is monic by construction."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    return BinPoly(_gcd_bits(a.bits, b.bits))


def ext_gcd(a: BinPoly, b: BinPoly):
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g = gcd(a, b)."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    r0, r1 = a.bits, b.bits
    s0, s1 = 1, 0
    t0, t1 = 0, 1
    while r1:
        q, r = _divmod_bits(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 ^ _clmul(q, s1)
        t0, t1 = t1, t0 ^ _clmul(q, t1)
    return BinPoly(r0), BinPoly(s0), BinPoly(t0)


def _x_pow_2k_mod(k: int, m: int) -> int:
    """X^(2^k) mod m, by k modular squarings."""
    r = _mod_bits(2, m)
    for _ in range(k):
        r = _mulmod_bits(r, r, m)
    return r


def is_irreducible(f: BinPoly) -> bool:
    """Rabin's test: no nontrivial factor exists."""
    d = f.degree
    if d < 1:
        raise ValueError("irreducibility is undefined for constants")
    if d == 1:
        return True
    fb = f.bits
    for p in sympy.primefactors(d):
        if _gcd_bits(_x_pow_2k_mod(d // p, fb) ^ 2, fb) != 1:
            return False
    return _x_pow_2k_mod(d, fb) == 2


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


@dataclass(frozen=True)
class Factorization:
    """Factors of a binary polynomial as (irreducible, multiplicity) pairs,
    sorted by (degree, coefficient value)."""

    factors: tuple

    def product(self) -> BinPoly:
        out = ONE
        for g, e in self.factors:
            out = out * g ** e
        return out

    def distinct(self) -> tuple:
        return tuple(g for g, _ in self.factors)

    def __iter__(self):
        return iter(self.factors)

    def __len__(self):
        return len(self.factors)


def factor(f: BinPoly) -> Factorization:
    """Complete factorization of a nonzero polynomial into irreducibles.

    Squarefree decomposition first (gcd with the derivative; a vanishing
    derivative means the polynomial is a perfect square), then trial
    division of the squarefree parts by enumerated irreducibles of
    increasing degree, short-circuiting once the cofactor is itself
    irreducible.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    counts: dict = {}
    _factor_into(f.bits, 1, counts)
    ordered = sorted(counts.items(), key=lambda kv: (kv[0].bit_length(), kv[0]))
    return Factorization(tuple((BinPoly(b), e) for b, e in ordered))


def _factor_into(fb: int, mult: int, counts: dict) -> None:
    if fb == 1:
        return
    df = BinPoly(fb).derivative().bits
    if df == 0:
        _factor_into(BinPoly(fb).sqrt().bits, 2 * mult, counts)
        return
    c = _gcd_bits(fb, df)
    w = _divmod_bits(fb, c)[0]
    for gb in _split_squarefree(w):
        counts[gb] = counts.get(gb, 0) + mult
    if c != 1:
        _factor_into(c, mult, counts)


def _split_squarefree(wb: int) -> list:
    out = []
    d = 1
    while wb != 1:
        if is_irreducible(BinPoly(wb)):
            out.append(wb)
            break
        while 2 * d <= wb.bit_length() - 1:
            progressed = False
            for g in irreducible_polys(d):
                q, r = _divmod_bits(wb, g.bits)
                if r == 0:
                    wb = q
                    out.append(g.bits)
                    progressed = True
            d += 1
            if progressed:
                break
        else:
            # no factor up to half the degree: the cofactor is irreducible
            out.append(wb)
            break
    return out


def _irreducible_order(g: BinPoly) -> int:
    d = g.degree
    if d == 1:
        return 1  # the only irreducible with constant term 1 is 1+X
    t = (1 << d) - 1
    for p in sympy.factorint(t):
        while t % p == 0 and _powmod_bits(2, t // p, g.bits) == 1:
            t //= p
    return t


def order(f: BinPoly) -> int:
    """Least l >= 1 such that f divides X^l + 1.

    Defined for polynomials with constant term 1.  Computed from the
    factorization: the lcm of the irreducible orders, doubled up to the
    smallest power of two at least the maximal multiplicity.
    """
    if f.is_zero or f.constant_term != 1:
        raise ValueError("order requires a constant term of 1")
    result = 1
    max_mult = 1
    for g, e in factor(f):
        result = lcm(result, _irreducible_order(g))
        max_mult = max(max_mult, e)
    return result << (max_mult - 1).bit_length()


_ENUMERATION_DEGREE = 12


def find_irreducible_of_order(t: int) -> BinPoly:
    """A deterministic irreducible polynomial with the given odd order.

    The degree is the multiplicative order d of 2 mod t.  For d up to
    12 the result is the smallest such polynomial in enumeration order;
    beyond that it is the minimal polynomial of a deterministically
    chosen field element of order t in F_{2^d}.
    """
    if t < 1 or t % 2 == 0:
        raise ValueError("an irreducible order is odd and positive")
    if t == 1:
        return BinPoly(0b11)
    d = 1
    while ((1 << d) - 1) % t:
        d += 1
    if d <= _ENUMERATION_DEGREE:
        for g in irreducible_polys(d):
            if g.constant_term == 1 and _irreducible_order(g) == t:
                return g
        raise RuntimeError(f"no irreducible of order {t} found at degree {d}")
    return _minimal_poly_of_order(t, d)


def _smallest_irreducible(d: int) -> int:
    for bits in range((1 << d) | 1, 1 << (d + 1), 2):
        if is_irreducible(BinPoly(bits)):
            return bits
    raise RuntimeError(f"no irreducible of degree {d}")


def _minimal_poly_of_order(t: int, d: int) -> BinPoly:
    """Minimal polynomial of an order-t element of F_{2^d} = F_2[Y]/(p)."""
    p = _smallest_irreducible(d)
    cofactor = ((1 << d) - 1) // t
    primes = sympy.primefactors(t)
    alpha = 0
    for gen in range(2, 1 << d):
        cand = _powmod_bits(gen, cofactor, p)
        if cand != 1 and all(_powmod_bits(cand, t // q, p) != 1 for q in primes):
            alpha = cand
            break
    assert alpha, "the unit group is cyclic, some power has order t"
    # product of (X + alpha^(2^i)) with coefficients in F_{2^d}
    coeffs = [1]
    conj = alpha
    for _ in range(d):
        coeffs = [0] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] ^= _mulmod_bits(conj, coeffs[i + 1], p)
        conj = _mulmod_bits(conj, conj, p)
    assert conj == alpha and all(c in (0, 1) for c in coeffs)
    result = BinPoly.from_coeffs(coeffs)
    assert _irreducible_order(result) == t
    return result
