"""Residue rings of binary polynomials mirroring shift-invariant maps.

For dimension n the modulus polynomial is

    X^((n+1)/2)   for odd n,
    X^n + X^(n/2) for even n,

and a coset is held by its canonical representative, the BinPoly of
degree below that of the modulus.  Every function here accepts any
representative and returns the canonical one.  Multiplication of
residues corresponds to composition of the associated maps on F_2^n;
units correspond to the bijective ones.

The arithmetic uses the shape of the modulus.  With h = n/2 and
n = 2^s * m (m odd), the even modulus splits into the coprime parts

    X^h * (X^h + 1),   X^h + 1 = (X^m + 1)^(2^(s-1)),

so reduction is a fold: the bits from h upward are XOR-folded mod
X^h + 1, where X^h = 1; the odd modulus is a mask.  On even n a product
is found from its residues lo mod X^h and hi mod X^h + 1, two products
of h-bit operands, the first cut to h bits and the second folded; the
Chinese remainder theorem joins them as lo + X^h (lo + hi).  On odd n
the product is lo alone.  A unit is a representative with constant term
1 that, on even n, is coprime to X^m + 1.  Its inverse comes from one
recursion over dimensions.  Newton's step u <- f u^2 squares the modulus
f u = 1 holds for, so the inverse for n is one step from the one for
n' = n/2 when 4 | n, as (X^(n/4) (X^(n/4) + 1))^2 is the modulus for n,
or on odd n for the odd n' = 2 ceil((n+1)/4) - 1, whose X^ceil(k/2)
squares past X^k, k = (n+1)/2; it is 1 at n = 1.  At n = 2m, m odd, the
inverse for 2m - 1, mod X^m, is joined as above to the one mod X^m + 1
that the extended Euclidean algorithm finds on m-bit operands.  Squaring
is additive over GF(2), so with f = e(X^2) + X o(X^2) a step is
f u^2 = (e u)^2 + X (o u)^2, and e u and o u are needed only in the ring
for n': two products of half size for one of full size.

unit_witness owns that unit criterion.  A failed inversion raises
NonUnitError with X, or on even n the unit_witness gcd(f, X^m + 1) that
its Euclidean step already has: a common factor of f and the modulus.

The unit count needs no factoring: X^m + 1 has one irreducible factor
of degree |C| for each cyclotomic coset C = {j, 2j, 4j, ...} of 2 mod m,
so |U| = 2^(h-1) 2^(h-m) prod_C (2^|C| - 1) on even n, 2^((n-1)/2) on odd.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import poly2
from .poly2 import BinPoly, ONE, X, _clmul, _deinterleave, _square, x_power


DIMENSION_CAP = 1 << 21  # largest n: invert at n = 2^21 - 2, twice an odd number (the slow case), takes 8.4-9.6 s on 2 cores


class NonUnitError(ValueError):
    """Inversion was requested for a non-unit.  witness: a nontrivial common
    factor of f and the modulus; gcd(f, X^m + 1) when f has constant term 1."""

    def __init__(self, witness: BinPoly, message: str):
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class Modulus:
    """The residue ring modulus for dimension n, with the odd part m of n = 2^s * m."""

    n: int

    def __post_init__(self):
        if not 1 <= self.n <= DIMENSION_CAP:
            raise ValueError(f"dimension {self.n} is outside 1..{DIMENSION_CAP}")

    @property
    def poly(self) -> BinPoly:
        if self.n % 2:
            return x_power((self.n + 1) // 2)
        return x_power(self.n) + x_power(self.n // 2)

    @property
    def degree(self) -> int:
        return (self.n + 1) // 2 if self.n % 2 else self.n

    @property
    def odd_part(self) -> int:
        """The largest odd divisor m of n."""
        return self.n >> ((self.n & -self.n).bit_length() - 1)


def _fold(a: int, width: int) -> int:
    """a mod X^width + 1: XOR-fold at doubling multiples w of width, where X^w = 1."""
    while a >> width:
        w = width
        while 2 * w < a.bit_length():
            w *= 2
        a = (a & ((1 << w) - 1)) ^ (a >> w)
    return a


def reduce_bits(a: int, mod: Modulus) -> int:
    """a mod the modulus for dimension n, on bit masks: the low (n+1)/2
    bits on odd n; on even n the bits from h = n/2 upward fold mod X^h + 1."""
    n = mod.n
    if n % 2:
        return a & ((1 << (n + 1) // 2) - 1)
    h = n // 2
    return (a & ((1 << h) - 1)) ^ (_fold(a >> h, h) << h)


def reduce(f: BinPoly, mod: Modulus) -> BinPoly:
    """Canonical representative of the coset of f."""
    return BinPoly(reduce_bits(f.bits, mod))


def _crt(lo: int, hi: int, h: int) -> int:
    """The residue mod X^h (X^h + 1) that is lo mod X^h and hi mod X^h + 1,
    both of degree below h: lo + X^h t with lo + t = hi, as X^h = 1 there."""
    return lo ^ ((lo ^ hi) << h)


def _mul_bits(f: int, g: int, mod: Modulus) -> int:
    """Canonical product of cosets, on bit masks: mod X^((n+1)/2) on odd n; on even
    n from its residues mod X^h and mod X^h + 1, two products of h-bit operands."""
    h = (mod.n + 1) // 2
    low = (1 << h) - 1
    lo = _clmul(f & low, g & low) & low
    if mod.n % 2:
        return lo
    return _crt(lo, _fold(_clmul(_fold(f, h), _fold(g, h)), h), h)


def ring_mul(a: BinPoly, b: BinPoly, mod: Modulus) -> BinPoly:
    """Canonical product of cosets."""
    return BinPoly(_mul_bits(a.bits, b.bits, mod))


def unit_witness(f: BinPoly, mod: Modulus) -> BinPoly:
    """The unit criterion: 1 on odd n; on even n gcd(f, X^m + 1) for the odd
    part m of n, from f folded mod X^m + 1.  A polynomial with constant term 1
    is a unit modulo the modulus iff this is 1."""
    if mod.n % 2:
        return ONE
    m = mod.odd_part
    return poly2.gcd(BinPoly(_fold(f.bits, m)), x_power(m) + ONE)


def is_unit(a: BinPoly, mod: Modulus) -> bool:
    """True iff a is coprime to the modulus."""
    return a.constant_term == 1 and unit_witness(a, mod) == ONE


def ring_inverse(a: BinPoly, mod: Modulus) -> BinPoly:
    """Multiplicative inverse of a unit, by one Newton recursion over dimensions
    (see the module docstring).  f is reduced and de-interleaved once, here: each
    smaller n's modulus divides mod's, so on every coefficient a step keeps, the
    halves of f agree with those of f reduced for n."""
    f, m = reduce_bits(a.bits, mod), mod.odd_part
    if not f & 1:
        raise _non_unit(f, mod, X)
    if mod.n % 2 == 0:  # a non-unit fails here, before any step
        g, hi = poly2.ext_gcd(BinPoly(_fold(f, m)), x_power(m) + ONE)
        if g != ONE:
            raise _non_unit(f, mod, g)
    e, o = _deinterleave(f)

    def lift(n: int) -> int:
        if n == 1:
            return 1
        if n == 2 * m:  # the inverse for 2m - 1, mod X^m, joined to Euclid's mod X^m + 1
            return _crt(lift(n - 1), hi.bits, m)
        sub = Modulus(n // 2 if n % 2 == 0 else n // 2 | 1)
        u = lift(sub.n)
        return reduce_bits(_square(_mul_bits(e, u, sub)) ^ _square(_mul_bits(o, u, sub)) << 1, Modulus(n))

    return BinPoly(lift(mod.n))


def _non_unit(f: int, mod: Modulus, g: BinPoly) -> NonUnitError:
    return NonUnitError(g, f"not a unit for n = {mod.n}: degree {f.bit_length() - 1}, gcd degree {g.degree}")


def unit_group_order(mod: Modulus) -> int:
    """Number of units, by one walk over the cyclotomic cosets C of 2 mod m.

    F_2[X]/(g^e), g irreducible of degree d, has 2^((e-1)d) (2^d - 1)
    units.  X^h gives 2^(h-1); the factor of X^m + 1 for coset C, to the
    power k = h/m, gives 2^((k-1)|C|) (2^|C| - 1): in all, as the |C| sum
    to m, 2^(h-m) prod_C (2^|C| - 1).  Odd n gives 2^((n-1)/2)."""
    n = mod.n
    if n % 2:
        return 1 << (n - 1) // 2
    h, m = n // 2, mod.odd_part
    total = 1 << (h - 1) + (h - m)  # the powers of 2 from X^h and (X^m + 1)^k
    seen = bytearray(m)
    for start in range(m):
        j, size = start, 0
        while not seen[j]:
            seen[j] = 1
            j = 2 * j % m
            size += 1
        if size:
            total *= (1 << size) - 1
    return total
