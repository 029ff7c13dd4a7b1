"""Linear combinations of the gamma maps and their polynomial mirror.

A GammaCombination stores the coefficient of gamma(2k) in bit k of
`mask`.  Combinations bound to a dimension (`n` set) are kept in
canonical form: on odd n every term with 2k > n vanishes, on even n an
index k >= n/2 wraps to n/2 + (k mod n/2).  Unbound combinations
(`n is None`) are formal elements that can be evaluated on any
dimension and bound later with .at(n).

phi and psi translate between combinations and residues of the ring
for the same dimension: the coefficient of gamma(2k) becomes the
coefficient of X^k, and a residue is its canonical representative, as
a bound mask is.  Under this translation, composition of maps is
multiplication of residues, as long as the inner map lies in the
identity coset (constant coefficient 1); compose() computes through
the ring, while compose_oracle() tabulates the functional composition
pointwise and exists purely as an independent check.
"""

from __future__ import annotations

from . import tables
from .bitstate import BitVector, combination_values
from .poly2 import BinPoly, _read_operand
from .ring import Modulus, reduce_bits, ring_mul


class GammaCombination:
    """A sum of gamma(2k) maps; bit k of `mask` is the coefficient of gamma(2k)."""

    __slots__ = ("mask", "n")

    def __init__(self, mask: int, n: int | None = None):
        if mask < 0:
            raise ValueError("coefficient mask must be nonnegative")
        self.mask = mask if n is None else reduce_bits(mask, Modulus(n))  # Modulus checks n
        self.n = n

    @classmethod
    def from_indices(cls, ks, n: int | None = None) -> "GammaCombination":
        """Build from k-indices (gamma subscripts divided by 2) by BinPoly.from_exponents; duplicates
        cancel.  Given n, each index first moves to its canonical position: on odd n one at or past
        the modulus degree drops, on even n one at or past n moves to n/2 + (k mod n/2)."""
        if n is not None:
            degree, half = Modulus(n).degree, n // 2
            ks = (k if k < degree else half + k % half for k in ks if k < degree or n % 2 == 0)
        return cls(BinPoly.from_exponents(ks).bits, n)

    @classmethod
    def parse(cls, text: str, n: int | None = None) -> "GammaCombination":
        """Parse "g0+g2+g4", or a k-index list "0,1,2" or a coefficient string "111" by poly2's one reader."""
        t = text.strip().replace(" ", "").lower()
        if "g" in t:
            ks = []
            for part in t.split("+"):
                if not part.startswith("g") or not part[1:].isdigit():
                    raise ValueError(f"cannot parse gamma term {part!r}")
                sub = int(part[1:])
                if sub % 2:
                    raise ValueError(f"gamma subscripts are even, got {sub}")
                ks.append(sub // 2)
            return cls.from_indices(ks, n)
        read = _read_operand(text, "gamma combination")
        return cls(read, n) if isinstance(read, int) else cls.from_indices(read, n)

    @property
    def indices(self) -> tuple:
        """The k-indices with coefficient 1, ascending."""
        return self.poly().exponents()

    @property
    def in_monoid(self) -> bool:
        """True iff the combination lies in the identity coset (gamma(0) present)."""
        return bool(self.mask & 1)

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    def at(self, n: int) -> "GammaCombination":
        """Bind the stored coefficients to dimension n (canonicalizing them)."""
        return GammaCombination(self.mask, n)

    def poly(self) -> BinPoly:
        """The coefficient polynomial: gamma(2k) contributes X^k."""
        return BinPoly(self.mask)

    def gamma_string(self) -> str:
        if self.mask == 0:
            return "0"
        return "+".join(f"g{2 * k}" for k in self.indices)

    def poly_string(self) -> str:
        return self.poly().to_string()

    def __add__(self, other):
        if self.n != other.n:
            raise ValueError("cannot add combinations on different dimensions")
        return GammaCombination(self.mask ^ other.mask, self.n)

    def __eq__(self, other):
        return (
            isinstance(other, GammaCombination)
            and self.mask == other.mask
            and self.n == other.n
        )

    def __hash__(self):
        return hash((self.mask, self.n))

    def __str__(self):
        return self.gamma_string()

    def __repr__(self):
        return f"GammaCombination({bin(self.mask)}, n={self.n})"


def gamma_term(k: int, n: int | None = None) -> GammaCombination:
    """The single map gamma(2k) as a combination."""
    return GammaCombination(1 << k, n)


def identity(n: int | None = None) -> GammaCombination:
    """gamma(0), the identity map."""
    return GammaCombination(1, n)


def chi(n: int | None = None) -> GammaCombination:
    """The map x_i -> x_i + x_{i+2}(1 + x_{i+1}): gamma(0) + gamma(2)."""
    return GammaCombination(0b11, n)


def kappa(n: int | None = None) -> GammaCombination:
    """gamma(0) + gamma(2) + gamma(4), the coefficient polynomial 1 + X + X^2."""
    return GammaCombination(0b111, n)


def evaluate(f: GammaCombination, x: BitVector) -> BitVector:
    """Value at x, by one running keep over the terms of the canonical form on x.n."""
    if f.n is not None and f.n != x.n:
        raise ValueError(f"combination on n={f.n} applied to a vector of n={x.n}")
    return BitVector(x.n, combination_values(f.at(x.n).mask, x.bits, x.n))


def phi(f: GammaCombination) -> BinPoly:
    """The residue of the coefficient polynomial in the ring for dimension f.n:
    the bound mask, canonical since the combination was built."""
    if f.n is None:
        raise ValueError("bind the combination to a dimension first, e.g. f.at(n)")
    return f.poly()


def psi(a: BinPoly, mod: Modulus) -> GammaCombination:
    """The combination on dimension mod.n with the coefficients of a, reduced."""
    return GammaCombination(a.bits, mod.n)


def compose(f: GammaCombination, g: GammaCombination) -> GammaCombination:
    """The composition f(g(x)), computed through the polynomial ring.

    The inner map g must lie in the identity coset; the outer map may be
    any combination.  Both operands must be bound to the same dimension,
    or both unbound (then the product is formal, valid on every n).
    """
    if f.n != g.n:
        raise ValueError("cannot compose combinations on different dimensions")
    if not g.in_monoid:
        raise ValueError("inner map must contain gamma(0) for composition to stay in the span")
    if f.n is None:
        return GammaCombination((f.poly() * g.poly()).bits, None)
    mod = Modulus(f.n)
    return psi(ring_mul(phi(f), phi(g), mod), mod)


def compose_oracle(f: GammaCombination, g: GammaCombination):
    """Exhaustive value table of x -> f(g(x)), computed pointwise, n <= ORACLE_LIMIT.

    Independent of the ring arithmetic; used to verify compose().
    """
    if f.n != g.n:
        raise ValueError("cannot compose combinations on different dimensions")
    if f.n is None:
        raise ValueError("oracle needs a bound dimension")
    tables.check_limit(f.n, tables.ORACLE_LIMIT, "composition oracle")
    tf = tables.function_table(f.mask, f.n)
    tg = tables.function_table(g.mask, g.n)
    return tf[tg]
