"""Permutation analysis for combinations of the gamma maps.

The exact criteria work through the polynomial mirror: on odd
dimensions every combination containing gamma(0) permutes F_2^n, on
even n = 2^s * m (m odd) it permutes iff its coefficient polynomial is
coprime to 1 + X^m; the gcd is returned as a witness either way.
Brute-force counterparts (bijectivity scan, difference distribution,
ANF degree) run over all 2^n inputs below explicit size limits and are
deliberately independent of the ring arithmetic.

The dimension sets are captured by xi: for a combination with
coefficient polynomial F = g_1^{e_1} ... g_t^{e_t}, xi is the set
{2 ord(g_i)}, and the map permutes F_2^n exactly when no element of xi
divides n.  xi is a property of the formal combination; a combination
bound to some dimension contributes its canonical coefficients.

kappa = gamma(0) + gamma(2) + gamma(4) receives special support: its
inverse has a closed form built from the cofactors
(1 + X^{3k}) / (1 + X + X^2), and its complementing landscape (which
neighborhoods flip a bit) is exposed as a predicate.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy

from . import poly2, tables
from .bitstate import BitVector
from .gammaspan import GammaCombination, phi, psi
from .poly2 import BinPoly, ONE, X, ZERO, find_irreducible_of_order, x_power
from .ring import Modulus, ring_inverse
from .tables import ANF_LIMIT, BIJECTIVITY_LIMIT, DU_LIMIT

__all__ = [
    "AnalysisReport",
    "analyze",
    "is_permutation",
    "is_permutation_bruteforce",
    "inverse",
    "xi",
    "xi_upper_bound",
    "inv_membership",
    "realize_xi",
    "algebraic_degree",
    "differential_uniformity",
    "perturb",
    "kappa_cofactor",
    "kappa_inverse_closed_form",
    "kappa_flip_predicate",
]


def _bind(f: GammaCombination, n) -> GammaCombination:
    if n is None:
        if f.n is None:
            raise ValueError("a dimension is required: pass n or bind the combination")
        return f
    if f.n is not None and f.n != n:
        raise ValueError(f"combination is bound to n={f.n}, not n={n}")
    return f.at(n)


def _formal_poly(f) -> BinPoly:
    if isinstance(f, GammaCombination):
        return f.poly()
    if isinstance(f, BinPoly):
        return f
    raise TypeError(f"expected a GammaCombination or BinPoly, got {type(f).__name__}")


def is_permutation(f: GammaCombination, n: int | None = None):
    """Exact permutation test; returns (answer, witness gcd).

    Odd dimensions always give (True, 1).  On even n the witness is
    gcd(F, 1 + X^m) with m the largest odd divisor of n, and the map
    permutes iff the witness is 1.
    """
    g = _bind(f, n)
    if not g.in_monoid:
        raise ValueError("permutation criterion applies to combinations containing gamma(0)")
    if g.n % 2:
        return True, ONE
    m = Modulus(g.n).odd_part
    witness = poly2.gcd(g.poly(), x_power(m) + ONE)
    return witness == ONE, witness


def is_permutation_bruteforce(
    f: GammaCombination, n: int | None = None, limit: int = BIJECTIVITY_LIMIT
) -> bool:
    """Injectivity of the map over all 2^n inputs (oracle for the gcd criterion)."""
    g = _bind(f, n)
    tables.check_limit(g.n, limit, "bijectivity scan")
    return tables.is_bijective(tables.function_table(g.mask, g.n))


def inverse(f: GammaCombination, n: int | None = None) -> GammaCombination:
    """Compositional inverse, via inversion in the polynomial ring.

    Raises NonUnitError (carrying the gcd witness) for non-permutations.
    """
    g = _bind(f, n)
    if not g.in_monoid:
        raise ValueError("only combinations containing gamma(0) can be inverted")
    return psi(ring_inverse(phi(g)))


def xi(f) -> frozenset:
    """The minimal forbidden dimensions: {2 ord(g)} over the distinct
    irreducible factors g of the coefficient polynomial.

    The map permutes F_2^n exactly when no element divides n; the set is
    always finite and consists of doubled odd numbers.
    """
    F = _formal_poly(f)
    if F.is_zero:
        raise ValueError("xi is undefined for the zero combination")
    if F.constant_term != 1:
        raise ValueError("xi applies to combinations containing gamma(0)")
    return frozenset(2 * poly2.order(g) for g in poly2.factor(F).distinct())


def xi_upper_bound(f) -> frozenset:
    """Superset of xi needing only factor degrees: {2l : l | 2^d - 1}
    over the distinct irreducible factor degrees d."""
    F = _formal_poly(f)
    if F.is_zero:
        raise ValueError("xi is undefined for the zero combination")
    if F.constant_term != 1:
        raise ValueError("xi applies to combinations containing gamma(0)")
    out = set()
    for d in {g.degree for g in poly2.factor(F).distinct()}:
        out.update(2 * l for l in sympy.divisors((1 << d) - 1))
    return frozenset(out)


def inv_membership(f, n: int) -> bool:
    """True iff the map permutes F_2^n, decided purely from xi."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return all(n % t for t in xi(f))


def realize_xi(targets) -> GammaCombination:
    """A formal combination whose xi equals the given set of doubled odd numbers."""
    F = ONE
    for t in sorted(set(targets)):
        if t < 2 or t % 2 or (t // 2) % 2 == 0:
            raise ValueError(f"target {t} is not twice an odd number")
        F = F * find_irreducible_of_order(t // 2)
    return GammaCombination(F.bits, None)


def algebraic_degree(f: GammaCombination, n: int | None = None, limit: int = ANF_LIMIT) -> int:
    """Multivariate degree of the first coordinate function, by ANF transform.

    All coordinates share it by shift-invariance.  The zero function is
    an error, not a degree.
    """
    g = _bind(f, n)
    if g.is_zero:
        raise ValueError("the zero function has no algebraic degree")
    tables.check_limit(g.n, limit, "ANF transform")
    return tables.anf_degree(tables.function_table(g.mask, g.n), g.n)


def differential_uniformity(f: GammaCombination, n: int | None = None, limit: int = DU_LIMIT) -> int:
    """Largest difference distribution table entry, scanning one input
    difference per cyclic-shift class (exact for these shift-invariant maps)."""
    g = _bind(f, n)
    tables.check_limit(g.n, limit, "difference distribution scan")
    return tables.ddt_max(tables.function_table(g.mask, g.n), g.n)


def perturb(f, multiplier: BinPoly, m: int) -> GammaCombination:
    """Add multiplier * X * (X^m + 1) to the coefficient polynomial (m odd).

    Coprimality with X^m + 1 is untouched, so the result permutes every
    F_2^(2^s * m) on which f does.  The result is a formal combination.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError("m must be odd and positive")
    F = _formal_poly(f)
    if F.constant_term != 1:
        raise ValueError("perturbation applies to combinations containing gamma(0)")
    return GammaCombination((F + multiplier * X * (x_power(m) + ONE)).bits, None)


def kappa_cofactor(k: int) -> BinPoly:
    """The quotient (1 + X^{3k}) / (1 + X + X^2), zero for k = 0.

    Equals (1+X)(1 + X^3 + ... + X^{3(k-1)}): degree 3k-2, and the
    coefficient of X^i vanishes exactly for i = 2 mod 3.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return ZERO
    base = sum(1 << (3 * i) for i in range(k))
    return BinPoly(base ^ (base << 1))


def kappa_inverse_closed_form(n: int) -> BinPoly:
    """Canonical representative of the inverse of 1 + X + X^2 for dimension n.

    Built from the cofactors P(3k) = (1 + X^{3k}) / (1 + X + X^2):
    on odd n it is P(3k) reduced mod X^((n+1)/2) with k minimal such
    that 3k >= (n+1)/2; on even n it is 1 + X P(3k) + X^2 P(6k) for
    n = 6k+2 and 1 + X^2 P(3k) + X P(6k+3) for n = 6k+4.
    """
    if n < 4:
        raise ValueError("the closed form is stated for n >= 4")
    if n % 6 == 0:
        raise ValueError("kappa is not invertible when 6 divides n")
    if n % 2:
        k = (n + 6) // 6
        return kappa_cofactor(k) % x_power((n + 1) // 2)
    if n % 6 == 2:
        k = (n - 2) // 6
        return ONE + X * kappa_cofactor(k) + x_power(2) * kappa_cofactor(2 * k)
    k = (n - 4) // 6
    return ONE + x_power(2) * kappa_cofactor(k) + X * kappa_cofactor(2 * k + 1)


def kappa_flip_predicate(x: BitVector, i: int) -> int:
    """Whether kappa flips bit i of x, read off the neighborhood patterns.

    Bit i flips iff the window after position i matches 011, 01-0 or
    0001 (positions i+1..i+4, '-' arbitrary).  Agrees with
    x_i + kappa(x)_i for every x.
    """
    n = x.n
    if n < 5:
        raise ValueError("the window patterns need n >= 5")
    if not 0 <= i < n:
        raise IndexError(f"coordinate {i} out of range for n={n}")
    b1, b2, b3, b4 = x[i + 1], x[i + 2], x[i + 3], x[i + 4]
    if b1 == 0 and b2 == 1 and (b3 == 1 or b4 == 0):
        return 1
    if (b1, b2, b3, b4) == (0, 0, 0, 1):
        return 1
    return 0


@dataclass
class AnalysisReport:
    """Bundle of everything analyze() derives about one combination."""

    f: GammaCombination
    n: int
    is_permutation: bool
    gcd_witness: BinPoly
    inverse: GammaCombination | None
    xi: tuple
    algebraic_degree: int | None
    inverse_degree: int | None
    differential_uniformity: int | None

    def to_dict(self) -> dict:
        """JSON-ready tree with stable key names."""

        def combo(c):
            return None if c is None else {"gamma": c.gamma_string(), "poly": c.poly_string()}

        return {
            "n": self.n,
            "f": combo(self.f),
            "is_permutation": self.is_permutation,
            "gcd_witness": self.gcd_witness.to_string(),
            "inverse": combo(self.inverse),
            "xi": list(self.xi),
            "degree": self.algebraic_degree,
            "inverse_degree": self.inverse_degree,
            "differential_uniformity": self.differential_uniformity,
        }


def analyze(
    f: GammaCombination,
    n: int | None = None,
    anf_limit: int = ANF_LIMIT,
    du_limit: int = DU_LIMIT,
) -> AnalysisReport:
    """Full report: permutation status and witness, inverse, xi, degrees,
    and (within its limit) the brute-forced differential uniformity.

    Scan-based fields are None above their limits; everything else is
    exact at any dimension.
    """
    g = _bind(f, n)
    ok, witness = is_permutation(g)
    inv = inverse(g) if ok else None
    deg = inv_deg = du = None
    if g.n <= max(anf_limit, du_limit):
        table = tables.function_table(g.mask, g.n)
        if g.n <= anf_limit:
            deg = tables.anf_degree(table, g.n)
            if inv is not None:
                inv_deg = tables.anf_degree(tables.function_table(inv.mask, g.n), g.n)
        if g.n <= du_limit:
            du = tables.ddt_max(table, g.n)
    return AnalysisReport(
        f=g,
        n=g.n,
        is_permutation=ok,
        gcd_witness=witness,
        inverse=inv,
        xi=tuple(sorted(xi(g))),
        algebraic_degree=deg,
        inverse_degree=inv_deg,
        differential_uniformity=du,
    )
