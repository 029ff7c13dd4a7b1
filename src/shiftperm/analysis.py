"""Permutation analysis for combinations of the gamma maps.

The exact criteria work through the polynomial mirror: on odd
dimensions every combination containing gamma(0) permutes F_2^n, on
even n = 2^s * m (m odd) it permutes iff its coefficient polynomial is
coprime to 1 + X^m; ring.unit_witness owns that test and its gcd witness.
Brute-force counterparts (bijectivity scan, difference distribution)
run over all 2^n inputs below explicit size limits and are
deliberately independent of the ring arithmetic.  The algebraic degree
has a closed form in the canonical mask and needs no scan.

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
from math import prod

from . import poly2, tables
from .bitstate import BitVector
from .gammaspan import GammaCombination, phi, psi
from .poly2 import BinPoly, BoundExceededError, ONE, X, find_irreducible_of_order, x_power
from .ring import Modulus, NonUnitError, ring_inverse, unit_witness
from .tables import BIJECTIVITY_LIMIT, DU_CEILING, DU_LIMIT

XI_DIVISOR_CAP = 1 << 20  # divisors xi_upper_bound lists, summed over the 2^d - 1: 2^180 - 1 alone has 6291456


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

    The witness is ring.unit_witness: 1 on odd dimensions, on even n
    gcd(F, 1 + X^m) with m the largest odd divisor of n; the map
    permutes iff the witness is 1.
    """
    g = _bind(f, n)
    if not g.in_monoid:
        raise ValueError("permutation criterion applies to combinations containing gamma(0)")
    witness = unit_witness(g.poly(), Modulus(g.n))
    return witness == ONE, witness


def is_permutation_bruteforce(f: GammaCombination, n: int | None = None) -> bool:
    """Injectivity of the map over all 2^n inputs, n <= BIJECTIVITY_LIMIT
    (oracle for the gcd criterion)."""
    g = _bind(f, n)
    tables.check_limit(g.n, BIJECTIVITY_LIMIT, "bijectivity scan")
    return tables.is_bijective(tables.function_table(g.mask, g.n))


def inverse(f: GammaCombination, n: int | None = None) -> GammaCombination:
    """Compositional inverse, via inversion in the polynomial ring.

    Raises NonUnitError, carrying is_permutation's witness, for non-permutations.
    """
    g = _bind(f, n)
    if not g.in_monoid:
        raise ValueError("only combinations containing gamma(0) can be inverted")
    mod = Modulus(g.n)
    return psi(ring_inverse(phi(g), mod), mod)


def _xi_blocks(f) -> list:
    F = _formal_poly(f)
    if F.is_zero:
        raise ValueError("xi is undefined for the zero combination")
    if F.constant_term != 1:
        raise ValueError("xi applies to combinations containing gamma(0)")
    return poly2.factor_degrees(F)


def _upper_bound(blocks) -> frozenset:
    if (count := sum(prod(e + 1 for e in ps.values()) for _, ps, _ in blocks)) > XI_DIVISOR_CAP:
        degrees = [d for d, _, _ in blocks]
        raise BoundExceededError(f"xi_upper_bound: {count} divisors of 2^d - 1, d in {degrees}, exceed {XI_DIVISOR_CAP}")
    out = set()
    for _, ps, _ in blocks:
        divisors = [1]
        for p, e in ps.items():
            divisors = [q * p**k for q in divisors for k in range(e + 1)]
        out.update(2 * l for l in divisors)
    return frozenset(out)


def xi(f) -> frozenset:
    """The minimal forbidden dimensions, doubled odd numbers: {2 ord(g)} over the
    distinct irreducible factors g of the coefficient polynomial.  The map
    permutes F_2^n exactly when no element divides n."""
    return frozenset(2 * o for o in poly2.factor_orders(_xi_blocks(f)))


def xi_upper_bound(f) -> frozenset:
    """{2l : l | 2^d - 1} over the irreducible factor degrees d, a superset of xi that needs
    no order; more than XI_DIVISOR_CAP divisors in all raise BoundExceededError before any is listed."""
    return _upper_bound(_xi_blocks(f))


def xi_sets(f) -> tuple:
    """(xi(f), xi_upper_bound(f)) from one factoring pass, the divisor cap checked before any order."""
    bound = _upper_bound(blocks := _xi_blocks(f))
    return frozenset(2 * o for o in poly2.factor_orders(blocks)), bound


def inv_membership(f, n: int) -> bool:
    """True iff the map permutes F_2^n, decided purely from xi."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return all(n % t for t in xi(f))


def realize_xi(targets) -> GammaCombination:
    """A formal combination whose xi equals the given set of doubled odd numbers:
    the product over the targets 2u of find_irreducible_of_order(u), which
    bounds its degree."""
    factors = []
    for t in sorted(set(targets)):
        if t < 2 or t % 2 or (t // 2) % 2 == 0:
            raise ValueError(f"target {t} is not twice an odd number")
        factors.append(find_irreducible_of_order(t // 2))
    return GammaCombination(prod(factors, start=ONE).bits, None)


def algebraic_degree(f: GammaCombination, n: int | None = None) -> int:
    """Multivariate degree of the coordinate functions (all equal by
    shift-invariance): min(M.bit_length(), n // 2 + 1) for the canonical
    mask M.  The zero function is an error, not a degree.

    Coordinate 0 of gamma(2k) is x_{2k} * prod_{j odd < 2k} (1 + x_j),
    indices mod n.  Its top monomial x_{2k} x_1 x_3 ... x_{2k-1} occurs
    in no lower term, so for 2k < n it has degree k + 1, above every
    gamma(2k') with k' < k.  The canonical form keeps 2k < n on odd n.
    On even n it keeps k < n, and each k >= n/2 gives the distinct even
    index 2k mod n beside all n/2 odd variables: top monomials of degree
    n/2 + 1 that no two terms share, so none cancel.
    """
    g = _bind(f, n)
    if g.is_zero:
        raise ValueError("the zero function has no algebraic degree")
    return min(g.mask.bit_length(), g.n // 2 + 1)


def differential_uniformity(f: GammaCombination, n: int | None = None, limit: int = DU_LIMIT) -> int:
    """Largest difference distribution table entry, scanning one input
    difference per cyclic-shift class (exact for these shift-invariant maps)."""
    g = _bind(f, n)
    tables.check_limit(g.n, limit, "difference distribution scan")
    tables.check_limit(g.n, DU_CEILING, "difference distribution scan")
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


def combo_dict(c: GammaCombination | None) -> dict | None:
    """Both spellings of a combination, as the reports print them."""
    return None if c is None else {"gamma": c.gamma_string(), "poly": c.poly_string()}


@dataclass
class AnalysisReport:
    """Bundle of everything analyze() derives about one combination."""

    f: GammaCombination
    n: int
    is_permutation: bool
    gcd_witness: BinPoly
    inverse: GammaCombination | None
    xi: tuple
    algebraic_degree: int
    inverse_degree: int | None
    differential_uniformity: int | None

    def to_dict(self) -> dict:
        """JSON-ready tree with stable key names."""
        return {
            "n": self.n,
            "f": combo_dict(self.f),
            "is_permutation": self.is_permutation,
            "gcd_witness": self.gcd_witness.to_string(),
            "inverse": combo_dict(self.inverse),
            "xi": list(self.xi),
            "degree": self.algebraic_degree,
            "inverse_degree": self.inverse_degree,
            "differential_uniformity": self.differential_uniformity,
        }


def analyze(f: GammaCombination, n: int | None = None, du_limit: int = DU_LIMIT) -> AnalysisReport:
    """Full report: permutation status and witness, inverse, xi, degrees,
    and (within its limit) the brute-forced differential uniformity.

    The differential uniformity is None above its limit.  xi comes first,
    and its bounds (FACTOR_DEGREE_LIMIT on the canonical polynomial,
    RHO_BUDGET on each 2^d - 1) refuse the whole report with
    BoundExceededError before the inversion, whose NonUnitError carries
    is_permutation's witness.
    """
    g = _bind(f, n)
    tables.check_ceiling(du_limit, "difference distribution scan")
    forbidden = tuple(sorted(xi(g)))
    du = differential_uniformity(g, limit=du_limit) if g.n <= du_limit else None
    try:
        inv, witness = inverse(g), ONE
    except NonUnitError as e:
        inv, witness = None, e.witness
    return AnalysisReport(
        f=g,
        n=g.n,
        is_permutation=inv is not None,
        gcd_witness=witness,
        inverse=inv,
        xi=forbidden,
        algebraic_degree=algebraic_degree(g),
        inverse_degree=None if inv is None else algebraic_degree(inv),
        differential_uniformity=du,
    )
