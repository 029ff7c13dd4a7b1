"""Shift-invariant chi-like maps on F_2^n, studied through the unit group
of a binary polynomial residue ring.

The building blocks: bitstate evaluates the gamma product maps exactly;
poly2 is GF(2)[X] arithmetic with factorization and orders; ring hosts
the residue rings F_2[X]/(m(X)) whose units mirror the bijections;
gammaspan translates between gamma combinations and residues (phi/psi)
and composes through the ring; analysis decides permutation status,
synthesizes inverses, computes xi, degrees and differential uniformity;
cli exposes everything as commands.
"""

from .bitstate import BitVector, eval_gamma
from .poly2 import (
    ONE,
    X,
    ZERO,
    BinPoly,
    Factorization,
    ext_gcd,
    factor,
    find_irreducible_of_order,
    gcd,
    irreducible_polys,
    is_irreducible,
    order,
    x_power,
)
from .ring import (
    Modulus,
    NonUnitError,
    RingElement,
    is_unit,
    modulus_factorization,
    reduce,
    ring_inverse,
    ring_mul,
    ring_one,
    unit_group_order,
)
from .gammaspan import (
    GammaCombination,
    chi,
    compose,
    compose_oracle,
    evaluate,
    gamma_term,
    identity,
    kappa,
    phi,
    psi,
)
from .analysis import (
    AnalysisReport,
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
from .tables import (
    ANF_LIMIT,
    BIJECTIVITY_LIMIT,
    DU_LIMIT,
    ORACLE_LIMIT,
    BoundExceededError,
)

__version__ = "0.1.0"
