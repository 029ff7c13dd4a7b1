"""The polynomial mirror: composition becomes multiplication of residues.

A combination sum(a_k gamma(2k)) corresponds to the residue of
sum(a_k X^k) modulo X^((n+1)/2) (odd n) or X^n + X^(n/2) (even n).
Composition of maps is multiplication there, bijectivity is being a
unit, and inverting a map is a Newton lifting of the inverse modulo the
parts X^(n/2) and (X^m + 1)^(2^(s-1)) of the modulus (n = 2^s m, m odd).
"""

import numpy as np

from shiftperm import (
    BinPoly,
    GammaCombination,
    Modulus,
    chi,
    compose,
    compose_oracle,
    factor,
    gamma_term,
    is_unit,
    phi,
    tables,
    unit_group_order,
)

n = 8
f = GammaCombination.parse("g0+g4+g6", n)
print("f       =", f, " <-> ", phi(f), f"  in F_2[X]/(X^{n}+X^{n//2})")

# composing with a single gamma term shifts every index
g2 = gamma_term(1, n)
print("g2 o f  =", compose(g2, f), " <-> X *", phi(f))
print()

# compose through the ring, then cross-check against pointwise evaluation
g = GammaCombination.parse("g0+g2+g8", n)
h = compose(f, g)
print("f o g   =", h)
oracle = compose_oracle(f, g)
print("matches the pointwise oracle:", np.array_equal(tables.function_table(h.mask, n), oracle))
print()

# the permutations among combinations form a group of unit_group_order(n) elements
for dim in (5, 6, 8, 10):
    mod = Modulus(dim)
    units = [
        GammaCombination(m, dim).gamma_string()
        for m in range(1, 1 << mod.degree, 2)
        if is_unit(BinPoly(m), mod)
    ]
    factors = " * ".join(
        f"({g})^{e}" if e > 1 else f"({g})" for g, e in factor(mod.poly)
    )
    print(f"n = {dim:2d}: modulus factors {factors}")
    print(f"        {unit_group_order(mod):4d} permutations; first few: {units[:4]}")
print()

# chi is one of them only on odd dimensions
for dim in (5, 6):
    print(f"chi on n={dim}: phi(chi) = {phi(chi(dim))}, unit: {is_unit(phi(chi(dim)), Modulus(dim))}")
