"""Bit-sliced exhaustive evaluation over the full input space F_2^n.

A value table is a numpy uint64 array indexed by the packed input x;
entry x holds the packed output.  Building a table costs a handful of
vectorized word operations per gamma term, which keeps scans over all
2^n inputs (bijectivity, difference distribution, algebraic normal
form) cheap at desk scale.  Everything here is brute force by design
and guarded by explicit size limits.
"""

from __future__ import annotations

import numpy as np

BIJECTIVITY_LIMIT = 20
ORACLE_LIMIT = 16
ANF_LIMIT = 16
DU_LIMIT = 14


class BoundExceededError(ValueError):
    """An exhaustive scan would exceed its configured size limit."""


def check_limit(n: int, limit: int, what: str) -> None:
    if n > limit:
        raise BoundExceededError(f"{what} over F_2^{n} exceeds the limit n <= {limit}")


def domain(n: int) -> np.ndarray:
    """All packed inputs of F_2^n in order."""
    return np.arange(1 << n, dtype=np.uint64)


def rotate(vals: np.ndarray, j: int, n: int) -> np.ndarray:
    """Cyclic left shift on packed states: bit i of the result is bit (i+j) mod n."""
    j %= n
    full = np.uint64((1 << n) - 1)
    return ((vals >> np.uint64(j)) | (vals << np.uint64(n - j))) & full


def gamma_table(k: int, n: int) -> np.ndarray:
    """Value table of gamma(2k) on F_2^n."""
    ids = domain(n)
    if k == 0:
        return ids
    full = np.uint64((1 << n) - 1)
    acc = rotate(ids, (2 * k) % n, n)
    for j in sorted({jj % n for jj in range(1, 2 * k, 2)}):
        acc &= rotate(ids, j, n) ^ full
    return acc


def function_table(mask: int, n: int) -> np.ndarray:
    """Value table of the combination whose gamma(2k) coefficient is bit k of mask."""
    out = np.zeros(1 << n, dtype=np.uint64)
    for k in range(mask.bit_length()):
        if (mask >> k) & 1:
            out ^= gamma_table(k, n)
    return out


def is_bijective(table: np.ndarray) -> bool:
    return np.unique(table).size == table.size


def moebius(table: np.ndarray, n: int) -> np.ndarray:
    """Moebius (ANF) transform of a packed table, all coordinates at once."""
    t = table.copy()
    for i in range(n):
        s = 1 << i
        t = t.reshape(-1, 2 * s)
        t[:, s:] ^= t[:, :s]
        t = t.reshape(-1)
    return t


def anf_degree(table: np.ndarray, n: int, coord: int = 0) -> int:
    """Multivariate degree of one coordinate function, from its ANF support."""
    coeffs = moebius(table, n)
    support = np.flatnonzero((coeffs >> np.uint64(coord)) & np.uint64(1))
    if support.size == 0:
        raise ValueError("the zero function has no algebraic degree")
    return max(int(m).bit_count() for m in support)


def shift_class_representatives(n: int) -> np.ndarray:
    """The lexicographically least element of every cyclic-shift class."""
    ids = domain(n)
    least = ids.copy()
    for j in range(1, n):
        np.minimum(least, rotate(ids, j, n), out=least)
    return np.flatnonzero(least == ids)


def ddt_max(table: np.ndarray, n: int) -> int:
    """Largest entry of the difference distribution table, over nonzero input
    differences.

    The table must be shift-invariant, as every table function_table
    builds is: the row of a rotated difference is then the rotated row,
    so one difference per cyclic-shift class covers all row maxima.
    """
    size = 1 << n
    ids = np.arange(size)
    best = 0
    for a in shift_class_representatives(n)[1:]:
        diff = (table ^ table[ids ^ a]).astype(np.int64)
        best = max(best, int(np.bincount(diff, minlength=size).max()))
    return best
