"""Bit-sliced exhaustive evaluation over the full input space F_2^n.

A value table is a numpy uint64 array indexed by the packed input x;
entry x holds the packed output.  Building a table costs at most two vectorized
rotations per coefficient position, which keeps scans over all 2^n
inputs (bijectivity, difference distribution) cheap at desk scale.
Everything here is brute force by design and guarded by explicit size
limits.
"""

from __future__ import annotations

import numpy as np

from .poly2 import BoundExceededError

BIJECTIVITY_LIMIT = 20
ORACLE_LIMIT = 16
DU_LIMIT = 14
DU_CEILING = 16  # largest n for any DDT scan: kappa takes about 1 s at n = 16, 15 s at 18
DDT_BATCH = 1 << 15  # input pairs per bincount in ddt_max


def check_ceiling(limit: int, what: str) -> None:
    """A scan limit may not exceed BIJECTIVITY_LIMIT, which bounds every table."""
    if limit > BIJECTIVITY_LIMIT:
        raise BoundExceededError(
            f"{what} limit n <= {limit} exceeds the ceiling n <= {BIJECTIVITY_LIMIT}"
        )


def check_limit(n: int, limit: int, what: str) -> None:
    check_ceiling(limit, what)
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


def function_table(mask: int, n: int) -> np.ndarray:
    """Value table of the combination whose gamma(2k) coefficient is bit k of mask.

    gamma(2k) = S^{2k} keep with keep = prod_{j odd < 2k} (1 + S^j); gamma(2k) adds the
    factor 1 + S^{2k-1} to the keep of gamma(2k - 2), so one running keep serves all terms,
    and gamma(0) is the identity."""
    ids = domain(n)
    full = np.uint64((1 << n) - 1)
    keep, out = np.full_like(ids, full), ids.copy() if mask & 1 else np.zeros_like(ids)
    for k in range(1, mask.bit_length()):
        keep &= rotate(ids, 2 * k - 1, n) ^ full
        if (mask >> k) & 1:
            out ^= rotate(ids, 2 * k, n) & keep
    return out


def is_bijective(table: np.ndarray) -> bool:
    seen = np.zeros(table.size, dtype=bool)
    seen[table] = True
    return bool(seen.all())


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
    That difference a is odd (else a >> 1 is a smaller rotation), so the
    pair {x, x ^ a} is counted once, from its even member 2u, whose
    partner is 2(u ^ (a >> 1)) + 1; row r of a batch is offset by r << n.
    """
    even, odd = table[0::2].astype(np.int64), table[1::2].astype(np.int64)
    halves = shift_class_representatives(n)[1:] >> 1
    rows = max(1, min(halves.size, DDT_BATCH // even.size))
    keyed = even + (np.arange(rows)[:, None] << n)
    best = 0
    for i in range(0, halves.size, rows):
        batch = halves[i:i + rows]
        diff = odd[np.arange(even.size) ^ batch[:, None]] ^ keyed[:batch.size]
        best = max(best, int(np.bincount(diff.ravel()).max()))
    return 2 * best
