"""Independent oracles for the tests: reference implementations that import
nothing from shiftperm, so that a check against one of them never rests on the
code it checks.  Coefficient masks are plain ints, bit i the coefficient of X^i.

The shift-and-add product and long division, and on them powers, gcd, inverse,
trial-division factoring, Rabin's irreducibility test and the order of X by
stepping; the order of 2 modulo an odd integer by stepping, a sieve of smallest
prime factors, and the unit count of the ring for an even n from the divisors of
n; a pointwise evaluator of combinations on one n-bit int; the local rule and de
Bruijn pair graph of a combination, for permutation status; the Moebius
transform and algebraic degree of a value table, and the largest difference
count of a value list, every difference scanned; and the ranges of canonical
coefficient masks on F_2^n, and the canonical mask one coefficient at a time.
"""

from math import gcd, isqrt

import numpy as np


def span_masks(n):
    """Every canonical coefficient mask on F_2^n: bits k < n on even n, 2k < n on odd n."""
    return range(1 << (n if n % 2 == 0 else (n + 1) // 2))


def monoid_masks(n):
    """The canonical masks of the combinations containing gamma(0)."""
    return span_masks(n)[1::2]


def per_bit_canonical_mask(mask, n):
    """Reference canonical form, one coefficient at a time: on odd n drop
    every k with 2k > n, on even n send k >= n/2 to n/2 + (k mod n/2)."""
    half = n // 2
    out = 0
    for k in range(mask.bit_length()):
        if not (mask >> k) & 1:
            continue
        if n % 2 == 0:
            out ^= 1 << (k if k < half else half + k % half)
        elif 2 * k <= n:
            out ^= 1 << k
    return out


def shift_and_add(a: int, b: int) -> int:
    """Carry-less product, one multiplier bit per step."""
    out = 0
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            out ^= a << i
    return out


def factor_product(pairs) -> int:
    """The mask of the product of g^e over the (g, e) pairs of a factorization, by
    shift-and-add; g is read through its coefficient mask g.bits."""
    out = 1
    for g, e in pairs:
        for _ in range(e):
            out = shift_and_add(out, g.bits)
    return out


def long_division(a: int, b: int) -> tuple:
    """(quotient, remainder) of coefficient masks a / b, one leading term per step."""
    q = 0
    while a.bit_length() >= b.bit_length():
        shift = a.bit_length() - b.bit_length()
        a ^= b << shift
        q |= 1 << shift
    return q, a


def powmod(base: int, e: int, m: int) -> int:
    """base^e modulo a nonzero coefficient mask m, right to left on shift_and_add and long_division."""
    r, base = long_division(1, m)[1], long_division(base, m)[1]
    while e:
        if e & 1:
            r = long_division(shift_and_add(r, base), m)[1]
        base = long_division(shift_and_add(base, base), m)[1]
        e >>= 1
    return r


def pointwise_value(mask: int, n: int, x: int) -> int:
    """Value at the packed state x in F_2^n of the combination whose gamma(2k)
    coefficient is bit k of mask, on one n-bit int.  gamma(2k) is S^(2k) x times
    the keep prod_{j odd < 2k} (1 + S^j x), so one running keep serves every
    term: position j = 1, 2, ... costs one rotation of x by j, then one AND into
    the keep at odd j, or one AND and one XOR into the value at j = 2k with bit
    k set.  Once the keep is 0 no later term adds anything.  It calls nothing of
    the package: the map-level checks rest on that."""
    full = (1 << n) - 1
    out, keep = x if mask & 1 else 0, full
    for j in range(1, 2 * mask.bit_length() - 1):
        if j % 2 == 0 and not mask >> j // 2 & 1:
            continue
        r = j % n
        rotated = (x >> r | x << n - r) & full
        if j % 2:
            keep &= ~rotated
            if not keep:
                break
        else:
            out ^= rotated & keep
    return out


def moebius(table, n):
    """Moebius (ANF) transform of a packed table, all coordinates at once."""
    t = table.copy()
    for i in range(n):
        s = 1 << i
        t = t.reshape(-1, 2 * s)
        t[:, s:] ^= t[:, :s]
        t = t.reshape(-1)
    return t


def anf_degree(table, n):
    """Degree of coordinate 0: the largest monomial in its ANF support."""
    support = np.flatnonzero(moebius(table, n) & np.uint64(1))
    return max(int(m).bit_count() for m in support)


def ddt_max_scalar(table):
    """Largest entry of the difference distribution table of a value list, over every
    nonzero input difference a, counted from each x with a dict."""
    size = len(table)
    best = 0
    for a in range(1, size):
        counts = {}
        for x in range(size):
            b = table[x ^ a] ^ table[x]
            counts[b] = counts.get(b, 0) + 1
        best = max(best, max(counts.values()))
    return best


def euclid_gcd(a: int, b: int) -> int:
    """gcd of coefficient masks by repeated long division."""
    while b:
        a, b = b, long_division(a, b)[1]
    return a


def euclid_inverse(a: int, m: int):
    """The inverse of a modulo m, of degree below that of m, by extended Euclid on
    long division and shift-and-add; None when gcd(a, m) is not 1."""
    r0, r1, s0, s1 = m, long_division(a, m)[1], 0, 1  # s_i a = r_i mod m
    while r1:
        q, r = long_division(r0, r1)
        r0, r1, s0, s1 = r1, r, s1, s0 ^ shift_and_add(s1, q)
    return long_division(s0, m)[1] if r0 == 1 else None


def trial_factor(f: int) -> list:
    """(factor, multiplicity) pairs of a nonzero coefficient mask f, ascending:
    every polynomial g of degree 1, 2, ... in turn is divided out as often as
    it divides, so only irreducibles do.  Once twice the degree of g passes
    that of the cofactor, the cofactor is 1 or irreducible."""
    out, g = [], 2
    while 2 * (g.bit_length() - 1) < f.bit_length():
        e = 0
        while not (qr := long_division(f, g))[1]:
            f, e = qr[0], e + 1
        if e:
            out.append((g, e))
        g += 1
    return out + [(f, 1)] if f != 1 else out


def x_order(f: int, cap: int):
    """The least k <= cap with X^k = 1 modulo f, by repeated multiplication by X; None past cap."""
    r = 1
    for k in range(1, cap + 1):
        r = long_division(r << 1, f)[1]
        if r == 1:
            return k
    return None


def ord2(t: int) -> int:
    """The multiplicative order of 2 modulo an odd t, by repeated doubling; 1 for t = 1."""
    o, r = 1, 2 % t
    while r != 1 % t:
        o, r = o + 1, 2 * r % t
    return o


def smallest_prime_factors(limit):
    """The smallest prime factor of each m < limit, by the sieve of Eratosthenes (m itself for m < 2)."""
    spf = list(range(limit))
    for p in range(2, isqrt(limit - 1) + 1):
        if spf[p] == p:
            for m in range(p * p, limit, p):
                if spf[m] == m:
                    spf[m] = p
    return spf


def units_from_divisors(n):
    """|U| on even n = 2^s m (m odd), h = n/2, t = 2^(s-1), o_e = ord_e(2):
    2^(h-1) prod_{e | m} (2^((t-1) o_e) (2^o_e - 1))^(phi(e)/o_e), as Phi_e
    splits into phi(e)/o_e irreducibles of degree o_e."""
    h, m = n // 2, n
    while m % 2 == 0:
        m //= 2
    t = h // m
    total = 1 << (h - 1)
    for e in range(1, m + 1):
        if m % e:
            continue
        totient = sum(1 for j in range(1, e + 1) if gcd(j, e) == 1)
        o = ord2(e)
        total *= ((1 << (t - 1) * o) * ((1 << o) - 1)) ** (totient // o)
    return total


def rabin_irreducible(f: int) -> bool:
    """Rabin's test (SIAM J. Comput. 9, 1980) on a coefficient mask f of degree
    d >= 1: f is irreducible iff X^(2^d) = X mod f and gcd(f, X^(2^(d/p)) + X) = 1
    for every prime p dividing d."""
    d = f.bit_length() - 1
    x = long_division(2, f)[1]

    def x_pow_2k(k):
        r = x
        for _ in range(k):
            r = long_division(shift_and_add(r, r), f)[1]
        return r

    primes = [p for p in range(2, d + 1) if d % p == 0 and all(p % q for q in range(2, p))]
    return all(euclid_gcd(f, x_pow_2k(d // p) ^ x) == 1 for p in primes) and x_pow_2k(d) == x

def local_rule(mask: int, window: int) -> int:
    """Coordinate 0 of the combination with gamma(2k) coefficient bit k of mask,
    from bit j = x_j of window: gamma(2k) gives x_{2k} prod_{j odd < 2k} (1 + x_j)."""
    out = 0
    for k in range(mask.bit_length()):
        if mask >> k & 1:
            term = window >> 2 * k & 1
            for j in range(1, 2 * k, 2):
                term &= ~window >> j & 1
            out ^= term
    return out


def pair_graph(mask: int):
    """The de Bruijn pair graph of the combination, as a 0/1 float32 matrix,
    and the mask of its off-diagonal states.

    Coordinate i reads the window x_i .. x_{i+w-1}, w = 2 L - 1 for a mask of
    bit length L.  A state is a pair (u, v) of (w-1)-bit windows; an edge
    appends one bit to each and exists when the two w-bit windows give the
    same output.  Pairs x, y of inputs on F_2^n with f(x) = f(y) are the
    closed walks of length n, and x != y exactly when the walk passes an
    off-diagonal state (Amoroso and Patt, JCSS 6, 1972; Sutner, Complex
    Systems 5, 1991).  No ring arithmetic is involved."""
    b = max(2 * mask.bit_length() - 2, 0)
    size = 1 << b
    rule = [local_rule(mask, x) for x in range(2 * size)]
    adj = np.zeros((size * size, size * size), dtype=np.float32)
    for u in range(size):
        for v in range(size):
            for a in (0, 1):
                for c in (0, 1):
                    ua, vc = u | a << b, v | c << b
                    if rule[ua] == rule[vc]:
                        adj[u * size + v, (ua >> 1) * size + (vc >> 1)] = 1
    off = np.array([u != v for u in range(size) for v in range(size)])
    return adj, off


def _bool_product(a, b):
    return np.minimum(a @ b, 1)  # entries count at most 256 walks: exact in float32


def _bool_power(adj, e: int):
    result = np.eye(len(adj), dtype=np.float32)
    while e:
        if e & 1:
            result = _bool_product(result, adj)
        adj = _bool_product(adj, adj)
        e >>= 1
    return result
