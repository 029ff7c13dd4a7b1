"""Exhaustive invariant checks shared by the module tests and the acceptance run,
a pointwise evaluator of combinations on one n-bit int, the shift-and-add
product, long-division power, gcd and inverse, trial-division factoring and
Rabin's irreducibility test the arithmetic tests compare against, the order of
X by stepping, the de Bruijn pair-graph oracle for permutation status, call
counters and bounded child-process runners.

Each check raises AssertionError on the first violation and returns
the number of cases it verified, so callers can sanity-check coverage.
"""

import json
import os
import pathlib
import random
import resource
import select
import subprocess
import sys

import numpy as np

from shiftperm.bitstate import BitVector, eval_gamma
from shiftperm.gammaspan import GammaCombination, evaluate, kappa
from shiftperm.analysis import (
    inv_membership,
    is_permutation,
    is_permutation_bruteforce,
    kappa_cofactor,
    kappa_flip_predicate,
)
from shiftperm.poly2 import BinPoly, ONE, x_power


def shift_and_add(a: int, b: int) -> int:
    """Carry-less product, one multiplier bit per step."""
    out = 0
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            out ^= a << i
    return out


def factor_product(pairs) -> BinPoly:
    """The product of g^e over (g, e) pairs, by shift-and-add."""
    out = 1
    for g, e in pairs:
        for _ in range(e):
            out = shift_and_add(out, g.bits)
    return BinPoly(out)


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


def check_shift_invariance(max_n: int = 10) -> int:
    """eval_gamma commutes with the cyclic shift for every k <= 2n and input."""
    cases = 0
    for n in range(1, max_n + 1):
        for k in range(2 * n + 1):
            for v in range(1 << n):
                x = BitVector(n, v)
                assert eval_gamma(k, x.shift(1)) == eval_gamma(k, x).shift(1), (n, k, v)
                cases += 1
    return cases


def check_divisor_closure(max_n: int = 12) -> int:
    """A permutation on F_2^n stays one on F_2^d for every divisor d."""
    cases = 0
    for n in range(2, max_n + 1):
        divisors = [d for d in range(1, n) if n % d == 0]
        dim = n if n % 2 == 0 else (n + 1) // 2
        for mask in range(1, 1 << dim, 2):
            f = GammaCombination(mask)  # formal, rebound per dimension
            if not is_permutation(f, n)[0]:
                continue
            for d in divisors:
                assert is_permutation(f, d)[0], (n, mask, d)
                cases += 1
    return cases


def check_xi_membership(max_deg: int = 5, max_n: int = 24, samples: int = 40, seed: int = 7) -> int:
    """Deciding by xi agrees with the direct gcd criterion on every dimension."""
    rng = random.Random(seed)
    cases = 0
    for _ in range(samples):
        mask = 1 | (rng.randrange(1 << max_deg) << 1)
        f = GammaCombination(mask)
        for n in range(1, max_n + 1):
            assert inv_membership(f, n) == is_permutation(f, n)[0], (mask, n)
            cases += 1
    return cases


def check_p3k_identity(max_k: int = 32) -> int:
    """(1+X+X^2) * P(3k) = 1 + X^{3k}; support avoids exponents 2 mod 3; degree 3k-2."""
    three = BinPoly.parse("111")
    for k in range(1, max_k + 1):
        p = kappa_cofactor(k)
        assert three * p == x_power(3 * k) + ONE, k
        assert p.degree == 3 * k - 2, k
        for i in range(p.degree + 1):
            bit = (p.bits >> i) & 1
            assert (bit == 0) == (i % 3 == 2), (k, i)
    assert kappa_cofactor(0).is_zero
    return max_k


def check_kappa_landscape(dims=(5, 6, 7, 8, 9, 10)) -> int:
    """The window patterns reproduce x + kappa(x) bit for bit."""
    cases = 0
    for n in dims:
        k = kappa(n)
        for v in range(1 << n):
            x = BitVector(n, v)
            flipped = x + evaluate(k, x)
            for i in range(n):
                assert kappa_flip_predicate(x, i) == flipped[i], (n, v, i)
                cases += 1
    return cases


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


def check_pair_graph(max_n: int = 130, large=()) -> int:
    """For every mask of bit length <= 3, is_permutation agrees with the pair
    graph on n = 1..max_n and on every n in large, and for n <= 10 the graph
    agrees with the bijectivity scan.  Masks without gamma(0) never permute,
    and the graph must say so."""
    cases = 0
    for mask in range(1, 8):
        adj, off = pair_graph(mask)

        def check(n, walks):
            injective = not walks.diagonal()[off].any()
            f = GammaCombination(mask, n)
            if mask & 1:
                assert is_permutation(f)[0] == injective, (mask, n)
            else:
                assert not injective, (mask, n)
            if n <= 10:
                assert is_permutation_bruteforce(f) == injective, (mask, n)

        walks = adj
        for n in range(1, max_n + 1):
            check(n, walks)
            walks = _bool_product(walks, adj)
        for n in large:
            check(n, _bool_power(adj, n))
        cases += max_n + len(large)
    return cases


SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
CHILD_MEMORY = 400 << 20  # bytes of address space: the interpreter and numpy fit, a 10^10-bit int does not


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def run_bounded(code: str, *args: str, timeout: float, input: str | None = None) -> subprocess.CompletedProcess:
    """Run python -c code with the package importable, under CHILD_MEMORY
    (set in the child only) and a timeout, so that a regression that hangs
    or allocates without bound fails at once instead of stalling the suite."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=env, input=input, capture_output=True, text=True,
        timeout=timeout, preexec_fn=_limit_memory,
    )


_CLI_SERVER = """
import contextlib, io, json, sys, time
from shiftperm.cli import main
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(json.loads(line))
        except SystemExit as e:
            code = e.code
    print(json.dumps([code, out.getvalue(), err.getvalue(), time.perf_counter() - start]), flush=True)
"""


def count_calls(monkeypatch, module, *names) -> dict:
    """Wrap each named function of module so that it logs its arguments: name -> list of calls."""
    calls = {}
    for name in names:
        real, calls[name] = getattr(module, name), []
        monkeypatch.setattr(module, name, lambda *a, real=real, log=calls[name]: log.append(a) or real(*a))
    return calls


def run_cli_bounded(*argvs, timeout: float = 60) -> list:
    """(exit code, stdout, stderr, seconds) of each command line, run in turn
    through cli.main in one bounded child; an uncaught exception fails here."""
    proc = run_bounded(_CLI_SERVER, timeout=timeout, input="".join(json.dumps(a) + "\n" for a in argvs))
    assert proc.returncode == 0, proc.stderr
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


class BoundedCli:
    """One long-lived bounded child that runs command lines through cli.main
    as they come: one JSON argv per line in, one JSON (exit code, stdout,
    stderr, seconds) per line out.  A child that dies, from an uncaught
    exception or exhausted memory, or gives no answer within timeout seconds
    fails the call, and the next call starts a new one."""

    def __init__(self, timeout: float):
        self.timeout, self.proc = timeout, None

    def run(self, argv) -> tuple:
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _CLI_SERVER], env=dict(os.environ, PYTHONPATH=str(SRC)),
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                preexec_fn=_limit_memory,
            )
        try:
            self.proc.stdin.write(json.dumps(argv) + "\n")
            self.proc.stdin.flush()
            answered = select.select([self.proc.stdout], [], [], self.timeout)[0]
            line = self.proc.stdout.readline() if answered else None
        except BrokenPipeError:
            line = ""
        if line:
            return tuple(json.loads(line))
        err = self.close()
        raise AssertionError(f"{argv}: " + (f"no answer within {self.timeout} s" if line is None else err))

    def close(self) -> str:
        """Stop the child, if any; what it wrote to stderr."""
        if self.proc is None:
            return ""
        self.proc.kill()
        err = self.proc.communicate()[1]
        self.proc = None
        return err
