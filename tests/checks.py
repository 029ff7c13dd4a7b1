"""Exhaustive invariant checks shared by the module tests and the acceptance run,
call counters, the one runner of a command line (run_main) and the bounded
child-process runners.  The reference implementations the checks and tests
compare against are in oracles.py, which imports nothing from shiftperm.

Each check raises AssertionError on the first violation and returns
the number of cases it verified, so callers can sanity-check coverage.
"""

import contextlib
import io
import json
import os
import pathlib
import random
import resource
import select
import subprocess
import sys
import time

from shiftperm.bitstate import BitVector, eval_gamma
from shiftperm.gammaspan import GammaCombination, evaluate, kappa
from shiftperm.analysis import (
    inv_membership,
    is_permutation,
    is_permutation_bruteforce,
    kappa_cofactor,
    kappa_flip_predicate,
)
from shiftperm.cli import main
from shiftperm.poly2 import BinPoly, ONE, x_power

from oracles import _bool_power, _bool_product, monoid_masks, pair_graph


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
        for mask in monoid_masks(n):
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


TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src"
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(TESTS)]))  # the package and these helpers
CHILD_MEMORY = 400 << 20  # bytes of address space: the interpreter and numpy fit, a 10^10-bit int does not


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_MEMORY, CHILD_MEMORY))


def run_bounded(code: str, *args: str, timeout: float, input: str | None = None) -> subprocess.CompletedProcess:
    """Run python -c code under CHILD_ENV, under CHILD_MEMORY (set in the
    child only) and a timeout, so that a regression that hangs or allocates
    without bound fails at once instead of stalling the suite."""
    return subprocess.run(
        [sys.executable, "-c", code, *args], env=CHILD_ENV, input=input, capture_output=True, text=True,
        timeout=timeout, preexec_fn=_limit_memory,
    )


def run_main(argv) -> tuple:
    """(exit code, stdout, stderr, seconds) of cli.main(argv), run in this
    process under redirected streams; argparse's SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


# the bounded CLI child: one JSON argv per line in, one JSON run_main answer per line out
_CLI_SERVER = """
import json, sys
from checks import run_main
for line in sys.stdin:
    print(json.dumps(run_main(json.loads(line))), flush=True)
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
    through run_main in one bounded child; an uncaught exception fails here."""
    proc = run_bounded(_CLI_SERVER, timeout=timeout, input="".join(json.dumps(a) + "\n" for a in argvs))
    assert proc.returncode == 0, proc.stderr
    return [tuple(json.loads(line)) for line in proc.stdout.splitlines()]


class BoundedCli:
    """One long-lived bounded child that runs command lines through run_main
    as they come.  A child that dies, from an uncaught exception or exhausted
    memory, or gives no answer within timeout seconds fails the call, and the
    next call starts a new one."""

    def __init__(self, timeout: float):
        self.timeout, self.proc = timeout, None

    def run(self, argv) -> tuple:
        if self.proc is None:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _CLI_SERVER], env=CHILD_ENV,
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
