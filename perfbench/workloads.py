"""The four workloads: seeded input generation, one query, and its check.

Each workload is a closed loop: one client, no threads, the next query
is sent when the previous answer is back.  Inputs come from
random.Random(seed) only, never from the library.  Query mixes are
stratified in cycles (every cycle holds the same kinds of query in a
seeded order) so that runs with different seeds load the layers in the
same proportions.  A run that outlasts its inputs starts them again.

Checks use oracle.py or library calls other than the one being timed,
and run after the timed phase so they neither count in the latencies
nor warm caches the timed queries would otherwise find cold.
"""

from __future__ import annotations

import inspect
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import numpy as np

import oracle
# queries call through module attributes, so the tracer's patches see them
from shiftperm import analysis, gammaspan, poly2, ring, tables
from shiftperm.gammaspan import GammaCombination
from shiftperm.poly2 import BinPoly
from shiftperm.ring import Modulus, NonUnitError

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Raised:
    """A query ended in an exception; `witness` is set for NonUnitError."""

    kind: str
    message: str
    witness: int | None = None


def ring_degree(n: int) -> int:
    return (n + 1) // 2 if n % 2 else n


def monoid_mask(rng, n: int) -> int:
    """A uniform residue with constant term 1 (gamma(0) present)."""
    return rng.getrandbits(ring_degree(n)) | 1


def _nonzero_mask(rng, n: int) -> int:
    return rng.getrandbits(ring_degree(n)) or 1


def _random_poly(rng, degree: int) -> int:
    """Uniform polynomial of exact degree with constant term 1."""
    return (1 << degree) | rng.getrandbits(degree) | 1


def _random_irreducible(rng, degree: int) -> int:
    while True:
        f = _random_poly(rng, degree)
        if oracle.is_irreducible(f):
            return f


def _cycles(rng, count: int, make_cycle) -> list:
    out = []
    for _ in range(count):
        cycle = make_cycle(rng)
        rng.shuffle(cycle)
        out.extend(cycle)
    return out


def clear_caches() -> None:
    """Empty every functools cache bound in a shiftperm module, looking
    through the tracer's wrappers, so the next pass starts as cold as a
    fresh interpreter."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if name != "shiftperm" and not name.startswith("shiftperm."):
            continue
        for value in list(vars(module).values()):
            if not callable(value):
                continue
            fn = inspect.unwrap(value, stop=lambda f: hasattr(f, "cache_clear"))
            if hasattr(fn, "cache_clear") and id(fn) not in seen:
                seen.add(id(fn))
                fn.cache_clear()


def same(a, b) -> bool:
    """Whether two answers to one query are equal.  Tables are numpy arrays;
    a CLI answer is its exit code and stdout (a traced CLI writes timings to
    stderr)."""
    if isinstance(a, CliOutcome) and isinstance(b, CliOutcome):
        return (a.code, a.stdout) == (b.code, b.stdout)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def digest_key(queries) -> str:
    """Canonical text of a query list (ints in hex, so huge masks stay cheap)."""

    def enc(v):
        if isinstance(v, bool) or v is None or isinstance(v, str):
            return v
        if isinstance(v, int):
            return format(v, "x")
        if isinstance(v, (list, tuple)):
            return [enc(x) for x in v]
        return {k: enc(x) for k, x in sorted(v.items())}

    return json.dumps(enc(queries), separators=(",", ":"))


# ---------------------------------------------------------------- euclid-large

# six sizes log-spaced over 10^3 .. 6*10^4, each taken even and odd
EUCLID_SIZES = tuple(round(1000 * 60 ** (i / 5)) & ~1 for i in range(6))
EUCLID_N = tuple(n + parity for n in EUCLID_SIZES for parity in (0, 1))
EUCLID_OPS = ("is_permutation", "inverse", "compose")


def _euclid_cycle(rng) -> list:
    """Each op once at each n of EUCLID_N on random monoid elements (compose
    takes any nonzero outer map), plus kappa inverted at the largest even and
    odd n.  Cost is set by (op, n), so every seed meets the same cost classes;
    the draw decides which even-n operands are units."""
    cycle = []
    for n in EUCLID_N:
        for op in EUCLID_OPS:
            q = {"op": op, "n": n, "f": monoid_mask(rng, n)}
            if op == "compose":
                q["f"], q["g"] = _nonzero_mask(rng, n), monoid_mask(rng, n)
            cycle.append(q)
    cycle += [{"op": "inverse", "n": n, "f": 0b111} for n in EUCLID_N[-2:]]
    return cycle


EUCLID_CYCLES = 2  # one pass, about 5 s on a 2-core x86-64 VM


def euclid_generate(seed: int) -> list:
    return _cycles(random.Random(seed), EUCLID_CYCLES, _euclid_cycle)


def euclid_run(q):
    f = GammaCombination(q["f"], q["n"])
    if q["op"] == "is_permutation":
        ok, witness = analysis.is_permutation(f)
        return ok, witness.bits
    if q["op"] == "inverse":
        try:
            return analysis.inverse(f).mask
        except NonUnitError as e:
            return Raised("NonUnitError", str(e), e.witness.bits)
    return gammaspan.compose(f, GammaCombination(q["g"], q["n"])).mask


def _odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n


def _gcd_with_xm1(F: int, n: int) -> int:
    """gcd(F, X^m + 1) for the odd part m of n, folding X^m -> 1 first."""
    m = _odd_part(n)
    low = (1 << m) - 1
    while F >> m:
        F = (F & low) ^ (F >> m)
    return oracle.pgcd((1 << m) | 1, F)


def euclid_verify(q, out) -> str | None:
    n, F = q["n"], q["f"]
    if q["op"] == "is_permutation":
        ok, witness = out
        if n % 2:
            return None if (ok, witness) == (True, 1) else "odd n must permute with witness 1"
        expected = _gcd_with_xm1(F, n)
        return None if (ok, witness) == (expected == 1, expected) else f"witness {witness:x} != gcd {expected:x}"
    if q["op"] == "inverse":
        if isinstance(out, Raised):
            w = out.witness
            if w is None or w == 1:
                return f"unexpected {out.kind}: {out.message}"
            if oracle.pmod(F, w) or oracle.pmod(oracle.ring_modulus(n), w):
                return "NonUnitError witness does not divide F and the modulus"
            g = _gcd_with_xm1(F, n)
            if g == 1 or oracle.pmod(w, g):
                return "NonUnitError witness disagrees with gcd(F, X^m + 1)"
            return None
        return None if oracle.ring_reduce(oracle.clmul(F, out), n) == 1 else "f * f^-1 != 1"
    expected = oracle.ring_reduce(oracle.clmul(F, q["g"]), n)
    return None if out == expected else "composition differs from f * g mod m"


# ---------------------------------------------------------------- factor-xi

FACTOR_MAX_DEGREE = 32
WALL_DEGREES = (14, 16)
MEMBERSHIP_N = (1, 64)
UNIT_N = (1, 40)
REALIZE_MAX_ORDER_DEGREE = 12
# targets 2u for odd u <= 63 whose irreducibles have degree ord_u(2) <= 12
REALIZE_TARGETS = tuple(
    2 * u for u in range(1, 64, 2) if oracle.multiplicative_order_of_2(u) <= REALIZE_MAX_ORDER_DEGREE
)


# one pass, about 8 s on a 2-core x86-64 VM, 4.3 s of it the three wall
# queries of degree 14-16; a multiple of 3 (wall degrees), 4 (degree deck)
# and 36 (target pairs), so every pass holds each of them equally often
FACTOR_CYCLES = 72
# each target is paired with the next REALIZE_OFFSETS targets, cyclically:
# 18 * 4 = 72 pairs, two per cycle, so each pair runs twice a pass
REALIZE_OFFSETS = 4
REALIZE_PAIRS = tuple(
    tuple(sorted((t, REALIZE_TARGETS[(i + k) % len(REALIZE_TARGETS)])))
    for i, t in enumerate(REALIZE_TARGETS)
    for k in range(1, REALIZE_OFFSETS + 1)
)


def factor_generate(seed: int) -> list:
    """Cycles of 13 queries: two of each op, and one xi of a product of two
    random irreducibles whose smaller degree steps through 14, 15, 16 (so the
    cold trial-division enumeration reaches degree 16 by the third cycle of
    every pass).  The polynomials have constant term 1 and degrees drawn from
    shuffled copies of 1..32, so every pass holds each degree equally often.
    realize_xi, whose cost depends strongly on its targets, runs each pair of
    REALIZE_PAIRS equally often, in a seeded order.  So the cost mix of a pass is the
    same for every seed; the seed draws the coefficients and the order."""
    rng = random.Random(seed)
    pairs = list(REALIZE_PAIRS) * (2 * FACTOR_CYCLES // len(REALIZE_PAIRS))
    rng.shuffle(pairs)
    degrees = []
    while len(degrees) < 8 * FACTOR_CYCLES:
        deck = list(range(1, FACTOR_MAX_DEGREE + 1))
        rng.shuffle(deck)
        degrees += deck

    def poly():
        return _random_poly(rng, degrees.pop())

    def cycle(i):
        out = []
        for j in range(2):
            out += [
                {"op": "xi", "f": poly()},
                {"op": "xi_upper_bound", "f": poly()},
                {"op": "inv_membership", "f": poly(), "n": rng.randint(*MEMBERSHIP_N)},
                {"op": "order", "f": poly()},
                {"op": "unit_group_order", "n": rng.randint(*UNIT_N)},
                {"op": "realize_xi", "targets": list(pairs[2 * i + j])},
            ]
        d1 = WALL_DEGREES[0] + i % 3
        wall = oracle.clmul(_random_irreducible(rng, d1), _random_irreducible(rng, rng.randint(d1, WALL_DEGREES[1])))
        out.append({"op": "xi", "f": wall})
        rng.shuffle(out)
        return out

    return [q for i in range(FACTOR_CYCLES) for q in cycle(i)]


def factor_run(q):
    op = q["op"]
    if op == "xi":
        return analysis.xi(BinPoly(q["f"]))
    if op == "xi_upper_bound":
        return analysis.xi_upper_bound(BinPoly(q["f"]))
    if op == "inv_membership":
        return analysis.inv_membership(BinPoly(q["f"]), q["n"])
    if op == "order":
        return poly2.order(BinPoly(q["f"]))
    if op == "unit_group_order":
        return ring.unit_group_order(Modulus(q["n"]))
    return analysis.realize_xi(q["targets"])


class FactorChecker:
    """Caches of verified facts, shared by the checks of one run."""

    def __init__(self):
        self.factorizations = {}
        self.unit_counts = {}
        self.primes = {}

    def factorization(self, f: int) -> list:
        """(irreducible, multiplicity) pairs from poly2.factor, accepted only
        if the product is f and every factor passes Rabin's test."""
        if f not in self.factorizations:
            pairs = [(g.bits, e) for g, e in poly2.factor(BinPoly(f))]
            prod = 1
            for g, e in pairs:
                if not oracle.is_irreducible(g):
                    raise AssertionError(f"factor {g:x} of {f:x} fails Rabin's test")
                for _ in range(e):
                    prod = oracle.clmul(prod, g)
            if prod != f:
                raise AssertionError(f"factors of {f:x} multiply to {prod:x}")
            self.factorizations[f] = pairs
        return self.factorizations[f]

    def mersenne_primes(self, d: int) -> list:
        if d not in self.primes:
            self.primes[d] = oracle.prime_factors((1 << d) - 1)
        return self.primes[d]

    def xi(self, f: int) -> frozenset:
        return frozenset(2 * oracle.irreducible_order(g) for g, _ in self.factorization(f))

    def units(self, n: int) -> int:
        if n not in self.unit_counts:
            self.unit_counts[n] = oracle.unit_count_exhaustive(n) if n <= 16 else oracle.unit_count_formula(n)
        return self.unit_counts[n]

    def check_order(self, f: int, l: int) -> str | None:
        if oracle.powmod(2, l, f) != 1:
            return f"f does not divide X^{l} + 1"
        primes = {2} | {p for g, _ in self.factorization(f) for p in self.mersenne_primes(g.bit_length() - 1)}
        rest = l
        for p in primes:
            while rest % p == 0:
                rest //= p
            if l % p == 0 and oracle.powmod(2, l // p, f) == 1:
                return f"order {l} is not minimal: X^{l // p} = 1"
        return None if rest == 1 else f"order {l} has a prime outside the factor orders"

    def __call__(self, q, out) -> str | None:
        op = q["op"]
        try:
            if op == "xi":
                return None if out == self.xi(q["f"]) else f"xi {sorted(out)} != {sorted(self.xi(q['f']))}"
            if op == "xi_upper_bound":
                degrees = {g.bit_length() - 1 for g, _ in self.factorization(q["f"])}
                expected = {2 * l for d in degrees for l in oracle.divisors((1 << d) - 1)}
                return None if out == expected else "xi upper bound differs"
            if op == "inv_membership":
                expected = analysis.is_permutation(GammaCombination(q["f"], q["n"]))[0]
                return None if out == expected else "inv_membership disagrees with is_permutation"
            if op == "order":
                return self.check_order(q["f"], out)
            if op == "unit_group_order":
                return None if out == self.units(q["n"]) else f"unit count {out} != {self.units(q['n'])}"
            if out.n is not None or self.xi(out.mask) != frozenset(q["targets"]):
                return "xi(realize_xi(t)) != t"
            return None
        except AssertionError as e:
            return str(e)


# ---------------------------------------------------------------- table-scan

SCAN_OPS = ("analyze", "differential_uniformity")
CHEAP_OPS = ("algebraic_degree", "is_permutation_bruteforce", "compose_oracle")
TABLE_N = (8, 14)


def _table_cycle(rng) -> list:
    """23 queries.  Full DDT scans: differential_uniformity at n = 14,
    analyze twice at n = 13, a coin-flip scan op once at n = 8, 9, 10 and 12
    and nine times at n = 11 (where both ops cost the same); and one of the
    three cheaper table ops, drawn, at each n = 8..14.  Cost follows
    (op, n), so p90 falls inside the n = 13 scans and p50 inside the n = 11
    scans for every seed."""
    lo, hi = TABLE_N
    cycle = [{"op": "differential_uniformity", "n": 14}, {"op": "analyze", "n": 13}, {"op": "analyze", "n": 13}]
    cycle += [{"op": rng.choice(SCAN_OPS), "n": n} for n in [8, 9, 10, 12] + [11] * 9]
    cycle += [{"op": rng.choice(CHEAP_OPS), "n": n} for n in range(lo, hi + 1)]
    for q in cycle:
        q["f"] = monoid_mask(rng, q["n"])
        if q["op"] == "compose_oracle":
            q["f"], q["g"] = _nonzero_mask(rng, q["n"]), monoid_mask(rng, q["n"])
    return cycle


TABLE_CYCLES = 2  # one pass, about 5 s on a 2-core x86-64 VM


def table_generate(seed: int) -> list:
    return _cycles(random.Random(seed), TABLE_CYCLES, _table_cycle)


def table_run(q):
    f = GammaCombination(q["f"], q["n"])
    op = q["op"]
    if op == "analyze":
        return analysis.analyze(f)
    if op == "differential_uniformity":
        return analysis.differential_uniformity(f)
    if op == "algebraic_degree":
        return analysis.algebraic_degree(f)
    if op == "is_permutation_bruteforce":
        return analysis.is_permutation_bruteforce(f)
    return gammaspan.compose_oracle(f, GammaCombination(q["g"], q["n"]))


def _gcd_criterion(F: int, n: int):
    """(permutes, witness) by the gcd criterion, computed by the oracle."""
    if n % 2:
        return True, 1
    g = _gcd_with_xm1(F, n)
    return g == 1, g


def anf_degree_oracle(mask: int, n: int) -> int:
    """Degree of coordinate 0, from the gamma definition evaluated on 0/1
    arrays and a Moebius transform over GF(2): no shiftperm code involved."""
    ids = np.arange(1 << n)
    x = [((ids >> i) & 1).astype(np.uint8) for i in range(n)]
    coord = np.zeros(1 << n, dtype=np.uint8)
    for k in range(mask.bit_length()):
        if (mask >> k) & 1:
            term = x[(2 * k) % n].copy()
            for j in {j % n for j in range(1, 2 * k, 2)}:
                term &= 1 - x[j]
            coord ^= term
    for i in range(n):
        view = coord.reshape(-1, 2, 1 << i)
        view[:, 1, :] ^= view[:, 0, :]
    support = np.flatnonzero(coord)
    return max(bin(int(m)).count("1") for m in support) if support.size else -1


def _du_ok(du, n) -> bool:
    return isinstance(du, int) and du % 2 == 0 and 2 <= du <= 1 << n


def table_verify(q, out) -> str | None:
    n, F, op = q["n"], q["f"], q["op"]
    if op == "analyze":
        ok, witness = _gcd_criterion(F, n)
        if (out.is_permutation, out.gcd_witness.bits) != (ok, witness):
            return "analyze permutation status disagrees with the gcd criterion"
        if ok != (out.inverse is not None):
            return "analyze inverse presence disagrees with the permutation status"
        if ok and oracle.ring_reduce(oracle.clmul(F, out.inverse.mask), n) != 1:
            return "analyze inverse is not an inverse"
        if out.algebraic_degree != anf_degree_oracle(F, n):
            return "analyze degree differs from the ANF oracle"
        if not _du_ok(out.differential_uniformity, n):
            return f"DU {out.differential_uniformity} is not an even value in [2, 2^n]"
        return None
    if op == "differential_uniformity":
        return None if _du_ok(out, n) else f"DU {out} is not an even value in [2, 2^n]"
    if op == "algebraic_degree":
        return None if out == anf_degree_oracle(F, n) else "degree differs from the ANF oracle"
    if op == "is_permutation_bruteforce":
        return None if out == _gcd_criterion(F, n)[0] else "bijectivity scan disagrees with the gcd criterion"
    expected = tables.function_table(gammaspan.compose(GammaCombination(F, n), GammaCombination(q["g"], n)).mask, n)
    return None if np.array_equal(out, expected) else "compose_oracle differs from the table of compose"


# ---------------------------------------------------------------- cli-cold


def _combo(text_kind: str, text: str, n) -> GammaCombination:
    if text_kind == "f":
        return GammaCombination.parse(text, n)
    return GammaCombination(BinPoly.parse(text).bits, n)


def _spelled(rng, mask: int) -> tuple:
    """The operand as --f gamma string or --poly coefficient string."""
    c = GammaCombination(mask, None)
    return ("f", c.gamma_string()) if rng.random() < 0.5 else ("poly", c.poly_string())


BAD_OPERANDS = (
    ["xi", "--f", "g3"],
    ["invert", "--n", "8", "--poly", "1a1"],
    ["analyze", "--f", "g0+g2"],
    ["du", "--n", "x", "--f", "g0"],
)
CLI_REALIZE_TARGETS = tuple(t for t in REALIZE_TARGETS if oracle.multiplicative_order_of_2(t // 2) <= 8)


def _cli_cycle(rng) -> list:
    """Each of the 8 verbs once on small operands, plus one query each that
    must exit with 1 (inverting a non-permutation), 2 (bad operand) and 3
    (scan over its limit)."""
    def operand(n):
        kind, text = _spelled(rng, monoid_mask(rng, n))
        return kind, text

    cycle = []
    n = rng.randint(5, 10)
    kind, text = operand(n)
    cycle.append({"verb": "analyze", "n": n, "kind": kind, "text": text, "code": 0})
    n = rng.choice(range(5, 16, 2))
    kind, text = operand(n)
    cycle.append({"verb": "invert", "n": n, "kind": kind, "text": text, "code": 0})
    n = rng.choice([None, rng.randint(4, 16)])
    kind, text = _spelled(rng, _nonzero_mask(rng, n or 8))
    inner = GammaCombination(monoid_mask(rng, n or 8), None).gamma_string()
    cycle.append({"verb": "compose", "n": n, "kind": kind, "text": text, "g": inner, "code": 0})
    kind, text = _spelled(rng, _random_poly(rng, rng.randint(1, 16)))
    cycle.append({"verb": "xi", "kind": kind, "text": text, "code": 0})
    cycle.append({"verb": "enumerate", "n": rng.randint(3, 8), "code": 0})
    n = rng.randint(5, 9)
    kind, text = operand(n)
    cycle.append({"verb": "du", "n": n, "kind": kind, "text": text, "code": 0})
    cycle.append({"verb": "table1", "code": 0})
    targets = sorted(rng.sample(CLI_REALIZE_TARGETS, rng.randint(1, 2)))
    cycle.append({"verb": "realize", "targets": targets, "code": 0})
    # exit 1: even weight means 1 + X divides F, so F is no unit for even n
    n = 2 * rng.randint(2, 8)
    mask = monoid_mask(rng, n)
    if bin(mask).count("1") % 2:
        mask ^= 1 << rng.randint(1, n - 1)
    kind, text = _spelled(rng, mask)
    cycle.append({"verb": "invert", "n": n, "kind": kind, "text": text, "code": 1})
    cycle.append({"argv": rng.choice(BAD_OPERANDS), "code": 2})
    n = rng.randint(6, 12)
    kind, text = operand(n)
    cycle.append({"verb": "du", "n": n, "kind": kind, "text": text, "max_du": rng.randint(1, n - 1), "code": 3})
    return cycle


CLI_CYCLES = 1  # one pass, about 6.5 s on a 2-core x86-64 VM


def cli_generate(seed: int) -> list:
    return _cycles(random.Random(seed), CLI_CYCLES, _cli_cycle)


def cli_argv(q) -> list:
    if "argv" in q:
        return list(q["argv"])
    argv = [q["verb"]]
    if "text" in q:
        argv += [f"--{q['kind']}", q["text"]]
    if q.get("n") is not None:
        argv += ["--n", str(q["n"])]
    if "g" in q:
        argv += ["--g", q["g"]]
    if "targets" in q:
        argv += ["--targets", ",".join(map(str, q["targets"]))]
    if "max_du" in q:
        argv += ["--max-du", str(q["max_du"])]
    return argv + ["--json"]


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str


def cli_command(traced: bool) -> list:
    if traced:
        return [sys.executable, "-X", "importtime", os.path.join(HERE, "cli_traced.py")]
    return [sys.executable, "-m", "shiftperm.cli"]


def cli_run(q, command, env=None):
    p = subprocess.run(command + cli_argv(q), env=env, capture_output=True, text=True, timeout=120)
    return CliOutcome(p.returncode, p.stdout, p.stderr)


def cli_expected(q):
    """The library's answer to a query, shaped like the CLI's --json tree."""
    def combo(c):
        return {"gamma": c.gamma_string(), "poly": c.poly_string()}

    verb, n = q["verb"], q.get("n")
    if verb == "analyze":
        return analysis.analyze(_combo(q["kind"], q["text"], n)).to_dict()
    if verb == "invert":
        f = _combo(q["kind"], q["text"], n)
        return {"n": n, "f": combo(f), "inverse": combo(analysis.inverse(f))}
    if verb == "compose":
        f, g = _combo(q["kind"], q["text"], n), GammaCombination.parse(q["g"], n)
        return {"n": n, "f": combo(f), "g": combo(g), "composition": combo(gammaspan.compose(f, g))}
    if verb == "xi":
        f = _combo(q["kind"], q["text"], None)
        return {"f": combo(f), "xi": sorted(analysis.xi(f)), "xi_upper_bound": sorted(analysis.xi_upper_bound(f))}
    if verb == "enumerate":
        perms = [
            GammaCombination(mask, n).gamma_string()
            for mask in range(1, 1 << ring_degree(n), 2)
            if analysis.is_permutation(GammaCombination(mask, n))[0]
        ]
        return {"n": n, "count": len(perms), "permutations": perms}
    if verb == "du":
        f = _combo(q["kind"], q["text"], n)
        return {"n": n, "f": combo(f), "differential_uniformity": analysis.differential_uniformity(f)}
    if verb == "table1":
        return {"rows": [{"n": m, "coefficients": analysis.kappa_inverse_closed_form(m).to_string()} for m in (8, 10, 14, 16)]}
    f = analysis.realize_xi(q["targets"])
    return {"targets": q["targets"], "f": combo(f), "xi": sorted(analysis.xi(f))}


def cli_verify(q, out) -> str | None:
    if out.code != q["code"]:
        return f"exit code {out.code}, expected {q['code']}: {out.stderr.strip()[-200:]}"
    if q["code"] != 0:
        return None if out.stdout == "" else "a failing query printed to stdout"
    try:
        answer = json.loads(out.stdout)
    except ValueError:
        return "stdout is not JSON"
    return None if answer == cli_expected(q) else "stdout differs from the library's answer"


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object
    run: object
    make_checker: object
    in_process: bool = True


WORKLOADS = {
    "cli-cold": Workload("cli-cold", cli_generate, cli_run, lambda: cli_verify, in_process=False),
    "euclid-large": Workload("euclid-large", euclid_generate, euclid_run, lambda: euclid_verify),
    "factor-xi": Workload("factor-xi", factor_generate, factor_run, FactorChecker),
    "table-scan": Workload("table-scan", table_generate, table_run, lambda: table_verify),
}
