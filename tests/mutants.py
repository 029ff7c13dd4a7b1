"""Mutation gate: every mutant in MUTANTS must make the tests named in its row fail.

    python tests/mutants.py [NAME ...]

With names, only the rows whose name contains one of them as a substring run,
e.g. `python tests/mutants.py square ladder` while a change works on its own
rows; with none, every row runs, about 3 minutes on 2 cores.  Either way the
tests named in the rows that run must pass on the unmutated code first.

A row is (name, file under src/shiftperm, exact old text, new text, pytest node
ids, equivalent).  The script first checks that each selected row's old text
occurs exactly once in its file; it lists every stale row at once and exits 1
before any test runs.  It then copies src, tests and pyproject.toml to a
temporary directory, checks there that the named tests pass, and for each row
replaces the old text in the copy, runs the named tests under
checks.CHILD_MEMORY and a timeout, with the Hypothesis profile "mutants" from
tests/conftest.py (no shrinking), and puts the file back.  A mutant the tests
do not kill, or one that outlives its timeout, fails the gate.  Rows marked
equivalent change no behaviour: they must survive, and a kill fails the gate
too, as it shows the row's claim wrong.  The working tree is never edited.
Standard library only, apart from the project's own test helpers.

The file name keeps the script out of pytest's collection.
"""

import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]
from checks import _limit_memory  # noqa: E402  (the child limit, checks.CHILD_MEMORY)

TIMEOUT = 120  # seconds per mutant; the named tests take a few seconds on the unmutated code

TABLES = "tests/test_gammaspan.py::TestTablesAgainstScalar"
EVALUATE = "tests/test_gammaspan.py::TestEvaluate"
GUARDS = "tests/test_analysis.py::test_guard_raises"
INVERSE_MOD_X = "tests/test_ring.py::TestFoldedArithmetic::test_inverse_mod_x_power_by_shift_and_add"
INVERSE = "tests/test_ring.py::TestFoldedArithmetic::test_inverse_matches_euclid"
TWO_ADIC = ("tests/test_ring.py::TestFoldedArithmetic::"
            "test_inverse_by_shift_and_add_at_every_two_adic_exponent")
GCD = "tests/test_poly2.py::TestGcd::test_ext_gcd_and_mod_by_long_division"
SQUARE = "tests/test_poly2.py::TestArithmetic::test_square_and_deinterleave_by_shift_and_add"
POWMOD = "tests/test_poly2.py::TestArithmetic::test_powmod_bits_by_shift_and_add"
TOOM = "tests/test_poly2.py::TestArithmetic::test_clmul_matches_shift_and_add_around_toom"
RING_MUL = "tests/test_ring.py::TestFoldedArithmetic::test_mul_matches_shift_and_add"
SPLIT_PAIRS = "tests/test_poly2.py::TestFactor::test_splitter_separates_every_pair_of_one_degree"
CYCLOTOMIC = "tests/test_poly2.py::TestFactor::test_cyclotomic_blocks"
SPELLINGS = "tests/test_cli.py::test_poly_and_f_spellings_agree"
IRREDUCIBLE = "tests/test_poly2.py::TestIrreducibility::test_examples"
ROUND_TRIPS = "tests/test_gammaspan.py::TestPointwiseMaps::test_round_trips_past_the_toom_threshold"
LUCAS = tuple(f"tests/test_poly2.py::TestIntegers::{name}" for name in (
    "test_strong_lucas_pseudoprimes_below_2_16", "test_is_prime_matches_sieve", "test_baillie_psw_rejects_pseudoprimes"))
UNITS = "tests/test_ring.py::TestUnitGroupOrder"
ANY_REPRESENTATIVE = "tests/test_ring.py::TestReduceAndMul::test_any_representative_gives_the_canonical_result"
PSEUDOPRIMES = "tests/test_poly2.py::TestIntegers::test_baillie_psw_rejects_pseudoprimes"
RHO = "tests/test_poly2.py::TestIntegers::test_rho_splits_large_composites"
MERSENNE = "tests/test_poly2.py::TestIntegers::test_mersenne_factorizations"
PAST_DIGITS = "tests/test_poly2.py::TestIntegers::test_factors_past_the_digit_limit"
REFUSED_PAST_DIGITS = "tests/test_poly2.py::TestIntegers::test_rho_refuses_past_the_digit_limit"
SMALLEST = "tests/test_poly2.py::TestFindIrreducibleOfOrder::test_smallest_of_each_order_up_to_degree_12"
CONSTRUCTED = "tests/test_poly2.py::TestFindIrreducibleOfOrder::test_constructed_degrees_13_to_20"
ABOVE_THE_BOUND = "tests/test_poly2.py::TestFindIrreducibleOfOrder::test_degree_above_the_bound"
XI_300 = "tests/test_cli.py::TestXiVerb::test_degree_300"
GRAMMAR = "tests/test_gammaspan.py::TestParse::test_one_grammar_for_both_parsers"
PARSE_FORMS = "tests/test_gammaspan.py::TestParse::test_forms"
CANONICAL = "tests/test_gammaspan.py::TestCanonicalize"


def _guard(name, file, old, new="", equivalent=False):
    """A row that drops a guard, killed by test_guard_raises unless it is equivalent."""
    return (name, file, old, new, (GUARDS,), equivalent)


MUTANTS = [
    # the running keep of combination_values, which builds value tables and evaluates single points
    ("term before the keep update", "bitstate.py",
     "        keep &= _rot(x, 2 * k - 1, n) ^ full\n"
     "        if isinstance(keep, int) and not keep:\n            break\n"
     '        if terms[k] == "1":\n            out ^= _rot(x, 2 * k, n) & keep\n',
     '        if terms[k] == "1":\n            out ^= _rot(x, 2 * k, n) & keep\n'
     "        keep &= _rot(x, 2 * k - 1, n) ^ full\n"
     "        if isinstance(keep, int) and not keep:\n            break\n",
     (TABLES, EVALUATE), False),
    ("keep takes S^(2k+1)", "bitstate.py",
     "keep &= _rot(x, 2 * k - 1, n)", "keep &= _rot(x, 2 * k + 1, n)", (TABLES, EVALUATE), False),
    ("keep rotation off by one (S^(2k))", "bitstate.py",
     "keep &= _rot(x, 2 * k - 1, n)", "keep &= _rot(x, 2 * k, n)", (TABLES, EVALUATE), False),
    ("term exponent reduced mod n (_rot reduces it)", "bitstate.py",
     "_rot(x, 2 * k, n) & keep", "_rot(x, 2 * k % n, n) & keep", (TABLES, EVALUATE), True),
    ("out aliases x (out ^= writes into the table's inputs)", "bitstate.py",
     "x & (full if mask & 1 else 0)", "x if mask & 1 else x & 0", (TABLES,), False),
    ("no early stop (a zero keep adds nothing to later terms)", "bitstate.py",
     "        if isinstance(keep, int) and not keep:\n            break\n", "", (TABLES, EVALUATE), True),
    ("_rot without j %= n (a shift by n - j < 0 raises)", "bitstate.py", "    j %= n\n", "", (TABLES, EVALUATE), False),
    ("evaluate on the formal mask, unbound (a formal index past n only costs time)", "gammaspan.py",
     "combination_values(f.at(x.n).mask,", "combination_values(f.mask,", (EVALUATE,), True),
    # the guards that only test_guard_raises reaches
    _guard("_bind without a dimension", "analysis.py",
           "        if f.n is None:\n"
           '            raise ValueError("a dimension is required: pass n or bind the combination")\n'),
    _guard("_bind to another dimension", "analysis.py",
           "    if f.n is not None and f.n != n:\n"
           '        raise ValueError(f"combination is bound to n={f.n}, not n={n}")\n'),
    _guard("_formal_poly of another type", "analysis.py",
           '    raise TypeError(f"expected a GammaCombination or BinPoly, got {type(f).__name__}")\n'),
    _guard("inv_membership on n < 1", "analysis.py",
           '    if n < 1:\n        raise ValueError("dimension must be at least 1")\n    return all(',
           "    return all("),
    _guard("perturb without gamma(0)", "analysis.py",
           "    if F.constant_term != 1:\n"
           '        raise ValueError("perturbation applies to combinations containing gamma(0)")\n'),
    _guard("kappa_cofactor(k < 0)", "analysis.py",
           '    if k < 0:\n        raise ValueError("k must be nonnegative")\n'),
    _guard("GammaCombination of a negative mask", "gammaspan.py",
           '        if mask < 0:\n            raise ValueError("coefficient mask must be nonnegative")\n'),
    _guard("+ across dimensions", "gammaspan.py",
           "        if self.n != other.n:\n"
           '            raise ValueError("cannot add combinations on different dimensions")\n'),
    _guard("compose_oracle across dimensions", "gammaspan.py",
           '        raise ValueError("cannot compose combinations on different dimensions")\n    if f.n is None:\n',
           "        pass\n    if f.n is None:\n"),
    _guard("compose_oracle unbound", "gammaspan.py",
           '    if f.n is None:\n        raise ValueError("oracle needs a bound dimension")\n'),
    _guard("BinPoly of a negative mask", "poly2.py",
           '        if bits < 0:\n            raise ValueError("coefficient mask must be nonnegative")\n'),
    _guard("negative power (BinPoly(1) ** -1 returns BinPoly(1))", "poly2.py",
           '        if e < 0:\n            raise ValueError("negative power of a polynomial")\n'),
    _guard("_mod_bits by zero (loops)", "poly2.py",
           '    if b == 0:\n        raise ZeroDivisionError("division by the zero polynomial")\n'
           "    db = b.bit_length()\n    while",
           "    db = b.bit_length()\n    while"),
    _guard("irreducible_polys(degree < 1) (is_irreducible(1) raises)", "poly2.py",
           '    if degree < 1:\n        raise ValueError("degree must be positive")\n', equivalent=True),
    # the one reader of operand text and the one builder of bits from exponents
    ("from_exponents without the negative check", "poly2.py",
     '            if e < 0:\n                raise ValueError("exponents must be nonnegative")\n', "", (GRAMMAR,), False),
    ("a lone integer read as a coefficient string", "poly2.py",
     "        return [int(t)]\n", "        return int(t[::-1], 2)\n", (GRAMMAR, PARSE_FORMS), False),
    ("odd-n index past the degree kept", "gammaspan.py",
     "(k if k < degree else half + k % half for k in ks if k < degree or n % 2 == 0)",
     "(k if k < degree or n % 2 else half + k % half for k in ks)", (GRAMMAR, CANONICAL), False),
    ("even-n wrap mod n in place of n/2", "gammaspan.py",
     "else half + k % half for k in ks", "else k % n for k in ks", (GRAMMAR, CANONICAL), False),
    # the inverse: one Newton recursion over dimensions on half-size products
    ("split step without << 1", "ring.py",
     "_square(_mul_bits(o, u, sub)) << 1", "_square(_mul_bits(o, u, sub))", (INVERSE_MOD_X, INVERSE), False),
    ("odd n' one dimension too small (X^floor(k/2))", "ring.py",
     "n // 2 if n % 2 == 0 else n // 2 | 1", "n // 2 if n % 2 == 0 else n // 2 - 1 | 1", (INVERSE_MOD_X,), False),
    ("the step's reduction for n dropped", "ring.py",
     "reduce_bits(_square(_mul_bits(e, u, sub)) ^ _square(_mul_bits(o, u, sub)) << 1, Modulus(n))",
     "_square(_mul_bits(e, u, sub)) ^ _square(_mul_bits(o, u, sub)) << 1", (INVERSE, TWO_ADIC), False),
    ("product's lo without its final & low", "ring.py",
     "lo = _clmul(f & low, g & low) & low", "lo = _clmul(f & low, g & low)", (RING_MUL,), False),
    ("ext_gcd cofactor without the shift", "poly2.py", "s0 ^= s1 << shift", "s0 ^= s1", (GCD,), False),
    ("square nibble tables swapped", "poly2.py",
     "data.translate(_SPREAD_LOW), data.translate(_SPREAD_HIGH)",
     "data.translate(_SPREAD_HIGH), data.translate(_SPREAD_LOW)", (SQUARE,), False),
    # the left-to-right ladder of _powmod_bits
    ("X step without its XOR of m", "poly2.py", "            if r >> top:\n                r ^= m\n", "", (POWMOD,), False),
    ("ladder skips the top bit of e", "poly2.py", 'for bit in format(e, "b"):', 'for bit in format(e, "b")[1:]:',
     (POWMOD,), False),
    ("shift path for every base", "poly2.py", 'if bit == "1" and base == 2:', 'if bit == "1":', (POWMOD,), False),
    ("base == 2 tested before the reduction (shift and one XOR reduce exactly mod any m)", "poly2.py",
     '    base, r, top = _mod_bits(base, m), _mod_bits(1, m), m.bit_length() - 1\n'
     '    for bit in format(e, "b"):\n        r = _mod_bits(_square(r), m)\n        if bit == "1" and base == 2:',
     '    shift, base, r, top = base == 2, _mod_bits(base, m), _mod_bits(1, m), m.bit_length() - 1\n'
     '    for bit in format(e, "b"):\n        r = _mod_bits(_square(r), m)\n        if bit == "1" and shift:',
     (POWMOD,), True),
    ("ladder back on _clmul(r, r) (only slower)", "poly2.py",
     "r = _mod_bits(_square(r), m)", "r = _mod_bits(_clmul(r, r), m)", (POWMOD,), True),
    # the one squaring routine: base-4 digits below the switch, the byte table from it
    ("short squares read in base 2", "poly2.py", 'return int(format(a, "b"), 4)', 'return int(format(a, "b"), 2)',
     (SQUARE, POWMOD), False),
    ("byte tables for every square (switch at 0, only slower)", "poly2.py",
     "if a.bit_length() < _SQUARE_TABLE_MIN_BITS:", "if a.bit_length() < 0:", (SQUARE, POWMOD), True),
    # Toom-3
    ("c4 weighted X^3 in the value at X", "poly2.py", "q = p0 ^ p4 << 4", "q = p0 ^ p4 << 3", (TOOM,), False),
    ("value at X + 1 taken at X (the ^ a0 dropped)", "poly2.py",
     "v3, w3 = v2 ^ v1 ^ a0,", "v3, w3 = v2 ^ v1,", (TOOM,), False),
    ("_div_x1 masked to n - 2 bits", "poly2.py",
     "p & ((1 << n) - 1) >> 1", "p & ((1 << n) - 1) >> 2", (TOOM,), False),
    ("_div_x1 keeping n bits (bit n - 1 is p(1) = 0)", "poly2.py",
     "p & ((1 << n) - 1) >> 1", "p & ((1 << n) - 1)", (TOOM, RING_MUL), True),
    # the equal-degree splitter's odd powers of X
    ("one odd power short", "poly2.py",
     "range(start, 2 * d, 2)", "range(start, 2 * d - 2, 2)", (SPLIT_PAIRS,), False),
    ("d squarings in the trace (Tr(a) + a)", "poly2.py",
     "for _ in range(d - 1):\n            a = _mod_bits(_square(a), b)",
     "for _ in range(d):\n            a = _mod_bits(_square(a), b)", (SPLIT_PAIRS,), False),
    ("parts restart at X (only slower)", "poly2.py",
     "_split_equal_degree(g, d, i + 2) + _split_equal_degree(_divmod_bits(b, g)[0], d, i + 2)",
     "_split_equal_degree(g, d) + _split_equal_degree(_divmod_bits(b, g)[0], d)",
     (SPLIT_PAIRS, CYCLOTOMIC), True),
    # psi's canonical form, past the value tables
    ("psi cuts k >= n/2 on even n above n = 20", "gammaspan.py",
     "return GammaCombination(a.bits, mod.n)",
     "return GammaCombination(a.bits if mod.n <= 20 else a.bits & (1 << (mod.n + 1) // 2) - 1, mod.n)",
     (ROUND_TRIPS,), False),
    # Ben-Or's distinct-degree loop
    ("Ben-Or loop stops one degree early", "poly2.py",
     "while 2 * d < wb.bit_length():", "while 2 * d < wb.bit_length() - 1:", (IRREDUCIBLE,), False),
    # the CLI
    ("--poly without dest=\"f\"", "cli.py", 'grp.add_argument("--poly", dest="f", metavar="POLY",',
     'grp.add_argument("--poly", metavar="POLY",', (SPELLINGS,), False),
    # Baillie-PSW
    ("Lucas halving by (n - 1)/2 = -1/2 (flips the signs of U and V together)", "poly2.py",
     "(1 - D) // 4 % n, (n + 1) // 2", "(1 - D) // 4 % n, (n - 1) // 2", LUCAS, True),
    ("Lucas's D walk without the sign change (5, 7, 9, ...)", "poly2.py",
     "D = -D - 2 if D > 0 else 2 - D", "D += 2", LUCAS, False),
    ("Miller-Rabin switched off", "poly2.py",
     "if x != 1 and n - 1 not in [pow(x, 1 << r, n) for r in range(s)]:", "if False:", (PSEUDOPRIMES,), False),
    # factor_int
    ("rho's split pushed as [f, f]", "poly2.py", "stack += [f, m // f]", "stack += [f, f]", (RHO,), False),
    ("Phi_e(2) divided by every Phi_f(2) so far, f | e or not", "poly2.py",
     "prod(v for f, v in phis.items() if e % f == 0)", "prod(phis.values())", (MERSENNE,), False),
    ("the operand named up front, before any work", "poly2.py",
     "    stack = [n]\n", "    stack, name = [n], str(n)\n", (PAST_DIGITS,), False),
    ("the refusal names any operand in digits", "poly2.py",
     "top if top < 10**4300 else", "top if True else", (REFUSED_PAST_DIGITS,), False),
    # the unit count
    ("2^(h-m) dropped", "ring.py", "total = 1 << (h - 1) + (h - m)", "total = 1 << (h - 1)", (UNITS,), False),
    ("2^(h-1) dropped", "ring.py", "total = 1 << (h - 1) + (h - m)", "total = 1 << (h - m)", (UNITS,), False),
    ("odd n one unit bit too many", "ring.py", "return 1 << (n - 1) // 2", "return 1 << (n + 1) // 2", (UNITS,), False),
    ("cosets of 3 in place of 2", "ring.py", "j = 2 * j % m", "j = 3 * j % m", (UNITS,), False),
    ("coset {0} counted as size 2", "ring.py", "j, size = start, 0", "j, size = start, 0 if start else 1",
     (UNITS,), False),
    ("coset {0} multiplied in twice (its factor is 2^1 - 1 = 1)", "ring.py",
     "total = 1 << (h - 1) + (h - m)", "total = (1 << (h - 1) + (h - m)) * ((1 << 1) - 1)", (UNITS,), True),
    # reduction on entry and in the product
    ("ring_inverse without its entry reduction", "ring.py",
     "f, m = reduce_bits(a.bits, mod), mod.odd_part", "f, m = a.bits, mod.odd_part", (ANY_REPRESENTATIVE,), False),
    ("hi without its outer fold", "ring.py",
     "_fold(_clmul(_fold(f, h), _fold(g, h)), h)", "_clmul(_fold(f, h), _fold(g, h))", (RING_MUL,), False),
    ("hi's operand f unfolded (the outer fold is exact)", "ring.py",
     "_clmul(_fold(f, h), _fold(g, h))", "_clmul(f, _fold(g, h))", (RING_MUL, ANY_REPRESENTATIVE, INVERSE), True),
    ("lo's operand f unmasked (the final & low is exact)", "ring.py",
     "lo = _clmul(f & low, g & low) & low", "lo = _clmul(f, g & low) & low", (RING_MUL, ANY_REPRESENTATIVE, INVERSE),
     True),
    # find_irreducible_of_order
    ("the last match taken", "poly2.py",
     "return next(g for g in irreducible_polys(d) if _order_mod(2, n, primes, g.bits) == t)",
     "return [g for g in irreducible_polys(d) if _order_mod(2, n, primes, g.bits) == t][-1]", (SMALLEST,), False),
    ("the enumeration's order test dropped", "poly2.py",
     "next(g for g in irreducible_polys(d) if _order_mod(2, n, primes, g.bits) == t)", "irreducible_polys(d)[0]",
     (SMALLEST,), False),
    ("the alpha order test dropped", "poly2.py",
     "alpha = next(a for a in powers if _order_mod(a, t, primes, p) == t)", "alpha = next(powers)",
     (CONSTRUCTED,), False),
    ("no degree ceiling", "poly2.py",
     "for d in range(1, REALIZE_DEGREE_LIMIT + 1) if", "for d in itertools.count(1) if", (ABOVE_THE_BOUND,), False),
    # the distinct-degree loop
    ("h never reduced", "poly2.py", "h = _mod_bits(_square(h), wb)", "h = _square(h)", (XI_300,), False),
]


def run_tests(work: pathlib.Path, nodes) -> str:
    """'passed', 'failed' (pytest exits nonzero: a test failed, or a module did not import) or
    'hung'.  A hung run is killed with its whole process group, bounded children included."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-profile=mutants", *nodes],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        preexec_fn=_limit_memory, start_new_session=True,
    ) as proc:
        try:
            return "passed" if proc.wait(timeout=TIMEOUT) == 0 else "failed"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            return "hung"


def main(names) -> int:
    rows = [r for r in MUTANTS if not names or any(name in r[0] for name in names)]
    if not rows:
        print(f"no row's name contains any of {names}", file=sys.stderr)
        return 1
    stale = [(name, file, count) for name, file, old, *_ in rows
             if (count := (ROOT / "src" / "shiftperm" / file).read_text().count(old)) != 1]
    for name, file, count in stale:
        print(f"STALE  {name}: the old text occurs {count} times in {file}", file=sys.stderr)
    if stale:
        return 1
    bad = 0
    with tempfile.TemporaryDirectory(prefix="shiftperm-mutants-") as tmp:
        work = pathlib.Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", work)
        nodes = sorted({node for r in rows for node in r[4]})
        if run_tests(work, nodes) != "passed":  # this also catches a node id that names no test
            print("the named tests do not pass on the unmutated code", file=sys.stderr)
            return 1
        for name, file, old, new, tests, equivalent in rows:
            path = work / "src" / "shiftperm" / file
            text = path.read_text()
            path.write_text(text.replace(old, new))
            start = time.perf_counter()
            outcome = run_tests(work, tests)
            path.write_text(text)
            ok = outcome == ("passed" if equivalent else "failed")
            verdict = {"passed": "survived", "failed": "killed", "hung": "hung"}[outcome]
            print(f"{'ok  ' if ok else 'FAIL'}  {verdict:8}  {time.perf_counter() - start:5.1f} s  {name}"
                  + ("  (equivalent)" if equivalent else ""), flush=True)
            bad += not ok
    print(f"{len(rows) - bad} of {len(rows)} mutants as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
