"""Command-line front end.

Verbs: analyze, invert, compose, xi, enumerate, du, table1, realize.
A map is given by --f or --poly, which take the same forms: "g0+g2+g4",
a k-index (exponent) list "0,1,2", or a coefficient string "111".
Reports echo both the gamma and the polynomial spelling.

Output is aligned key/value text by default, a JSON tree with --json;
both are byte-stable for identical inputs.  Exit codes: 0 success,
1 semantic failure (e.g. inverting a non-permutation; the gcd witness
that analyze prints is reported), 2 malformed command line or operand,
3 a scan, search or factorization exceeded its bound, 141 stdout closed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import analysis, ring, tables
from .analysis import combo_dict
from .gammaspan import GammaCombination, compose, phi
from .poly2 import BinPoly, BoundExceededError
from .ring import Modulus, NonUnitError, unit_group_order

TABLE1_DIMENSIONS = (8, 10, 14, 16)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftperm",
        description="Construct, compose, invert and analyze shift-invariant "
        "chi-like maps on F_2^n.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_f(p):
        grp = p.add_mutually_exclusive_group(required=True)
        grp.add_argument("--f", help="gamma combination: 'g0+g2+g4', k-indices '0,1,2', or coefficients '111'")
        grp.add_argument("--poly", help="coefficient polynomial, same forms as --f: '111', '0,1,2' or 'g0+g2+g4'")

    p = sub.add_parser("analyze", help="full report for one map on F_2^n")
    add_f(p)
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--max-du", type=int, default=tables.DU_LIMIT,
                   help="largest n for the difference distribution scan")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("invert", help="compositional inverse of a permutation")
    add_f(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("compose", help="composition f(g(x)) via the polynomial ring")
    add_f(p)
    p.add_argument("--g", required=True, help="inner map, same forms as --f")
    p.add_argument("--n", type=int, default=None,
                   help="dimension; omit for the formal (every-n) composition")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("xi", help="forbidden dimensions of a map (independent of n)")
    add_f(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("enumerate", help="all permutations among gamma combinations on F_2^n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("du", help="differential uniformity by full scan")
    add_f(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-du", type=int, default=tables.DU_LIMIT)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("table1", help="inverse coefficients of kappa for n = 8, 10, 14, 16")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("realize", help="a map whose xi matches the given targets")
    p.add_argument("--targets", required=True, help="comma list of doubled odd numbers, e.g. '6,14'")
    p.add_argument("--json", action="store_true")

    return parser


def _parse_combination(args, n=None) -> GammaCombination:
    return GammaCombination.parse(args.poly if args.f is None else args.f, n)


def _emit(pairs, as_json: bool) -> None:
    if as_json:
        print(json.dumps(dict(pairs), indent=2))
        return
    flat = []
    for key, value in pairs:
        if isinstance(value, dict):
            for k2, v2 in value.items():
                flat.append((f"{key}.{k2}", v2))
        elif isinstance(value, list):
            flat.append((key, " ".join(str(v) for v in value)))
        else:
            flat.append((key, value))
    width = max(len(k) for k, _ in flat)
    for key, value in flat:
        shown = "-" if value is None else value
        if isinstance(shown, bool):
            shown = "true" if shown else "false"
        print(f"{key:<{width}}  {shown}")


def _run_analyze(args) -> int:
    f = _parse_combination(args, args.n)
    report = analysis.analyze(f, du_limit=args.max_du)
    d = report.to_dict()
    _emit(list(d.items()), args.json)
    return 0


def _run_invert(args) -> int:
    f = _parse_combination(args, args.n)
    try:
        inv = analysis.inverse(f)
    except NonUnitError as e:
        print(
            f"not a permutation on F_2^{args.n}: gcd witness {e.witness.to_string()}",
            file=sys.stderr,
        )
        return 1
    _emit([("n", args.n), ("f", combo_dict(f)), ("inverse", combo_dict(inv))], args.json)
    return 0


def _run_compose(args) -> int:
    f = _parse_combination(args, args.n)
    g = GammaCombination.parse(args.g, args.n)
    result = compose(f, g)
    pairs = [("n", args.n), ("f", combo_dict(f)), ("g", combo_dict(g)), ("composition", combo_dict(result))]
    _emit(pairs, args.json)
    return 0


def _run_xi(args) -> int:
    f = _parse_combination(args, None)
    values, bound = map(sorted, analysis.xi_sets(f))  # the sets are freed before printing
    _emit([("f", combo_dict(f)), ("xi", values), ("xi_upper_bound", bound)], args.json)
    return 0


def _run_enumerate(args) -> int:
    degree = (args.n + 1) // 2 if args.n % 2 else args.n  # the scan bound is checked before the cap
    tables.check_limit(degree, tables.BIJECTIVITY_LIMIT, "unit enumeration")
    mod = Modulus(args.n)
    perms = []
    for mask in range(1, 1 << degree, 2):
        if ring.is_unit(BinPoly(mask), mod):
            perms.append(GammaCombination(mask, args.n))
    count = unit_group_order(mod)
    assert len(perms) == count, "unit enumeration disagrees with the order formula"
    _emit(
        [
            ("n", args.n),
            ("count", count),
            ("permutations", [c.gamma_string() for c in perms]),
        ],
        args.json,
    )
    return 0


def _run_du(args) -> int:
    f = _parse_combination(args, args.n)
    value = analysis.differential_uniformity(f, limit=args.max_du)
    _emit([("n", args.n), ("f", combo_dict(f)), ("differential_uniformity", value)], args.json)
    return 0


def _run_table1(args) -> int:
    rows = []
    for n in TABLE1_DIMENSIONS:
        closed = analysis.kappa_inverse_closed_form(n)
        lifted = ring.ring_inverse(phi(GammaCombination(0b111, n)), Modulus(n))
        assert closed == lifted, f"closed form disagrees with the ring inverse at n={n}"
        rows.append((n, closed.to_string()))
    if args.json:
        _emit([("rows", [{"n": n, "coefficients": s} for n, s in rows])], True)
    else:
        print("n   coefficients")
        for n, s in rows:
            print(f"{n:<3d} {s}")
    return 0


def _run_realize(args) -> int:
    targets = sorted(int(t) for t in args.targets.split(","))
    f = analysis.realize_xi(targets)  # its xi is the set of targets by construction
    _emit([("targets", targets), ("f", combo_dict(f)), ("xi", sorted(set(targets)))], args.json)
    return 0


_HANDLERS = {
    "analyze": _run_analyze,
    "invert": _run_invert,
    "compose": _run_compose,
    "xi": _run_xi,
    "enumerate": _run_enumerate,
    "du": _run_du,
    "table1": _run_table1,
    "realize": _run_realize,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _HANDLERS[args.verb](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader left: send the flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BoundExceededError as e:
        print(str(e), file=sys.stderr)
        return 3
    except NonUnitError as e:
        print(f"not a unit: gcd witness {e.witness.to_string()}", file=sys.stderr)
        return 1
    except ValueError as e:
        # operand that survived argparse but does not parse or validate
        print(str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
