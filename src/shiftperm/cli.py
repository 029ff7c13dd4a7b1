"""Command-line front end.

Verbs: analyze, invert, compose, xi, enumerate, du, table1, realize.
A map is given by --f or --poly, which take the same forms: "g0+g2+g4",
a k-index (exponent) list "0,1,2", or a coefficient string "111".
Reports echo both the gamma and the polynomial spelling.

Each verb returns its report as (key, value) pairs; main alone prints
them, as aligned key/value text by default or a JSON tree with --json,
both byte-stable for identical inputs.  main also owns every exit code:
0 success, 1 semantic failure (e.g. inverting a non-permutation; the gcd
witness that analyze prints is reported), 2 malformed command line or
operand, 3 a scan, search or factorization exceeded its bound, 141
stdout closed.
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

    def verb(name, run, help, operand=True):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if operand:
            grp = p.add_mutually_exclusive_group(required=True)
            grp.add_argument("--f", help="gamma combination: 'g0+g2+g4', k-indices '0,1,2', or coefficients '111'")
            grp.add_argument("--poly", dest="f", metavar="POLY",
                             help="coefficient polynomial, same forms as --f: '111', '0,1,2' or 'g0+g2+g4'")
        return p

    p = verb("analyze", _run_analyze, "full report for one map on F_2^n")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--max-du", type=int, default=tables.DU_LIMIT,
                   help="largest n for the difference distribution scan")

    p = verb("invert", _run_invert, "compositional inverse of a permutation")
    p.add_argument("--n", type=int, required=True)

    p = verb("compose", _run_compose, "composition f(g(x)) via the polynomial ring")
    p.add_argument("--g", required=True, help="inner map, same forms as --f")
    p.add_argument("--n", type=int, default=None,
                   help="dimension; omit for the formal (every-n) composition")

    verb("xi", _run_xi, "forbidden dimensions of a map (independent of n)")
    p = verb("enumerate", _run_enumerate, "all permutations among gamma combinations on F_2^n", operand=False)
    p.add_argument("--n", type=int, required=True)

    p = verb("du", _run_du, "differential uniformity by full scan")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-du", type=int, default=tables.DU_LIMIT)

    verb("table1", _run_table1, "inverse coefficients of kappa for n = 8, 10, 14, 16", operand=False)
    p = verb("realize", _run_realize, "a map whose xi matches the given targets", operand=False)
    p.add_argument("--targets", required=True, help="comma list of doubled odd numbers, e.g. '6,14'")

    for p in sub.choices.values():  # last, so that each usage line ends in [--json]
        p.add_argument("--json", action="store_true")
    return parser


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
    width = max(len(str(k)) for k, _ in flat)
    for key, value in flat:
        shown = "-" if value is None else value
        if isinstance(shown, bool):
            shown = "true" if shown else "false"
        print(f"{key:<{width}}  {shown}")


def _run_analyze(args) -> list:
    report = analysis.analyze(GammaCombination.parse(args.f, args.n), du_limit=args.max_du)
    return list(report.to_dict().items())


def _run_invert(args) -> list:
    f = GammaCombination.parse(args.f, args.n)
    return [("n", args.n), ("f", combo_dict(f)), ("inverse", combo_dict(analysis.inverse(f)))]


def _run_compose(args) -> list:
    f, g = GammaCombination.parse(args.f, args.n), GammaCombination.parse(args.g, args.n)
    composition = compose(f, g)
    return [("n", args.n), ("f", combo_dict(f)), ("g", combo_dict(g)), ("composition", combo_dict(composition))]


def _run_xi(args) -> list:
    f = GammaCombination.parse(args.f)
    values, bound = map(sorted, analysis.xi_sets(f))  # the sets are freed before printing
    return [("f", combo_dict(f)), ("xi", values), ("xi_upper_bound", bound)]


def _run_enumerate(args) -> list:
    degree = (args.n + 1) // 2 if args.n % 2 else args.n  # the scan bound is checked before the cap
    tables.check_limit(degree, tables.BIJECTIVITY_LIMIT, "unit enumeration")
    mod, units, perms = Modulus(args.n), {}, []
    for mask in range(1, 1 << degree, 2):  # an odd F is a unit iff F mod X^m + 1 is: one gcd per residue
        if (r := ring._fold(mask, mod.odd_part)) not in units:
            units[r] = ring.is_unit(BinPoly(mask), mod)
        if units[r]:
            perms.append(GammaCombination(mask, args.n).gamma_string())
    assert len(perms) == unit_group_order(mod), "unit enumeration disagrees with the order formula"
    return [("n", args.n), ("count", len(perms)), ("permutations", perms)]


def _run_du(args) -> list:
    f = GammaCombination.parse(args.f, args.n)
    value = analysis.differential_uniformity(f, limit=args.max_du)
    return [("n", args.n), ("f", combo_dict(f)), ("differential_uniformity", value)]


def _run_table1(args) -> list:
    rows = []
    for n in TABLE1_DIMENSIONS:
        closed = analysis.kappa_inverse_closed_form(n)
        lifted = ring.ring_inverse(phi(GammaCombination(0b111, n)), Modulus(n))  # a unit: 6 does not divide n
        assert closed == lifted, f"closed form disagrees with the ring inverse at n={n}"
        rows.append((n, closed.to_string()))
    if args.json:
        return [("rows", [{"n": n, "coefficients": s} for n, s in rows])]
    return [("n", "coefficients")] + rows  # _emit aligns the two columns


def _run_realize(args) -> list:
    targets = sorted(int(t) for t in args.targets.split(","))
    f = analysis.realize_xi(targets)  # its xi is the set of targets by construction
    return [("targets", targets), ("f", combo_dict(f)), ("xi", sorted(set(targets)))]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(args.run(args), args.json)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:  # the reader left: send the flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BoundExceededError as e:
        print(str(e), file=sys.stderr)
        return 3
    except NonUnitError as e:  # only invert lets it through; analyze reports the witness
        print(f"not a permutation on F_2^{args.n}: gcd witness {e.witness.to_string()}", file=sys.stderr)
        return 1
    except ValueError as e:
        # operand that survived argparse but does not parse or validate
        print(str(e), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
