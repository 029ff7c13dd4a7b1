import json
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from shiftperm import poly2
from shiftperm.cli import main
from shiftperm.poly2 import BinPoly

from checks import CHILD_ENV, BoundedCli, count_calls, run_bounded, run_cli_bounded, run_main

P = BinPoly.parse
XI_300 = [5146971002709138, 55384499824371494704325294178347690, 2722258935367507707706996859454145691646]
VERBS = ["analyze", "invert", "compose", "xi", "enumerate", "du", "table1", "realize"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_kappa_json(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "8", "--f", "g0+g2+g4", "--json")
        assert code == 0
        d = json.loads(out)
        assert list(d.keys()) == [
            "n",
            "f",
            "is_permutation",
            "gcd_witness",
            "inverse",
            "xi",
            "degree",
            "inverse_degree",
            "differential_uniformity",
        ]
        assert d["f"] == {"gamma": "g0+g2+g4", "poly": "111"}
        assert d["inverse"]["poly"] == "1101011"
        assert d["xi"] == [6] and d["degree"] == 3 and d["inverse_degree"] == 5
        assert d["differential_uniformity"] == 56

    def test_poly_spelling_equivalent(self, capsys):
        _, out1, _ = run(capsys, "analyze", "--n", "8", "--f", "0,1,2", "--json")
        _, out2, _ = run(capsys, "analyze", "--n", "8", "--poly", "111", "--json")
        _, out3, _ = run(capsys, "analyze", "--n", "8", "--poly", "g0+g2+g4", "--json")
        assert out1 == out2 == out3

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "6", "--f", "g0+g2")
        assert code == 0
        pairs = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert pairs["is_permutation"] == "false"
        assert pairs["gcd_witness"] == "11"
        assert pairs["inverse"] == "-"

    def test_limit_flags(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "8", "--f", "0,1,2", "--max-du", "4", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["degree"] == 3 and d["differential_uniformity"] is None
        assert d["is_permutation"] is True

    def test_limit_above_ceiling_exit_3(self, capsys):
        # a 2^30-entry uint64 table would take 8 GiB
        code, out, err = run(capsys, "analyze", "--n", "30", "--f", "g0+g2", "--max-du", "30")
        assert (code, out) == (3, "")
        assert "ceiling n <= 20" in err
        code, _, err = run(capsys, "analyze", "--n", "8", "--f", "g0+g2", "--max-du", "21")
        assert code == 3 and "ceiling" in err


    def test_huge_index_matches_its_canonical_position(self, capsys):
        # k = 10^10 wraps to 4 + (10^10 mod 4) = 4 on n = 8, with no 10^10-bit mask
        huge = run(capsys, "analyze", "--n", "8", "--f", "0,10000000000")
        assert huge == run(capsys, "analyze", "--n", "8", "--f", "0,4")
        assert huge[0] == 0

    def test_huge_poly_exponent_matches_the_f_spelling(self):
        # --poly is canonicalized as --f is; run bounded, as a 10^10-bit int takes 1.25 GB
        spellings = [["analyze", "--n", "8", flag, "0,10000000000"] for flag in ("--poly", "--f")]
        (code, out, err, _), f_run = run_cli_bounded(*spellings)
        assert (code, out, err) == f_run[:3] and code == 0

    def test_factor_bound_refuses_before_inversion(self):
        # xi comes first: the inversion at n = 2^21 - 2 would take seconds
        [(code, out, err, seconds)] = run_cli_bounded(["analyze", "--n", "2097150", "--poly", "0,1,2,1048573"])
        assert (code, out, err) == (3, "", "factoring degree 1048573 exceeds the limit 4096\n")
        assert seconds < 2


class TestInvert:
    def test_success(self, capsys):
        code, out, _ = run(capsys, "invert", "--n", "8", "--poly", "111", "--json")
        assert code == 0
        assert json.loads(out)["inverse"]["gamma"] == "g0+g2+g6+g10+g12"

    def test_non_permutation_exit_1(self, capsys):
        code, out, err = run(capsys, "invert", "--n", "12", "--f", "g0+g2+g4")
        assert code == 1
        assert out == ""
        assert "gcd witness 111" in err

    def test_witness_matches_analyze(self, capsys):
        # n = 8 * 125: the witness is gcd(F, X^125 + 1), the gcd_witness of analyze
        operand = ["--n", "1000", "--f", "g0+g8+g10+g18"]
        code, out, err = run(capsys, "invert", *operand)
        assert (code, out) == (1, "")
        _, report, _ = run(capsys, "analyze", *operand, "--json")
        assert json.loads(report)["gcd_witness"] == "100001"
        assert err == "not a permutation on F_2^1000: gcd witness 100001\n"

    def test_large_operands_end_at_once(self):
        # a non-unit at the dimension cap needs no gcd over n/2 bits, and factor
        # refuses degrees past FACTOR_DEGREE_LIMIT before it starts
        argvs = [["invert", "--n", "2097152", "--f", "0,1"], ["xi", "--poly", "0,1,20000"],
                 ["analyze", "--n", "2000000", "--poly", "0,1,999999"]]
        invert, *factoring = run_cli_bounded(*argvs, timeout=10)
        assert invert[:3] == (1, "", "not a permutation on F_2^2097152: gcd witness 11\n")
        for argv, (code, out, err, _), degree in zip(argvs[1:], factoring, (20000, 999999)):
            assert (code, out) == (3, ""), argv
            assert err == f"factoring degree {degree} exceeds the limit 4096\n", argv


class TestCompose:
    def test_gamma_expansion(self, capsys):
        code, out, _ = run(capsys, "compose", "--f", "g2", "--g", "g0+g4+g6", "--n", "8", "--json")
        assert code == 0
        assert json.loads(out)["composition"]["gamma"] == "g2+g6+g8"

    def test_formal_without_n(self, capsys):
        code, out, _ = run(capsys, "compose", "--f", "g0+g2", "--g", "g0+g2", "--json")
        assert code == 0
        assert json.loads(out)["composition"]["gamma"] == "g0+g4"

    def test_inner_outside_monoid_exit_2(self, capsys):
        code, _, err = run(capsys, "compose", "--f", "g0+g2", "--g", "g2", "--n", "8")
        assert code == 2 and err


class TestXiVerb:
    def test_kappa(self, capsys):
        code, out, _ = run(capsys, "xi", "--f", "0,1,2", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["xi"] == [6] and d["xi_upper_bound"] == [2, 6]

    def test_tau(self, capsys):
        code, out, _ = run(capsys, "xi", "--poly", "1101", "--json")
        d = json.loads(out)
        assert d["xi"] == [14] and d["xi_upper_bound"] == [2, 14]

    def test_two_large_factors(self, capsys):
        # 1 + X^3 + X^17 and 1 + X^5 + X^17 are irreducible of order 2^17 - 1, a prime
        f = BinPoly.from_exponents([0, 3, 17]) * BinPoly.from_exponents([0, 5, 17])
        code, out, _ = run(capsys, "xi", "--poly", f.to_string(), "--json")
        assert code == 0
        d = json.loads(out)
        assert d["xi"] == [262142] and d["xi_upper_bound"] == [2, 262142]

    def test_degree_300(self):
        # 1 + X + X^300 has large factors of three degrees
        [(code, out, err, seconds)] = run_cli_bounded(["xi", "--poly", "0,1,300", "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["xi"] == XI_300
        assert seconds < CASE_BUDGET_S

    def test_divisor_cap_exit_3(self):
        # 1 + X + X^7 + X^17 + X^360 is irreducible, and 2^360 - 1 has 1610612736 divisors
        [(code, out, err, seconds)] = run_cli_bounded(["xi", "--poly", "0,1,7,17,360"])
        assert (code, out) == (3, "")
        assert err == "xi_upper_bound: 1610612736 divisors of 2^d - 1, d in [360], exceed 1048576\n"
        assert seconds < CASE_BUDGET_S

    def test_huge_exponent_exit_2(self):
        # no dimension reduces a formal exponent: past the cap it is refused before 1 << k is built
        argvs = [["xi", "--poly", "0,10000000000"], ["xi", "--f", "0,10000000000"],
                 ["compose", "--f", "g0", "--g", "0,10000000000"]]
        for argv, (code, out, err, _) in zip(argvs, run_cli_bounded(*argvs)):
            assert (code, out) == (2, ""), argv
            assert err == "exponent 10000000000 exceeds the cap 16777216 on formal operands\n", argv

    def test_rho_budget_exit_3(self, capsys, monkeypatch):
        # 1 + X^21 + X^137 is irreducible, and rho needs about 10^10 steps on 2^137 - 1: xi
        # spends the whole budget in a child; analyze reaches the same refusal through xi,
        # checked in-process with a small budget
        [(code, out, err, seconds)] = run_cli_bounded(["xi", "--poly", "0,21,137"])
        assert (code, out) == (3, "")
        assert err == "factoring 2^137 - 1 needs more than 16777216 rho steps\n"
        assert seconds < CASE_BUDGET_S
        monkeypatch.setattr(poly2, "RHO_BUDGET", 1 << 16)
        code, out, err = run(capsys, "analyze", "--n", "276", "--poly", "0,21,137")
        assert (code, out, err) == (3, "", "factoring 2^137 - 1 needs more than 65536 rho steps\n")

    def test_one_factoring_pass(self, capsys, monkeypatch):
        # F once and 2^d - 1 once per factor degree d: two factors of degree 4, then
        # 1 + X + X^300, whose factors have degrees 54, 116 and 130
        calls = count_calls(monkeypatch, poly2, "factor", "factor_int")
        cases = [
            ((P("10011") ** 3 * P("11001")).to_string(), [4], [30], [2, 6, 10, 30]),
            ("0,1,300", [54, 116, 130], XI_300, None),
        ]
        for text, degrees, want, bound in cases:
            for log in calls.values():
                log.clear()
            code, out, _ = run(capsys, "xi", "--poly", text, "--json")
            assert code == 0 and json.loads(out)["xi"] == want, text
            assert bound is None or json.loads(out)["xi_upper_bound"] == bound, text
            assert len(calls["factor"]) == 1, text
            assert calls["factor_int"] == [((1 << d) - 1,) for d in degrees], text

    def test_divisor_cap_computes_no_order(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, poly2, "_order_mod")
        code, out, err = run(capsys, "xi", "--poly", "0,1,7,17,360")
        assert (code, out) == (3, "")
        assert err == "xi_upper_bound: 1610612736 divisors of 2^d - 1, d in [360], exceed 1048576\n"
        assert calls["_order_mod"] == []

    def test_divisor_cap_memory(self):
        # 1 + X^2 + X^4 + X^5 + X^204 is irreducible, and 2^204 - 1 has 786432 divisors, within
        # the cap: the one pass holds its blocks, xi and the 29 MB of bound at once
        [(code, out, err, seconds)] = run_cli_bounded(["xi", "--poly", "0,2,4,5,204", "--json"])
        assert (code, err) == (0, "")
        assert len(json.loads(out)["xi_upper_bound"]) == 786432
        assert seconds < CASE_BUDGET_S


class TestEnumerate:
    def test_count_n6(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--n", "6", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["count"] == 12 and len(d["permutations"]) == 12
        assert d["permutations"][0] == "g0"

    def test_byte_stable(self, capsys):
        _, out1, _ = run(capsys, "enumerate", "--n", "7")
        _, out2, _ = run(capsys, "enumerate", "--n", "7")
        assert out1 == out2

    def test_bound_exit_3(self, capsys):
        # the scan walks 2^(deg - 1) masks, deg = n on even n and (n + 1) / 2 on odd n
        for n in ("22", "41", "20000000"):
            code, out, err = run(capsys, "enumerate", "--n", n)
            assert code == 3 and out == ""
            assert "unit enumeration" in err


class TestDu:
    def test_value(self, capsys):
        code, out, _ = run(capsys, "du", "--n", "5", "--f", "g0+g2", "--json")
        assert code == 0
        assert json.loads(out)["differential_uniformity"] == 8

    def test_bound_exit_3(self, capsys):
        code, _, err = run(capsys, "du", "--n", "18", "--f", "0,1,2")
        assert code == 3
        assert "limit" in err

    def test_limit_above_ceiling_exit_3(self, capsys):
        code, out, err = run(capsys, "du", "--n", "6", "--f", "0,1,2", "--max-du", "21")
        assert (code, out) == (3, "")
        assert "ceiling n <= 20" in err

    def test_scan_above_du_ceiling_exit_3(self, capsys):
        code, out, err = run(capsys, "du", "--n", "17", "--f", "0,1,2", "--max-du", "17")
        assert (code, out) == (3, "") and "n <= 16" in err
        code, out, err = run(capsys, "analyze", "--n", "18", "--f", "0,1,2", "--max-du", "18")
        assert (code, out) == (3, "") and "n <= 16" in err


class TestTable1:
    def test_rows(self, capsys):
        code, out, _ = run(capsys, "table1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["n", "coefficients"]
        assert [l.split() for l in lines[1:]] == [
            ["8", "1101011"],
            ["10", "110111011"],
            ["14", "1101101011011"],
            ["16", "110110111011011"],
        ]

    def test_json(self, capsys):
        _, out, _ = run(capsys, "table1", "--json")
        rows = json.loads(out)["rows"]
        assert rows[0] == {"n": 8, "coefficients": "1101011"}


class TestRealize:
    def test_pair(self, capsys):
        code, out, _ = run(capsys, "realize", "--targets", "6,14", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["xi"] == [6, 14]
        assert d["f"]["poly"] == "100011"

    def test_bad_target_exit_2(self, capsys):
        code, _, err = run(capsys, "realize", "--targets", "4")
        assert code == 2 and "twice an odd number" in err

    def test_degree_above_ceiling_exit_3(self, capsys):
        # ord_10007(2) = 5003 and ord_1003(2) = 232; u near 10^12 is checked as fast
        for targets in ("20014", "2006", "6,2000000000022"):
            start = time.perf_counter()
            code, out, err = run(capsys, "realize", "--targets", targets)
            assert (code, out) == (3, ""), targets
            assert "degree" in err and time.perf_counter() - start < 1, targets

    def test_two_large_factors(self, capsys):
        # degrees 20 and 21, one distinct-degree block each
        code, out, _ = run(capsys, "realize", "--targets", "82,674", "--json")
        assert code == 0 and json.loads(out)["xi"] == [82, 674]


class TestParsing:
    def test_bad_operand_exit_2(self, capsys):
        code, _, err = run(capsys, "xi", "--f", "g1+g2")
        assert code == 2 and err

    def test_dimension_past_the_cap_exit_2(self):
        # ring.DIMENSION_CAP = 2^21 is checked before any n-bit mask is built;
        # n = 999998 and 1000001 stay well inside it
        argvs = [[verb, "--n", "10000000000", "--f", "0,1,2"] for verb in ("invert", "du", "analyze")]
        argvs += [["compose", "--n", "10000000000", "--f", "0,1,2", "--g", "111"],
                  ["invert", "--n", "2097153", "--f", "0,1,2"]]
        inside = [["invert", "--n", "999998", "--f", "0,1,2"], ["analyze", "--n", "1000001", "--f", "0,1,2"]]
        runs = run_cli_bounded(*argvs, *inside)
        for argv, (code, out, err, _) in zip(argvs, runs):
            n = argv[argv.index("--n") + 1]
            assert (code, out, err) == (2, "", f"dimension {n} is outside 1..2097152\n"), argv
        for argv, (code, out, err, _) in zip(inside, runs[len(argvs):]):
            assert (code, err) == (0, "") and out, argv

    def test_argparse_failures_exit_2(self, capsys):
        # exactly one of --f and --poly on the five operand verbs, neither on the other three
        def exit_code(argv):
            with pytest.raises(SystemExit) as info:
                main(argv)
            return info.value.code, capsys.readouterr().err

        operand_verbs = [["analyze", "--n", "8"], ["invert", "--n", "8"], ["compose", "--g", "g0", "--n", "8"],
                         ["xi"], ["du", "--n", "8"]]
        for head in operand_verbs:
            code, err = exit_code(head + ["--f", "0,1", "--poly", "11"])
            assert code == 2 and "argument --poly: not allowed with argument --f" in err, head
            code, err = exit_code(head)
            assert code == 2 and "one of the arguments --f --poly is required" in err, head
        for head in (["enumerate", "--n", "4"], ["table1"], ["realize", "--targets", "6"]):
            code, err = exit_code(head + ["--f", "0,1"])
            assert code == 2 and "unrecognized arguments: --f 0,1" in err, head
        assert exit_code(["frobnicate"])[0] == 2

    def test_help_exits_0(self, capsys):
        for argv in [["--help"]] + [[verb, "--help"] for verb in VERBS]:
            with pytest.raises(SystemExit) as info:
                main(argv)
            out = capsys.readouterr().out
            assert info.value.code == 0 and out.startswith("usage: shiftperm"), argv
            assert argv == ["--help"] or "[--json]" in out, argv


def test_import_leaves_sympy_out():
    proc = run_bounded("import shiftperm, sys; assert 'sympy' not in sys.modules", timeout=30)
    assert proc.returncode == 0, proc.stderr


def test_closed_stdout_leaves_no_traceback():
    # enumerate --n 16 writes about 500 KB, far more than a pipe buffer holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "shiftperm.cli", "enumerate", "--n", "16"],
        env=CHILD_ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 141
    assert "Traceback" not in err


# Operands of degree <= 64, and now and then an exponent near 10^10;
# dimensions and scan limits run past every limit and ceiling.
_junk = st.text("g0123456789+,- x", max_size=8)
_head = st.sampled_from([[], [0]])  # half the operands contain gamma(0)
_index = st.one_of(st.integers(0, 64).map(lambda k: 2 * k), st.integers(0, 129))
_gamma = st.builds(
    lambda h, ks: "+".join(f"g{k}" for k in h + ks), _head, st.lists(_index, min_size=1, max_size=5)
)
_klist = st.builds(
    lambda h, ks: ",".join(map(str, h + ks)), _head, st.lists(st.integers(0, 64), min_size=1, max_size=5)
)
_bits = st.builds(lambda h, t: "1" * len(h) + t, _head, st.text("01", max_size=64))
HUGE_MARK = "99999999"  # every exponent and gamma subscript _huge_operand draws holds it
_huge = st.integers(10**10 - 9, 10**10 - 1)
_huge_operand = st.one_of(
    st.builds(lambda t, k: f"{t},{k}", _klist, _huge),
    st.builds(lambda t, k: f"{t}+g{2 * k}", _gamma, _huge),
)
_operand = st.one_of(_gamma, _gamma, _klist, _bits, _junk, _gamma, _klist, _bits, _huge_operand)
_dim = st.integers(-2, 24).map(str)
_int = st.one_of(_dim, _dim, _dim, _junk)  # malformed one time in four
_target = st.one_of(st.integers(0, 1 << 13).map(lambda u: 4 * u + 2), st.integers(-4, 1 << 14))


@st.composite
def _argv(draw):
    def operand(flag=None):
        return [flag or draw(st.sampled_from(["--f", "--poly"])), draw(_operand)]

    def optional(*args):
        return list(args) if draw(st.booleans()) else []

    verb = draw(st.sampled_from(VERBS))
    if verb == "analyze":
        argv = ["--n", draw(_int)] + operand()
        argv += optional("--max-du", draw(_int))
    elif verb in ("invert", "du"):
        argv = ["--n", draw(_int)] + operand()
        argv += optional("--max-du", draw(_int)) if verb == "du" else []
    elif verb == "compose":
        argv = operand() + ["--g", operand("--f")[1]] + optional("--n", draw(_int))
    elif verb == "xi":
        argv = operand()
    elif verb == "enumerate":
        argv = ["--n", draw(_int)]
    elif verb == "table1":
        argv = []
    else:
        targets = st.lists(_target.map(str), min_size=1, max_size=3).map(",".join)
        argv = ["--targets", draw(targets | _junk)]
    return [verb] + argv + optional("--json")


CASE_BUDGET_S = 30


# one bounded child for each property test, kept across its examples
@pytest.fixture(scope="module")
def fuzz_cli():
    cli = BoundedCli(CASE_BUDGET_S)
    yield cli
    cli.close()


@pytest.fixture(scope="module")
def spelling_cli():
    cli = BoundedCli(CASE_BUDGET_S)
    yield cli
    cli.close()


def _main(child, *argvs) -> list:
    """(exit code, stdout, stderr, seconds) of each command line, by run_main.
    Those with a huge exponent run in the bounded child, where a regression
    that builds a 10^10-bit int fails at once instead of exhausting memory."""
    run = child.run if any(HUGE_MARK in arg for argv in argvs for arg in argv) else run_main
    return [run(argv) for argv in argvs]


@settings(
    max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(_argv())
def test_fuzz_exit_codes(fuzz_cli, argv):
    [(code, out, err, elapsed)] = _main(fuzz_cli, argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    assert elapsed < CASE_BUDGET_S, (argv, elapsed)
    if code == 0 and "--json" in argv:
        json.loads(out)
    elif code:
        assert err and (code == 2 or not out), argv


@settings(
    max_examples=60, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    st.sampled_from([["analyze", "--n"], ["invert", "--n"], ["du", "--n"], ["compose", "--g", "g0+g2", "--n"], ["xi"]]),
    _dim,
    _operand,
)
def test_poly_and_f_spellings_agree(spelling_cli, verb, dim, text):
    head = verb + [dim] if verb[-1] == "--n" else verb
    f_run, poly_run = _main(spelling_cli, head + ["--f", text], head + ["--poly", text])
    assert f_run[:3] == poly_run[:3], (head, text)
