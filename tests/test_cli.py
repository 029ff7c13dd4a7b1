import json

import pytest

from shiftperm.cli import main


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
        assert out1 == out2

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "6", "--f", "g0+g2")
        assert code == 0
        pairs = dict(line.split(None, 1) for line in out.strip().splitlines())
        assert pairs["is_permutation"] == "false"
        assert pairs["gcd_witness"] == "11"
        assert pairs["inverse"] == "-"

    def test_limit_flags(self, capsys):
        code, out, _ = run(capsys, "analyze", "--n", "8", "--f", "0,1,2",
                           "--max-bruteforce", "4", "--max-du", "4", "--json")
        assert code == 0
        d = json.loads(out)
        assert d["degree"] is None and d["differential_uniformity"] is None
        assert d["is_permutation"] is True


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


class TestParsing:
    def test_bad_operand_exit_2(self, capsys):
        code, _, err = run(capsys, "xi", "--f", "g1+g2")
        assert code == 2 and err

    def test_argparse_failures_exit_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--n", "8"])  # --f/--poly missing
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["analyze", "--n", "8", "--f", "0,1", "--poly", "11"])  # exclusive
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2
