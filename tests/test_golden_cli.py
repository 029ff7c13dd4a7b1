"""Replay of a recorded CLI corpus: every verb over a fixed input grid.

Each case in golden/cli_corpus.json holds an argument list, its exit
code and its byte-exact stdout, in text and in --json form.  The corpus
pins the output contract across refactors; regenerate it only for a
deliberate change of that contract, with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import io
import json
import pathlib

from shiftperm.cli import main

CORPUS = pathlib.Path(__file__).with_name("golden") / "cli_corpus.json"

GRID = [
    ["analyze", "--n", "5", "--f", "g0+g2+g4"],
    ["analyze", "--n", "8", "--f", "g0+g2+g4"],
    ["analyze", "--n", "9", "--f", "g0+g2+g6"],
    ["analyze", "--n", "10", "--poly", "1101"],
    ["analyze", "--n", "11", "--f", "g0+g2"],
    ["analyze", "--n", "12", "--f", "g0+g2"],
    ["analyze", "--n", "6", "--f", "g0+g2"],
    ["analyze", "--n", "8", "--f", "0,1,2", "--max-bruteforce", "4", "--max-du", "4"],
    ["du", "--n", "7", "--f", "g0+g2+g4"],
    ["du", "--n", "10", "--f", "g0+g2+g6"],
    ["du", "--n", "12", "--f", "g0+g2"],
    ["invert", "--n", "8", "--poly", "111"],
    ["invert", "--n", "9", "--f", "g0+g2+g6"],
    ["invert", "--n", "11", "--f", "g0+g2+g4"],
    ["invert", "--n", "12", "--f", "g0+g2+g4"],
    ["compose", "--f", "g2", "--g", "g0+g4+g6", "--n", "8"],
    ["compose", "--f", "g0+g2+g4", "--g", "g0+g2", "--n", "7"],
    ["compose", "--f", "g0+g2", "--g", "g0+g2"],
    ["compose", "--f", "g2", "--g", "g2", "--n", "8"],
    ["xi", "--f", "0,1,2"],
    ["xi", "--poly", "1101"],
    ["xi", "--f", "g0+g2+g6+g8"],
    ["enumerate", "--n", "4"],
    ["enumerate", "--n", "7"],
    ["enumerate", "--n", "8"],
    ["table1"],
    ["realize", "--targets", "6,14"],
    ["realize", "--targets", "4"],
    ["du", "--n", "15", "--f", "g0+g2+g4"],
    ["analyze", "--n", "8", "--f", "g1"],
]


def run_case(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def cases():
    for argv in GRID:
        yield argv
        yield argv + ["--json"]


def test_corpus_replays_byte_identically():
    recorded = json.loads(CORPUS.read_text())
    assert [c["argv"] for c in recorded] == list(cases())
    for case in recorded:
        code, out = run_case(case["argv"])
        assert (code, out) == (case["exit"], case["stdout"]), case["argv"]


if __name__ == "__main__":
    corpus = []
    for argv in cases():
        code, out = run_case(argv)
        corpus.append({"argv": argv, "exit": code, "stdout": out})
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
