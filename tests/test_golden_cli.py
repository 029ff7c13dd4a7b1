"""Replay of a recorded CLI corpus: every verb over a fixed input grid.

Each case in golden/cli_corpus.json holds an argument list, its exit
code and its byte-exact stdout and stderr, in text and in --json form.
The corpus pins the output contract across refactors, and its argument
lists are the one list of golden command lines.  A case is added as a
new {"argv": [...]} entry in the file; then

    PYTHONPATH=src python tests/test_golden_cli.py

runs every argument list again and records its answer.  Re-record the
cases already there only for a deliberate change of the contract.
"""

import json
import pathlib

from checks import run_main

CORPUS = pathlib.Path(__file__).with_name("golden") / "cli_corpus.json"


def test_corpus_replays_byte_identically():
    for case in json.loads(CORPUS.read_text()):
        assert run_main(case["argv"])[:3] == (case["exit"], case["stdout"], case["stderr"]), case["argv"]


if __name__ == "__main__":
    corpus = []
    for case in json.loads(CORPUS.read_text()):
        code, out, err, _ = run_main(case["argv"])
        corpus.append({"argv": case["argv"], "exit": code, "stdout": out, "stderr": err})
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
