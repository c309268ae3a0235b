"""Replay a golden CLI corpus: every invocation keeps its exit code and stdout.

`data/cli_golden.json` lists argv, exit code and stdout for invocations of all
11 subcommands in text, json and csv, including negative verdicts (exit 1)
and usage, domain and format errors (exit 2). It was captured from the CLI
before its serialization and emit code were rewritten to one codec and one
emit path, and pins their bytes: edit an entry only for an intended output
change.
"""

import json
from pathlib import Path

import pytest

from amicable.cli import run

CORPUS = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def test_corpus_covers_every_subcommand():
    commands = {case["argv"][0] for case in CORPUS}
    assert commands >= {
        "sigma", "s", "classify", "check-pair", "search", "aliquot", "cycles",
        "cycle-verify", "generate", "verify-known", "audit",
    }
    assert {case["exit"] for case in CORPUS} == {0, 1, 2}


@pytest.mark.parametrize("case", CORPUS, ids=lambda case: " ".join(case["argv"]))
def test_cli_golden(capsys, case):
    code = run(list(case["argv"]))
    out = capsys.readouterr().out
    assert (code, out) == (case["exit"], case["stdout"])
