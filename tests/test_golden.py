"""Replay the command-line golden corpus byte for byte.

Each line of golden/cli.jsonl holds one argv together with the exit code
and the exact standard output that argv produced when the corpus was
captured.  The corpus covers every subcommand with --json, beta expr on
all ten node tags, every MalformedExpression envelope of the expression
reader, zeta --strata for each selector and a small selfcheck, so any
refactor that changes a byte of output or an exit code fails here.  The
corpus also replays back to front in one process, so state that one argv
leaves behind shows up in a later one.
"""

import json
from pathlib import Path

import pytest

from arczeta.cli import run

CORPUS = Path(__file__).parent / "golden" / "cli.jsonl"
CASES = [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


@pytest.mark.parametrize(
    "case", CASES, ids=[f"{i}-{' '.join(c['argv'][:2])}" for i, c in enumerate(CASES)]
)
def test_cli_matches_golden(case, capsys):
    code = run(list(case["argv"]))
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


def test_cli_replays_the_corpus_in_reverse_in_one_process(capsys):
    mismatches = []
    for index in reversed(range(len(CASES))):
        case = CASES[index]
        code = run(list(case["argv"]))
        if (code, capsys.readouterr().out) != (case["exit"], case["stdout"]):
            mismatches.append(index)
    assert mismatches == []
