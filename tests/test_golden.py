"""Replay the command-line golden corpus byte for byte.

Each line of golden/cli.jsonl holds one argv together with the exit code
and the exact standard output that argv produced when the corpus was
captured.  The corpus covers every subcommand with --json, beta expr on
all ten node tags, every MalformedExpression envelope of the expression
reader, zeta --strata for each selector and a small selfcheck, so any
refactor that changes a byte of output or an exit code fails here.  The
corpus also replays back to front in one process, so state that one argv
leaves behind shows up in a later one.

golden/germ_text.jsonl pins the germ text reader the same way.  Each line
holds a text, an nvars of null, 1 or 3, and what parse_germ made of them:
the germ's to_json(), or the error's class name and message.  The texts are
seeded strings over x, 0-3, 10, x0, x1, /, ^, *, +, -, space, tab, newline,
a superscript two and an Arabic-Indic three, some of them edits of well
formed germs, plus a few chosen ones: the order of checks within a term
(x1*3* fails at offset 5), space inside a number, over-long numbers.
"""

import json
from pathlib import Path

import pytest

from arczeta.cli import run
from arczeta.germ import parse_germ

CORPUS = Path(__file__).parent / "golden" / "cli.jsonl"
GERM_TEXTS = Path(__file__).parent / "golden" / "germ_text.jsonl"
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


def _parsed(text: str, nvars):
    """What parse_germ makes of text: its germ JSON, or the error's name and detail."""
    try:
        return {"germ": parse_germ(text, nvars).to_json()}
    except Exception as exc:
        return {"error": type(exc).__name__, "detail": str(exc)}


def test_germ_text_matches_golden():
    mismatches = []
    for index, line in enumerate(GERM_TEXTS.read_text(encoding="utf-8").splitlines()):
        case = json.loads(line)
        expected = {key: case[key] for key in ("germ", "error", "detail") if key in case}
        if _parsed(case["text"], case["nvars"]) != expected:
            mismatches.append(index)
    assert mismatches == []
