"""cli.run's two parsing paths against argparse and against the old parser.

cli.run reads a canonical argv from the option table cli._COMMANDS without
argparse, and hands every other argv to the argparse parser built from the
same table.  Three checks keep the two paths one behaviour:

* on generated argv for every command, the canonical parser either declines
  or returns the attributes of the Namespace the table-built argparse parser
  returns;
* the exit code, stdout and stderr of every golden argv and every parser
  case in test_cli equal those of the parser that one options function per
  command used to build, kept below as the reference (so --help, which the
  golden corpus does not pin, keeps its bytes);
* every request of the benchmark's pools takes the canonical path.

hypothesis is a test-only tool; the module is skipped where it is not
installed.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from arczeta import arcspace, cli
from arczeta.cli import (
    _CLOSED_FORMS,
    _cmd_beta_closed,
    _cmd_beta_expr,
    _cmd_discriminate,
    _cmd_inertia,
    _cmd_recover,
    _cmd_recover_naive,
    _cmd_selfcheck,
    _cmd_split,
    _cmd_zeta,
    _int_at_least,
    _integer,
)
from test_cli import PARSER_ARGVS, _outcome

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_ARGVS = [
    json.loads(line)["argv"]
    for line in (ROOT / "tests" / "golden" / "cli.jsonl").read_text(encoding="utf-8").splitlines()
]


# ---------------------------------------------------------------------------
# the reference: the parser as one options function per command built it
# ---------------------------------------------------------------------------


class _Deferred:
    def __init__(self, options, **kwargs):
        self._options = options
        self._kwargs = kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self._kwargs)
        self._options(parser)
        return parser.parse_known_args(args, namespace)


def _commands(parser: argparse.ArgumentParser, dest: str):
    return parser.add_subparsers(dest=dest, required=True, parser_class=_Deferred)


def _json_option(parser) -> None:
    parser.add_argument("--json", action="store_true", help="machine-readable output")


def _beta_options(parser) -> None:
    kinds = _commands(parser, "kind")
    for kind, (help_text, names, _) in _CLOSED_FORMS.items():
        kinds.add_parser(kind, options=_closed_form_options(names), help=help_text)
    kinds.add_parser(
        "expr", options=_expr_options, help="evaluate beta of a set-expression JSON file"
    )


def _closed_form_options(names):
    def options(parser) -> None:
        _json_option(parser)
        for name in names:
            parser.add_argument(f"--{name}", type=_int_at_least(0), required=True)
        parser.set_defaults(func=_cmd_beta_closed)

    return options


def _expr_options(parser) -> None:
    _json_option(parser)
    parser.add_argument("source", help="path to expression JSON, or - for stdin")
    parser.set_defaults(func=_cmd_beta_expr)


def _zeta_options(parser) -> None:
    _json_option(parser)
    parser.add_argument("--dim", type=_integer, required=True)
    parser.add_argument("--plus", type=_integer, required=True)
    parser.add_argument("--minus", type=_integer, required=True)
    parser.add_argument(
        "--selector", choices=list(arcspace.SELECTORS), default=arcspace.NAIVE
    )
    parser.add_argument("--order", type=_int_at_least(1), default=6)
    parser.add_argument("--strata", action="store_true", help="dump the stratum reports")
    parser.set_defaults(func=_cmd_zeta)


def _recover_options(parser) -> None:
    _json_option(parser)
    parser.add_argument("--plus-coeff", required=True, dest="plus_coeff")
    parser.add_argument("--minus-coeff", required=True, dest="minus_coeff")
    parser.set_defaults(func=_cmd_recover)


def _recover_naive_options(parser) -> None:
    _json_option(parser)
    parser.add_argument("--coeff", required=True)
    parser.set_defaults(func=_cmd_recover_naive)


def _poly_options(parser) -> None:
    _json_option(parser)
    parser.add_argument("--poly", required=True, help="germ text, file, or -")
    parser.add_argument(
        "--dim", type=_int_at_least(1), default=None, help="override variable count (>= 1)"
    )


def _inertia_options(parser) -> None:
    _poly_options(parser)
    parser.set_defaults(func=_cmd_inertia)


def _split_options(parser) -> None:
    _poly_options(parser)
    parser.add_argument("--jet", type=_int_at_least(3), default=3, help="jet order (>= 3)")
    parser.set_defaults(func=_cmd_split)


def _discriminate_options(parser) -> None:
    _json_option(parser)
    parser.add_argument("--f", required=True, help="first germ text, file, or -")
    parser.add_argument("--g", required=True, help="second germ text, file, or -")
    parser.add_argument("--order", type=_int_at_least(1), default=6)
    parser.set_defaults(func=_cmd_discriminate)


def _selfcheck_options(parser) -> None:
    _json_option(parser)
    parser.add_argument("--max", type=_int_at_least(2), default=12)
    parser.set_defaults(func=_cmd_selfcheck)


def _reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arczeta",
        description=(
            "Exact virtual Poincare polynomials of signature quadrics and "
            "zeta functions of quadratic germs"
        ),
    )
    commands = _commands(parser, "command")
    commands.add_parser("beta", options=_beta_options, help="virtual Poincare polynomials")
    commands.add_parser(
        "zeta", options=_zeta_options, help="zeta series of a diagonal quadratic germ"
    )
    commands.add_parser(
        "recover", options=_recover_options, help="square counts from signed T^2 coefficients"
    )
    commands.add_parser(
        "recover-naive",
        options=_recover_naive_options,
        help="min/max from a naive T^2 coefficient",
    )
    commands.add_parser(
        "inertia", options=_inertia_options, help="Hessian inertia of a polynomial germ"
    )
    commands.add_parser(
        "split", options=_split_options, help="jet-level splitting of a singular germ"
    )
    commands.add_parser(
        "discriminate", options=_discriminate_options, help="compare zeta data of two germs"
    )
    commands.add_parser("selfcheck", options=_selfcheck_options, help="run the identity grids")
    return parser


def test_help_usage_errors_and_answers_match_the_reference_parser(capsys, monkeypatch):
    argvs = GOLDEN_ARGVS + PARSER_ARGVS
    current = [_outcome(capsys, list(argv)) for argv in argvs]
    # run() with the canonical path declined and the reference as its parser
    monkeypatch.setattr(cli, "_parse_canonical", lambda argv: None)
    monkeypatch.setattr(cli, "_build_parser", _reference_parser)
    reference = [_outcome(capsys, list(argv)) for argv in argvs]
    mismatches = [argv for argv, a, b in zip(argvs, current, reference) if a != b]
    assert mismatches == []
    # help texts and usage errors were among them
    assert sum(code == 0 and "usage: arczeta" in out for code, out, _ in current) >= 13
    assert sum(code == 2 and "usage: arczeta" in err for code, _, err in current) >= 10


# ---------------------------------------------------------------------------
# the canonical parser on generated argv
# ---------------------------------------------------------------------------


def _argparse_namespace(argv):
    """The Namespace the table-built argparse parser gives argv, or None on exit."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._build_parser().parse_args(argv)
        except SystemExit:
            return None


# Values that every option of their kind takes in either form: none is empty
# or starts with "-".
COUNT = st.integers(0, 9).map(str)
ORDER = st.integers(1, 12).map(str)
GERM = st.sampled_from(["x1^2", "x1^2 - x2^2", "x2*x3", "x1^2 + x2^3", "1/2*x1^2", "x1 x2"])
COEFF = st.sampled_from(['[[0, 1]]', '[[-1, 2], [0, -1]]', "[]"])
# command words -> {flag: value strategy or None for a store_true flag}, required flags
COMMANDS = {
    ("zeta",): (
        {"--json": None, "--dim": COUNT, "--plus": COUNT, "--minus": COUNT,
         "--selector": st.sampled_from(arcspace.SELECTORS), "--order": ORDER, "--strata": None},
        ("--dim", "--plus", "--minus"),
    ),
    ("recover",): (
        {"--json": None, "--plus-coeff": COEFF, "--minus-coeff": COEFF},
        ("--plus-coeff", "--minus-coeff"),
    ),
    ("recover-naive",): ({"--json": None, "--coeff": COEFF}, ("--coeff",)),
    ("inertia",): ({"--json": None, "--poly": GERM, "--dim": ORDER}, ("--poly",)),
    ("split",): (
        {"--json": None, "--poly": GERM, "--dim": ORDER, "--jet": st.integers(3, 7).map(str)},
        ("--poly",),
    ),
    ("discriminate",): (
        {"--json": None, "--f": GERM, "--g": GERM, "--order": ORDER}, ("--f", "--g")
    ),
    ("selfcheck",): ({"--json": None, "--max": st.integers(2, 5).map(str)}, ()),
    **{
        ("beta", kind): ({"--json": None, **{f"--{n}": COUNT for n in names}},
                         tuple(f"--{n}" for n in names))
        for kind, (_, names, _) in _CLOSED_FORMS.items()
    },
    # its source is a positional, so beta expr is never canonical
    ("beta", "expr"): ({"--json": None}, ()),
}
MUTATIONS = [
    "repeat", "abbreviate", "flip form", "dash value", "empty value", "unknown option",
    "bad value", "stray positional", "double dash", "flag value", "drop required", "help",
]


@st.composite
def argvs(draw):
    """A canonical argv for some command with True, or a mutation of one with None."""
    words, (options, required) = draw(st.sampled_from(sorted(COMMANDS.items())))
    chosen = list(required) + [
        flag for flag in options if flag not in required and draw(st.booleans())
    ]
    chosen = draw(st.permutations(chosen))
    items = []  # one list of words per option
    for flag in chosen:
        if options[flag] is None:
            items.append([flag])
        elif draw(st.booleans()):
            items.append([flag, draw(options[flag])])
        else:
            items.append([f"{flag}={draw(options[flag])}"])
    mutation = draw(st.none() | st.sampled_from(MUTATIONS))
    at = draw(st.integers(0, len(items)))
    valued = [i for i, item in enumerate(items) if len(item) == 2 or "=" in item[0]]
    if mutation == "repeat" and items:
        items.insert(at, list(draw(st.sampled_from(items))))
    elif mutation == "abbreviate" and chosen:
        flag = draw(st.sampled_from(chosen))
        i = chosen.index(flag)
        short = flag[: draw(st.integers(2, len(flag) - 1))] if len(flag) > 3 else flag
        items[i] = [short + items[i][0][len(flag):]] + items[i][1:]
    elif mutation == "flip form" and valued:
        i = draw(st.sampled_from(valued))
        item = items[i]
        items[i] = item[0].split("=", 1) if len(item) == 1 else ["=".join(item)]
    elif mutation in ("dash value", "empty value", "bad value") and valued:
        i = draw(st.sampled_from(valued))
        flag = items[i][0].split("=", 1)[0]
        value = {"dash value": "-" + draw(st.sampled_from(["1", "x1^2", "", "-json"])),
                 "empty value": "",
                 "bad value": draw(st.sampled_from(["x", "0", "1.5", "bad", "2 3"]))}[mutation]
        items[i] = [flag, value] if draw(st.booleans()) else [f"{flag}={value}"]
    elif mutation == "unknown option":
        items.insert(at, [draw(st.sampled_from(["--bogus", "--bogus=1", "-j", "--"]))])
    elif mutation == "stray positional":
        items.insert(at, [draw(st.sampled_from(["stray", "x0", "zeta", "1", "--json"]))])
    elif mutation == "double dash":
        items.insert(at, ["--"])
    elif mutation == "flag value":
        items.insert(at, [draw(st.sampled_from(["--json=1", "--json=", "--json=true"]))])
    elif mutation == "drop required" and required:
        flag = draw(st.sampled_from(required))
        items = [item for item in items if item[0].split("=", 1)[0] != flag]
    elif mutation == "help":
        items.insert(at, [draw(st.sampled_from(["-h", "--help", "--he"]))])
    else:
        mutation = None
    argv = list(words) + [word for item in items for word in item]
    canonical = mutation in (None, "flip form") and words != ("beta", "expr")
    return argv, True if canonical else None


@settings(max_examples=300, deadline=None)
@given(argvs())
# (argv, True): canonical; (argv, False): left to argparse
@example((["inertia", "--poly=-x1^2"], True))
@example((["inertia", "--poly", "-x1^2"], False))  # an argparse usage error
@example((["inertia", "--json", "--json", "--poly", "x1^2"], False))
@example((["split", "--poly", "x1^2", "--jet="], False))
@example((["zeta", "--dim=-1", "--plus", "1", "--minus", "0"], True))
@example((["inertia", "--poly", "x1^2", "--dim=-1"], False))
@example((["split", "--poly", "x1^2", "--js"], False))
@example((["inertia", "--poly", "x1^2", "--"], False))
@example((["inertia", "--poly="], False))
@example((["inertia", "--poly", ""], False))
@example((["inertia", "--poly", "x1^2", "--json=1"], False))
@example((["beta", "expr", '{"atom": "point"}'], False))
@example((["beta", "expr", "source", "x"], False))  # a positional is no option
@example((["zeta", "--dim", "2", "--plus", "1", "--minus", "1", "--selector=plus"], True))
@example((["beta", "z", "--m=1", "--M", "2", "--json"], True))
def test_the_canonical_parser_declines_or_agrees_with_argparse(case):
    argv, canonical = case
    strict = cli._parse_canonical(list(argv))
    if canonical is not None:
        assert (strict is not None) == canonical, argv
    if strict is not None:
        assert vars(strict) == vars(_argparse_namespace(list(argv))), argv


# ---------------------------------------------------------------------------
# integer options
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("words, flag, value", [
    (["zeta", "--plus", "1", "--minus", "0"], "--dim", "\u0663"),  # Arabic-Indic 3
    (["zeta", "--dim", "3", "--plus", "1", "--minus", "0"], "--order", "+2"),
    (["zeta", "--plus", "1", "--minus", "0"], "--dim", "1_0"),
    (["selfcheck"], "--max", "\uff12"),  # fullwidth 2
])
def test_integer_options_read_only_ascii_digits(capsys, words, flag, value):
    # what int() reads but germ text and the JSON readers refuse
    assert int(value) > 0
    for argv in (words + [flag, value], words + [f"{flag}={value}"]):
        assert cli._parse_canonical(argv) is None, argv
        code, out, err = _outcome(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.endswith(f"error: argument {flag}: invalid int value: '{value}'\n"), argv


def test_a_negative_zeta_count_still_reaches_the_germ_check(capsys):
    argv = ["zeta", "--dim=-1", "--plus", "1", "--minus", "0", "--json"]
    assert cli._parse_canonical(argv).dim == -1
    code, out, err = _outcome(capsys, argv)
    assert (code, json.loads(out)["error"], err) == (1, "InvalidGerm", "")


# ---------------------------------------------------------------------------
# the benchmark's requests
# ---------------------------------------------------------------------------


def test_every_benchmark_request_takes_the_canonical_path(monkeypatch):
    path = ROOT / "perfbench" / "workloads.py"
    if not path.is_file():
        pytest.skip("no perfbench/workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    argvs = [
        list(request.argv)
        for seed in (1, 2, 3)
        for pool in workloads.POOLS.values()
        for request in pool(seed)
    ]
    expected = [_argparse_namespace(argv) for argv in argvs]
    assert None not in expected
    assert [vars(cli._parse_canonical(argv)) for argv in argvs] == [vars(e) for e in expected]
