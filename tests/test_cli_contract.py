"""The command-line contract on generated input.

Every argv ends in exit 0, in exit 2 (a usage error), or in exit 1 with the
two-key envelope {"error", "detail"}, and never in a traceback.  Every
subcommand that reads input is covered: germ text and germ JSON (inertia,
split, discriminate), set-expression JSON (beta expr), polynomial JSON
(recover, recover-naive) and counts (zeta).  The inputs are well-formed
with stray characters, non-finite JSON numbers, non-ASCII digits and digit
runs longer than CPython's limit on int/str conversions spliced in.  No
specific error is asserted for those runs: an interpreter without the
limit may answer them.  Germ text for inertia and split and expression
JSON for beta expr keep a test of their own, so the other commands add
examples instead of sharing them.  Germ variable counts are also tried at
each cap and one over it.  hypothesis is a test-only tool; the module is
skipped where it is not installed.
"""

import contextlib
import io
import json
import sys

import pytest

from arczeta.arcspace import MINUS, PLUS, SELECTORS
from arczeta.cli import run
from arczeta.germ import MAX_GERM_VARIABLES, MAX_SPLIT_VARIABLES, Inertia, _t2_coefficients

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

# Longer than CPython's default int/str digit limit (4,300).  An interpreter
# without that limit would read an index this long as a variable count.
LONG = "7" * 5000
HAS_DIGIT_LIMIT = hasattr(sys, "get_int_max_str_digits")

# Strays spliced into well-formed input.  Numbers stay one or two digits
# long, apart from LONG, so no germ asks for thousands of variables and no
# atom for a huge beta.
GERM_STRAYS = [
    "x", "^", "*", "+", "-", "/", "0", "12", "1/0", " ", "y", "(", ".", "^^",
    "\u00b2", "x\u00b3", "\uff12", "\u0663",  # superscripts, fullwidth, Arabic-Indic
    '{"nvars": ', "{", "}", "[",
] + [LONG] * HAS_DIGIT_LIMIT
EXPR_STRAYS = [
    "{", "}", "[", "]", ",", ":", "-", "0", "12", "2.5", "1e3", '"3"', "null", " ",
    '{"atom": "point"}', '"children": [', '"op": "product"', "\u00b2", LONG,
]
# Non-finite numbers are valid input to Python's json module.
JSON_STRAYS = EXPR_STRAYS + ["Infinity", "-Infinity", "NaN", "1e400", '"x"', '"1/2"', "\uff12"]
# A 2,500-digit number is under the digit limit, but the change split_jet
# builds from it has numbers over it.
SEVENS = "7" * 2500

FACTOR = st.builds(
    "{}{}".format, st.sampled_from(["x1", "x2", "x3"]), st.sampled_from(["", "^2", "^3"])
)
TERM = st.builds(
    "{}{}".format,
    st.sampled_from(["", "3*", "1/2*", "12*", "0*"]),
    st.lists(FACTOR, min_size=1, max_size=3).map("*".join),
)
GERM_TEXT = st.builds(
    lambda first, rest: first + "".join(sign + term for sign, term in rest),
    TERM,
    st.lists(st.tuples(st.sampled_from([" + ", " - ", "-"]), TERM), max_size=4),
)

# mostly in range, sometimes negative or not an integer
FIELD = st.one_of(st.integers(0, 12), st.integers(0, 3), st.sampled_from([-1, "3", 2.5, None]))
ATOM = st.one_of(
    st.builds(lambda k: {"atom": "affine_space", "k": k}, FIELD),
    st.builds(lambda d: {"atom": "sphere", "dim": d}, FIELD),
    st.builds(lambda k: {"atom": "projective_space", "k": k}, FIELD),
    st.builds(
        lambda c, s, t: {"atom": "quadric_affine", "c": c, "s": s, "t": t},
        st.sampled_from([-1, 0, 1, 2]),
        FIELD,
        FIELD,
    ),
    st.builds(lambda m, M: {"atom": "quadric_projective", "m": m, "M": M}, FIELD, FIELD),
    st.sampled_from([{"atom": "point"}, {"atom": "punctured_line"}, {"atom": "cube"}]),
)
EXPRESSION = st.recursive(
    ATOM,
    lambda children: st.one_of(
        st.lists(children, max_size=3).map(lambda cs: {"op": "product", "children": cs}),
        st.lists(children, max_size=3).map(lambda cs: {"op": "disjoint_union", "children": cs}),
        st.lists(children, min_size=1, max_size=3).map(
            lambda cs: {"op": "difference", "children": cs}
        ),
    ),
    max_leaves=6,
).map(json.dumps)


@st.composite
def _spliced(draw, text, strays):
    """text with up to three strays spliced in; a digit run never grows by a splice."""
    text = draw(text)
    for stray in draw(st.lists(st.sampled_from(strays), max_size=3)):
        at = draw(st.integers(0, len(text)))
        before = " " if text[at - 1 : at].isdigit() and stray[:1].isdigit() else ""
        after = " " if stray[-1:].isdigit() and text[at : at + 1].isdigit() else ""
        text = text[:at] + before + stray + after + text[at:]
    return text


# Small polynomial JSON, and the T^2 coefficients of signature quadrics
# (s + t <= 4), so that recover and recover-naive also get answerable input.
POLY_TERM = st.tuples(st.integers(-6, 6), st.integers(-3, 3)).map(lambda t: [t[0], str(t[1])])
T2 = [_t2_coefficients(Inertia(s, t, 0)) for s in range(5) for t in range(5 - s) if s + t]
T2_JSON = [json.dumps(c[selector].to_json()) for c in T2 for selector in SELECTORS]
POLY_JSON = st.one_of(st.sampled_from(T2_JSON), st.lists(POLY_TERM, max_size=4).map(json.dumps))
# (plus, minus) pairs of one quadric, or of none
RECOVER_PAIR = st.one_of(
    st.sampled_from([(json.dumps(c[PLUS].to_json()), json.dumps(c[MINUS].to_json())) for c in T2]),
    st.tuples(POLY_JSON, POLY_JSON),
)


@st.composite
def _germ_json(draw):
    nvars = draw(st.integers(1, 3))
    exps = st.lists(st.integers(0, 3), min_size=nvars, max_size=nvars)
    coeff = st.sampled_from(["1", "-2", "1/2", "0", 3, -1])
    terms = draw(st.lists(st.tuples(exps, coeff).map(list), max_size=4))
    return json.dumps({"nvars": nvars, "terms": terms})


GERM = st.one_of(_spliced(GERM_TEXT, GERM_STRAYS), _spliced(_germ_json(), JSON_STRAYS))
NOT_COUNTS = st.sampled_from(["-1", "0", "x", "2.5", "", "\uff12", "0x3", LONG])


def _count(low, high):
    """low..high as text, or one time in eight something else."""
    return st.sampled_from([True] * 7 + [False]).flatmap(
        lambda valid: st.integers(low, high).map(str) if valid else NOT_COUNTS
    )


# small sizes (zeta order <= 8, dim <= 6) keep the suite fast
ORDER = _count(1, 8)
ZETA = st.builds(
    lambda dim, plus, minus, selector, order, strata: [
        "zeta", f"--dim={dim}", f"--plus={plus}", f"--minus={minus}",
        f"--selector={selector}", f"--order={order}",
    ] + ["--strata"] * strata,
    _count(0, 6),
    _count(0, 3),
    _count(0, 3),
    st.sampled_from([*SELECTORS, "both"]),
    ORDER,
    st.booleans(),
)
SWAP_SIGNS = str.maketrans("+-", "-+")


def _discriminate(f, g, order):
    return ["discriminate", f"--f={f}", f"--g={g}", f"--order={order}"]


# two germs, or one against itself with its signs swapped (most often in the
# same variables, so the comparison runs)
DISCRIMINATE = st.builds(_discriminate, GERM, GERM, ORDER) | st.builds(
    lambda f, order: _discriminate(f, f.translate(SWAP_SIGNS), order), GERM, ORDER
)
RECOVER = RECOVER_PAIR.flatmap(
    lambda pair: st.builds(
        lambda plus, minus: ["recover", f"--plus-coeff={plus}", f"--minus-coeff={minus}"],
        _spliced(st.just(pair[0]), JSON_STRAYS),
        _spliced(st.just(pair[1]), JSON_STRAYS),
    )
)
RECOVER_NAIVE = _spliced(POLY_JSON, JSON_STRAYS).map(
    lambda text: ["recover-naive", f"--coeff={text}"]
)
ARGV = st.sampled_from(["inertia", "split", "expr"]).flatmap(
    lambda command: _spliced(EXPRESSION, EXPR_STRAYS).map(
        lambda text: ["beta", "expr", "--", text]
    )
    if command == "expr"
    else _spliced(GERM_TEXT, GERM_STRAYS).map(lambda text: [command, f"--poly={text}"])
)
OTHER_ARGV = st.one_of(
    st.sampled_from(["inertia", "split"]).flatmap(
        lambda command: _spliced(_germ_json(), JSON_STRAYS).map(
            lambda text: [command, f"--poly={text}"]
        )
    ),
    ZETA,
    DISCRIMINATE,
    RECOVER,
    RECOVER_NAIVE,
)


def _run(argv):
    """run(argv) with an empty stdin ('-' reads it); (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO("")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def _check(argv, as_json):
    words = 2 if argv[0] == "beta" else 1  # --json goes after the (sub)command
    code, out, err = _run(argv[:words] + ["--json"] * as_json + argv[words:])
    assert "Traceback" not in err
    assert code in (0, 1, 2)
    if code == 1:
        assert set(json.loads(out)) == {"error", "detail"}


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(argv=ARGV, as_json=st.booleans())
@example(argv=["inertia", "--poly=x1^²"], as_json=True)
@example(argv=["inertia", "--poly=x²^2"], as_json=False)
@example(argv=["split", "--poly=x1^2 + ２*x1^3"], as_json=True)
@example(argv=["inertia", "--poly=0", "--dim", "0"], as_json=True)
@example(argv=["split", "--poly=" + LONG + "*x1^2"], as_json=True)
@example(argv=["inertia", "--poly=x1^" + LONG], as_json=True)
@example(argv=["beta", "expr", '{"atom": "affine_space", "k": ' + LONG + "}"], as_json=True)
@example(argv=["recover", "--plus-coeff", f"[[0, {LONG}]]", "--minus-coeff", "[]"], as_json=True)
@example(argv=["split", f"--poly={SEVENS}*x1^2 + {SEVENS}1*x1*x2 + x2^2"], as_json=True)
@example(argv=["split", f"--poly={SEVENS}*x1^2 + {SEVENS}1*x1*x2 + x2^2"], as_json=False)
def test_every_input_keeps_the_exit_code_contract(argv, as_json):
    _check(argv, as_json)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(argv=OTHER_ARGV, as_json=st.booleans())
@example(argv=["recover", "--plus-coeff=[[0, Infinity]]", "--minus-coeff=[]"], as_json=True)
@example(argv=["recover-naive", "--coeff=[[0, NaN]]"], as_json=False)
@example(argv=["recover-naive", "--coeff=[[0, 1.9], [-1, -1.5]]"], as_json=True)
@example(argv=["recover-naive", '--coeff=[[0, true], [-1, "-1"]]'], as_json=True)
@example(argv=["recover-naive", '--coeff=[[true, "1"], [-1, "-1"]]'], as_json=False)
@example(argv=["recover", "--plus-coeff=[[-2, 1.0], [-1, 1]]", "--minus-coeff=[]"], as_json=True)
@example(argv=["zeta", "--dim=2", "--plus=3", "--minus=0", "--order=8", "--strata"], as_json=True)
@example(argv=["discriminate", "--f=x1^2", "--g=x1^2 + x2^2"], as_json=True)
@example(argv=["inertia", '--poly={"nvars": 2, "terms": [[[true, 1], "1"]]}'], as_json=True)
@example(argv=["inertia", '--poly={"nvars": true, "terms": [[[2], "1"]]}'], as_json=True)
def test_every_other_command_keeps_the_exit_code_contract(argv, as_json):
    _check(argv, as_json)


@pytest.mark.parametrize("as_json", [True, False])
def test_a_command_out_of_memory_ends_in_the_envelope(monkeypatch, as_json):
    def exhausted(germ):
        raise MemoryError

    monkeypatch.setattr("arczeta.germ.hessian_inertia", exhausted)
    code, out, err = _run(["inertia", "--poly=x1^2"] + ["--json"] * as_json)
    assert (code, err) == (1, "")
    assert json.loads(out) == {"error": "MemoryError", "detail": "the command ran out of memory"}


def _x1_squared(nvars: int) -> str:
    """Germ JSON of x1^2 in nvars variables."""
    return json.dumps({"nvars": nvars, "terms": [[[2] + [0] * (nvars - 1), "1"]]})


G, S = MAX_GERM_VARIABLES, MAX_SPLIT_VARIABLES
INERTIA_AT_G = "s = 1, t = 0, rank = 1, corank = 9999, index = 0"
SPLIT_AT_S = "inertia: s = 1, t = 0, corank = 999 (jet order 3)"


def _envelope(error: str, detail: str) -> str:
    return json.dumps({"detail": detail, "error": error}, sort_keys=True)


SPLIT_OVER_S = _envelope("ResultTooLarge", "split takes at most 1000 variables, got 1001")


# argv -> (exit code, first line of stdout, end of stderr)
AT_AND_OVER_CAPS = {
    "index": (["inertia", f"--poly=x1^2 + x{G}^3"], 0, INERTIA_AT_G, ""),
    "index over": (["inertia", f"--poly=x1^2 + x{G + 1}^3"], 1, _envelope(
        "GermSyntaxError", "syntax error at offset 8: variable index must be at most 10000"
    ), ""),
    "index of eight digits": (["inertia", "--poly=x10000000^2 + x1^3"], 1, _envelope(
        "GermSyntaxError", "syntax error at offset 1: variable index must be at most 10000"
    ), ""),
    "--dim": (["inertia", "--poly=x1^2", f"--dim={G}"], 0, INERTIA_AT_G, ""),
    "--dim over": (
        ["inertia", "--poly=x1^2", f"--dim={G + 1}"], 2, "",
        "argument --dim: must be at most 10000, got 10001\n",
    ),
    "JSON nvars": (["inertia", f"--poly={_x1_squared(G)}"], 0, INERTIA_AT_G, ""),
    "JSON nvars over": (["inertia", f"--poly={_x1_squared(G + 1)}"], 1, _envelope(
        "InvalidGerm", "invalid germ JSON: nvars must be at most 10000, got 10001"
    ), ""),
    "split index": (["split", f"--poly=x1^2 + x{S}*x1^2"], 0, SPLIT_AT_S, ""),
    "split index over": (["split", f"--poly=x1^2 + x{S + 1}*x1^2"], 1, SPLIT_OVER_S, ""),
    "split --dim": (["split", "--poly=x1^2", f"--dim={S}"], 0, SPLIT_AT_S, ""),
    "split --dim over": (
        ["split", "--poly=x1^2", f"--dim={S + 1}"], 2, "",
        "argument --dim: must be at most 1000, got 1001\n",
    ),
    "split JSON nvars over": (["split", f"--poly={_x1_squared(S + 1)}"], 1, SPLIT_OVER_S, ""),
}


@pytest.mark.parametrize(
    "argv, code, first_line, stderr_end", AT_AND_OVER_CAPS.values(), ids=AT_AND_OVER_CAPS.keys()
)
def test_germ_variable_counts_at_and_over_their_caps(argv, code, first_line, stderr_end):
    # a count over a cap read from germ text or JSON ends in the envelope, a
    # --dim over it is a usage error; text refuses an index at its offset,
    # before any exponent tuple is built
    assert (G, S) == (10_000, 1_000)  # the numbers in the expected lines
    got_code, out, err = _run(argv)
    assert (got_code, out.partition("\n")[0]) == (code, first_line)
    assert err.endswith(stderr_end)
