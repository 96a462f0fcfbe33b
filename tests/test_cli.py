import gc
import hashlib
import io
import json
import marshal
import os
import pickle
import random
import subprocess
import sys
import threading
import time
import types
from fractions import Fraction

import pytest

import arczeta
import arczeta.cli as cli
from arczeta import (
    ONE, ZERO, LaurentPolynomial, TruncatedSeries, arcspace, beta_level, scissor, selfcheck,
)
from arczeta import germ as germs
from arczeta.cli import run
from arczeta.errors import InvariantViolation, NotSignatureForm, ResultTooLarge, number_text


def invoke(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out


def test_beta_x0_text(capsys):
    code, out = invoke(capsys, ["beta", "x0", "--m", "2", "--M", "2"])
    assert code == 0
    assert out.strip() == "u^3 + u^2 - u"


def test_beta_commands_json(capsys):
    code, out = invoke(capsys, ["beta", "x1", "--s", "2", "--t", "1", "--json"])
    assert code == 0
    assert json.loads(out) == [[1, "1"], [2, "1"]]
    code, out = invoke(capsys, ["beta", "z", "--m", "1", "--M", "2", "--json"])
    assert code == 0
    assert json.loads(out) == [[0, "1"], [1, "1"]]
    code, out = invoke(capsys, ["beta", "xneg1", "--s", "2", "--t", "0", "--json"])
    assert code == 0
    assert json.loads(out) == []


def test_zeta_json_example(capsys):
    code, out = invoke(
        capsys,
        [
            "zeta",
            "--dim",
            "3",
            "--plus",
            "2",
            "--minus",
            "1",
            "--selector",
            "plus",
            "--order",
            "2",
            "--json",
        ],
    )
    assert code == 0
    assert json.loads(out) == {"order": 2, "terms": [[2, [[-2, "1"], [-1, "1"]]]]}


def test_zeta_strata_output(capsys):
    code, out = invoke(
        capsys,
        [
            "zeta",
            "--dim",
            "2",
            "--plus",
            "1",
            "--minus",
            "1",
            "--selector",
            "naive",
            "--order",
            "3",
            "--strata",
            "--json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"series", "strata"}
    assert len(payload["strata"]) == 3
    for report in payload["strata"]:
        total = LaurentPolynomial.from_json(report["total_beta"])
        summed = ZERO
        for stratum in report["strata"]:
            summed = summed + LaurentPolynomial.from_json(stratum["beta"])
        assert summed == total


def test_zeta_strata_text(capsys):
    code, out = invoke(
        capsys,
        ["zeta", "--dim", "1", "--plus", "1", "--minus", "0", "--selector", "plus",
         "--order", "2", "--strata"],
    )
    assert code == 0
    assert "(2*u^-1)*T^2 + O(T^3)" in out
    assert "T^1 strata (plus):" in out
    assert "(empty: no admissible block order)" in out
    assert "T^2 strata (plus):" in out
    assert "total: 2*u" in out


def test_split_text(capsys):
    code, out = invoke(capsys, ["split", "--poly", "x1^2 + 2*x1*x2^2", "--jet", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1] == "x1 -> x1 - x2^2"
    assert lines[2] == "x2 -> x2"
    assert lines[3] == "Q = x1^2"
    assert lines[4] == "F = -x2^4"


def test_recover_json(capsys):
    code, out = invoke(
        capsys,
        [
            "recover",
            "--plus-coeff",
            '[[-2,"1"],[-1,"1"]]',
            "--minus-coeff",
            '[[-2,"-1"],[-1,"1"]]',
            "--json",
        ],
    )
    assert code == 0
    assert json.loads(out) == {"s": 2, "t": 1}


def test_recover_naive_text(capsys):
    code, out = invoke(
        capsys, ["recover-naive", "--coeff", '[[0,"1"],[-1,"-1"],[-2,"-1"],[-3,"1"]]']
    )
    assert code == 0
    assert out.strip() == "determined: m = 2, M = 2"
    code, out = invoke(capsys, ["recover-naive", "--coeff", '[[0,"1"],[-1,"-1"]]'])
    assert code == 0
    assert out.startswith("ambiguous:")


def test_inertia_and_split(capsys):
    code, out = invoke(capsys, ["inertia", "--poly", "x1*x2"])
    assert code == 0
    assert out.strip() == "s = 1, t = 1, rank = 2, corank = 0, index = 1"
    code, out = invoke(
        capsys, ["split", "--poly", "x1^2 + 2*x1*x2^2", "--jet", "4", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["inertia"] == {"s": 1, "t": 0, "rank": 1, "corank": 1, "index": 0}
    assert payload["quadratic_part"] == {"nvars": 2, "terms": [[[2, 0], "1"]]}
    assert payload["remainder"] == {"nvars": 2, "terms": [[[0, 4], "-1"]]}


def test_discriminate_text(capsys):
    code, out = invoke(
        capsys,
        [
            "discriminate",
            "--f",
            "x1^2+x2^2-x3^2",
            "--g",
            "x1^2-x2^2-x3^2",
            "--order",
            "2",
        ],
    )
    assert code == 0
    assert out.strip() == "distinguished: plus zeta coefficients differ at T^2"


def test_beta_expr_from_file_and_stdin(capsys, tmp_path, monkeypatch):
    payload = {
        "op": "product",
        "children": [
            {"atom": "affine_space", "k": 2},
            {"atom": "quadric_affine", "c": 1, "s": 1, "t": 1},
        ],
    }
    path = tmp_path / "expr.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out = invoke(capsys, ["beta", "expr", str(path)])
    assert code == 0
    assert out.strip() == "u^3 - u^2"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, out = invoke(capsys, ["beta", "expr", "-"])
    assert code == 0
    assert out.strip() == "u^3 - u^2"


def test_domain_error_envelope(capsys):
    code, out = invoke(
        capsys,
        [
            "recover",
            "--plus-coeff",
            '[[0,"1"],[1,"1"],[2,"1"]]',
            "--minus-coeff",
            '[[0,"1"]]',
        ],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "NotSignatureForm"
    assert "detail" in payload

    code, out = invoke(capsys, ["inertia", "--poly", "x1 + x2^2"])
    assert code == 1
    assert json.loads(out)["error"] == "NotSingularAtOrigin"

    code, out = invoke(capsys, ["inertia", "--poly", "x1^"])
    assert code == 1
    payload = json.loads(out)
    assert payload["error"] == "GermSyntaxError"
    assert "offset 3" in payload["detail"]

    code, out = invoke(capsys, ["beta", "z", "--m", "0", "--M", "3"])
    assert code == 1
    assert json.loads(out)["error"] == "EmptyProjectiveQuadric"


def test_usage_error_exit_code(capsys):
    assert run(["beta", "x0", "--m", "2"]) == 2
    assert run(["no-such-command"]) == 2
    assert run([]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["beta", "x0", "--m", "-1", "--M", "2"],
        ["beta", "x1", "--s", "2", "--t", "-3"],
        ["beta", "xneg1", "--s", "-1", "--t", "0"],
        ["beta", "z", "--m", "2", "--M", "-1"],
        ["zeta", "--dim", "2", "--plus", "1", "--minus", "1", "--order", "0"],
        ["discriminate", "--f", "x1^2", "--g", "x1^2", "--order", "0"],
        ["split", "--poly", "x1^2", "--jet", "2"],
        ["selfcheck", "--max", "1"],
        ["inertia", "--poly", "3", "--dim", "0"],
        ["inertia", "--poly", "x1^2", "--dim", "0"],
        ["split", "--poly", "0", "--dim", "0"],
        ["split", "--poly", "x1^2", "--dim", "-2"],
    ],
)
def test_out_of_range_arguments_are_usage_errors(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least" in captured.err
    assert "Traceback" not in captured.err


def test_empty_projective_quadric_keeps_its_envelope(capsys):
    code, out = invoke(capsys, ["beta", "z", "--m", "0", "--M", "2"])
    assert code == 1
    assert json.loads(out)["error"] == "EmptyProjectiveQuadric"


BAD_GERM_JSON = [
    '{"nvars": 1, "terms": [[[2], "1/0"]]}',
    '{"nvars": 2, "terms": [[[2], "1"]]}',
    '{"nvars": "2", "terms": [[[2, 0], "1"]]}',
    '{"nvars": 2, "terms": [[[true, 1], "1"]]}',  # not read as x1*x2
    '{"nvars": true, "terms": [[[2], "1"]]}',  # not read as one variable
]


@pytest.mark.parametrize("text", BAD_GERM_JSON)
def test_bad_germ_json_is_invalid_germ_for_inertia(capsys, text):
    code, out = invoke(capsys, ["inertia", "--poly", text, "--json"])
    assert code == 1
    assert json.loads(out)["error"] == "InvalidGerm"


@pytest.mark.parametrize("text", BAD_GERM_JSON)
def test_bad_germ_json_is_invalid_germ_for_discriminate(capsys, text):
    code, out = invoke(capsys, ["discriminate", "--f", "x1^2", "--g", text])
    assert code == 1
    assert json.loads(out)["error"] == "InvalidGerm"


# germ JSON coefficients outside germ text's numbers, each of which Fraction
# would read: "1e99999999" by expanding 10**99999999 (more than 30 s)
REFUSED_GERM_COEFFICIENTS = [
    '"1e99999999"', '"0.5"', '"1e-5"', "0.5", "1e400", "true", "null", "[1]",
    '"+1"', '" 1"', '"1/-2"', '"1_000"', '"\\u0661"',  # the last an Arabic-Indic one
]


@pytest.mark.parametrize("coeff", REFUSED_GERM_COEFFICIENTS)
def test_germ_json_coefficients_are_the_numbers_of_germ_text(capsys, coeff):
    poly = '{"nvars": 1, "terms": [[[2], ' + coeff + "]]}"
    start = time.perf_counter()
    code, out = invoke(capsys, ["inertia", "--poly", poly, "--json"])
    assert time.perf_counter() - start < 0.5
    assert code == 1
    value = json.loads(coeff)
    assert json.loads(out) == {
        "error": "InvalidGerm",
        "detail": f"invalid germ JSON: bad germ coefficient {value!r}",
    }


def test_germ_json_reads_the_numbers_of_germ_text(capsys):
    expected = invoke(capsys, ["inertia", "--poly", "x1^2 - 3/2*x2^2 + 12*x3^2", "--json"])
    poly = '{"nvars": 3, "terms": [[[2, 0, 0], 1], [[0, 2, 0], "-3/2"], [[0, 0, 2], "12"]]}'
    assert invoke(capsys, ["inertia", "--poly", poly, "--json"]) == expected
    code, out = invoke(capsys, ["inertia", "--poly", BAD_GERM_JSON[0], "--json"])
    assert code == 1
    assert json.loads(out) == {
        "error": "InvalidGerm",
        "detail": "invalid germ JSON: zero denominator in a coefficient",
    }


@pytest.mark.parametrize("command", ["inertia", "split"])
def test_dim_must_equal_the_nvars_of_germ_json(capsys, command):
    # germ JSON states its variable count, so --dim can only repeat it
    poly = '{"nvars": 2, "terms": [[[2, 0], "1"], [[0, 3], "-1"]]}'
    plain = invoke(capsys, [command, "--poly", poly, "--json"])
    matching = invoke(capsys, [command, "--poly", poly, "--dim", "2", "--json"])
    as_text = invoke(capsys, [command, "--poly", "x1^2 - x2^3", "--dim", "2", "--json"])
    assert plain == matching == as_text and plain[0] == 0
    for dim in ("5", "1"):  # larger and smaller than the JSON's nvars
        code, out = invoke(capsys, [command, "--poly", poly, "--dim", dim, "--json"])
        assert code == 1
        assert json.loads(out) == {
            "error": "InvalidGerm",
            "detail": f"declared {dim} variable(s) but the germ JSON has nvars 2",
        }


ZETA_STRATA = ["zeta", "--dim", "4", "--plus", "2", "--minus", "1", "--order", "7", "--strata"]


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_zeta_strata_stratifies_each_order_once(capsys, monkeypatch, extra):
    calls = []
    real_stratify_series = arcspace.stratify_series

    def counting_stratify_series(germ, selector, order):
        reports = real_stratify_series(germ, selector, order)
        calls.append([report.n for report in reports])
        return reports

    monkeypatch.setattr(arcspace, "stratify_series", counting_stratify_series)
    code, _ = invoke(capsys, ZETA_STRATA + extra)
    assert code == 0
    assert calls == [list(range(1, 8))]


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_zeta_strata_takes_the_betas_from_the_reports(capsys, monkeypatch, extra):
    def no_beta_eval(expression):
        raise AssertionError("the command line evaluated a stratum itself")

    monkeypatch.setattr(cli, "scissor", types.SimpleNamespace(**vars(scissor)))
    monkeypatch.setattr(cli.scissor, "beta_eval", no_beta_eval)
    code, _ = invoke(capsys, ZETA_STRATA + extra)
    assert code == 0


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_plain_zeta_answers_from_the_rational_form(capsys, monkeypatch, extra):
    engine = arcspace.zeta_series(arcspace.QuadraticGerm(dim=4, plus=2, minus=1), arcspace.NAIVE, 7)
    expected = json.dumps(engine.to_json(), sort_keys=True) if extra else engine.to_text()

    def no_engine(*args):
        raise AssertionError("plain zeta ran the decomposition engine")

    for module in (arcspace, scissor):  # arcspace holds its own name for beta_eval
        monkeypatch.setattr(module, "beta_eval", no_engine)
    monkeypatch.setattr(arcspace, "stratify_series", no_engine)
    assert invoke(capsys, ZETA_STRATA[:-1] + extra) == (0, expected + "\n")


def test_beta_expr_on_a_deep_quadric_with_a_cold_cache(capsys):
    scissor._beta_quadric.cache_clear()
    atom = {"atom": "quadric_affine", "c": 1, "s": 200, "t": 200}
    code, out = invoke(capsys, ["beta", "expr", json.dumps(atom), "--json"])
    assert code == 0
    assert LaurentPolynomial.from_json(json.loads(out)) == beta_level(200, 200, 1)


def test_json_output_is_byte_stable(capsys):
    argv = [
        "zeta",
        "--dim",
        "4",
        "--plus",
        "2",
        "--minus",
        "2",
        "--selector",
        "naive",
        "--order",
        "6",
        "--json",
    ]
    _, first = invoke(capsys, argv)
    _, second = invoke(capsys, argv)
    assert first == second


def test_text_and_json_agree(capsys):
    _, text = invoke(capsys, ["beta", "x0", "--m", "3", "--M", "2"])
    _, machine = invoke(capsys, ["beta", "x0", "--m", "3", "--M", "2", "--json"])
    assert text == LaurentPolynomial.from_json(json.loads(machine)).to_text() + "\n"
    argv = ["zeta", "--dim", "3", "--plus", "1", "--minus", "2", "--order", "5"]
    _, text = invoke(capsys, argv)
    _, machine = invoke(capsys, argv + ["--json"])
    payload = json.loads(machine)
    series = TruncatedSeries(
        payload["order"], {n: LaurentPolynomial.from_json(c) for n, c in payload["terms"]}
    )
    assert series.coefficients() and text == series.to_text() + "\n"


def test_selfcheck_small(capsys):
    code, out = invoke(capsys, ["selfcheck", "--max", "3"])
    assert code == 0
    assert "closed-form/oracle grid: 48 identities OK" in out
    assert "all checks passed" in out


def test_selfcheck_reports_corruption(capsys, monkeypatch):
    true_cone = scissor.beta_cone

    def corrupted(plus, minus):
        value = true_cone(plus, minus)
        if (plus, minus) == (2, 2):
            return value + ONE
        return value

    monkeypatch.setattr(scissor, "beta_cone", corrupted)
    code, out = invoke(capsys, ["selfcheck", "--max", "3"])
    assert code == 1
    assert "(c=0, s=2, t=2)" in out
    assert "SELFCHECK FAILED" in out


def test_selfcheck_counts_a_rejected_recovery_as_a_failure(capsys, monkeypatch):
    def rejecting(c_plus, c_minus):
        raise NotSignatureForm("rejected")

    monkeypatch.setattr(germs, "recover_signature", rejecting)
    code, out = invoke(capsys, ["selfcheck", "--max", "3", "--json"])
    assert code == 1
    checks = {check["name"]: check for check in json.loads(out)["checks"]}
    round_trip = checks["signed T^2 round-trip grid"]
    assert round_trip["count"] == 16
    assert len(round_trip["failures"]) == 16
    assert checks["zeta series law grid"]["failures"] == []


@pytest.mark.parametrize(
    "error", [InvariantViolation("split_jet left a rank variable"), ZeroDivisionError("boom")]
)
def test_selfcheck_counts_a_raising_route_as_one_failure(capsys, monkeypatch, error):
    _, passing = invoke(capsys, ["selfcheck", "--max", "2", "--json"])
    expected = {check["name"]: check for check in json.loads(passing)["checks"]}

    def raising(germ, jet_order):
        raise error

    monkeypatch.setattr(germs, "split_jet", raising)
    code, out = invoke(capsys, ["selfcheck", "--max", "2", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    label = f"raised {type(error).__name__}: {error}"
    expected["splitting residual grid"].update(count=1, failures=[label])
    assert payload["checks"] == list(expected.values())
    code, out = invoke(capsys, ["selfcheck", "--max", "2"])
    assert code == 1
    assert f"splitting residual grid: FAILED at {label} out of 1 identities" in out
    assert "inertia congruence/charpoly grid: 300 identities OK" in out
    assert out.endswith("SELFCHECK FAILED\n")


def test_selfcheck_stratifies_each_key_once_per_run(monkeypatch):
    keys = []
    real_stratify_series = arcspace.stratify_series

    def counting_stratify_series(germ, selector, order):
        keys.append((germ.dim, germ.plus, germ.minus, selector, order))
        return real_stratify_series(germ, selector, order)

    monkeypatch.setattr(arcspace, "stratify_series", counting_stratify_series)
    first = selfcheck.run_selfcheck(3)
    assert first[1] is True
    # the round-trip grid reads 32 (germ, selector) pairs at order 2, and the
    # two-path and law grids 75 at order 6, at --max 3
    assert len(keys) == len(set(keys)) == 107
    assert sum(order == 2 for *_, order in keys) == 32
    keys.clear()
    # a second run in the same process starts from an empty table
    assert selfcheck.run_selfcheck(3) == first
    assert len(keys) == len(set(keys)) == 107


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("bound", [2, 3])
def test_selfcheck_reports_the_same_forked_and_in_process(monkeypatch, bound):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    forked = selfcheck.run_selfcheck(bound)
    assert len(forks) == 1
    _no_child_left()
    monkeypatch.delattr(os, "fork")
    assert selfcheck.run_selfcheck(bound) == forked
    assert forked[1] is True
    assert [name for name, _, _ in forked[0]] == [name for name, _ in selfcheck.GRIDS]


def test_selfcheck_runs_in_process_under_a_profile_hook_or_beside_a_thread(monkeypatch):
    expected = selfcheck.run_selfcheck(2)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    sys.setprofile(lambda frame, event, arg: None)
    try:
        assert selfcheck.run_selfcheck(2) == expected
    finally:
        sys.setprofile(None)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait, args=(60,))
    waiter.start()
    try:
        assert selfcheck.run_selfcheck(2) == expected
    finally:
        release.set()
        waiter.join(timeout=60)
    assert not waiter.is_alive()


def _raising_dumps(value):
    raise RuntimeError("the writer broke")


def _truncating_dumps(value):
    return marshal.dumps(value)[:-1]


@pytest.mark.parametrize("dumps", [_raising_dumps, _truncating_dumps])
def test_selfcheck_runs_the_germ_grids_itself_when_the_child_sends_nothing_readable(
    monkeypatch, dumps
):
    expected = selfcheck.run_selfcheck(2)
    # the child writes through this module's marshal; the parent reads with the real loads
    writer = types.SimpleNamespace(dumps=dumps, loads=marshal.loads)
    monkeypatch.setattr(selfcheck, "marshal", writer)
    assert selfcheck.run_selfcheck(2) == expected
    _no_child_left()


def test_a_faulty_stratify_key_fails_only_the_identities_that_read_it(capsys, monkeypatch):
    real_stratify_series = arcspace.stratify_series

    def faulty_stratify_series(germ, selector, order):
        reports = real_stratify_series(germ, selector, order)
        if (germ.dim, germ.plus, germ.minus, selector) != (3, 1, 1, arcspace.PLUS):
            return reports
        return [
            report if report.n != 4 else arcspace.ArcStratumReport(
                report.n, report.selector, report.strata, report.betas,
                report.total_beta + ONE,
            )
            for report in reports
        ]

    monkeypatch.setattr(arcspace, "stratify_series", faulty_stratify_series)
    code, out = invoke(capsys, ["selfcheck", "--max", "3", "--json"])
    assert code == 1
    failures = {check["name"]: check["failures"] for check in json.loads(out)["checks"]}
    assert failures.pop("zeta stratification/closed-form grid") == ["(d=3, s=1, t=1, n=4, plus)"]
    # (3, 1, 1) is the germ of d=3 and the grown germ of d=2; the sign swap
    # of (3, 1, 1) compares its plus series with the minus series of itself
    assert failures.pop("zeta series law grid") == [
        "stabilization (d=2, s=1, t=1, plus)",
        "stabilization (d=3, s=1, t=1, plus)",
        "sign swap (d=3, s=1, t=1)",
    ]
    assert all(grid_failures == [] for grid_failures in failures.values())


def _nested_products(depth: int) -> str:
    """Expression JSON of `depth` nested nodes, written as text (json.dumps would recurse)."""
    return '{"op": "product", "children": [' * (depth - 1) + '{"atom": "point"}' + "]}" * (
        depth - 1
    )


def _deep_germ_json(depth: int) -> str:
    return '{"nvars": 1, "terms": ' + "[" * depth + "]" * depth + "}"


DEEP_JSON = {
    # beta_eval ran out of stack at 450 nodes, json.loads at 600 and above
    "expr-450": (["beta", "expr", _nested_products(450)], "MalformedExpression"),
    "expr-600": (["beta", "expr", _nested_products(600)], "MalformedExpression"),
    "expr-5000": (["beta", "expr", _nested_products(5000)], "MalformedExpression"),
    "recover-5000": (
        ["recover", "--plus-coeff", "[" * 5000 + "]" * 5000, "--minus-coeff", "[]"],
        "MalformedExpression",
    ),
    "inertia-5000": (["inertia", "--poly", _deep_germ_json(5000)], "InvalidGerm"),
    "discriminate-5000": (
        ["discriminate", "--f", "x1^2", "--g", _deep_germ_json(5000)],
        "InvalidGerm",
    ),
}


@pytest.mark.parametrize("argv, error", DEEP_JSON.values(), ids=DEEP_JSON.keys())
def test_deep_json_ends_in_the_envelope(capsys, argv, error):
    code = run(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    assert set(payload) == {"error", "detail"}
    assert payload["error"] == error
    assert "Traceback" not in captured.err


def test_expression_depth_cap_is_exact(capsys):
    cap = scissor.MAX_EXPRESSION_DEPTH
    code, out = invoke(capsys, ["beta", "expr", _nested_products(cap), "--json"])
    assert (code, json.loads(out)) == (0, [[0, "1"]])
    code, out = invoke(capsys, ["beta", "expr", _nested_products(cap + 1), "--json"])
    assert code == 1
    assert json.loads(out) == {
        "error": "MalformedExpression",
        "detail": f"expression nests deeper than {cap} nodes",
    }


def test_projective_space_cap_is_exact(capsys):
    cap = scissor.MAX_PROJECTIVE_DIMENSION

    def atom(k):
        return json.dumps({"atom": "projective_space", "k": k})

    code, out = invoke(capsys, ["beta", "expr", atom(cap), "--json"])
    assert (code, len(json.loads(out))) == (0, cap + 1)
    for k in (cap + 1, 10**9):
        for extra in ([], ["--json"]):
            code, out = invoke(capsys, ["beta", "expr", atom(k), *extra])
            assert code == 1
            assert json.loads(out) == {
                "error": "MalformedExpression",
                "detail": f"projective space needs k <= {cap}, got {k}",
            }


@pytest.mark.parametrize(
    "argv",
    [["beta", "expr", _nested_products(5000)], ["inertia", "--poly", _deep_germ_json(5000)]],
    ids=["expr", "germ"],
)
def test_deep_json_has_no_traceback_in_a_fresh_interpreter(tmp_path, argv):
    source = tmp_path / "deep.json"
    source.write_text(argv[-1], encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, "-m", "arczeta", *argv[:-1], str(source), "--json"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 1
    assert set(json.loads(completed.stdout)) == {"error", "detail"}
    assert "Traceback" not in completed.stderr


def test_module_entry_point_subprocess():
    completed = subprocess.run(
        [sys.executable, "-m", "arczeta", "beta", "x0", "--m", "2", "--M", "2"],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0
    assert completed.stdout.strip() == "u^3 + u^2 - u"


# SHA-256 of the zeta --strata --json output at order 40, past the golden
# corpus (which stops at order 12), captured before products kept their runs
STRATA_ORDER_40_DIGESTS = {
    ("16", "5", "6", "naive"): "c9008b71091a78f0363ddfd87c54e55170819b062d89ff9d2b80fa700b07bfcf",
    ("16", "5", "6", "plus"): "9c68136a32289288fafe379e7e10b1a2c7f6fe07670495c1ab3a245055361325",
    ("16", "5", "6", "minus"): "d4d76262e3225a4c65756bb04b8214853c25e7e5e0b6c5994e4af97d7f4de010",
    ("5", "1", "0", "naive"): "d9d5683a4d07ff0555facdf9b189f2afad1cbb961968c0e7a76a67e47beb1eae",
    ("5", "1", "0", "plus"): "534cf8bd15a0ddf2dc3d54bd56e7fbb549566ed9636059e4b8cffd4f372c2907",
    ("5", "1", "0", "minus"): "9b36a778f2dc02f2040f653ac548564402ad2d488bdcbaa14e422713c42014ab",
}


@pytest.mark.parametrize("key", STRATA_ORDER_40_DIGESTS, ids="-".join)
def test_zeta_strata_json_at_order_40_keeps_its_bytes(capsys, key):
    dim, plus, minus, selector = key
    argv = ["zeta", "--strata", "--json", "--dim", dim, "--plus", plus, "--minus", minus]
    code, out = invoke(capsys, argv + ["--order", "40", "--selector", selector])
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STRATA_ORDER_40_DIGESTS[key]


@pytest.mark.parametrize("output", [["--json"], []], ids=["json", "text"])
def test_a_closed_pipe_exits_1_with_nothing_on_stderr(output):
    argv = ["zeta", "--strata", "--dim", "16", "--plus", "8", "--minus", "8", "--order", "40"]
    process = subprocess.Popen(
        [sys.executable, "-m", "arczeta", *argv, *output],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    # the answer is far larger than a pipe's buffer, so the writer is still
    # writing when the reader goes away
    assert len(process.stdout.read(50)) == 50
    process.stdout.close()
    stderr = process.stderr.read()
    assert process.wait() == 1
    assert stderr == b""


def test_zeta_strata_json_renders_no_text(capsys, monkeypatch):
    def no_text(self):
        raise AssertionError("to_text called for --json output")

    monkeypatch.setattr(LaurentPolynomial, "to_text", no_text)
    monkeypatch.setattr(TruncatedSeries, "to_text", no_text)
    code, out = invoke(capsys, ZETA_STRATA + ["--json"])
    assert code == 0
    assert set(json.loads(out)) == {"series", "strata"}
    with pytest.raises(AssertionError, match="to_text called"):
        run(ZETA_STRATA)


def _stratum_payload(report) -> dict:
    """The dict the command line built for one report before it wrote text directly."""
    return {
        "n": report.n,
        "selector": report.selector,
        "strata": [
            {
                "description": description,
                "expression": scissor.expression_to_json(expression),
                "beta": beta.to_json(),
            }
            for (description, expression), beta in zip(report.strata, report.betas)
        ],
        # summed here, so the builder's own sum is checked by another route
        "total_beta": sum(report.betas, ZERO).to_json(),
    }


def _reference_strata_output(dim, plus, minus, selector, order) -> str:
    """zeta --strata --json as the dict tree and json.dumps render it."""
    germ = arcspace.QuadraticGerm(dim=dim, plus=plus, minus=minus)
    # each order from a call of its own, not from the one call the command makes
    reports = [arcspace.stratify_series(germ, selector, n)[-1] for n in range(1, order + 1)]
    payload = {
        "series": arcspace.series_from_reports(germ, reports).to_json(),
        "strata": [_stratum_payload(report) for report in reports],
    }
    return json.dumps(payload, sort_keys=True) + "\n"


def _strata_argv(dim, plus, minus, selector, order):
    return [
        "zeta", "--strata", "--json", "--dim", str(dim), "--plus", str(plus),
        "--minus", str(minus), "--selector", selector, "--order", str(order),
    ]


def _strata_germs():
    """(dim, plus, minus): rank = dim (no z-block), plus = 0 and minus = 0
    (empty level sets), ranks up to 16, and a seeded draw like the benchmark's."""
    cases = [(1, 1, 0), (1, 0, 1), (3, 3, 0), (2, 0, 2), (4, 2, 2), (16, 9, 7), (16, 0, 16)]
    rng = random.Random(21)
    for _ in range(3):
        dim = rng.randint(1, 16)
        rank = rng.randint(1, dim)
        plus = rng.randint(0, rank)
        cases.append((dim, plus, rank - plus))
    return cases


STRATA_GRID = [
    (*germ, selector, order)
    for germ in _strata_germs()
    for selector in arcspace.SELECTORS
    for order in (1, 2, 3, 40)
    # order 40 on the large germs only, to keep the grid fast
    if order < 40 or germ[0] >= 4
]


@pytest.mark.parametrize("request_", STRATA_GRID, ids=["-".join(map(str, r)) for r in STRATA_GRID])
def test_zeta_strata_json_matches_the_dict_tree_byte_for_byte(capsys, request_):
    assert invoke(capsys, _strata_argv(*request_)) == (0, _reference_strata_output(*request_))


def test_zeta_strata_json_replays_forward_and_backward_in_one_process(capsys):
    requests = [r for r in STRATA_GRID if r[-1] in (3, 40)][::5]
    cases = [(request_, _reference_strata_output(*request_)) for request_ in requests]
    for request_, expected in cases + cases[::-1]:
        assert invoke(capsys, _strata_argv(*request_)) == (0, expected), request_


def _package_caches():
    """Every functools cache on a module of the package, found as the benchmark finds them."""
    return {
        value
        for name, module in list(sys.modules.items())
        if name == "arczeta" or name.startswith("arczeta.")
        for value in vars(module).values()
        if callable(getattr(value, "cache_info", None))
        and callable(getattr(value, "cache_clear", None))
    }


def _module_state(module):
    return {
        name: len(value) if isinstance(value, (dict, list, set)) else None
        for name, value in vars(module).items()
    }


def test_zeta_strata_json_keeps_no_state_after_the_request(capsys):
    before = {module: _module_state(module) for module in (cli, scissor)}
    code, _ = invoke(capsys, _strata_argv(16, 9, 7, "naive", 40))
    assert code == 0
    assert _package_caches() == {scissor._beta_quadric}
    assert {module: _module_state(module) for module in (cli, scissor)} == before


@pytest.mark.parametrize("germ", _strata_germs(), ids=lambda g: "-".join(map(str, g)))
def test_stratify_memo_gives_each_stratum_its_own_beta(germ):
    """One memo for the call: every stratum's beta is what it is alone."""
    quad = arcspace.QuadraticGerm(*germ)
    for selector in arcspace.SELECTORS:
        for report in arcspace.stratify_series(quad, selector, 40):
            for (_, expression), beta in zip(report.strata, report.betas):
                assert beta == scissor.beta_eval(expression), (selector, report.n)
                by_child = ONE
                for child in expression.children:
                    by_child = by_child * scissor.beta_eval(child)
                assert beta == by_child, (selector, report.n)


def _report_view(report) -> tuple:
    """A report with the text of each stratum's expression, each under its own memo."""
    texts = tuple(scissor.expression_json_text(e, {}) for _, e in report.strata)
    return report, report.betas, report.total_beta, texts


@pytest.mark.parametrize("germ", _strata_germs(), ids=lambda g: "-".join(map(str, g)))
def test_reports_from_one_shared_set_equal_lone_reports(germ):
    """The reports of one stratify_series call, whose strata share one set of
    factor nodes, equal the last report of a call that stops at their order.
    Each call's reports are freed (and collected, between the two kinds of
    call) before the next call, so the next may reuse their ids: a beta kept
    past a call would be read for another node."""
    quad = arcspace.QuadraticGerm(*germ)
    for selector in arcspace.SELECTORS:
        series = [_report_view(report) for report in arcspace.stratify_series(quad, selector, 40)]
        assert [view[0].n for view in series] == list(range(1, 41))
        gc.collect()
        for n in range(40, 0, -1):
            lone = arcspace.stratify_series(quad, selector, n)[-1]
            assert _report_view(lone) == series[n - 1], (selector, n)
            del lone
        gc.collect()
        again = [_report_view(report) for report in arcspace.stratify_series(quad, selector, 40)]
        assert again == series, selector


def test_zeta_strata_json_is_written_one_report_at_a_time(monkeypatch):
    argv = _strata_argv(16, 9, 7, "plus", 12)
    chunks = []
    monkeypatch.setattr(sys, "stdout", types.SimpleNamespace(write=chunks.append))
    assert run(argv) == 0
    monkeypatch.undo()
    # the series head, one chunk per report and the tail
    assert len(chunks) == 12 + 2
    assert "".join(chunks) == _reference_strata_output(16, 9, 7, "plus", 12)


def test_zeta_strata_json_error_prints_only_the_envelope(capsys, monkeypatch):
    real_report = arcspace.ArcStratumReport

    def failing_report(**fields):
        if fields["n"] == 5:
            raise InvariantViolation("stratum fault")
        return real_report(**fields)

    # the reports of n < 5 are built before the fault
    monkeypatch.setattr(arcspace, "ArcStratumReport", failing_report)
    code, out = invoke(capsys, _strata_argv(4, 2, 1, "naive", 8))
    assert code == 1
    assert json.loads(out) == {"error": "InvariantViolation", "detail": "stratum fault"}


def _distinct_nodes(expressions) -> dict:
    """id -> node for every node object reachable from expressions."""
    nodes, stack = {}, list(expressions)
    while stack:
        node = stack.pop()
        if id(node) not in nodes:
            nodes[id(node)] = node
            kind = scissor._node_type(node)
            if kind.kind == "op":
                stack.extend(scissor._children(kind, node))
    return nodes


@pytest.mark.parametrize("selector", arcspace.SELECTORS)
def test_stratify_evaluates_each_distinct_node_once_per_call(monkeypatch, selector):
    quad = arcspace.QuadraticGerm(16, 5, 6)
    # warms the quadric cache, which builds nodes of its own
    arcspace.stratify_series(quad, selector, 40)
    evaluated = []
    for cls, node in list(scissor._NODES.items()):

        def counting(expression, evaluate, beta=node.beta):
            evaluated.append(id(expression))
            return beta(expression, evaluate)

        monkeypatch.setitem(scissor._NODES, cls, node._replace(beta=counting))
    before = {module: _module_state(module) for module in (arcspace, scissor)}
    betas = []
    for _ in range(2):
        evaluated.clear()
        reports = arcspace.stratify_series(quad, selector, 40)
        expressions = [expression for report in reports for _, expression in report.strata]
        nodes = _distinct_nodes(expressions)
        assert sorted(evaluated) == sorted(nodes)
        # the strata share nodes, within a report and across the orders, so
        # evaluating each report alone would cost more
        assert len(nodes) < sum(
            len(_distinct_nodes([e for _, e in report.strata])) for report in reports
        )
        betas.append([report.betas for report in reports])
        # freed here, so the next call may reuse these ids: a memo kept past
        # the call would skip those nodes and answer with stale betas
        del reports, expressions, nodes
    assert betas[0] == betas[1]
    assert {module: _module_state(module) for module in (arcspace, scissor)} == before


def test_split_json_renders_no_text(capsys, monkeypatch):
    def no_text(self):
        raise AssertionError("to_text called for --json output")

    argv = ["split", "--poly", "x1^2 + 2*x1*x2^2 - x3^3", "--jet", "5"]
    monkeypatch.setattr(germs.PolynomialGerm, "to_text", no_text)
    code, out = invoke(capsys, argv + ["--json"])
    assert code == 0
    assert set(json.loads(out)) == {"jet_order", "inertia", "change", "quadratic_part", "remainder"}
    with pytest.raises(AssertionError, match="to_text called"):
        run(argv)


_NESTED_500 = "[" * 500 + "]" * 500

BOUNDED_DETAILS = {
    "expression": ["beta", "expr", '{"op": "product", "children": [' + _NESTED_500 + "]}"],
    "polynomial": ["recover", "--plus-coeff", "[" + _NESTED_500 + "]", "--minus-coeff", "[]"],
    "germ": ["inertia", "--poly", '{"nvars": 1, "terms": [' + _NESTED_500 + "]}"],
}


@pytest.mark.parametrize("argv", BOUNDED_DETAILS.values(), ids=BOUNDED_DETAILS.keys())
def test_error_details_echo_a_bounded_input(capsys, argv):
    code, out = invoke(capsys, argv + ["--json"])
    assert code == 1
    detail = json.loads(out)["detail"]
    assert "[[[" in detail and detail.endswith("...")
    assert len(detail) < 200


# longer than CPython's default int/str digit limit (4,300)
_LONG = "7" * 5000

OVER_LONG_NUMBERS = {
    "expression": (
        ["beta", "expr", '{"atom": "affine_space", "k": ' + _LONG + "}"],
        "MalformedExpression",
    ),
    "polynomial": (
        ["recover", "--plus-coeff", "[[0, " + _LONG + "]]", "--minus-coeff", "[]"],
        "MalformedExpression",
    ),
    "germ-json": (["inertia", "--poly", '{"nvars": ' + _LONG + ', "terms": []}'], "InvalidGerm"),
    "germ-text": (["split", "--poly", "x1^2 + " + _LONG + "*x1^3"], "GermSyntaxError"),
}


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
@pytest.mark.parametrize(
    "argv, error", OVER_LONG_NUMBERS.values(), ids=OVER_LONG_NUMBERS.keys()
)
def test_over_long_numbers_end_in_the_envelope(capsys, argv, error):
    code = run(argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    assert payload["error"] == error
    assert "too many digits" in payload["detail"]
    assert "Traceback" not in captured.err


def test_an_infinite_json_coefficient_ends_in_the_envelope(capsys):
    code, out = invoke(capsys, ["recover-naive", "--coeff", "[[0, Infinity]]", "--json"])
    assert code == 1
    assert json.loads(out) == {
        "error": "MalformedExpression",
        "detail": "cannot convert float infinity to integer",
    }


NON_INTEGER_COEFFICIENTS = {
    "floats": ["recover-naive", "--coeff", "[[0, 1.9], [-1, -1.5]]"],
    "bool-and-string": ["recover-naive", "--coeff", '[[0, true], [-1, "-1"]]'],
    "bool-exponent": ["recover-naive", "--coeff", '[[true, "1"], [-1, "-1"]]'],
    "integral-float": ["recover", "--plus-coeff", "[[-2, 1.0], [-1, 1]]", "--minus-coeff", "[]"],
}


@pytest.mark.parametrize(
    "argv", NON_INTEGER_COEFFICIENTS.values(), ids=NON_INTEGER_COEFFICIENTS.keys()
)
def test_a_non_integer_json_coefficient_ends_in_the_envelope(capsys, argv):
    code, out = invoke(capsys, argv + ["--json"])
    assert code == 1
    assert json.loads(out)["error"] == "MalformedExpression"


# Under the digit limit as input; the change split_jet builds from it has
# numbers over the limit.
_SEVENS = "7" * 2500
_BIG_SPLIT = ["split", "--poly", f"{_SEVENS}*x1^2 + {_SEVENS}1*x1*x2 + x2^2"]


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
def test_an_answer_too_long_to_print_ends_in_the_envelope(capsys, extra):
    code = run(_BIG_SPLIT + extra)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == json.dumps(
        {
            "detail": "the answer has a number with more digits than the interpreter "
            f"prints ({sys.get_int_max_str_digits()})",
            "error": "ResultTooLarge",
        },
        sort_keys=True,
    ) + "\n"
    assert captured.err == ""
    # the inertia of the same germ prints no such number
    assert invoke(capsys, ["inertia"] + _BIG_SPLIT[1:] + extra)[0] == 0


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
@pytest.mark.parametrize("extra", [[], ["--json"]], ids=["text", "json"])
def test_an_exponent_too_long_to_print_ends_in_the_envelope(tmp_path, extra):
    # each k is at the digit limit, so it reads; their sum is one digit over
    nines = int("9" * sys.get_int_max_str_digits())
    source = tmp_path / "big.json"
    atom = {"atom": "affine_space", "k": nines}
    source.write_text(json.dumps({"op": "product", "children": [atom] * 10}), encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, "-m", "arczeta", "beta", "expr", str(source), *extra],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 1
    assert json.loads(completed.stdout)["error"] == "ResultTooLarge"
    assert completed.stderr == ""


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
def test_number_text_turns_only_the_digit_limit_into_result_too_large():
    huge = 10 ** (sys.get_int_max_str_digits() + 1)
    assert number_text(Fraction(-3, 4)) == "-3/4"
    assert number_text(7) == "7"
    for value in (huge, Fraction(1, huge), -huge):
        with pytest.raises(ResultTooLarge, match="more digits than the interpreter prints"):
            number_text(value)
    with pytest.raises(ResultTooLarge):
        LaurentPolynomial({0: huge}).to_text()
    with pytest.raises(ResultTooLarge):
        germs.PolynomialGerm(1, {(2,): Fraction(1, huge)}).to_json()


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
def test_a_digit_limit_failure_outside_rendering_is_no_result_too_large(monkeypatch):
    """Only the renderers answer ResultTooLarge; no error message is read."""

    def failing(germ, jet_order):
        return int("9" * (sys.get_int_max_str_digits() + 1))

    monkeypatch.setattr(germs, "split_jet", failing)
    with pytest.raises(ValueError):
        run(["split", "--poly", "x1^2", "--json"])


# ---------------------------------------------------------------------------
# the parser: a canonical argv builds no argparse parser, any other argv
# goes to the argparse parser built from the same table
# ---------------------------------------------------------------------------

# Each argv that sets an option is next to the same command without it.
ANSWERED_ARGVS = [
    ["zeta", "--dim", "3", "--plus", "2", "--minus", "1", "--selector", "plus", "--order", "3",
     "--json"],
    ["zeta", "--dim", "3", "--plus", "2", "--minus", "1"],
    ["inertia", "--poly", "x1^2 - x2*x3", "--dim", "5", "--json"],
    ["inertia", "--poly", "x1^2 - x2*x3"],
    ["split", "--poly", "x1^2 + 2*x1*x2^2 - x3^3", "--jet", "5", "--json"],
    ["split", "--poly", "x1^2 + 2*x1*x2^2 - x3^3"],
    ["discriminate", "--f", "x1^2 + x2^2", "--g", "x1^2 - x2^2", "--order", "4", "--json"],
    ["discriminate", "--f", "x1^2 + x2^2", "--g", "x1^2 - x2^2"],
    ["beta", "x1", "--s", "2", "--t", "1", "--json"],
    ["beta", "x1", "--s", "2", "--t", "1"],
]
# usage errors (exit 2) and help (exit 0)
INTERRUPTIONS = [
    ["zeta", "--dim", "x", "--plus", "1", "--minus", "0"],
    ["split", "--poly", "x1^2", "--jet", "2", "--json"],
    ["--help"],
    ["nonsense"],
    ["split", "--help"],
    [],
]
# every help text, and usage errors at each level
PARSER_ARGVS = (
    [["--help"], [], ["nonsense"], ["--json"], ["beta"], ["beta", "nope"], ["beta", "-h"]]
    + [[command, "--help"] for command in ["zeta", "recover", "recover-naive", "inertia",
                                           "split", "discriminate", "selfcheck"]]
    + [["beta", kind, "--help"] for kind in ["x0", "x1", "xneg1", "z", "expr"]]
    + [["beta", "x0", "--m", "2"], ["inertia", "--poly", "x1^2", "--bogus"], ["recover-naive"],
       ["split", "--poly", "x1^2", "--js"], ["zeta", "--dim", "1", "--plus", "1", "--minus",
                                              "0", "--selector", "bad"]]
    + INTERRUPTIONS
    + ANSWERED_ARGVS
)


def _outcome(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_options_do_not_carry_into_the_next_call(capsys):
    expected = [_outcome(capsys, argv) for argv in ANSWERED_ARGVS]
    assert all(code == 0 for code, _, _ in expected)
    cases = list(zip(ANSWERED_ARGVS, expected))
    for argv, outcome in cases + cases[::-1]:
        assert _outcome(capsys, argv) == outcome, argv


def test_usage_errors_and_help_leave_later_answers_unchanged(capsys):
    interrupted = [_outcome(capsys, argv) for argv in INTERRUPTIONS]
    assert [code for code, _, _ in interrupted] == [2, 2, 0, 2, 0, 2]
    expected = [_outcome(capsys, argv) for argv in ANSWERED_ARGVS]
    for i, (argv, outcome) in enumerate(zip(ANSWERED_ARGVS, expected)):
        k = i % len(INTERRUPTIONS)
        assert _outcome(capsys, INTERRUPTIONS[k]) == interrupted[k], INTERRUPTIONS[k]
        assert _outcome(capsys, argv) == outcome, argv
    # help prints the same bytes every time
    helps = {_outcome(capsys, ["--help"]) for _ in range(3)}
    assert helps == {interrupted[2]}


def test_importing_the_cli_builds_no_parser():
    script = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import arczeta.cli\n"
        "print(len(built))\n"
    )
    completed = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "0\n"


def test_importing_and_running_the_cli_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, ast, dis and tokenize: about half of
    # what importing the package used to cost
    script = (
        "import contextlib, io, sys\n"
        "import arczeta, arczeta.cli\n"
        "def loaded():\n"
        "    return sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
        "print(loaded())\n"
        "for argv in (\n"
        "    ['zeta', '--dim', '4', '--plus', '2', '--minus', '1', '--order', '4', '--strata', '--json'],\n"
        "    ['split', '--poly', 'x1^2 + 2*x1*x2^2', '--jet', '4', '--json'],\n"
        "    ['selfcheck', '--max', '3', '--json'],\n"
        "):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert arczeta.cli.run(argv) == 0, argv\n"
        "print(loaded())\n"
    )
    completed = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout == "[]\n[]\n"


# One canonical request of every command but selfcheck (beta expr takes a
# positional, so it always falls back to argparse).
CANONICAL_REQUESTS = (
    ["beta", "z", "--m", "2", "--M", "1", "--json"],
    ["beta", "x1", "--s=2", "--t=1"],
    ["zeta", "--dim", "3", "--plus", "2", "--minus", "1", "--order", "4", "--json"],
    ["zeta", "--dim", "3", "--plus", "1", "--minus", "1", "--selector", "plus", "--strata"],
    ["recover", "--plus-coeff", '[[-2, "1"], [-1, "1"]]',
     "--minus-coeff", '[[-2, "-1"], [-1, "1"]]'],
    ["recover-naive", "--coeff", '[[0, "1"], [-1, "-1"], [-2, "-1"], [-3, "1"]]', "--json"],
    ["inertia", "--poly", "x1^2 - x2^2 + x3^3", "--json"],
    ["split", "--poly", "x1^2 + 2*x1*x2^2", "--jet", "4"],
    ["discriminate", "--f", "x1^2 + x2^2", "--g", "x1^2 - x2^2", "--json"],
)


def _fresh(script: str, *args: str) -> list:
    """The JSON lines that a fresh interpreter prints running script with args."""
    completed = subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr
    return [json.loads(line) for line in completed.stdout.splitlines()]


def test_a_canonical_request_imports_neither_argparse_nor_selfcheck():
    # argparse (with gettext) and arczeta.selfcheck are imported by the
    # fallback parser and by the selfcheck command, when they run
    script = (
        "import contextlib, io, json, sys\n"
        "import arczeta, arczeta.cli\n"
        "def loaded():\n"
        "    return sorted({'argparse', 'gettext', 'arczeta.selfcheck'} & set(sys.modules))\n"
        "def run(argv):\n"
        "    err = io.StringIO()\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):\n"
        "        code = arczeta.cli.run(argv)\n"
        "    return code, err.getvalue()\n"
        "print(json.dumps(loaded()))\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert run(argv) == (0, ''), argv\n"
        "print(json.dumps(loaded()))\n"
        "print(json.dumps([run(['selfcheck', '--max', '2']), loaded()]))\n"
        "usage_error = ['zeta', '--order', '0', '--dim', '2', '--plus', '1', '--minus', '1']\n"
        "print(json.dumps([run(usage_error), loaded()]))\n"
    )
    lines = _fresh(script, json.dumps(CANONICAL_REQUESTS))
    assert lines[0] == lines[1] == []
    assert lines[2] == [[0, ""], ["arczeta.selfcheck"]]
    (code, err), modules = lines[3]
    assert code == 2
    assert err.startswith("usage: arczeta zeta [-h]")
    assert err.endswith("arczeta zeta: error: argument --order: must be at least 1, got 0\n")
    assert modules == ["arczeta.selfcheck", "argparse", "gettext"]


def test_zeta_and_beta_import_no_germ_layer():
    # germ, and fractions with it, is imported by the commands that use it;
    # zeta and beta never build a rational number
    script = (
        "import contextlib, io, json, sys\n"
        "import arczeta, arczeta.cli\n"
        "layer = {'arczeta.germ', 'fractions', 'decimal', 'numbers'}\n"
        "def loaded():\n"
        "    return sorted(layer & set(sys.modules))\n"
        "print(json.dumps(loaded()))\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert arczeta.cli.run(argv) == 0, argv\n"
        "print(json.dumps(loaded()))\n"
    )
    requests = [argv for argv in CANONICAL_REQUESTS if argv[0] in ("beta", "zeta")]
    assert len(requests) == 4
    assert _fresh(script, json.dumps(requests)) == [[], []]


@pytest.mark.parametrize(
    "argv",
    [argv for argv in CANONICAL_REQUESTS if argv[0] not in ("beta", "zeta")],
    ids=lambda argv: argv[0],
)
def test_each_germ_command_imports_germ_and_answers_as_before(capsys, argv):
    script = (
        "import contextlib, io, json, sys\n"
        "import arczeta, arczeta.cli\n"
        "before = 'arczeta.germ' in sys.modules\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    code = arczeta.cli.run(json.loads(sys.argv[1]))\n"
        "print(json.dumps([before, 'arczeta.germ' in sys.modules, code, out.getvalue()]))\n"
    )
    [[before, after, code, out]] = _fresh(script, json.dumps(argv))
    assert (before, after) == (False, True)
    assert (code, out) == invoke(capsys, argv)


def test_the_package_surface_keeps_germ_names():
    # in fresh processes, where germ's names are first met through the
    # package's __getattr__
    modules = (arczeta.algebra, scissor, arcspace, germs, arczeta.errors)
    names = [name for module in modules for name in module.__all__]
    script = (
        "import json\n"
        "import arczeta\n"
        "star = {}\n"
        "exec('from arczeta import *', star)\n"
        "del star['__builtins__']\n"
        "print(json.dumps(arczeta.__all__))\n"
        "print(json.dumps(sorted(star)))\n"
        "germ = arczeta.germ\n"
        "print(json.dumps(all(star[name] is getattr(germ, name) for name in germ.__all__)))\n"
        "print(json.dumps(arczeta.PolynomialGerm is arczeta.germ.PolynomialGerm))\n"
    )
    assert _fresh(script) == [names, sorted(names), True, True]
    germ = germs.parse_germ("x1^2 - 1/2*x2^3")
    script = (
        "import json, pickle, sys\n"
        "print(json.dumps(pickle.loads(bytes.fromhex(sys.argv[1])).to_json()))\n"
    )
    assert _fresh(script, pickle.dumps(germ).hex()) == [germ.to_json()]
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        arczeta.no_such_name
