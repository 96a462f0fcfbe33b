import io
import json
import subprocess
import sys
import types

import pytest

import arczeta.cli as cli
from arczeta import LaurentPolynomial, TruncatedSeries, arcspace, beta_level, scissor, selfcheck
from arczeta import germ as germs
from arczeta.cli import run
from arczeta.errors import NotSignatureForm


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
        summed = LaurentPolynomial.zero()
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


ZETA_STRATA = ["zeta", "--dim", "4", "--plus", "2", "--minus", "1", "--order", "7", "--strata"]


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_zeta_strata_stratifies_each_order_once(capsys, monkeypatch, extra):
    calls = []
    real_stratify = arcspace.stratify

    def counting_stratify(germ, n, selector):
        calls.append(n)
        return real_stratify(germ, n, selector)

    monkeypatch.setattr(arcspace, "stratify", counting_stratify)
    code, _ = invoke(capsys, ZETA_STRATA + extra)
    assert code == 0
    assert calls == list(range(1, 8))


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_zeta_strata_takes_the_betas_from_the_reports(capsys, monkeypatch, extra):
    def no_beta_eval(expression):
        raise AssertionError("the command line evaluated a stratum itself")

    monkeypatch.setattr(cli, "scissor", types.SimpleNamespace(**vars(scissor)))
    monkeypatch.setattr(cli.scissor, "beta_eval", no_beta_eval)
    code, _ = invoke(capsys, ZETA_STRATA + extra)
    assert code == 0


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
    assert LaurentPolynomial.from_text(text.strip()) == LaurentPolynomial.from_json(
        json.loads(machine)
    )
    argv = ["zeta", "--dim", "3", "--plus", "1", "--minus", "2", "--order", "5"]
    _, text = invoke(capsys, argv)
    _, machine = invoke(capsys, argv + ["--json"])
    assert TruncatedSeries.from_text(text.strip()) == TruncatedSeries.from_json(
        json.loads(machine)
    )


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
            return value + LaurentPolynomial.one()
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


def test_zeta_laws_build_each_series_once(monkeypatch):
    calls = []
    real_zeta_series = arcspace.zeta_series

    def counting_zeta_series(germ, selector, order):
        calls.append((germ, selector))
        return real_zeta_series(germ, selector, order)

    monkeypatch.setattr(arcspace, "zeta_series", counting_zeta_series)
    results = list(selfcheck._zeta_laws(3))
    signatures = sum(1 for dim in (1, 2, 3) for _ in selfcheck.signature_pairs(dim))
    assert all(ok for _, ok in results)
    assert len(results) == 11 * signatures
    # three series of the germ, three of the grown germ, one of the swapped one
    assert len(calls) == 7 * signatures


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
