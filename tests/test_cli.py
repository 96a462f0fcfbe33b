import argparse
import gc
import io
import json
import random
import subprocess
import sys
import types
from fractions import Fraction

import pytest

import arczeta.cli as cli
from arczeta import LaurentPolynomial, TruncatedSeries, arcspace, beta_level, scissor, selfcheck
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


ZETA_STRATA = ["zeta", "--dim", "4", "--plus", "2", "--minus", "1", "--order", "7", "--strata"]


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_zeta_strata_stratifies_each_order_once(capsys, monkeypatch, extra):
    calls = []
    real_stratify = arcspace.stratify

    def counting_stratify(germ, n, selector, shared=None):
        calls.append(n)
        return real_stratify(germ, n, selector, shared)

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


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_plain_zeta_answers_from_the_rational_form(capsys, monkeypatch, extra):
    engine = arcspace.zeta_series(arcspace.QuadraticGerm(dim=4, plus=2, minus=1), arcspace.NAIVE, 7)
    expected = json.dumps(engine.to_json(), sort_keys=True) if extra else engine.to_text()

    def no_engine(*args):
        raise AssertionError("plain zeta ran the decomposition engine")

    for module in (arcspace, scissor):  # arcspace holds its own name for beta_eval
        monkeypatch.setattr(module, "beta_eval", no_engine)
    monkeypatch.setattr(arcspace, "stratify", no_engine)
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
    real_stratify = arcspace.stratify

    def counting_stratify(germ, n, selector, shared=None):
        keys.append((germ.dim, germ.plus, germ.minus, n, selector))
        return real_stratify(germ, n, selector, shared)

    monkeypatch.setattr(arcspace, "stratify", counting_stratify)
    first = selfcheck.run_selfcheck(3)
    assert first[1] is True
    # the round-trip, two-path and law grids read 450 distinct keys at --max 3
    assert len(keys) == len(set(keys)) == 450
    keys.clear()
    # a second run in the same process starts from an empty table
    assert selfcheck.run_selfcheck(3) == first
    assert len(keys) == len(set(keys)) == 450


def test_a_faulty_stratify_key_fails_only_the_identities_that_read_it(capsys, monkeypatch):
    real_stratify = arcspace.stratify

    def faulty_stratify(germ, n, selector, shared=None):
        report = real_stratify(germ, n, selector, shared)
        if (germ.dim, germ.plus, germ.minus, n, selector) != (3, 1, 1, 4, arcspace.PLUS):
            return report
        return arcspace.ArcStratumReport(
            report.n, report.selector, report.strata, report.betas,
            report.total_beta + LaurentPolynomial.one(),
        )

    monkeypatch.setattr(arcspace, "stratify", faulty_stratify)
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
        "total_beta": report.total_beta.to_json(),
    }


def _reference_strata_output(dim, plus, minus, selector, order) -> str:
    """zeta --strata --json as the dict tree and json.dumps render it."""
    germ = arcspace.QuadraticGerm(dim=dim, plus=plus, minus=minus)
    reports = [arcspace.stratify(germ, n, selector) for n in range(1, order + 1)]
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
    """One memo per report: every stratum's beta is what it is alone."""
    quad = arcspace.QuadraticGerm(*germ)
    for selector in arcspace.SELECTORS:
        for n in range(1, 41):
            report = arcspace.stratify(quad, n, selector)
            for (_, expression), beta in zip(report.strata, report.betas):
                assert beta == scissor.beta_eval(expression), (selector, n)
                by_child = LaurentPolynomial.one()
                for child in expression.children:
                    by_child = by_child * scissor.beta_eval(child)
                assert beta == by_child, (selector, n)


def _report_view(report) -> tuple:
    """A report with the text of each stratum's expression, each under its own memo."""
    texts = tuple(scissor.expression_json_text(e, {}) for _, e in report.strata)
    return report, report.betas, report.total_beta, texts


@pytest.mark.parametrize("germ", _strata_germs(), ids=lambda g: "-".join(map(str, g)))
def test_reports_from_one_shared_set_equal_lone_reports(germ):
    """Walked up and down, one shared set per (germ, selector) changes no report."""
    quad = arcspace.QuadraticGerm(*germ)
    for selector in arcspace.SELECTORS:
        lone = {n: _report_view(arcspace.stratify(quad, n, selector)) for n in range(1, 41)}
        for orders in (range(1, 41), range(40, 0, -1)):
            shared = arcspace._SharedStrata(quad, selector)
            for n in orders:
                report = arcspace.stratify(quad, n, selector, shared)
                assert _report_view(report) == lone[n], (selector, n)


@pytest.mark.parametrize("selector", arcspace.SELECTORS)
def test_a_shared_set_outlives_the_reports_built_from_it(selector):
    """Each report is freed before the next, so the next may reuse its ids: a
    stratum product's beta kept in the shared set would then be read for
    another product.  Only the shared nodes' betas are kept, and those
    nodes live as long as the set."""
    for germ in [(16, 5, 6), (5, 1, 0), (3, 0, 3)]:
        quad = arcspace.QuadraticGerm(*germ)
        shared = arcspace._SharedStrata(quad, selector)
        for n in [*range(1, 25), *range(24, 0, -3)]:
            report = arcspace.stratify(quad, n, selector, shared)
            view = _report_view(report)
            del report
            gc.collect()
            assert view == _report_view(arcspace.stratify(quad, n, selector)), (germ, n)


def test_stratify_refuses_a_shared_set_of_another_germ_or_selector():
    quad = arcspace.QuadraticGerm(4, 2, 1)
    for other, selector in [
        (arcspace.QuadraticGerm(4, 1, 2), arcspace.PLUS),
        (quad, arcspace.MINUS),
    ]:
        with pytest.raises(ValueError, match="shared strata"):
            arcspace.stratify(quad, 5, arcspace.PLUS, arcspace._SharedStrata(other, selector))
    # an equal germ object is the same germ
    shared = arcspace._SharedStrata(arcspace.QuadraticGerm(4, 2, 1), arcspace.PLUS)
    assert arcspace.stratify(quad, 5, arcspace.PLUS, shared) == arcspace.stratify(
        quad, 5, arcspace.PLUS
    )


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
    real_stratify = arcspace.stratify

    def failing_stratify(germ, n, selector, shared=None):
        if n == 5:
            raise InvariantViolation("stratum fault")
        return real_stratify(germ, n, selector, shared)

    monkeypatch.setattr(arcspace, "stratify", failing_stratify)
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
    arcspace.stratify(quad, 40, selector)  # warms the quadric cache, which builds nodes of its own
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
        report = arcspace.stratify(quad, 40, selector)
        nodes = _distinct_nodes(expression for _, expression in report.strata)
        assert sorted(evaluated) == sorted(nodes)
        # the strata share nodes, so evaluating each alone would cost more
        assert len(nodes) < sum(len(_distinct_nodes([e])) for _, e in report.strata)
        betas.append(report.betas)
        # freed here, so the next call may reuse these ids: a memo kept past
        # the call would skip those nodes and answer with stale betas
        del report, nodes
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
# the parser: a canonical argv builds no argparse parser, any other argv the
# top level and its own command only
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


def _counting_parser_builds(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    return built


@pytest.mark.parametrize(
    "argv, progs",
    [
        (["inertia", "--poly", "x1^2"], []),
        (["split", "--help"], ["arczeta", "arczeta split"]),
        (["beta", "x0", "--m", "2", "--M", "2"], []),
        (["beta", "nope"], ["arczeta", "arczeta beta"]),
        (["--help"], ["arczeta"]),
        (["nonsense"], ["arczeta"]),
        (["beta", "x0", "--m", "2", "--M", "-2"], ["arczeta", "arczeta beta", "arczeta beta x0"]),
        (["beta", "expr", '{"atom": "point"}'], ["arczeta", "arczeta beta", "arczeta beta expr"]),
    ],
)
def test_a_request_builds_only_the_parser_of_its_command(capsys, monkeypatch, argv, progs):
    built = _counting_parser_builds(monkeypatch)
    run(argv)
    capsys.readouterr()
    assert built == progs


def test_deferred_parsers_behave_as_parsers_built_up_front(capsys, monkeypatch):
    deferred = [_outcome(capsys, argv) for argv in PARSER_ARGVS]

    def built_up_front(options, **kwargs):
        parser = argparse.ArgumentParser(**kwargs)
        options(parser)
        return parser

    monkeypatch.setattr(cli, "_Deferred", built_up_front)
    built = _counting_parser_builds(monkeypatch)
    assert [_outcome(capsys, argv) for argv in PARSER_ARGVS] == deferred
    assert built[:15] == [
        "arczeta", "arczeta beta", "arczeta beta x0", "arczeta beta x1", "arczeta beta xneg1",
        "arczeta beta z", "arczeta beta expr", "arczeta zeta", "arczeta recover",
        "arczeta recover-naive", "arczeta inertia", "arczeta split", "arczeta discriminate",
        "arczeta selfcheck", "arczeta",
    ]


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
    completed = subprocess.run(
        [sys.executable, "-c", script, json.dumps(CANONICAL_REQUESTS)],
        capture_output=True, text=True,
    )
    assert completed.returncode == 0, completed.stderr
    lines = [json.loads(line) for line in completed.stdout.splitlines()]
    assert lines[0] == lines[1] == []
    assert lines[2] == [[0, ""], ["arczeta.selfcheck"]]
    (code, err), modules = lines[3]
    assert code == 2
    assert err.startswith("usage: arczeta zeta [-h]")
    assert err.endswith("arczeta zeta: error: argument --order: must be at least 1, got 0\n")
    assert modules == ["arczeta.selfcheck", "argparse", "gettext"]
