"""Acceptance suite: one test per criterion, every identity exact.

Each test prints a [PASS] line with its runtime; run with

    pytest tests/test_acceptance.py -v -s
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction

from arczeta import (
    MINUS,
    NAIVE,
    ONE,
    PLUS,
    SELECTORS,
    ZERO,
    LaurentPolynomial,
    QuadraticGerm,
    QuadricAffine,
    TruncatedSeries,
    beta_cone,
    beta_eval,
    beta_level,
    beta_projective_quadric,
    charpoly_inertia,
    coefficient_closed_form,
    cone_relation_check,
    discriminate,
    geometric_sum,
    naive_t2_coefficient,
    parse_germ,
    recover_minmax,
    recover_signature,
    split_jet,
    scissor,
    verify_split,
    zeta_closed_form,
    zeta_series,
)
from arczeta.cli import run
from util import (
    expand_rational_form,
    quadratic_form,
    random_singular_germ,
    random_symmetric,
    signature_pairs,
)

U = LaurentPolynomial.monomial(1)


def mono(exp, coeff=1):
    return LaurentPolynomial.monomial(exp, coeff)


class _Timer:
    def __init__(self, label, budget):
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"[PASS] {self.label} ({elapsed:.2f}s, budget {self.budget}s)")
            assert elapsed < self.budget, f"{self.label} exceeded {self.budget}s"
        else:
            print(f"[FAIL] {self.label} ({elapsed:.2f}s)")
        return False


def test_criterion_1_closed_form_beta_values():
    with _Timer("criterion 1: closed-form beta values reproduced exactly", 1.0):
        assert beta_cone(2, 2) == mono(3) + mono(2) - U
        for M in range(2, 13):
            assert beta_cone(1, M) == mono(M) - mono(M - 1) + U
        for m in range(1, 13):
            for M in range(m, 13):
                assert beta_projective_quadric(m, M) == (ONE + mono(M - 1)) * geometric_sum(m)
        # level-set values over the full grid, degenerate rows included
        for s in range(13):
            for t in range(13):
                if s == 0:
                    plus_expected = ZERO
                elif t == 0:
                    plus_expected = ONE + mono(s - 1)  # the sphere S^(s-1)
                elif s <= t:
                    plus_expected = mono(t - 1) * (mono(s) - 1)
                else:
                    plus_expected = mono(t) * (mono(s - 1) + 1)
                assert beta_level(s, t, 1) == plus_expected, (s, t)
                if t == 0:
                    minus_expected = ZERO
                elif s == 0:
                    minus_expected = ONE + mono(t - 1)
                elif t <= s:
                    minus_expected = mono(s - 1) * (mono(t) - 1)
                else:
                    minus_expected = mono(s) * (mono(t - 1) + 1)
                assert beta_level(s, t, -1) == minus_expected, (s, t)


def test_criterion_2_engine_matches_closed_forms():
    with _Timer("criterion 2: decomposition engine equals closed forms", 1.0):
        for c in (-1, 0, 1):
            for s in range(13):
                for t in range(13):
                    closed = beta_cone(s, t) if c == 0 else beta_level(s, t, c)
                    assert beta_eval(QuadricAffine(c, s, t)) == closed, (c, s, t)
        # the one documented convention: the cone with an empty sign class
        # is the origin, value 1, matching the closed formula at min = 0
        assert beta_eval(QuadricAffine(0, 0, 5)) == ONE


def test_criterion_3_fibration_identities():
    with _Timer("criterion 3: cone and projective-difference identities", 1.0):
        for m in range(1, 13):
            for M in range(1, 13):
                assert cone_relation_check(m, M), (m, M)
        for s in range(1, 13):
            for t in range(1, 13):
                if s <= t:
                    expected = beta_projective_quadric(s, t + 1) - beta_projective_quadric(s, t)
                else:
                    expected = beta_projective_quadric(t + 1, s) - beta_projective_quadric(t, s)
                assert beta_level(s, t, 1) == expected, (s, t)


def test_criterion_4_signature_round_trip():
    with _Timer("criterion 4: signed T^2 round trip over d <= 8", 5.0):
        for dim in range(1, 9):
            for plus, minus in signature_pairs(dim):
                germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
                c_plus = zeta_series(germ, PLUS, 2).coefficient(2)
                c_minus = zeta_series(germ, MINUS, 2).coefficient(2)
                assert recover_signature(c_plus, c_minus) == (plus, minus), (
                    dim,
                    plus,
                    minus,
                )


def test_criterion_5_zeta_self_consistency():
    with _Timer("criterion 5: zeta self-consistency over d <= 6, n <= 6", 30.0):
        for dim in range(1, 7):
            for plus, minus in signature_pairs(dim):
                germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
                grown = QuadraticGerm(dim=dim + 1, plus=plus, minus=minus)
                swapped = QuadraticGerm(dim=dim, plus=minus, minus=plus)
                for selector in SELECTORS:
                    series = zeta_series(germ, selector, 6)
                    for n in range(1, 7):
                        assert series.coefficient(n) == coefficient_closed_form(
                            germ, n, selector
                        ), (dim, plus, minus, selector, n)
                    assert series == zeta_series(grown, selector, 6)
                    for coefficient in series.coefficients().values():
                        assert coefficient.degree() <= 0
                plus_series = zeta_series(germ, PLUS, 6)
                minus_series = zeta_series(germ, MINUS, 6)
                for n in (1, 3, 5):
                    assert plus_series.coefficient(n) == minus_series.coefficient(n)
                assert plus_series == zeta_series(swapped, MINUS, 6)


def test_criterion_6_worked_series_for_one_square():
    with _Timer("criterion 6: the zeta series of a single square", 1.0):
        germ = QuadraticGerm(dim=1, plus=1, minus=0)
        # direct enumeration: order n is reachable only for n = 2e with the
        # first e-1 coefficients zero, the e-th equal to +-1 (2 points) and
        # the remaining n - e coefficients free
        expected = {}
        for n in range(1, 7):
            if n % 2 == 0:
                e = n // 2
                expected[n] = mono(n - e, 2) * mono(-n)
        assert zeta_series(germ, PLUS, 6) == TruncatedSeries(6, expected)
        assert zeta_series(germ, PLUS, 6) == TruncatedSeries(
            6, {2: mono(-1, 2), 4: mono(-2, 2), 6: mono(-3, 2)}
        )
        assert zeta_series(germ, MINUS, 6) == TruncatedSeries(6)


def test_criterion_7_t2_separation_at_desk_scale():
    with _Timer("criterion 7: T^2 data separates signatures over d <= 5", 10.0):
        for dim in range(1, 6):
            signatures = list(signature_pairs(dim))
            t2 = {
                pair: (
                    zeta_series(
                        QuadraticGerm(dim=dim, plus=pair[0], minus=pair[1]), PLUS, 2
                    ).coefficient(2),
                    zeta_series(
                        QuadraticGerm(dim=dim, plus=pair[0], minus=pair[1]), MINUS, 2
                    ).coefficient(2),
                )
                for pair in signatures
            }
            for a in signatures:
                for b in signatures:
                    assert (t2[a] == t2[b]) == (a == b), (dim, a, b)
        result = discriminate(
            parse_germ("x1^2+x2^2-x3^2"), parse_germ("x1^2-x2^2-x3^2"), 2
        )
        assert result.distinguished and (result.selector, result.n) == (PLUS, 2)
        same = discriminate(
            parse_germ("x1^2+x2^2"), parse_germ("x1^2+2*x1*x2+2*x2^2"), 6
        )
        assert not same.distinguished


def test_criterion_8_inertia_and_splitting():
    with _Timer("criterion 8: inertia oracle and splitting residuals", 30.0):
        rng = random.Random(20250101)
        for _ in range(1000):
            size = rng.randint(1, 8)
            matrix = random_symmetric(rng, size)
            inertia = split_jet(quadratic_form(matrix), 3).inertia
            assert (inertia.plus, inertia.minus) == charpoly_inertia(matrix)
        corpus = [
            (parse_germ("x1^2 + 2*x1*x2^2"), order) for order in range(3, 7)
        ]
        corpus += [(parse_germ("x1^2 + x1*x3^3"), order) for order in range(3, 7)]
        corpus += [(parse_germ("x1*x2 + x2^3"), order) for order in range(3, 7)]
        germ_rng = random.Random(20250202)
        for index in range(100):
            corpus.append(
                (random_singular_germ(germ_rng, germ_rng.randint(1, 4)), 3 + index % 4)
            )
        for germ, jet_order in corpus:
            result = split_jet(germ, jet_order)
            assert verify_split(germ, result), (germ.to_text(), jet_order)


def test_criterion_9_naive_ambiguity():
    with _Timer("criterion 9: naive T^2 recovery and its ambiguity", 1.0):
        collapsed = ONE - mono(-1)
        for m in range(1, 7):
            coefficient = naive_t2_coefficient(m, m + 1)
            assert coefficient == collapsed
            assert recover_minmax(coefficient).status == "ambiguous"
        for m in range(1, 7):
            for M in range(m, 13):
                outcome = recover_minmax(naive_t2_coefficient(m, M))
                if M == m + 1:
                    assert outcome.status == "ambiguous"
                else:
                    assert outcome.status == "determined"
                    assert (outcome.m, outcome.M) == (m, M)


def test_criterion_10_plain_zeta_at_order_400():
    argv = ["zeta", "--dim", "3", "--plus", "1", "--minus", "1", "--order", "400", "--json"]
    out = io.StringIO()
    with _Timer("criterion 10: plain zeta --order 400 from the rational form", 1.0):
        with contextlib.redirect_stdout(out):
            code = run(argv)
    assert code == 0
    payload = json.loads(out.getvalue())
    assert payload["order"] == 400
    assert payload == zeta_closed_form(QuadraticGerm(dim=3, plus=1, minus=1), NAIVE, 400).to_json()


def test_criterion_11_largest_series_strata_request():
    # the largest zeta --strata request shape of the benchmark's series pool,
    # with a cold quadric cache: about 30 ms in process on a 2-vCPU VM
    argv = [
        "zeta", "--strata", "--json", "--dim", "16", "--plus", "5", "--minus", "6",
        "--selector", "naive", "--order", "40",
    ]
    out = io.StringIO()
    scissor._beta_quadric.cache_clear()
    with _Timer("criterion 11: zeta --strata --order 40 on a rank-11 germ in R^16", 0.5):
        with contextlib.redirect_stdout(out):
            code = run(argv)
    assert code == 0
    payload = json.loads(out.getvalue())
    germ = QuadraticGerm(dim=16, plus=5, minus=6)
    assert payload["series"] == zeta_closed_form(germ, NAIVE, 40).to_json()
    assert [report["n"] for report in payload["strata"]] == list(range(1, 41))


def test_criterion_12_split_at_jet_10_and_its_verification():
    # a jet-10 split with cross terms in every variable: about 0.4 s with
    # its verify_split in process on a 2-vCPU VM
    germ = parse_germ("x1*x2 - x3^2 + x1^3 + x2^2*x3 + x3^4 + x1*x2*x3")
    with _Timer("criterion 12: split_jet at jet 10 with verify_split", 1.2):
        result = split_jet(germ, 10)
        assert verify_split(germ, result)
    assert (result.inertia.plus, result.inertia.minus, result.inertia.corank) == (1, 2, 0)


def test_criterion_13_inertia_costs_the_variables_the_germ_uses():
    # one used variable among 3,000 declared: the congruence runs on a 1 x 1
    # block, about 1 ms in process on a 2-vCPU VM
    argv = ["inertia", "--poly", "x1^2", "--dim", "3000", "--json"]
    out = io.StringIO()
    with _Timer("criterion 13: inertia --poly x1^2 --dim 3000", 0.5):
        with contextlib.redirect_stdout(out):
            code = run(argv)
    assert code == 0
    assert json.loads(out.getvalue()) == {"s": 1, "t": 0, "rank": 1, "corank": 2999, "index": 0}


def test_criterion_14_split_costs_the_variables_the_germ_uses():
    # two used variables among 400 declared: Stage 1 passes over the other
    # 398 without a matrix, about 50 ms in process on a 2-vCPU VM (a dense
    # 400 x 400 elimination took 1.7 s)
    argv = ["split", "--poly", "x1^2+x1*x2^3", "--dim", "400", "--jet", "4", "--json"]
    out = io.StringIO()
    with _Timer("criterion 14: split --poly x1^2+x1*x2^3 --dim 400 --jet 4", 0.5):
        with contextlib.redirect_stdout(out):
            code = run(argv)
    assert code == 0
    payload = json.loads(out.getvalue())
    assert payload["inertia"] == {"s": 1, "t": 0, "rank": 1, "corank": 399, "index": 0}
    assert payload["quadratic_part"] == parse_germ("x1^2", 400).to_json()
    assert payload["remainder"] == {"nvars": 400, "terms": []}
    coordinates = [parse_germ(f"x{i}", 400).to_json() for i in range(2, 401)]
    assert payload["change"] == [parse_germ("x1 - 1/2*x2^3", 400).to_json(), *coordinates]


def test_criterion_15_verify_split_costs_the_variables_the_change_moves():
    # the split of criterion 14 moves x1 alone among 400 variables: the rank
    # pass over the change's linear terms takes about 5 ms in process on a
    # 2-vCPU VM (a dense 400 x 400 determinant took 1.5 s)
    germ = parse_germ("x1^2+x1*x2^3", 400)
    result = split_jet(germ, 4)
    with _Timer("criterion 15: verify_split of the criterion 14 split", 0.5):
        assert verify_split(germ, result)


def test_criterion_16_split_costs_the_degrees_its_terms_reach():
    # Stage 2 stops at the first degree no term reaches, so a jet of 10^7 on a
    # germ of degree 3 costs what jet 4 does: under 1 ms in process on a 2-vCPU
    # VM, where a pass over every degree up to the jet would take seconds
    argv = ["split", "--poly", "x1^2 + x1*x2^2", "--jet", "10000000"]
    out = io.StringIO()
    with _Timer("criterion 16: split --poly 'x1^2 + x1*x2^2' --jet 10000000", 0.5):
        with contextlib.redirect_stdout(out):
            code = run(argv)
        germ = parse_germ("x1^2 + x1*x2^2")
        assert verify_split(germ, split_jet(germ, 10**7))
    assert code == 0
    assert out.getvalue() == (
        "inertia: s = 1, t = 0, corank = 1 (jet order 10000000)\n"
        "x1 -> x1 - 1/2*x2^2\nx2 -> x2\nQ = x1^2\nF = -1/4*x2^4\n"
    )


def test_criterion_17_inertia_of_a_dense_60_variable_germ():
    # every x_i*x_j, i <= j <= 60, with a coefficient in {1..5}/{1..3}: 1,830
    # terms in 25 KB; the text is read in ints and the Hessian goes straight
    # into an integer matrix, about 0.1 s in process on a 2-vCPU VM
    text = " + ".join(
        f"{(7 * i + j) % 5 + 1}/{(i + j) % 3 + 1}*x{i}" + (f"*x{j}" if i < j else "^2")
        for i in range(1, 61)
        for j in range(i, 61)
    )
    out = io.StringIO()
    with _Timer("criterion 17: inertia --json of a dense 60-variable germ", 0.5):
        with contextlib.redirect_stdout(out):
            code = run(["inertia", "--json", "--poly", text])
    assert code == 0
    assert json.loads(out.getvalue()) == {"s": 39, "t": 21, "rank": 60, "corank": 0, "index": 21}


def test_criterion_18_plain_zeta_at_order_5000():
    # the rational form expanded by its recurrence, which costs each
    # coefficient its own terms: about 30 ms and 60 ms in process on a 2-vCPU
    # VM, where the term-by-term expansion took 2.4 s on the first request
    requests = {
        (5, 1, 0): ["zeta", "--dim", "5", "--plus", "1", "--minus", "0", "--order", "5000"],
        (3, 1, 1): ["zeta", "--dim", "3", "--plus", "1", "--minus", "1", "--order", "5000"],
    }
    outputs = {}
    with _Timer("criterion 18: plain zeta --order 5000, twice", 0.5):
        for key, argv in requests.items():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert run([*argv, "--json"]) == 0
            outputs[key] = json.loads(out.getvalue())
    for (dim, plus, minus), payload in outputs.items():
        assert payload["order"] == 5000
        terms = dict(payload["terms"])
        cone = beta_cone(plus, minus)
        a, b = mono(plus + minus) - cone, (cone - ONE) * (U - ONE)
        for n in (1, 2, 3, 4, 4999, 5000):
            expected = expand_rational_form(plus + minus, a, b, n)
            assert LaurentPolynomial.from_json(terms.get(n, [])) == expected, (dim, n)
