import gc
import tracemalloc

import pytest

from arczeta import (
    MINUS,
    NAIVE,
    PLUS,
    SELECTORS,
    ONE,
    ZERO,
    scissor,
    LaurentPolynomial,
    QuadraticGerm,
    QuadricAffine,
    TruncatedSeries,
    beta_eval,
    coefficient_closed_form,
    naive_t2_coefficient,
    signed_t2_coefficient,
    stratify_series,
    zeta_closed_form,
    zeta_series,
)
from arczeta.errors import InvalidGerm
from util import assert_public_twin, expand_rational_form, signature_pairs


def mono(exp, coeff=1):
    return LaurentPolynomial.monomial(exp, coeff)


def test_germ_validation():
    QuadraticGerm(dim=3, plus=2, minus=1)
    with pytest.raises(InvalidGerm):
        QuadraticGerm(dim=0, plus=1, minus=0)
    with pytest.raises(InvalidGerm):
        QuadraticGerm(dim=3, plus=0, minus=0)
    with pytest.raises(InvalidGerm):
        QuadraticGerm(dim=2, plus=2, minus=1)
    with pytest.raises(InvalidGerm):
        QuadraticGerm(dim=2, plus=-1, minus=2)


def test_stratify_examples():
    report = stratify_series(QuadraticGerm(dim=3, plus=2, minus=1), PLUS, 2)[-1]
    assert report.total_beta == mono(5) + mono(4)
    assert len(report.strata) == 1
    _, expression = report.strata[0]
    assert QuadricAffine(1, 2, 1) in expression.children

    report = stratify_series(QuadraticGerm(dim=2, plus=1, minus=1), PLUS, 3)[-1]
    assert report.total_beta == mono(4, 2) - mono(3, 2)

    report = stratify_series(QuadraticGerm(dim=1, plus=1, minus=0), PLUS, 3)[-1]
    assert report.total_beta == ZERO


def test_stratify_report_invariants():
    for dim in range(1, 5):
        for plus, minus in signature_pairs(dim):
            germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
            for selector in SELECTORS:
                for n in range(1, 7):
                    report = stratify_series(germ, selector, n)[-1]
                    total = ZERO
                    for _, expression in report.strata:
                        total = total + beta_eval(expression)
                    assert total == report.total_beta
                    if not report.total_beta.is_zero():
                        assert report.total_beta.degree() <= n * dim


def test_total_beta_is_the_sum_of_the_betas_with_no_zero_coefficient():
    # the builder sums each report's betas into one term map, deleting a
    # coefficient that cancels; the grid must reach that deletion
    cancellations = 0
    for dim in range(1, 7):
        for plus, minus in signature_pairs(dim):
            germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
            for selector in SELECTORS:
                for report in stratify_series(germ, selector, 12):
                    where = (dim, plus, minus, selector, report.n)
                    assert report.total_beta == sum(report.betas, ZERO), where
                    assert 0 not in report.total_beta.terms().values(), where
                    partial = ZERO
                    for beta in report.betas:
                        grown = partial + beta
                        left = grown.terms()
                        cancellations += sum(exp not in left for exp in partial.terms())
                        partial = grown
    assert cancellations > 0


def _bytes_held_by_reports(germ, selector, order):
    gc.collect()
    tracemalloc.start()
    try:
        reports = stratify_series(germ, selector, order)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        assert len(reports) == order
        return held
    finally:
        tracemalloc.stop()


def test_the_reports_hold_memory_growing_slower_than_the_cube_of_the_order():
    # order n has about n/2 strata of up to n factors: held as runs, a
    # stratum costs O(1) and the reports of n = 1..N grow like N^2, a
    # quadrupled N by 16; holding every child would grow like N^3, by 64
    germ = QuadraticGerm(5, 1, 0)
    ratio = _bytes_held_by_reports(germ, NAIVE, 240) / _bytes_held_by_reports(germ, NAIVE, 60)
    assert ratio < 20, ratio


@pytest.mark.parametrize("selector", SELECTORS)
def test_a_factor_is_evaluated_only_when_a_stratum_uses_it(selector):
    # order 1 has no strata, so neither the cone nor the level quadric is evaluated
    scissor._beta_quadric.cache_clear()
    (report,) = stratify_series(QuadraticGerm(4, 2, 2), selector, 1)
    assert report.strata == ()
    assert scissor._beta_quadric.cache_info().currsize == 0


def test_strata_equal_their_twins_built_by_the_public_constructors():
    # every stratum and shared factor is built trusted, from the checked germ
    for dim in range(1, 7):
        for plus, minus in signature_pairs(dim):
            germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
            for selector in SELECTORS:
                twins = {}  # one per call, so each shared factor is rebuilt once
                for report in stratify_series(germ, selector, 12):
                    for _, stratum in report.strata:
                        assert_public_twin(stratum, twins)


def test_stratify_rejects_bad_input():
    germ = QuadraticGerm(dim=2, plus=1, minus=1)
    with pytest.raises(ValueError):
        stratify_series(germ, PLUS, 0)
    with pytest.raises(ValueError):
        stratify_series(germ, "sideways", 2)
    with pytest.raises(InvalidGerm):
        stratify_series("not a germ", PLUS, 2)


# each public count of the engine, with the arguments that pass it
COUNTED = [
    (stratify_series, "truncation order", lambda germ, count: (germ, PLUS, count)),
    (zeta_series, "truncation order", lambda germ, count: (germ, PLUS, count)),
    (coefficient_closed_form, "order n", lambda germ, count: (germ, count, PLUS)),
    (zeta_closed_form, "truncation order", lambda germ, count: (germ, PLUS, count)),
]


@pytest.mark.parametrize(
    "function, what, arguments", COUNTED, ids=[function.__name__ for function, _, _ in COUNTED]
)
@pytest.mark.parametrize("count", [True, False, 0, 2.0])
def test_counts_are_positive_integers_not_booleans(function, what, arguments, count):
    germ = QuadraticGerm(dim=2, plus=1, minus=1)
    with pytest.raises(ValueError, match=f"{what} must be a positive integer"):
        function(*arguments(germ, count))
    assert function(*arguments(germ, 1)) is not None


def test_zeta_of_one_variable_square():
    germ = QuadraticGerm(dim=1, plus=1, minus=0)
    expected = TruncatedSeries(6, {2: mono(-1, 2), 4: mono(-2, 2), 6: mono(-3, 2)})
    assert zeta_series(germ, PLUS, 6) == expected
    assert zeta_series(germ, MINUS, 6) == TruncatedSeries(6)


def test_zeta_example_series():
    germ = QuadraticGerm(dim=3, plus=2, minus=1)
    series = zeta_series(germ, PLUS, 2)
    assert series == TruncatedSeries(2, {2: mono(-1) + mono(-2)})


def test_first_coefficient_always_vanishes():
    for dim in range(1, 6):
        for plus, minus in signature_pairs(dim):
            germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
            for selector in SELECTORS:
                assert zeta_series(germ, selector, 1) == TruncatedSeries(1)


def test_stratified_coefficients_match_closed_form():
    for dim in range(1, 6):
        for plus, minus in signature_pairs(dim):
            germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
            for selector in SELECTORS:
                series = zeta_series(germ, selector, 6)
                assert series == zeta_closed_form(germ, selector, 6)
                for n in range(1, 7):
                    assert series.coefficient(n) == coefficient_closed_form(
                        germ, n, selector
                    )
    # far enough for odd and even n >= 9 and for the B sum to have many terms
    for dim in range(1, 5):
        for plus, minus in signature_pairs(dim):
            germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
            for selector in SELECTORS:
                series = zeta_closed_form(germ, selector, 30)
                assert zeta_series(germ, selector, 30) == series, (dim, plus, minus, selector)


def test_closed_form_recurrence_equals_the_term_by_term_expansion():
    for dim in range(1, 7):
        for plus, minus in signature_pairs(dim):
            germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
            for selector in SELECTORS:
                if selector == NAIVE:
                    cone = scissor.beta_cone(plus, minus)
                    a, b = mono(plus + minus) - cone, (cone - ONE) * (mono(1) - ONE)
                else:
                    level = scissor.beta_level(plus, minus, 1 if selector == PLUS else -1)
                    a, b = level, scissor.beta_cone(plus, minus) - ONE
                series = zeta_closed_form(germ, selector, 40)
                for n in range(1, 41):
                    expected = expand_rational_form(germ.rank, a, b, n)
                    assert series.coefficient(n) == expected, (dim, plus, minus, selector, n)


def test_stabilization_under_extra_coordinates():
    for dim in range(1, 6):
        for plus, minus in signature_pairs(dim):
            germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
            grown = QuadraticGerm(dim=dim + 1, plus=plus, minus=minus)
            for selector in SELECTORS:
                assert zeta_series(germ, selector, 6) == zeta_series(grown, selector, 6)


def test_odd_coefficients_ignore_the_sign():
    for dim in range(1, 6):
        for plus, minus in signature_pairs(dim):
            germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
            plus_series = zeta_series(germ, PLUS, 7)
            minus_series = zeta_series(germ, MINUS, 7)
            for n in range(1, 8, 2):
                assert plus_series.coefficient(n) == minus_series.coefficient(n)


def test_sign_swap_exchanges_signed_zetas():
    for dim in range(1, 6):
        for plus, minus in signature_pairs(dim):
            germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
            swapped = QuadraticGerm(dim=dim, plus=minus, minus=plus)
            assert zeta_series(germ, PLUS, 6) == zeta_series(swapped, MINUS, 6)
            assert zeta_series(germ, NAIVE, 6) == zeta_series(swapped, NAIVE, 6)


def test_coefficients_never_have_positive_degree():
    for dim in range(1, 6):
        for plus, minus in signature_pairs(dim):
            germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
            for selector in SELECTORS:
                series = zeta_series(germ, selector, 6)
                for n, coefficient in series.coefficients().items():
                    assert coefficient.degree() <= 0, (dim, plus, minus, selector, n)


def test_signed_t2_closed_values():
    assert signed_t2_coefficient(2, 1, PLUS) == mono(-1) + mono(-2)
    assert signed_t2_coefficient(1, 1, PLUS) == mono(-1) - mono(-2)
    for t in range(1, 7):
        assert signed_t2_coefficient(0, t, PLUS).is_zero()
    with pytest.raises(InvalidGerm):
        signed_t2_coefficient(0, 0, PLUS)
    with pytest.raises(ValueError):
        signed_t2_coefficient(1, 1, NAIVE)


def test_t2_closed_forms_match_series():
    for dim in range(1, 7):
        for plus, minus in signature_pairs(dim):
            germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
            assert zeta_series(germ, PLUS, 2).coefficient(2) == signed_t2_coefficient(
                plus, minus, PLUS
            )
            assert zeta_series(germ, MINUS, 2).coefficient(2) == signed_t2_coefficient(
                plus, minus, MINUS
            )
            assert zeta_series(germ, NAIVE, 2).coefficient(2) == naive_t2_coefficient(
                plus, minus
            )


def test_naive_t2_values():
    assert naive_t2_coefficient(2, 2) == ONE - mono(-1) - mono(-2) + mono(-3)
    assert naive_t2_coefficient(1, 2) == ONE - mono(-1)
    assert naive_t2_coefficient(2, 3) == ONE - mono(-1)
    assert naive_t2_coefficient(1, 3) == ONE - mono(-1) + mono(-2) - mono(-3)
    assert naive_t2_coefficient(0, 3) == ONE - mono(-3)
