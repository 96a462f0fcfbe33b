from fractions import Fraction

import pytest

import arczeta.germ as germ_module
from arczeta import (
    MINUS,
    NAIVE,
    PLUS,
    ZERO,
    LaurentPolynomial,
    PolynomialGerm,
    QuadraticGerm,
    TruncatedSeries,
    arcspace,
    discriminate,
    naive_t2_coefficient,
    parse_germ,
    recover_minmax,
    recover_signature,
    signed_t2_coefficient,
    zeta_series,
)
from arczeta.errors import (
    DimensionMismatch,
    NotSignatureForm,
    NotSingularAtOrigin,
)
from util import signature_pairs


def mono(exp, coeff=1):
    return LaurentPolynomial.monomial(exp, coeff)


# ---------------------------------------------------------------------------
# recover_signature
# ---------------------------------------------------------------------------


def test_recover_signature_examples():
    assert recover_signature(mono(-1) + mono(-2), mono(-1) - mono(-2)) == (2, 1)
    assert recover_signature(ZERO, mono(-1) + mono(-2)) == (0, 2)
    with pytest.raises(NotSignatureForm):
        recover_signature(
            LaurentPolynomial({2: 1, 1: 1, 0: 1}), ZERO
        )
    with pytest.raises(NotSignatureForm):
        recover_signature(ZERO, LaurentPolynomial({0: 3}))
    assert recover_signature(ZERO, ZERO) == (0, 0)
    assert recover_signature(ZERO, mono(-4) + mono(-1)) == (0, 4)


def test_recover_signature_rejects_what_no_signature_produces():
    # each coefficient reads as a count once its power of u is factored
    # out, but no signature quadric has this pair of T^2 coefficients
    with pytest.raises(NotSignatureForm):
        recover_signature(mono(-98) - mono(-100), mono(7, 2))
    with pytest.raises(NotSignatureForm):
        recover_signature(mono(0, 2), mono(0, 2))
    with pytest.raises(NotSignatureForm):
        recover_signature(ZERO, mono(-3) + mono(0))


def test_recover_signature_rejects_every_shifted_coefficient():
    for plus, minus in signature_pairs(6):
        c_plus = signed_t2_coefficient(plus, minus, PLUS)
        c_minus = signed_t2_coefficient(plus, minus, MINUS)
        for shift in (-1, 1, 5):
            if not c_plus.is_zero():
                with pytest.raises(NotSignatureForm):
                    recover_signature(c_plus * mono(shift), c_minus)
            if not c_minus.is_zero():
                with pytest.raises(NotSignatureForm):
                    recover_signature(c_plus, c_minus * mono(shift))


def test_recover_signature_round_trip_closed_forms():
    for plus, minus in signature_pairs(8):
        recovered = recover_signature(
            signed_t2_coefficient(plus, minus, PLUS),
            signed_t2_coefficient(plus, minus, MINUS),
        )
        assert recovered == (plus, minus)


def test_recover_signature_round_trip_through_series():
    for dim in range(1, 6):
        for plus, minus in signature_pairs(dim):
            germ = QuadraticGerm(dim=dim, plus=plus, minus=minus)
            c_plus = zeta_series(germ, PLUS, 2).coefficient(2)
            c_minus = zeta_series(germ, MINUS, 2).coefficient(2)
            assert recover_signature(c_plus, c_minus) == (plus, minus)


# ---------------------------------------------------------------------------
# recover_minmax
# ---------------------------------------------------------------------------


def test_recover_minmax_examples():
    outcome = recover_minmax(naive_t2_coefficient(2, 2))
    assert (outcome.status, outcome.m, outcome.M) == ("determined", 2, 2)
    outcome = recover_minmax(naive_t2_coefficient(1, 3))
    assert (outcome.status, outcome.m, outcome.M) == ("determined", 1, 3)
    outcome = recover_minmax(naive_t2_coefficient(1, 2))
    assert outcome.status == "ambiguous"
    assert recover_minmax(naive_t2_coefficient(2, 3)).status == "ambiguous"
    # the whole family collapses to the same coefficient
    assert naive_t2_coefficient(1, 2) == naive_t2_coefficient(2, 3)


def test_recover_minmax_equal_counts():
    assert recover_minmax(naive_t2_coefficient(1, 1)).m == 1
    for m in range(2, 7):
        outcome = recover_minmax(naive_t2_coefficient(m, m))
        assert (outcome.m, outcome.M) == (m, m)


def test_recover_minmax_zero_min_is_convention_dependent():
    for M in range(2, 7):
        outcome = recover_minmax(naive_t2_coefficient(0, M))
        assert outcome.status == "ambiguous"
        assert "convention" in outcome.reason
    # min = 0, max = 1 lands in the collapsed family
    assert recover_minmax(naive_t2_coefficient(0, 1)).status == "ambiguous"


def test_recover_minmax_grid():
    for m in range(1, 7):
        for M in range(m, 13):
            outcome = recover_minmax(naive_t2_coefficient(m, M))
            if M == m + 1:
                assert outcome.status == "ambiguous"
            else:
                assert (outcome.status, outcome.m, outcome.M) == ("determined", m, M)


def test_recover_minmax_rejects_garbage():
    with pytest.raises(NotSignatureForm):
        recover_minmax(LaurentPolynomial({0: 2}))
    with pytest.raises(NotSignatureForm):
        recover_minmax(LaurentPolynomial({0: 1, -1: 1}))
    with pytest.raises(NotSignatureForm):
        recover_minmax(LaurentPolynomial({0: 1, -1: -1, -2: 1, -3: 1}))
    with pytest.raises(NotSignatureForm):
        recover_minmax(LaurentPolynomial({0: 1, -1: -1, -2: 2, -5: -2}))


# ---------------------------------------------------------------------------
# discriminate
# ---------------------------------------------------------------------------


def test_discriminate_separates_different_signatures():
    f = parse_germ("x1^2 + x2^2 - x3^2")
    g = parse_germ("x1^2 - x2^2 - x3^2")
    result = discriminate(f, g, 2)
    assert result.distinguished
    assert (result.selector, result.n) == (PLUS, 2)
    assert not result.conditional


def test_discriminate_keeps_equal_inertia_together():
    f = parse_germ("x1^2 + x2^2")
    g = parse_germ("x1^2 + 2*x1*x2 + 2*x2^2")
    result = discriminate(f, g, 6)
    assert not result.distinguished
    assert result.order == 6
    assert discriminate(f, f, 4).distinguished is False


@pytest.mark.parametrize("order", [True, False, 0, 2.0])
def test_discriminate_refuses_an_order_that_is_no_positive_integer(order):
    f = parse_germ("x1^2 + x2^2")
    with pytest.raises(ValueError, match="order must be a positive integer"):
        discriminate(f, f, order)


def test_discriminate_flags_higher_order_inputs():
    f = parse_germ("x1^2 + x2^3")
    g = parse_germ("x1^2", nvars=2)
    result = discriminate(f, g, 4)
    assert not result.distinguished
    assert result.conditional


def test_discriminate_zero_hessian_versus_rank():
    f = parse_germ("x1^3", nvars=2)
    g = parse_germ("x1^2", nvars=2)
    result = discriminate(f, g, 4)
    assert result.distinguished
    assert result.n == 2
    assert result.selector == NAIVE


def test_discriminate_input_validation():
    with pytest.raises(DimensionMismatch):
        discriminate(parse_germ("x1^2"), parse_germ("x2^2"), 2)
    with pytest.raises(NotSingularAtOrigin):
        discriminate(parse_germ("x1"), parse_germ("x1^2"), 2)


def test_signed_t2_separates_exactly_the_signatures():
    # pairs with the same ambient dimension separate iff the counts differ
    for dim in range(1, 5):
        germs = list(signature_pairs(dim))
        for a in germs:
            for b in germs:
                same_data = signed_t2_coefficient(*a, PLUS) == signed_t2_coefficient(
                    *b, PLUS
                ) and signed_t2_coefficient(*a, MINUS) == signed_t2_coefficient(
                    *b, MINUS
                )
                assert same_data == (a == b)


# ---------------------------------------------------------------------------
# discriminate against the full-series scan it replaced
# ---------------------------------------------------------------------------

REFERENCE_ORDER = 8


def _diagonal_germ(nvars: int, plus: int, minus: int) -> PolynomialGerm:
    terms = {}
    for i in range(plus + minus):
        exps = tuple(2 if j == i else 0 for j in range(nvars))
        terms[exps] = Fraction(1 if i < plus else -1)
    return PolynomialGerm(nvars, terms)


def _reference_series(nvars: int, plus: int, minus: int) -> dict:
    """The naive, plus and minus series of the quadratic part, by stratification."""
    if plus + minus == 0:
        return {sel: TruncatedSeries(REFERENCE_ORDER) for sel in (NAIVE, PLUS, MINUS)}
    quad = QuadraticGerm(dim=nvars, plus=plus, minus=minus)
    return {sel: zeta_series(quad, sel, REFERENCE_ORDER) for sel in (NAIVE, PLUS, MINUS)}


def _reference_scan(series_f: dict, series_g: dict, order: int):
    """The six-series scan: earliest n wins, selectors tie-break naive, plus, minus."""
    for n in range(1, order + 1):
        for selector in (NAIVE, PLUS, MINUS):
            if series_f[selector].coefficient(n) != series_g[selector].coefficient(n):
                return True, selector, n
    return False, None, None


def test_discriminate_matches_the_full_series_scan():
    cases = 0
    for nvars in range(1, 6):
        signatures = [(p, m) for p in range(nvars + 1) for m in range(nvars + 1 - p)]
        germs = {sig: _diagonal_germ(nvars, *sig) for sig in signatures}
        series = {sig: _reference_series(nvars, *sig) for sig in signatures}
        for a in signatures:
            for b in signatures:
                for order in range(1, REFERENCE_ORDER + 1):
                    result = discriminate(germs[a], germs[b], order)
                    expected = _reference_scan(series[a], series[b], order)
                    got = (result.distinguished, result.selector, result.n)
                    assert got == expected, (nvars, a, b, order)
                    cases += 1
    assert cases == 6488


def test_discriminate_builds_no_series(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("discriminate built a zeta series")

    monkeypatch.setattr(arcspace, "stratify_series", forbidden)
    monkeypatch.setattr(arcspace, "zeta_series", forbidden)
    f = parse_germ("x1^2 + x2^2 - x3^2 + x1^3")
    g = parse_germ("x1^2 - x2^2 - x3^2")
    result = discriminate(f, g, 80)
    assert (result.distinguished, result.selector, result.n) == (True, PLUS, 2)
    assert result.conditional
    assert not discriminate(f, f, 10**6).distinguished


def test_germ_module_depends_on_arcspace_only_for_the_t2_forms():
    assert not hasattr(germ_module, "zeta_series")
    assert not hasattr(germ_module, "QuadraticGerm")
    assert not hasattr(germ_module, "TruncatedSeries")
