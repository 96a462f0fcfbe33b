import json
import random
import sys
from fractions import Fraction

import pytest

from arczeta import ONE, ZERO, LaurentPolynomial, TruncatedSeries, U, geometric_sum
from arczeta.errors import ResultTooLarge, ZeroPolynomial
from util import random_laurent


def test_arithmetic_examples():
    assert (U - 1) * (U + 1) == LaurentPolynomial({2: 1, 0: -1})
    p = LaurentPolynomial({3: 1, 2: 1, 1: -1})
    assert p + ZERO == p
    assert LaurentPolynomial({-1: 1, -2: 1}) * LaurentPolynomial.monomial(2) == U + 1


def test_canonical_form_prunes_zeros():
    p = LaurentPolynomial({2: 1}) - LaurentPolynomial({2: 1})
    assert p.terms() == {}
    assert p.is_zero()
    assert LaurentPolynomial({3: 0, 1: 2}).terms() == {1: 2}


def test_factor_monomial_examples():
    assert LaurentPolynomial({5: 1, 4: 1}).factor_monomial() == (4, U + 1)
    assert LaurentPolynomial({-1: 1, -2: -1}).factor_monomial() == (-2, U - 1)
    assert LaurentPolynomial({0: 2}).factor_monomial() == (0, 2)
    with pytest.raises(ZeroPolynomial):
        ZERO.factor_monomial()


def test_factor_monomial_round_trip():
    rng = random.Random(101)
    found = 0
    while found < 200:
        p = random_laurent(rng)
        if p.is_zero():
            continue
        found += 1
        shift, reduced = p.factor_monomial()
        assert LaurentPolynomial.monomial(shift) * reduced == p
        assert reduced.terms().get(0, 0) != 0


def test_ring_axioms_randomized():
    rng = random.Random(2024)
    for _ in range(300):
        a, b, c = (random_laurent(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == ZERO
        assert a * ONE == a
        assert a + 0 == a


def test_coefficients_are_arbitrary_precision():
    import math

    power = (ONE + U) ** 64
    assert power.terms()[32] == math.comb(64, 32)  # far beyond 64 bits
    assert sum(power.terms().values()) == 2**64


def test_integer_interop():
    assert LaurentPolynomial({0: 5}) == 5
    assert U - 1 == U + (-1)
    assert 2 * U == LaurentPolynomial({1: 2})
    assert geometric_sum(3) == ONE + U + LaurentPolynomial.monomial(2)
    assert geometric_sum(0).is_zero()


def test_text_rendering():
    assert LaurentPolynomial({5: 1, 4: 1}).to_text() == "u^5 + u^4"
    assert LaurentPolynomial({-1: 2}).to_text() == "2*u^-1"
    assert LaurentPolynomial({3: 1, 2: 1, 1: -1}).to_text() == "u^3 + u^2 - u"
    assert ZERO.to_text() == "0"
    assert LaurentPolynomial({0: -3, 1: 1}).to_text() == "u - 3"


def test_json_round_trip():
    rng = random.Random(8)
    for _ in range(200):
        p = random_laurent(rng)
        data = p.to_json()
        assert data == sorted(data)
        assert LaurentPolynomial.from_json(data) == p


def test_json_text_is_the_dumped_json():
    rng = random.Random(9)
    cases = [
        ZERO,
        LaurentPolynomial({0: -1}),
        LaurentPolynomial({-3: -12, -1: 5, 0: 1, 4: -1}),
        LaurentPolynomial({-40: 10**30, 2: -(10**30)}),
    ] + [random_laurent(rng) for _ in range(100)]
    for p in cases:
        assert p.json_text() == json.dumps(p.to_json())


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
def test_json_text_refuses_a_coefficient_over_the_digit_limit_as_to_json_does():
    p = LaurentPolynomial({-1: 3, 2: -(10 ** sys.get_int_max_str_digits())})
    for render in (p.to_json, p.json_text):
        with pytest.raises(ResultTooLarge):
            render()


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
@pytest.mark.parametrize("sign", [1, -1])
def test_every_renderer_refuses_an_exponent_over_the_digit_limit(sign):
    p = LaurentPolynomial({0: 1, sign * 10 ** sys.get_int_max_str_digits(): 2})
    for render in (p.to_text, p.to_json, p.json_text):
        with pytest.raises(ResultTooLarge):
            render()


def test_json_reads_integer_and_decimal_string_coefficients():
    expected = LaurentPolynomial({0: 1, -1: -1})
    assert LaurentPolynomial.from_json([[0, "1"], [-1, "-1"]]) == expected
    assert LaurentPolynomial.from_json([[0, 1], [-1, -1]]) == expected
    assert LaurentPolynomial.from_json([[0, 2], [0, "-1"], [-1, "-1"]]) == expected


@pytest.mark.parametrize(
    "data, detail",
    [
        ([[0, 1.9], [-1, -1.5]], "coefficient must be an integer, got 1.9"),
        ([[0, 2.0]], "coefficient must be an integer, got 2.0"),
        ([[0, True], [-1, "-1"]], "coefficient must be an integer, got True"),
        ([[0, False]], "coefficient must be an integer, got False"),
        ([[True, "1"]], "exponent must be an integer, got True"),
        ([[1.0, "1"]], "exponent must be an integer, got 1.0"),
        # int()'s own message, which the command line reports as it is
        ([[0, "x"]], "invalid literal for int() with base 10: 'x'"),
        ([[0, "1.5"]], "invalid literal for int() with base 10: '1.5'"),
        ([[0, float("nan")]], "cannot convert float NaN to integer"),
        # strings int() reads that are not -?[0-9]+ in ASCII, as germ JSON refuses them
        ([[0, " 1_0"], [-1, "-1"]], "coefficient must be an integer, got ' 1_0'"),
        ([[0, "١"]], "coefficient must be an integer, got '١'"),
        ([[0, "+1"]], "coefficient must be an integer, got '+1'"),
        ([[0, "1 "]], "coefficient must be an integer, got '1 '"),
        ([[0, "-１"]], "coefficient must be an integer, got '-１'"),
    ],
)
def test_json_refuses_coefficients_it_would_truncate(data, detail):
    with pytest.raises(ValueError) as caught:
        LaurentPolynomial.from_json(data)
    assert str(caught.value) == detail


def test_series_never_beyond_order():
    series = TruncatedSeries(3, {1: U, 2: ONE, 3: ONE})
    with pytest.raises(ValueError):
        TruncatedSeries(3, {4: ONE})
    with pytest.raises(ValueError):
        series.coefficient(4)


def test_series_refuses_a_bool_order_or_index():
    with pytest.raises(ValueError, match="truncation order"):
        TruncatedSeries(True)
    with pytest.raises(ValueError, match="series index True outside 1..3"):
        TruncatedSeries(3, {True: ONE})


# ---------------------------------------------------------------------------
# single-term fast paths, against the generic double loop
# ---------------------------------------------------------------------------


def _generic_product(a, b):
    """The term-by-term product through the validating constructor."""
    product = {}
    for e1, c1 in a.terms().items():
        for e2, c2 in b.terms().items():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    return LaurentPolynomial(product)


def _random_monomial(rng):
    coefficient = rng.choice([1, -1, rng.randint(-9, 9) or 2, rng.randint(-10**30, 10**30) or 3])
    return LaurentPolynomial.monomial(rng.randint(-12, 12), coefficient)


def test_monomial_with_zero_coefficient_is_zero():
    for exponent in (-3, 0, 5):
        zero = LaurentPolynomial.monomial(exponent, 0)
        assert zero == ZERO
        assert zero.terms() == {} and zero.is_zero()
        assert hash(zero) == hash(ZERO)


@pytest.mark.parametrize("args", [(1.0,), (1, 2.0), ("1",), (None,), (0, Fraction(1))])
def test_monomial_rejects_non_integers(args):
    with pytest.raises(TypeError):
        LaurentPolynomial.monomial(*args)


def test_monomial_products_match_the_generic_product():
    rng = random.Random(20261018)
    for _ in range(400):
        mono = _random_monomial(rng)
        poly = random_laurent(rng, max_terms=8)
        expected = _generic_product(mono, poly)
        assert mono * poly == expected
        assert poly * mono == expected
        assert (mono * poly).terms() == expected.terms()
        assert mono * mono == _generic_product(mono, mono)


def test_integer_factors_match_the_generic_product():
    rng = random.Random(77)
    for _ in range(100):
        poly = random_laurent(rng)
        scale = rng.randint(-5, 5)
        expected = _generic_product(LaurentPolynomial({0: scale}), poly)
        assert poly * scale == expected
        assert scale * poly == expected


def test_powers_match_repeated_generic_products():
    rng = random.Random(5150)
    for _ in range(60):
        for base in (_random_monomial(rng), random_laurent(rng, max_terms=4)):
            expected = ONE
            for n in range(6):
                assert base**n == expected
                assert (base**n).terms() == expected.terms()
                expected = _generic_product(expected, base)
    assert ZERO**0 == ONE
    assert ZERO**3 == ZERO


# ---------------------------------------------------------------------------
# trusted results: the validating constructors see outside input only
# ---------------------------------------------------------------------------


def _refuse(self, *args, **kwargs):
    raise AssertionError("validating constructor called for an arithmetic result")


def _validated(pairs):
    """The polynomial of the (exponent, coefficient) pairs, through __init__."""
    return LaurentPolynomial(list(pairs))


def test_arithmetic_results_skip_the_validating_constructors(monkeypatch):
    rng = random.Random(606)
    pairs = [(random_laurent(rng, 8), random_laurent(rng, 8)) for _ in range(60)]
    pairs += [(_random_monomial(rng), random_laurent(rng, 8)) for _ in range(20)]
    pairs += [(LaurentPolynomial({3: 2, -1: 1}), LaurentPolynomial({3: -2, -1: -1}))]

    monkeypatch.setattr(LaurentPolynomial, "__init__", _refuse)
    laurent = [
        (a + b, a - b, a * b, -a, a**3, 2 * a - 1, a.factor_monomial() if a else None)
        for a, b in pairs
    ]
    sums = [geometric_sum(length) for length in range(6)]
    monkeypatch.undo()

    for (a, b), (add, sub, mul, neg, cube, affine, factored) in zip(pairs, laurent):
        ta, tb = a.terms().items(), b.terms().items()
        assert add == _validated([*ta, *tb])
        assert sub == _validated([*ta, *((e, -c) for e, c in tb)])
        assert mul == _generic_product(a, b)
        assert neg == _validated((e, -c) for e, c in ta)
        assert cube == _generic_product(_generic_product(a, a), a)
        assert affine == _validated([*((e, 2 * c) for e, c in ta), (0, -1)])
        if factored is not None:
            shift = min(a.terms())
            assert factored == (shift, _validated((e - shift, c) for e, c in ta))
        for result in (add, sub, mul, neg, cube, affine):
            assert 0 not in result.terms().values()
    for length, value in enumerate(sums):
        assert value == _validated((k, 1) for k in range(length))
