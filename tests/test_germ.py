import copy
import json
import pickle
import random
import subprocess
import sys
from dataclasses import make_dataclass
from fractions import Fraction
from math import gcd

import pytest

from arczeta import (
    SELECTORS,
    ArcStratumReport,
    DiscriminationResult,
    Inertia,
    NaiveRecovery,
    PolynomialGerm,
    QuadraticGerm,
    charpoly_inertia,
    congruence_inertia,
    discriminate,
    hessian_inertia,
    naive_t2_coefficient,
    parse_germ,
    recover_minmax,
    split_jet,
    stratify_series,
    verify_split,
)
from arczeta import germ as germs, selfcheck
from arczeta._record import Record
from arczeta.errors import (
    GermSyntaxError,
    InvalidGerm,
    InvariantViolation,
    NotAGerm,
    NotSingularAtOrigin,
)
from arczeta.germ import (
    SplitResult,
    _absorb,
    _charpoly,
    _integer_symmetric,
    _linear_rank,
    _require_singular,
    _square_root_part,
)
from util import (
    NAMED,
    assert_dataclass_semantics,
    composed_degree,
    congruence_diagonalize,
    coordinates,
    faddeev_leverrier,
    hessian_block,
    linear_change,
    linear_rank,
    quadratic_form,
    random_invertible,
    random_singular_germ,
    random_symmetric,
    ring_composed,
    ring_coordinate,
    ring_product,
    ring_scaled,
    ring_sum,
    ring_truncated,
)


# longer than CPython's default int/str digit limit (4,300)
LONG = "7" * 5000


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_simple_quadratic():
    f = parse_germ("x1^2 - x2^2")
    assert f.nvars == 2
    assert f.terms() == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}


def test_parse_rational_coefficients():
    f = parse_germ("3/2*x1^2*x2 + x3")
    assert f.nvars == 3
    assert f.terms() == {(2, 1, 0): Fraction(3, 2), (0, 0, 1): Fraction(1)}


def test_parse_error_positions():
    with pytest.raises(GermSyntaxError) as info:
        parse_germ("x1^")
    assert info.value.offset == 3
    assert "offset 3" in str(info.value)
    with pytest.raises(GermSyntaxError):
        parse_germ("x1 +")
    with pytest.raises(GermSyntaxError):
        parse_germ("")
    with pytest.raises(GermSyntaxError):
        parse_germ("x0^2")
    with pytest.raises(GermSyntaxError):
        parse_germ("x1^0")
    with pytest.raises(GermSyntaxError):
        parse_germ("1/0*x1")
    with pytest.raises(GermSyntaxError):
        parse_germ("x1*3")
    with pytest.raises(GermSyntaxError):
        parse_germ("2 x1")


@pytest.mark.parametrize(
    "text, offset",
    [
        ("x1^\u00b2", 3),  # superscript two
        ("x\u00b2^2", 1),
        ("\uff12*x1^2", 0),  # fullwidth two
        ("x1^2 + \u0663*x1^3", 7),  # Arabic-Indic three
        ("x1^2 + 3/\u00b2*x1^3", 9),
    ],
    ids=["superscript-exponent", "superscript-index", "fullwidth", "arabic-indic", "denominator"],
)
def test_parse_takes_ascii_digits_only(text, offset):
    with pytest.raises(GermSyntaxError) as info:
        parse_germ(text)
    assert info.value.offset == offset


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
@pytest.mark.parametrize(
    "text, offset",
    [
        (LONG + "*x1^2", 0),
        ("x1^2 + 1/" + LONG + "*x1^3", 9),
        ("x1^" + LONG, 3),
        ("x" + LONG + "^2", 1),
    ],
    ids=["coefficient", "denominator", "exponent", "index"],
)
def test_parse_reports_an_over_long_number_at_its_offset(text, offset):
    with pytest.raises(GermSyntaxError) as info:
        parse_germ(text)
    assert info.value.offset == offset
    assert "too many digits" in str(info.value)


def test_parse_rejects_constant_terms():
    with pytest.raises(NotAGerm):
        parse_germ("x1^2 + 1")
    with pytest.raises(NotAGerm):
        parse_germ("5")


def test_parse_combines_repeated_monomials():
    assert parse_germ("x1*x1 + x1^2") == parse_germ("2*x1^2")
    assert parse_germ("x1 - x1 + x2^2") == parse_germ("x2^2", nvars=2)


def test_parse_dim_override():
    f = parse_germ("x1^2", nvars=3)
    assert f.nvars == 3
    with pytest.raises(InvalidGerm):
        parse_germ("x3^2", nvars=2)
    # germ JSON states its own count, which a given nvars must equal
    text = '{"nvars": 2, "terms": [[[2, 0], "1"]]}'
    assert parse_germ(text, nvars=2) == parse_germ(text) == parse_germ("x1^2", nvars=2)
    for nvars in (1, 3):
        with pytest.raises(InvalidGerm, match=f"declared {nvars} variable"):
            parse_germ(text, nvars=nvars)


def test_parse_whitespace_insensitive():
    assert parse_germ(" x1 ^ 2 - 3 / 2 * x2 ^ 2 ") == parse_germ("x1^2-3/2*x2^2")


def test_germ_json_round_trip():
    rng = random.Random(321)
    for _ in range(50):
        f = random_singular_germ(rng, rng.randint(1, 4))
        assert PolynomialGerm.from_json(f.to_json()) == f
        assert f.is_zero() or parse_germ(f.to_text(), nvars=f.nvars) == f
    f = parse_germ('{"nvars": 2, "terms": [[[2, 0], "1"], [[0, 2], "-3/2"]]}')
    assert f.terms() == {(2, 0): Fraction(1), (0, 2): Fraction(-3, 2)}


@pytest.mark.parametrize(
    "text, detail",
    [
        ('{"nvars": 2, "terms": [[[true, 1], "1"]]}', "bad exponent vector (True, 1)"),
        ('{"nvars": 2, "terms": [[[2, false], "1"]]}', "bad exponent vector (2, False)"),
        ('{"nvars": true, "terms": [[[2], "1"]]}', "nvars must be a positive integer, got True"),
        # a boolean vector equal to an earlier one is still refused, not merged into it
        ('{"nvars": 2, "terms": [[[1, 1], "1"], [[true, 1], "1"]]}', "(True, 1)"),
        ('{"nvars": 1, "terms": [[[2], 1], [[0], 1], [[false], -1]]}', "(False,)"),
    ],
)
def test_germ_json_refuses_booleans_as_integers(text, detail):
    with pytest.raises(InvalidGerm) as info:
        parse_germ(text)
    assert detail in str(info.value)
    with pytest.raises(ValueError, match="bad exponent vector|nvars must"):
        PolynomialGerm.from_json(json.loads(text))


def _random_term_list(rng):
    """(nvars, [(exps, num, den)]): unreduced fractions, like terms that merge or
    cancel, sometimes a constant term, and some 40-digit numbers."""
    nvars = rng.randint(1, 5)
    monomials = [
        tuple(rng.choice([0, 0, 1, 2, 3]) for _ in range(nvars)) for _ in range(rng.randint(1, 5))
    ]
    monomials = [exps for exps in monomials if any(exps)] or [(2,) + (0,) * (nvars - 1)]
    entries = []
    for _ in range(rng.randint(1, 8)):
        factor = rng.randint(1, 4)  # 4/6-style unreduced fractions
        num, den = rng.randint(-9, 9) * factor, rng.randint(1, 6) * factor
        if rng.random() < 0.15:
            num, den = rng.randrange(10**39, 10**40) * rng.choice([-1, 1]), rng.randrange(1, 10**40)
        entries.append((rng.choice(monomials), num, den))
        if rng.random() < 0.3:  # a like term that cancels the last one
            entries.append((entries[-1][0], -num, den))
    if rng.random() < 0.3:  # a constant term, which cancels half the time
        num, den = rng.randint(1, 9), rng.randint(1, 3)
        place = rng.randint(0, len(entries))
        entries[place:place] = [((0,) * nvars, num, den)]
        if rng.random() < 0.5:
            entries.append(((0,) * nvars, -num, den))
    return nvars, entries


def _term_text(exps, num, den):
    factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e]
    return "*".join([f"{abs(num)}/{den}"] + factors)


def test_text_json_and_constructor_read_a_term_list_alike():
    rng = random.Random(3601)
    fixed = [
        (1, [((0,), 1, 1), ((0,), -1, 1), ((2,), 1, 1)]),  # 1 - 1 + x1^2: the constant cancels
        (2, [((1, 1), 4, 6), ((0, 0), 3, 4), ((2, 0), -1, 1)]),  # 3/4 survives
        (2, [((2, 0), 1, 2), ((2, 0), 1, 3), ((0, 2), 1, 2), ((0, 2), -1, 2)]),
    ]
    cases = fixed + [_random_term_list(rng) for _ in range(300)]
    constants = cancelled = 0
    for nvars, entries in cases:
        text = " ".join(
            f"{'-' if num < 0 else '+'} {_term_text(exps, num, den)}" for exps, num, den in entries
        )
        data = {
            "nvars": nvars,
            "terms": [
                [list(exps), num if den == 1 else f"{num}/{den}"] for exps, num, den in entries
            ],
        }
        readers = [
            lambda: parse_germ(text, nvars),
            lambda: parse_germ(json.dumps(data)),
            lambda: PolynomialGerm(nvars, [(exps, Fraction(num, den)) for exps, num, den in entries]),
        ]
        constant = sum(Fraction(num, den) for exps, num, den in entries if not any(exps))
        if constant:
            constants += 1
            for read in readers:
                with pytest.raises(NotAGerm) as info:
                    read()
                assert str(info.value) == f"nonzero constant term {constant}"
            continue
        germs_read = [read() for read in readers]
        sums = {}
        for exps, num, den in entries:
            sums[exps] = sums.get(exps, 0) + Fraction(num, den)
        cancelled += any(not c for c in sums.values())
        expected = {exps: c for exps, c in sums.items() if c and any(exps)}
        for germ in germs_read:
            assert germ == germs_read[0] and germ.terms() == expected, text
            assert germ.to_json() == germs_read[0].to_json()
    assert constants > 20 and cancelled > 50


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


# 6 is deg f times the largest component degree: the composition in full
@pytest.mark.parametrize("max_degree", [4, 6])
def test_substitution_refuses_another_variable_count(max_degree):
    germ = parse_germ("x1^2 - x2^3")
    other = parse_germ("x1 + x3^2")
    x1, x2 = coordinates(2)
    with pytest.raises(ValueError, match="different variable counts"):
        germ.substitute([other, x2], max_degree)
    with pytest.raises(ValueError, match="different variable counts"):
        germ.substitute([x1, other], max_degree)
    # a component the germ does not use is still checked
    with pytest.raises(ValueError, match="different variable counts"):
        parse_germ("x1^2", nvars=2).substitute([x1, other], max_degree)
    with pytest.raises(ValueError, match="one replacement polynomial per variable"):
        germ.substitute([x1], max_degree)


def test_partial_substitution_is_exact_at_max_degree():
    # a change that moves x1 alone: its other component is a coordinate
    germ = parse_germ("x1 + x2^2")
    change = [parse_germ("x1 + x1^5", nvars=2), coordinates(2)[1]]
    assert germ.substitute(change, 3) == germ
    assert composed_degree(germ, change) == 10
    assert germ.substitute(change, 10) == parse_germ("x1 + x2^2 + x1^5")
    assert germ.substitute(coordinates(2), 1) == parse_germ("x1", nvars=2)


def test_arithmetic_results_skip_the_validating_constructor(monkeypatch):
    rng = random.Random(5)
    f, g = random_singular_germ(rng, 3), random_singular_germ(rng, 3)
    change = linear_change(random_invertible(rng, 3), 3)
    x1, x2, x3 = coordinates(3)
    products = parse_germ("x1*x2 + x3^3")
    split_germs = [parse_germ(text) for text in ("x1^2 + 2*x1*x2^2", "x1*x2 + x2^3")]
    split_germs += [random_singular_germ(rng, rng.randint(2, 4), 5) for _ in range(6)]
    splits = [(germ, jet, split_jet(germ, jet).to_json()) for germ in split_germs for jet in (3, 6)]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"validating constructor called with {args}")

    monkeypatch.setattr(PolynomialGerm, "__init__", refuse)
    results = [
        f + g, f - g, -f, f - f, products.substitute([f, g, x3], 4),
        products.substitute([f, g, f], 12),
        f.substitute(change, composed_degree(f, change)), f.substitute(change, 4),
        f.substitute([x1, g, x3], 4), f.substitute([g, x2, f], 5),
    ]
    assert (f - f).is_zero()
    for result in results:
        assert 0 not in result.terms().values()
        assert all(len(exps) == 3 and sum(exps) > 0 for exps in result.terms())
    for germ, jet, expected in splits:
        result = split_jet(germ, jet)
        assert result.to_json() == expected and verify_split(germ, result)


# ---------------------------------------------------------------------------
# inertia
# ---------------------------------------------------------------------------


def test_germs_copy_and_pickle_to_equal_germs():
    rng = random.Random(31)
    samples = [random_singular_germ(rng, rng.randint(1, 4)) for _ in range(20)]
    samples.append(PolynomialGerm(3))
    for germ in samples:
        for twin in (copy.copy(germ), copy.deepcopy(germ), pickle.loads(pickle.dumps(germ))):
            assert twin == germ and twin.to_json() == germ.to_json()
            with pytest.raises(AttributeError):
                twin.nvars = 1
    result = split_jet(samples[0], 4)
    assert pickle.loads(pickle.dumps(result)) == result and copy.deepcopy(result) == result


def test_inertia_examples():
    assert hessian_inertia(parse_germ("x1*x2")) == Inertia(plus=1, minus=1, corank=0)
    assert hessian_inertia(parse_germ("x1^2 + 4*x1*x2 + x2^2")) == Inertia(
        plus=1, minus=1, corank=0
    )
    assert hessian_inertia(parse_germ("x1^2 + x2^2 - x3^2 + x4^3")) == Inertia(
        plus=2, minus=1, corank=1
    )
    inertia = hessian_inertia(parse_germ("x1^2 + x2^2 - x3^2 + x4^3"))
    assert inertia.rank == 3 and inertia.index == 1


def test_inertia_requires_singular_germ():
    with pytest.raises(NotSingularAtOrigin):
        hessian_inertia(parse_germ("x1 + x2^2"))


def test_congruence_example():
    # pivots 2 and -6 for the form x^2 + 4xy + y^2
    matrix = [[Fraction(2), Fraction(4)], [Fraction(4), Fraction(2)]]
    P, diag = congruence_diagonalize(matrix)
    assert diag == [Fraction(2), Fraction(-6)]
    # P^T H P reproduces the diagonal
    n = 2
    check = [
        [
            sum(P[a][i] * matrix[a][b] * P[b][j] for a in range(n) for b in range(n))
            for j in range(n)
        ]
        for i in range(n)
    ]
    assert check == [[diag[0], 0], [0, diag[1]]]


def test_congruence_matches_charpoly_oracle():
    rng = random.Random(777)
    for _ in range(250):
        size = rng.randint(1, 8)
        matrix = random_symmetric(rng, size)
        inertia = split_jet(quadratic_form(matrix), 3).inertia
        counted = (inertia.plus, inertia.minus)
        assert counted == charpoly_inertia(matrix) == congruence_inertia(matrix)


def test_newton_charpoly_equals_the_faddeev_leverrier_reference():
    # the 300 matrices of selfcheck's inertia grid, drawn as the grid draws them
    rng = random.Random(20260809)
    matrices = [random_symmetric(rng, rng.randint(1, 8)) for _ in range(300)]
    # int matrices up to size 16, and sums of at most size - 1 signed squares
    # of linear forms, whose rank is below their size
    rng = random.Random(3808)
    deficient = []
    for size in range(1, 17):
        for _ in range(3):
            upper = [[rng.randint(-9, 9) for _ in range(size)] for _ in range(size)]
            matrices.append(
                [[upper[min(i, j)][max(i, j)] for j in range(size)] for i in range(size)]
            )
            forms = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(rng.randrange(size))]
            signs = [rng.choice((-1, 1)) for _ in forms]
            deficient.append([
                [sum(d * f[i] * f[j] for d, f in zip(signs, forms)) for j in range(size)]
                for i in range(size)
            ])
    for matrix in matrices + deficient:
        A = _integer_symmetric(matrix)
        assert _charpoly(A) == faddeev_leverrier(A), matrix
    for matrix in deficient:
        assert _charpoly(matrix)[-1] == 0  # a singular matrix has a root at 0


@pytest.mark.parametrize("route", [congruence_inertia, charpoly_inertia])
def test_inertia_routes_refuse_a_matrix_that_is_not_square_symmetric(route):
    with pytest.raises(ValueError, match="must be square"):
        route([[1, 2]])
    with pytest.raises(ValueError, match="must be square"):
        route([[1, 2], [2]])
    with pytest.raises(ValueError, match="must be symmetric"):
        route([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="must be symmetric"):
        route([[0, Fraction(1, 2)], [Fraction(1, 3), 0]])


def test_integer_congruence_takes_the_entry_types_rational_congruence_takes():
    matrix = [[1, "1/2", 0.5], ["1/2", Fraction(-3), 0], [0.5, 0, True]]
    inertia = split_jet(quadratic_form(matrix), 3).inertia
    counted = (inertia.plus, inertia.minus)
    assert congruence_inertia(matrix) == counted == charpoly_inertia(matrix)


def test_hessian_inertia_and_the_inertia_grid_run_no_rational_elimination(monkeypatch):
    def refuse(*args):
        raise AssertionError("split_jet's rational elimination called")

    monkeypatch.setattr(germs, "_diagonalize", refuse)
    monkeypatch.setattr(germs, "_absorb", refuse)
    assert hessian_inertia(parse_germ("x1*x2 + x3^2 - x4^3")) == Inertia(2, 1, 1)
    verdicts = [ok for _, ok in selfcheck._inertia_two_paths(12)]
    assert len(verdicts) == 300 and all(verdicts)


def _spread(terms, slots, dim):
    """The germ of a term map in dim variables: variable i moves to slots[i]."""
    spread = {}
    for exps, coeff in terms.items():
        moved = [0] * dim
        for slot, e in zip(slots, exps):
            moved[slot] = e
        spread[tuple(moved)] = coeff
    return PolynomialGerm(dim, spread)


def test_inertia_at_a_larger_dim_adds_only_corank():
    # hessian_inertia runs on the block of the variables in degree-2 terms;
    # the reference is the congruence on the whole Hessian at the germ's own count
    rng = random.Random(2750)
    wide = 0
    for index in range(60):
        nvars = rng.randint(1, 5)
        germ = random_singular_germ(rng, nvars, rng.randint(2, 4))
        plus, minus = congruence_inertia(hessian_block(germ, range(nvars)))
        for dim in (nvars, nvars + rng.randint(1, 30), 3000 if index % 12 == 0 else 200):
            inertia = hessian_inertia(_spread(germ.terms(), rng.sample(range(dim), nvars), dim))
            assert inertia == Inertia(plus=plus, minus=minus, corank=dim - plus - minus)
            wide += dim == 3000
    assert wide == 5


def test_hessian_inertia_reads_half_integer_hessians_without_a_rational_matrix(monkeypatch):
    # the reference: charpoly_inertia of the Fraction Hessian of the used
    # variables; quadratic coefficients c = odd/2, so 2c is integral and c is not
    rng = random.Random(3602)
    cases = [(parse_germ("x3^3 - x1*x2*x5", 40), Inertia(0, 0, 40))]
    for _ in range(80):
        dim = rng.randint(1, 200)
        used = rng.sample(range(dim), rng.randint(1, min(dim, 7)))
        terms = {}
        for a in used:
            for b in used:
                if a <= b and rng.random() < 0.6:
                    exps = tuple((k == a) + (k == b) for k in range(dim))
                    terms[exps] = Fraction(rng.choice([-5, -3, -1, 1, 3, 5, 7]), 2)
        cubic = tuple(3 * (k == used[0]) for k in range(dim))
        terms[cubic] = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        germ = PolynomialGerm(dim, terms)
        plus, minus = charpoly_inertia(hessian_block(germ, sorted(used)))
        cases.append((germ, Inertia(plus=plus, minus=minus, corank=dim - plus - minus)))

    def refuse(*args):
        raise AssertionError("hessian_inertia built a matrix for _integer_symmetric")

    monkeypatch.setattr(germs, "_integer_symmetric", refuse)
    for germ, expected in cases:
        assert hessian_inertia(germ) == expected, germ.to_text()


def test_inertia_invariant_under_linear_changes():
    rng = random.Random(888)
    for _ in range(60):
        nvars = rng.randint(1, 4)
        f = random_singular_germ(rng, nvars)
        reference = hessian_inertia(f)
        change = linear_change(random_invertible(rng, nvars), nvars)
        transformed = f.substitute(change, composed_degree(f, change))
        assert hessian_inertia(transformed) == reference


# ---------------------------------------------------------------------------
# splitting
# ---------------------------------------------------------------------------


def test_split_absorbs_mixed_quartic():
    result = split_jet(parse_germ("x1^2 + 2*x1*x2^2"), 4)
    assert [c.to_text() for c in result.change] == ["x1 - x2^2", "x2"]
    assert result.quadratic_part == parse_germ("x1^2", nvars=2)
    assert result.remainder == parse_germ("0 - x2^4")
    assert result.inertia == Inertia(plus=1, minus=0, corank=1)


def test_split_identity_when_already_split():
    result = split_jet(parse_germ("x1^2 - x2^2 + x3^3"), 3)
    assert [c.to_text() for c in result.change] == ["x1", "x2", "x3"]
    assert result.quadratic_part == parse_germ("x1^2 - x2^2", nvars=3)
    assert result.remainder == parse_germ("x3^3")


def test_split_truncates_beyond_jet():
    result = split_jet(parse_germ("x1^2 + x1*x3^3"), 5)
    assert [c.to_text() for c in result.change] == ["x1 - 1/2*x3^3", "x2", "x3"]
    assert result.quadratic_part == parse_germ("x1^2", nvars=3)
    assert result.remainder.is_zero()


def test_split_requires_singular_and_jet_order():
    with pytest.raises(NotSingularAtOrigin):
        split_jet(parse_germ("x1 + x2^2"), 3)
    with pytest.raises(ValueError):
        split_jet(parse_germ("x1^2"), 2)


def _assert_split_invariants(germ, jet_order):
    result = split_jet(germ, jet_order)
    # the shape, the rank and the residual: by the oracle's full re-expansion,
    # and by the package's own check
    assert _verify_split_untruncated(germ, result)
    assert verify_split(germ, result)
    # the rational and the integer congruence routes agree
    assert result.inertia == hessian_inertia(germ)


def test_split_invariants_on_named_corpus():
    for text in ("x1^2 + 2*x1*x2^2", "x1^2 + x1*x3^3", "x1*x2 + x2^3"):
        for jet_order in range(3, 7):
            _assert_split_invariants(parse_germ(text), jet_order)


def test_split_invariants_on_random_corpus():
    rng = random.Random(4242)
    for index in range(60):
        germ = random_singular_germ(rng, rng.randint(1, 4))
        _assert_split_invariants(germ, 3 + index % 4)


@pytest.mark.parametrize("seed", range(8))
def test_split_inertia_is_the_hessian_inertia(seed):
    rng = random.Random(seed)
    for _ in range(25):
        germ = random_singular_germ(rng, rng.randint(1, 6), max_degree=3)
        assert split_jet(germ, 3).inertia == hessian_inertia(germ)


# The split of x1^2 with the signs of Stage 1's pivots flipped: the
# quadratic term then has the wrong sign for its slot.
_FLIPPED_SPLIT = """
import arczeta.germ as germs
from arczeta.cli import run
diagonalize = germs._diagonalize
def flipped(*args):
    return [(slot, lead and (-lead[0], lead[1])) for slot, lead in diagonalize(*args)]
germs._diagonalize = flipped
raise SystemExit(run(["split", "--poly", "x1^2", "--jet", "3", "--json"]))
"""


def test_split_invariant_checks_survive_optimized_mode():
    completed = subprocess.run(
        [sys.executable, "-O", "-c", _FLIPPED_SPLIT], capture_output=True, text=True
    )
    assert completed.returncode == 1 and completed.stderr == ""
    payload = json.loads(completed.stdout)
    assert payload["error"] == InvariantViolation.__name__
    assert "wrong sign" in payload["detail"]


def test_split_normalizes_square_factors():
    result = split_jet(parse_germ("4*x1^2 + x1*x2^2"), 4)
    assert result.quadratic_part == parse_germ("x1^2", nvars=2)
    result = split_jet(parse_germ("2*x1^2"), 3)
    assert result.quadratic_part == parse_germ("2*x1^2")


def test_split_zero_quadratic_part():
    germ = parse_germ("x1^3 + x1*x2^2")
    result = split_jet(germ, 4)
    assert result.inertia == Inertia(plus=0, minus=0, corank=2)
    assert result.quadratic_part.is_zero()
    assert result.remainder == germ


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _rank(*texts, nvars):
    return _linear_rank([parse_germ(text, nvars) for text in texts])


def test_linear_rank():
    assert _rank("x1", "x2", nvars=2) == 2
    # a permutation, with terms of higher degree, which the rank ignores
    assert _rank("x3 + x1^2", "x1", "x2 - x2*x3", nvars=3) == 3
    # a zero row: a zero component, or one with no linear term
    assert _linear_rank([coordinates(2)[0], PolynomialGerm(2, {})]) == 1
    assert _rank("x1 + x2", "x2^2", nvars=2) == 1
    # dependent nonzero rows; the third is the sum of the first two and
    # empties only after two eliminations
    assert _rank("x1 + x2", "2*x1 + 2*x2", nvars=2) == 1
    assert _rank("x1 + x2", "x2 + x3", "x1 + 2*x2 + x3", nvars=3) == 2
    # a row reduced past its first column, then kept at a later one
    assert _rank("x2 + x3", "1/2*x2 - 1/3*x3", "x1", nvars=3) == 3
    assert _linear_rank(coordinates(400)) == 400


def test_determinant():
    """A linear change is invertible (nonzero determinant) exactly where the
    rank pass gives full rank."""

    def rank(matrix):
        return _linear_rank(linear_change(matrix, len(matrix)))

    assert rank([[Fraction(2)]]) == 1
    assert rank([[Fraction(-3, 4)]]) == 1
    assert rank([[0]]) == 0
    assert rank([[1, 2], [3, 4]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    # a zero first pivot: the pass takes the pivot from a later row
    assert rank([[0, 1], [1, 0]]) == 2
    # determinant -44/15
    assert rank([[0, Fraction(1, 2), 3], [Fraction(2, 3), 1, 0], [1, 0, Fraction(-1, 5)]]) == 3
    rng = random.Random(5150)
    for _ in range(30):
        size = rng.randint(1, 5)
        assert rank(random_invertible(rng, size)) == size


def test_linear_part_extraction():
    change = split_jet(parse_germ("x1^2 + x2^2"), 3).change
    linear = [
        {exps: coeff for exps, coeff in component.terms().items() if sum(exps) == 1}
        for component in change
    ]
    assert linear == [{(1, 0): Fraction(1)}, {(0, 1): Fraction(1)}]
    assert _linear_rank(change) == 2


def _verify_split_untruncated(germ, result):
    """verify_split by a full re-expansion of f on the reference ring (the oracle).

    The shape rules are SplitResult's docstring read anew, on terms() alone,
    so that they share no code with the package's shape check.
    """
    nvars, jet, inertia = germ.nvars, result.jet_order, result.inertia
    if type(jet) is not int or jet < 3:
        return False
    parts = [result.quadratic_part, result.remainder, *result.change]
    if len(result.change) != nvars or {part.nvars for part in parts} != {nvars}:
        return False
    if not isinstance(inertia, Inertia):
        return False
    counts = (inertia.plus, inertia.minus, inertia.corank)
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in counts):
        return False
    if inertia.plus < 0 or inertia.minus < 0 or inertia.rank + inertia.corank != nvars:
        return False
    # Q is l_1 x_1^2 + ... + l_rank x_rank^2, each l_i nonzero, positive for i < plus
    squares = {tuple(2 if k == i else 0 for k in range(nvars)): i for i in range(inertia.rank)}
    quadratic = result.quadratic_part.terms()
    if set(quadratic) != set(squares):
        return False
    if any((coeff > 0) != (squares[exps] < inertia.plus) for exps, coeff in quadratic.items()):
        return False
    # F has order >= 3 and holds only the corank variables x_(rank+1), ...
    for exps in result.remainder.terms():
        if sum(exps) < 3 or any(exps[i] for i in range(inertia.rank)):
            return False
    if linear_rank(result.change) < nvars:
        return False
    composed = ring_composed(germ.terms(), [component.terms() for component in result.change])
    residual = ring_sum(
        composed,
        ring_scaled(result.quadratic_part.terms(), -1),
        ring_scaled(result.remainder.terms(), -1),
    )
    return all(sum(exps) > jet for exps in residual)


def _selfcheck_split_corpus():
    """The germs and jet orders of the selfcheck splitting residual grid."""
    for text in ("x1^2 + 2*x1*x2^2", "x1^2 + x1*x3^3", "x1*x2 + x2^3"):
        for jet_order in range(3, 7):
            yield parse_germ(text), jet_order
    rng = random.Random(14091961)
    for index in range(30):
        yield random_singular_germ(rng, rng.randint(1, 4)), 3 + index % 4


def _replaced(result, **fields):
    names = ("change", "quadratic_part", "remainder", "inertia", "jet_order")
    return SplitResult(**{**{name: getattr(result, name) for name in names}, **fields})


def _tampered(result):
    """Results that break or keep the invariants, below and above the jet order."""
    nv, jet = result.quadratic_part.nvars, result.jet_order

    def plus_monomial(germ, degree):
        # germ + x_nv^degree
        exps = tuple(degree if i == nv - 1 else 0 for i in range(nv))
        return PolynomialGerm(nv, ring_sum(germ.terms(), {exps: Fraction(1)}))

    first, *others = result.change
    yield _replaced(result, remainder=plus_monomial(result.remainder, 3))
    yield _replaced(result, remainder=plus_monomial(result.remainder, jet))
    yield _replaced(result, remainder=plus_monomial(result.remainder, jet + 1))
    doubled = PolynomialGerm(nv, ring_scaled(result.quadratic_part.terms(), 2))
    yield _replaced(result, quadratic_part=doubled)
    yield _replaced(result, change=(plus_monomial(first, 2), *others))
    yield _replaced(result, change=(plus_monomial(first, jet + 1), *others))
    yield from _misshapen(result)


def _misshapen(result):
    """Results that each break one rule of the split's shape, the residual kept
    at zero where the rule allows it."""
    nv, inertia = result.quadratic_part.nvars, result.inertia
    plus, minus, rank = inertia.plus, inertia.minus, inertia.rank
    quadratic, remainder = result.quadratic_part.terms(), result.remainder.terms()
    if rank and nv > 1:
        # compose with x_rank -> x_rank + x_(rank-1) or x_(rank+1): f(change) =
        # Q + F still holds to the jet, and Q gains a cross term
        other = rank - 2 if rank > 1 else rank
        shift = [ring_coordinate(nv, i) for i in range(nv)]
        shift[rank - 1] = ring_sum(shift[rank - 1], shift[other])
        yield _replaced(
            result,
            change=tuple(
                PolynomialGerm(nv, ring_composed(component.terms(), shift))
                for component in result.change
            ),
            quadratic_part=PolynomialGerm(nv, ring_composed(quadratic, shift)),
            remainder=PolynomialGerm(nv, ring_composed(remainder, shift)),
        )
    if plus != minus:
        yield _replaced(result, inertia=Inertia(plus=minus, minus=plus, corank=inertia.corank))
    # counts that compare equal to the right ones but are not ints
    yield _replaced(result, inertia=Inertia(plus=float(plus), minus=minus, corank=inertia.corank))
    yield _replaced(result, inertia=Inertia(plus=plus, minus=minus, corank=inertia.corank + 0.0))
    if rank:
        # the last square filed in F, its variable counted in the corank
        square = tuple(2 if i == rank - 1 else 0 for i in range(nv))
        fewer = (plus - 1, minus) if minus == 0 else (plus, minus - 1)
        yield _replaced(
            result,
            quadratic_part=PolynomialGerm(nv, {e: c for e, c in quadratic.items() if e != square}),
            remainder=PolynomialGerm(nv, ring_sum(remainder, {square: quadratic[square]})),
            inertia=Inertia(plus=fewer[0], minus=fewer[1], corank=inertia.corank + 1),
        )
    yield _replaced(result, jet_order=1)
    yield _replaced(result, jet_order=2)
    yield _replaced(result, change=result.change[:-1])
    yield _replaced(result, change=(*result.change, result.change[-1]))
    wider = [
        PolynomialGerm(nv + 1, {(*exps, 0): coeff for exps, coeff in component.terms().items()})
        for component in result.change
    ]
    yield _replaced(result, change=tuple(wider))


def test_verify_split_agrees_with_the_untruncated_oracle():
    verdicts = set()
    for number, (germ, jet_order) in enumerate(_selfcheck_split_corpus()):
        result = split_jet(germ, jet_order)
        assert verify_split(germ, result) and _verify_split_untruncated(germ, result)
        if number % 3:
            continue
        for tampered in _tampered(result):
            verdict = verify_split(germ, tampered)
            assert verdict == _verify_split_untruncated(germ, tampered), (
                germ.to_text(),
                jet_order,
            )
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_verify_split_refuses_a_singular_change():
    for components in (
        ("x1", None),  # a zero component
        ("x1", "x2 + x3", "2*x2 + 2*x3"),  # two dependent nonzero linear parts
        ("x1", "x2 + x3 + x2^2", "2*x2 + 2*x3 - x3^3"),  # the same, with higher terms
    ):
        nvars = len(components)
        germ = parse_germ("x1^2", nvars=nvars)
        zero = PolynomialGerm(nvars, {})
        change = tuple(zero if text is None else parse_germ(text, nvars) for text in components)
        result = SplitResult(
            change=change,
            quadratic_part=germ,
            remainder=zero,
            inertia=Inertia(plus=1, minus=0, corank=nvars - 1),
            jet_order=3,
        )
        # every other invariant holds: x1^2 composed with the change is Q, and F = 0
        assert germ.substitute(change, composed_degree(germ, change)) == result.quadratic_part
        assert linear_rank(change) == nvars - 1
        assert not verify_split(germ, result)
        assert not _verify_split_untruncated(germ, result)


def test_verify_split_refuses_every_misshapen_split():
    defects = []
    for germ, jet_order in _selfcheck_split_corpus():
        result = split_jet(germ, jet_order)
        for misshapen in _misshapen(result):
            assert not verify_split(germ, misshapen), (germ.to_text(), jet_order, misshapen)
            assert not _verify_split_untruncated(germ, misshapen)
            defects.append(germs._split_defect(germ.nvars, misshapen))
    # every rule is met somewhere in the corpus
    rules = ("jet order", "germs in", "not a rank square", "wrong sign", "remainder has order")
    for rule in rules:
        assert any(defect and rule in defect for defect in defects), rule


def test_verify_split_refuses_a_split_that_only_leaves_a_zero_residual():
    def split(poly, change, quadratic, remainder, inertia, jet_order=3):
        germ = parse_germ(poly)
        nvars = germ.nvars
        result = SplitResult(
            change=tuple(parse_germ(text, nvars) for text in change),
            quadratic_part=parse_germ(quadratic, nvars),
            remainder=parse_germ(remainder, nvars) if remainder else PolynomialGerm(nvars, {}),
            inertia=Inertia(*inertia),
            jet_order=jet_order,
        )
        # f(change(x)) is Q + F up to the jet, so only the shape is wrong
        composed = germ.substitute(result.change, jet_order)
        expected = ring_sum(result.quadratic_part.terms(), result.remainder.terms())
        assert composed.terms() == ring_truncated(expected, jet_order)
        return germ, result

    for germ, result in (
        split("x1*x2", ("x1", "x2"), "x1*x2", None, (1, 1, 0)),  # Q is not diagonal
        split("x1^2 - 2*x2^2", ("x1", "x2"), "x1^2 - 2*x2^2", None, (0, 2, 0)),
        split("x1^2 - 2*x2^2", ("x1", "x2"), "x1^2 - 2*x2^2", None, (2, 0, 0)),
        split("x1^2 - x2^2 + x2^3", ("x1", "x2"), "-x2^2", "x1^2 + x2^3", (0, 1, 1)),
        split("x1^2 - x2^2 + x2^3", ("x1", "x2"), "x1^2", "-x2^2 + x2^3", (1, 0, 1)),
        split("x1^2", ("x1",), "-x1^2", None, (0, 1, 0), jet_order=1),
        split("x1^2", ("x1",), "x1^2", None, (1, 0, 0), jet_order=2),
    ):
        assert not verify_split(germ, result)
        assert not _verify_split_untruncated(germ, result)
    # a change of the wrong length or in another variable count: False, not ValueError
    germ = parse_germ("x1^2 + x2^3")
    good = split_jet(germ, 3)
    assert verify_split(germ, good)
    for change in (good.change[:1], (*good.change, good.change[0]), coordinates(3)[:2]):
        assert not verify_split(germ, _replaced(good, change=change))
    # fields of the wrong type, with F nonempty and empty: False, not an exception
    for germ in (germ, parse_germ("x1^2", nvars=2)):
        good = split_jet(germ, 3)
        assert verify_split(germ, good)
        for bad in (
            _replaced(good, inertia=Inertia(plus=0.5, minus=0.5, corank=1)),
            _replaced(good, inertia=Inertia(plus=True, minus=0, corank=1)),
            _replaced(good, inertia=None),
            _replaced(good, inertia=(1, 0, 1)),
            _replaced(good, change=None),
            _replaced(good, change=3),
            _replaced(good, change=(good.change[0], None)),
            _replaced(good, quadratic_part=good.quadratic_part.terms()),
            _replaced(good, jet_order=3.0),
        ):
            assert not verify_split(germ, bad), bad


def test_split_jet_and_verify_split_share_one_shape_check(monkeypatch):
    germ = parse_germ("x1^2 - x2^2 + x1*x3^2 + x3^3")
    result = split_jet(germ, 4)
    seen = []
    shape = germs._split_defect

    def recorded(nvars, split):
        seen.append((nvars, split))
        return shape(nvars, split)

    monkeypatch.setattr(germs, "_split_defect", recorded)
    assert split_jet(germ, 4) == result and seen == [(3, result)]
    assert verify_split(germ, result) and seen == [(3, result)] * 2
    # a defect the one check reports is an engine error in split_jet and a
    # refusal in verify_split
    monkeypatch.setattr(germs, "_split_defect", lambda nvars, split: "planted defect")
    with pytest.raises(InvariantViolation, match="planted defect"):
        split_jet(germ, 4)
    assert not verify_split(germ, result)


def _substitute_single(terms, index, replacement, max_degree):
    """x_index -> replacement with the other variables fixed, truncated at max_degree,
    on the reference ring: the partial substitution the package does not offer."""
    top = max((exps[index] for exps in terms), default=0)
    powers = [None, replacement]  # powers[e] is replacement**e, truncated
    while len(powers) <= top:
        powers.append(ring_truncated(ring_product(powers[-1], replacement), max_degree))
    pieces = []
    for exps, coeff in terms.items():
        rest = {tuple(0 if i == index else e for i, e in enumerate(exps)): coeff}
        e = exps[index]
        pieces.append(ring_product(rest, powers[e]) if e else rest)
    return ring_truncated(ring_sum(*pieces), max_degree)


def _split_jet_rescanning(germ, jet_order):
    """split_jet as it was, rescanning a degree after every absorption: the
    reference, on the test ring."""
    _require_singular(germ)
    nv = germ.nvars
    P, diag = congruence_diagonalize(hessian_block(germ, range(nv)))
    lam = [d / 2 for d in diag]
    positives = [i for i, v in enumerate(lam) if v > 0]
    negatives = [i for i, v in enumerate(lam) if v < 0]
    kernel = [i for i, v in enumerate(lam) if v == 0]
    column_order = positives + negatives + kernel
    plus, minus = len(positives), len(negatives)
    rank = plus + minus
    columns = []
    for new_index, old_index in enumerate(column_order):
        scale = Fraction(1)
        if new_index < rank:
            value = abs(lam[old_index])
            rho = Fraction(
                _square_root_part(value.numerator), _square_root_part(value.denominator)
            )
            scale = 1 / rho
        columns.append([P[r][old_index] * scale for r in range(nv)])
    change = [
        {tuple(int(j == c) for j in range(nv)): columns[c][i] for c in range(nv) if columns[c][i]}
        for i in range(nv)
    ]
    current = ring_composed(ring_truncated(germ.terms(), jet_order), change)
    diagonal_coeff = [current[tuple(2 if j == i else 0 for j in range(nv))] for i in range(rank)]
    for degree in range(3, jet_order + 1):
        while True:
            offender = None
            for exps in sorted(exps for exps in current if sum(exps) == degree):
                pivot = next((i for i in range(rank) if exps[i]), None)
                if pivot is not None:
                    offender = (exps, pivot)
                    break
            if offender is None:
                break
            exps, pivot = offender
            rest = list(exps)
            rest[pivot] -= 1
            shift = {tuple(rest): -current[exps] / (2 * diagonal_coeff[pivot])}
            replacement = ring_sum(ring_coordinate(nv, pivot), shift)
            current = _substitute_single(current, pivot, replacement, jet_order)
            change = [
                _substitute_single(component, pivot, replacement, jet_order)
                for component in change
            ]
    return SplitResult(
        change=tuple(PolynomialGerm(nv, component) for component in change),
        quadratic_part=PolynomialGerm(nv, {e: c for e, c in current.items() if sum(e) == 2}),
        remainder=PolynomialGerm(nv, {e: c for e, c in current.items() if sum(e) != 2}),
        inertia=Inertia(plus=plus, minus=minus, corank=nv - rank),
        jet_order=jet_order,
    )


def _random_split_corpus():
    """Seeded germs with cross terms: 1-5 variables, degree up to 6, jets 3-7."""
    rng = random.Random(600)
    for _ in range(120):
        germ = random_singular_germ(rng, rng.randint(1, 5), rng.randint(2, 6))
        yield germ, rng.randint(3, 7)


def test_one_pass_split_matches_the_rescanning_reference():
    cases = [*_selfcheck_split_corpus(), *_random_split_corpus()]
    crossed = 0
    for germ, jet_order in cases:
        expected = _split_jet_rescanning(germ, jet_order).to_json()
        assert split_jet(germ, jet_order).to_json() == expected, (germ.to_text(), jet_order)
        crossed += any(max(exps) == 1 for exps in germ.terms_of_degree(2))
    assert len(cases) == 162 and crossed > 20


def test_the_reference_routes_call_no_product_of_the_package(monkeypatch):
    # the reference composition and the rescanning split run on the test
    # ring alone, so they cannot share a fault with substitute or split_jet
    cases = [*_selfcheck_split_corpus(), *_random_split_corpus()]
    results = [split_jet(germ, jet_order) for germ, jet_order in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("a product of the package was called")

    for owner, name in ((PolynomialGerm, "substitute"), (germs, "_product"),
                        (germs, "_linear_rank")):
        monkeypatch.setattr(owner, name, refuse)
    for number, ((germ, jet_order), result) in enumerate(zip(cases, results)):
        assert _split_jet_rescanning(germ, jet_order).to_json() == result.to_json()
        # the full re-expansion costs the most: a third of the corpus reaches its paths
        if number % 3 == 0:
            assert _verify_split_untruncated(germ, result), (germ.to_text(), jet_order)
    assert len(cases) == 162


def _random_shift_case(rng):
    """A germ with x_pivot up to the 4th power and terms up to degree 10, a shift, a jet.

    The shift's monomial has degree 1 (another variable: Stage 1's Lagrange
    shifts) or 2-3 (Stage 2's, which may hold the pivot)."""
    nvars = rng.randint(1, 4)
    pivot = rng.randrange(nvars)
    terms = {}
    for _ in range(rng.randint(1, 7)):
        exps = [rng.randint(0, 2) for _ in range(nvars)]
        exps[pivot] = rng.randint(0, 4)
        if not any(exps):
            exps[pivot] = 1
        terms[tuple(exps)] = Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 4))
    m = [0] * nvars
    if nvars > 1 and rng.random() < 0.3:
        m[rng.choice([i for i in range(nvars) if i != pivot])] = 1
    else:
        for _ in range(rng.randint(2, 3)):
            m[rng.randrange(nvars)] += 1
    ratio = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 3))
    return PolynomialGerm(nvars, terms), pivot, tuple(m), ratio, rng.randint(3, 8)


def _pairs(germ):
    """A germ's term map as _absorb holds it: exponents -> (numerator, denominator)."""
    return {exps: (c.numerator, c.denominator) for exps, c in germ.terms().items()}


def test_shift_matches_the_general_substitution():
    rng = random.Random(1800)
    seen = {"m holds the pivot": 0, "pivot power 4": 0, "jet cuts a binomial": 0,
            "terms above the jet": 0, "no pivot": 0, "linear m": 0}
    for _ in range(400):
        germ, pivot, m, ratio, jet = _random_shift_case(rng)
        nv = germ.nvars
        terms = _pairs(germ)
        _absorb(terms, pivot, m, (ratio.numerator, ratio.denominator), jet)
        for num, den in terms.values():
            assert num and den > 0 and gcd(num, den) == 1, (germ, pivot, m, ratio, jet)
        if not any(exps[pivot] for exps in germ.terms()):
            assert terms == _pairs(germ)
            seen["no pivot"] += 1
            continue
        # the reference is a full change whose other components are coordinates
        change = coordinates(nv)
        change[pivot] = change[pivot] + PolynomialGerm(nv, {m: ratio})
        low = {exps: Fraction(*pair) for exps, pair in terms.items() if sum(exps) <= jet}
        expected = germ.substitute(change, jet).terms()
        assert low == expected, (germ, pivot, m, ratio, jet)
        # a term above the jet is neither expanded nor dropped
        above = {exps: pair for exps, pair in terms.items() if sum(exps) > jet}
        assert above == {exps: pair for exps, pair in _pairs(germ).items() if sum(exps) > jet}
        step = sum(m) - 1
        seen["m holds the pivot"] += m[pivot] > 0
        seen["pivot power 4"] += any(exps[pivot] == 4 for exps in germ.terms())
        seen["jet cuts a binomial"] += any(
            sum(exps) + step <= jet < sum(exps) + exps[pivot] * step for exps in germ.terms()
        )
        seen["terms above the jet"] += max(map(sum, germ.terms())) > jet
        seen["linear m"] += step == 0
    assert min(seen.values()) >= 5, seen


def test_shift_drops_the_sums_that_cancel():
    # x1 -> x1 + 2*x2^2 turns x1*x2 into x1*x2 + 2*x2^3, which cancels -2*x2^3
    germ = parse_germ("x1*x2 - 2*x2^3 + x1^2")
    terms = _pairs(germ)
    _absorb(terms, 0, (0, 2), (2, 1), 5)
    assert terms == _pairs(parse_germ("x1*x2 + x1^2 + 4*x1*x2^2 + 4*x2^4"))
    assert (0, 3) not in terms
    expected = germ.substitute([parse_germ("x1 + 2*x2^2"), coordinates(2)[1]], 5)
    assert PolynomialGerm(2, {exps: Fraction(*pair) for exps, pair in terms.items()}) == expected
    # a map without the pivot is left as it was
    kernel = _pairs(parse_germ("x2^3 + x2^7", nvars=2))
    _absorb(kernel, 0, (1, 1), (-1, 2), 4)
    assert kernel == {(0, 3): (1, 1), (0, 7): (1, 1)}


def _assert_reduced(terms):
    for num, den in terms.values():
        assert type(num) is type(den) is int and num and den > 0 and gcd(num, den) == 1, terms


def test_add_term_keeps_the_fraction_sums_as_reduced_pairs():
    rng = random.Random(3700)
    keys = [(1, 0), (0, 2), (1, 1)]
    seen = dict.fromkeys(["equal denominators", "unequal denominators", "cancels", "zero first"], 0)
    for _ in range(400):
        sums, expected = {}, {}
        for _ in range(rng.randint(1, 10)):
            exps = rng.choice(keys)
            scale = rng.randint(1, 3)  # the rational comes unreduced as often as not
            if exps in expected and rng.random() < 0.3:  # the sum will cancel
                value = -expected[exps]
            else:
                value = Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6]))
            num, den = value.numerator * scale, value.denominator * scale
            old = sums.get(exps)
            seen["equal denominators"] += old is not None and old[1] == den
            seen["unequal denominators"] += old is not None and old[1] != den
            seen["zero first"] += old is None and not num
            germs._add_term(sums, exps, num, den)
            expected[exps] = expected.get(exps, 0) + value
            seen["cancels"] += old is not None and not expected[exps]
            _assert_reduced(sums)
            assert {e: Fraction(*pair) for e, pair in sums.items()} == {
                e: v for e, v in expected.items() if v
            }
    assert min(seen.values()) >= 20, seen


def test_every_route_keeps_reduced_pairs_and_shows_fractions():
    f = parse_germ("2/4*x1^2 - 6/3*x1*x2 + 3/9*x2^3 + x2^2 - x2^2")
    assert f._terms == {(2, 0): (1, 2), (1, 1): (-2, 1), (0, 3): (1, 3)}
    g = parse_germ('{"nvars": 2, "terms": [[[2, 0], "2/4"], [[1, 1], -2], [[0, 3], "-3/9"]]}')
    built = PolynomialGerm(2, {(2, 0): 0.5, (0, 3): Fraction(-2, 6), (1, 1): -2})
    assert built == g and hash(built) == hash(g)
    change = [parse_germ("x1 + 1/2*x2^2"), parse_germ("-3/4*x2", nvars=2)]
    results = [f, g, built, f + g, f - f, -f, f.substitute(change, 6)]
    results += [part for germ in (f, g) for part in _split_parts(split_jet(germ, 5))]
    for germ in results:
        _assert_reduced(germ._terms)
        assert all(type(c) is Fraction for c in germ.terms().values())
        assert all(type(c) is Fraction for c in germ.terms_of_degree(2).values())
        for copied in (copy.copy(germ), copy.deepcopy(germ), pickle.loads(pickle.dumps(germ))):
            assert copied == germ and hash(copied) == hash(germ)
            assert copied._terms == germ._terms
    assert (f + g).terms() == {(2, 0): 1, (1, 1): -4}
    assert (f - f).is_zero()


def _split_parts(result):
    return (*result.change, result.quadratic_part, result.remainder)


def test_split_calls_no_substitute_and_verify_split_never_shifts(monkeypatch):
    # the route that builds a split and the route that checks it share no
    # expansion code: split_jet shifts through _absorb alone and builds no
    # matrix; verify_split composes through substitute alone
    calls = {"substitute": 0, "absorb": 0, "matrix": 0}
    substitute, absorb, hessian_rows = PolynomialGerm.substitute, germs._absorb, germs._hessian_rows

    def counting_substitute(self, *args, **kwargs):
        calls["substitute"] += 1
        return substitute(self, *args, **kwargs)

    def counting_absorb(*args):
        calls["absorb"] += 1
        return absorb(*args)

    def counting_hessian_rows(*args):
        calls["matrix"] += 1
        return hessian_rows(*args)

    monkeypatch.setattr(PolynomialGerm, "substitute", counting_substitute)
    monkeypatch.setattr(germs, "_hessian_rows", counting_hessian_rows)
    monkeypatch.setattr(germs, "_absorb", counting_absorb)
    absorbed = 0
    for germ, jet_order in [*_selfcheck_split_corpus(), *_random_split_corpus()]:
        calls.update(substitute=0, absorb=0, matrix=0)
        result = split_jet(germ, jet_order)
        assert calls["substitute"] == calls["matrix"] == 0, (germ.to_text(), jet_order)
        absorbed += calls["absorb"] > 0
        calls.update(substitute=0, absorb=0, matrix=0)
        assert verify_split(germ, result)
        assert calls == {"substitute": 1, "absorb": 0, "matrix": 0}
    assert absorbed > 50


def _benchmark_shaped_split_corpus():
    """Seeded germs shaped like the germ benchmark's splits, in 2-4 variables at jets 3-6:
    a diagonal quadratic block of random rank and signs under 1-4 random terms of
    degree 3-4."""
    rng = random.Random(2700)
    for _ in range(120):
        nvars = rng.randint(2, 4)
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [0] * nvars
            for _ in range(rng.randint(3, 4)):
                exps[rng.randrange(nvars)] += 1
            terms[tuple(exps)] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
        for slot in rng.sample(range(nvars), rng.randint(1, nvars)):
            square = tuple(2 if i == slot else 0 for i in range(nvars))
            terms[square] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
        yield PolynomialGerm(nvars, terms), rng.randint(3, 6)


def test_split_of_benchmark_shaped_germs_matches_the_rescanning_reference():
    cases = list(_benchmark_shaped_split_corpus())
    for germ, jet_order in cases:
        expected = _split_jet_rescanning(germ, jet_order).to_json()
        assert split_jet(germ, jet_order).to_json() == expected, (germ.to_text(), jet_order)
    ranks = {split_jet(germ, 3).inertia.rank for germ, _ in cases}
    assert len(cases) >= 100 and ranks == {1, 2, 3, 4}


def _named_split_corpus():
    """The NAMED matrices as quadratic germs under a cubic tail, at their own
    variable count and with unused variables interleaved: a zero diagonal
    takes the hyperbolic move, and an unused variable ahead of a square
    takes a pivot swap."""
    rng = random.Random(2900)
    for matrix in NAMED.values():
        n = len(matrix)
        tail = {tuple(3 * (i == n - 1) for i in range(n)): Fraction(-1)}
        tail[tuple((i == 0) + 2 * (i == n - 1) for i in range(n))] = Fraction(1, 2)
        terms = ring_sum(quadratic_form(matrix).terms(), tail)
        for dim in (n, n + 1, n + 3):
            yield _spread(terms, sorted(rng.sample(range(dim), n)), dim), rng.randint(3, 6)
    for dim in range(5, 9):
        for jet_order in (3, 5):
            yield parse_germ("x1*x3 + x5^2 - x2^3", nvars=dim), jet_order


def test_split_of_named_forms_matches_the_rescanning_reference(monkeypatch):
    diagonalize, swapped = germs._diagonalize, []

    def recording(*args):
        diagonal = diagonalize(*args)
        swapped.append(any(slot != k for k, (slot, _) in enumerate(diagonal)))
        return diagonal

    monkeypatch.setattr(germs, "_diagonalize", recording)
    cases = list(_named_split_corpus())
    for germ, jet_order in cases:
        expected = _split_jet_rescanning(germ, jet_order).to_json()
        result = split_jet(germ, jet_order)
        assert result.to_json() == expected, (germ.to_text(), jet_order)
        assert verify_split(germ, result)
    hyperbolic = sum(
        1 for germ, _ in cases
        if germ.terms_of_degree(2) and all(max(exps) == 1 for exps in germ.terms_of_degree(2))
    )
    assert len(cases) == 44 and sum(swapped) >= 10 and hyperbolic >= 10


def test_split_at_a_larger_dim_appends_zeros_and_coordinates():
    # the split of a germ in x1..xk at dim N is its split at k, with zero
    # exponents appended and the coordinates x_(k+1)..x_N as the new components
    rng = random.Random(2950)
    for index in range(40):
        nvars = rng.randint(1, 4)
        germ = random_singular_germ(rng, nvars, rng.randint(2, 5))
        jet_order = rng.randint(3, 6)
        small = split_jet(germ, jet_order)
        for dim in (nvars + 1, nvars + rng.randint(2, 20), 120 if index % 10 == 0 else nvars + 3):

            def padded(part):
                return _spread(part.terms(), range(nvars), dim)

            wide = split_jet(padded(germ), jet_order)
            assert wide.change == (*map(padded, small.change), *coordinates(dim)[nvars:])
            assert wide.quadratic_part == padded(small.quadratic_part)
            assert wide.remainder == padded(small.remainder)
            inertia = small.inertia
            assert wide.inertia == Inertia(inertia.plus, inertia.minus, dim - inertia.rank)


# ---------------------------------------------------------------------------
# result records behave as the frozen dataclasses they replace
# ---------------------------------------------------------------------------

RECORD_TWINS = {
    cls: make_dataclass(cls.__name__, names, frozen=True)
    for cls, names in (
        (Inertia, ["plus", "minus", "corank"]),
        (SplitResult, ["change", "quadratic_part", "remainder", "inertia", "jet_order"]),
        (NaiveRecovery, ["status", ("m", object, None), ("M", object, None), ("reason", object, None)]),
        (
            DiscriminationResult,
            ["distinguished", "selector", "n", "order", "conditional", "inertia_f", "inertia_g"],
        ),
        (QuadraticGerm, ["dim", "plus", "minus"]),
        (ArcStratumReport, ["n", "selector", "strata", "betas", "total_beta"]),
    )
}


def test_result_records_keep_the_semantics_of_frozen_dataclasses():
    rng = random.Random(4242)
    records = []
    for _ in range(25):
        nvars = rng.randint(1, 4)
        germ, other = random_singular_germ(rng, nvars), random_singular_germ(rng, nvars)
        records += [hessian_inertia(germ), split_jet(germ, rng.randint(3, 5))]
        records.append(discriminate(germ, other, rng.randint(1, 4)))
        plus, minus = rng.randint(0, 3), rng.randint(1, 3)
        quadratic = QuadraticGerm(plus + minus + rng.randint(0, 2), plus, minus)
        n, selector = rng.randint(1, 4), rng.choice(SELECTORS)
        records += [quadratic, stratify_series(quadratic, selector, n)[-1]]
        records.append(recover_minmax(naive_t2_coefficient(rng.randint(1, 3), rng.randint(3, 5))))
    records += [Inertia(1, 2, 0), Inertia(plus=1, minus=2, corank=0), QuadraticGerm(3, 1, 2)]
    records += [NaiveRecovery("ambiguous"), NaiveRecovery("ambiguous", reason="why")]
    assert {type(record) for record in records} == set(RECORD_TWINS)
    assert_dataclass_semantics(records, RECORD_TWINS)


def test_every_record_stores_its_fields_only_in_its_key():
    # a field held in a slot as well could disagree with the key
    records = Record.__subclasses__()
    assert set(RECORD_TWINS) <= set(records) and len(records) == 16
    for cls in records:
        assert not set(cls._fields) & set(cls.__slots__), cls
        assert all(isinstance(getattr(cls, name), property) for name in cls._fields), cls


def test_result_records_of_equal_fields_but_different_classes_differ():
    inertia, quadratic = Inertia(3, 1, 2), QuadraticGerm(3, 1, 2)
    assert inertia != quadratic and not inertia == quadratic and hash(inertia) == hash(quadratic)
    assert inertia.__eq__(quadratic) is NotImplemented
    assert inertia != (3, 1, 2) and len({inertia, quadratic, Inertia(3, 1, 2)}) == 2


def test_naive_recovery_defaults_and_keywords():
    bare = NaiveRecovery("ambiguous")
    assert (bare.m, bare.M, bare.reason) == (None, None, None)
    assert repr(bare) == "NaiveRecovery(status='ambiguous', m=None, M=None, reason=None)"
    assert NaiveRecovery(status="determined", m=1, M=1) == NaiveRecovery("determined", 1, 1, None)
    assert NaiveRecovery(reason="r", status="ambiguous").to_json() == {
        "status": "ambiguous",
        "reason": "r",
    }
    with pytest.raises(TypeError):
        NaiveRecovery()
    with pytest.raises(TypeError):
        Inertia(1, 2)


def test_quadratic_germ_errors_embed_its_repr():
    with pytest.raises(InvalidGerm, match=r"got QuadraticGerm\(dim=2, plus=2, minus=1\)$"):
        QuadraticGerm(2, 2, 1)
    with pytest.raises(InvalidGerm, match=r"got QuadraticGerm\(dim=0, plus=0, minus=1\)$"):
        QuadraticGerm(dim=0, plus=0, minus=1)
