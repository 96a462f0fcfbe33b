"""PolynomialGerm arithmetic, the tests' reference ring and verify_split's
rank pass against sympy, used here as an independent oracle.

Every operation is compared as a term map: the sympy side is expanded and,
where a max_degree applies, truncated by total degree.  sympy is a test-only
tool; the module is skipped where it is not installed.
"""

import random
from fractions import Fraction

import pytest

from arczeta import parse_germ
from arczeta.germ import _linear_rank
from util import (
    composed_degree,
    coordinates,
    linear_change,
    linear_rank,
    random_invertible,
    random_singular_germ,
    ring_composed,
    ring_product,
    ring_scaled,
    ring_sum,
    ring_truncated,
)

sympy = pytest.importorskip("sympy")

SEEDS = range(16)


def _symbols(nvars):
    return sympy.symbols(f"x1:{nvars + 1}")


def _expr(germ, xs):
    total = sympy.Integer(0)
    for exps, coeff in germ.terms().items():
        monomial = sympy.Mul(*(x**e for x, e in zip(xs, exps)))
        total += sympy.Rational(coeff.numerator, coeff.denominator) * monomial
    return total


def _term_map(expr, xs, max_degree=None):
    poly = sympy.Poly(sympy.expand(expr), *xs)
    return {
        exps: Fraction(int(c.p), int(c.q))
        for exps, c in poly.terms()
        if c != 0 and (max_degree is None or sum(exps) <= max_degree)
    }


def _germs(seed):
    """Two random germs in one space, and that space's symbols."""
    rng = random.Random(seed)
    nvars = rng.randint(1, 4)
    return rng, random_singular_germ(rng, nvars), random_singular_germ(rng, nvars), _symbols(nvars)


def _changes(rng, nvars):
    """A linear change, and the same change with a random germ added to each component."""
    linear = linear_change(random_invertible(rng, nvars), nvars)
    yield linear
    yield [component + random_singular_germ(rng, nvars, 3) for component in linear]


@pytest.mark.parametrize("seed", SEEDS)
def test_ring_operations_match_sympy(seed):
    rng, f, g, xs = _germs(seed)
    fx, gx = _expr(f, xs), _expr(g, xs)
    assert (f + g).terms() == _term_map(fx + gx, xs)
    assert (f - g).terms() == _term_map(fx - gx, xs)
    assert (f - f).terms() == {}
    assert (-f).terms() == _term_map(-fx, xs)
    # the reference ring the tests check substitute and split_jet against
    assert ring_sum(f.terms(), g.terms()) == _term_map(fx + gx, xs)
    assert ring_product(f.terms(), g.terms()) == _term_map(fx * gx, xs)
    factor = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    scaled = fx * sympy.Rational(factor.numerator, factor.denominator)
    assert ring_scaled(f.terms(), factor) == _term_map(scaled, xs)
    # substitute's truncated products: powers of f, and f * g
    rest = coordinates(f.nvars)[1:]
    for max_degree in (2, 3, 5, 7):
        assert ring_truncated(f.terms(), max_degree) == _term_map(fx, xs, max_degree)
        for k in (2, 3):
            power = parse_germ(f"x1^{k}", f.nvars).substitute([f, *rest], max_degree)
            assert power.terms() == _term_map(fx**k, xs, max_degree)
        if f.nvars > 1:
            product = parse_germ("x1*x2", f.nvars).substitute([f, g, *rest[1:]], max_degree)
            assert product.terms() == _term_map(fx * gx, xs, max_degree)


@pytest.mark.parametrize("seed", SEEDS)
def test_substitute_matches_sympy(seed):
    rng, f, _, xs = _germs(seed)
    fx = _expr(f, xs)
    for change in _changes(rng, f.nvars):
        composed = fx.xreplace(dict(zip(xs, (_expr(c, xs) for c in change))))
        full = f.substitute(change, composed_degree(f, change)).terms()
        assert full == _term_map(composed, xs)
        assert ring_composed(f.terms(), [c.terms() for c in change]) == full
        for max_degree in (2, 3, 4):
            assert f.substitute(change, max_degree).terms() == _term_map(composed, xs, max_degree)


def _with_linear_terms(rng, f):
    """f plus a random nonzero linear form, so some terms of f are a lone x_i."""
    return f + linear_change(random_invertible(rng, f.nvars), f.nvars)[0]


def _high_changes(rng, nvars):
    """Changes whose components reach past every max_degree tried (degree up to 6)."""
    linear = linear_change(random_invertible(rng, nvars), nvars)
    return [component + random_singular_germ(rng, nvars, 6) for component in linear]


def _compare(f, change, xs, max_degrees=(1, 2, 3, 4)):
    """substitute against sympy, in full (at deg f times the largest component
    degree) and at each max_degree."""
    composed = _expr(f, xs).xreplace({x: _expr(c, xs) for x, c in zip(xs, change)})
    full = f.substitute(change, composed_degree(f, change)).terms()
    assert full == _term_map(composed, xs)
    for max_degree in max_degrees:
        truncated = f.substitute(change, max_degree).terms()
        assert truncated == ring_truncated(full, max_degree)
        assert truncated == _term_map(composed, xs, max_degree)


@pytest.mark.parametrize("seed", SEEDS)
def test_substitute_with_linear_terms_and_high_changes_truncates_exactly(seed):
    rng, f, _, xs = _germs(seed)
    f = _with_linear_terms(rng, f)
    _compare(f, _high_changes(rng, f.nvars), xs)


@pytest.mark.parametrize("seed", SEEDS)
def test_substitute_single_matches_sympy(seed):
    """One variable rewritten, the others fixed: a change whose other components
    are coordinates."""
    rng, f, g, xs = _germs(seed)
    index = rng.randrange(f.nvars)
    linear = linear_change(random_invertible(rng, f.nvars), f.nvars)[index]
    for replacement in (linear, coordinates(f.nvars)[index] - g, g):
        change = coordinates(f.nvars)
        change[index] = replacement
        _compare(f, change, xs)


@pytest.mark.parametrize("seed", SEEDS)
def test_partial_substitute_with_linear_terms_and_high_changes_matches_sympy(seed):
    """1 to nvars variables rewritten, the others kept as coordinates, on germs
    with linear terms and high changes."""
    rng, f, _, xs = _germs(seed)
    f = _with_linear_terms(rng, f)
    high = _high_changes(rng, f.nvars)
    for size in range(1, f.nvars + 1):
        change = coordinates(f.nvars)
        for i in rng.sample(range(f.nvars), size):
            change[i] = high[i]
        _compare(f, change, xs)


# ---------------------------------------------------------------------------
# the rank pass of verify_split
# ---------------------------------------------------------------------------


def _random_rational_matrix(rng, size):
    # small entries with a few denominators, and many zeros, so that first
    # columns coincide and rows reduce more than once
    return [
        [Fraction(rng.choice([0, rng.randint(-9, 9)]), rng.choice([1, 2, 3, 7]))
         for _ in range(size)]
        for _ in range(size)
    ]


def _rank_cases(rng, size):
    """A random matrix, a permutation of its rows and columns, the matrix with a
    zero row, with a row the sum of two earlier rows, and an invertible one."""
    matrix = _random_rational_matrix(rng, size)
    yield matrix
    rows, columns = rng.sample(range(size), size), rng.sample(range(size), size)
    yield [[matrix[r][c] for c in columns] for r in rows]
    zero = rng.randrange(size)
    yield [[Fraction(0)] * size if r == zero else row for r, row in enumerate(matrix)]
    if size > 2:
        # the sum empties only after the eliminations by both of its rows
        j, k = sorted(rng.sample(range(size - 1), 2))
        summed = [row[:] for row in matrix]
        summed[size - 1] = [x + y for x, y in zip(matrix[j], matrix[k])]
        yield summed
    yield random_invertible(rng, size)


@pytest.mark.parametrize("seed", SEEDS)
def test_determinant_matches_sympy(seed):
    """The rank pass and the tests' dense oracle give sympy's rank, so a change
    is invertible exactly where sympy's determinant of its linear part is nonzero."""
    rng = random.Random(seed)
    for size in range(1, 9):
        for matrix in _rank_cases(rng, size):
            entries = sympy.Matrix(
                [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in matrix]
            )
            change = linear_change(matrix, size)
            rank = entries.rank()
            assert _linear_rank(change) == linear_rank(change) == rank, matrix
            assert (rank == size) == (entries.det() != 0), matrix
