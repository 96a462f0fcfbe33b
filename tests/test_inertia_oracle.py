"""Hessian inertia against sympy, used here as an independent oracle.

For seeded random rational symmetric matrices, sympy builds the exact
characteristic polynomial and counts its positive and negative roots with
count_roots.  count_roots counts distinct roots, so it runs on each
square-free factor (the zero root divided out) and is weighted by the
factor's multiplicity.  Every route of the package must give that count:
congruence_inertia (integer congruence, whose elimination hessian_inertia
also runs, on the integer Hessian it reads off the quadratic form), split_jet on the quadratic form (rational
congruence by Lagrange shifts) and charpoly_inertia.  The matrices include rank-deficient
ones, ones with an all-zero diagonal, ones with repeated eigenvalues and
ones with large numerators and denominators.  sympy is a test-only tool;
the module is skipped where it is not installed.
"""

import random
from fractions import Fraction

import pytest

from arczeta import (
    charpoly_inertia,
    congruence_inertia,
    hessian_inertia,
    split_jet,
)
from util import NAMED, hessian_block, quadratic_form, random_symmetric

sympy = pytest.importorskip("sympy")

SEEDS = range(30)
X = sympy.Symbol("x")


def _sympy_inertia(matrix):
    """(positive, negative, zero) eigenvalue counts, with multiplicity."""
    entries = [[sympy.Rational(v.numerator, v.denominator) for v in row] for row in matrix]
    charpoly = sympy.Poly(sympy.Matrix(entries).charpoly(X).as_expr(), X)
    counts = [0, 0, 0]
    for factor, multiplicity in charpoly.sqf_list()[1]:
        if factor.eval(0) == 0:  # square-free, so x divides it once
            counts[2] += multiplicity
            factor = factor.exquo(sympy.Poly(X, X))
        counts[0] += multiplicity * factor.count_roots(0, None)
        counts[1] += multiplicity * factor.count_roots(None, 0)
    assert sum(counts) == len(matrix)  # a symmetric matrix has only real eigenvalues
    return tuple(counts)


def _rank_deficient(rng, size):
    """B^T D B with B of rank below size and D diagonal with signs of both kinds."""
    rank = rng.randint(0, size - 1)
    B = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(size)] for _ in range(rank)]
    D = [rng.choice([-2, -1, 1, 3]) for _ in range(rank)]
    return [
        [sum(B[k][i] * D[k] * B[k][j] for k in range(rank)) for j in range(size)]
        for i in range(size)
    ]


def _zero_diagonal(rng, size):
    """Zero diagonal, random (possibly zero) off-diagonal entries."""
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i):
            value = Fraction(rng.choice([0, rng.randint(-4, 4)]), rng.randint(1, 3))
            matrix[i][j] = matrix[j][i] = value
    return matrix


def _repeated(rng, size):
    """A diagonal of repeated values under a shear congruence."""
    values = [Fraction(rng.choice([-1, 0, 2])) for _ in range(size)]
    # P^T diag(values) P with P unit upper triangular keeps the inertia
    P = [[Fraction(1 if i == j else (rng.randint(-2, 2) if j > i else 0)) for j in range(size)]
         for i in range(size)]
    return [
        [sum(P[k][i] * values[k] * P[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


def _large(rng, size):
    """Numerators and denominators of up to 30 digits; about half are singular.

    The lcm of the denominators that clears them is then a big number too.
    """
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1):
            value = Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))
            matrix[i][j] = matrix[j][i] = value
    if size > 1 and rng.random() < 0.5:
        i, j = rng.sample(range(size), 2)
        for k in range(size):  # row and column i copy row and column j
            matrix[i][k] = matrix[j][k]
        for k in range(size):
            matrix[k][i] = matrix[i][k]
        matrix[i][i] = matrix[j][j] = matrix[i][j]
    return matrix


MAKERS = {
    "random": random_symmetric,
    "rank-deficient": _rank_deficient,
    "zero-diagonal": _zero_diagonal,
    "repeated": _repeated,
    "large": _large,
}


@pytest.mark.parametrize("kind", MAKERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_both_inertia_routes_match_sympy(kind, seed):
    rng = random.Random(seed)
    matrix = MAKERS[kind](rng, rng.randint(1, 6))
    positive, negative, zero = _sympy_inertia(matrix)
    germ = quadratic_form(matrix)
    assert hessian_block(germ, range(germ.nvars)) == matrix
    inertia = hessian_inertia(germ)
    assert (inertia.plus, inertia.minus, inertia.corank) == (positive, negative, zero)
    assert split_jet(germ, 3).inertia == inertia
    assert congruence_inertia(matrix) == (positive, negative)
    assert charpoly_inertia(matrix) == (positive, negative)


@pytest.mark.parametrize("size", [1, 4])
def test_the_zero_matrix_has_only_zero_eigenvalues(size):
    matrix = [[Fraction(0)] * size for _ in range(size)]
    assert _sympy_inertia(matrix) == (0, 0, size)
    assert charpoly_inertia(matrix) == (0, 0)
    assert congruence_inertia(matrix) == (0, 0)
    assert hessian_inertia(quadratic_form(matrix)).corank == size


@pytest.mark.parametrize("name", NAMED)
def test_named_matrices_match_sympy_on_every_route(name):
    matrix = NAMED[name]
    positive, negative, zero = _sympy_inertia(matrix)
    assert congruence_inertia(matrix) == (positive, negative)
    assert charpoly_inertia(matrix) == (positive, negative)
    inertia = hessian_inertia(quadratic_form(matrix))
    assert (inertia.plus, inertia.minus, inertia.corank) == (positive, negative, zero)
    assert split_jet(quadratic_form(matrix), 3).inertia == inertia
