"""Shared helpers for the test suite."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction
from operator import add

import pytest

from arczeta import (
    Difference,
    DisjointUnion,
    LaurentPolynomial,
    PolynomialGerm,
    Product,
)
from arczeta.selfcheck import (  # noqa: F401  (the grids' generators, shared with the tests)
    random_singular_germ,
    random_symmetric,
    signature_pairs,
)


def random_laurent(rng: random.Random, max_terms: int = 6) -> LaurentPolynomial:
    return LaurentPolynomial(
        [(rng.randint(-6, 6), rng.randint(-9, 9)) for _ in range(rng.randint(0, max_terms))]
    )


def random_invertible(rng: random.Random, size: int) -> list[list[Fraction]]:
    """A product of elementary matrices, so invertibility is guaranteed."""
    matrix = [
        [Fraction(1) if i == j else Fraction(0) for j in range(size)] for i in range(size)
    ]
    for i in range(size):
        matrix[i][i] = Fraction(rng.choice([1, -1, 2, 3]), rng.choice([1, 2]))
    for _ in range(2 * size):
        i, j = rng.randrange(size), rng.randrange(size)
        if i == j:
            continue
        factor = Fraction(rng.randint(-2, 2), rng.choice([1, 2]))
        for c in range(size):
            matrix[i][c] += factor * matrix[j][c]
    rng.shuffle(matrix)
    return matrix


def linear_change(matrix, nvars: int) -> list[PolynomialGerm]:
    """The substitution x_i -> sum_j matrix[i][j] x_j as germ components."""
    components = []
    for i in range(nvars):
        terms = {}
        for j in range(nvars):
            if matrix[i][j]:
                exps = tuple(1 if k == j else 0 for k in range(nvars))
                terms[exps] = Fraction(matrix[i][j])
        components.append(PolynomialGerm(nvars, terms))
    return components


def linear_rank(change) -> int:
    """The rank of a change's matrix of degree-1 coefficients, by dense Gaussian elimination.

    The invertibility oracle of the tests' reference split check: it reads
    terms() alone, so it shares no code with verify_split's sparse rank pass.
    """
    rows = []
    for component in change:
        row = [Fraction(0)] * component.nvars
        for exps, coeff in component.terms().items():
            if sum(exps) == 1:
                row[exps.index(1)] = coeff
        rows.append(row)
    rank = 0
    for column in range(max(map(len, rows), default=0)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][column]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][column] / rows[rank][column]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def quadratic_form(matrix) -> PolynomialGerm:
    """The germ x^T H x / 2, whose Hessian at the origin is H (entries read by Fraction)."""
    n = len(matrix)
    terms = {}
    for i in range(n):
        for j in range(i, n):
            exps = tuple((k == i) + (k == j) for k in range(n))
            terms[exps] = Fraction(matrix[i][i]) / 2 if i == j else Fraction(matrix[i][j])
    return PolynomialGerm(n, terms)


def hessian_block(germ: PolynomialGerm, variables) -> list[list[Fraction]]:
    """The Hessian's rows and columns of the given variables, in their order.

    The tests' reference Hessian, of Fractions from terms() alone: variables
    must hold every variable of every degree-2 term.
    """
    where = {v: r for r, v in enumerate(variables)}
    n = len(where)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    for exps, coeff in germ.terms_of_degree(2).items():
        support = [where[i] for i, e in enumerate(exps) if e]
        if len(support) == 1:
            i = support[0]
            matrix[i][i] = 2 * coeff
        else:
            i, j = support
            matrix[i][j] = coeff
            matrix[j][i] = coeff
    return matrix


def faddeev_leverrier(A: list[list[int]]) -> list[int]:
    """[1, c_1, ..., c_n] of det(x I - A) for a square matrix of int rows.

    The reference of charpoly_inertia's Newton sums: M_1 = I and
    c_k = -tr(A M_k) / k, M_(k+1) = A M_k + c_k I, one full matrix product
    per step, with no use of symmetry.
    """
    n = len(A)
    coeffs = [1]
    M = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        AM = [[sum(A[i][m] * M[m][j] for m in range(n)) for j in range(n)] for i in range(n)]
        quotient, residue = divmod(sum(AM[i][i] for i in range(n)), k)
        assert residue == 0
        coeffs.append(-quotient)
        M = [[AM[i][j] + (i == j) * -quotient for j in range(n)] for i in range(n)]
    return coeffs


def _f(*rows):
    return [[Fraction(x) for x in row] for row in rows]


# Symmetric matrices with a known shape: hyperbolic pairs and zero
# diagonals (the moves beside the plain pivot), low rank, huge entries.
NAMED = {
    "hyperbolic pair": _f([0, 1], [1, 0]),
    "negative hyperbolic pair": _f([0, -3], [-3, 0]),
    "zero diagonal, 3x3": _f([0, 1, 2], [1, 0, 3], [2, 3, 0]),
    "zero diagonal, one zero row": _f([0, 0, 0], [0, 0, 5], [0, 5, 0]),
    "zero diagonal after a pivot": _f([1, 1, 1], [1, 1, 2], [1, 2, 1]),
    "rank one": _f([1, 2, 3], [2, 4, 6], [3, 6, 9]),
    "rank one, negative": _f(["-1/2", "-1/3"], ["-1/3", "-2/9"]),
    "1x1 positive": _f(["3/7"]),
    "1x1 negative": _f(["-10000000000000000000001/3"]),
    "1x1 zero": _f([0]),
    "large entries": _f(
        ["123456789012345678901234567890/7", "-1/999999999999999999999"],
        ["-1/999999999999999999999", "-98765432109876543210/13"],
    ),
    "tiny determinant": _f(
        [10**20, 10**20 + 1], [10**20 + 1, 10**20 + 2]
    ),
}


def congruence_diagonalize(matrix) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Symmetric Gaussian elimination: returns (P, diag) with P^T H P diagonal.

    A zero diagonal pivot with a nonzero off-diagonal entry is repaired by
    the hyperbolic move x_k -> x_k + x_j before eliminating.  The dense
    matrix form of split_jet's Stage 1: the first half of the tests'
    reference split.
    """
    n = len(matrix)
    H = [[Fraction(x) for x in row] for row in matrix]
    if any(len(row) != n for row in H):
        raise ValueError("matrix must be square")
    if any(H[i][j] != H[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    P = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]

    def add_column(dst, src, factor):
        # rows where the source entry is 0 gain nothing
        for row in H:
            if row[src]:
                row[dst] += factor * row[src]
        target = H[dst]
        for r, x in enumerate(H[src]):
            if x:
                target[r] += factor * x
        for row in P:
            if row[src]:
                row[dst] += factor * row[src]

    def swap_columns(a, b):
        for r in range(n):
            H[r][a], H[r][b] = H[r][b], H[r][a]
        H[a], H[b] = H[b], H[a]
        for r in range(n):
            P[r][a], P[r][b] = P[r][b], P[r][a]

    for k in range(n):
        if H[k][k] == 0:
            pivot = next((j for j in range(k + 1, n) if H[j][j] != 0), None)
            if pivot is not None:
                swap_columns(k, pivot)
            else:
                off = next((j for j in range(k + 1, n) if H[k][j] != 0), None)
                if off is None:
                    continue  # row k already zero on the remaining block
                add_column(k, off, Fraction(1))
        for j in range(k + 1, n):
            if H[k][j]:
                add_column(j, k, -H[k][j] / H[k][k])
    return P, [H[i][i] for i in range(n)]


# ---------------------------------------------------------------------------
# The reference ring: term maps exponent tuple -> nonzero Fraction, the maps
# PolynomialGerm.terms() returns.  It calls no PolynomialGerm arithmetic, so a
# test that checks substitute or split_jet against it shares no product code
# with the route it checks.
# ---------------------------------------------------------------------------


def ring_sum(*maps: dict) -> dict:
    total = {}
    for terms in maps:
        for exps, coeff in terms.items():
            total[exps] = total.get(exps, 0) + coeff
    return {exps: coeff for exps, coeff in total.items() if coeff}


def ring_product(a: dict, b: dict) -> dict:
    product = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
            product[key] = product.get(key, 0) + c1 * c2
    return {exps: coeff for exps, coeff in product.items() if coeff}


def ring_scaled(terms: dict, factor) -> dict:
    return {exps: coeff * factor for exps, coeff in terms.items()} if factor else {}


def ring_truncated(terms: dict, max_degree: int) -> dict:
    """The terms of degree <= max_degree."""
    return {exps: coeff for exps, coeff in terms.items() if sum(exps) <= max_degree}


def ring_coordinate(nvars: int, index: int) -> dict:
    """The term map of x_(index+1); index counts from 0."""
    return {tuple(int(i == index) for i in range(nvars)): Fraction(1)}


def ring_composed(terms: dict, change: list[dict]) -> dict:
    """The full composition f(change(x)), one term map per variable, by products and sums."""
    pieces = []
    for exps, coeff in terms.items():
        piece = {tuple(0 for _ in exps): coeff}
        for component, e in zip(change, exps):
            for _ in range(e):
                piece = ring_product(piece, component)
        pieces.append(piece)
    return ring_sum(*pieces)


def coordinates(nvars: int) -> list[PolynomialGerm]:
    """The identity change x_i -> x_i, one germ per variable."""
    return [PolynomialGerm(nvars, ring_coordinate(nvars, i)) for i in range(nvars)]


def composed_degree(germ: PolynomialGerm, change) -> int:
    """deg f times the largest component degree: no term of f(change(x)) lies above it."""
    degree = max((sum(exps) for exps in germ.terms()), default=0)
    return degree * max(
        (sum(exps) for component in change for exps in component.terms()), default=0
    )


def assert_dataclass_semantics(records, twins):
    """Each record keeps the ==, hash and repr of a frozen dataclass twin.

    twins maps each record class to a frozen dataclass of the same name and
    compared fields; records are seeded values of those classes.  == is
    checked on every ordered pair, across classes too, so keep records to
    a few hundred.
    """

    def twin_of(record):
        twin = twins[type(record)]
        return twin(*(getattr(record, field.name) for field in dataclasses.fields(twin)))

    for record in records:
        twin = twin_of(record)
        names = [field.name for field in dataclasses.fields(twin)]
        assert repr(record) == repr(twin)
        assert hash(record) == hash(twin)
        rebuilt = type(record)(**{name: getattr(record, name) for name in names})
        assert rebuilt == record and not rebuilt != record and hash(rebuilt) == hash(record)
        assert pickle.loads(pickle.dumps(record)) == record
        assert copy.deepcopy(record) == record
        for name in names + ["not_a_field"]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == repr(twin)  # nothing above changed it
    for a, b in itertools.product(records, repeat=2):
        assert (a == b) == (twin_of(a) == twin_of(b))
        assert (a != b) == (twin_of(a) != twin_of(b))


# ---------------------------------------------------------------------------
# Set expressions and series rebuilt the long way
# ---------------------------------------------------------------------------


def assert_public_twin(node, twins: dict):
    """Rebuild node through the public constructors and return the rebuilt twin.

    Every node below node, node included, must equal its twin both ways,
    with an equal hash and depth; a Product must also hold its twin's runs.
    twins maps id(node) -> twin, so a node shared below several others is
    rebuilt once and its twin is shared the same way.
    """
    twin = twins.get(id(node))
    if twin is not None:
        return twin
    cls = type(node)
    if cls in (Product, DisjointUnion):
        twin = cls(tuple(assert_public_twin(child, twins) for child in node.children))
    elif cls is Difference:
        twin = cls(
            assert_public_twin(node.ambient, twins), assert_public_twin(node.closed_subset, twins)
        )
    else:
        twin = cls(*(getattr(node, name) for name in cls._fields))
    assert twin == node and node == twin and hash(twin) == hash(node)
    if cls in (Product, DisjointUnion, Difference):
        assert node.depth == twin.depth
    if cls is Product:
        assert [(twins[id(child)], count) for child, count in node.runs] == list(twin.runs)
    twins[id(node)] = twin
    return twin


def expand_rational_form(rank: int, a: LaurentPolynomial, b: LaurentPolynomial, n: int):
    """The T^n coefficient of X * (A + B * Y), term by term; see the arcspace docstring.

    The oracle of zeta_closed_form's recurrence: one product of B by the
    geometric sum of the T^n terms of X * Y, plus A u^(-rank*n/2) at even n.
    """
    # the T^n terms of X * Y: u^(-rank*e) T^(2e) times u^(-k) T^k, k = n - 2e >= 1
    total = b * LaurentPolynomial((-(n - 2 * e) - rank * e, 1) for e in range(1, (n + 1) // 2))
    if n % 2 == 0:
        total = total + a * LaurentPolynomial.monomial(-rank * (n // 2))
    return total
