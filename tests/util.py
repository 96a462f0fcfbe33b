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

from arczeta import LaurentPolynomial, PolynomialGerm
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
