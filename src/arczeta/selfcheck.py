"""The selfcheck batch: every dual-route identity, checked on a grid.

Each grid is a generator of (label, ok) pairs, one pair per identity it
checks; run_selfcheck counts them and keeps the labels of the failures.  A
route that raises ends its grid there: the exception counts as one more
failed identity, labelled with its type and detail, and the next grid runs.
The grids call the closed forms through the scissor module attribute, so
a patched closed form is what they see.  The three grids that read the
engine's zeta coefficients share one table per run (_EngineCoefficients),
which calls stratify through the arcspace module attribute once per key.

The random generators below also feed the test suite, so the grids and the
tests draw the same matrices and germs from the same seeds.
"""

import random
from fractions import Fraction

from . import arcspace, germ as germs, scissor
from .algebra import LaurentPolynomial, TruncatedSeries
from .errors import NotSignatureForm
from .scissor import QuadricAffine

__all__ = ["run_selfcheck", "signature_pairs", "random_symmetric", "random_singular_germ"]


def signature_pairs(max_rank: int):
    """Every (plus, minus) with 1 <= plus + minus <= max_rank."""
    for rank in range(1, max_rank + 1):
        for plus in range(rank + 1):
            yield plus, rank - plus


def random_symmetric(rng: random.Random, size: int) -> list[list[Fraction]]:
    """A symmetric matrix with small rational entries."""
    matrix = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1):
            value = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
            matrix[i][j] = value
            matrix[j][i] = value
    return matrix


def random_singular_germ(
    rng: random.Random, nvars: int, max_degree: int = 4
) -> germs.PolynomialGerm:
    """A germ with zero constant and linear parts, degree <= max_degree."""
    terms: dict[tuple, Fraction] = {}
    for _ in range(rng.randint(1, 6)):
        degree = rng.randint(2, max_degree)
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.randrange(nvars)] += 1
        coefficient = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if coefficient:
            key = tuple(exps)
            terms[key] = terms.get(key, Fraction(0)) + coefficient
    return germs.PolynomialGerm(nvars, terms)


# ---------------------------------------------------------------------------
# the grids
# ---------------------------------------------------------------------------


def _closed_form(c: int, s: int, t: int) -> LaurentPolynomial:
    if c == 0:
        return scissor.beta_cone(s, t)
    return scissor.beta_level(s, t, c)


def _closed_vs_engine(bound):
    for c in (-1, 0, 1):
        for s in range(bound + 1):
            for t in range(bound + 1):
                engine = scissor.beta_eval(QuadricAffine(c, s, t))
                yield f"(c={c}, s={s}, t={t})", engine == _closed_form(c, s, t)


def _level_symmetry(bound):
    for s in range(bound + 1):
        for t in range(bound + 1):
            yield f"(s={s}, t={t})", scissor.beta_level(s, t, -1) == scissor.beta_level(t, s, 1)


def _cone_relation(bound):
    for m in range(1, bound + 1):
        for M in range(1, bound + 1):
            yield f"(m={m}, M={M})", scissor.cone_relation_check(m, M)


def _projective_difference(bound):
    projective = scissor.beta_projective_quadric
    for s in range(1, bound + 1):
        for t in range(1, bound + 1):
            if s <= t:
                expected = projective(s, t + 1) - projective(s, t)
            else:
                expected = projective(t + 1, s) - projective(t, s)
            yield f"(s={s}, t={t})", scissor.beta_level(s, t, 1) == expected


def _degree_bound(bound):
    for c in (-1, 0, 1):
        for s in range(bound + 1):
            for t in range(bound + 1):
                if c == 0:
                    relevant = min(s, t) >= 1
                elif c == 1:
                    relevant = s >= 1 and s + t >= 2
                else:
                    relevant = t >= 1 and s + t >= 2
                if relevant:
                    degree = scissor.beta_eval(QuadricAffine(c, s, t)).degree()
                    yield f"(c={c}, s={s}, t={t})", degree == s + t - 1


class _EngineCoefficients(dict):
    """The engine route's normalized zeta coefficients, stratified once per key.

    Maps (germ, n, selector), the germ standing for its (dim, plus, minus),
    to stratify(germ, n, selector).total_beta * u^(-n*dim): the T^n
    coefficient of zeta_series.  A key is filled on first use; a stratify
    that raises fills nothing, so the next read raises again.  Only the
    coefficients are kept, not the reports and their set expressions, and
    equal coefficients of different keys (a germ and its grown germ, say)
    share one object: a comparison of two entries reads the same either
    way.  The orders of one (germ, selector) share one set of factor nodes
    (arcspace._SharedStrata), kept for the run.  run_selfcheck makes one
    table per run, so nothing outlives it.
    """

    __slots__ = ("_distinct", "_shared")

    def __init__(self):
        super().__init__()
        self._distinct = {}
        self._shared = {}

    def __missing__(self, key):
        germ, n, selector = key
        shared = self._shared.get((germ, selector))
        if shared is None:
            shared = self._shared[germ, selector] = arcspace._SharedStrata(germ, selector)
        value = arcspace.stratify(germ, n, selector, shared).total_beta
        value = value * LaurentPolynomial.monomial(-n * germ.dim)
        value = self[key] = self._distinct.setdefault(value, value)
        return value

    def series(self, germ, selector: str, order: int) -> TruncatedSeries:
        """zeta_series(germ, selector, order), read from the table."""
        return TruncatedSeries(order, {n: self[germ, n, selector] for n in range(1, order + 1)})


def _round_trip(bound, engine):
    for dim in range(1, min(8, max(bound, 2)) + 1):
        for plus, minus in signature_pairs(dim):
            quad = arcspace.QuadraticGerm(dim=dim, plus=plus, minus=minus)
            c_plus = engine.series(quad, arcspace.PLUS, 2).coefficient(2)
            c_minus = engine.series(quad, arcspace.MINUS, 2).coefficient(2)
            try:
                recovered = germs.recover_signature(c_plus, c_minus)
            except NotSignatureForm:
                recovered = None  # a rejected coefficient fails this identity only
            yield f"(d={dim}, s={plus}, t={minus})", recovered == (plus, minus)


def _zeta_two_paths(bound, engine):
    for dim in range(1, min(6, max(bound, 2)) + 1):
        for plus, minus in signature_pairs(dim):
            quad = arcspace.QuadraticGerm(dim=dim, plus=plus, minus=minus)
            for selector in arcspace.SELECTORS:
                for n in range(1, 7):
                    stratified = engine[quad, n, selector]
                    closed = arcspace.coefficient_closed_form(quad, n, selector)
                    label = f"(d={dim}, s={plus}, t={minus}, n={n}, {selector})"
                    yield label, stratified == closed


def _zeta_laws(bound, engine):
    order = 6
    for dim in range(1, min(6, max(bound, 2)) + 1):
        for plus, minus in signature_pairs(dim):
            where = f"d={dim}, s={plus}, t={minus}"
            quad = arcspace.QuadraticGerm(dim=dim, plus=plus, minus=minus)
            grown = arcspace.QuadraticGerm(dim=dim + 1, plus=plus, minus=minus)
            swapped = arcspace.QuadraticGerm(dim=dim, plus=minus, minus=plus)
            # built once per selector and shared by every law below
            series_of = {sel: engine.series(quad, sel, order) for sel in arcspace.SELECTORS}
            for selector, series in series_of.items():
                stable = series == engine.series(grown, selector, order)
                yield f"stabilization ({where}, {selector})", stable
                yield f"T^1 ({where}, {selector})", series.coefficient(1).is_zero()
                yield f"degree bound ({where}, {selector})", not any(
                    not series.coefficient(n).is_zero()
                    and series.coefficient(n).degree() > 0
                    for n in range(1, order + 1)
                )
            plus_series = series_of[arcspace.PLUS]
            minus_series = series_of[arcspace.MINUS]
            yield f"odd symmetry ({where})", all(
                plus_series.coefficient(n) == minus_series.coefficient(n)
                for n in range(1, order + 1, 2)
            )
            swap = plus_series == engine.series(swapped, arcspace.MINUS, order)
            yield f"sign swap ({where})", swap


def _minmax_recovery(bound):
    for m in range(1, 7):
        for M in range(m, max(min(12, bound), 8) + 1):
            outcome = germs.recover_minmax(arcspace.naive_t2_coefficient(m, M))
            if M == m + 1:
                good = outcome.status == "ambiguous"
            else:
                good = outcome.status == "determined" and (outcome.m, outcome.M) == (m, M)
            yield f"(m={m}, M={M})", good


def _inertia_two_paths(bound, samples=300):
    rng = random.Random(20260809)
    top = min(8, max(bound, 2))
    for number in range(1, samples + 1):
        size = rng.randint(1, top)
        matrix = random_symmetric(rng, size)
        congruence = germs.congruence_inertia(matrix)
        yield f"matrix #{number} (size {size})", congruence == germs.charpoly_inertia(matrix)


def _split_holds(germ, jet_order) -> bool:
    return germs.verify_split(germ, germs.split_jet(germ, jet_order))


def _split_residuals(bound, samples=30):
    named = ("x1^2 + 2*x1*x2^2", "x1^2 + x1*x3^3", "x1*x2 + x2^3")
    for text in named:
        for jet_order in range(3, 7):
            yield f"({text!r}, jet {jet_order})", _split_holds(germs.parse_germ(text), jet_order)
    rng = random.Random(14091961)
    for index in range(samples):
        germ = random_singular_germ(rng, rng.randint(1, 4))
        jet_order = 3 + index % 4
        yield f"(random germ #{index}, jet {jet_order})", _split_holds(germ, jet_order)


GRIDS = (
    ("closed-form/oracle grid", _closed_vs_engine),
    ("level-set sign symmetry grid", _level_symmetry),
    ("cone fibration relation grid", _cone_relation),
    ("projective difference grid", _projective_difference),
    ("dimension/degree grid", _degree_bound),
    ("signed T^2 round-trip grid", _round_trip),
    ("zeta stratification/closed-form grid", _zeta_two_paths),
    ("zeta series law grid", _zeta_laws),
    ("naive T^2 min/max recovery grid", _minmax_recovery),
    ("inertia congruence/charpoly grid", _inertia_two_paths),
    ("splitting residual grid", _split_residuals),
)

# the grids that take the run's _EngineCoefficients as a second argument
_READS_ENGINE = (_round_trip, _zeta_two_paths, _zeta_laws)


def run_selfcheck(bound: int) -> tuple[list[tuple[str, int, list[str]]], bool]:
    """Run every identity grid up to the bound; returns (reports, all_ok)."""
    if bound < 2:
        raise ValueError("selfcheck bound must be at least 2")
    engine = _EngineCoefficients()
    reports = []
    for name, grid in GRIDS:
        count, failures = 0, []
        try:
            for label, ok in grid(bound, engine) if grid in _READS_ENGINE else grid(bound):
                count += 1
                if not ok:
                    failures.append(label)
        except Exception as exc:  # a broken route fails its grid, not the batch
            count += 1
            failures.append(f"raised {type(exc).__name__}: {exc}")
        reports.append((name, count, failures))
    return reports, all(not failures for _, _, failures in reports)
