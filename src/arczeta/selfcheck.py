"""The selfcheck batch: every dual-route identity, checked on a grid.

Each grid is a generator of (label, ok) pairs, one pair per identity it
checks; run_selfcheck counts them and keeps the labels of the failures.  A
route that raises ends its grid there: the exception counts as one more
failed identity, labelled with its type and detail, and the next grid runs.
The grids call the closed forms through the scissor module attribute, so
a patched closed form is what they see.  The three grids that read the
engine's zeta series share one dict per run, local to run_selfcheck, which
calls arcspace.zeta_series once per (germ, selector, order).

The grids fall into two families that share no state.  The inertia and
splitting grids touch only the germ module; the other nine read the closed
forms, the engine and its caches.  run_selfcheck forks once: a child runs the
two germ grids and sends their reports back through a pipe, marshalled,
while the parent runs the nine; the reports come back in GRIDS order, so the
output is the same either way.  Every grid runs in the one process where
os.fork is missing or fails, where a trace or profile hook is set (so a
tracer, coverage or cProfile sees every call), and where another thread runs.
When the child's reports are missing or unreadable, the parent runs the two
germ grids itself, so no answer depends on the fork.

The random generators below also feed the test suite, so the grids and the
tests draw the same matrices and germs from the same seeds.
"""

import marshal
import os
import random
import sys
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


def _round_trip(bound, engine):
    for dim in range(1, min(8, max(bound, 2)) + 1):
        for plus, minus in signature_pairs(dim):
            quad = arcspace.QuadraticGerm(dim=dim, plus=plus, minus=minus)
            c_plus = engine(quad, arcspace.PLUS, 2).coefficient(2)
            c_minus = engine(quad, arcspace.MINUS, 2).coefficient(2)
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
                series = engine(quad, selector, 6)
                # the rational form, built once per (germ, selector)
                closed = arcspace.zeta_closed_form(quad, selector, 6)
                for n in range(1, 7):
                    label = f"(d={dim}, s={plus}, t={minus}, n={n}, {selector})"
                    yield label, series.coefficient(n) == closed.coefficient(n)


def _zeta_laws(bound, engine):
    order = 6
    for dim in range(1, min(6, max(bound, 2)) + 1):
        for plus, minus in signature_pairs(dim):
            where = f"d={dim}, s={plus}, t={minus}"
            quad = arcspace.QuadraticGerm(dim=dim, plus=plus, minus=minus)
            grown = arcspace.QuadraticGerm(dim=dim + 1, plus=plus, minus=minus)
            swapped = arcspace.QuadraticGerm(dim=dim, plus=minus, minus=plus)
            # built once per selector and shared by every law below
            series_of = {sel: engine(quad, sel, order) for sel in arcspace.SELECTORS}
            for selector, series in series_of.items():
                stable = series == engine(grown, selector, order)
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
            swap = plus_series == engine(swapped, arcspace.MINUS, order)
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


def _inertia_two_paths(bound):
    rng = random.Random(20260809)
    top = min(8, max(bound, 2))
    for number in range(1, 301):
        size = rng.randint(1, top)
        matrix = random_symmetric(rng, size)
        congruence = germs.congruence_inertia(matrix)
        yield f"matrix #{number} (size {size})", congruence == germs.charpoly_inertia(matrix)


def _split_holds(germ, jet_order) -> bool:
    return germs.verify_split(germ, germs.split_jet(germ, jet_order))


def _split_residuals(bound):
    named = ("x1^2 + 2*x1*x2^2", "x1^2 + x1*x3^3", "x1*x2 + x2^3")
    for text in named:
        for jet_order in range(3, 7):
            yield f"({text!r}, jet {jet_order})", _split_holds(germs.parse_germ(text), jet_order)
    rng = random.Random(14091961)
    for index in range(30):
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

# the grids that take the run's engine series as a second argument
_READS_ENGINE = (_round_trip, _zeta_two_paths, _zeta_laws)
# the grids that touch only the germ module, so a forked child may run them
_GERM_ONLY = (_inertia_two_paths, _split_residuals)


def _report(name, grid, *args) -> tuple[str, int, list[str]]:
    """(name, identity count, failure labels) of one grid run on args."""
    count, failures = 0, []
    try:
        for label, ok in grid(*args):
            count += 1
            if not ok:
                failures.append(label)
    except Exception as exc:  # a broken route fails its grid, not the batch
        count += 1
        failures.append(f"raised {type(exc).__name__}: {exc}")
    return name, count, failures


def _germ_reports(bound: int) -> list[tuple[str, int, list[str]]]:
    return [_report(name, grid, bound) for name, grid in GRIDS if grid in _GERM_ONLY]


def _fork_germ_grids(bound: int):
    """(pid, read end of its pipe) of a child that sends the germ grids' reports, or None.

    None, and no child, where os.fork is missing or fails, where a trace or
    profile hook is set (it would not see the child's calls), and where
    another thread runs (forking it is unsafe; CPython 3.12+ warns).  The
    child writes the marshalled reports and leaves by os._exit, so it flushes
    no buffer and runs no exit handler of the parent's.
    """
    monitoring = getattr(sys, "monitoring", None)  # 3.12+: where cProfile hooks in
    threading = sys.modules.get("threading")  # not imported: none of its threads runs
    if (
        not hasattr(os, "fork")
        or sys.gettrace() is not None
        or sys.getprofile() is not None
        or (monitoring is not None and any(monitoring.get_tool(i) is not None for i in range(6)))
        or (threading is not None and threading.active_count() > 1)
    ):
        return None
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the parent runs the grids
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(_germ_reports(bound)))
        finally:
            os._exit(0)
    os.close(write_end)
    return pid, open(read_end, "rb")


def run_selfcheck(bound: int) -> tuple[list[tuple[str, int, list[str]]], bool]:
    """Run every identity grid up to the bound; returns (reports, all_ok)."""
    if bound < 2:
        raise ValueError("selfcheck bound must be at least 2")
    series = {}

    def engine(germ, selector: str, order: int) -> TruncatedSeries:
        """zeta_series(germ, selector, order), computed once per run."""
        key = (germ, selector, order)
        if key not in series:
            series[key] = arcspace.zeta_series(germ, selector, order)
        return series[key]

    child = _fork_germ_grids(bound)
    reports, sent = {}, None
    try:
        for name, grid in GRIDS:
            if grid in _READS_ENGINE:
                reports[name] = _report(name, grid, bound, engine)
            elif grid not in _GERM_ONLY:
                reports[name] = _report(name, grid, bound)
        if child is not None:
            try:
                sent = marshal.loads(child[1].read())
            except (EOFError, ValueError):  # the child died before it wrote all of it
                pass
    finally:
        if child is not None:
            pid, pipe = child
            pipe.close()
            os.waitpid(pid, 0)
    # in process, or when nothing readable came back, the germ grids run here
    reports.update((report[0], report) for report in sent or _germ_reports(bound))
    ordered = [reports[name] for name, _ in GRIDS]
    return ordered, all(not failures for _, _, failures in ordered)
