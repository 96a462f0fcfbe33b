"""Seeded request pools for the arczeta benchmark, and the output checks.

A workload is a pool of distinct CLI requests built from the seed before
anything is timed.  Every request carries what its generator knows about
the input, so its output can be checked by a route that does not pass
through the code path that produced it:

* zeta --strata: the series against ``zeta_closed_form`` (closed formulas,
  not stratification), and every stratum report against its own total.
* discriminate: the germs are built with a known diagonal quadratic block,
  so their inertias are known by construction; the witness must be n = 2
  with the first selector whose closed-form T^2 coefficients differ.
* inertia and split: the Hessian is read off the generated terms and its
  inertia is counted by ``charpoly_inertia`` (characteristic polynomial),
  not by congruence; a split must pass ``verify_split``, which re-expands
  the germ under the reported change of coordinates.
* selfcheck: ``"ok": true`` with the per-grid counts of ``--max 12``.

The parameters that set a request's cost (zeta order and selector, germ
size and jet order) are laid out on a fixed grid, so every seed gets the
same spread of request sizes; the seed draws everything else (dimensions,
signatures, terms).  Request cost grows roughly with the cube of the zeta
order, so sampling orders at random would move the latency percentiles with
the seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from arczeta import arcspace, germ as germs
from arczeta.algebra import ZERO, LaurentPolynomial

SELECTORS = ("naive", "plus", "minus")

# Grid names and identity counts printed by `selfcheck --max 12 --json`.
SELFCHECK_COUNTS = (
    ("closed-form/oracle grid", 507),
    ("level-set sign symmetry grid", 169),
    ("cone fibration relation grid", 144),
    ("projective difference grid", 144),
    ("dimension/degree grid", 454),
    ("signed T^2 round-trip grid", 156),
    ("zeta stratification/closed-form grid", 1386),
    ("zeta series law grid", 847),
    ("naive T^2 min/max recovery grid", 57),
    ("inertia congruence/charpoly grid", 300),
    ("splitting residual grid", 42),
)


@dataclass(frozen=True)
class Request:
    """One CLI invocation: its argv and what the generator knows about it."""

    kind: str
    argv: tuple
    spec: dict


class CheckFailed(Exception):
    """An output that disagrees with the independent route."""


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count integers from lo..hi, one per equal slice of the range, shuffled."""
    width = hi - lo + 1
    values = [lo + int((i + rng.random()) * width / count) for i in range(count)]
    rng.shuffle(values)
    return values


def _random_terms(rng: random.Random, nvars: int, lo: int, hi: int, count: int) -> dict:
    """count random monomials of total degree lo..hi with small rational coefficients."""
    terms: dict[tuple, Fraction] = {}
    for _ in range(count):
        exps = [0] * nvars
        for _ in range(rng.randint(lo, hi)):
            exps[rng.randrange(nvars)] += 1
        key = tuple(exps)
        coeff = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return {exps: coeff for exps, coeff in terms.items() if coeff}


def _germ_text(terms: dict) -> str:
    """Render terms in the CLI's germ grammar, e.g. ``-3/2*x1^2*x3 + x2^3``."""
    parts = []
    for exps in sorted(terms):
        coeff = terms[exps]
        factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e]
        magnitude = abs(coeff)
        body = "*".join(factors if magnitude == 1 else [str(magnitude)] + factors)
        sign = "-" if coeff < 0 else "+"
        parts.append(f"{sign}{body}" if not parts else f" {sign} {body}")
    text = "".join(parts)
    return text[1:] if text.startswith("+") else text


def _germ_json(nvars: int, terms: dict) -> str:
    payload = {
        "nvars": nvars,
        "terms": [[list(exps), str(coeff)] for exps, coeff in sorted(terms.items())],
    }
    return json.dumps(payload, separators=(",", ":"))


def _hessian(nvars: int, terms: dict) -> list[list[Fraction]]:
    matrix = [[Fraction(0)] * nvars for _ in range(nvars)]
    for exps, coeff in terms.items():
        if sum(exps) != 2:
            continue
        support = [i for i, e in enumerate(exps) if e]
        if len(support) == 1:
            matrix[support[0]][support[0]] = 2 * coeff
        else:
            i, j = support
            matrix[i][j] = matrix[j][i] = coeff
    return matrix


def _inertia_json(nvars: int, plus: int, minus: int) -> dict:
    rank = plus + minus
    return {"s": plus, "t": minus, "rank": rank, "corank": nvars - rank, "index": minus}


def _interleave(*groups: list) -> list:
    """Merge groups, each listed from cheap to costly, so that every prefix
    of the result holds each group's share of requests at every size.

    Rank i of a group of n goes to position frac(i * golden ratio); such
    points spread evenly over [0, 1) for every prefix of i (three-gap
    theorem), so a timed phase that stops mid-cycle still sees the same
    cost profile.
    """
    golden = (5 ** 0.5 - 1) / 2
    keyed = [
        ((rank * golden) % 1.0, g, rank, request)
        for g, group in enumerate(groups)
        for rank, request in enumerate(group)
    ]
    return [request for *_, request in sorted(keyed, key=lambda item: item[:3])]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def series_pool(seed: int) -> list[Request]:
    """About 70% `zeta --strata` and 30% `discriminate`: the arcspace-bound path.

    Every (order, selector) pair with order 8..40 appears once, and
    discriminate orders cover 6..30 evenly, so the cost profile is the same
    for every seed; the seed draws the germs.
    """
    rng = random.Random(seed)
    zeta, disc = [], []
    for order in range(8, 41):
        for selector in SELECTORS:
            dim = rng.randint(1, 16)
            rank = rng.randint(1, dim)
            plus = rng.randint(0, rank)
            argv = (
                "zeta", "--strata", "--json", "--dim", str(dim), "--plus", str(plus),
                "--minus", str(rank - plus), "--selector", selector, "--order", str(order),
            )
            spec = {"dim": dim, "plus": plus, "minus": rank - plus, "selector": selector, "order": order}
            zeta.append(Request("zeta", argv, spec))
    orders = sorted(_stratified(rng, 6, 30, 42))
    nvars_list = _stratified(rng, 2, 6, len(orders))
    for index, (nvars, order) in enumerate(zip(nvars_list, orders)):
        f = _diagonal_germ(rng, nvars)
        # every third pair shares f's inertia, so both verdicts occur
        g = _diagonal_germ(rng, nvars, signs=f[0] if index % 3 == 0 else None)
        argv = (
            "discriminate", "--json", f"--f={_germ_json(nvars, f[1])}",
            f"--g={_germ_json(nvars, g[1])}", "--order", str(order),
        )
        spec = {"nvars": nvars, "order": order, "f": f, "g": g}
        disc.append(Request("discriminate", argv, spec))
    return _interleave(zeta, disc)


def _diagonal_germ(rng: random.Random, nvars: int, signs=None, top: int = 4):
    """A diagonal quadratic block with the given signs (random if None) plus
    random terms of degree 3..top; returns (signs, terms)."""
    if signs is None:
        rank = rng.randint(1, nvars)
        signs = tuple(rng.choice((1, -1)) for _ in range(rank))
    slots = rng.sample(range(nvars), len(signs))
    terms = _random_terms(rng, nvars, 3, top, rng.randint(1, 4)) if top >= 3 else {}
    for slot, sign in zip(slots, signs):
        exps = tuple(2 if i == slot else 0 for i in range(nvars))
        terms[exps] = sign * Fraction(rng.randint(1, 3), rng.randint(1, 2))
    return tuple(sorted(signs, reverse=True)), terms


def germ_pool(seed: int) -> list[Request]:
    """`inertia` and `split` on random singular germs: germ and cli only.

    For each (variables 2..4, degree 2..4) pair: 24 `inertia` requests
    on germs with random terms of degree 2..degree, and `split` six times
    at each jet order 3..6, so the cost profile is the same for every seed;
    the seed draws the terms.  Split germs have a diagonal quadratic block
    (random rank and signs) under their random terms of degree 3..degree:
    with random cross terms in the Hessian, a few splits at jet 5..6 cost
    several hundred times the median one, and the mean and p95 of a pool
    then depend on the seed (see README.md).
    """
    rng = random.Random(seed)
    inertia, split = [], []
    for nvars in range(2, 5):
        for degree in range(2, 5):
            for _ in range(24):
                terms = {}
                while not terms:
                    terms = _random_terms(rng, nvars, 2, degree, rng.randint(1, 6))
                argv = ("inertia", "--json", f"--poly={_germ_text(terms)}", "--dim", str(nvars))
                inertia.append(Request("inertia", argv, {"nvars": nvars, "terms": terms}))
            for jet in (3, 4, 5, 6) * 6:
                _, terms = _diagonal_germ(rng, nvars, top=degree)
                argv = (
                    "split", "--json", f"--poly={_germ_text(terms)}", "--dim", str(nvars),
                    "--jet", str(jet),
                )
                split.append(Request("split", argv, {"nvars": nvars, "terms": terms, "jet": jet}))
    return _interleave(inertia, split)


def selfcheck_pool(seed: int) -> list[Request]:
    """The identity batch itself; its input does not depend on the seed."""
    return [Request("selfcheck", ("selfcheck", "--max", "12", "--json"), {})]


POOLS = {"series": series_pool, "germ": germ_pool, "selfcheck": selfcheck_pool}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _check_zeta(spec: dict, payload: dict):
    quad = arcspace.QuadraticGerm(dim=spec["dim"], plus=spec["plus"], minus=spec["minus"])
    selector, order = spec["selector"], spec["order"]
    closed = arcspace.zeta_closed_form(quad, selector, order)
    _require(payload["series"] == closed.to_json(), "series differs from zeta_closed_form")
    reports = payload["strata"]
    _require([r["n"] for r in reports] == list(range(1, order + 1)), "stratum reports out of order")
    for report in reports:
        _require(report["selector"] == selector, f"stratum selector at n={report['n']}")
        total = LaurentPolynomial.from_json(report["total_beta"])
        summed = ZERO
        for stratum in report["strata"]:
            summed = summed + LaurentPolynomial.from_json(stratum["beta"])
        _require(summed == total, f"stratum betas do not sum to total_beta at n={report['n']}")
        normalized = total * LaurentPolynomial.monomial(-report["n"] * spec["dim"])
        _require(
            normalized == closed.coefficient(report["n"]),
            f"total_beta differs from the closed form at n={report['n']}",
        )


def _check_discriminate(spec: dict, payload: dict):
    nvars = spec["nvars"]
    (signs_f, terms_f), (signs_g, terms_g) = spec["f"], spec["g"]
    inertia_f = (signs_f.count(1), signs_f.count(-1))
    inertia_g = (signs_g.count(1), signs_g.count(-1))
    expected = {
        "verdict": "not_distinguished_up_to",
        "order": spec["order"],
        "conditional": any(sum(e) >= 3 for terms in (terms_f, terms_g) for e in terms),
        "inertia_f": _inertia_json(nvars, *inertia_f),
        "inertia_g": _inertia_json(nvars, *inertia_g),
    }
    if inertia_f != inertia_g:
        for selector in SELECTORS:
            t2 = [
                arcspace.coefficient_closed_form(
                    arcspace.QuadraticGerm(dim=nvars, plus=p, minus=m), 2, selector
                )
                for p, m in (inertia_f, inertia_g)
            ]
            if t2[0] != t2[1]:
                expected.update(verdict="distinguished", selector=selector, n=2)
                break
    _require(payload == expected, f"expected {expected}")


def _charpoly_inertia(spec: dict) -> dict:
    plus, minus = germs.charpoly_inertia(_hessian(spec["nvars"], spec["terms"]))
    return _inertia_json(spec["nvars"], plus, minus)


def _check_inertia(spec: dict, payload: dict):
    expected = _charpoly_inertia(spec)
    _require(payload == expected, f"expected {expected}")


def _check_split(spec: dict, payload: dict):
    nvars = spec["nvars"]
    inertia = _charpoly_inertia(spec)
    _require(payload["inertia"] == inertia, f"inertia differs from charpoly {inertia}")
    _require(payload["jet_order"] == spec["jet"], "wrong jet order")
    quadratic = germs.PolynomialGerm.from_json(payload["quadratic_part"])
    for exps, coeff in quadratic.terms().items():
        support = [i for i, e in enumerate(exps) if e]
        _require(
            len(support) == 1 and exps[support[0]] == 2 and support[0] < inertia["rank"],
            "quadratic part is not diagonal in the rank variables",
        )
        _require((coeff > 0) == (support[0] < inertia["s"]), "quadratic signs differ from the inertia")
    _require(len(quadratic.terms()) == inertia["rank"], "quadratic part misses a square")
    result = germs.SplitResult(
        change=tuple(germs.PolynomialGerm.from_json(c) for c in payload["change"]),
        quadratic_part=quadratic,
        remainder=germs.PolynomialGerm.from_json(payload["remainder"]),
        inertia=germs.Inertia(plus=inertia["s"], minus=inertia["t"], corank=inertia["corank"]),
        jet_order=spec["jet"],
    )
    _require(
        germs.verify_split(germs.PolynomialGerm(nvars, spec["terms"]), result),
        "verify_split rejects the split",
    )


def _check_selfcheck(spec: dict, payload: dict):
    _require(payload["ok"] is True, "selfcheck reports a failure")
    counts = tuple((c["name"], c["count"]) for c in payload["checks"])
    _require(counts == SELFCHECK_COUNTS, f"grid counts {counts}")
    _require(all(not c["failures"] for c in payload["checks"]), "a grid lists failures")


CHECKS = {
    "zeta": _check_zeta,
    "discriminate": _check_discriminate,
    "inertia": _check_inertia,
    "split": _check_split,
    "selfcheck": _check_selfcheck,
}


def check(request: Request, output: str):
    """Raise CheckFailed unless output is the right answer to request."""
    try:
        payload = json.loads(output)
        CHECKS[request.kind](request.spec, payload)
    except CheckFailed:
        raise
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        raise CheckFailed(f"unreadable output: {type(exc).__name__}: {exc}") from exc
