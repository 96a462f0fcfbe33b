"""Arc-space stratification and zeta functions of diagonal quadratic germs.

Setup.  Fix q(w) = w_1^2 + ... + w_plus^2 - w_(plus+1)^2 - ... - w_(plus+minus)^2
and consider f = q on R^dim, acting on the first rank = plus + minus
coordinates (the w-block) and ignoring the remaining dim - rank ones (the
z-block).  A truncated arc of order n through the origin is
gamma(T) = a_1 T + ... + a_n T^n with a_i in R^dim, so the space of such
arcs is R^(n*dim).  Writing B for the polar bilinear form of q (on the
w-block, where it is nondegenerate),

    f(gamma(T)) = sum_k c_k T^k,   c_k = sum_(i+j=k) B(a_i^w, a_j^w).

The sets stratified here are cut out of R^(n*dim) by conditions on the c_k:

    naive:  c_2 = ... = c_(n-1) = 0 and c_n != 0   ("order exactly n"),
    plus:   c_2 = ... = c_(n-1) = 0 and c_n = +1,
    minus:  c_2 = ... = c_(n-1) = 0 and c_n = -1.

Stratification.  Let e be the order of the w-block, i.e. a_1^w = ... =
a_(e-1)^w = 0 and a_e^w != 0.  The lowest term of f(gamma) is c_(2e) =
q(a_e^w), so membership forces 2e <= n, and e runs over 1..floor(n/2).
Within the stratum of a fixed e:

* e < n/2.  c_(2e) = q(a_e^w) must vanish, so a_e^w lies on the cone minus
  the origin.  For 2e < k < n the condition c_k = 0 reads
  2 B(a_e^w, a_(k-e)^w) + (terms in strictly earlier coefficients) = 0;
  since B(a_e^w, .) is a nonzero linear form, each such condition puts
  a_(k-e)^w on an affine hyperplane of R^rank.  There are n - 2e - 1 of
  them.  The final condition on a_(n-e)^w is a parallel hyperplane (signed
  case, c_n = +-1) or the complement of one (naive case, c_n != 0).  The
  coefficients a_(n-e+1)^w .. a_n^w are free, as is the whole z-block.
  Partitioning the cone minus the origin by the first nonvanishing
  coordinate of B(a_e^w, .) makes every piece an algebraic product, so the
  stratum is a product in the scissor calculus and

      beta = (beta_cone - 1) * u^((rank-1)(n-2e-1)) * L * u^(rank*e) * u^(n(dim-rank)),

  with L = u^(rank-1) for the signed sets and L = u^rank - u^(rank-1) for
  the naive one.

* e = n/2 (n even).  Here c_n = q(a_e^w) itself, so the leading vector
  ranges over the level set {q = +-1} (signed) or over the complement of
  the cone in R^rank (naive, which subsumes a_e^w != 0); the later w
  coefficients a_(e+1)^w .. a_n^w and the z-block are free.

Summing the strata and collapsing the hyperplane powers gives the closed
forms implemented in coefficient_closed_form:

    beta(signed, n) = u^(n(dim-rank)) * [ sum_(e=1)^(ceil(n/2)-1)
        (beta_cone - 1) u^((n-2e)(rank-1)) u^(e*rank)
        + [n even] beta_level(level) u^(n*rank/2) ],

    beta(naive, n)  = u^(n(dim-rank)) * [ sum_(e=1)^(ceil(n/2)-1)
        (beta_cone - 1) (u-1) u^((n-2e)(rank-1)) u^(e*rank)
        + [n even] (u^rank - beta_cone) u^(n*rank/2) ].

stratify builds the strata as set expressions and evaluates them through
the decomposition engine, which is an independent code path against these
formulas.  The zeta series attaches u^(-n*dim) to the T^n coefficient; in
particular it is unchanged under adding unused ambient coordinates.

No arc is ever enumerated or sampled: everything is a constructible set.
All functions are pure and coefficients for distinct n are independent.
"""

from __future__ import annotations

from ._record import Record, set_field, set_key
from .algebra import ONE, U, ZERO, LaurentPolynomial, TruncatedSeries
from .errors import InvalidGerm
from .scissor import (
    AffineSpace,
    Difference,
    Point,
    Product,
    QuadricAffine,
    beta_cone,
    beta_eval,
    beta_level,
)

__all__ = [
    "NAIVE",
    "PLUS",
    "MINUS",
    "SELECTORS",
    "QuadraticGerm",
    "ArcStratumReport",
    "stratify",
    "zeta_series",
    "series_from_reports",
    "zeta_closed_form",
    "coefficient_closed_form",
    "signed_t2_coefficient",
    "naive_t2_coefficient",
]

NAIVE = "naive"
PLUS = "plus"
MINUS = "minus"
SELECTORS = (NAIVE, PLUS, MINUS)


def _check_selector(selector: str):
    if selector not in SELECTORS:
        raise ValueError(f"selector must be one of {SELECTORS}, got {selector!r}")


class QuadraticGerm(Record):
    """The germ sum of plus squares minus `minus` squares on R^dim."""

    __slots__ = _fields = ("dim", "plus", "minus")

    def __init__(self, dim: int, plus: int, minus: int):
        set_field(self, "dim", dim)
        set_field(self, "plus", plus)
        set_field(self, "minus", minus)
        set_key(self, (dim, plus, minus))
        for name in ("dim", "plus", "minus"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InvalidGerm(f"{name} must be an integer, got {value!r}")
        if self.dim < 1 or self.plus < 0 or self.minus < 0:
            raise InvalidGerm(
                f"need dim >= 1 and nonnegative counts, got {self}"
            )
        if not 1 <= self.plus + self.minus <= self.dim:
            raise InvalidGerm(
                f"need 1 <= plus + minus <= dim, got {self}"
            )

    @property
    def rank(self) -> int:
        return self.plus + self.minus


class ArcStratumReport(Record):
    """The strata of one coefficient set, with their summed beta.

    strata is a tuple of (description, SetExpression) pairs and betas the
    beta of each stratum, in the order of strata.
    """

    __slots__ = _fields = ("n", "selector", "strata", "betas", "total_beta")

    def __init__(
        self, n: int, selector: str, strata: tuple, betas: tuple, total_beta: LaurentPolynomial
    ):
        set_field(self, "n", n)
        set_field(self, "selector", selector)
        set_field(self, "strata", strata)
        set_field(self, "betas", betas)
        set_field(self, "total_beta", total_beta)
        set_key(self, (n, selector, strata, betas, total_beta))


def stratify(germ: QuadraticGerm, n: int, selector: str) -> ArcStratumReport:
    """Partition the order-n coefficient set by the order e of the w-block.

    Each stratum is an algebraic product of scissor atoms (see the module
    docstring for the derivation); beta of the whole set is the sum of
    beta over the strata.
    """
    if not isinstance(germ, QuadraticGerm):
        raise InvalidGerm(f"expected a QuadraticGerm, got {germ!r}")
    _check_selector(selector)
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"order n must be a positive integer, got {n!r}")

    rank = germ.rank
    free_z = n * (germ.dim - rank)
    # the factors the strata share, built once: a repeated child object is
    # evaluated once per run by beta_eval
    cone = QuadricAffine(0, germ.plus, germ.minus)
    punctured_cone = Difference(cone, Point())
    hyperplane = AffineSpace(rank - 1)
    last = Difference(AffineSpace(rank), hyperplane) if selector == NAIVE else hyperplane
    z_block = (AffineSpace(free_z),) if free_z else ()
    strata = []

    for e in range(1, n // 2 + 1):
        if 2 * e < n:
            # leading w vector on the cone minus the origin
            forced = n - 2 * e - 1
            factors = [punctured_cone, *(hyperplane,) * forced, last]
            description = (
                f"w-order e={e}: cone leading vector, {forced} forced hyperplane(s), "
                f"{'nonvanishing' if selector == NAIVE else 'pinned'} last condition, "
                f"{e} free w vector(s)"
            )
        else:
            # n even, e = n/2: the leading vector carries the level condition
            if selector == NAIVE:
                factors = [Difference(AffineSpace(rank), cone)]
            else:
                factors = [QuadricAffine(1 if selector == PLUS else -1, germ.plus, germ.minus)]
            description = (
                f"w-order e={e}: leading vector on the "
                f"{'cone complement' if selector == NAIVE else selector + ' level set'}, "
                f"{e} free w vector(s)"
            )
        strata.append((description, Product((*factors, AffineSpace(rank * e), *z_block))))

    betas = tuple(beta_eval(expression) for _, expression in strata)
    return ArcStratumReport(
        n=n, selector=selector, strata=tuple(strata), betas=betas, total_beta=sum(betas, ZERO)
    )


def zeta_series(germ: QuadraticGerm, selector: str, order: int) -> TruncatedSeries:
    """The zeta series: T^n coefficient beta(coefficient set) * u^(-n*dim)."""
    _check_selector(selector)
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"truncation order must be a positive integer, got {order!r}")
    return series_from_reports(germ, [stratify(germ, n, selector) for n in range(1, order + 1)])


def series_from_reports(germ: QuadraticGerm, reports) -> TruncatedSeries:
    """The zeta series to order len(reports), from the reports of n = 1, 2, ... in turn."""
    coefficients = {
        report.n: report.total_beta * LaurentPolynomial.monomial(-report.n * germ.dim)
        for report in reports
    }
    return TruncatedSeries(len(reports), coefficients)


def coefficient_closed_form(germ: QuadraticGerm, n: int, selector: str) -> LaurentPolynomial:
    """The T^n zeta coefficient straight from the closed forms.

    Independent of the decomposition engine; used to cross-check
    zeta_series stratum by stratum.
    """
    if not isinstance(germ, QuadraticGerm):
        raise InvalidGerm(f"expected a QuadraticGerm, got {germ!r}")
    _check_selector(selector)
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"order n must be a positive integer, got {n!r}")
    rank = germ.rank
    cone = beta_cone(germ.plus, germ.minus)
    total = ZERO
    for e in range(1, (n + 1) // 2):
        piece = (
            (cone - ONE)
            * LaurentPolynomial.monomial((n - 2 * e) * (rank - 1))
            * LaurentPolynomial.monomial(e * rank)
        )
        if selector == NAIVE:
            piece = piece * (U - ONE)
        total = total + piece
    if n % 2 == 0:
        half = LaurentPolynomial.monomial((n // 2) * rank)
        if selector == NAIVE:
            leading = LaurentPolynomial.monomial(rank) - cone
        else:
            leading = beta_level(germ.plus, germ.minus, 1 if selector == PLUS else -1)
        total = total + leading * half
    # u^(n(dim-rank)) for the free z-block times the normalizing u^(-n*dim)
    return total * LaurentPolynomial.monomial(-n * rank)


def zeta_closed_form(germ: QuadraticGerm, selector: str, order: int) -> TruncatedSeries:
    """The zeta series assembled from coefficient_closed_form."""
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"truncation order must be a positive integer, got {order!r}")
    coefficients = {n: coefficient_closed_form(germ, n, selector) for n in range(1, order + 1)}
    return TruncatedSeries(order, coefficients)


def signed_t2_coefficient(plus: int, minus: int, sign: str) -> LaurentPolynomial:
    """The T^2 coefficient of the signed zeta function, for any ambient dim.

    The ambient dimension cancels: the coefficient is
    u^(-(plus+minus)) * beta_level(plus, minus, +-1).
    """
    if sign not in (PLUS, MINUS):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    rank = plus + minus
    if rank < 1:
        raise InvalidGerm("need plus + minus >= 1")
    level = 1 if sign == PLUS else -1
    return LaurentPolynomial.monomial(-rank) * beta_level(plus, minus, level)


def naive_t2_coefficient(plus: int, minus: int) -> LaurentPolynomial:
    """The T^2 coefficient of the naive zeta function, for any ambient dim.

    Equals u^(-rank) * (u^rank - beta_cone); only min(plus, minus) and
    max(plus, minus) enter.
    """
    rank = plus + minus
    if rank < 1:
        raise InvalidGerm("need plus + minus >= 1")
    return LaurentPolynomial.monomial(-rank) * (
        LaurentPolynomial.monomial(rank) - beta_cone(plus, minus)
    )
