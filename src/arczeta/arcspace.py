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

The zeta series attaches u^(-n*dim) to the beta of the order-n set as its
T^n coefficient; in particular it is unchanged under adding unused ambient
coordinates.  stratify_series builds the strata of n = 1..order as set
expressions and evaluates them through the decomposition engine, which is
an independent code path against the rational form below.

The rational form.  Summed over n, the zeta series is one rational
function of T:

    Z(T) = X * (A + B * Y),   X = u^(-rank) T^2 / (1 - u^(-rank) T^2),
                              Y = u^(-1) T / (1 - u^(-1) T),

    signed:  A = beta_level(+-1),       B = beta_cone - 1,
    naive:   A = u^rank - beta_cone,    B = (beta_cone - 1) (u - 1).

Expanding X and X * Y, the T^n coefficient is

    c_n = B * sum_(e=1)^(ceil(n/2)-1) u^(-(n-2e) - rank*e)
          + [n even] A u^(-rank*n/2):

the stratum of each e < n/2 times u^(-n*dim) is the B term of that e, and
the stratum e = n/2 gives the A term.  This is Denef-Loeser's formula for
the blow-up of the origin of R^rank (the z-block cancels).  The exceptional
divisor E = P^(rank-1) has (N, nu) = (2, rank) and gives the pole of X;
the strict transform S of the cone has (1, 1) and gives the pole of Y.  In
the naive case A = (u-1) beta(E minus S) and B = (u-1)^2 beta(E meet S),
where E meet S is the projective quadric.  coefficient_closed_form and
zeta_closed_form read the series off (A, B), and signed_t2_coefficient and
naive_t2_coefficient return its T^2 coefficient u^(-rank) A.

No arc is ever enumerated or sampled: everything is a constructible set.
All functions are pure and coefficients for distinct n are independent.
"""

from ._record import Record, set_key
from .algebra import ONE, U, LaurentPolynomial, TruncatedSeries
from .errors import InvalidGerm
from .scissor import (
    AffineSpace,
    Difference,
    Point,
    Product,
    QuadricAffine,
    _trusted,
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
    "stratify_series",
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


def _check_arguments(germ, selector: str, count, what: str):
    if not isinstance(germ, QuadraticGerm):
        raise InvalidGerm(f"expected a QuadraticGerm, got {germ!r}")
    if selector not in SELECTORS:
        raise ValueError(f"selector must be one of {SELECTORS}, got {selector!r}")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ValueError(f"{what} must be a positive integer, got {count!r}")


class QuadraticGerm(Record):
    """The germ sum of plus squares minus `minus` squares on R^dim."""

    __slots__ = ()
    _fields = ("dim", "plus", "minus")

    def __init__(self, dim: int, plus: int, minus: int):
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

    __slots__ = ()
    _fields = ("n", "selector", "strata", "betas", "total_beta")

    def __init__(
        self, n: int, selector: str, strata: tuple, betas: tuple, total_beta: LaurentPolynomial
    ):
        set_key(self, (n, selector, strata, betas, total_beta))


def stratify_series(germ: QuadraticGerm, selector: str, order: int) -> list[ArcStratumReport]:
    """The reports of n = 1..order: each order-n coefficient set cut by the
    order e of the w-block into strata that are algebraic products of
    scissor atoms (see the module docstring), whose betas sum to its beta.

    The factors that the strata of every order share (the punctured cone,
    the forced hyperplane AffineSpace(rank-1), the last condition, the
    level factor of e = n/2 and one AffineSpace(k) atom per k) are made
    once here, and every stratum is evaluated under one memo of this call,
    which a factor enters when the first stratum using it is evaluated.
    Each product is laid out here as its runs of one repeated child.  Every
    node is built by the trusted scissor._trusted: its fields are read off
    the checked germ, so none is checked again.
    """
    _check_arguments(germ, selector, order, "truncation order")
    plus, minus, rank = germ.plus, germ.minus, germ.rank
    affine = {}

    def affine_space(k: int) -> AffineSpace:
        node = affine.get(k)
        if node is None:
            node = affine[k] = _trusted(AffineSpace, (k,))
        return node

    cone = _trusted(QuadricAffine, (0, plus, minus))
    punctured_cone = _trusted(Difference, (cone, _trusted(Point, ())), 2)
    hyperplane = affine_space(rank - 1)
    if selector == NAIVE:
        last = _trusted(Difference, (affine_space(rank), hyperplane), 2)
        level = _trusted(Difference, (affine_space(rank), cone), 2)
    else:
        last = hyperplane
        level = _trusted(QuadricAffine, (1 if selector == PLUS else -1, plus, minus))
    # the depths of the strata, whose other children are atoms
    cone_depth = 1 + max(punctured_cone.depth, getattr(last, "depth", 1))
    level_depth = 1 + getattr(level, "depth", 1)

    # the runs of the leading factors of an e < n/2 stratum with `forced`
    # hyperplanes, by forced = 0..order-3: a signed last condition is
    # the hyperplane itself, so it closes the hyperplanes' run
    head_runs = []
    for forced in range(order - 2):
        if last is hyperplane:
            head_runs.append(((punctured_cone, 1), (hyperplane, forced + 1)))
        elif forced:
            head_runs.append(((punctured_cone, 1), (hyperplane, forced), (last, 1)))
        else:
            head_runs.append(((punctured_cone, 1), (last, 1)))

    memo = {}
    reports = []
    for n in range(1, order + 1):
        free_z = n * (germ.dim - rank)
        # n = 1 has no strata, so no z-block
        z_block = affine_space(free_z) if free_z and n > 1 else None
        strata = []
        for e in range(1, n // 2 + 1):
            # the w block AffineSpace(rank*e) is never the hyperplane, but it
            # is the z-block when rank*e = free_z
            block = affine_space(rank * e)
            if z_block is None:
                tail_runs = ((block, 1),)
            elif z_block is block:
                tail_runs = ((block, 2),)
            else:
                tail_runs = ((block, 1), (z_block, 1))
            if 2 * e < n:
                # leading w vector on the cone minus the origin
                forced = n - 2 * e - 1
                runs, depth = head_runs[forced] + tail_runs, cone_depth
                description = (
                    f"w-order e={e}: cone leading vector, {forced} forced hyperplane(s), "
                    f"{'nonvanishing' if selector == NAIVE else 'pinned'} last condition, "
                    f"{e} free w vector(s)"
                )
            else:
                # n even, e = n/2: the leading vector carries the level condition
                runs, depth = ((level, 1), *tail_runs), level_depth
                description = (
                    f"w-order e={e}: leading vector on the "
                    f"{'cone complement' if selector == NAIVE else selector + ' level set'}, "
                    f"{e} free w vector(s)"
                )
            strata.append((description, _trusted(Product, runs, depth)))
        report_betas = []
        # summed into one term map: a coefficient that cancels is deleted here,
        # so the map has no zero coefficient and is wrapped as it stands
        total = {}
        for _, expression in strata:
            beta = beta_eval(expression, memo)
            report_betas.append(beta)
            for exp, coeff in beta._terms.items():  # the package's own value type
                coeff += total.get(exp, 0)
                if coeff:
                    total[exp] = coeff
                else:
                    del total[exp]
        reports.append(ArcStratumReport(
            n=n, selector=selector, strata=tuple(strata), betas=tuple(report_betas),
            total_beta=LaurentPolynomial._of(total),
        ))
    return reports


def zeta_series(germ: QuadraticGerm, selector: str, order: int) -> TruncatedSeries:
    """The zeta series: T^n coefficient beta(coefficient set) * u^(-n*dim)."""
    return series_from_reports(germ, stratify_series(germ, selector, order))


def series_from_reports(germ: QuadraticGerm, reports) -> TruncatedSeries:
    """The zeta series to order len(reports), from the reports of n = 1, 2, ... in turn.

    Each nonzero total_beta is shifted by u^(-n*dim) straight into a term
    map, and the series is wrapped as it stands: its indices are the
    reports' n and its coefficients the package's own nonzero polynomials.
    """
    coefficients = {}
    for report in reports:
        terms = report.total_beta._terms  # read in place: the package's own value type
        if terms:
            shift = -report.n * germ.dim
            coefficients[report.n] = LaurentPolynomial._of(
                {exp + shift: coeff for exp, coeff in terms.items()}
            )
    return TruncatedSeries._of(len(reports), coefficients)


def _level_numerator(plus: int, minus: int, selector: str) -> LaurentPolynomial:
    """A, the numerator of X in Z(T) = X * (A + B * Y); see the module docstring."""
    if selector == NAIVE:
        return LaurentPolynomial.monomial(plus + minus) - beta_cone(plus, minus)
    return beta_level(plus, minus, 1 if selector == PLUS else -1)


def coefficient_closed_form(germ: QuadraticGerm, n: int, selector: str) -> LaurentPolynomial:
    """The T^n zeta coefficient read off the rational form.

    Independent of the decomposition engine; used to cross-check
    zeta_series stratum by stratum.
    """
    _check_arguments(germ, selector, n, "order n")
    return zeta_closed_form(germ, selector, n).coefficient(n)


def zeta_closed_form(germ: QuadraticGerm, selector: str, order: int) -> TruncatedSeries:
    """The zeta series expanded from the rational form by its recurrence.

    With x = u^(-rank) T^2 and y = u^(-1) T, the T^n coefficients a_n of
    X = x/(1-x) and s_n of X * Y satisfy s_n = u^(-1) (s_(n-1) + a_(n-1)),
    so c_n = A a_n + B s_n has c_1 = 0 and

        c_n = u^(-1) c_(n-1) + A u^(-rank*n/2)                for even n,
        c_n = u^(-1) c_(n-1) + (B - A) u^(-rank*(n-1)/2 - 1)  for odd n >= 3.

    Each step shifts c_(n-1) and merges one of A and B - A into it, so the
    series costs about its own size.
    """
    _check_arguments(germ, selector, order, "truncation order")
    rank = germ.rank
    a = _level_numerator(germ.plus, germ.minus, selector)
    b = beta_cone(germ.plus, germ.minus) - ONE
    if selector == NAIVE:
        b = b * (U - ONE)
    # the package's own value types, read in place
    even_step, odd_step = a._terms, (b - a)._terms
    coefficients, terms = {}, {}
    for n in range(2, order + 1):
        if n % 2:
            step, shift = odd_step, -rank * (n // 2) - 1
        else:
            step, shift = even_step, -rank * (n // 2)
        terms = {exp - 1: coeff for exp, coeff in terms.items()}
        for exp, coeff in step.items():
            exp += shift
            coeff += terms.get(exp, 0)
            if coeff:
                terms[exp] = coeff
            else:
                del terms[exp]
        coefficients[n] = LaurentPolynomial._of(terms)
    return TruncatedSeries(order, coefficients)


def _t2_coefficient(plus: int, minus: int, selector: str) -> LaurentPolynomial:
    rank = plus + minus
    if rank < 1:
        raise InvalidGerm("need plus + minus >= 1")
    return LaurentPolynomial.monomial(-rank) * _level_numerator(plus, minus, selector)


def signed_t2_coefficient(plus: int, minus: int, sign: str) -> LaurentPolynomial:
    """The T^2 coefficient of the signed zeta function, for any ambient dim.

    The ambient dimension cancels: the coefficient is u^(-rank) * A, that is
    u^(-(plus+minus)) * beta_level(plus, minus, +-1).
    """
    if sign not in (PLUS, MINUS):
        raise ValueError(f"sign must be 'plus' or 'minus', got {sign!r}")
    return _t2_coefficient(plus, minus, sign)


def naive_t2_coefficient(plus: int, minus: int) -> LaurentPolynomial:
    """The T^2 coefficient of the naive zeta function, for any ambient dim.

    Equals u^(-rank) * A = u^(-rank) * (u^rank - beta_cone); only
    min(plus, minus) and max(plus, minus) enter.
    """
    return _t2_coefficient(plus, minus, NAIVE)
