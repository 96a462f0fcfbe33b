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
coordinates.  stratify builds the strata as set expressions and evaluates
them through the decomposition engine, which is an independent code path
against the rational form below.

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


def _check_arguments(germ, selector: str, count, what: str):
    if not isinstance(germ, QuadraticGerm):
        raise InvalidGerm(f"expected a QuadraticGerm, got {germ!r}")
    _check_selector(selector)
    if not isinstance(count, int) or count < 1:
        raise ValueError(f"{what} must be a positive integer, got {count!r}")


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


class _SharedStrata:
    """The nodes that the strata of every order n share, for one (germ, selector).

    These are the punctured cone, the forced hyperplane AffineSpace(rank-1),
    the last condition, the level factor of e = n/2 and the AffineSpace(k)
    atoms by k, built once and kept alive here.  betas maps the id of each
    of them to its beta, filled after each report from that report's memo:
    a factor is evaluated the first time a stratum uses it, and never again
    for this germ and selector.  Every id in betas names a node that this
    object holds, so a memo seeded with a copy of betas is sound for as long
    as the object lives.  A plain slotted class with identity hash: the
    benchmark's tracer keeps the arguments of every stratify call in a set.
    """

    __slots__ = (
        "germ", "selector", "punctured_cone", "hyperplane", "last", "level",
        "cone_depth", "level_depth", "betas", "_affine", "_pending",
    )

    def __init__(self, germ: QuadraticGerm, selector: str):
        self.germ = germ
        self.selector = selector
        self.betas = {}
        self._affine = {}
        self._pending = set()  # the ids of the nodes whose beta is not known yet
        rank = germ.rank
        cone = QuadricAffine(0, germ.plus, germ.minus)
        self.punctured_cone = self._own(Difference(cone, Point()))
        self.hyperplane = self.affine(rank - 1)
        if selector == NAIVE:
            self.last = self._own(Difference(self.affine(rank), self.hyperplane))
            self.level = self._own(Difference(self.affine(rank), cone))
        else:
            self.last = self.hyperplane
            level = 1 if selector == PLUS else -1
            self.level = self._own(QuadricAffine(level, germ.plus, germ.minus))
        # the depths of the strata, whose other children are atoms
        self.cone_depth = 1 + max(self.punctured_cone.depth, getattr(self.last, "depth", 1))
        self.level_depth = 1 + getattr(self.level, "depth", 1)

    def _own(self, node):
        self._pending.add(id(node))
        return node

    def affine(self, k: int) -> AffineSpace:
        """The one AffineSpace(k) of this set."""
        node = self._affine.get(k)
        if node is None:
            node = self._affine[k] = self._own(AffineSpace(k))
        return node

    def learn(self, memo: dict) -> None:
        """Keep the betas that a report's memo found for nodes of this set."""
        for key in [key for key in self._pending if key in memo]:
            self.betas[key] = memo[key]
            self._pending.remove(key)


def stratify(
    germ: QuadraticGerm, n: int, selector: str, shared: _SharedStrata | None = None
) -> ArcStratumReport:
    """Partition the order-n coefficient set by the order e of the w-block.

    Each stratum is an algebraic product of scissor atoms (see the module
    docstring for the derivation); beta of the whole set is the sum of
    beta over the strata.  shared holds the factors that the strata of
    every n share for this germ and selector; a caller that stratifies
    several n passes one, and without it the call makes its own.
    """
    _check_arguments(germ, selector, n, "order n")
    if shared is None:
        shared = _SharedStrata(germ, selector)
    elif shared.selector != selector or shared.germ != germ:
        raise ValueError(
            f"shared strata of {shared.germ}, {shared.selector!r} used for {germ}, {selector!r}"
        )

    rank = germ.rank
    free_z = n * (germ.dim - rank)
    z_block = (shared.affine(free_z),) if free_z else ()
    punctured_cone, hyperplane, last = shared.punctured_cone, shared.hyperplane, shared.last
    strata = []

    for e in range(1, n // 2 + 1):
        if 2 * e < n:
            # leading w vector on the cone minus the origin
            forced = n - 2 * e - 1
            factors = (punctured_cone, *(hyperplane,) * forced, last)
            depth = shared.cone_depth
            description = (
                f"w-order e={e}: cone leading vector, {forced} forced hyperplane(s), "
                f"{'nonvanishing' if selector == NAIVE else 'pinned'} last condition, "
                f"{e} free w vector(s)"
            )
        else:
            # n even, e = n/2: the leading vector carries the level condition
            factors = (shared.level,)
            depth = shared.level_depth
            description = (
                f"w-order e={e}: leading vector on the "
                f"{'cone complement' if selector == NAIVE else selector + ' level set'}, "
                f"{e} free w vector(s)"
            )
        # every child is a node of shared, so the product needs no check
        product = Product._of((*factors, shared.affine(rank * e), *z_block), depth)
        strata.append((description, product))

    # seeded with the betas of the shared nodes, and dropped on return while
    # strata still holds every stratum product it keys
    memo = dict(shared.betas)
    betas = tuple(beta_eval(expression, memo) for _, expression in strata)
    shared.learn(memo)
    return ArcStratumReport(
        n=n, selector=selector, strata=tuple(strata), betas=betas, total_beta=sum(betas, ZERO)
    )


def zeta_series(germ: QuadraticGerm, selector: str, order: int) -> TruncatedSeries:
    """The zeta series: T^n coefficient beta(coefficient set) * u^(-n*dim)."""
    _check_arguments(germ, selector, order, "truncation order")
    shared = _SharedStrata(germ, selector)
    return series_from_reports(
        germ, [stratify(germ, n, selector, shared) for n in range(1, order + 1)]
    )


def series_from_reports(germ: QuadraticGerm, reports) -> TruncatedSeries:
    """The zeta series to order len(reports), from the reports of n = 1, 2, ... in turn."""
    coefficients = {
        report.n: report.total_beta * LaurentPolynomial.monomial(-report.n * germ.dim)
        for report in reports
    }
    return TruncatedSeries(len(reports), coefficients)


def _rational_form(
    plus: int, minus: int, selector: str
) -> tuple[LaurentPolynomial, LaurentPolynomial]:
    """The numerators (A, B) of Z(T) = X * (A + B * Y); see the module docstring."""
    if selector == NAIVE:
        cone = beta_cone(plus, minus)
        return LaurentPolynomial.monomial(plus + minus) - cone, (cone - ONE) * (U - ONE)
    level = beta_level(plus, minus, 1 if selector == PLUS else -1)
    return level, beta_cone(plus, minus) - ONE


def _expand(rank: int, form, n: int) -> LaurentPolynomial:
    """The T^n coefficient of X * (A + B * Y): one product by B, plus A at even n."""
    a, b = form
    # the T^n terms of X * Y: u^(-rank*e) T^(2e) times u^(-k) T^k, k = n - 2e >= 1
    total = b * LaurentPolynomial((-(n - 2 * e) - rank * e, 1) for e in range(1, (n + 1) // 2))
    if n % 2 == 0:
        total = total + a * LaurentPolynomial.monomial(-rank * (n // 2))
    return total


def coefficient_closed_form(germ: QuadraticGerm, n: int, selector: str) -> LaurentPolynomial:
    """The T^n zeta coefficient read off the rational form.

    Independent of the decomposition engine; used to cross-check
    zeta_series stratum by stratum.
    """
    _check_arguments(germ, selector, n, "order n")
    return _expand(germ.rank, _rational_form(germ.plus, germ.minus, selector), n)


def zeta_closed_form(germ: QuadraticGerm, selector: str, order: int) -> TruncatedSeries:
    """The zeta series expanded from the rational form, with (A, B) built once."""
    _check_arguments(germ, selector, order, "truncation order")
    form = _rational_form(germ.plus, germ.minus, selector)
    return TruncatedSeries(order, {n: _expand(germ.rank, form, n) for n in range(1, order + 1)})


def _t2_coefficient(plus: int, minus: int, selector: str) -> LaurentPolynomial:
    rank = plus + minus
    if rank < 1:
        raise InvalidGerm("need plus + minus >= 1")
    return LaurentPolynomial.monomial(-rank) * _rational_form(plus, minus, selector)[0]


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
