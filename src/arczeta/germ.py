"""Polynomial germ analysis: parsing, Hessian inertia, jet splitting,
signature recovery from zeta coefficients, and the germ discriminator.

A germ is a multivariate polynomial with exact rational coefficients and
zero constant term, considered near the origin of R^nvars.  For a germ
that is singular at the origin (vanishing linear part), Sylvester's law
of inertia attaches to its Hessian a pair (plus, minus) of positive and
negative squares which is invariant under invertible linear changes of
coordinates; split_jet realizes the corresponding normal form

    f(change(x)) = diagonal quadratic in the first rank variables
                   + remainder of order >= 3 in the last corank variables

up to a chosen jet order.  Every step is a shift x_i -> x_i + r * m on
term maps of exact int pairs: first Lagrange's completion of squares with
linear m, which diagonalizes the quadratic part, then the same with the
higher-degree m that absorb each term holding a rank variable.  No square
roots are taken anywhere: the diagonal entries stay rational with the
inertia sign pattern, square factors are scaled away rationally, and the
final irrational rescaling to literal +-1 coefficients is intentionally
left implicit since only the signs matter.

PolynomialGerm's arithmetic is +, - and one composition, substitute,
which takes a component for every variable and a required degree bound.
No command adds germs: the sums are there for callers of the library.

recover_signature inverts the signed T^2 zeta coefficients of a diagonal
quadratic germ: factoring out the maximal power of u leaves u^k - 1
(giving count k) or u^k + 1 (giving count k + 1), for each sign class
independently.  The naive T^2 coefficient only determines min and max of
the two counts, and not even that on the max = min + 1 family, where it
collapses to 1 - u^-1; recover_minmax reports that ambiguity as a value.
"""

import json as _json
import re
from collections.abc import Mapping, Sequence
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from operator import add, mul

from ._record import Record, set_key
from .algebra import ZERO, LaurentPolynomial
from .arcspace import MINUS, NAIVE, PLUS, naive_t2_coefficient, signed_t2_coefficient
from .errors import (  # the caps live beside ECHO_LIMIT, so cli reads them without germ
    MAX_GERM_VARIABLES,
    MAX_SPLIT_VARIABLES,
    DimensionMismatch,
    GermSyntaxError,
    InvalidGerm,
    InvariantViolation,
    NotAGerm,
    NotSignatureForm,
    NotSingularAtOrigin,
    ResultTooLarge,
    brief_repr,
    number_text,
)

__all__ = [
    "PolynomialGerm",
    "parse_germ",
    "Inertia",
    "hessian_inertia",
    "congruence_inertia",
    "charpoly_inertia",
    "SplitResult",
    "split_jet",
    "verify_split",
    "recover_signature",
    "NaiveRecovery",
    "recover_minmax",
    "DiscriminationResult",
    "discriminate",
]


# ---------------------------------------------------------------------------
# Sparse polynomials with rational coefficients, vanishing at the origin
# ---------------------------------------------------------------------------

class PolynomialGerm:
    """Sparse polynomial over Q with zero constant term.

    Terms map exponent vectors (tuples of nonnegative ints, one slot per
    variable) to nonzero coefficients, reduced int pairs (numerator,
    denominator > 0); terms() shows them as Fractions.  Instances are
    immutable.  The constructor validates outside input; _of wraps the
    maps that the readers and the package's own arithmetic merged.
    """

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[tuple, Fraction] = ()):
        _require_nvars(nvars)
        sums: dict[tuple, tuple[int, int]] = {}
        for exps, coeff in terms.items() if isinstance(terms, Mapping) else terms:
            exps = tuple(exps)
            _require_exponents(exps, nvars)
            _add_term(sums, exps, *Fraction(coeff).as_integer_ratio())
        _germ_of_sums(nvars, sums)  # refuses a constant term
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "_terms", sums)

    @classmethod
    def _of(cls, nvars: int, sums: dict[tuple, tuple[int, int]]) -> "PolynomialGerm":
        """Wrap a term map that _add_term merged (or one kept as reduced as that), unchecked."""
        germ = object.__new__(cls)
        object.__setattr__(germ, "nvars", nvars)
        object.__setattr__(germ, "_terms", sums)
        return germ

    def __setattr__(self, *_):
        raise AttributeError("PolynomialGerm is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the validating constructor;
        # the default slot-state restore would go through __setattr__
        return type(self), (self.nvars, self.terms())

    def terms(self) -> dict[tuple, Fraction]:
        return {e: Fraction(num, den) for e, (num, den) in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def order(self) -> int | None:
        """Minimal total degree of a nonzero term; None for the zero germ."""
        return min(map(sum, self._terms), default=None)

    def variables_used(self) -> set[int]:
        return {i for exps in self._terms for i, e in enumerate(exps) if e}

    def has_zero_linear_part(self) -> bool:
        return all(sum(e) != 1 for e in self._terms)

    def terms_of_degree(self, degree: int) -> dict[tuple, Fraction]:
        return {e: Fraction(n, d) for e, (n, d) in self._terms.items() if sum(e) == degree}

    # -- arithmetic: public, though no command adds germs -------------------

    def _same_space(self, other: "PolynomialGerm"):
        if self.nvars != other.nvars:
            raise ValueError("polynomials live in different variable counts")

    def __add__(self, other):
        if not isinstance(other, PolynomialGerm):
            return NotImplemented
        self._same_space(other)
        sums = dict(self._terms)
        for exps, (num, den) in other._terms.items():
            _add_term(sums, exps, num, den)
        return PolynomialGerm._of(self.nvars, sums)

    def __neg__(self):
        return PolynomialGerm._of(self.nvars, {e: (-n, d) for e, (n, d) in self._terms.items()})

    def __sub__(self, other):
        return self + (-other) if isinstance(other, PolynomialGerm) else NotImplemented

    def __eq__(self, other):
        if not isinstance(other, PolynomialGerm):
            return NotImplemented
        return self.nvars == other.nvars and self._terms == other._terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self._terms.items()))))

    # -- substitution -------------------------------------------------------

    def substitute(self, change: Sequence["PolynomialGerm"], max_degree: int) -> "PolynomialGerm":
        """Compose with x_i -> change[i], less the terms of degree > max_degree.

        change holds one germ per variable, all in this germ's space.  The
        components vanish at the origin, so no term loses degree: terms of f
        above max_degree are never expanded, and every product term is cut
        at max_degree.
        """
        if len(change) != self.nvars:
            raise ValueError("need one replacement polynomial per variable")
        for component in change:
            self._same_space(component)
        constant = (0,) * self.nvars
        sums: dict[tuple, tuple[int, int]] = {}
        powers: dict[int, list] = {}  # index -> the graded change[index]**e, e = 1, 2, ...
        for exps, pair in self._terms.items():
            if sum(exps) > max_degree:
                continue
            factors = []
            for i, e in enumerate(exps):
                if e:
                    chain = powers.setdefault(i, [_graded(change[i]._terms)])
                    while len(chain) < e:  # one product per power not yet built
                        chain.append(_graded(_product(chain[-1], chain[0], max_degree, {})))
                    factors.append(chain[e - 1])
            # the constant monomial times the factors (a germ term has at
            # least one); the last product goes straight into sums
            piece = [(constant, 0, pair)]
            for factor in factors[:-1]:
                piece = _graded(_product(piece, factor, max_degree, {}))
            _product(piece, factors[-1], max_degree, sums)
        return PolynomialGerm._of(self.nvars, sums)

    # -- rendering ----------------------------------------------------------

    @staticmethod
    def _term_key(exps: tuple):
        # degree first, then earlier variables first within a degree
        return (sum(exps), tuple(-e for e in exps))

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exps in sorted(self._terms, key=self._term_key):
            num, den = self._terms[exps]
            factors = []
            for i, e in enumerate(exps):
                if e:
                    factors.append(f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}")
            if not factors or abs(num) != 1 or den != 1:
                factors.insert(0, _pair_text(abs(num), den))
            body = "*".join(factors)
            if not parts:
                parts.append(body if num > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if num > 0 else f"- {body}")
        return " ".join(parts)

    __str__ = to_text

    def __repr__(self):
        return f"PolynomialGerm({self.nvars}, {self.to_text()!r})"

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                [list(exps), _pair_text(*self._terms[exps])]
                for exps in sorted(self._terms, key=self._term_key)
            ],
        }

    @classmethod
    def from_json(cls, data) -> "PolynomialGerm":
        if not isinstance(data, dict) or "nvars" not in data:
            raise ValueError("germ JSON must be an object with 'nvars' and 'terms'")
        nvars = data["nvars"]
        sums: dict[tuple, tuple[int, int]] = {}
        seen = []  # every exponent vector, also those whose sum cancels
        for entry in data.get("terms", []):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"bad germ term {brief_repr(entry)}")
            exps, coeff = entry
            exps = tuple(exps)
            if type(coeff) is int:
                num, den = coeff, 1
            else:
                # the numbers of germ text: a decimal or an exponent would make
                # Fraction expand 10**exponent, whatever the exponent's size
                number = re.fullmatch(_COEFFICIENT, coeff) if isinstance(coeff, str) else None
                if number is None:
                    raise ValueError(f"bad germ coefficient {brief_repr(coeff)}")
                try:
                    num, den = int(number[1]), int(number[2] or 1)
                except ValueError:  # longer than the interpreter's int/str digit limit
                    raise ValueError(f"bad germ coefficient {brief_repr(coeff)}") from None
                if not den:
                    raise ZeroDivisionError(f"Fraction({num}, 0)")
            _add_term(sums, exps, num, den)
            seen.append(exps)
        _require_nvars(nvars)
        for exps in seen:
            _require_exponents(exps, nvars)
        return _germ_of_sums(nvars, sums)


def _require_nvars(nvars) -> None:
    """Refuse a variable count that is not an int (a bool is no count) in 1..the cap."""
    if type(nvars) is not int or nvars < 1:
        raise ValueError(f"nvars must be a positive integer, got {brief_repr(nvars)}")
    if nvars > MAX_GERM_VARIABLES:
        raise ValueError(f"nvars must be at most {MAX_GERM_VARIABLES}, got {brief_repr(nvars)}")


def _require_exponents(exps: tuple, nvars: int) -> None:
    """Refuse an exponent vector that is not nvars ints >= 0 (a bool is no exponent)."""
    if len(exps) != nvars or any(type(e) is not int or e < 0 for e in exps):
        raise ValueError(f"bad exponent vector {brief_repr(exps)} for {nvars} variables")


def _add_term(sums: dict[tuple, tuple[int, int]], exps: tuple, num: int, den: int) -> None:
    """Add the rational num/den (den > 0) into the term map sums, at exps.

    Every pair in sums is reduced with a positive denominator, and a sum
    that cancels is deleted, so sums never holds a zero.
    """
    old = sums.get(exps)
    if old is not None:
        old_num, old_den = old
        if old_den == den:
            num += old_num
        else:
            num, den = num * old_den + old_num * den, den * old_den
    if not num:
        sums.pop(exps, None)
    elif den == 1:
        sums[exps] = (num, 1)
    else:
        g = gcd(num, den)
        sums[exps] = (num // g, den // g)


def _pair_text(num: int, den: int, text=number_text) -> str:
    """What text gives for the Fraction num/den of a reduced pair."""
    return text(num) if den == 1 else f"{text(num)}/{text(den)}"


def _germ_of_sums(nvars: int, sums: dict[tuple, tuple[int, int]]) -> PolynomialGerm:
    """The germ of a checked term map merged by _add_term; a constant term is NotAGerm."""
    constant = sums.get((0,) * nvars)
    if constant is not None:
        raise NotAGerm(f"nonzero constant term {_pair_text(*constant, str)}")
    return PolynomialGerm._of(nvars, sums)


def _graded(terms: dict[tuple, tuple[int, int]]) -> list[tuple]:
    """The terms as (exps, degree, pair) triples, for _product."""
    return [(exps, sum(exps), pair) for exps, pair in terms.items()]


def _product(piece: list, factor: list, limit: int, sums: dict) -> dict:
    """Add to sums the terms of degree <= limit of piece * factor, two _graded lists."""
    for e1, d1, (n1, q1) in piece:
        for e2, d2, (n2, q2) in factor:
            if d1 + d2 <= limit:
                _add_term(sums, tuple(map(add, e1, e2)), n1 * n2, q1 * q2)
    return sums


# ---------------------------------------------------------------------------
# Text grammar:  term (('+'|'-') term)*, term = [rational '*'] xK[^E] ('*' xK[^E])*
# ---------------------------------------------------------------------------


def parse_germ(text: str, nvars: int | None = None) -> PolynomialGerm:
    """Parse a germ from the text grammar, or from germ JSON if text is '{...}'.

    Variables are x1, x2, ...; the variable count is inferred from the
    highest index used unless nvars is given.  Space may stand between
    tokens, but not inside a number or between x and its index.  Germ JSON
    states its own count: a given nvars must equal it.
    """
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            data = _json.loads(stripped)
        except _json.JSONDecodeError as exc:
            raise GermSyntaxError(f"invalid germ JSON: {exc.msg}", exc.pos)
        except ValueError:  # an integer longer than the interpreter's digit limit
            raise InvalidGerm("invalid germ JSON: an integer has too many digits") from None
        except RecursionError:
            raise InvalidGerm("invalid germ JSON: nested too deeply") from None
        try:
            germ = PolynomialGerm.from_json(data)
        except ZeroDivisionError:
            raise InvalidGerm("invalid germ JSON: zero denominator in a coefficient") from None
        except (ValueError, TypeError) as exc:
            # a bad nvars, exponent vector, term or coefficient in valid JSON
            raise InvalidGerm(f"invalid germ JSON: {exc}") from exc
        if nvars is not None and nvars != germ.nvars:
            raise InvalidGerm(
                f"declared {nvars} variable(s) but the germ JSON has nvars {germ.nvars}"
            )
        return germ
    return _parse_germ_text(text, nvars)


# The patterns are compiled on first use, through re's cache, so that only a
# process that reads a germ pays for them.
# a signed number of the grammar, for germ JSON: numerator and denominator (groups 1, 2)
_COEFFICIENT = "(-?[0-9]+)(?:/([0-9]+))?"
# One factor of germ text with the space around it: a number with an optional
# /denominator (groups 1, 2), or xK with an optional ^E (groups 3, 4).  A number
# missing after x, / or ^ matches empty so that it is reported at its offset;
# where no factor starts, no group matches.
_FACTOR = r"\s*(?:([0-9]+)(?:\s*/\s*([0-9]*))?|x([0-9]*)(?:\s*\^\s*([0-9]*))?)?\s*"
# per group: what a missing number is called, and the message when it is 0
_NUMBERS = {
    1: ("a number", None),
    2: ("a denominator", "zero denominator"),
    3: ("a variable index after 'x'", "variable index must be at least 1"),
    4: ("digits after '^'", "exponent must be at least 1"),
}


def _number(factor: re.Match, group: int) -> int:
    """The int in a group of a factor, 1 if the group is absent, or a GermSyntaxError there."""
    digits, at = factor.group(group), factor.start(group)
    if digits is None:
        return 1
    expected, zero = _NUMBERS[group]
    if not digits:
        raise GermSyntaxError(f"expected {expected}", at)
    try:
        value = int(digits)
    except ValueError:  # longer than the interpreter's int/str digit limit
        raise GermSyntaxError("number has too many digits", at) from None
    if value == 0 and zero:
        raise GermSyntaxError(zero, at)
    return value


def _parse_germ_text(text: str, nvars: int | None) -> PolynomialGerm:
    body = text.lstrip()
    if not body:
        raise GermSyntaxError("empty polynomial", len(text))
    pos = len(text) - len(body)
    factors = re.compile(_FACTOR)
    sign = body[0]  # the first term's sign is optional
    if sign in "+-":
        pos += 1
    # each term's coefficient as an int pair (numerator, denominator), and
    # its powers keyed by variable index
    raw_terms: list[tuple[int, int, dict[int, int]]] = []
    while True:
        term = pos
        num, den = -1 if sign == "-" else 1, 1
        powers: dict[int, int] = {}
        misplaced = None  # a coefficient after another factor, reported once the term is read
        while True:
            factor = factors.match(text, pos)
            pos = factor.end()
            if factor.lastindex is None:
                raise GermSyntaxError("expected a coefficient or a variable", pos)
            if factor.lastindex > 2:
                index = _number(factor, 3)
                if index > MAX_GERM_VARIABLES:
                    raise GermSyntaxError(
                        f"variable index must be at most {MAX_GERM_VARIABLES}", factor.start(3)
                    )
                powers[index] = powers.get(index, 0) + _number(factor, 4)
            else:
                num *= _number(factor, 1)
                den *= _number(factor, 2)
                if factor.start() != term and misplaced is None:
                    misplaced = factor.start(1)
            if not text.startswith("*", pos):
                break
            pos += 1
        if misplaced is not None:
            raise GermSyntaxError("coefficient must come first in a term", misplaced)
        raw_terms.append((num, den, powers))
        if pos == len(text):
            break
        sign = text[pos]
        if sign not in "+-":
            raise GermSyntaxError("expected '+' or '-' between terms", pos)
        pos += 1

    max_index = max((index for *_, powers in raw_terms for index in powers), default=0)
    if nvars is None:
        nvars = max(max_index, 1)
    elif nvars < max_index:
        raise InvalidGerm(f"declared {nvars} variable(s) but the polynomial uses x{max_index}")
    _require_nvars(nvars)  # before any exponent vector is built
    sums: dict[tuple, tuple[int, int]] = {}
    zeros = [0] * nvars
    for num, den, powers in raw_terms:
        exps = zeros.copy()
        for index, e in powers.items():
            exps[index - 1] = e
        _add_term(sums, tuple(exps), num, den)
    return _germ_of_sums(nvars, sums)


# ---------------------------------------------------------------------------
# Inertia by integer congruence, with a char-poly cross-check
# ---------------------------------------------------------------------------


class Inertia(Record):
    """Sylvester inertia of a quadratic form: plus/minus square counts."""

    __slots__ = ()
    _fields = ("plus", "minus", "corank")

    def __init__(self, plus: int, minus: int, corank: int):
        set_key(self, (plus, minus, corank))

    @property
    def rank(self) -> int:
        return self.plus + self.minus

    @property
    def index(self) -> int:
        return self.minus

    def to_json(self) -> dict:
        return {
            "s": self.plus,
            "t": self.minus,
            "rank": self.rank,
            "corank": self.corank,
            "index": self.index,
        }


def _integer_symmetric(matrix) -> list[list[int]]:
    """A square symmetric matrix times the lcm of its denominators, as ints.

    The scale is positive, so every route that counts signs of eigenvalues
    or of pivots counts the same on the result.
    """
    n = len(matrix)
    # an int or a Fraction already has the numerator and denominator read below
    rows = [[x if type(x) in (int, Fraction) else Fraction(x) for x in row] for row in matrix]
    if any(len(row) != n for row in rows):
        raise ValueError("matrix must be square")
    scale = 1
    for row in rows:  # row by row: lcm(*all) would build an n*n argument tuple
        scale = lcm(scale, *(x.denominator for x in row))
    A = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    if any(A[i][j] != A[j][i] for i in range(n) for j in range(i)):
        raise ValueError("matrix must be symmetric")
    return A


def congruence_inertia(matrix) -> tuple[int, int]:
    """(plus, minus) of a symmetric matrix by congruence over the integers.

    The matrix is scaled by the lcm of its denominators (a positive scaling,
    by _integer_symmetric) and goes to _congruence, the elimination that
    hessian_inertia also runs on the integer Hessian it reads off a germ.
    split_jet's Stage 1 makes the same kind of moves on a germ's terms, with
    the change of coordinates it needs, and so gives the same counts.
    """
    return _congruence(_integer_symmetric(matrix))


def _congruence(A: list[list[int]]) -> tuple[int, int]:
    """(plus, minus) of a symmetric matrix of int rows, which it consumes.

    Each step removes one row and column and keeps the inertia of what is
    left, by Sylvester's law: congruence and positive scalings do not
    change it.

    * A nonzero diagonal entry p = A[k][k], with a the rest of row k and B
      the rest of A, is a pivot.  The congruence x_k -> x_k - (a.x)/p turns
      A into diag(p, S) with S = B - a a^T / p, so A has the inertia of S
      plus one sign of p.  The step keeps |p| S = |p| B - sign(p) a a^T,
      which is integral, divided by the positive gcd of its entries.
    * If every diagonal entry is 0 but some A[i][j] is not, the congruence
      x_i -> x_i + x_j (invertible) makes the new A[i][i] equal to
      A[i][i] + 2 A[i][j] + A[j][j] = 2 A[i][j], a pivot.
    * A block that is all zero has only zero eigenvalues: its size is the
      corank.

    The block kept is a positive multiple of the Schur complement with
    coprime integer entries.  Every integral multiple of the Schur
    complement, Bareiss's fraction-free block with the same pivots
    included, is an integer multiple of it, so its entries are never
    larger than Bareiss's; no Fraction is built.
    """
    plus = minus = 0
    while A:
        size = len(A)
        k = next((i for i in range(size) if A[i][i]), None)
        if k is None:
            pair = next(((i, j) for i in range(size) for j in range(i) if A[i][j]), None)
            if pair is None:
                break  # the zero block
            i, j = pair
            for row in A:
                row[i] += row[j]
            A[i] = [x + y for x, y in zip(A[i], A[j])]
            k = i
        pivot_row = A[k]
        p = pivot_row[k]
        if p > 0:
            plus += 1
        else:
            minus += 1
        a = pivot_row[:k] + pivot_row[k + 1 :]
        signed = a if p > 0 else [-x for x in a]
        q = abs(p)
        A = [
            [q * b - w * c for b, c in zip(row[:k] + row[k + 1 :], a)]
            for row, w in zip(A[:k] + A[k + 1 :], signed)
        ]
        g = 0
        for row in A:  # like the lcm above, and most blocks reach 1 early
            g = gcd(g, *row)
            if g == 1:
                break
        if g > 1:
            A = [[x // g for x in row] for row in A]
    return plus, minus


def _require_singular(germ: PolynomialGerm):
    if not isinstance(germ, PolynomialGerm):
        raise TypeError(f"expected a PolynomialGerm, got {germ!r}")
    if not germ.has_zero_linear_part():
        raise NotSingularAtOrigin("the linear part does not vanish at the origin")


def _hessian_rows(terms: dict[tuple, tuple[int, int]]) -> list[list[int]]:
    """A positive multiple of the Hessian of a term map's degree-2 terms, as int rows.

    The rows and columns are those of the variables in the terms, in
    variable order.  A term c*x_i^2 gives the entry 2c at (i, i) and a term
    c*x_i*x_j the entry c at (i, j) and (j, i); every entry is scaled by
    the lcm of the terms' denominators, so no Fraction is built.
    """
    entries = []  # (variable, variable, numerator, denominator) of each entry
    for exps, (num, den) in terms.items():
        if sum(exps) != 2:
            continue
        i = exps.index(2) if 2 in exps else exps.index(1)
        j = i if exps[i] == 2 else exps.index(1, i + 1)
        entries.append((i, j, exps[i] * num, den))  # 2c on the diagonal
    used = sorted({v for i, j, _, _ in entries for v in (i, j)})
    where = {v: r for r, v in enumerate(used)}
    scale = lcm(*(den for *_, den in entries))
    rows = [[0] * len(used) for _ in used]
    for i, j, num, den in entries:
        r, s = where[i], where[j]
        rows[r][s] = rows[s][r] = num * (scale // den)
    return rows


def hessian_inertia(germ: PolynomialGerm) -> Inertia:
    """Exact inertia of the Hessian at the origin (Sylvester's law).

    A variable in no degree-2 term has a zero row and column, so up to a
    permutation (a congruence) the Hessian is the block of the other
    variables beside a zero block.  _hessian_rows reads a positive multiple
    of that block straight off the degree-2 terms, as ints, and the
    congruence elimination runs on it; each variable left out counts once
    in the corank.
    """
    _require_singular(germ)
    plus, minus = _congruence(_hessian_rows(germ._terms))
    return Inertia(plus=plus, minus=minus, corank=germ.nvars - plus - minus)


def charpoly_inertia(matrix) -> tuple[int, int]:
    """Eigenvalue sign counts from the characteristic polynomial.

    Clears denominators (a positive scaling preserves signs), builds the
    characteristic polynomial from power traces by Newton's identities
    (_charpoly), and counts positive and negative roots by Descartes'
    rule, which is exact here because a symmetric matrix has only real
    eigenvalues.  This is a deliberately different route from the
    congruence routes, used to cross-check them.
    """
    A = _integer_symmetric(matrix)
    n = len(A)
    coeffs = _charpoly(A)

    def sign_changes(sequence):
        signs = [1 if x > 0 else -1 for x in sequence if x]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    positive = sign_changes(coeffs)
    negated = [c * (-1) ** (n - k) for k, c in enumerate(coeffs)]
    negative = sign_changes(negated)
    zero = 0
    for c in reversed(coeffs):
        if c:
            break
        zero += 1
    if positive + negative + zero != n:
        raise InvariantViolation(
            f"Descartes counts {positive} + {negative} + {zero} roots of a degree-{n} "
            "characteristic polynomial"
        )
    return positive, negative


def _charpoly(A: list[list[int]]) -> list[int]:
    """[1, c_1, ..., c_n] of det(x I - A) = x^n + c_1 x^(n-1) + ... + c_n, for a
    symmetric matrix of int rows.

    Newton's identities give k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1)
    from the power traces p_k = tr(A^k).  Every power of a symmetric A is
    symmetric, so tr(A^i A^j) is the sum of the entrywise products of A^i
    and A^j, and the powers A^1 .. A^ceil(n/2) give every p_k with k <= n:
    ceil(n/2) - 1 matrix products.  Over an integer matrix every division
    by k is exact, so one that is not raises InvariantViolation.
    """
    n = len(A)
    powers = [None, A]  # powers[i] = A^i, whose rows are also its columns
    for _ in range(2, (n + 1) // 2 + 1):
        last = powers[-1]
        powers.append([[sum(map(mul, row, column)) for column in last] for row in A])
    traces = [None, sum(A[i][i] for i in range(n))]
    for k in range(2, n + 1):
        left, right = powers[k - k // 2], powers[k // 2]
        traces.append(sum(sum(map(mul, r, s)) for r, s in zip(left, right)))
    coeffs = [1]
    for k in range(1, n + 1):
        total = traces[k] + sum(map(mul, coeffs[1:], traces[k - 1 : 0 : -1]))
        quotient, residue = divmod(total, k)
        if residue:
            raise InvariantViolation(f"Newton sum {total} is not divisible by {k}")
        coeffs.append(-quotient)
    return coeffs


# ---------------------------------------------------------------------------
# Jet-level splitting
# ---------------------------------------------------------------------------


class SplitResult(Record):
    """A coordinate change realizing the split normal form to a jet order.

    change:          one polynomial per variable, rational jets with an
                     invertible linear part;
    quadratic_part:  diagonal quadratic in the first rank variables, with
                     the inertia sign pattern (positives first);
    remainder:       order >= 3, in the last corank variables only;
    and f(change(x)) - quadratic_part - remainder has no term of total
    degree <= jet_order.
    """

    __slots__ = ()
    _fields = ("change", "quadratic_part", "remainder", "inertia", "jet_order")

    def __init__(
        self,
        change: tuple,
        quadratic_part: PolynomialGerm,
        remainder: PolynomialGerm,
        inertia: Inertia,
        jet_order: int,
    ):
        set_key(self, (change, quadratic_part, remainder, inertia, jet_order))

    def to_json(self) -> dict:
        return {
            "jet_order": self.jet_order,
            "inertia": self.inertia.to_json(),
            "change": [component.to_json() for component in self.change],
            "quadratic_part": self.quadratic_part.to_json(),
            "remainder": self.remainder.to_json(),
        }


def _square_root_part(value: int) -> int:
    """An r with r*r dividing value: its square part over the primes up to 47, times the
    root of what is left if that is a square.  Not always the largest: 2 * 53**2 gives 1."""
    root = 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        while value % (p * p) == 0:
            value //= p * p
            root *= p
    residue = isqrt(value)
    if residue * residue == value:
        root *= residue
    return root


def _absorb(
    terms: dict[tuple, tuple[int, int]],
    pivot: int,
    m: tuple,
    ratio: tuple[int, int],
    jet_order: int,
) -> None:
    """Apply x_pivot -> x_pivot + ratio * x^m to a term map in place, up to jet_order.

    terms maps exponent vectors to reduced pairs (numerator, denominator)
    with a positive denominator, and ratio is such a pair.  By the binomial
    theorem a term c * x^e with k = e[pivot] gains, for j = 1..k, the terms
    C(k, j) * ratio^j * c * x^(e - j*u_pivot + j*m), of degree
    deg e + j*(deg m - 1).  m is never u_pivot: a degree-1 m (Stage 1's)
    keeps every degree, and with deg m >= 2 (Stage 2's, where m may hold
    x_pivot) the sum stops at the first j past the jet.  Only the terms
    holding x_pivot are read, from a list taken before any is changed, and
    each added term is merged by _add_term.  A term above the jet is
    neither expanded nor dropped: split_jet's maps have none.
    """
    moved = [(exps, pair) for exps, pair in terms.items() if exps[pivot]]
    step = sum(m) - 1
    delta = tuple(e - (i == pivot) for i, e in enumerate(m))
    rn, rd = ratio
    weights: dict[tuple, tuple[int, int]] = {}  # (k, j) -> C(k, j) * ratio^j, unreduced
    for key, (cn, cd) in moved:
        k = key[pivot]
        degree = sum(key)
        for j in range(1, k + 1):
            degree += step
            if degree > jet_order:
                break
            key = tuple(map(add, key, delta))
            weight = weights.get((k, j))
            if weight is None:
                weight = weights[k, j] = (comb(k, j) * rn**j, rd**j)
            _add_term(terms, key, weight[0] * cn, weight[1] * cd)


def _shift(maps: list[dict], pivot: int, m: tuple, ratio: tuple[int, int], jet_order: int):
    """_absorb the one shift into every term map of split_jet."""
    for terms in maps:
        _absorb(terms, pivot, m, ratio, jet_order)


def _ratio(c: tuple[int, int], lead: tuple[int, int]) -> tuple[int, int]:
    """-c / (2 lead) as a reduced pair with a positive denominator, from two such pairs."""
    num, den = -c[0] * lead[1], 2 * c[1] * lead[0]
    g = gcd(num, den) if den > 0 else -gcd(num, den)
    return num // g, den // g


def _quadratic_entries(terms: dict, place: list[int]) -> dict[tuple, tuple[int, int]]:
    """(i, j) -> pair of each degree-2 term, i <= j the places of its variables' slots."""
    return {
        tuple(sorted(place[s] for s, e in enumerate(exps) for _ in range(e))): pair
        for exps, pair in terms.items()
        if sum(exps) == 2
    }


def _diagonalize(maps: list[dict], units: list[tuple], jet_order: int) -> list[tuple]:
    """Stage 1 of split_jet: make the quadratic part of maps[0] diagonal by Lagrange shifts.

    The variables y_k are walked in a running order, k = 0..nv-1.  If y_k
    has no square, the first later variable with one swaps places with it
    (in the order: no exponent moves), or else the hyperbolic move
    y_j -> y_j + y_k with the first later cross term y_k*y_j gives it one,
    or else y_k is in no degree-2 term.  Then each cross term a*y_k*y_j,
    j later, goes by y_k -> y_k - a/(2 l_k) * y_j, l_k the square's
    coefficient: a linear shift of every map, which leaves l_k and the
    other y_k*y_j alone.  units[s] is the exponent vector of slot s.
    Returns, for each k, the slot of y_k and its square's pair (or None).
    """
    nv = len(units)
    order = list(range(nv))  # the slot of the k-th variable
    place = list(range(nv))  # the inverse: the place of each slot
    diagonal = []
    entries = _quadratic_entries(maps[0], place)
    for k in range(nv):
        if (k, k) not in entries:
            later = min((i for i, j in entries if i == j > k), default=None)
            if later is not None:
                order[k], order[later] = order[later], order[k]
                place[order[k]], place[order[later]] = k, later
            else:
                off = min((j for i, j in entries if i == k), default=None)
                if off is None:
                    diagonal.append((order[k], None))
                    continue
                _shift(maps, order[off], units[order[k]], (1, 1), jet_order)
            entries = _quadratic_entries(maps[0], place)
        lead = entries[k, k]
        row = sorted(j for i, j in entries if i == k and j > k)
        for j in row:
            _shift(maps, order[k], units[order[j]], _ratio(entries[k, j], lead), jet_order)
        diagonal.append((order[k], lead))
        if row:
            entries = _quadratic_entries(maps[0], place)
    return diagonal


def _relabelled(terms: dict, slots: list[int], scales: list[tuple]) -> dict:
    """A term map with slot slots[c] moved to c and y_c scaled by each (c, (num, den))."""
    result = {}
    for exps, (num, den) in terms.items():
        key = tuple(exps[slot] for slot in slots)
        for c, (sn, sd) in scales:
            if key[c]:
                num, den = num * sn ** key[c], den * sd ** key[c]
        _add_term(result, key, num, den)
    return result


def split_jet(germ: PolynomialGerm, jet_order: int) -> SplitResult:
    """Split a singular germ into diagonal quadratic + higher-order remainder.

    Everything runs on exact term maps of reduced int pairs (numerator,
    denominator), one for the germ's terms of degree <= jet_order and one
    per change component, from the identity; every change of coordinates
    is a shift x_i -> x_i + r * m that _absorb applies to all of them.
    Stage 1 (_diagonalize) diagonalizes the quadratic part by linear
    shifts.  One relabelling pass then orders the variables as (positive
    squares, negative squares, kernel) and strips rational square factors.
    Stage 2 walks the degrees 3..jet_order and absorbs each term
    c * x_i * m with x_i a rank variable by x_i -> x_i - c/(2 l_i) * m, l_i
    the diagonal coefficient.  The maps are wrapped as germs at the end, and
    the result must pass _split_defect, the shape check verify_split also
    runs; verify_split then re-expands the result through substitute and
    checks the change by a rank pass, which share no code with _absorb.
    """
    if not isinstance(jet_order, int) or jet_order < 3:
        raise ValueError(f"jet_order must be an integer >= 3, got {jet_order!r}")
    _require_singular(germ)
    nv = germ.nvars
    if nv > MAX_SPLIT_VARIABLES:
        raise ResultTooLarge(f"split takes at most {MAX_SPLIT_VARIABLES} variables, got {nv}")

    terms = {e: pair for e, pair in germ._terms.items() if sum(e) <= jet_order}
    units = [tuple(int(s == i) for s in range(nv)) for i in range(nv)]
    maps = [terms] + [{unit: (1, 1)} for unit in units]
    diagonal = _diagonalize(maps, units, jet_order)

    # positive squares, then negative ones, then the kernel, each in Stage 1's order
    diagonal.sort(key=lambda entry: 2 if entry[1] is None else entry[1][0] < 0)
    plus = sum(1 for _, lead in diagonal if lead and lead[0] > 0)
    rank = sum(1 for _, lead in diagonal if lead)
    # y_c -> y_c / rho_c, rho_c the largest rational whose square divides |l_c|
    scales = [
        (c, scale)
        for c, (_, (num, den)) in enumerate(diagonal[:rank])
        if (scale := (_square_root_part(den), _square_root_part(abs(num)))) != (1, 1)
    ]
    slots = [slot for slot, _ in diagonal]
    maps = [_relabelled(pairs, slots, scales) for pairs in maps]
    terms = maps[0]
    diagonal_coeff = [terms[tuple(2 * e for e in units[i])] for i in range(rank)]

    # One pass per degree: an absorption x_p -> x_p - c/(2 l_p) m at degree d
    # cancels only its own term, and every term it creates has degree >= d + 1,
    # because the quadratic part is diagonal and every other term containing
    # x_p has degree >= 3.  So the degree-d terms read here stay as they are.
    # They add no term of degree <= d either, so the pass ends at the first
    # degree that no term reaches, which the scan of that degree finds.
    for degree in range(3, jet_order + 1):
        level, higher = [], False
        for exps, pair in terms.items():
            d = sum(exps)
            if d == degree:
                level.append((exps, pair))
            elif d > degree:
                higher = True
        if not (level or higher):
            break
        for exps, pair in sorted(level):
            pivot = next((i for i in range(rank) if exps[i]), None)
            if pivot is None:
                continue
            m = tuple(e - (i == pivot) for i, e in enumerate(exps))
            _shift(maps, pivot, m, _ratio(pair, diagonal_coeff[pivot]), jet_order)

    germ_of = PolynomialGerm._of
    result = SplitResult(
        change=tuple(germ_of(nv, pairs) for pairs in maps[1:]),
        quadratic_part=germ_of(nv, {e: pair for e, pair in terms.items() if sum(e) == 2}),
        remainder=germ_of(nv, {e: pair for e, pair in terms.items() if sum(e) != 2}),
        inertia=Inertia(plus=plus, minus=rank - plus, corank=nv - rank),
        jet_order=jet_order,
    )
    defect = _split_defect(nv, result)
    if defect is not None:  # a defect of the engine, not of the input
        raise InvariantViolation(defect)
    return result


def _split_defect(nvars: int, result: SplitResult) -> str | None:
    """What breaks the shape SplitResult promises for a germ in nvars variables, or None.

    It reads the result alone and expands nothing, so split_jet and
    verify_split both run it and still share no expansion code.
    """
    change, quadratic, remainder, inertia, jet_order = result._key
    if type(jet_order) is not int or jet_order < 3:
        return f"split jet order {brief_repr(jet_order)} is not an integer >= 3"
    parts = (quadratic, remainder, *change) if isinstance(change, (tuple, list)) else ()
    if len(parts) != nvars + 2 or any(
        not isinstance(part, PolynomialGerm) or part.nvars != nvars for part in parts
    ):
        return f"split is not made of germs in {nvars} variables, one change component each"
    plus, minus, corank = inertia._key if isinstance(inertia, Inertia) else (None,) * 3
    if not type(plus) is type(minus) is type(corank) is int or min(plus, minus, corank) < 0:
        return f"split inertia {brief_repr(inertia)} is not three counts"
    if corank != nvars - (rank := plus + minus):
        return f"split inertia {inertia} does not count {nvars} variables"
    for exps, (num, _) in quadratic._terms.items():
        if sum(exps) != 2 or 2 not in exps or (i := exps.index(2)) >= rank:
            return f"split quadratic term {exps} is not a rank square"
        if (num > 0) != (i < plus):
            return f"split quadratic term {exps} has the wrong sign"
    if len(quadratic._terms) != rank:  # the keys differ, so a square is missing
        return f"split quadratic part lacks a square of the {rank} rank variables"
    if not remainder.is_zero() and remainder.order() < 3:
        return f"split remainder has order {remainder.order()} < 3"
    if any(i < rank for i in remainder.variables_used()):
        return "split remainder uses a rank variable"
    return None


def _linear_rank(change: Sequence[PolynomialGerm]) -> int:
    """The rank of the matrix of degree-1 coefficients of a coordinate change.

    Each component's linear terms make a row {column: coefficient}, and
    the row is reduced against the pivot rows before it, each keyed by its
    first column, until its first column has no pivot row (it becomes
    one) or it is empty.  A coordinate x_i, the usual component, costs a
    lookup, so a change over many unused variables is cheap.
    """
    pivots: dict[int, dict[int, Fraction]] = {}
    for component in change:
        row = {e.index(1): Fraction(*c) for e, c in component._terms.items() if sum(e) == 1}
        while row:
            column = min(row)
            pivot = pivots.get(column)
            if pivot is None:
                pivots[column] = row
                break
            factor = row[column] / pivot[column]
            for j, x in pivot.items():
                value = row.get(j, 0) - factor * x
                if value:
                    row[j] = value
                else:
                    del row[j]
    return len(pivots)


def verify_split(germ: PolynomialGerm, result: SplitResult) -> bool:
    """Check a split of germ: its shape (_split_defect), the full rank of the
    change's linear terms, and f(change(x)) = quadratic_part + remainder in
    every term of degree <= jet_order.  Those come from the terms of f of
    degree <= jet_order alone: no component of the change has a constant
    term, so substitution never lowers a degree.
    """
    if _split_defect(germ.nvars, result) is not None or _linear_rank(result.change) < germ.nvars:
        return False
    jet = result.jet_order
    # a valid shape puts Q in degree 2 and F in degree >= 3: no key is in both
    expected = dict(result.quadratic_part._terms)
    expected.update((e, c) for e, c in result.remainder._terms.items() if sum(e) <= jet)
    return germ.substitute(result.change, max_degree=jet)._terms == expected


# ---------------------------------------------------------------------------
# Signature recovery from T^2 zeta coefficients
# ---------------------------------------------------------------------------


def _t2_coefficients(
    inertia: Inertia, selectors: tuple = (NAIVE, PLUS, MINUS)
) -> dict[str, LaurentPolynomial]:
    """The T^2 zeta coefficients of a quadratic part, for each of the selectors.

    The ambient dimension cancels, and at rank 0 the whole series is zero.
    """
    if inertia.rank == 0:
        return dict.fromkeys(selectors, ZERO)
    plus, minus = inertia.plus, inertia.minus
    return {
        selector: naive_t2_coefficient(plus, minus)
        if selector == NAIVE
        else signed_t2_coefficient(plus, minus, selector)
        for selector in selectors
    }


def _count_from_signed(coefficient: LaurentPolynomial, label: str) -> int:
    if coefficient.is_zero():
        return 0
    _, reduced = coefficient.factor_monomial()
    terms = reduced.terms()
    if terms == {0: 2}:
        return 1
    if len(terms) == 2 and 0 in terms:
        top = max(terms)
        if top >= 1 and terms[top] == 1:
            if terms[0] == 1:
                return top + 1
            if terms[0] == -1:
                return top
    raise NotSignatureForm(
        f"{label} coefficient reduces to {reduced.to_text()}, not u^k + 1 or u^k - 1"
    )


def recover_signature(c_plus: LaurentPolynomial, c_minus: LaurentPolynomial) -> tuple[int, int]:
    """Invert the signed T^2 coefficients back to the square counts.

    Factoring the maximal power of u out of the plus coefficient leaves
    u^k - 1 (count k) or u^k + 1, including the constant 2 at k = 0
    (count k + 1); zero means the count is 0.  Same for the minus side.
    The reading ignores the factored power of u, so the answer is mapped
    forward again; data no signature quadric produces raise NotSignatureForm.
    """
    plus = _count_from_signed(c_plus, "plus")
    minus = _count_from_signed(c_minus, "minus")
    forward = _t2_coefficients(Inertia(plus=plus, minus=minus, corank=0), (PLUS, MINUS))
    if (c_plus, c_minus) != (forward[PLUS], forward[MINUS]):
        raise NotSignatureForm(
            f"no signature quadric has these T^2 coefficients: s = {plus}, t = {minus} "
            f"would give plus {forward[PLUS].to_text()} and minus {forward[MINUS].to_text()}"
        )
    return plus, minus


class NaiveRecovery(Record):
    """Outcome of reading (min, max) off a naive T^2 coefficient.

    Ambiguity is a value, not an error: the max = min + 1 family collapses
    to the same coefficient for every min.
    """

    __slots__ = ()
    _fields = ("status", "m", "M", "reason")

    def __init__(
        self, status: str, m: int | None = None, M: int | None = None, reason: str | None = None
    ):
        # status is "determined" or "ambiguous"
        set_key(self, (status, m, M, reason))

    def to_json(self) -> dict:
        if self.status == "determined":
            return {"status": "determined", "m": self.m, "M": self.M}
        return {"status": "ambiguous", "reason": self.reason}


def recover_minmax(coefficient: LaurentPolynomial) -> NaiveRecovery:
    """Pattern-match a naive T^2 coefficient 1 - u^-1 + u^-(m+1) - u^-M.

    The pattern collapses to 1 - u^-1 whenever M = m + 1 (ambiguous), and
    to 1 - u^-M when one sign class is empty, which is reported ambiguous
    because its reading depends on the convention for the value of the
    cone at min = 0.  Otherwise m is read off the term u^-(m+1) and M off
    the term -u^-M other than -u^-1, with M = 1 when there is none (at
    m = M = 1 it merges into -2u^-1), and the reading is mapped forward.
    """
    terms = coefficient.terms()
    if terms == {0: 1, -1: -1}:
        return NaiveRecovery(
            status="ambiguous",
            reason="max = min + 1 family: every such pair gives 1 - u^-1",
        )
    if len(terms) == 2 and terms.get(0) == 1:
        other = next(e for e in terms if e != 0)
        if other <= -2 and terms[other] == -1:
            return NaiveRecovery(
                status="ambiguous",
                reason=(
                    "min = 0 pattern 1 - u^-M: the reading of M depends on the "
                    "convention for the cone value at min = 0"
                ),
            )
    m = next((-e - 1 for e, c in terms.items() if e < 0 and c == 1), 0)
    big = next((-e for e, c in terms.items() if e < -1 and c == -1), 1)
    if 1 <= m <= big and coefficient == naive_t2_coefficient(m, big):
        return NaiveRecovery(status="determined", m=m, M=big)
    raise NotSignatureForm(
        f"{coefficient.to_text()} is not a naive T^2 coefficient of a signature quadric"
    )


# ---------------------------------------------------------------------------
# The discriminator
# ---------------------------------------------------------------------------


class DiscriminationResult(Record):
    """Comparison of the zeta data of two germs' quadratic parts.

    A differing coefficient refutes equivalence of the quadratic parts
    outright; for inputs with higher-order terms the verdict is flagged
    conditional on the reduction to the quadratic part.
    """

    __slots__ = ()
    _fields = (
        "distinguished", "selector", "n", "order", "conditional", "inertia_f", "inertia_g"
    )

    def __init__(
        self,
        distinguished: bool,
        selector: str | None,
        n: int | None,
        order: int,
        conditional: bool,
        inertia_f: Inertia,
        inertia_g: Inertia,
    ):
        set_key(self, (distinguished, selector, n, order, conditional, inertia_f, inertia_g))

    def to_json(self) -> dict:
        payload = {
            "verdict": "distinguished" if self.distinguished else "not_distinguished_up_to",
            "order": self.order,
            "conditional": self.conditional,
            "inertia_f": self.inertia_f.to_json(),
            "inertia_g": self.inertia_g.to_json(),
        }
        if self.distinguished:
            payload["selector"] = self.selector
            payload["n"] = self.n
        return payload


def discriminate(f: PolynomialGerm, g: PolynomialGerm, order: int = 6) -> DiscriminationResult:
    """Compare the naive and signed zeta series of two germs up to T^order.

    Both germs are reduced to their diagonal quadratic parts via Hessian
    inertia; any coefficient mismatch yields a (selector, n) witness.
    """
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    if f.nvars != g.nvars:
        raise DimensionMismatch(f"germs live in {f.nvars} and {g.nvars} variables")
    inertia_f = hessian_inertia(f)
    inertia_g = hessian_inertia(g)
    conditional = any(sum(exps) >= 3 for germ in (f, g) for exps in germ._terms)

    # The first differing coefficient, if any, is at T^2, so no series is
    # built: T^1 vanishes for every germ; equal inertias give equal series
    # at every order (the ambient dimension cancels); and different
    # inertias differ at T^2, because the signed T^2 pair determines the
    # inertia (recover_signature).  Selectors tie-break naive, plus, minus.
    witness = None
    if order >= 2:
        t2_f, t2_g = _t2_coefficients(inertia_f), _t2_coefficients(inertia_g)
        witness = next((sel for sel in (NAIVE, PLUS, MINUS) if t2_f[sel] != t2_g[sel]), None)
    return DiscriminationResult(
        distinguished=witness is not None,
        selector=witness,
        n=None if witness is None else 2,
        order=order,
        conditional=conditional,
        inertia_f=inertia_f,
        inertia_g=inertia_g,
    )
