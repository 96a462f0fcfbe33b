"""Exact arithmetic in Z[u, 1/u] and in truncated power series over it.

Virtual Poincare polynomials live in Z[u]; zeta-function coefficients pick
up negative powers of u through the normalizing factor u^(-n*dim), and the
zeta functions themselves are formal series in T carried with an explicit
truncation order.  Both rings are implemented exactly over Python's
arbitrary-precision integers: there is no floating point anywhere.

All values are immutable and hashable, and every operation is a pure
function, so they can be shared freely between threads.
"""

import operator
import re
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .errors import OrderMismatch, PoleAtZero, ZeroPolynomial, brief_repr, number_text

__all__ = [
    "LaurentPolynomial",
    "TruncatedSeries",
    "ZERO",
    "ONE",
    "U",
    "geometric_sum",
]


class LaurentPolynomial:
    """Integer-coefficient polynomial in u with possibly negative exponents.

    Terms are stored sparsely as {exponent: coefficient} with zero
    coefficients pruned on every operation, so structural equality is
    mathematical equality.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[int, int] = {}
        for exp, coeff in items:
            if not isinstance(exp, int) or not isinstance(coeff, int):
                raise TypeError("exponents and coefficients must be int")
            total = clean.get(exp, 0) + coeff
            if total:
                clean[exp] = total
            elif exp in clean:
                del clean[exp]
        self._terms = clean

    @classmethod
    def _of(cls, terms: dict[int, int]) -> "LaurentPolynomial":
        """Wrap a term map with no zero coefficient, making no pass over it: the
        operations prune inside their own loops, and a filter here would repeat that."""
        result = object.__new__(cls)
        result._terms = terms
        return result

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls.monomial(0)

    @classmethod
    def constant(cls, value: int) -> "LaurentPolynomial":
        return cls.monomial(0, value)

    @classmethod
    def monomial(cls, exponent: int, coefficient: int = 1) -> "LaurentPolynomial":
        # the hot constructor: one term needs no merging, only the zero check
        if not isinstance(exponent, int) or not isinstance(coefficient, int):
            raise TypeError("exponents and coefficients must be int")
        return cls._of({exponent: coefficient} if coefficient else {})

    # -- inspection --------------------------------------------------------

    def terms(self) -> dict[int, int]:
        """A copy of the exponent -> coefficient map."""
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Largest exponent present; the zero polynomial has none."""
        if not self._terms:
            raise ZeroPolynomial("the zero polynomial has no degree")
        return max(self._terms)

    def valuation(self) -> int:
        """Smallest exponent present; the zero polynomial has none."""
        if not self._terms:
            raise ZeroPolynomial("the zero polynomial has no valuation")
        return min(self._terms)

    def coefficient(self, exponent: int) -> int:
        return self._terms.get(exponent, 0)

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(value) -> "LaurentPolynomial | None":
        if isinstance(value, LaurentPolynomial):
            return value
        if isinstance(value, int):
            return LaurentPolynomial.monomial(0, value)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        merged = dict(self._terms)
        for exp, coeff in other._terms.items():
            total = merged.get(exp, 0) + coeff
            if total:
                merged[exp] = total
            elif exp in merged:
                del merged[exp]
        return LaurentPolynomial._of(merged)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial._of({exp: -coeff for exp, coeff in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        left, right = self._terms, other._terms
        if len(left) != 1:
            left, right = right, left
        if len(left) == 1:
            # a monomial factor shifts and scales; nonzero times nonzero
            # leaves nothing to prune
            ((shift, scale),) = left.items()
            product = {exp + shift: coeff * scale for exp, coeff in right.items()}
        else:
            product = {}
            for e1, c1 in left.items():
                for e2, c2 in right.items():
                    exp = e1 + e2
                    total = product.get(exp, 0) + c1 * c2
                    if total:
                        product[exp] = total
                    elif exp in product:
                        del product[exp]
        return LaurentPolynomial._of(product)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if len(self._terms) == 1:
            ((exp, coeff),) = self._terms.items()
            return LaurentPolynomial.monomial(exp * n, coeff**n)
        result = None
        base = self
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return LaurentPolynomial.one() if result is None else result

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if not self._terms:
            return hash(0)
        if len(self._terms) == 1 and 0 in self._terms:
            return hash(self._terms[0])
        return hash(tuple(sorted(self._terms.items())))

    def __bool__(self):
        return bool(self._terms)

    # -- the operations the rest of the package relies on -------------------

    def factor_monomial(self) -> tuple[int, "LaurentPolynomial"]:
        """Write self = u^shift * reduced with reduced(0) != 0.

        The shift is the minimal exponent occurring, so the reduced part has
        a nonzero constant term.
        """
        if not self._terms:
            raise ZeroPolynomial("cannot factor a monomial out of zero")
        shift = min(self._terms)
        return shift, LaurentPolynomial._of(
            {exp - shift: coeff for exp, coeff in self._terms.items()}
        )

    def evaluate(self, value) -> Fraction:
        """Exact evaluation at a rational point.

        Evaluation at 0 is allowed only when no negative exponents occur.
        """
        point = Fraction(value)
        if point == 0:
            if self._terms and min(self._terms) < 0:
                raise PoleAtZero("evaluation at 0 with negative exponents present")
            return Fraction(self._terms.get(0, 0))
        total = Fraction(0)
        for exp, coeff in self._terms.items():
            total += coeff * point**exp
        return total

    # -- rendering ----------------------------------------------------------

    def to_text(self) -> str:
        """Render in caret notation, highest exponent first: "u^3 + u^2 - u"."""
        if not self._terms:
            return "0"
        parts: list[str] = []
        for exp in sorted(self._terms, reverse=True):
            coeff = self._terms[exp]
            mag = abs(coeff)
            if exp == 0:
                body = number_text(mag)
            else:
                upart = "u" if exp == 1 else f"u^{exp}"
                body = upart if mag == 1 else f"{number_text(mag)}*{upart}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    __str__ = to_text

    def __repr__(self):
        return f"LaurentPolynomial({self.to_text()!r})"

    # pattern strings: no command parses text, so they are compiled on first
    # use, through re's own cache
    _TOKEN = r"\s*(?:(?P<num>\d+)|(?P<sym>[u^*+-]))"

    @classmethod
    def from_text(cls, text: str) -> "LaurentPolynomial":
        """Parse the to_text format back into a polynomial."""
        tokens: list[tuple[str, str, int]] = []
        token = re.compile(cls._TOKEN)
        pos = 0
        while pos < len(text):
            match = token.match(text, pos)
            if match is None:
                if text[pos:].strip():
                    raise ValueError(f"unexpected character in polynomial: {text[pos:]!r}")
                break
            pos = match.end()
            if match.group("num") is not None:
                tokens.append(("num", match.group("num"), match.start()))
            else:
                tokens.append((match.group("sym"), match.group("sym"), match.start()))

        terms: dict[int, int] = {}
        i = 0

        def peek(kind):
            return i < len(tokens) and tokens[i][0] == kind

        if not tokens:
            raise ValueError("empty polynomial text")
        while i < len(tokens):
            sign = 1
            if peek("+") or peek("-"):
                sign = -1 if tokens[i][0] == "-" else 1
                i += 1
            coeff = 1
            has_coeff = False
            if peek("num"):
                coeff = int(tokens[i][1])
                has_coeff = True
                i += 1
            if peek("*"):
                i += 1
                if not peek("u"):
                    raise ValueError("expected u after '*'")
            if peek("u"):
                i += 1
                exp = 1
                if peek("^"):
                    i += 1
                    esign = 1
                    if peek("-"):
                        esign = -1
                        i += 1
                    if not peek("num"):
                        raise ValueError("expected digits after '^'")
                    exp = esign * int(tokens[i][1])
                    i += 1
            else:
                if not has_coeff:
                    raise ValueError("expected a coefficient or u")
                exp = 0
            terms[exp] = terms.get(exp, 0) + sign * coeff
        return cls(terms)

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> list[list]:
        """[[exponent, coefficient-as-decimal-string], ...] sorted by exponent."""
        return [[exp, number_text(self._terms[exp])] for exp in sorted(self._terms)]

    def json_text(self) -> str:
        """The text json.dumps(self.to_json()) gives, written without the list."""
        terms = self._terms
        try:
            return "[" + ", ".join([f'[{exp}, "{terms[exp]}"]' for exp in sorted(terms)]) + "]"
        except ValueError:
            # an integer over the interpreter's digit limit: refused as
            # number_text refuses it, which is what to_json does
            for coeff in terms.values():
                number_text(coeff)
            raise

    @classmethod
    def from_json(cls, data) -> "LaurentPolynomial":
        if not isinstance(data, list):
            raise ValueError("polynomial JSON must be a list of [exponent, coefficient]")
        terms: dict[int, int] = {}
        for entry in data:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"bad polynomial term {brief_repr(entry)}")
            exp, coeff = entry
            if not isinstance(exp, int) or isinstance(exp, bool):
                raise ValueError(f"exponent must be an integer, got {brief_repr(exp)}")
            value = int(coeff)  # a bad string or a non-finite float fails here
            if isinstance(coeff, (float, bool)):  # int() would truncate or reinterpret it
                raise ValueError(f"coefficient must be an integer, got {brief_repr(coeff)}")
            terms[exp] = terms.get(exp, 0) + value
        return cls(terms)


ZERO = LaurentPolynomial.zero()
ONE = LaurentPolynomial.one()
U = LaurentPolynomial.monomial(1)


def geometric_sum(length: int) -> LaurentPolynomial:
    """1 + u + ... + u^(length-1); the empty sum for length 0."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return LaurentPolynomial._of({k: 1 for k in range(length)})


class TruncatedSeries:
    """Formal power series in T with LaurentPolynomial coefficients.

    A series carries a truncation order N: coefficients are kept for
    1 <= n <= N only, and arithmetic never reports anything beyond T^N.
    Index 0 does not exist; all series here vanish at T = 0.
    """

    __slots__ = ("_order", "_coeffs")

    def __init__(self, order: int, coefficients: Mapping[int, LaurentPolynomial] = ()):
        if not isinstance(order, int) or isinstance(order, bool) or order < 1:
            raise ValueError("truncation order must be a positive integer")
        items = (
            coefficients.items() if isinstance(coefficients, Mapping) else coefficients
        )
        clean: dict[int, LaurentPolynomial] = {}
        for n, poly in items:
            if not isinstance(n, int) or isinstance(n, bool) or n < 1 or n > order:
                raise ValueError(f"series index {n!r} outside 1..{order}")
            if not isinstance(poly, LaurentPolynomial):
                raise TypeError("coefficients must be LaurentPolynomial")
            if not poly.is_zero():
                clean[n] = poly
        self._order = order
        self._coeffs = clean

    @classmethod
    def _of(cls, order: int, coefficients: dict[int, LaurentPolynomial]) -> "TruncatedSeries":
        """Wrap coefficients the class's own arithmetic built: zeros drop, nothing is checked."""
        series = object.__new__(cls)
        series._order = order
        series._coeffs = {n: poly for n, poly in coefficients.items() if poly}
        return series

    @classmethod
    def zero(cls, order: int) -> "TruncatedSeries":
        return cls(order)

    @property
    def order(self) -> int:
        return self._order

    def coefficient(self, n: int) -> LaurentPolynomial:
        if not isinstance(n, int) or n < 1 or n > self._order:
            raise ValueError(f"series index {n!r} outside 1..{self._order}")
        return self._coeffs.get(n, ZERO)

    def coefficients(self) -> dict[int, LaurentPolynomial]:
        """The nonzero coefficients, as a {n: polynomial} copy."""
        return dict(sorted(self._coeffs.items()))

    def is_zero(self) -> bool:
        return not self._coeffs

    def _check_order(self, other: "TruncatedSeries"):
        if self._order != other._order:
            raise OrderMismatch(
                f"series orders differ: {self._order} != {other._order}"
            )

    def _merge(self, other, combine):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        merged = dict(self._coeffs)
        for n, poly in other._coeffs.items():
            merged[n] = combine(merged.get(n, ZERO), poly)
        return TruncatedSeries._of(self._order, merged)

    def __add__(self, other):
        return self._merge(other, operator.add)

    def __sub__(self, other):
        return self._merge(other, operator.sub)

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_order(other)
        product: dict[int, LaurentPolynomial] = {}
        for i, pi in self._coeffs.items():
            for j, pj in other._coeffs.items():
                n = i + j
                if n > self._order:
                    continue
                product[n] = product.get(n, ZERO) + pi * pj
        return TruncatedSeries._of(self._order, product)

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._order == other._order and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self._order, tuple(sorted(self._coeffs.items()))))

    def to_text(self) -> str:
        parts = [
            f"({self._coeffs[n].to_text()})*T^{n}" for n in sorted(self._coeffs)
        ]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(T^{self._order + 1})"

    __str__ = to_text

    def __repr__(self):
        return f"TruncatedSeries({self.to_text()!r})"

    # compiled on first use, like LaurentPolynomial._TOKEN
    _TERM = r"\(([^()]*)\)\*T\^(\d+)"
    _TAIL = r"\s*O\(T\^(\d+)\)\s*$"

    @classmethod
    def from_text(cls, text: str) -> "TruncatedSeries":
        tail = re.search(cls._TAIL, text)
        if tail is None:
            raise ValueError("series text must end with O(T^N+1)")
        order = int(tail.group(1)) - 1
        coeffs = {
            int(n): LaurentPolynomial.from_text(body)
            for body, n in re.findall(cls._TERM, text[: tail.start()])
        }
        return cls(order, coeffs)

    def to_json(self) -> dict:
        return {
            "order": self._order,
            "terms": [[n, self._coeffs[n].to_json()] for n in sorted(self._coeffs)],
        }

    @classmethod
    def from_json(cls, data) -> "TruncatedSeries":
        if not isinstance(data, dict) or "order" not in data:
            raise ValueError("series JSON must be an object with 'order' and 'terms'")
        coeffs: dict[int, LaurentPolynomial] = {}
        for entry in data.get("terms", []):
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"bad series term {brief_repr(entry)}")
            n, poly = entry
            if not isinstance(n, int) or isinstance(n, bool):
                raise ValueError(f"series index must be an integer, got {brief_repr(n)}")
            coeffs[n] = coeffs.get(n, ZERO) + LaurentPolynomial.from_json(poly)
        return cls(data["order"], coeffs)
