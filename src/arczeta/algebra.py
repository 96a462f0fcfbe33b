"""Exact arithmetic in Z[u, 1/u], and truncated power series over it.

Virtual Poincare polynomials live in Z[u]; zeta-function coefficients pick
up negative powers of u through the normalizing factor u^(-n*dim), and the
zeta functions themselves are formal series in T carried with an explicit
truncation order.  Coefficients are Python's arbitrary-precision integers:
there is no floating point anywhere.

All values are immutable and hashable, and every operation is a pure
function, so they can be shared freely between threads.
"""

from collections.abc import Iterable, Mapping

from .errors import ZeroPolynomial, brief_repr, number_text

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
        return ONE if result is None else result

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
                upart = "u" if exp == 1 else f"u^{number_text(exp)}"
                body = upart if mag == 1 else f"{number_text(mag)}*{upart}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    __str__ = to_text

    def __repr__(self):
        return f"LaurentPolynomial({self.to_text()!r})"

    # -- JSON ----------------------------------------------------------------

    def to_json(self) -> list[list]:
        """[[exponent, coefficient-as-decimal-string], ...] sorted by exponent.

        The exponents stay ints, but the two widest go through number_text,
        so json.dumps meets no exponent it cannot print.
        """
        exps = sorted(self._terms)
        for exp in exps[:1] + exps[-1:]:
            number_text(exp)
        return [[exp, number_text(self._terms[exp])] for exp in exps]

    def json_text(self) -> str:
        """The text json.dumps(self.to_json()) gives, written without the list."""
        terms = self._terms
        if not terms:
            return "[]"
        try:
            return "[" + ", ".join([f'[{exp}, "{terms[exp]}"]' for exp in sorted(terms)]) + "]"
        except ValueError:
            # an integer over the interpreter's digit limit: refused as
            # number_text refuses it, which is what to_json does
            for value in (*terms, *terms.values()):
                number_text(value)
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
            # int() would also truncate a float and read a bool, space, '+', '_'
            # or another script's digits: only a JSON int or -?[0-9]+ is read
            digits = coeff.removeprefix("-") if type(coeff) is str else ""
            if type(coeff) is not int and not (digits.isascii() and digits.isdigit()):
                raise ValueError(f"coefficient must be an integer, got {brief_repr(coeff)}")
            terms[exp] = terms.get(exp, 0) + value
        return cls(terms)


ZERO = LaurentPolynomial._of({})
ONE = LaurentPolynomial._of({0: 1})
U = LaurentPolynomial.monomial(1)


def geometric_sum(length: int) -> LaurentPolynomial:
    """1 + u + ... + u^(length-1); the empty sum for length 0."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    return LaurentPolynomial._of({k: 1 for k in range(length)})


class TruncatedSeries:
    """Formal power series in T with LaurentPolynomial coefficients.

    A series carries a truncation order N: coefficients are kept for
    1 <= n <= N only.  Index 0 does not exist; all series here vanish at
    T = 0.
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
        """Wrap a map of nonzero polynomials at indices 1..order, making no pass
        over it: series_from_reports builds its map from the engine's reports."""
        result = object.__new__(cls)
        result._order = order
        result._coeffs = coefficients
        return result

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

    def to_json(self) -> dict:
        return {
            "order": self._order,
            "terms": [[n, self._coeffs[n].to_json()] for n in sorted(self._coeffs)],
        }
