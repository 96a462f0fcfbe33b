"""Domain errors raised across the package.

The class name of each error is what the command line layer reports in its
JSON failure envelope, so these names are part of the public interface.
"""

import sys

__all__ = [
    "ArcZetaError",
    "ZeroPolynomial",
    "EmptyProjectiveQuadric",
    "NotReducible",
    "MalformedExpression",
    "InvalidGerm",
    "GermSyntaxError",
    "NotAGerm",
    "NotSingularAtOrigin",
    "NotSignatureForm",
    "DimensionMismatch",
    "ResultTooLarge",
    "InvariantViolation",
]


# The most characters of an offending input that an error detail echoes.
ECHO_LIMIT = 80

# Germs in more variables are refused: every term keeps an exponent tuple of
# nvars slots, so a short text naming x10000000 could ask for any amount of
# memory.  The budget is 1 ms and 100 KB a parsed term; at the cap a term's
# tuple takes 80 KB and parsing costs about 1.0 ms a term (2-vCPU VM, Python
# 3.11).  Memory still grows with the number of terms times nvars.
MAX_GERM_VARIABLES = 10_000

# split refuses germs in more variables: its change has nvars components of
# nvars-long exponent vectors, so its work and its output grow like nvars^2.
# The budget is the acceptance gates' 0.5 s; at the cap, split --json of
# x1^2 + x1000*x1^2 at jet 4 takes about 0.4 s and prints 3 MB (2-vCPU VM,
# Python 3.11).  The cap does not bound the jet order or the number of terms.
MAX_SPLIT_VARIABLES = 1_000


def brief_repr(value) -> str:
    """repr(value) for an error detail, cut to ECHO_LIMIT characters ending in '...'.

    Details echo the offending input, which may be arbitrarily large or
    deeply nested; the cut keeps the envelope short.
    """
    text = repr(value)
    return text if len(text) <= ECHO_LIMIT else text[: ECHO_LIMIT - 3] + "..."


def number_text(value) -> str:
    """str(value) of an int or Fraction for output, or ResultTooLarge.

    The interpreter refuses to convert an integer with more digits than
    sys.get_int_max_str_digits() (4,300 by default), and that ValueError is
    the only one str() of an int or a Fraction raises.  Renderers format
    every coefficient through here, so such an answer ends in the envelope.
    """
    try:
        return str(value)
    except ValueError:
        raise ResultTooLarge(
            "the answer has a number with more digits than the interpreter prints "
            f"({sys.get_int_max_str_digits()})"
        ) from None


class ArcZetaError(Exception):
    """Base class for every domain error raised by this package."""


class ZeroPolynomial(ArcZetaError):
    """An operation that needs a nonzero polynomial received zero."""


class EmptyProjectiveQuadric(ArcZetaError):
    """A projective quadric with no real points (one sign class is empty)."""


class NotReducible(ArcZetaError):
    """The quadric atom is a base case, not subject to hyperbolic reduction."""


class MalformedExpression(ArcZetaError):
    """A set expression failed structural validation."""


class InvalidGerm(ArcZetaError):
    """Quadratic germ data violating 1 <= plus + minus <= dim."""


class GermSyntaxError(ArcZetaError):
    """Polynomial germ text that does not match the input grammar."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"syntax error at offset {offset}: {message}")
        self.offset = offset


class NotAGerm(ArcZetaError):
    """A polynomial with nonzero constant term, so it does not vanish at 0."""


class NotSingularAtOrigin(ArcZetaError):
    """A germ whose linear part does not vanish at the origin."""


class NotSignatureForm(ArcZetaError):
    """A coefficient that is not of the shape produced by a signature quadric."""


class DimensionMismatch(ArcZetaError):
    """Two germs that live in different ambient dimensions."""


class ResultTooLarge(ArcZetaError):
    """An answer too large to give.

    It holds a number longer than the interpreter's int/str digit limit, or
    it is a split in more variables than MAX_SPLIT_VARIABLES.
    """


class InvariantViolation(ArcZetaError):
    """A computed result broke an invariant the engine promises: a defect, not bad input.

    The engine checks these with explicit tests rather than asserts, so the
    check also runs under python -O and ends in the failure envelope.
    """
