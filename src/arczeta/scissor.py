"""Virtual Poincare polynomials of sets built from signature quadrics.

beta is the unique additive and multiplicative invariant of real algebraic
sets that restricts to Z/2 Betti numbers on compact nonsingular ones.  On
the atoms used here it takes the classical values

    beta(R^k) = u^k        beta(R^*) = u - 1       beta(point) = 1
    beta(S^n) = 1 + u^n    beta(P^k(R)) = 1 + u + ... + u^k

and it extends over Product (multiplicativity), DisjointUnion, and
Difference of an ambient set by a closed algebraic subset (additivity).
Additivity does NOT hold for arbitrary semialgebraic pieces, which is why
Difference is the only subtraction offered and why every decomposition
below is a genuinely algebraic product, never an interval bundle.

Quadric atoms.  Write q(x, y) = x_1^2 + ... + x_s^2 - y_1^2 - ... - y_t^2
on R^(s+t).  The atom QuadricAffine(c, s, t) is the solution set {q = c}
for c in {-1, 0, +1}; QuadricProjective(m, M) is the projectivization of
the cone {q = 0} inside P^(m+M-1)(R).

Two independent routes to beta of the affine quadrics are implemented.

* Closed forms (beta_cone, beta_level, beta_projective_quadric), entered
  directly as explicit formulas.

* A decomposition engine (quadric_reduce + beta_eval).  For s, t >= 1
  substitute p = x_1 + y_1, w = x_1 - y_1, so the equation becomes
  p*w + q'(rest) = c.  Cut along the closed subset {p = 0}:

      {p != 0}: w = (c - q')/p is a regular function there, so the piece
                is biregular to R^* x R^(s+t-2);
      {p = 0}:  w is free and the equation drops to q' = c, giving
                {q' = c} x R.

  Hence beta(c; s, t) = (u-1) u^(s+t-2) + u * beta(c; s-1, t-1), with base
  cases at s = 0 or t = 0: spheres for the level sets, a point for the
  cone (the real solution set of q = 0 with one sign class empty is the
  origin), and the empty set for an unreachable level.

Everything here is a pure function over immutable expressions; the memo
table on quadric atoms only ever stores values that any writer would
recompute identically.  beta_eval and expression_json_text each fill only
a memo the caller passes in (beta_eval makes its own when given none), so
each distinct node object is evaluated or written once per memo, and
expression_json_text writes each run of one repeated child once per run
length.  Both key nodes by identity (id), and runs by (id, length).  That
is sound only while every node keyed in the memo stays alive, since a
freed node's id can be reused.  So the caller makes the memo, uses it for
one batch of expressions it holds, and drops it.  stratify seeds the memo
of one report with a copy of the betas of the factor nodes that the
orders share (arcspace._SharedStrata, which holds those nodes for as long
as it lives) and adds the strata of that report; the command line writes
one request under one memo.  No memo outlives its batch, and none is kept
at module level.
"""

import json
from collections import namedtuple
from functools import lru_cache, reduce
from itertools import groupby
from operator import add

from ._record import Record, set_field, set_key
from .algebra import ONE, U, ZERO, LaurentPolynomial, geometric_sum
from .errors import EmptyProjectiveQuadric, MalformedExpression, NotReducible, brief_repr

__all__ = [
    "AffineSpace",
    "PuncturedLine",
    "Point",
    "Sphere",
    "ProjectiveSpace",
    "QuadricAffine",
    "QuadricProjective",
    "Product",
    "DisjointUnion",
    "Difference",
    "SetExpression",
    "EMPTY",
    "beta_cone",
    "beta_projective_quadric",
    "beta_level",
    "quadric_reduce",
    "quadric_base_case",
    "beta_eval",
    "cone_relation_check",
    "euler_characteristic",
    "expression_to_json",
    "expression_json_text",
    "expression_from_json",
]


# ---------------------------------------------------------------------------
# Set expressions
# ---------------------------------------------------------------------------


# Every node validates itself on construction, so an expression that exists
# is well formed and nothing downstream (beta_eval, the JSON writer) checks
# it again.  The types of all fields are checked before any range, which is
# the order in which expression_from_json reports errors.

# Deeper expressions are refused, however they are built: reading,
# evaluating and writing all recurse.  An atom is one node deep.
MAX_EXPRESSION_DEPTH = 100
_TOO_DEEP = f"expression nests deeper than {MAX_EXPRESSION_DEPTH} nodes"

# Larger projective spaces are refused: beta(P^k) has k + 1 terms, so a short
# input could ask for any amount of memory.  The budget for the largest
# admitted atom is 50 ms; `beta expr` on P^cap takes about 6 ms with --json,
# in a process of about 21 MB peak RSS (2-vCPU VM, Python 3.11).
MAX_PROJECTIVE_DIMENSION = 10_000


def _require_ints(node, *names):
    for name in names:
        value = getattr(node, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise MalformedExpression(
                f"field {name!r} must be an integer, got {brief_repr(value)}"
            )


def _compose(node, *children):
    """Check the children of a composite node and record its depth.

    A child object repeated in the node (a run of one shared factor) is
    checked once; the first offending child is still the one reported.
    """
    distinct = {id(child): child for child in children}.values()
    for child in distinct:
        _node_type(child)
    depth = 1 + max((getattr(child, "depth", 1) for child in distinct), default=0)
    if depth > MAX_EXPRESSION_DEPTH:
        raise MalformedExpression(_TOO_DEEP)
    set_field(node, "depth", depth)


class AffineSpace(Record):
    __slots__ = _fields = ("k",)

    def __init__(self, k: int):
        set_field(self, "k", k)
        set_key(self, (k,))
        _require_ints(self, "k")
        if self.k < 0:
            raise MalformedExpression(f"affine space needs k >= 0, got {brief_repr(self.k)}")


class PuncturedLine(Record):
    """The real line minus a point, R^*."""

    __slots__ = ()

    def __init__(self):
        set_key(self, ())


class Point(Record):
    __slots__ = ()

    def __init__(self):
        set_key(self, ())


class Sphere(Record):
    __slots__ = _fields = ("dim",)

    def __init__(self, dim: int):
        set_field(self, "dim", dim)
        set_key(self, (dim,))
        _require_ints(self, "dim")
        if self.dim < 0:
            raise MalformedExpression(f"sphere needs dim >= 0, got {brief_repr(self.dim)}")


class ProjectiveSpace(Record):
    __slots__ = _fields = ("k",)

    def __init__(self, k: int):
        set_field(self, "k", k)
        set_key(self, (k,))
        _require_ints(self, "k")
        if self.k < 0:
            raise MalformedExpression(f"projective space needs k >= 0, got {brief_repr(self.k)}")
        if self.k > MAX_PROJECTIVE_DIMENSION:
            raise MalformedExpression(
                f"projective space needs k <= {MAX_PROJECTIVE_DIMENSION}, got {brief_repr(self.k)}"
            )


class QuadricAffine(Record):
    """{x_1^2+...+x_s^2 - y_1^2-...-y_t^2 = c} in R^(s+t), c in {-1, 0, +1}.

    (0, 0, 0) is the single point of R^0.
    """

    __slots__ = _fields = ("c", "s", "t")

    def __init__(self, c: int, s: int, t: int):
        set_field(self, "c", c)
        set_field(self, "s", s)
        set_field(self, "t", t)
        set_key(self, (c, s, t))
        _require_ints(self, "c", "s", "t")
        if self.c not in (-1, 0, 1):
            raise MalformedExpression(
                f"quadric level must be -1, 0 or +1, got {brief_repr(self.c)}"
            )
        if self.s < 0 or self.t < 0:
            raise MalformedExpression(
                "quadric signature must be nonnegative ints: "
                f"({brief_repr(self.s)}, {brief_repr(self.t)})"
            )


class QuadricProjective(Record):
    """The same equation read in P^(m+M-1)(R); needs m, M >= 1 to be nonempty."""

    __slots__ = _fields = ("m", "M")

    def __init__(self, m: int, M: int):
        set_field(self, "m", m)
        set_field(self, "M", M)
        set_key(self, (m, M))
        _require_ints(self, "m", "M")
        if self.m < 1 or self.M < 1:
            raise MalformedExpression(
                "projective quadric needs m, M >= 1, got "
                f"({brief_repr(self.m)}, {brief_repr(self.M)})"
            )


# depth, set by _compose, is a slot outside _fields: it takes no part in
# ==, hash or repr.


class Product(Record):
    __slots__ = ("children", "depth")
    _fields = ("children",)

    def __init__(self, children: tuple):
        children = tuple(children)
        set_field(self, "children", children)
        set_key(self, (children,))
        _compose(self, *children)

    @classmethod
    def _of(cls, children: tuple, depth: int) -> "Product":
        """Wrap a tuple of set expressions whose depth the caller knows, making no
        pass over them: stratify builds its strata from nodes it has checked once."""
        result = object.__new__(cls)
        set_field(result, "children", children)
        set_key(result, (children,))
        set_field(result, "depth", depth)
        return result


class DisjointUnion(Record):
    __slots__ = ("children", "depth")
    _fields = ("children",)

    def __init__(self, children: tuple):
        children = tuple(children)
        set_field(self, "children", children)
        set_key(self, (children,))
        _compose(self, *children)


class Difference(Record):
    """ambient minus a closed algebraic subset of it (additivity hypothesis)."""

    __slots__ = ("ambient", "closed_subset", "depth")
    _fields = ("ambient", "closed_subset")

    def __init__(self, ambient: "SetExpression", closed_subset: "SetExpression"):
        set_field(self, "ambient", ambient)
        set_field(self, "closed_subset", closed_subset)
        set_key(self, (ambient, closed_subset))
        _compose(self, self.ambient, self.closed_subset)


SetExpression = (
    AffineSpace
    | PuncturedLine
    | Point
    | Sphere
    | ProjectiveSpace
    | QuadricAffine
    | QuadricProjective
    | Product
    | DisjointUnion
    | Difference
)

EMPTY = DisjointUnion(())


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def beta_cone(plus: int, minus: int) -> LaurentPolynomial:
    """beta of the affine cone {q = 0} with signature (plus, minus).

    For min >= 1 this is u^(plus+minus-1) - u^(max-1) + u^(min).  When one
    sign class is empty the real solution set is the origin alone, so the
    value is 1 (which is also what the formula gives at min = 0).
    """
    _check_counts(plus, minus)
    lo, hi = sorted((plus, minus))
    if lo == 0:
        return ONE
    return (
        LaurentPolynomial.monomial(plus + minus - 1)
        - LaurentPolynomial.monomial(hi - 1)
        + LaurentPolynomial.monomial(lo)
    )


def beta_projective_quadric(plus: int, minus: int) -> LaurentPolynomial:
    """beta of the projectivized cone in P^(plus+minus-1)(R).

    Equals (1 + u^(max-1)) * (1 + u + ... + u^(min-1)); the equation has no
    real projective solutions when either sign class is empty.
    """
    _check_counts(plus, minus)
    lo, hi = sorted((plus, minus))
    if lo == 0:
        raise EmptyProjectiveQuadric(
            f"projective quadric with signature ({plus}, {minus}) has no real points"
        )
    return (ONE + LaurentPolynomial.monomial(hi - 1)) * geometric_sum(lo)


def beta_level(plus: int, minus: int, level: int) -> LaurentPolynomial:
    """beta of the level hypersurface {q = level}, level in {+1, -1}.

    Level +1: empty for plus = 0; the sphere S^(plus-1) for minus = 0; and
    otherwise u^(minus-1) * (u^plus - 1) for plus <= minus or
    u^minus * (u^(plus-1) + 1) for plus > minus.  Level -1 is the same set
    with the two sign classes exchanged.
    """
    _check_counts(plus, minus)
    if level == -1:
        return beta_level(minus, plus, 1)
    if level != 1:
        raise ValueError(f"level must be +1 or -1, got {level!r}")
    if plus == 0:
        return ZERO
    if minus == 0:
        return ONE + LaurentPolynomial.monomial(plus - 1)
    if plus <= minus:
        return LaurentPolynomial.monomial(minus - 1) * (
            LaurentPolynomial.monomial(plus) - ONE
        )
    return LaurentPolynomial.monomial(minus) * (
        LaurentPolynomial.monomial(plus - 1) + ONE
    )


def _check_counts(plus, minus):
    if not isinstance(plus, int) or not isinstance(minus, int) or plus < 0 or minus < 0:
        raise ValueError(f"signature counts must be nonnegative ints: ({plus!r}, {minus!r})")


# ---------------------------------------------------------------------------
# Decomposition engine
# ---------------------------------------------------------------------------


def quadric_reduce(c: int, plus: int, minus: int) -> SetExpression:
    """Rewrite {q = c} by splitting off one hyperbolic pair.

    Needs plus >= 1 and minus >= 1; the result is
    DisjointUnion(R^* x R^(plus+minus-2), {q' = c} x R) with q' of
    signature (plus-1, minus-1), and strictly decreases plus + minus.
    """
    QuadricAffine(c, plus, minus)  # building the atom validates the arguments
    if plus < 1 or minus < 1:
        raise NotReducible(
            f"quadric (c={c}, s={plus}, t={minus}) is a base case"
        )
    return DisjointUnion(
        (
            Product((PuncturedLine(), AffineSpace(plus + minus - 2))),
            Product((QuadricAffine(c, plus - 1, minus - 1), AffineSpace(1))),
        )
    )


def quadric_base_case(c: int, plus: int, minus: int) -> SetExpression:
    """The base-case set for a quadric atom with plus = 0 or minus = 0."""
    QuadricAffine(c, plus, minus)  # building the atom validates the arguments
    if plus >= 1 and minus >= 1:
        raise ValueError("not a base case; use quadric_reduce")
    if c == 0:
        # one sign class empty: the equation forces every coordinate to 0
        return Point()
    if c == 1:
        if plus == 0:
            return EMPTY
        return Sphere(plus - 1)
    if minus == 0:
        return EMPTY
    return Sphere(minus - 1)


@lru_cache(maxsize=None)
def _beta_quadric(c: int, plus: int, minus: int) -> LaurentPolynomial:
    if plus < 1 or minus < 1:
        return beta_eval(quadric_base_case(c, plus, minus))
    # Walk the hyperbolic-pair chain bottom-up first, so that the reduction
    # below finds its smaller quadric cached and recurses one level only,
    # however cold the cache and however large the signature.
    for drop in range(min(plus, minus) - 1, 0, -1):
        _beta_quadric(c, plus - drop, minus - drop)
    return beta_eval(quadric_reduce(c, plus, minus))


def _beta_product(product: Product, evaluate) -> LaurentPolynomial:
    # Children with a one-term beta (affine spaces, points, the strata's
    # hyperplanes and z-block) fold into one u^shift * scale, applied once at
    # the end; only the others are multiplied, a run of one repeated child
    # object as a power.
    shift, scale, total = 0, 1, None
    for _, run in groupby(product.children, key=id):
        run = list(run)
        value = evaluate(run[0])
        terms = value._terms  # read in place: the package's own value type
        if len(terms) == 1:
            ((exp, coeff),) = terms.items()
            shift += exp * len(run)
            scale *= coeff ** len(run)
        elif not terms:
            return ZERO
        else:
            value = value ** len(run)
            total = value if total is None else total * value
    if total is None:
        return LaurentPolynomial.monomial(shift, scale)
    if shift or scale != 1:
        total = total * LaurentPolynomial.monomial(shift, scale)
    return total


# kind: the JSON key carrying the tag, "atom" or "op"; fields: an atom's
# integer fields, or an op's child slots (() if variadic); beta: the node's
# value from its fields, given the evaluator that beta_eval uses for its
# children.
_Node = namedtuple("_Node", "kind tag fields beta")


# The one table behind beta_eval, expression_to_json and expression_from_json.
_NODES = {
    AffineSpace: _Node(
        "atom", "affine_space", ("k",), lambda x, _: LaurentPolynomial.monomial(x.k)
    ),
    PuncturedLine: _Node("atom", "punctured_line", (), lambda x, _: U - ONE),
    Point: _Node("atom", "point", (), lambda x, _: ONE),
    Sphere: _Node(
        "atom", "sphere", ("dim",), lambda x, _: ONE + LaurentPolynomial.monomial(x.dim)
    ),
    ProjectiveSpace: _Node(
        "atom", "projective_space", ("k",), lambda x, _: geometric_sum(x.k + 1)
    ),
    QuadricAffine: _Node(
        "atom", "quadric_affine", ("c", "s", "t"), lambda x, _: _beta_quadric(x.c, x.s, x.t)
    ),
    QuadricProjective: _Node(
        "atom", "quadric_projective", ("m", "M"), lambda x, _: beta_projective_quadric(x.m, x.M)
    ),
    Product: _Node("op", "product", (), _beta_product),
    DisjointUnion: _Node(
        "op",
        "disjoint_union",
        (),
        lambda x, evaluate: reduce(add, map(evaluate, x.children), ZERO),
    ),
    Difference: _Node(
        "op",
        "difference",
        ("ambient", "closed_subset"),
        lambda x, evaluate: evaluate(x.ambient) - evaluate(x.closed_subset),
    ),
}
_BY_TAG = {(node.kind, node.tag): cls for cls, node in _NODES.items()}


def _node_type(expression) -> _Node:
    try:
        return _NODES[type(expression)]
    except KeyError:
        raise MalformedExpression(f"not a set expression: {brief_repr(expression)}") from None


def beta_eval(expression: SetExpression, memo: dict | None = None) -> LaurentPolynomial:
    """Evaluate beta on a set expression by additivity and multiplicativity.

    Each distinct node object is evaluated once per memo.  stratify passes
    one memo for all the strata of a report, seeded with the betas of the
    factors they share; without one, the call makes its own.  The memo is
    keyed by id: the module docstring says when that is sound.
    """
    memo = {} if memo is None else memo

    def evaluate(node):
        key = id(node)
        value = memo.get(key)
        if value is None:
            value = memo[key] = _node_type(node).beta(node, evaluate)
        return value

    return evaluate(expression)


def cone_relation_check(m: int, M: int) -> bool:
    """Whether beta of the cone is 1 + (u-1) * beta of its projectivization.

    The cone minus the origin fibers over the projective quadric with fiber
    R^*, piecewise algebraically trivially, which is what this identity
    expresses.
    """
    return beta_cone(m, M) == ONE + (U - ONE) * beta_projective_quadric(m, M)


def euler_characteristic(expression: SetExpression) -> int:
    """The specialization u = -1 of beta, as an integer."""
    value = beta_eval(expression).evaluate(-1)
    return int(value)


# ---------------------------------------------------------------------------
# JSON encoding of set expressions
# ---------------------------------------------------------------------------


def expression_to_json(expression: SetExpression) -> dict:
    node = _node_type(expression)
    if node.kind == "atom":
        return {"atom": node.tag, **{name: getattr(expression, name) for name in node.fields}}
    children = _children(node, expression)
    return {"op": node.tag, "children": [expression_to_json(child) for child in children]}


def _children(node: _Node, expression) -> tuple:
    """The children of a composite node, in JSON order."""
    if node.fields:
        return tuple(getattr(expression, slot) for slot in node.fields)
    return expression.children


def expression_json_text(expression: SetExpression, memo: dict) -> str:
    """The text json.dumps(expression_to_json(expression), sort_keys=True) gives.

    Each distinct node, and each run of one child object repeated in a
    composite, is turned into text once per memo, so an output that
    repeats shared nodes (the strata of zeta --strata share most of theirs,
    and their runs of forced hyperplanes) costs one rendering per node and
    per run length instead of one per occurrence.  The caller makes the
    memo and drops it with the request: nothing is kept here.  Nodes are
    keyed by id, runs by (id, length), which is sound only while every node
    rendered with the memo stays alive, so a memo must not outlive the
    expressions it was used on.
    """
    return _json_text(expression, memo)


def _json_text(expression, memo: dict) -> str:
    key = id(expression)
    text = memo.get(key)
    if text is not None:
        return text
    node = _node_type(expression)
    if node.kind == "atom":
        text = json.dumps(expression_to_json(expression), sort_keys=True)
    else:
        parts = []
        for child_key, run in groupby(_children(node, expression), key=id):
            run = list(run)
            if len(run) == 1:
                parts.append(_json_text(run[0], memo))
                continue
            # a run of one repeated child object is written once per length
            run_key = (child_key, len(run))
            part = memo.get(run_key)
            if part is None:
                part = memo[run_key] = ", ".join([_json_text(run[0], memo)] * len(run))
            parts.append(part)
        text = '{"children": [' + ", ".join(parts) + '], "op": "' + node.tag + '"}'
    memo[key] = text
    return text


def _tagged(kind: str, tag) -> type:
    cls = _BY_TAG.get((kind, tag)) if isinstance(tag, str) else None
    if cls is None:
        unknown = "atom" if kind == "atom" else "operator"
        raise MalformedExpression(f"unknown {unknown} {brief_repr(tag)}")
    return cls


def expression_from_json(data) -> SetExpression:
    return _from_json(data, 1)


def _from_json(data, depth: int) -> SetExpression:
    # checked on the way down, before any child is read
    if depth > MAX_EXPRESSION_DEPTH:
        raise MalformedExpression(_TOO_DEEP)
    if not isinstance(data, dict):
        raise MalformedExpression(f"expected a JSON object, got {brief_repr(data)}")
    if "atom" in data:
        cls = _tagged("atom", data["atom"])
        return cls(*(data.get(name) for name in _NODES[cls].fields))
    if "op" in data:
        children = data.get("children")
        if not isinstance(children, list):
            raise MalformedExpression("operator node needs a 'children' list")
        parsed = [_from_json(child, depth + 1) for child in children]
        cls = _tagged("op", data["op"])
        slots = _NODES[cls].fields
        if not slots:
            return cls(tuple(parsed))
        if len(parsed) != len(slots):
            raise MalformedExpression(f"{data['op']} takes exactly [{', '.join(slots)}]")
        return cls(*parsed)
    raise MalformedExpression("expression node needs an 'atom' or 'op' tag")
