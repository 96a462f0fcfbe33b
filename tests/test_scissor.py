import json
import pickle
import random
import sys
from dataclasses import fields, make_dataclass

import pytest

from arczeta import (
    EMPTY,
    ONE,
    ZERO,
    scissor,
    AffineSpace,
    Difference,
    DisjointUnion,
    LaurentPolynomial,
    Point,
    Product,
    ProjectiveSpace,
    PuncturedLine,
    QuadricAffine,
    QuadricProjective,
    SELECTORS,
    QuadraticGerm,
    Sphere,
    beta_cone,
    beta_eval,
    beta_level,
    beta_projective_quadric,
    cone_relation_check,
    expression_from_json,
    expression_to_json,
    geometric_sum,
    quadric_base_case,
    quadric_reduce,
    stratify_series,
)
from arczeta.arcspace import PLUS, naive_t2_coefficient, signed_t2_coefficient
from arczeta.errors import (
    EmptyProjectiveQuadric,
    InvalidGerm,
    MalformedExpression,
    NotReducible,
)
from util import assert_dataclass_semantics, assert_public_twin

U = LaurentPolynomial.monomial(1)


def mono(exp, coeff=1):
    return LaurentPolynomial.monomial(exp, coeff)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_cone_values():
    assert beta_cone(2, 2) == mono(3) + mono(2) - U
    assert beta_cone(1, 1) == mono(1, 2) - 1
    assert beta_cone(3, 3) == mono(5) + mono(3) - mono(2)
    assert beta_cone(0, 3) == ONE
    assert beta_cone(3, 0) == ONE
    assert beta_cone(0, 0) == ONE
    assert beta_cone(2, 3) == beta_cone(3, 2) == mono(4)


def test_cone_toric_decomposition():
    # the cone of signature (2, 2) is the toric hypersurface XY = UV, a
    # disjoint union of torus orbits: (R*)^3, four (R*)^2, four R*, a point
    torus = U - 1
    assert beta_cone(2, 2) == torus**3 + 4 * torus**2 + 4 * torus + ONE


def test_cone_over_sphere_values():
    for M in range(1, 13):
        assert beta_cone(1, M) == ONE + (U - 1) * (ONE + mono(M - 1))
        assert beta_cone(1, M) == mono(M) - mono(M - 1) + U


def test_projective_quadric_values():
    assert beta_projective_quadric(2, 2) == (ONE + U) * (ONE + U)
    assert beta_projective_quadric(1, 1) == 2
    assert beta_projective_quadric(1, 2) == ONE + U
    assert beta_projective_quadric(2, 1) == ONE + U
    for m in range(1, 13):
        for M in range(m, 13):
            assert beta_projective_quadric(m, M) == (ONE + mono(M - 1)) * geometric_sum(m)
            assert beta_projective_quadric(m, M) == beta_projective_quadric(M, m)


def test_projective_quadric_empty():
    with pytest.raises(EmptyProjectiveQuadric):
        beta_projective_quadric(0, 3)
    with pytest.raises(EmptyProjectiveQuadric):
        beta_projective_quadric(2, 0)


def test_level_set_values():
    assert beta_level(1, 1, 1) == U - 1
    assert beta_level(2, 1, 1) == mono(2) + U
    assert beta_level(0, 2, 1) == ZERO
    assert beta_level(1, 0, 1) == 2
    assert beta_level(2, 0, 1) == ONE + U
    assert beta_level(3, 0, 1) == ONE + mono(2)  # the sphere S^2
    assert beta_level(2, 2, -1) == mono(3) - U
    assert beta_level(1, 2, -1) == mono(2) + U
    assert beta_level(2, 0, -1) == ZERO
    assert beta_level(0, 3, -1) == ONE + mono(2)


def test_level_set_symmetry():
    for s in range(13):
        for t in range(13):
            assert beta_level(s, t, -1) == beta_level(t, s, 1)


# ---------------------------------------------------------------------------
# decomposition engine
# ---------------------------------------------------------------------------


def test_quadric_reduce_shapes():
    assert quadric_reduce(1, 2, 1) == DisjointUnion(
        (
            Product((PuncturedLine(), AffineSpace(1))),
            Product((QuadricAffine(1, 1, 0), AffineSpace(1))),
        )
    )
    assert quadric_reduce(0, 1, 1) == DisjointUnion(
        (
            Product((PuncturedLine(), AffineSpace(0))),
            Product((QuadricAffine(0, 0, 0), AffineSpace(1))),
        )
    )
    with pytest.raises(NotReducible):
        quadric_reduce(1, 2, 0)
    with pytest.raises(NotReducible):
        quadric_reduce(0, 0, 4)


def test_quadric_reduce_builds_what_the_public_constructors_build():
    # its nodes are built trusted, from the arguments it checked once
    for c in (-1, 0, 1):
        for s in range(1, 13):
            for t in range(1, 13):
                built = quadric_reduce(c, s, t)
                twin = assert_public_twin(built, {})
                assert twin == DisjointUnion(
                    (
                        Product((PuncturedLine(), AffineSpace(s + t - 2))),
                        Product((QuadricAffine(c, s - 1, t - 1), AffineSpace(1))),
                    )
                )
                assert built.depth == 3


def test_quadric_reduce_preserves_beta():
    for c in (-1, 0, 1):
        for s in range(1, 9):
            for t in range(1, 9):
                rewritten = quadric_reduce(c, s, t)
                assert beta_eval(rewritten) == beta_eval(QuadricAffine(c, s, t))


def test_quadric_base_cases():
    assert quadric_base_case(0, 3, 0) == Point()
    assert quadric_base_case(0, 0, 0) == Point()
    assert quadric_base_case(1, 3, 0) == Sphere(2)
    assert quadric_base_case(1, 0, 3) == EMPTY
    assert quadric_base_case(-1, 3, 0) == EMPTY
    assert quadric_base_case(-1, 0, 3) == Sphere(2)
    with pytest.raises(ValueError):
        quadric_base_case(0, 1, 1)


def test_beta_eval_atoms():
    assert beta_eval(AffineSpace(0)) == ONE
    assert beta_eval(AffineSpace(2)) == mono(2)
    assert beta_eval(PuncturedLine()) == U - 1
    assert beta_eval(Point()) == ONE
    assert beta_eval(Sphere(0)) == 2
    assert beta_eval(Sphere(1)) == ONE + U
    assert beta_eval(ProjectiveSpace(0)) == ONE
    assert beta_eval(ProjectiveSpace(2)) == ONE + U + mono(2)
    assert beta_eval(QuadricProjective(2, 2)) == beta_projective_quadric(2, 2)
    assert beta_eval(EMPTY) == ZERO
    assert beta_eval(Product(())) == ONE


def test_beta_eval_composites():
    assert beta_eval(Product((AffineSpace(2), QuadricAffine(1, 1, 1)))) == mono(3) - mono(2)
    assert beta_eval(DisjointUnion((AffineSpace(1), Point()))) == U + 1
    assert beta_eval(QuadricAffine(0, 2, 3)) == mono(4)
    assert beta_eval(Difference(AffineSpace(1), Point())) == U - 1


def test_engine_matches_closed_forms_on_grid():
    # the central dual-route identity of the module
    for c in (-1, 0, 1):
        for s in range(13):
            for t in range(13):
                closed = beta_cone(s, t) if c == 0 else beta_level(s, t, c)
                assert beta_eval(QuadricAffine(c, s, t)) == closed, (c, s, t)


def test_cone_relation():
    assert cone_relation_check(2, 2)
    assert cone_relation_check(1, 3)
    assert cone_relation_check(1, 1)
    for m in range(1, 13):
        for M in range(1, 13):
            assert cone_relation_check(m, M)


def test_projective_difference_identity():
    for s in range(1, 13):
        for t in range(1, 13):
            if s <= t:
                expected = beta_projective_quadric(s, t + 1) - beta_projective_quadric(s, t)
            else:
                expected = beta_projective_quadric(t + 1, s) - beta_projective_quadric(t, s)
            assert beta_level(s, t, 1) == expected


def test_degree_matches_dimension():
    for c in (-1, 0, 1):
        for s in range(13):
            for t in range(13):
                if c == 0:
                    relevant = min(s, t) >= 1
                elif c == 1:
                    relevant = s >= 1 and s + t >= 2
                else:
                    relevant = t >= 1 and s + t >= 2
                if relevant:
                    assert beta_eval(QuadricAffine(c, s, t)).degree() == s + t - 1


def test_malformed_expressions():
    with pytest.raises(MalformedExpression):
        beta_eval(AffineSpace(-1))
    with pytest.raises(MalformedExpression):
        beta_eval(QuadricAffine(2, 1, 1))
    with pytest.raises(MalformedExpression):
        beta_eval(QuadricProjective(0, 2))
    with pytest.raises(MalformedExpression):
        beta_eval("not an expression")
    with pytest.raises(MalformedExpression):
        expression_from_json({"atom": "mystery"})
    with pytest.raises(MalformedExpression):
        expression_from_json({"op": "difference", "children": []})


def _nested_products(depth: int) -> dict:
    node = {"atom": "sphere", "dim": 1}
    for _ in range(depth - 1):
        node = {"op": "product", "children": [node]}
    return node


def test_expression_depth_cap_does_not_follow_the_recursion_limit():
    cap = scissor.MAX_EXPRESSION_DEPTH
    assert beta_eval(expression_from_json(_nested_products(cap))) == ONE + U
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20 * limit)
    try:
        # 450 nested nodes exhausted the default stack in beta_eval; with
        # room to spare they are still refused, at the same depth
        for depth in (cap + 1, 450):
            with pytest.raises(MalformedExpression, match=f"deeper than {cap} nodes"):
                expression_from_json(_nested_products(depth))
    finally:
        sys.setrecursionlimit(limit)


def test_trusted_product_equals_the_validating_one():
    hyperplane, cone = AffineSpace(3), Difference(QuadricAffine(0, 2, 2), Point())
    cases = [
        (children, depth, tuple((run[0], len(run)) for run in _split_runs(children)))
        for children, depth in [
            ((), 1),
            ((AffineSpace(0),), 2),
            ((cone, *(hyperplane,) * 5, hyperplane, AffineSpace(8), AffineSpace(20)), 3),
            ((Difference(AffineSpace(4), cone), AffineSpace(4)), 4),
            ((Product((cone, Sphere(2))), hyperplane), 4),
        ]
    ]
    # equal children that are distinct objects: three runs when built, one trusted
    cases.append(((AffineSpace(3), AffineSpace(3), AffineSpace(3)), 2, ((hyperplane, 3),)))
    for children, depth, runs in cases:
        built, trusted = Product(children), scissor._trusted(Product, runs, depth)
        assert trusted == built and built == trusted
        assert hash(trusted) == hash(built)
        assert repr(trusted) == repr(built)
        assert trusted.depth == built.depth == depth
        assert trusted.children == children
        assert trusted.runs is runs
        assert [(id(child), count) for child, count in built.runs] == [
            (id(run[0]), len(run)) for run in _split_runs(children)
        ]
        rebuilt = pickle.loads(pickle.dumps(trusted))
        assert rebuilt == built and repr(rebuilt) == repr(built)
        assert beta_eval(trusted) == beta_eval(built)
        assert scissor.expression_json_text(trusted, {}) == scissor.expression_json_text(built, {})


def test_a_product_holds_two_slots_like_any_composite():
    # the runs live in the _key slot a record has, beside depth
    size = sys.getsizeof(DisjointUnion(()))
    assert sys.getsizeof(Product((AffineSpace(1),))) == size
    assert sys.getsizeof(scissor._trusted(Product, ((AffineSpace(1), 2),), 2)) == size


def _split_runs(children):
    """The maximal runs of one child object, each as a list."""
    runs = []
    for child in children:
        if runs and runs[-1][0] is child:
            runs[-1].append(child)
        else:
            runs.append([child])
    return runs


def _assert_runs_expand_to_children(product):
    expanded = [child for child, count in product.runs for _ in range(count)]
    assert len(expanded) == len(product.children)
    assert all(a is b for a, b in zip(expanded, product.children))
    assert all(count >= 1 for _, count in product.runs)
    assert all(a is not b for (a, _), (b, _) in zip(product.runs, product.runs[1:]))


def _products(expression):
    """Every Product node reachable from expression."""
    kind = scissor._node_type(expression)
    if kind.kind == "atom":
        return []
    found = [expression] if isinstance(expression, Product) else []
    for child in scissor._children(kind, expression):
        found += _products(child)
    return found


def test_product_runs_expand_to_its_children_and_are_maximal():
    hyperplane, cone = AffineSpace(3), Difference(QuadricAffine(0, 2, 2), Point())
    products = [
        Product(()),
        Product((hyperplane,) * 4),
        Product([cone, hyperplane, hyperplane, AffineSpace(3), cone, cone, hyperplane]),
        expression_from_json(
            {"op": "product", "children": [{"atom": "point"}] * 3 + [{"atom": "sphere", "dim": 1}]}
        ),
    ]
    for c, s, t in [(0, 1, 1), (1, 3, 2), (-1, 2, 4)]:
        products += _products(quadric_reduce(c, s, t))
    # a pickled product is rebuilt by Product(children); pickle keeps shared objects shared
    products.append(pickle.loads(pickle.dumps(products[2])))
    for product in products:
        _assert_runs_expand_to_children(product)
    # equal children that are distinct objects are runs of their own
    assert [count for _, count in products[2].runs] == [1, 2, 1, 2, 1]
    assert [count for _, count in products[-1].runs] == [1, 2, 1, 2, 1]
    # every stratum of the engine, the z-blocks of dim <= 6 and one larger germ
    germs = [
        QuadraticGerm(dim, plus, rank - plus)
        for dim in range(1, 7)
        for rank in range(1, dim + 1)
        for plus in range(rank + 1)
    ]
    merged_blocks = 0
    for germ in germs + [QuadraticGerm(16, 5, 6)]:
        for selector in SELECTORS:
            for report in stratify_series(germ, selector, 12):
                for _, product in report.strata:
                    _assert_runs_expand_to_children(product)
                    # a w block that is the z-block's object too: one run of two
                    merged_blocks += product.runs[-1][1] == 2
    assert merged_blocks


def test_nodes_validate_on_construction():
    constructions = [
        lambda: AffineSpace(-1),
        lambda: AffineSpace(True),
        lambda: Sphere(-1),
        lambda: ProjectiveSpace("2"),
        lambda: QuadricAffine(2, 1, 1),
        lambda: QuadricAffine(0, -1, 2),
        lambda: QuadricAffine(0, 1.0, 2),
        lambda: QuadricProjective(1, 0),
        lambda: Product((AffineSpace(1), "not an expression")),
        lambda: DisjointUnion([3]),
        lambda: Difference(Point(), None),
        lambda: quadric_reduce(2, 1, 1),
        lambda: quadric_base_case(0, -1, 0),
    ]
    for build in constructions:
        with pytest.raises(MalformedExpression):
            build()


@pytest.mark.parametrize("plus, minus", [
    (True, True), (True, 1), (1, False), (-1, 1), (1, -2), (1.0, 2), ("1", 1), (None, 0),
])
def test_signature_counts_are_nonnegative_ints_not_booleans(plus, minus):
    closed_forms = [
        beta_cone,
        beta_projective_quadric,
        lambda s, t: beta_level(s, t, 1),
        lambda s, t: beta_level(s, t, -1),
    ]
    if isinstance(plus, int) and isinstance(minus, int) and plus + minus >= 1:
        # the T^2 coefficients check the rank first, then read these closed forms
        closed_forms += [naive_t2_coefficient, lambda s, t: signed_t2_coefficient(s, t, PLUS)]
    for closed_form in closed_forms:
        with pytest.raises(ValueError, match="^signature counts must be nonnegative ints: "):
            closed_form(plus, minus)
    # the engine's route to the same identities refuses the same counts
    with pytest.raises(MalformedExpression):
        QuadricAffine(0, plus, minus)
    with pytest.raises(InvalidGerm):
        QuadraticGerm(dim=2, plus=plus, minus=minus)


def test_projective_space_cap_is_exact():
    cap = scissor.MAX_PROJECTIVE_DIMENSION
    assert beta_eval(ProjectiveSpace(cap)) == geometric_sum(cap + 1)
    assert beta_eval(expression_from_json({"atom": "projective_space", "k": cap})).degree() == cap
    # refused before any polynomial is built, however large k is
    for k in (cap + 1, 10**9, 10**300):
        with pytest.raises(MalformedExpression, match=f"^projective space needs k <= {cap}, got "):
            ProjectiveSpace(k)
        atom = {"atom": "projective_space", "k": k}
        with pytest.raises(MalformedExpression, match=f"needs k <= {cap}"):
            expression_from_json({"op": "product", "children": [atom]})


def test_json_reader_reports_the_first_error_in_document_order():
    # building a node validates it, so a bad atom is reported before any
    # later structural error of its parent
    bad_atom = {"atom": "affine_space", "k": -1}
    for data in (
        {"op": "difference", "children": [bad_atom]},
        {"op": "product", "children": [bad_atom, {"atom": "mystery"}]},
    ):
        with pytest.raises(MalformedExpression, match="affine space needs k >= 0"):
            expression_from_json(data)


@pytest.mark.parametrize("c", [-1, 0, 1])
def test_cold_cache_deep_quadric(c):
    # the hyperbolic-pair chain is walked bottom-up, so no answer depends on
    # cache warmth or on the recursion limit
    scissor._beta_quadric.cache_clear()
    closed = beta_cone(200, 200) if c == 0 else beta_level(200, 200, c)
    assert beta_eval(QuadricAffine(c, 200, 200)) == closed
    scissor._beta_quadric.cache_clear()
    assert beta_eval(QuadricAffine(c, 150, 260)) == (
        beta_cone(150, 260) if c == 0 else beta_level(150, 260, c)
    )


# ---------------------------------------------------------------------------
# structural invariance and JSON
# ---------------------------------------------------------------------------


def _random_expression(rng, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.choice(
            [
                AffineSpace(rng.randint(0, 3)),
                PuncturedLine(),
                Point(),
                Sphere(rng.randint(0, 3)),
                ProjectiveSpace(rng.randint(0, 3)),
                QuadricAffine(rng.choice([-1, 0, 1]), rng.randint(0, 3), rng.randint(0, 3)),
                QuadricProjective(rng.randint(1, 3), rng.randint(1, 3)),
            ]
        )
    roll = rng.random()
    if roll < 0.45:
        return Product(tuple(_random_expression(rng, depth - 1) for _ in range(rng.randint(0, 3))))
    if roll < 0.9:
        return DisjointUnion(
            tuple(_random_expression(rng, depth - 1) for _ in range(rng.randint(0, 3)))
        )
    return Difference(_random_expression(rng, depth - 1), _random_expression(rng, depth - 1))


def _shuffled(rng, expression):
    if isinstance(expression, (Product, DisjointUnion)):
        children = [_shuffled(rng, child) for child in expression.children]
        rng.shuffle(children)
        return type(expression)(tuple(children))
    if isinstance(expression, Difference):
        return Difference(
            _shuffled(rng, expression.ambient), _shuffled(rng, expression.closed_subset)
        )
    return expression


def _reassociated(rng, expression):
    if isinstance(expression, (Product, DisjointUnion)):
        children = tuple(_reassociated(rng, child) for child in expression.children)
        if len(children) >= 3:
            cut = rng.randint(2, len(children) - 1)
            inner = type(expression)(children[:cut])
            return type(expression)((inner,) + children[cut:])
        return type(expression)(children)
    if isinstance(expression, Difference):
        return Difference(
            _reassociated(rng, expression.ambient),
            _reassociated(rng, expression.closed_subset),
        )
    return expression


def test_beta_eval_invariant_under_reshaping():
    rng = random.Random(31415)
    for _ in range(120):
        expression = _random_expression(rng, 3)
        value = beta_eval(expression)
        assert beta_eval(_shuffled(rng, expression)) == value
        assert beta_eval(_reassociated(rng, expression)) == value


def test_expression_json_round_trip():
    rng = random.Random(27182)
    for _ in range(120):
        expression = _random_expression(rng, 3)
        data = expression_to_json(expression)
        assert expression_from_json(data) == expression
    assert expression_from_json(
        {"atom": "quadric_affine", "c": 1, "s": 2, "t": 1}
    ) == QuadricAffine(1, 2, 1)


def test_expression_json_text_is_the_sorted_dumps_of_expression_to_json():
    rng = random.Random(16180)
    memo = {}
    kept = []  # the memo keys composites by id, so every node it saw stays alive
    for _ in range(200):
        expression = _random_expression(rng, 3)
        if kept and rng.random() < 0.5:
            # a node shared across expressions and repeated in a run, and an
            # atom whose keys sort differently from its fields, built anew
            shared = rng.choice(kept)
            expression = Product((shared, shared, expression, QuadricProjective(2, 1), shared))
        kept.append(expression)
        text = scissor.expression_json_text(expression, memo)
        assert text == json.dumps(expression_to_json(expression), sort_keys=True)
        assert scissor.expression_json_text(expression, {}) == text
    assert scissor.expression_json_text(EMPTY, memo) == '{"children": [], "op": "disjoint_union"}'


def test_beta_eval_keeps_only_the_nodes_below_the_root_in_the_memo():
    hyperplane, quadric, point = AffineSpace(3), QuadricAffine(0, 2, 2), Point()
    cone, inner = Difference(quadric, point), Product((hyperplane,))
    root = Product((cone, hyperplane, hyperplane, inner))
    memo = {}
    value = beta_eval(root, memo)
    # a stratum is evaluated once: its own beta is not kept, what it shares is
    assert memo.keys() == {id(node) for node in (cone, quadric, point, hyperplane, inner)}
    assert beta_eval(root, memo) == value == beta_eval(root)
    assert id(root) not in memo


def test_expression_json_text_keeps_only_the_shared_texts_in_the_memo():
    hyperplane = AffineSpace(3)
    cone = Difference(QuadricAffine(0, 2, 2), Point())
    root = Product((cone, hyperplane, hyperplane, Product((hyperplane,))))
    memo = {}
    text = scissor.expression_json_text(root, memo)
    # a stratum is written once: its own text is not kept, what it shares is
    assert id(root) not in memo
    assert {id(cone), id(hyperplane), (id(hyperplane), 2)} <= memo.keys()
    assert scissor.expression_json_text(root, memo) == text
    assert text == json.dumps(expression_to_json(root), sort_keys=True)
    assert id(root) not in memo


# ---------------------------------------------------------------------------
# the construction depth cap and bounded error details
# ---------------------------------------------------------------------------

COMPOSITES = {
    "product": lambda child: Product((child,)),
    "disjoint_union": lambda child: DisjointUnion((EMPTY, child)),
    "difference": lambda child: Difference(child, EMPTY),
}


@pytest.mark.parametrize("wrap", COMPOSITES.values(), ids=COMPOSITES.keys())
def test_deep_expressions_are_refused_when_built(wrap):
    cap = scissor.MAX_EXPRESSION_DEPTH
    node = Sphere(1)
    built = 1
    with pytest.raises(MalformedExpression, match=f"deeper than {cap} nodes"):
        for _ in range(999):  # 1,000 levels with the atom
            node = wrap(node)
            built += 1
    assert built == cap  # the node that would have been cap + 1 deep was refused
    assert node.depth == cap
    # the deepest allowed expression evaluates, and its JSON is read back
    assert beta_eval(node) == beta_eval(Sphere(1))
    assert expression_from_json(expression_to_json(node)) == node


def test_repeated_children_are_shared_not_deepened():
    line = AffineSpace(1)
    product = Product((line,) * 1000)
    assert product.depth == 2
    assert beta_eval(product) == mono(1000)


def test_a_composite_reports_its_first_bad_child_among_repeated_ones():
    line = AffineSpace(1)
    deep = Product((Product((line,)),))
    for build in (Product, DisjointUnion):
        node = build((line, deep, line, deep, deep))
        assert node.depth == 4
        with pytest.raises(MalformedExpression, match="'first'"):
            build((line, "first", "first", line, "second"))
    with pytest.raises(MalformedExpression, match="'first'"):
        Difference("first", "first")


def test_depth_stays_out_of_equality_and_repr():
    shallow = Product((Point(),))
    assert shallow.depth == 2
    assert shallow == Product((Point(),))
    assert hash(shallow) == hash(Product((Point(),)))
    assert repr(shallow) == "Product(children=(Point(),))"
    assert repr(Difference(Point(), EMPTY)) == (
        "Difference(ambient=Point(), closed_subset=DisjointUnion(children=()))"
    )
    with pytest.raises(TypeError):
        Product((Point(),), depth=1)


# The frozen dataclasses the nodes once were; depth never took part in ==,
# hash or repr, so the twins leave it out.
NODE_TWINS = {
    cls: make_dataclass(cls.__name__, names, frozen=True)
    for cls, names in (
        (AffineSpace, ["k"]),
        (PuncturedLine, []),
        (Point, []),
        (Sphere, ["dim"]),
        (ProjectiveSpace, ["k"]),
        (QuadricAffine, ["c", "s", "t"]),
        (QuadricProjective, ["m", "M"]),
        (Product, ["children"]),
        (DisjointUnion, ["children"]),
        (Difference, ["ambient", "closed_subset"]),
    )
}


def test_nodes_keep_the_semantics_of_frozen_dataclasses():
    rng = random.Random(1729)
    nodes = [_random_expression(rng, rng.randint(0, 3)) for _ in range(150)]
    nodes += [cls(3) for cls in (AffineSpace, Sphere, ProjectiveSpace)]
    nodes += [PuncturedLine(), Point(), EMPTY, Product(()), Difference(Point(), Point())]
    assert {type(node) for node in nodes} == set(NODE_TWINS)
    assert_dataclass_semantics(nodes, NODE_TWINS)


def test_nodes_of_different_classes_never_compare_equal():
    assert Point() != PuncturedLine() and not Point() == PuncturedLine()
    assert Point().__eq__(PuncturedLine()) is NotImplemented
    assert hash(Point()) == hash(PuncturedLine()) == hash(())
    spaces = [AffineSpace(3), Sphere(3), ProjectiveSpace(3)]
    for a in spaces:
        for b in spaces:
            assert (a == b) == (a is b)
    assert Product(()) != DisjointUnion(()) and QuadricAffine(0, 0, 0) != (0, 0, 0)
    assert len({Point(), PuncturedLine(), Point(), *spaces, AffineSpace(3)}) == 5


def test_nodes_are_immutable_and_take_keywords():
    atom = QuadricAffine(t=3, c=1, s=2)
    assert repr(atom) == "QuadricAffine(c=1, s=2, t=3)" and atom == QuadricAffine(1, 2, 3)
    assert Difference(closed_subset=EMPTY, ambient=Point()) == Difference(Point(), EMPTY)
    assert Product(children=[Point()]).children == (Point(),)
    for node, name in ((atom, "c"), (Product((atom,)), "children"), (Product((atom,)), "depth")):
        with pytest.raises(AttributeError):
            setattr(node, name, 1)
        with pytest.raises(AttributeError):
            delattr(node, name)
    assert atom.c == 1 and Product((atom,)).depth == 2


@pytest.mark.parametrize("wrap", COMPOSITES.values(), ids=COMPOSITES.keys())
def test_depth_is_no_field(wrap):
    node = wrap(wrap(Sphere(1)))
    assert node.depth == 3
    twin = NODE_TWINS[type(node)]
    twin = twin(*(getattr(node, field.name) for field in fields(twin)))
    object.__setattr__(node, "depth", 99)  # past the guard: nothing else may change it
    assert node == wrap(wrap(Sphere(1))) and hash(node) == hash(wrap(wrap(Sphere(1))))
    assert (hash(node), repr(node)) == (hash(twin), repr(twin))
    assert "depth" not in repr(node)


def test_product_beta_matches_the_child_by_child_product():
    rng = random.Random(606)
    minus_one = Difference(Point(), Sphere(0))  # beta = 1 - 2 = -1
    # one-term betas, which the product folds into one shift and scale (a
    # negative scale and the empty product among them; QuadricAffine(0, 2, 1)
    # is the cone u^2), the zero EMPTY, and multi-term betas, which it
    # multiplies, a run of one object as a power
    atoms = [
        AffineSpace(2), PuncturedLine(), Sphere(3), QuadricAffine(0, 2, 1), Point(),
        EMPTY, minus_one, Product(()), ProjectiveSpace(3), QuadricAffine(1, 2, 1),
    ]
    for _ in range(300):
        children = []
        for _ in range(rng.randint(0, 8)):
            # runs of one shared object, and equal but distinct objects
            atom = rng.choice(atoms)
            children.extend([atom] * rng.randint(1, 3))
            if rng.random() < 0.3:
                children.append(QuadricAffine(0, 2, 1))
        expected = ONE
        for child in children:
            expected = expected * beta_eval(child)
        assert beta_eval(Product(tuple(children))) == expected
    assert beta_eval(Product((minus_one,) * 3)) == -1
    assert beta_eval(Product((minus_one, AffineSpace(2), minus_one, Point()))) == mono(2)
    assert beta_eval(Product((AffineSpace(1), EMPTY, ProjectiveSpace(3)))).is_zero()
    assert beta_eval(Product((Product(()), Point()))) == ONE
    assert beta_eval(Product((ProjectiveSpace(3),) * 3)) == geometric_sum(4) ** 3
    assert beta_eval(Product((ProjectiveSpace(3), AffineSpace(1), QuadricAffine(1, 2, 1)))) == (
        geometric_sum(4) * U * (mono(2) + U)
    )


def test_error_details_echo_a_bounded_input():
    deep = [[]]
    for _ in range(500):
        deep = [deep]
    with pytest.raises(MalformedExpression) as caught:
        expression_from_json({"op": "product", "children": [deep]})
    detail = str(caught.value)
    assert detail.startswith("expected a JSON object, got [[[") and detail.endswith("...")
    assert len(detail) < 200
    with pytest.raises(MalformedExpression) as caught:
        expression_from_json({"atom": "sphere", "dim": deep})
    assert len(str(caught.value)) < 200
    with pytest.raises(MalformedExpression) as caught:
        expression_from_json({"atom": "x" * 1000})
    assert len(str(caught.value)) < 200
    # short inputs are echoed whole
    with pytest.raises(MalformedExpression, match=r"^expected a JSON object, got \[1, 2\]$"):
        expression_from_json({"op": "product", "children": [[1, 2]]})


@pytest.mark.parametrize(
    "build",
    [
        lambda huge: AffineSpace(huge),
        lambda huge: Sphere(huge),
        lambda huge: ProjectiveSpace(huge),
        lambda huge: QuadricAffine(huge, 1, 1),
        lambda huge: QuadricAffine(0, huge, 1),
        lambda huge: QuadricAffine(0, 1, huge),
        lambda huge: QuadricProjective(huge, 1),
        lambda huge: QuadricProjective(1, huge),
    ],
)
def test_range_errors_echo_a_bounded_value(build):
    huge = -int("7" * 300)
    with pytest.raises(MalformedExpression) as caught:
        build(huge)
    detail = str(caught.value)
    assert "-777" in detail and "..." in detail
    assert len(detail) < 200
