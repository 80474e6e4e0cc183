import random

import pytest

import pipesim as ps
from oracles import random_expr


@pytest.fixture
def decls():
    return ps.declare_stages(["S1", "S2", "S3", "S4"])


def names(step):
    return sorted(s.name for s in step)


# -- declarations -----------------------------------------------------------


def test_declaration_order_assigns_dense_ordinals():
    decls = ps.declare_stages(["S1", "S2", "S3"])
    assert [s.ordinal for s in decls] == [0, 1, 2]
    assert decls["S2"].name == "S2"


def test_single_stage_declaration():
    decls = ps.declare_stages(["A"])
    assert len(decls) == 1
    assert decls["A"].ordinal == 0


def test_duplicate_declaration_rejected():
    with pytest.raises(ps.DeclarationError, match="S1"):
        ps.declare_stages(["S1", "S1"])


def test_empty_declaration_rejected():
    with pytest.raises(ps.DeclarationError):
        ps.declare_stages([])


def test_bad_identifier_rejected():
    with pytest.raises(ps.DeclarationError):
        ps.declare_stages(["ok", "not ok"])


# -- sequencing -------------------------------------------------------------


def test_seq_concatenates_routes(decls):
    s1, s2 = decls["S1"], decls["S2"]
    route = ps.flatten(ps.seq(s1, s2))
    assert [names(step) for step in route.steps] == [["S1"], ["S2"]]


def test_seq_is_associative(decls):
    s1, s2, s3 = decls["S1"], decls["S2"], decls["S3"]
    left = ps.seq(ps.seq(s1, s2), s3)
    right = ps.seq(s1, ps.seq(s2, s3))
    assert left == right
    assert ps.flatten(left) == ps.flatten(right)


def test_seq_reuse_means_feedback(decls):
    s1 = decls["S1"]
    route = ps.flatten(ps.seq(s1, s1))
    assert [names(step) for step in route.steps] == [["S1"], ["S1"]]


# -- repetition -------------------------------------------------------------


def test_repeat_is_shorthand_for_sequencing(decls):
    s1 = decls["S1"]
    assert ps.flatten(ps.repeat(s1, 3)) == ps.flatten(s1 >> s1 >> s1)


def test_repeat_once_is_identity(decls):
    s1 = decls["S1"]
    assert ps.flatten(ps.repeat(s1, 1)) == ps.flatten(ps.StageRef(s1))


def test_adder_times_ten():
    decls = ps.declare_stages(["Adder"])
    route = ps.flatten(ps.repeat(decls["Adder"], 10))
    assert len(route) == 10
    assert all(names(step) == ["Adder"] for step in route.steps)


def test_repeat_count_below_one_rejected(decls):
    with pytest.raises(ps.ExpressionError):
        ps.repeat(decls["S1"], 0)
    with pytest.raises(ps.ExpressionError):
        decls["S1"] * -2


@pytest.mark.parametrize("n", range(1, 17))
def test_repeat_equals_nfold_seq(decls, n):
    s1 = decls["S1"]
    expr = ps.StageRef(s1)
    for _ in range(n - 1):
        expr = ps.seq(expr, s1)
    assert ps.flatten(ps.repeat(s1, n)) == ps.flatten(expr)


def test_repeat_on_composite_rejected(decls):
    with pytest.raises(ps.ExpressionError):
        (decls["S1"] >> decls["S2"]) * 2


# -- forks ------------------------------------------------------------------


def test_fork_occupies_one_step(decls):
    s1, s2, s3, s4 = (decls[n] for n in ("S1", "S2", "S3", "S4"))
    route = ps.flatten(s1 >> s2 + s3 >> s4)
    assert [names(step) for step in route.steps] == [["S1"], ["S2", "S3"], ["S4"]]


def test_fork_duplicate_member_rejected(decls):
    with pytest.raises(ps.ExpressionError):
        ps.fork([decls["S2"], decls["S2"]])


def test_chained_fork_builds_nway_step(decls):
    s2, s3, s4 = decls["S2"], decls["S3"], decls["S4"]
    # oracle: flatten the chained binary forks by unioning their members
    expected = frozenset((s2, s3, s4))
    route = ps.flatten(s2 + s3 + s4)
    assert route.steps == (expected,)


def test_fork_of_composite_rejected(decls):
    with pytest.raises(ps.ExpressionError):
        decls["S1"] + (decls["S2"] >> decls["S3"])


def test_fork_from_composite_rejected(decls):
    with pytest.raises(ps.ExpressionError, match="combines stage names only"):
        (decls["S1"] >> decls["S2"]) + decls["S3"]


# -- parsing ----------------------------------------------------------------


def test_parse_matches_builder(decls):
    built = decls["S1"] >> decls["S2"] >> decls["S3"]
    assert ps.parse("S1 >> S2 >> S3", decls) == built


def test_parse_complex_expression_route():
    decls = ps.declare_stages(["S1", "S2", "S3"])
    expr = ps.parse("S1 >> S2 >> S3 >> S1 >> S3*2 >> S1 >> S2", decls)
    route = ps.flatten(expr)
    assert [names(step)[0] for step in route.steps] == [
        "S1", "S2", "S3", "S1", "S3", "S3", "S1", "S2",
    ]


def test_parse_rejects_parentheses(decls):
    with pytest.raises(ps.ParseError, match="parentheses"):
        ps.parse("(S1 >> S2)*2", decls)


def test_parse_rejects_unknown_stage(decls):
    with pytest.raises(ps.ParseError, match="S9"):
        ps.parse("S1 >> S9", decls)


def test_parse_rejects_zero_repeat(decls):
    with pytest.raises(ps.ParseError, match=">= 1"):
        ps.parse("S1*0", decls)


def test_parse_rejects_trailing_tokens(decls):
    with pytest.raises(ps.ParseError):
        ps.parse("S1 >> S2 S3", decls)


def test_parse_error_carries_position(decls):
    with pytest.raises(ps.ParseError) as exc:
        ps.parse("S1 >> (S2)", decls)
    assert exc.value.position == 6


def test_parse_mixed_operators(decls):
    built = decls["S1"] >> decls["S2"] + decls["S3"] >> decls["S4"]
    assert ps.parse("S1 >> S2 + S3 >> S4", decls) == built


# -- flattening and round trips ---------------------------------------------


def test_flatten_single_stage(decls):
    route = ps.flatten(ps.StageRef(decls["S1"]))
    assert len(route) == 1


def test_flatten_records_reuse_steps(decls):
    route = ps.flatten(ps.parse("S1 >> S2 >> S1", decls))
    marks = [i for i, step in enumerate(route.steps) if decls["S1"] in step]
    assert marks == [0, 2]


def term_count(node):
    if isinstance(node, ps.Seq):
        return sum(term_count(item) for item in node.items)
    if isinstance(node, ps.Repeat):
        return node.count
    return 1


def test_route_length_counts_desugared_terms():
    rng = random.Random(42)
    for _ in range(50):
        _, expr = random_expr(rng)
        assert len(ps.flatten(expr)) == term_count(expr)


def test_pretty_parse_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        decls, expr = random_expr(rng)
        assert ps.parse(ps.pretty(expr), decls) == expr
