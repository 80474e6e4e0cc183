import copy
import os
import pickle
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pipesim as ps
from pipesim import dsl
from oracles import marks_by_scan, random_expr


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


_STAGE_BLOCKS = "".join(f'stage S{i} {{ fn = "data"; delay = 1; }}\n' for i in range(1, 5))
_EXPR_PIECES = ["S1", "S2", "S3", "S9", ">>", ">", "*", "+", "0", "2", "12", " ", "\n",
                "(", ")", "{", "#", '"', "$", ":"]


def _outcome(parse, text: str, offset: int):
    """What ``parse(text)`` gives: ``(result, None)``, or the error's message
    and its position less ``offset``."""
    try:
        return parse(text), None
    except (ps.ParseError, ps.PipelineFileError) as exc:
        return exc.args[0], exc.position - offset


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(_EXPR_PIECES), max_size=8).map("".join))
@example("S1 ( $")
@example("S1 # x")
@example('S1 >> "S2 # x" >> S3')
@example("")
def test_parse_and_a_files_pipeline_setting_agree(text):
    """``parse(text)`` and a file's ``pipeline = text`` read one grammar:
    equal ASTs, or the same message at the same offset.  An error at the end
    of the text is the exception, as the file places its end where the last
    token ends.  The newline keeps a comment in the text from swallowing the
    ``;``."""
    decls = ps.declare_stages(["S1", "S2", "S3", "S4"])
    head = f"{_STAGE_BLOCKS}pipeline = "
    expr, where = _outcome(lambda text: ps.parse(text, decls), text, 0)
    setup, file_where = _outcome(ps.parse_pipeline_text, f"{head}{text}\n;", len(head))
    if where is None or file_where is None:
        assert where is file_where is None
        assert setup.pipelines["main"] == expr
    else:
        assert setup == expr
        assert file_where == where or where == len(text)


# -- flattening and round trips ---------------------------------------------


def test_flatten_single_stage(decls):
    route = ps.flatten(ps.StageRef(decls["S1"]))
    assert len(route) == 1


def test_flatten_records_reuse_steps(decls):
    route = ps.flatten(ps.parse("S1 >> S2 >> S1", decls))
    marks = [i for i, step in enumerate(route.steps) if decls["S1"] in step]
    assert marks == [0, 2]


def test_route_marks_are_its_rows_in_declaration_order(decls):
    rng = random.Random(11)
    for _ in range(50):
        _, expr = random_expr(rng)
        route = ps.flatten(expr)
        assert {s.name: list(m) for s, m in route.marks.items()} == marks_by_scan(route)
        assert list(route.marks) == sorted(route.marks, key=lambda s: s.ordinal)
        assert route.stages == tuple(route.marks)
    route = ps.flatten(ps.parse("S3 >> S1 + S2 >> S3", decls))
    assert list(route.marks.items()) == [(decls["S1"], (1,)), (decls["S2"], (1,)),
                                         (decls["S3"], (0, 2))]
    assert route.marks is route.marks and route.stages is route.stages  # built once
    with pytest.raises(TypeError):
        route.marks[decls["S1"]] = (0,)
    with pytest.raises(AttributeError):
        route.marks = {}
    assert route.marks[decls["S1"]] == (1,)


@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy,
                                 lambda value: pickle.loads(pickle.dumps(value))])
def test_route_copies_keep_every_field_and_rebuild_the_marks(decls, how):
    route = ps.flatten(ps.parse("S3 >> S1 + S2 >> S3*2", decls))
    assert route.marks  # a built row cache must not block the copies
    again = how(route)
    assert again is not route and again == route and repr(again) == repr(route)
    assert again.steps == route.steps and again.marks == route.marks
    assert again.stages == route.stages
    assert route.__reduce__() == (ps.Route, (route.steps,))


# A route, its netlist and their copies, each printed under the hash seed of the
# child: seeds 28 and 57 gave a copy's steps in another order than the original's.
_COPY_REPRS = """\
import copy, pickle
import pipesim as ps
decls = ps.declare_stages(["S1", "S2", "S3", "S4"])
route = ps.flatten(ps.parse("S3 >> S1 + S2 >> S3*2 >> S1 + S2 + S4", decls))
for value in (route, ps.elaborate(route, decls)):
    for how in (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))):
        print(repr(how(value)))
"""


@pytest.mark.parametrize("seed", ["28", "57"])
def test_copies_of_a_route_and_its_netlist_repr_alike_under_any_hash_seed(seed):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    lines = subprocess.run([sys.executable, "-c", _COPY_REPRS], env=env, capture_output=True,
                           text=True, timeout=60, check=True).stdout.splitlines()
    steps = ("frozenset({StageId('S3', 2)}), frozenset({StageId('S1', 0), StageId('S2', 1)}), "
             "frozenset({StageId('S3', 2)}), frozenset({StageId('S3', 2)}), "
             "frozenset({StageId('S1', 0), StageId('S2', 1), StageId('S4', 3)})")
    assert lines[:3] == [f"Route(steps=({steps}))"] * 3
    assert len(lines) == 6 and len(set(lines[3:])) == 1
    table = ("RouterNode(name='r_S3', stage=StageId('S3', 2), table=RoutingTable(entries={"
             "0: frozenset({StageId('S1', 0), StageId('S2', 1)}), 2: frozenset({StageId('S3', 2)}), "
             "3: frozenset({StageId('S1', 0), StageId('S2', 1), StageId('S4', 3)})}))")
    assert table in lines[3]


def test_a_long_chain_hashes_each_stage_a_few_times(monkeypatch):
    # Each row is worked out once, in Route.marks, and the table and the
    # routing tables read it: no scan of the steps per stage, which made
    # 2,098,176 StageId hashes on this chain.
    decls = ps.declare_stages([f"S{i}" for i in range(1024)])
    route = ps.Route(tuple(frozenset((s,)) for s in reversed(list(decls))))
    calls = 0
    hash_of = ps.StageId.__hash__

    def counted(stage):
        nonlocal calls
        calls += 1
        return hash_of(stage)

    monkeypatch.setattr(ps.StageId, "__hash__", counted)
    table = ps.reservation_table(route, decls)
    netlist = ps.elaborate(route, decls)
    monkeypatch.undo()
    assert calls <= 8192
    assert {s.name: list(m) for s, m in route.marks.items()} == marks_by_scan(route)
    assert table.stages == netlist.stages == tuple(decls)
    assert table.marks[decls[0]] == (1023,)
    assert netlist.router_of(decls[0]).table.entries == {1023: ps.EXIT}


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


def test_pretty_of_a_hand_built_single_repeat_parses_to_an_equal_route(decls):
    once = ps.Repeat(decls["S1"], 1)
    assert ps.pretty(once) == "S1*1"
    parsed = ps.parse(ps.pretty(once), decls)
    assert parsed == ps.StageRef(decls["S1"]) != once
    assert ps.flatten(parsed) == ps.flatten(once)


# -- diagnostics pin ----------------------------------------------------------
#
# The exact type and text of the error each faulty input raises, through the
# operators, the builder functions, the AST constructors and the parser.

_D = ps.declare_stages(["S1", "S2", "S3", "S4"])
_S1, _S2, _S3, _S4 = _D
_REPEAT_TEXT = "repetition with * applies to a single stage name, not to a composite expression"
_FORK_TEXT = "fork with + combines stage names only, not composite expressions"
_SEQ_TEXT = "expected a stage or pipeline expression, got int"


class _ForeignExpr(ps.PipeExpr):
    def __repr__(self):
        return "_ForeignExpr()"


DIAGNOSTICS = {
    "declare nothing": (lambda: ps.declare_stages([]),
                        ps.DeclarationError, "at least one stage must be declared"),
    "declare bad name": (lambda: ps.declare_stages(["ok", "not ok"]),
                         ps.DeclarationError, "invalid stage name 'not ok'"),
    "declare non-string": (lambda: ps.declare_stages([5]),
                           ps.DeclarationError, "invalid stage name 5"),
    "declare twice": (lambda: ps.declare_stages(["S1", "S1"]),
                      ps.DeclarationError, "duplicate stage name 'S1'"),
    # A string is a sequence of one-letter names.
    "declare a string": (lambda: ps.declare_stages("AB"), ps.DeclarationError,
                         "names must be a sequence of stage names, not the string 'AB'"),
    "declare a string of one name": (lambda: ps.declare_stages("S1"), ps.DeclarationError,
                                     "names must be a sequence of stage names, not the string 'S1'"),
    "lookup unknown name": (lambda: _D["nope"], KeyError, "\"unknown stage 'nope'\""),
    "lookup bad position": (lambda: _D[9], IndexError, "no stage at position 9: 4 declared"),
    "seq with int": (lambda: _S1 >> 5, ps.ExpressionError, _SEQ_TEXT),
    "int with seq": (lambda: 5 >> _S1, TypeError,
                     "unsupported operand type(s) for >>: 'int' and 'StageId'"),
    "repeat by real": (lambda: _S1 * 2.5, ps.ExpressionError, "repeat count must be an integer"),
    "repeat by bool": (lambda: _S1 * True, ps.ExpressionError, "repeat count must be an integer"),
    "repeat zero times": (lambda: _S1 * 0, ps.ExpressionError, "repeat count must be >= 1, got 0"),
    "repeat a sequence": (lambda: (_S1 >> _S2) * 2, ps.ExpressionError, _REPEAT_TEXT),
    "repeat a fork": (lambda: (_S1 + _S2) * 2, ps.ExpressionError, _REPEAT_TEXT),
    "fork a sequence": (lambda: _S1 + (_S2 >> _S3), ps.ExpressionError, _FORK_TEXT),
    "fork an int": (lambda: _S1 + 5, ps.ExpressionError, _FORK_TEXT),
    "fork a stage twice": (lambda: _S1 + _S1, ps.ExpressionError, "duplicate stage 'S1' in fork"),
    "fork from a sequence": (lambda: (_S1 >> _S2) + _S3, ps.ExpressionError, _FORK_TEXT),
    "fork a fork and a sequence": (lambda: (_S1 + _S2) + (_S3 >> _S4),
                                   ps.ExpressionError, _FORK_TEXT),
    "fork a fork and a member": (lambda: (_S1 + _S2) + _S1,
                                 ps.ExpressionError, "duplicate stage 'S1' in fork"),
    "seq() with int": (lambda: ps.seq(_S1, 5), ps.ExpressionError, _SEQ_TEXT),
    "seq() of int": (lambda: ps.seq(5, _S1), ps.ExpressionError, _SEQ_TEXT),
    "repeat() a sequence": (lambda: ps.repeat(_S1 >> _S2, 2), ps.ExpressionError, _REPEAT_TEXT),
    "repeat() an int": (lambda: ps.repeat(5, 2), ps.ExpressionError, _REPEAT_TEXT),
    "repeat() zero times": (lambda: ps.repeat(_S1, 0),
                            ps.ExpressionError, "repeat count must be >= 1, got 0"),
    "repeat() by real": (lambda: ps.repeat(_S1, 2.0),
                         ps.ExpressionError, "repeat count must be an integer"),
    "fork() of one": (lambda: ps.fork([_S1]), ps.ExpressionError, "a fork needs at least two stages"),
    "fork() of none": (lambda: ps.fork([]), ps.ExpressionError, "a fork needs at least two stages"),
    "fork() twice": (lambda: ps.fork([_S1, _S1]),
                     ps.ExpressionError, "duplicate stage 'S1' in fork"),
    "fork() a sequence": (lambda: ps.fork([_S1, _S1 >> _S2]), ps.ExpressionError, _FORK_TEXT),
    "fork() a lone sequence": (lambda: ps.fork([_S1 >> _S2]), ps.ExpressionError, _FORK_TEXT),
    "fork() of an int": (lambda: ps.fork(5), ps.ExpressionError,
                         "fork() takes an iterable of stages, got int"),
    "Seq of one": (lambda: ps.Seq((ps.StageRef(_S1),)),
                   ps.ExpressionError, "a sequence needs at least two items"),
    "Seq of none": (lambda: ps.Seq(()), ps.ExpressionError, "a sequence needs at least two items"),
    "Seq nested": (lambda: ps.Seq((ps.StageRef(_S1), ps.Seq((ps.StageRef(_S2), ps.StageRef(_S3))))),
                   ps.ExpressionError, "sequences must be flattened at construction"),
    "Repeat by real": (lambda: ps.Repeat(_S1, 2.5),
                       ps.ExpressionError, "repeat count must be an integer"),
    "Repeat zero times": (lambda: ps.Repeat(_S1, 0),
                          ps.ExpressionError, "repeat count must be >= 1, got 0"),
    "Fork of one": (lambda: ps.Fork((_S1,)), ps.ExpressionError, "a fork needs at least two stages"),
    "Fork twice": (lambda: ps.Fork((_S1, _S1)), ps.ExpressionError, "duplicate stage 'S1' in fork"),
    "Route of nothing": (lambda: ps.Route(()),
                         ps.ExpressionError, "a route must have at least one step"),
    "Route with an empty step": (lambda: ps.Route((frozenset(),)),
                                 ps.ExpressionError, "route steps must be non-empty"),
    "Route ending empty": (lambda: ps.Route((frozenset((_S1,)), frozenset())),
                           ps.ExpressionError, "route steps must be non-empty"),
    "flatten an int": (lambda: ps.flatten(5), ps.ExpressionError, _SEQ_TEXT),
    "flatten a foreign node": (lambda: ps.flatten(_ForeignExpr()),
                               ps.ExpressionError, "unknown expression node _ForeignExpr()"),
    "pretty an int": (lambda: ps.pretty(5), ps.ExpressionError, _SEQ_TEXT),
    "parse zero repeat": (lambda: ps.parse("S1 >> S2*0", _D),
                          ps.ParseError, "col 10: repeat count must be >= 1, got 0"),
    "parse fork twice": (lambda: ps.parse("S1 + S2 + S1", _D),
                         ps.ParseError, "col 4: duplicate stage 'S1' in fork"),
    # A route has at most 4,096 steps; each check fails before any step is built.
    "repeat past the limit": (lambda: _S1 * 10**21, ps.ExpressionError,
                              "repeat count must be <= 4096, got 1000000000000000000000"),
    "repeat() past the limit": (lambda: ps.repeat(_S1, 10**21), ps.ExpressionError,
                                "repeat count must be <= 4096, got 1000000000000000000000"),
    "Repeat past the limit": (lambda: ps.Repeat(_S1, 4097),
                              ps.ExpressionError, "repeat count must be <= 4096, got 4097"),
    "flatten past the limit": (lambda: ps.flatten(_S1 * 4000 >> _S2 * 4000 >> _S3 * 4000),
                               ps.ExpressionError, "route is more than 4096 steps long"),
    "parse a count past the limit": (lambda: ps.parse("S1*4097", _D),
                                     ps.ParseError, "col 4: repeat count must be <= 4096, got 4097"),
    "parse a term past the limit": (lambda: ps.parse("S1 >> S2*4096", _D),
                                    ps.ParseError, "col 7: route is more than 4096 steps long"),
    "parse a stage past the limit": (lambda: ps.parse("S1*4000 >> S2*96 >> S3", _D),
                                     ps.ParseError, "col 21: route is more than 4096 steps long"),
}


@pytest.mark.parametrize("build, error, text", DIAGNOSTICS.values(), ids=list(DIAGNOSTICS))
def test_dsl_diagnostics_pinned(build, error, text):
    with pytest.raises(Exception) as caught:
        build()
    assert type(caught.value) is error
    assert str(caught.value) == text


def test_declare_stages_rejects_names_that_are_not_iterable():
    # It used to end in TypeError: 'NoneType' object is not iterable.
    with pytest.raises(ps.DeclarationError) as exc:
        ps.declare_stages(None)
    assert str(exc.value) == "names must be a sequence of stage names, not None"


def test_stage_set_lookups_and_fork_operands():
    assert "S1" in _D and "nope" not in _D and _S1 in _D
    assert _D[0] is _S1 and _D[-1] is _S4
    assert _S1 + (_S2 + _S3) == ps.Fork((_S1, _S2, _S3))
    assert _S1 + ps.StageRef(_S2) == ps.Fork((_S1, _S2))
    assert ps.StageRef(_S1) + _S2 == ps.Fork((_S1, _S2))
    assert ps.StageRef(_S1) * 2 == ps.Repeat(_S1, 2)
    assert ps.repeat(ps.StageRef(_S1), 1) == ps.StageRef(_S1)


def test_builder_operators_have_one_definition():
    for operator in ("__rshift__", "__mul__", "__add__"):
        methods = {getattr(cls, operator)
                   for cls in (ps.StageId, ps.StageRef, ps.Seq, ps.Repeat, ps.Fork)}
        assert len(methods) == 1, operator


def test_parse_error_without_position_prints_the_message():
    assert str(ps.ParseError("x")) == "x"


def test_constructors_reject_composite_members():
    with pytest.raises(ps.ExpressionError) as caught:
        ps.Repeat(_S1 >> _S2, 2)
    assert str(caught.value) == _REPEAT_TEXT
    with pytest.raises(ps.ExpressionError) as caught:
        ps.Fork((_S1, ps.StageRef(_S2)))
    assert str(caught.value) == _FORK_TEXT


def test_pretty_of_a_foreign_node_names_it():
    for render in (ps.flatten, ps.pretty):
        with pytest.raises(ps.ExpressionError) as caught:
            render(_ForeignExpr())
        assert str(caught.value) == "unknown expression node _ForeignExpr()"


# The pattern ``declare_stages`` checked names with before it used
# ``str.isidentifier``, kept as the oracle of the names it accepts.
_OLD_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@settings(max_examples=300, deadline=None)
@given(st.text() | st.text(alphabet="aZ_09\u00e9\u212c\n "))
@example("")
@example("S1\n")
@example("1S")
@example("\u212c")
@example("if")
def test_stage_names_are_exactly_those_the_old_pattern_matched(name):
    try:
        ps.declare_stages([name])
    except ps.DeclarationError:
        accepted = False
    else:
        accepted = True
    assert accepted == bool(_OLD_IDENT_RE.match(name))


def test_routes_of_up_to_the_limit_flatten(decls):
    assert dsl.MAX_ROUTE_STEPS == 4096
    assert len(ps.flatten(ps.parse("S1*4000 >> S2*95 >> S3", decls))) == 4096
    assert len(ps.flatten(decls["S1"] * 4096)) == 4096


def test_a_count_too_long_for_int_is_a_parse_error_at_the_count(decls):
    # int() reads at most 4,300 digits by default; past the limit, either way.
    with pytest.raises(ps.ParseError) as caught:
        ps.parse("S1 >> S2*" + "1" * 4301, decls)
    assert caught.value.position == 9
    assert str(caught.value) == "col 10: integer of 4301 digits is longer than the limit of 4300 digits"
