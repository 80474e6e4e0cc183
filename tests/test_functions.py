"""Stage and join functions evaluate exactly as a plain tree walk does.

``reference_function`` in ``oracles`` parses the README grammar on its own
and walks the tree.  Results are compared as IEEE-754 bit patterns, so
``-0.0``, ``inf`` and ``nan`` count as different values.
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

import pipesim as ps
from oracles import reference_function

STAGE_VARIABLES = ("orig", "data")
JOIN_VARIABLES = ("orig", "dataL", "dataR")
CONSTANTS = ("0", "0.0", "1", "2", "7", "2.5", "0.1", "1e-7", "3e5", "1e308")
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e300, float("inf"), float("nan")]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def expressions(draw, variables, depth=3):
    """Expression text: chains of mixed operators, unary minus, sqr and groups.

    Chain operands are often groups, so that the text holds groups that
    precedence alone would not form, like ``a - (b - c)`` or ``(a + b) * c``.
    """
    if depth == 0 or draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(variables + CONSTANTS))
    inner = expressions(variables, depth - 1)
    kind = draw(st.sampled_from(["chain", "chain", "minus", "sqr", "group"]))
    if kind == "minus":
        return f"-{draw(inner)}"
    if kind == "sqr":
        return f"sqr({draw(inner)})"
    if kind == "group":
        return f"({draw(inner)})"
    operands = draw(st.lists(st.tuples(inner, st.booleans()), min_size=2, max_size=4))
    ops = draw(st.lists(st.sampled_from("+-*/"), min_size=len(operands) - 1,
                        max_size=len(operands) - 1))
    texts = [f"({text})" if grouped else text for text, grouped in operands]
    return texts[0] + "".join(f" {op} {text}" for op, text in zip(ops, texts[1:]))


def outcome(evaluate):
    """The bits of a result, ``"nan"`` for any NaN, or a FunctionEvalError's text.

    Which operand's NaN a float operation returns depends on the operand
    order the C compiler chose, and CPython's specialised and generic
    bytecode for one operator differ in it.  So all NaNs count as one value.
    """
    try:
        value = evaluate()
    except ps.FunctionEvalError as exc:
        return f"FunctionEvalError: {exc}"
    return "nan" if value != value else struct.pack("<d", value)


def assert_matches_reference(source, variables, values):
    parsed = ps.parse_function(source, variables)
    expected = outcome(lambda: reference_function(source, variables, values))
    assert outcome(lambda: parsed(*values)) == expected


@settings(max_examples=300, deadline=None)
@given(expressions(STAGE_VARIABLES), st.tuples(VALUES, VALUES))
def test_stage_functions_match_the_reference_walk(source, values):
    assert_matches_reference(source, STAGE_VARIABLES, values)


@settings(max_examples=300, deadline=None)
@given(expressions(JOIN_VARIABLES), st.tuples(VALUES, VALUES, VALUES))
def test_join_functions_match_the_reference_walk(source, values):
    assert_matches_reference(source, JOIN_VARIABLES, values)


def test_division_by_zero_raises_under_both_evaluators():
    for source, values in [
        ("orig / data", (1.0, 0.0)),
        ("orig / data", (1.0, -0.0)),
        ("orig / (data - data)", (1.0, 3.0)),
        ("sqr(orig / 0)", (0.0, 1.0)),
    ]:
        assert outcome(lambda: reference_function(source, STAGE_VARIABLES, values)) == (
            "FunctionEvalError: division by zero"
        )
        assert_matches_reference(source, STAGE_VARIABLES, values)
