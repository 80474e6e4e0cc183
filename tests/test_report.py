"""The canonical structured-text serialiser, byte for byte, and the run
report's one-pass rendering, checked against the serialiser."""

import io
import json
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pipesim as ps
from pipesim.report import _quote, canonical, run_report_mapping, trace_to_csv, write_run_report
from pipesim.simulate import StageStats, Stats, TraceRecord
from test_kernel import pinned_corpus

MIXED = {
    "flags": [True, False, None],
    'quote"back\\slash\nnewline\ttab é': (1, 2.5, Fraction(1, 3)),
    "proxy": MappingProxyType({"z": 1e-7, "y": -0.0, "x": 123456789.0}),
    "int_keys": {10: "ten", 2: ["two", {}]},
    "empty_map": {},
    "empty_list": [],
    "empty_tuple": (),
    "empty_proxy": MappingProxyType({}),
    "big": 10**20,
    "two": 2.0,
}

MIXED_TEXT = """\
{
  "big": 100000000000000000000,
  "empty_list": [],
  "empty_map": {},
  "empty_proxy": {},
  "empty_tuple": [],
  "flags": [
    true,
    false,
    null
  ],
  "int_keys": {
    "10": "ten",
    "2": [
      "two",
      {}
    ]
  },
  "proxy": {
    "x": 1.23457e+08,
    "y": -0,
    "z": 1e-07
  },
  "quote\\"back\\\\slash\\nnewline\\ttab \\u00e9": [
    1,
    2.5,
    0.333333
  ],
  "two": 2
}"""


def test_canonical_bytes_of_every_supported_type():
    assert canonical(MIXED) == MIXED_TEXT
    assert canonical(None) == "null"
    assert canonical(True) == "true"
    assert canonical(7) == "7"
    assert canonical(0.1) == "0.1"
    assert canonical("s") == '"s"'


def test_canonical_rejects_other_types():
    with pytest.raises(TypeError, match="cannot serialize set"):
        canonical({"s": {1, 2}})


def test_canonical_sorts_keys_by_their_string_form():
    assert canonical({2: "int", "a": "str"}) == '{\n  "2": "int",\n  "a": "str"\n}'
    with pytest.raises(TypeError, match="cannot serialize a mapping with two keys"):
        canonical({1: "int", "1": "str"})


# -- the run report's one-pass rendering -----------------------------------------

RUN_ROUTE = ps.flatten(ps.parse("S1 >> S2 >> S1", ps.declare_stages(["S1", "S2"])))
RUN_ANALYSIS = ps.analyze(RUN_ROUTE)
RUN_STATS = Stats(3, 1, 1, 1, ps.SimTime(9, 2), 4, 2, {"S1": StageStats(2, 4, 1)},
                  {"S1.in": 2}, {"S2.in": 1}, False)


def assert_one_pass_matches_the_specification(result, issue):
    report_out, csv_out = io.StringIO(), io.StringIO()
    write_run_report("main", result, RUN_ANALYSIS, issue, report_out, csv_out)
    json_like, csv = report_out.getvalue(), csv_out.getvalue()
    assert json_like == canonical(run_report_mapping("main", result, RUN_ANALYSIS, issue)) + "\n"
    assert csv == trace_to_csv(result.trace)


@pytest.mark.parametrize("name", sorted(pinned_corpus()))
def test_one_pass_report_of_every_pinned_run(name):
    assert_one_pass_matches_the_specification(pinned_corpus()[name](), ps.IssueSpec.fixed(3))


REALS = st.one_of(
    st.sampled_from([-0.0, 0.0, 1e-7, 1e21, 123456.5, 2.0, 1e16, float("inf"), float("nan")]),
    st.floats(),
)
RECORDS = st.lists(
    st.tuples(
        st.one_of(REALS, st.integers(-10**6, 10**6)),
        st.one_of(REALS, st.integers(-10**20, 10**20)),
        st.one_of(st.none(), st.integers(0, 10**6)),
        st.one_of(st.none(), st.integers(0, 10**6)),
        st.booleans(),
    ),
    max_size=5,
)


@settings(max_examples=200, deadline=None)
@given(RECORDS)
@example([])
@example([(-0.0, 3, None, None, True), (1e21, 1e-7, 0, None, False)])
def test_one_pass_report_of_any_record_values(records):
    trace = ps.Trace(
        records=tuple(
            TraceRecord(
                i, orig, data,
                None if inject is None else ps.SimTime(inject, 1),
                None if exit_ns is None else ps.SimTime(exit_ns, 0),
                dropped,
            )
            for i, (orig, data, inject, exit_ns, dropped) in enumerate(records)
        ),
        occupancy_log=(),
    )
    result = ps.RunResult(trace, RUN_STATS, ("a warning",))
    assert_one_pass_matches_the_specification(result, ps.IssueSpec.greedy())


# Every code point: controls, DEL, non-BMP characters and lone surrogates too.
ANY_CHAR = st.characters(exclude_categories=()) | st.characters(categories=["Cs"])


@settings(max_examples=500, deadline=None)
@given(st.text(ANY_CHAR) | st.text(st.characters(max_codepoint=0x7F)))
@example("")
@example('"\\\b\f\n\r\t\x00\x1f\x7f')
@example("\ud800 \udfff")
@example("\U0001f600 \U0010ffff \uffff")
def test_quote_equals_json_dumps(text):
    assert _quote(text) == json.dumps(text)
