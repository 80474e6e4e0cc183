"""Copying, pickling and positional matching of the package's record classes.

The cases are the ones ``test_values`` pins; each must survive ``copy``,
``deepcopy`` and a pickle round-trip with an equal value and the same repr,
and match a class pattern that lists its fields by position.
"""

import copy
import pickle

import pytest

import pipesim as ps
from pipesim.fileformat import PipelineSetup
from pipesim.simulate import Transaction
from test_values import CASES, ids

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}
# These cases hold a parsed function, which compiles to a closure; closures
# do not pickle.
HOLDS_PARSED_FUNCTION = {PipelineSetup, ps.JoinSpec, ps.StageConfig, ps.CheckedConfig}
# Transactions, and the StageSet in a PipelineSetup, compare by identity.
COMPARED_BY_IDENTITY = {PipelineSetup, Transaction}

ROUND_TRIP_CASES = [
    pytest.param(cls, fields, text, how, id=f"{ids((cls,))}-{how}")
    for cls, fields, text in CASES
    for how in sorted(ROUND_TRIPS)
    if not (how == "pickle" and cls in HOLDS_PARSED_FUNCTION)
]


@pytest.mark.parametrize("cls, fields, text, how", ROUND_TRIP_CASES)
def test_round_trip_keeps_the_value(cls, fields, text, how):
    value = cls(**fields)
    again = ROUND_TRIPS[how](value)
    assert type(again) is cls and again is not value
    assert repr(again) == text
    if cls not in COMPARED_BY_IDENTITY:
        assert again == value


@pytest.mark.parametrize("cls, fields, text", CASES, ids=[ids(c) for c in CASES])
def test_fields_are_the_positional_match_pattern(cls, fields, text):
    assert cls.__match_args__ == tuple(fields)


def test_positional_class_pattern():
    match ps.SimTime(3, 1):
        case ps.SimTime(ns, delta):
            assert (ns, delta) == (3, 1)
        case _:
            pytest.fail("SimTime did not match its positional pattern")


def test_run_result_survives_pickle_and_deepcopy():
    decls = ps.declare_stages(["A", "B"])
    configs = [
        ps.StageConfig(decls["A"], ps.parse_function("data + 1")),
        ps.StageConfig(decls["B"], ps.parse_function("data * 2")),
    ]
    route = ps.flatten(ps.parse("A >> B >> A", decls))
    result = ps.run(ps.elaborate(route, decls), configs, [1.0, 2.0, 3.0])
    assert result.trace.occupancy  # a built cache must not block the copies
    for how in ROUND_TRIPS.values():
        again = how(result)
        assert again == result and repr(again) == repr(result)
