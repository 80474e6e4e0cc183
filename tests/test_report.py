"""The canonical structured-text serialiser, byte for byte."""

from fractions import Fraction
from types import MappingProxyType

import pytest

from pipesim.report import canonical

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
    "2": [
      "two",
      {}
    ],
    "10": "ten"
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
