"""Plane layouts: line maps, validation, ordered blocks."""

import pytest

from kaleido.errors import DuplicateElements, MalformedInput
from kaleido.schema import (
    KaleidoscopeSchema,
    OrderedBlock,
    builtin_schema,
    schema_from_json,
    schema_to_json,
    validate_schema,
)

FANO_LINES = {
    (0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6),
    (0, 4, 5), (1, 5, 6), (0, 2, 6),
}

HESSE_LINES = {
    (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7),
    (5, 6, 8), (1, 6, 7), (2, 7, 8), (1, 3, 8),
    (0, 1, 5), (0, 2, 6), (0, 3, 7), (0, 4, 8),
}


def test_fano_layout():
    s = builtin_schema("fano")
    assert s.k == 7
    assert s.b == 7
    assert set(s.lines) == FANO_LINES
    assert s.lambda_underlying == 7


def test_hesse_layout():
    s = builtin_schema("hesse")
    assert s.k == 9
    assert s.b == 12
    assert set(s.lines) == HESSE_LINES
    assert s.lambda_underlying == 12


def test_hesse_line_zero_positions():
    # first cyclic line sits on positions 1, 2, 4
    s = builtin_schema("hesse")
    assert s.lines[0] == (1, 2, 4)
    # the four lines through position 0 come last
    assert s.lines[8:] == ((0, 1, 5), (0, 2, 6), (0, 3, 7), (0, 4, 8))


def test_unknown_layout():
    with pytest.raises(MalformedInput):
        builtin_schema("petersen")


def test_validate_schema_positive():
    for name in ("fano", "hesse"):
        assert validate_schema(builtin_schema(name)).valid


def test_validate_schema_negative():
    bad = KaleidoscopeSchema(
        name="broken",
        k=7,
        h=3,
        lines=tuple(sorted({(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6),
                            (0, 4, 5), (1, 5, 6), (0, 1, 6)})),
    )
    rep = validate_schema(bad)
    assert not rep.valid
    assert rep.first_violation is not None


def test_lambda_underlying_counts_lines():
    tiny = KaleidoscopeSchema(
        name="triangle", k=3, h=2, lines=((0, 1), (0, 2), (1, 2))
    )
    assert validate_schema(tiny).valid
    assert tiny.lambda_underlying == 3


def test_ordered_block_lines_example_19():
    """Color-j lines of the three order-19 blocks, by position."""
    fano = builtin_schema("fano")
    b1 = OrderedBlock(fano, (0, 1, 2, 4, 5, 11, 8))
    b2 = OrderedBlock(fano, (0, 7, 14, 9, 16, 1, 18))
    b3 = OrderedBlock(fano, (0, 11, 3, 6, 17, 7, 12))
    fj = [
        [{0, 1, 4}, {0, 7, 9}, {0, 11, 6}],
        [{1, 2, 5}, {7, 14, 16}, {11, 3, 17}],
        [{2, 4, 11}, {14, 9, 1}, {3, 6, 7}],
        [{4, 5, 8}, {9, 16, 18}, {6, 17, 12}],
        [{5, 11, 0}, {16, 1, 0}, {17, 7, 0}],
        [{11, 8, 1}, {1, 18, 7}, {7, 12, 11}],
        [{8, 0, 2}, {18, 0, 14}, {12, 0, 3}],
    ]
    for j in range(7):
        got = [set(b.lines()[j]) for b in (b1, b2, b3)]
        assert got == fj[j]


def test_ordered_block_rejects_bad_input():
    fano = builtin_schema("fano")
    with pytest.raises(MalformedInput):
        OrderedBlock(fano, (0, 1, 2))
    with pytest.raises(DuplicateElements):
        OrderedBlock(fano, (0, 1, 2, 3, 4, 5, 0))


def test_schema_json_round_trip():
    for name in ("fano", "hesse"):
        s = builtin_schema(name)
        assert schema_to_json(s) == name
        assert schema_from_json(name) == s
    custom = KaleidoscopeSchema(
        name="triangle", k=3, h=2, lines=((0, 1), (0, 2), (1, 2))
    )
    obj = schema_to_json(custom)
    assert isinstance(obj, dict)
    assert schema_from_json(obj) == custom


def test_builtin_layouts_are_built_once():
    assert builtin_schema("fano") is builtin_schema("fano")
    assert builtin_schema("hesse") is builtin_schema("hesse")
    # a builtin, or a renamed copy of one, serializes as its name
    for name in ("fano", "hesse"):
        s = builtin_schema(name)
        assert schema_to_json(s) == name
        copy = KaleidoscopeSchema("copy", s.k, s.h, s.lines)
        assert schema_to_json(copy) == name
    tiny = KaleidoscopeSchema("triangle", 3, 2, ((0, 1), (0, 2), (1, 2)))
    assert schema_to_json(tiny) == {
        "name": "triangle", "k": 3, "h": 2, "lines": [[0, 1], [0, 2], [1, 2]],
    }


def test_schema_json_rejects_bad_coverage():
    obj = {
        "name": "broken",
        "k": 3,
        "h": 2,
        "lines": [[0, 1], [0, 1], [1, 2]],
    }
    with pytest.raises(MalformedInput):
        schema_from_json(obj)
