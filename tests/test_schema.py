"""Plane layouts: line maps, the tiling check, ordered blocks."""

from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaleido.designs import Kaleidoscope, verify_kaleidoscope
from kaleido.errors import DuplicateElements, MalformedInput, UntiledLayout
from kaleido.schema import (
    KaleidoscopeSchema,
    OrderedBlock,
    builtin_schema,
    schema_from_json,
    schema_to_json,
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


def test_hesse_layout():
    s = builtin_schema("hesse")
    assert s.k == 9
    assert s.b == 12
    assert set(s.lines) == HESSE_LINES


def test_hesse_line_zero_positions():
    # first cyclic line sits on positions 1, 2, 4
    s = builtin_schema("hesse")
    assert s.lines[0] == (1, 2, 4)
    # the four lines through position 0 come last
    assert s.lines[8:] == ((0, 1, 5), (0, 2, 6), (0, 3, 7), (0, 4, 8))


def test_unknown_layout():
    with pytest.raises(MalformedInput):
        builtin_schema("petersen")


def _first_untiled_pair(lines, k):
    """Brute force: the first position pair, in lexicographic order, not
    on exactly one line, with its count; None when the lines tile."""
    count = Counter()
    for line in lines:
        for i in line:
            for j in line:
                if i < j:
                    count[(i, j)] += 1
    for i in range(k):
        for j in range(i + 1, k):
            if count[(i, j)] != 1:
                return (i, j), count[(i, j)]
    return None


def test_builtin_layouts_tile():
    for name in ("fano", "hesse"):
        s = builtin_schema(name)
        assert _first_untiled_pair(s.lines, s.k) is None
        assert KaleidoscopeSchema("copy", s.k, s.h, s.lines).same_layout(s)


def test_untiled_lines_are_refused():
    # (0, 1, 6) for (0, 2, 6): pair (0, 1) on two lines, (0, 2) on none
    lines = tuple(sorted({(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6),
                          (0, 4, 5), (1, 5, 6), (0, 1, 6)}))
    with pytest.raises(UntiledLayout) as err:
        KaleidoscopeSchema(name="broken", k=7, h=3, lines=lines)
    assert isinstance(err.value, MalformedInput)
    assert str(err.value) == (
        "layout covers position pair (0, 1) 2 times, wanted 1"
    )
    assert err.value.name == "broken"
    assert err.value.first_violation == ((0, 1), 2)


def test_line_checks_come_before_the_tiling_check():
    for lines, message in [(((0, 1, 9),), "index out of range"),
                           (((0, 1),), "is not an 3-subset")]:
        with pytest.raises(MalformedInput, match=message) as err:
            KaleidoscopeSchema("short", 7, 3, lines)
        assert not isinstance(err.value, UntiledLayout)


def test_triangle_layout_needs_all_three_lines():
    tiny = KaleidoscopeSchema(
        name="triangle", k=3, h=2, lines=((0, 1), (0, 2), (1, 2))
    )
    assert tiny.b == 3
    # two of the three lines tile nothing: the layout is never built
    with pytest.raises(UntiledLayout, match=r"pair \(1, 2\) 0 times"):
        KaleidoscopeSchema(name="triangle", k=3, h=2, lines=((0, 1), (0, 2)))


def test_coinciding_lines_are_refused():
    """Seven copies of the line {0, 1, 2}, the lines of a layout that
    ``verify schema`` rejects. Rows on range(7) that are the Fano lines
    {i, i+1, i+3} mod 7, each followed by its other four points, once
    read valid under it: the pair count only ever saw the line {0, 1, 2}
    of each row, and those seven lines are a Fano plane. Such lines are
    refused when the layout is built, so the rows have no layout to be
    judged under."""
    rows = []
    for i in range(7):
        line = (i, (i + 1) % 7, (i + 3) % 7)
        rows.append(line + tuple(x for x in range(7) if x not in line))
    lines = ((0, 1, 2),) * 7
    with pytest.raises(UntiledLayout) as err:
        KaleidoscopeSchema("bad", 7, 3, lines)
    assert str(err.value) == (
        "layout covers position pair (0, 1) 7 times, wanted 1"
    )
    # the same rows under the Fano layout are no kaleidoscope
    scope = Kaleidoscope(range(7), builtin_schema("fano"), tuple(rows))
    assert not verify_kaleidoscope(scope).valid


# (k, h): positions and points per line
_SHAPES = [(3, 2), (7, 2), (7, 3), (9, 2), (9, 3)]


def _tiling(k, h):
    """Lines that tile the position pairs: every pair when h = 2, the
    builtin plane when h = 3."""
    if h == 2:
        return list(combinations(range(k), 2))
    return list(builtin_schema({7: "fano", 9: "hesse"}[k]).lines)


@st.composite
def _line_lists(draw):
    """Lines of h distinct positions out of k: a tiling, relabelled and
    reordered, then maybe edited (a line dropped, repeated or replaced,
    or one point of a line moved), or lines drawn at random."""
    k, h = draw(st.sampled_from(_SHAPES))
    line = st.lists(
        st.integers(0, k - 1), min_size=h, max_size=h, unique=True
    ).map(tuple)
    if draw(st.booleans()):
        return k, h, draw(st.lists(line, max_size=k * (k - 1) // 2 + 1))
    relabel = draw(st.permutations(range(k)))
    lines = draw(st.permutations(
        [tuple(relabel[i] for i in ln) for ln in _tiling(k, h)]
    ))
    edit = draw(st.sampled_from(["none", "drop", "repeat", "replace"]))
    at = draw(st.integers(0, len(lines) - 1))
    if edit == "drop":
        del lines[at]
    elif edit == "repeat":
        lines.insert(draw(st.integers(0, len(lines))), lines[at])
    elif edit == "replace":
        lines[at] = draw(line)
    return k, h, lines


@settings(max_examples=300, deadline=None)
@given(_line_lists())
@example((3, 2, [(0, 1), (1, 2), (0, 2)]))
@example((3, 2, []))
@example((7, 3, [(0, 1, 2)] * 7))
def test_constructor_accepts_exactly_the_tilings(case):
    k, h, lines = case
    first = _first_untiled_pair(lines, k)
    if first is None:
        s = KaleidoscopeSchema("drawn", k, h, tuple(lines))
        assert s.b == len(lines) == k * (k - 1) // (h * (h - 1))
        return
    with pytest.raises(UntiledLayout) as err:
        KaleidoscopeSchema("drawn", k, h, tuple(lines))
    (i, j), count = first
    assert str(err.value) == (
        f"layout covers position pair ({i}, {j}) {count} times, wanted 1"
    )
    assert err.value.first_violation == first


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
    with pytest.raises(UntiledLayout) as err:
        schema_from_json(obj)
    assert str(err.value) == (
        "layout covers position pair (0, 1) 2 times, wanted 1"
    )
    assert err.value.name == "broken"


def test_schema_json_names_a_nameless_layout_custom():
    obj = {"k": 3, "h": 2, "lines": [[0, 1], [0, 2], [1, 2]]}
    assert schema_from_json(obj).name == "custom"
    obj["lines"] = [[0, 1]]
    with pytest.raises(UntiledLayout) as err:
        schema_from_json(obj)
    assert err.value.name == "custom"
