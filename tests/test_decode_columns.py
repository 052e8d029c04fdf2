"""Point rows decoded a column at a time, against element-by-element
reference decoders kept here.

``kdf_from_json`` and ``kaleidoscope_from_json`` decode a document whose
rows are all lists of k elements in whole-column passes, and fall back to
decoding row by row when anything is irregular. The reference decoders
below read every document row by row, element by element, the way the
package did before. On malformed documents the two must raise the same
exception with the same message; on valid ones they must decode equal
rows, with one object per point in a kaleidoscope.
"""

import copy
import functools
import json

import pytest

from kaleido.algebra import (
    ExtensionField,
    PrimeField,
    Product,
    descriptor_from_json,
    find_irreducible,
    make_group,
)
from kaleido.compose import compose_kdf, field_dm
from kaleido.designs import (
    Kaleidoscope,
    KaleidoscopicDifferenceFamily,
    LineTable,
    develop,
    dumps,
    kaleidoscope_from_json,
    kaleidoscope_to_json,
    kdf_from_json,
    kdf_to_json,
)
from kaleido.errors import KaleidoError, MalformedInput
from kaleido.schema import _check_row, schema_from_json
from kaleido.search import (
    FANO_POWERS,
    form_block,
    generate_kdf_from_initial_block,
)


# ---------------------------------------------------------------------------
# reference decoders: one element, one row at a time


def _ref_decoded(raw, dec, what):
    if not isinstance(raw, (list, tuple)):
        raise MalformedInput(f"{what} must be a list of elements")
    return tuple(map(dec, raw))


def ref_kdf_from_json(obj):
    """Every block decoded in order, then the provenance, then each row
    checked in order."""
    group = make_group(descriptor_from_json(obj["group"]))
    schema = schema_from_json(obj["schema"])
    dec = group.decoder()
    blocks = tuple(
        _ref_decoded(block, dec, "block") for block in obj["blocks"]
    )
    provenance = obj.get("provenance") or {}
    if not isinstance(provenance, dict):
        raise MalformedInput("provenance must be an object")
    for row in blocks:
        _check_row(schema, row)
    return KaleidoscopicDifferenceFamily(group, schema, blocks, provenance)


def ref_kaleidoscope_from_json(obj):
    """Every plane decoded and checked in order, each point shared."""
    raw_points = obj["points"]
    schema = schema_from_json(obj["schema"])
    if isinstance(raw_points, dict):
        points = make_group(descriptor_from_json(raw_points))
        dec = points.decoder()
    else:
        points = range(raw_points)

        def dec(x):
            if type(x) is not int or x not in points:
                raise MalformedInput(f"point {x!r} out of range")
            return x

    seen = {}
    same = lambda x: seen.setdefault(x, x)  # noqa: E731
    planes = []
    for raw in obj["planes"]:
        if isinstance(raw, dict):
            raw_lines = raw.get("lines")
            if not isinstance(raw_lines, list) or len(raw_lines) != schema.b:
                raise MalformedInput("plane needs one line per color")
            lines = LineTable(
                frozenset(map(same, _ref_decoded(line, dec, "line")))
                for line in raw_lines
            )
            for line in lines:
                if len(line) != schema.h:
                    raise MalformedInput("line has the wrong size")
            planes.append(lines)
        elif isinstance(raw, list):
            row = tuple(map(same, map(dec, raw)))
            _check_row(schema, row)
            planes.append(row)
        else:
            raise MalformedInput("plane must be a point list or a line table")
    return Kaleidoscope(points, schema, tuple(planes))


def _outcome(decode, doc):
    """The exception type and message, or the decoded object."""
    try:
        return decode(copy.deepcopy(doc))
    except KaleidoError as err:
        return type(err), str(err)


# ---------------------------------------------------------------------------
# documents


FANO19 = (0, 1, 2, 4, 5, 11, 8)


def _prime(p):
    return make_group(PrimeField(p))


@functools.cache
def _family(name):
    if name == "19":
        return generate_kdf_from_initial_block(_prime(19), FANO19)
    if name == "25":
        f25 = make_group(ExtensionField(5, find_irreducible(5, 2)))
        block = form_block(f25, FANO_POWERS, (1, 4))
        return generate_kdf_from_initial_block(f25, block)
    if name == "133":
        left = generate_kdf_from_initial_block(_prime(7), tuple(range(7)))
        right = generate_kdf_from_initial_block(_prime(19), FANO19)
        return compose_kdf(left, right, field_dm(right.group, 7))
    raise KeyError(name)


FAMILIES = ["19", "25", "133"]


def _kdf_doc(name):
    return json.loads(dumps(kdf_to_json(_family(name))))


def _scope_doc(name):
    """The first 40 planes of the family's development: decoding checks
    each plane, not how the planes cover the pairs."""
    doc = json.loads(dumps(kaleidoscope_to_json(develop(_family(name)))))
    del doc["planes"][40:]
    return doc


def _count_doc():
    """Seven rows over ``range(7)``: the development of the F_7 family."""
    f7 = generate_kdf_from_initial_block(_prime(7), tuple(range(7)))
    planes = list(map(list, develop(f7).planes))
    return {"points": 7, "schema": "fano", "planes": planes}


def _rows(doc):
    return doc["blocks"] if "blocks" in doc else doc["planes"]


def _element(doc, i, j):
    return _rows(doc)[i][j]


def _set(doc, i, j, value):
    _rows(doc)[i][j] = value


def _like_one(doc, i, j, one):
    """Element (i, j) respelled with ``one`` (true or 1.0) in place of
    a coordinate, so it would equal an integer spelling."""
    x = _element(doc, i, j)
    _set(doc, i, j, [one, *x[1:]] if isinstance(x, list) else one)


# Each fault spoils row i of a document in place.
def _repeat(doc, i):
    _set(doc, i, 3, copy.deepcopy(_element(doc, i, 0)))


FAULTS = {
    "repeat": _repeat,
    "true": lambda doc, i: _like_one(doc, i, 2, True),
    "float": lambda doc, i: _like_one(doc, i, 2, 1.0),
    "string": lambda doc, i: _set(doc, i, 1, "1"),
    "nested": lambda doc, i: _set(doc, i, 1, [_element(doc, i, 1)]),
    "short": lambda doc, i: _rows(doc)[i].pop(),
    "long": lambda doc, i: _rows(doc)[i].append(_element(doc, i, 0)),
    "null": lambda doc, i: _set(doc, i, 4, None),
    "not-a-row": lambda doc, i: _rows(doc).__setitem__(i, 5),
}


def _wide(doc, i):
    """An element with one coordinate too many, or a list for an int."""
    x = _element(doc, i, 2)
    _set(doc, i, 2, [*x, 0] if isinstance(x, list) else [x, 0])


def _out_of_range(doc, i):
    _set(doc, i, 1, 7 if doc.get("points") == 7 else -1)


def _line_table(doc, i):
    """Row i replaced by its own lines: a valid line table."""
    row = _rows(doc)[i]
    schema = schema_from_json(doc["schema"])
    lines = [[row[p] for p in line] for line in schema.lines]
    _rows(doc)[i] = {"lines": lines}


def _bad_line_table(doc, i):
    _rows(doc)[i] = {"lines": []}


FAULTS.update(wide=_wide, **{"out-of-range": _out_of_range})
SCOPE_FAULTS = dict(
    FAULTS, **{"line-table": _line_table, "bad-table": _bad_line_table}
)


def _two_faults(doc, first, second):
    doc = copy.deepcopy(doc)
    second(doc, 2)
    first(doc, 1)
    return doc


# ---------------------------------------------------------------------------
# malformed documents


@pytest.mark.parametrize("name", FAMILIES)
@pytest.mark.parametrize("first", sorted(FAULTS))
def test_family_faults_raise_as_row_by_row(name, first):
    doc = _kdf_doc(name)
    for second in sorted(FAULTS):
        spoiled = _two_faults(doc, FAULTS[first], FAULTS[second])
        want = _outcome(ref_kdf_from_json, spoiled)
        assert _outcome(kdf_from_json, spoiled) == want, (first, second)


@pytest.mark.parametrize("name", FAMILIES + ["count"])
@pytest.mark.parametrize("first", sorted(SCOPE_FAULTS))
def test_kaleidoscope_faults_raise_as_row_by_row(name, first):
    doc = _count_doc() if name == "count" else _scope_doc(name)
    for second in sorted(SCOPE_FAULTS):
        if first == "line-table" == second:
            continue  # no fault at all; the valid documents below
        spoiled = _two_faults(doc, SCOPE_FAULTS[first], SCOPE_FAULTS[second])
        # A point -1 of a group, or a line table, is no fault: such a
        # document must decode to the reference's kaleidoscope.
        want = _outcome(ref_kaleidoscope_from_json, spoiled)
        got = _outcome(kaleidoscope_from_json, spoiled)
        assert got == want, (first, second)


@pytest.mark.parametrize("fault", ["true", "float"])
def test_a_spelling_equal_to_an_integer_one_is_refused(fault):
    """[true, 0] equals (1, 0), a spelling decoded earlier in the same
    document, yet is refused as it always was."""
    doc = _scope_doc("133")
    assert [1, 0] in _rows(doc)[0]
    FAULTS[fault](doc, len(_rows(doc)) - 1)
    with pytest.raises(MalformedInput, match="expected an integer"):
        kaleidoscope_from_json(doc)


def _nested_docs():
    """A family and planes over F_25 x F_3, whose elements are spelled
    [[a, b], c]: four rows of seven elements each."""
    g = make_group(Product(ExtensionField(5, (2, 0, 1)), PrimeField(3)))
    enc = g.encoder()
    rows = [[enc(g[7 * i + j]) for j in range(7)] for i in range(4)]
    family = {"group": g.to_json(), "schema": "fano", "blocks": rows}
    planes = {"points": g.to_json(), "schema": "fano", "planes": rows}
    return family, planes


def test_nested_spellings_decode_as_row_by_row():
    """No column pass reads [[a, b], c], and a flat [a, c] or [a, b, c]
    for such an element is refused as it always was."""
    for doc, ref, decode in zip(
        _nested_docs(),
        (ref_kdf_from_json, ref_kaleidoscope_from_json),
        (kdf_from_json, kaleidoscope_from_json),
    ):
        assert _outcome(decode, doc) == _outcome(ref, doc)
        for flat in ([1, 2], [1, 2, 0]):
            spoiled = copy.deepcopy(doc)
            for row in _rows(spoiled):
                row[:] = [flat] * len(row)
            want = _outcome(ref, spoiled)
            assert want[0] is MalformedInput
            assert _outcome(decode, spoiled) == want


# ---------------------------------------------------------------------------
# valid documents


def _negated_coordinates(doc):
    """Every coordinate c of the first rows written as c - v, with v the
    group's order, a multiple of each coordinate's modulus."""
    descriptor = doc["group"] if "group" in doc else doc["points"]
    v = make_group(descriptor_from_json(descriptor)).order
    for row in _rows(doc)[:5]:
        for j, x in enumerate(row):
            row[j] = [c - v for c in x] if isinstance(x, list) else x - v
    return doc


def _point_objects(scope):
    return len({id(x) for row in scope.planes for x in row})


@pytest.mark.parametrize("name", FAMILIES)
def test_valid_families_decode_as_row_by_row(name):
    for doc in (_kdf_doc(name), _negated_coordinates(_kdf_doc(name))):
        got, want = kdf_from_json(doc), ref_kdf_from_json(doc)
        assert got.blocks == want.blocks
        assert got.group == want.group


@pytest.mark.parametrize("name", FAMILIES + ["count"])
def test_valid_kaleidoscopes_decode_as_row_by_row(name):
    docs = [_count_doc()] if name == "count" else [
        _scope_doc(name), _negated_coordinates(_scope_doc(name))
    ]
    for doc in docs:
        got = kaleidoscope_from_json(doc)
        assert got.planes == ref_kaleidoscope_from_json(doc).planes
        points = set().union(*got.planes)
        assert _point_objects(got) == len(points)
