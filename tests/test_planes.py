"""Planes stored as point rows and planes stored as line tables.

A developed or decoded translate is a bare point row; its lines are cut
from the row by the kaleidoscope's one layout when read. Other planes
are ``LineTable``s. These tests pin that the two representations agree,
that decoding still rejects bad rows, that each plane is written as the
kind it is judged as, and that the texts written from row planes are
the bytes written before rows were stored (digests taken from
line-table planes).
"""

import contextlib
import functools
import hashlib
import io
import json
import tracemalloc

import pytest

from kaleido import designs
from kaleido import tables
from kaleido.algebra import Cyclic, ExtensionField, PrimeField, make_group
from kaleido.cli import main
from kaleido.compose import Catalog, compose_kdf, field_dm, pbd_compose
from kaleido.designs import (
    Kaleidoscope,
    KaleidoscopicDifferenceFamily,
    LineTable,
    PairwiseBalancedDesign,
    develop,
    dumps,
    kaleidoscope_from_json,
    kaleidoscope_to_json,
    kdf_from_json,
    kdf_to_json,
    replicate,
    verify_kaleidoscope,
)
from kaleido.errors import DuplicateElements, MalformedInput, UntiledLayout
from kaleido.schema import KaleidoscopeSchema, builtin_schema
from kaleido.search import generate_kdf_from_initial_block
from test_verify_reference import ref_verify_kaleidoscope

F7 = make_group(PrimeField(7))
F19 = make_group(PrimeField(19))
FANO = builtin_schema("fano")
HESSE = builtin_schema("hesse")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _fano7():
    return generate_kdf_from_initial_block(F7, (0, 1, 2, 3, 4, 5, 6))


def _fano19():
    return generate_kdf_from_initial_block(F19, (0, 1, 2, 4, 5, 11, 8))


def _hesse19():
    return generate_kdf_from_initial_block(F19, (0, 1, 2, 3, 7, 16, 8, 4, 10))


def _ag27() -> PairwiseBalancedDesign:
    """The affine plane of order 7: 56 lines of size 7 on 49 points."""
    blocks = [
        frozenset(x + 7 * ((m * x + c) % 7) for x in range(7))
        for m in range(7)
        for c in range(7)
    ]
    blocks += [frozenset(c + 7 * y for y in range(7)) for c in range(7)]
    return PairwiseBalancedDesign(49, tuple(blocks))


@pytest.mark.parametrize("make", [_fano7, _fano19, _hesse19])
def test_developed_planes_are_rows_cut_by_the_layout(make):
    kdf = make()
    scope = develop(kdf)
    schema = kdf.schema
    assert len(scope.planes) == len(kdf.blocks) * kdf.group.order
    for row in scope.planes:
        assert type(row) is tuple
        assert len(row) == schema.k
        assert scope.lines_of(row) == schema.lines_at(row)
        assert scope.lines_of(row) == tuple(
            frozenset(row[i] for i in line) for line in schema.lines
        )


def test_develop_over_an_extension_factor_matches_the_element_loop():
    """Rows built from whole translate columns are the rows x + g, block
    by block and g in canonical order, over F_19 x F_25."""
    rec = tables.HESSE_SQUARE_BLOCKS[5]
    f25 = make_group(ExtensionField(5, rec["modulus"]))
    right = generate_kdf_from_initial_block(f25, rec["block"])
    kdf = compose_kdf(_hesse19(), right, field_dm(f25, HESSE.k))
    group = kdf.group
    want = [
        tuple(group.add(x, g) for x in block)
        for block in kdf.blocks
        for g in group.elements()
    ]
    assert list(develop(kdf).planes) == want


def _z19():
    """The F_19 Fano family over Z_19, a group that is no field."""
    blocks = ((0, 1, 2, 4, 5, 11, 8), (0, 7, 14, 9, 16, 1, 18),
              (0, 8, 16, 13, 2, 12, 7))
    return KaleidoscopicDifferenceFamily(make_group(Cyclic(19)), FANO, blocks)


def _f361():
    """The F_361 family that ``search asymptotic --q 361 --backtrack``
    emits."""
    out, note = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(note):
        argv = ["search", "asymptotic", "--q", "361", "--backtrack",
                "--emit-kdf"]
        assert main(argv) == 0
    return kdf_from_json(json.loads(out.getvalue()))


def _f7_x_f19():
    return compose_kdf(_fano7(), _fano19(), field_dm(F19, FANO.k))


@pytest.mark.parametrize(
    "make", [_z19, _fano19, _f361, _f7_x_f19],
    ids=["Z19", "F19", "F361", "F7xF19"],
)
def test_develop_matches_the_element_loop(make):
    """Rows cut from one element list are the rows x + g, block by block
    and g in canonical order, and hold one object per point."""
    kdf = make()
    group = kdf.group
    want = [
        tuple(group.add(x, g) for x in block)
        for block in kdf.blocks
        for g in group
    ]
    scope = develop(kdf)
    assert list(scope.planes) == want
    assert len({id(x) for plane in scope.planes for x in plane}) == len(group)


def test_decoded_rows_are_rows_cut_by_the_layout():
    scope = develop(_hesse19())
    text = dumps(kaleidoscope_to_json(scope))
    back = kaleidoscope_from_json(json.loads(text))
    assert list(back.planes) == list(scope.planes)
    assert all(type(p) is tuple for p in back.planes)
    assert all(back.lines_of(p) == HESSE.lines_at(p) for p in back.planes)
    assert verify_kaleidoscope(back).valid


def _scope19_doc() -> dict:
    return json.loads(dumps(kaleidoscope_to_json(develop(_fano19()))))


def _repeated_point(doc):
    doc["planes"][3][2] = doc["planes"][3][1]


def _short_row(doc):
    doc["planes"][3] = doc["planes"][3][:6]


def _long_row(doc):
    doc["planes"][3] = doc["planes"][3] + [0]


@pytest.mark.parametrize(
    "spoil, error",
    [
        (_repeated_point, DuplicateElements),
        (_short_row, MalformedInput),
        (_long_row, MalformedInput),
    ],
    ids=["repeated-point", "short-row", "long-row"],
)
def test_bad_decoded_rows_are_rejected(spoil, error, tmp_path, capsys):
    doc = _scope19_doc()
    spoil(doc)
    with pytest.raises(error):
        kaleidoscope_from_json(doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "kaleidoscope", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_row_with_a_repeated_point_fails_the_pair_count():
    """Rows (0,0,1), (1,2,2), (2,0,0) on three points, lines of size two.

    Every color gets three distinct pair keys, as many as there are
    pairs, but some of them pair a point with itself, so pairs {0,1},
    {0,2} and {1,2} are each missed by some color. Only the check for
    such keys tells. The recount then names the fault as the decoder
    does: a repeated point raises ``DuplicateElements``.
    """
    layout = KaleidoscopeSchema("pairs", 3, 2, ((0, 1), (0, 2), (1, 2)))
    rows = ((0, 0, 1), (1, 2, 2), (2, 0, 0))
    bad = Kaleidoscope(range(3), layout, rows)
    assert not designs._each_pair_once(bad, 3)
    with pytest.raises(DuplicateElements, match=r"block \(0, 0, 1\)"):
        verify_kaleidoscope(bad)
    good = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    scope = Kaleidoscope(range(3), layout, good)
    assert verify_kaleidoscope(scope).valid


def test_rows_are_cut_by_the_layout_of_their_kaleidoscope():
    """Rows of a valid family put under another layout are judged by the
    lines that layout cuts. Lines that do not tile the position pairs
    make no layout at all; under the Fano lines with positions 0 and 1
    swapped, a plane but not the family's, the rows fail."""
    scope = develop(_fano19())
    lines = list(FANO.lines)
    lines[lines.index((0, 1, 3))] = (0, 1, 5)  # no longer tiles the pairs
    with pytest.raises(
        UntiledLayout,
        match=r"^layout covers position pair \(0, 3\) 0 times, wanted 1$",
    ):
        KaleidoscopeSchema("untiled", 7, 3, tuple(lines))
    swap = {0: 1, 1: 0}
    other = KaleidoscopeSchema(
        "swapped",
        7,
        3,
        tuple(tuple(sorted(swap.get(i, i) for i in ln)) for ln in FANO.lines),
    )
    assert not other.same_layout(FANO)
    moved = Kaleidoscope(scope.points, other, scope.planes)
    assert all(moved.lines_of(p) == other.lines_at(p) for p in moved.planes)
    assert not verify_kaleidoscope(moved).valid
    # The flat pair count and the reference recount agree.
    assert not designs._each_pair_once(moved, len(moved.points))
    assert not ref_verify_kaleidoscope(moved).valid


def test_wrong_row_length_raises():
    scope = develop(_fano19())
    planes = list(scope.planes)
    planes[4] = planes[4][:6]
    broken = Kaleidoscope(scope.points, FANO, tuple(planes))
    with pytest.raises(MalformedInput):
        verify_kaleidoscope(broken)


def _f25_rows_with_a_list_point():
    """100 rows over F_25, as many as its 300 pairs need, the last point
    of each the list [2, 1]: the pair count reaches the point lookup."""
    f25 = make_group(ExtensionField(5, (2, 0, 1)))
    row = tuple(list(f25)[:6]) + ([2, 1],)
    return Kaleidoscope(f25, FANO, (row,) * 100)


@pytest.mark.parametrize(
    "make, point",
    [
        (lambda: Kaleidoscope(range(7), FANO, ((0, 1, 2, 3, 4, 5, [6]),)),
         "[6]"),
        (_f25_rows_with_a_list_point, "[2, 1]"),
    ],
    ids=["range7", "f25"],
)
def test_unhashable_point_raises_malformed_input(make, point):
    """A hand-built row holding a list is refused by name, not with the
    bare TypeError of hashing it."""
    with pytest.raises(MalformedInput) as err:
        verify_kaleidoscope(make())
    assert str(err.value).startswith(f"unhashable point {point} in block")


def test_an_edited_plane_is_written_as_the_lines_it_is_judged_by():
    """Two colors swapped in one developed plane: the text written is
    the line table, so the decoded copy fails the same way."""
    scope = develop(_fano19())
    planes = list(scope.planes)
    lines = list(scope.lines_of(planes[0]))
    lines[0], lines[1] = lines[1], lines[0]
    planes[0] = LineTable(lines)
    bad = Kaleidoscope(scope.points, FANO, tuple(planes))
    rep = verify_kaleidoscope(bad)
    assert not rep.valid
    back = kaleidoscope_from_json(kaleidoscope_to_json(bad))
    assert isinstance(back.planes[0], LineTable)
    again = verify_kaleidoscope(back)
    assert not again.valid
    assert again.first_violation == rep.first_violation


# Planes 1, 2 and 5 of the order-7 development are written as line tables.
MIXED_TABLES = (1, 2, 5)


def _mixed7_text() -> str:
    doc = json.loads(dumps(kaleidoscope_to_json(develop(_fano7()))))
    for i in MIXED_TABLES:
        row = tuple(doc["planes"][i])
        doc["planes"][i] = {"lines": [sorted(x) for x in FANO.lines_at(row)]}
    return dumps(doc)


def test_mixed_planes_decode_in_file_order():
    text = _mixed7_text()
    back = kaleidoscope_from_json(json.loads(text))
    rows = develop(_fano7())
    kinds = [isinstance(p, LineTable) for p in back.planes]
    assert kinds == [i in MIXED_TABLES for i in range(7)]
    assert [type(p) is tuple for p in back.planes] == [not t for t in kinds]
    assert [back.lines_of(p) for p in back.planes] == [
        rows.lines_of(p) for p in rows.planes
    ]
    assert verify_kaleidoscope(back).valid
    assert dumps(kaleidoscope_to_json(back)) == text


def test_pbd_compose_over_mixed_planes_keeps_their_order():
    mixed = kaleidoscope_from_json(json.loads(_mixed7_text()))
    out = pbd_compose(_ag27(), {7: mixed})
    rows = pbd_compose(_ag27(), {7: develop(_fano7())})
    kinds = [isinstance(p, LineTable) for p in out.planes]
    assert kinds == [i % 7 in MIXED_TABLES for i in range(len(out.planes))]
    assert [out.lines_of(p) for p in out.planes] == [
        rows.lines_of(p) for p in rows.planes
    ]
    assert verify_kaleidoscope(out).valid


# Digests of texts written when every plane stored its line sets.
PBD_ROWS_AG27 = "6d290ceec96ff4b16d64432c1b33943802c18453b1bc27dc7a03d7ac288aa0d6"
PBD_TABLES_AG27 = "fb5a2482bd7f5d040260963bc03a2e9bcbe61c28a387d242cd2cd2cec18b1eba"
PBD_ROWS_19 = "2d73083532424cde1a21b3e63bac4358bfe5c9bbecc09c0c3c82709faf00dca1"


def test_pbd_compose_over_row_planes_writes_the_same_text():
    out = pbd_compose(_ag27(), {7: develop(_fano7())})
    assert all(type(p) is tuple for p in out.planes)
    assert verify_kaleidoscope(out).valid
    assert _sha(dumps(kaleidoscope_to_json(out))) == PBD_ROWS_AG27
    one = PairwiseBalancedDesign(19, (frozenset(range(19)),))
    out = pbd_compose(one, {19: develop(_fano19())})
    assert _sha(dumps(kaleidoscope_to_json(out))) == PBD_ROWS_19


def test_pbd_compose_over_line_tables_writes_the_same_text():
    seven = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    out = pbd_compose(_ag27(), {7: replicate(seven, FANO)})
    assert all(isinstance(p, LineTable) for p in out.planes)
    assert verify_kaleidoscope(out).valid
    assert _sha(dumps(kaleidoscope_to_json(out))) == PBD_TABLES_AG27


def test_catalog_files_keep_their_bytes(tmp_path):
    cat = Catalog(tmp_path)
    nine = PairwiseBalancedDesign(9, (frozenset(range(9)),))
    stored = {
        "7b66a7e6786fc1133b09f0f04ada6c164526d4206bf9725a63bedc25eb52cb20": (
            kdf_to_json(_fano19())
        ),
        "ff0daf07c4b2cee8db18fe982579174bdf597cfbb1634819fefb2c783919b524": (
            kaleidoscope_to_json(develop(_fano7()))
        ),
        "e20cdfc9b487b3fa6eb6df3c8af0127041ac7f0869ab98e5db95ccfe0e454211": (
            kaleidoscope_to_json(replicate(nine, HESSE))
        ),
    }
    for digest, obj in stored.items():
        text = cat.add(obj).read_text()
        assert text == json.dumps(obj, sort_keys=True, indent=1) + "\n"
        assert _sha(text) == digest


def test_a_line_table_on_too_many_points_fails_in_the_cli(tmp_path, capsys):
    """Planes 0 and 1 of the F_19 development, written as line tables
    with their color-3 lines swapped: every pair count is right, but
    plane 0 lies on 9 points. The document is refused with exit 1."""
    scope = develop(_fano19())
    planes = list(scope.planes)
    a, b = list(scope.lines_of(planes[0])), list(scope.lines_of(planes[1]))
    a[3], b[3] = b[3], a[3]
    planes[0], planes[1] = LineTable(a), LineTable(b)
    swapped = Kaleidoscope(scope.points, FANO, tuple(planes))
    path = tmp_path / "swap.json"
    path.write_text(dumps(kaleidoscope_to_json(swapped)))
    assert main(["verify", "kaleidoscope", "--file", str(path)]) == 1
    captured = capsys.readouterr()
    want = "plane 0 is not a plane: its lines lie on 9 points, wanted 7"
    assert json.loads(captured.out)["summary"] == want
    assert captured.err == want + "\n"


def test_replicated_and_composed_line_tables_are_planes():
    seven = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    nine = PairwiseBalancedDesign(9, (frozenset(range(9)),))
    for scope in (
        replicate(seven, FANO),
        replicate(nine, HESSE),
        replicate(_ag27(), FANO),
        pbd_compose(_ag27(), {7: replicate(seven, FANO)}),
    ):
        assert all(isinstance(p, LineTable) for p in scope.planes)
        assert all(designs._is_plane(p, scope.schema.k) for p in scope.planes)
        assert verify_kaleidoscope(scope).valid


# ---------------------------------------------------------------------------
# one object per point


@functools.cache
def _scope361():
    """The order-361 kaleidoscope: the F_19 Hesse family composed with
    itself through the field's difference matrix, developed."""
    kdf = compose_kdf(_hesse19(), _hesse19(), field_dm(F19, HESSE.k))
    return kdf, develop(kdf)


def _point_objects(scope) -> int:
    """How many distinct objects the planes' points are."""
    return len({
        id(x)
        for plane in scope.planes
        for line in scope.lines_of(plane)
        for x in line
    })


def _held(build, arg):
    """build(arg), and the bytes it holds afterwards, traced."""
    tracemalloc.start()
    try:
        out = build(arg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return out, held


# Each builder held 12.9 MiB for the 361 kaleidoscope when it made a
# point object per incidence (194,940 pairs); one per point holds 2.5.
HELD_361 = 5 << 20


def test_developed_planes_keep_one_object_per_point():
    kdf, _ = _scope361()
    scope, held = _held(develop, kdf)
    assert len(scope.planes) == 21660
    assert _point_objects(scope) == 361
    assert held < HELD_361, held


def test_decoded_planes_keep_one_object_per_point():
    _, scope = _scope361()
    doc = json.loads(dumps(kaleidoscope_to_json(scope)))
    back, held = _held(kaleidoscope_from_json, doc)
    assert back.planes == scope.planes
    assert _point_objects(back) == 361
    assert held < HELD_361, held


def test_decoded_line_tables_share_the_rows_point_objects():
    _, scope = _scope361()
    doc = json.loads(dumps(kaleidoscope_to_json(scope)))
    tables = range(0, len(doc["planes"]), 7)
    for i in tables:
        row = tuple(map(tuple, doc["planes"][i]))
        doc["planes"][i] = {
            "lines": [sorted(map(list, line)) for line in HESSE.lines_at(row)]
        }
    back = kaleidoscope_from_json(doc)
    assert all(isinstance(back.planes[i], LineTable) for i in tables)
    assert verify_kaleidoscope(back).valid
    assert _point_objects(back) == 361
    row_points = {id(x) for p in back.planes if type(p) is tuple for x in p}
    assert row_points == {
        id(x) for i in tables for line in back.planes[i] for x in line
    }


def _repeated_pair_point(doc):
    doc["planes"][5][3] = list(doc["planes"][5][0])


def _true_in_a_row(doc):
    doc["planes"][5][3] = [True, 0]


def _true_in_a_line(doc):
    row = tuple(map(tuple, doc["planes"][5]))
    lines = [sorted(map(list, line)) for line in HESSE.lines_at(row)]
    lines[2][1] = [0, True]
    doc["planes"][5] = {"lines": lines}


@pytest.mark.parametrize(
    "spoil, error",
    [
        (_repeated_pair_point, DuplicateElements),
        (_true_in_a_row, MalformedInput),
        (_true_in_a_line, MalformedInput),
    ],
    ids=["repeated-point", "true-in-row", "true-in-line"],
)
def test_shared_points_still_refuse_bad_rows(spoil, error):
    _, scope = _scope361()
    doc = json.loads(dumps(kaleidoscope_to_json(scope)))
    spoil(doc)
    with pytest.raises(error):
        kaleidoscope_from_json(doc)


def test_shared_points_still_refuse_true_among_integer_points():
    doc = json.loads(dumps(kaleidoscope_to_json(replicate(
        PairwiseBalancedDesign(7, (frozenset(range(7)),)), FANO
    ))))
    doc["planes"][0]["lines"][0][0] = True
    with pytest.raises(MalformedInput):
        kaleidoscope_from_json(doc)
