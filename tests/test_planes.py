"""Planes stored as point rows and planes stored as line tables.

A developed or decoded translate keeps only its point row; its lines are
cut from the row by the layout when read. These tests pin that the two
representations agree, that decoding still rejects bad rows, and that
the texts written from row planes are the bytes written before rows
were stored (digests taken from line-table planes).
"""

import hashlib
import json

import pytest

from kaleido import designs
from kaleido import tables
from kaleido.algebra import ExtensionField, PrimeField, make_group
from kaleido.cli import main
from kaleido.compose import Catalog, compose_kdf, field_dm, pbd_compose
from kaleido.designs import (
    Kaleidoscope,
    PairwiseBalancedDesign,
    Plane,
    develop,
    dumps,
    kaleidoscope_from_json,
    kaleidoscope_to_json,
    kdf_to_json,
    replicate,
    verify_kaleidoscope,
)
from kaleido.errors import DuplicateElements, MalformedInput
from kaleido.schema import KaleidoscopeSchema, builtin_schema
from kaleido.search import generate_kdf_from_initial_block

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
    for plane in scope.planes:
        row = plane.block
        assert len(row) == schema.k
        assert plane.lines == schema.lines_at(row)
        assert plane.lines == tuple(
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
    assert [plane.block for plane in develop(kdf).planes] == want


def test_decoded_rows_are_rows_cut_by_the_layout():
    scope = develop(_hesse19())
    text = dumps(kaleidoscope_to_json(scope))
    back = kaleidoscope_from_json(json.loads(text))
    assert [p.block for p in back.planes] == [p.block for p in scope.planes]
    assert all(p.lines == HESSE.lines_at(p.block) for p in back.planes)
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
    such keys tells.
    """
    layout = KaleidoscopeSchema("pairs", 3, 2, ((0, 1), (0, 2), (1, 2)))
    rows = ((0, 0, 1), (1, 2, 2), (2, 0, 0))
    bad = Kaleidoscope(
        (0, 1, 2), layout, tuple(Plane(None, r, layout) for r in rows), None
    )
    assert not verify_kaleidoscope(bad).valid
    good = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    scope = Kaleidoscope(
        (0, 1, 2), layout, tuple(Plane(None, r, layout) for r in good), None
    )
    assert verify_kaleidoscope(scope).valid


def test_rows_keep_the_layout_they_were_cut_by():
    """Rows put under another layout still count by their own lines."""
    scope = develop(_fano19())
    lines = list(FANO.lines)
    lines[lines.index((0, 1, 3))] = (0, 1, 5)  # no longer tiles the pairs
    other = KaleidoscopeSchema("untiled", 7, 3, tuple(lines))
    moved = Kaleidoscope(scope.points, other, scope.planes, scope.group)
    assert all(p.lines == FANO.lines_at(p.block) for p in moved.planes)
    assert verify_kaleidoscope(moved).valid
    # The flat pair count agrees, without the report builder's recount.
    assert designs._each_pair_once(moved, len(moved.points))


def test_wrong_row_length_raises():
    scope = develop(_fano19())
    planes = list(scope.planes)
    planes[4] = Plane(None, planes[4].block[:6], FANO)
    broken = Kaleidoscope(scope.points, FANO, tuple(planes), scope.group)
    with pytest.raises(MalformedInput):
        verify_kaleidoscope(broken)


def test_plane_needs_lines_or_a_row_and_a_layout():
    with pytest.raises(MalformedInput):
        Plane()
    with pytest.raises(MalformedInput):
        Plane(None, (0, 1, 2, 3, 4, 5, 6))


# Digests of texts written when every plane stored its line sets.
PBD_ROWS_AG27 = "6d290ceec96ff4b16d64432c1b33943802c18453b1bc27dc7a03d7ac288aa0d6"
PBD_TABLES_AG27 = "fb5a2482bd7f5d040260963bc03a2e9bcbe61c28a387d242cd2cd2cec18b1eba"
PBD_ROWS_19 = "2d73083532424cde1a21b3e63bac4358bfe5c9bbecc09c0c3c82709faf00dca1"


def test_pbd_compose_over_row_planes_writes_the_same_text():
    out = pbd_compose(_ag27(), {7: develop(_fano7())})
    assert all(p.block is not None for p in out.planes)
    assert verify_kaleidoscope(out).valid
    assert _sha(dumps(kaleidoscope_to_json(out))) == PBD_ROWS_AG27
    one = PairwiseBalancedDesign(19, (frozenset(range(19)),))
    out = pbd_compose(one, {19: develop(_fano19())})
    assert _sha(dumps(kaleidoscope_to_json(out))) == PBD_ROWS_19


def test_pbd_compose_over_line_tables_writes_the_same_text():
    seven = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    out = pbd_compose(_ag27(), {7: replicate(seven, FANO)})
    assert all(p.block is None for p in out.planes)
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
