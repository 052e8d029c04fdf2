"""Difference families, development, verification, replication."""

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kaleido.algebra import Cyclic, PrimeField, make_group
from kaleido.designs import (
    DifferenceFamily,
    Kaleidoscope,
    KaleidoscopicDifferenceFamily,
    LineTable,
    PairwiseBalancedDesign,
    delta,
    develop,
    df_from_json,
    df_to_json,
    kaleidoscope_from_json,
    kaleidoscope_to_json,
    kdf_from_json,
    kdf_to_json,
    pbd_from_text,
    pbd_to_text,
    replicate,
    verify_df,
    verify_kaleidoscope,
    verify_kdf,
    verify_pbd,
)
from kaleido.errors import (
    DuplicateElements,
    MalformedInput,
    NotAUnitalDesign,
)
from kaleido.schema import builtin_schema
from test_verify_reference import (
    ref_verify_df,
    ref_verify_kaleidoscope,
    ref_verify_kdf,
)

Z19 = make_group(PrimeField(19))
FANO = builtin_schema("fano")
HESSE = builtin_schema("hesse")


def _fkdf19():
    blocks = (
        (0, 1, 2, 4, 5, 11, 8),
        (0, 7, 14, 9, 16, 1, 18),
        (0, 11, 3, 6, 17, 7, 12),
    )
    return KaleidoscopicDifferenceFamily(Z19, FANO, blocks, {})


def _hkdf19():
    base = (0, 1, 2, 3, 7, 16, 8, 4, 10)
    blocks = tuple(tuple(Z19.mul(s, x) for x in base) for s in (1, 7, 11))
    return KaleidoscopicDifferenceFamily(Z19, HESSE, blocks, {})


def test_delta_of_a_line():
    assert delta((0, 1, 4), Z19) == (1, 3, 4, 15, 16, 18)
    assert delta((0, 7, 9), Z19) == (2, 7, 9, 10, 12, 17)


def test_delta_rejects_repeats():
    with pytest.raises(DuplicateElements):
        delta((0, 1, 1), Z19)


def test_verify_df_positive():
    f0 = [frozenset(s) for s in ({0, 1, 4}, {0, 7, 9}, {0, 11, 6})]
    assert verify_df(f0, Z19, 3, 1).valid


def test_verify_df_negative():
    # third block's difference 3 collides with delta of the first
    f0 = [frozenset(s) for s in ({0, 1, 4}, {0, 7, 9}, {0, 11, 8})]
    rep = verify_df(f0, Z19, 3, 1)
    assert not rep.valid
    assert rep.off_elements


def test_verify_df_flags_bad_blocks():
    rep = verify_df([frozenset({0, 1})], Z19, 3, 1)
    assert not rep.valid
    assert rep.bad_blocks


def test_difference_family_report():
    df = DifferenceFamily(
        Z19, 3, 1,
        tuple(frozenset(s) for s in ({0, 1, 4}, {0, 7, 9}, {0, 11, 6})),
    )
    assert df.report().valid


def test_verify_kdf_example():
    kdf = _fkdf19()
    rep = verify_kdf(kdf)
    assert rep.valid
    assert all(r.valid for r in rep.color_reports)
    # The oracle counts every difference, and the blocks, colors
    # forgotten, cover each nonzero one b = 7 times.
    assert ref_verify_kdf(kdf) == rep
    blocks = [frozenset(block) for block in kdf.blocks]
    assert ref_verify_df(blocks, Z19, 7, FANO.b).valid


def test_verify_kdf_hesse_example():
    assert verify_kdf(_hkdf19()).valid


def test_verify_kdf_catches_mutation():
    blocks = (
        (0, 1, 2, 4, 5, 11, 8),
        (0, 7, 14, 9, 16, 1, 18),
        (0, 11, 3, 6, 17, 7, 13),  # last entry off by one
    )
    kdf = KaleidoscopicDifferenceFamily(Z19, FANO, blocks, {})
    rep = verify_kdf(kdf)
    assert not rep.valid
    assert rep.failing_colors


def test_kdf_summary_names_each_failing_color():
    blocks = ((0, 1, 2, 4, 5, 11, 9),) + _fkdf19().blocks[1:]
    rep = verify_kdf(KaleidoscopicDifferenceFamily(Z19, FANO, blocks))
    assert rep.failing_colors == [3, 5, 6]
    assert rep.summary() == (
        "colors [3, 5, 6] fail: color 3: difference 3 covered 0 times,"
        " wanted 1; color 5: difference 2 covered 2 times, wanted 1;"
        " color 6: difference 6 covered 0 times, wanted 1"
    )


@pytest.mark.parametrize(
    "row, error",
    [((0, 1, 2), MalformedInput), ((0, 1, 2, 3, 4, 5, 0), DuplicateElements)],
    ids=["short", "repeat"],
)
def test_family_checks_each_row(row, error):
    good = (0, 1, 2, 4, 5, 11, 8)
    with pytest.raises(error):
        KaleidoscopicDifferenceFamily(Z19, FANO, (good, row))
    obj = kdf_to_json(_fkdf19())
    obj["blocks"][1] = list(row)
    with pytest.raises(error):
        kdf_from_json(obj)


def test_translate_and_scale():
    points = (0, 1, 2, 4, 5, 11, 8)
    assert [Z19.translate_column(x, list(Z19))[1] for x in points] == [
        1, 2, 3, 5, 6, 12, 9
    ]
    assert Z19.times(7, points) == [0, 7, 14, 9, 16, 1, 18]


def test_develop_counts():
    scope = develop(_fkdf19())
    assert len(scope.planes) == 57
    assert len(scope.points) == 19
    assert verify_kaleidoscope(scope).valid


def test_develop_refuses_invalid_family():
    from kaleido.errors import InvalidKDF

    blocks = (
        (0, 1, 2, 4, 5, 11, 8),
        (0, 7, 14, 9, 16, 1, 18),
        (0, 11, 3, 6, 17, 7, 13),
    )
    kdf = KaleidoscopicDifferenceFamily(Z19, FANO, blocks, {})
    with pytest.raises(InvalidKDF):
        develop(kdf)


def test_verify_kaleidoscope_counts_pairs():
    scope = develop(_fkdf19())
    rep = verify_kaleidoscope(scope)
    assert rep.valid
    assert ref_verify_kaleidoscope(scope) == rep
    # one slot per (point pair, color), each covered once
    slots = Counter(
        (pair, color)
        for plane in scope.planes
        for color, line in enumerate(scope.lines_of(plane))
        for pair in itertools.combinations(sorted(line), 2)
    )
    assert len(slots) == (19 * 18 // 2) * 7
    assert set(slots.values()) == {1}


@pytest.mark.parametrize(
    "points",
    [(0, 1, 2), [0, 1, 2], range(1, 4), range(0, 6, 2), range(3, 3),
     range(-3), None],
    ids=repr,
)
def test_kaleidoscope_points_are_a_group_or_a_range(points):
    with pytest.raises(MalformedInput, match="points must be"):
        Kaleidoscope(points, FANO, ())


@pytest.mark.parametrize("points", [range(0), range(0, 7, 1), Z19], ids=repr)
def test_kaleidoscope_point_count_is_read_without_len(points):
    scope = Kaleidoscope(points, FANO, ())
    assert scope.n == len(points)
    big = Kaleidoscope(range(2**64), FANO, ())
    assert big.n == 2**64
    with pytest.raises(OverflowError):
        len(big.points)


def test_verify_kaleidoscope_detects_tamper():
    scope = develop(_fkdf19())
    planes = list(scope.planes)
    lines = list(scope.lines_of(planes[0]))
    lines[0], lines[1] = lines[1], lines[0]
    planes[0] = LineTable(lines)
    bad = Kaleidoscope(scope.points, scope.schema, tuple(planes))
    rep = verify_kaleidoscope(bad)
    assert not rep.valid
    assert rep.first_violation is not None


def test_kaleidoscope_summary_names_alien_points():
    seven = replicate(PairwiseBalancedDesign(7, (frozenset(range(7)),)), FANO)
    planes = list(seven.planes)
    lines = list(seven.lines_of(planes[0]))
    lines[0] = frozenset({0, 1, 7})
    planes[0] = LineTable(lines)
    bad = Kaleidoscope(seven.points, seven.schema, tuple(planes))
    rep = verify_kaleidoscope(bad)
    assert rep.alien_points == [7]
    assert rep.summary() == "planes use unknown points [7]"


def test_underlying_design_of_development():
    """Dropping colors leaves a 2-(19,7,7) design, counted directly."""
    scope = develop(_fkdf19())
    counts = {}
    for plane in scope.planes:
        pts = sorted(set().union(*scope.lines_of(plane)))
        assert len(pts) == 7
        for pair in itertools.combinations(pts, 2):
            counts[pair] = counts.get(pair, 0) + 1
    assert all(c == 7 for c in counts.values())
    assert len(counts) == 19 * 18 // 2


def test_replicate_fano_color_table():
    """One block, seven copies; copy j holds line i with color i + j."""
    pbd = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    scope = replicate(pbd, FANO)
    assert len(scope.planes) == 7
    base = FANO.lines  # positions equal points here
    for j, plane in enumerate(scope.planes):
        for c in range(7):
            assert scope.lines_of(plane)[c] == frozenset(base[(c - j) % 7])
    assert verify_kaleidoscope(scope).valid


def test_replicate_hesse():
    pbd = PairwiseBalancedDesign(9, (frozenset(range(9)),))
    scope = replicate(pbd, HESSE)
    assert len(scope.planes) == 12
    assert verify_kaleidoscope(scope).valid


def test_replicate_rejects_wrong_size():
    pbd = PairwiseBalancedDesign(7, (frozenset(range(6)),))
    with pytest.raises(NotAUnitalDesign):
        replicate(pbd, FANO)


def test_replicate_rejects_uncovered_pairs():
    pbd = PairwiseBalancedDesign(
        8, (frozenset(range(7)),)
    )  # point 7 never covered
    with pytest.raises(NotAUnitalDesign):
        replicate(pbd, FANO)


def test_pbd_verify():
    lines = tuple(
        frozenset({i % 7, (i + 1) % 7, (i + 3) % 7}) for i in range(7)
    )
    pbd = PairwiseBalancedDesign(7, lines)
    assert verify_pbd(pbd).valid
    bad = PairwiseBalancedDesign(7, lines[:6])
    assert not verify_pbd(bad).valid


def test_pbd_refuses_a_negative_point_count():
    with pytest.raises(MalformedInput, match="point count -3 is negative"):
        PairwiseBalancedDesign(-3, ())


def test_pbd_text_round_trip():
    lines = tuple(
        frozenset({i % 7, (i + 1) % 7, (i + 3) % 7}) for i in range(7)
    )
    pbd = PairwiseBalancedDesign(7, lines)
    text = pbd_to_text(pbd)
    back = pbd_from_text(text)
    assert back.v == 7
    assert sorted(map(sorted, back.blocks)) == sorted(map(sorted, pbd.blocks))


def test_pbd_text_ignores_comments():
    pbd = pbd_from_text("# header\nv=3\n\n0 1 2\n")
    assert pbd.v == 3
    assert len(pbd.blocks) == 1


def test_df_json_round_trip():
    df = DifferenceFamily(
        Z19, 3, 1,
        tuple(frozenset(s) for s in ({0, 1, 4}, {0, 7, 9}, {0, 11, 6})),
    )
    back = df_from_json(df_to_json(df))
    assert back.group == df.group
    assert sorted(map(sorted, back.blocks)) == sorted(map(sorted, df.blocks))


def test_kdf_json_round_trip():
    kdf = _fkdf19()
    back = kdf_from_json(kdf_to_json(kdf))
    assert back.group == kdf.group
    assert back.schema == kdf.schema
    assert back.blocks == kdf.blocks


def test_kaleidoscope_json_round_trip():
    scope = develop(_fkdf19())
    back = kaleidoscope_from_json(kaleidoscope_to_json(scope))
    assert len(back.planes) == len(scope.planes)
    assert back.lines_of(back.planes[0]) == scope.lines_of(scope.planes[0])
    assert verify_kaleidoscope(back).valid


def test_kaleidoscope_json_explicit_lines():
    pbd = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    scope = replicate(pbd, FANO)
    back = kaleidoscope_from_json(kaleidoscope_to_json(scope))
    assert verify_kaleidoscope(back).valid
    assert back.lines_of(back.planes[3]) == scope.lines_of(scope.planes[3])


@settings(max_examples=40, deadline=None)
@given(
    g=st.integers(min_value=0, max_value=18),
    u=st.integers(min_value=1, max_value=18),
)
def test_delta_invariance(g, u):
    """Translation leaves differences alone; scaling scales them."""
    pts = (0, 1, 4)
    base = delta(pts, Z19)
    shifted = delta(tuple((x + g) % 19 for x in pts), Z19)
    assert shifted == base
    scaled = delta(tuple((x * u) % 19 for x in pts), Z19)
    assert sorted(scaled) == sorted((d * u) % 19 for d in base)


def test_cyclic_group_development():
    z13 = make_group(Cyclic(13))
    blocks = ((0, 1, 2, 3, 4, 5, 6),)
    # not a valid family mod 13; delta still works over plain cyclic groups
    assert len(delta((0, 1, 3), z13)) == 6
    assert blocks[0][0] == 0
