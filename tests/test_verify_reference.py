"""The verifiers against plain-counting reference copies kept here.

``verify_df`` and ``verify_kdf`` check a family that covers each
difference once by one set of unordered differences per color, and count
flat keys in C otherwise; ``verify_kaleidoscope`` takes a shortcut when
everything checks out. The reference versions below count one difference
or one incidence at a time, the way the package did before, and must give
equal reports, field by field, on valid and on broken inputs. A report
names only the first ``designs._OFF_LIMIT`` off elements of the
reference's full list.
"""

import functools
import random
import tracemalloc
from collections import Counter
from itertools import chain, combinations, islice, permutations
from operator import itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaleido.algebra import (
    Cyclic,
    ExtensionField,
    PrimeField,
    find_irreducible,
    make_group,
)
from kaleido import designs
from kaleido.compose import compose_kdf, field_dm
from kaleido.designs import (
    DFReport,
    KaleidoscopicDifferenceFamily,
    Kaleidoscope,
    KaleidoscopeReport,
    KDFReport,
    LineTable,
    PairwiseBalancedDesign,
    develop,
    kaleidoscope_from_json,
    kaleidoscope_to_json,
    replicate,
    verify_df,
    verify_kaleidoscope,
    verify_kdf,
)
from kaleido.errors import DuplicateElements, MalformedInput, UntiledLayout
from kaleido.schema import KaleidoscopeSchema, builtin_schema, schema_from_json
from kaleido.search import (
    FANO_POWERS,
    HESSE_POWERS,
    asymptotic_initial_block,
    form_block,
    generate_kdf_from_initial_block,
)

FANO = builtin_schema("fano")
HESSE = builtin_schema("hesse")


# ---------------------------------------------------------------------------
# reference verifiers: one difference, one incidence at a time


def ref_verify_df(blocks, group, k, lam):
    coverage: dict = {}
    bad_blocks = []
    for block in blocks:
        pts = list(block)
        if len(pts) != k or len(set(pts)) != k:
            bad_blocks.append(tuple(pts))
            continue
        for x in pts:
            for y in pts:
                if x != y:
                    d = group.sub(x, y)
                    coverage[d] = coverage.get(d, 0) + 1
    off = []
    for el in group.elements():
        if el == group.zero:
            continue
        count = coverage.get(el, 0)
        if count != lam:
            off.append((el, count))
    valid = not bad_blocks and not off and group.zero not in coverage
    return DFReport(valid, lam, off, bad_blocks)


def ref_verify_kdf(kdf):
    """Each color counted as a (v, h, 1) family of its lines. The blocks
    are counted as a (v, k, b) family too, and whenever every color
    passes, that family must be valid: the theorem ``verify_kdf`` rests
    on, since the layout tiles its position pairs."""
    group = kdf.group
    schema = kdf.schema
    family_report = ref_verify_df(
        [frozenset(b) for b in kdf.blocks], group, schema.k, schema.b
    )
    color_reports = []
    failing = []
    all_lines = [
        tuple(frozenset(b[i] for i in line) for line in schema.lines)
        for b in kdf.blocks
    ]
    for color in range(schema.b):
        rep = ref_verify_df(
            [lines[color] for lines in all_lines], group, schema.h, 1
        )
        color_reports.append(rep)
        if not rep.valid:
            failing.append(color)
    if not failing:
        assert family_report.valid
    return KDFReport(not failing, color_reports, failing)


def ref_verify_kaleidoscope(k):
    point_set = set(k.points)
    b = k.schema.b
    alien = []
    counts: dict = {}
    for plane in k.planes:
        lines = k.lines_of(plane)
        if len(lines) != b:
            raise MalformedInput("plane has the wrong number of lines")
        for color, line in enumerate(lines):
            for x in line:
                if x not in point_set:
                    alien.append(x)
            for x, y in combinations(sorted(line), 2):
                counts[(x, y, color)] = counts.get((x, y, color), 0) + 1
    if alien:
        return KaleidoscopeReport(False, None, alien)
    n = len(k.points)
    expected = n * (n - 1) // 2 * b
    over = [key for key, c in counts.items() if c != 1]
    if not over and len(counts) == expected:
        # Each plane must be a plane: k points, each pair on one line. A
        # row is checked through the lines its layout cuts, as a line
        # table is, so no verdict rests on the layout tiling.
        width = k.schema.k
        for index, plane in enumerate(k.planes):
            lines = k.lines_of(plane)
            spanned = set(chain.from_iterable(lines))
            pairs = Counter(
                pair for line in lines for pair in combinations(sorted(line), 2)
            )
            wanted = set(combinations(sorted(spanned), 2))
            if len(spanned) != width or pairs != Counter(wanted):
                bad = (index, len(spanned), width)
                return KaleidoscopeReport(False, None, [], bad)
        return KaleidoscopeReport(True, None, [])
    if over:
        x, y, color = min(over)
        return KaleidoscopeReport(
            False, ((x, y), color, counts[(x, y, color)]), []
        )
    pts = sorted(point_set)
    for x, y in combinations(pts, 2):
        for color in range(b):
            if (x, y, color) not in counts:
                return KaleidoscopeReport(False, ((x, y), color, 0), [])
    return KaleidoscopeReport(False, None, [])


def assert_same_report(new, ref):
    assert type(new) is type(ref)
    names = type(ref)._fields
    # The field names are every attribute either report holds.
    assert list(vars(ref)) == list(vars(new)) == list(names)
    for name in names:
        got, want = getattr(new, name), getattr(ref, name)
        if isinstance(want, DFReport):
            assert_same_report(got, want)
        elif name == "color_reports":
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_same_report(g, w)
        elif name == "off_elements":
            assert got == want[: designs._OFF_LIMIT]
        else:
            assert got == want, name


def check_kdf(kdf):
    rep = verify_kdf(kdf)
    assert_same_report(rep, ref_verify_kdf(kdf))
    blocks = list(kdf.blocks)
    lam = kdf.schema.b
    assert_same_report(
        verify_df(blocks, kdf.group, kdf.schema.k, lam),
        ref_verify_df(blocks, kdf.group, kdf.schema.k, lam),
    )
    return rep


def check_scope(scope):
    rep = verify_kaleidoscope(scope)
    assert_same_report(rep, ref_verify_kaleidoscope(scope))
    # Valid kaleidoscopes pass the flat pair count itself; only a failing
    # one needs the tuple-keyed recount.
    assert designs._each_pair_once(scope, len(scope.points)) == rep.valid
    return rep


# ---------------------------------------------------------------------------
# inputs


def _prime(p):
    return make_group(PrimeField(p))


def _extension(p, d):
    return make_group(ExtensionField(p, find_irreducible(p, d)))


def _composed(left, right):
    left = generate_kdf_from_initial_block(_prime(left[0]), left[1])
    right = generate_kdf_from_initial_block(_prime(right[0]), right[1])
    return compose_kdf(left, right, field_dm(right.group, left.schema.k))


FANO19 = (19, (0, 1, 2, 4, 5, 11, 8))
HESSE19 = (19, (0, 1, 2, 3, 7, 16, 8, 4, 10))


@functools.cache
def family(name):
    """A valid family of the named order, built fresh once per run."""
    if name == "7":
        return generate_kdf_from_initial_block(_prime(7), tuple(range(7)))
    if name == "19":
        return generate_kdf_from_initial_block(_prime(19), FANO19[1])
    if name == "19-hesse":
        return generate_kdf_from_initial_block(_prime(19), HESSE19[1])
    if name == "31":
        block = (0, 1, 30, 6, 25, 26, 5)
        return generate_kdf_from_initial_block(_prime(31), block)
    if name == "25":
        f25 = _extension(5, 2)
        block = form_block(f25, FANO_POWERS, (1, 4))
        return generate_kdf_from_initial_block(f25, block)
    if name == "49":
        f49 = _extension(7, 2)
        block = form_block(f49, HESSE_POWERS, (3, 1))
        return generate_kdf_from_initial_block(f49, block, HESSE)
    if name == "133":
        return _composed((7, tuple(range(7))), FANO19)
    if name == "361":
        return _composed(HESSE19, HESSE19)
    raise KeyError(name)


@functools.cache
def scope(name):
    return develop(family(name))


FAMILIES = ["7", "19", "19-hesse", "31", "25", "49", "133", "361"]


def _spoiled_family(name, position=3):
    """The family with one point of its first block moved."""
    kdf = family(name)
    first = list(kdf.blocks[0])
    used = set(first)
    first[position] = next(x for x in kdf.group.elements() if x not in used)
    blocks = (tuple(first),) + kdf.blocks[1:]
    return KaleidoscopicDifferenceFamily(kdf.group, kdf.schema, blocks, {})


def _refuse_counting(monkeypatch):
    """Make counting raise, so only the set check can answer."""

    def refuse(*args):
        raise AssertionError("counted a family the set check should pass")

    monkeypatch.setattr(designs, "_counted_differences", refuse)


def _with_planes(k, planes):
    return Kaleidoscope(k.points, k.schema, tuple(planes))


# ---------------------------------------------------------------------------
# valid inputs


@pytest.mark.parametrize("name", FAMILIES)
def test_valid_families_match(name):
    assert check_kdf(family(name)).valid


@pytest.mark.parametrize("name", FAMILIES)
def test_valid_kaleidoscopes_match(name):
    assert check_scope(scope(name)).valid


def test_order_13_difference_families_match(monkeypatch):
    z13 = _prime(13)
    # A valid family at lam = 1 passes the set check, uncounted.
    _refuse_counting(monkeypatch)
    for blocks, k in (
        ([(0, 1, 4), (0, 2, 7)], 3),
        ([(0, 12, 9), (0, 2, 7)], 3),  # the first block negated
        ([(0, 1, 3, 9)], 4),
    ):
        new = verify_df(blocks, z13, k, 1)
        assert new.valid
        assert_same_report(new, ref_verify_df(blocks, z13, k, 1))


def test_order_13_fano_candidate_matches():
    # no seven-point family exists at order 13, so this one must fail
    z13 = _prime(13)
    base = (0, 1, 2, 4, 5, 11, 8)
    blocks = tuple(tuple(z13.mul(s, x) for x in base) for s in (1, 2))
    rep = check_kdf(KaleidoscopicDifferenceFamily(z13, FANO, blocks, {}))
    assert not rep.valid


@pytest.mark.parametrize("name", ["fano", "hesse"])
def test_replicated_kaleidoscopes_match(name):
    schema = builtin_schema(name)
    pbd = PairwiseBalancedDesign(schema.k, (frozenset(range(schema.k)),))
    scope_ = replicate(pbd, schema)
    assert check_scope(scope_).valid
    decoded = kaleidoscope_from_json(kaleidoscope_to_json(scope_))
    assert all(isinstance(plane, LineTable) for plane in decoded.planes)
    assert check_scope(decoded).valid


# ---------------------------------------------------------------------------
# broken inputs


@pytest.mark.parametrize("name", ["19", "19-hesse", "25", "133"])
@pytest.mark.parametrize("position", [0, 3])
def test_moved_block_point_matches(name, position):
    rep = check_kdf(_spoiled_family(name, position))
    assert not rep.valid
    assert rep.failing_colors
    for c in rep.failing_colors:
        assert rep.color_reports[c].off_elements


@pytest.mark.parametrize("name", ["19", "19-hesse", "25", "133"])
def test_failing_family_is_counted_once_per_failing_color(name, monkeypatch):
    """A failing family is judged by its colors alone: each failing color
    is counted, and the blocks are never recounted as a whole family."""
    calls = []
    count = designs._counted_differences

    def counted(group, cols):
        calls.append(len(cols))
        return count(group, cols)

    monkeypatch.setattr(designs, "_counted_differences", counted)
    kdf = _spoiled_family(name)
    rep = verify_kdf(kdf)
    assert rep.failing_colors
    assert calls == [kdf.schema.h] * len(rep.failing_colors)


def test_repeated_point_in_df_block_matches():
    z19 = _prime(19)
    for blocks in (
        [(0, 1, 1), (0, 7, 9), (0, 11, 6)],
        [(0, 1, 4), (0, 7, 9, 3), (0, 11, 6)],
        [],
    ):
        new = verify_df(blocks, z19, 3, 1)
        assert not new.valid
        assert_same_report(new, ref_verify_df(blocks, z19, 3, 1))


def test_zero_difference_in_df_matches():
    # In Z_8, 8 - 0 is the difference 0. These blocks hit 0 and every
    # nonzero element but 4 exactly twice: seven keys, as many as there
    # are nonzero elements, so only the zero test tells 4 is missing.
    z8 = make_group(Cyclic(8))
    blocks = [(0, 8)] + [(0, d) for d in (1, 2, 3) for _ in range(2)]
    new = verify_df(blocks, z8, 2, 2)
    assert not new.valid
    assert new.off_elements == [(4, 0)]
    assert_same_report(new, ref_verify_df(blocks, z8, 2, 2))
    # In Z_3 at lam = 1, 3 - 0 is 0: one difference, (3 - 1) / 2 of
    # them and distinct, so only its being its own negative tells.
    z3 = make_group(Cyclic(3))
    new = verify_df([(0, 3)], z3, 2, 1)
    assert not new.valid
    assert new.off_elements == [(1, 0), (2, 0)]
    assert_same_report(new, ref_verify_df([(0, 3)], z3, 2, 1))


def test_lambda_off_by_one_matches():
    z13 = _prime(13)
    blocks = [(0, 1, 4), (0, 2, 7)]
    for lam in (0, 2):
        new = verify_df(blocks, z13, 3, lam)
        assert not new.valid
        assert_same_report(new, ref_verify_df(blocks, z13, 3, lam))


@pytest.mark.parametrize("name", ["19", "133"])
def test_swapped_colors_match(name):
    k = scope(name)
    planes = list(k.planes)
    lines = list(k.lines_of(planes[5]))
    lines[0], lines[1] = lines[1], lines[0]
    planes[5] = LineTable(lines)
    rep = check_scope(_with_planes(k, planes))
    assert not rep.valid
    assert rep.first_violation is not None


@pytest.mark.parametrize("name", ["19", "25", "133"])
def test_dropped_plane_matches(name):
    k = scope(name)
    planes = list(k.planes)
    del planes[len(planes) // 2]
    rep = check_scope(_with_planes(k, planes))
    assert not rep.valid
    assert rep.first_violation[2] == 0


@pytest.mark.parametrize("name", ["19", "25", "133"])
def test_duplicated_plane_matches(name):
    k = scope(name)
    planes = list(k.planes)
    planes.append(planes[-1])
    rep = check_scope(_with_planes(k, planes))
    assert not rep.valid
    assert rep.first_violation[2] == 2


def _alien_point(k):
    """A value of the points' own shape that is not a point."""
    x = k.points[-1]
    return x + 1000 if isinstance(x, int) else tuple(c + 1000 for c in x)


@pytest.mark.parametrize("name", ["19", "25", "133"])
def test_alien_point_matches(name):
    k = scope(name)
    alien = _alien_point(k)
    planes = list(k.planes)
    lines = list(k.lines_of(planes[3]))
    lines[2] = frozenset(sorted(lines[2])[1:]) | {alien}
    planes[3] = LineTable(lines)
    rep = check_scope(_with_planes(k, planes))
    assert not rep.valid
    assert rep.alien_points == [alien]


def test_replicated_alien_and_repeated_points_match():
    pbd = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    k = replicate(pbd, FANO)
    planes = list(k.planes)
    lines = list(k.lines_of(planes[0]))
    lines[0] = frozenset({0, 1, 7})
    planes[0] = LineTable(lines)
    assert check_scope(_with_planes(k, planes)).alien_points == [7]
    # Points are a group or range(n), so a repeated point cannot be built.
    with pytest.raises(MalformedInput, match="points must be"):
        Kaleidoscope((0, 1, 2, 3, 4, 5, 6, 6), FANO, k.planes)


def _moved_between_lines(k):
    """Planes with one point moved from a line to the next color's line.

    The move is picked so that the plane's points, listed line after
    line, come out in the same order as before, so only the line sizes
    tell the plane is wrong. Integer points iterate in a fixed order.
    """
    for p, plane in enumerate(k.planes):
        plane_lines = k.lines_of(plane)
        flat = list(chain.from_iterable(plane_lines))
        for c in range(len(plane_lines) - 1):
            for x in plane_lines[c]:
                lines = list(plane_lines)
                lines[c], lines[c + 1] = lines[c] - {x}, lines[c + 1] | {x}
                if list(chain.from_iterable(lines)) == flat:
                    planes = list(k.planes)
                    planes[p] = LineTable(lines)
                    return planes
    raise AssertionError("no such move")


def _swapped_between_planes(k, first, second, color):
    """Planes with the lines of one color swapped between two planes.

    Each color keeps its lines, so every pair count stays right; only
    the two planes' own structure can tell.
    """
    planes = list(k.planes)
    a, b = list(k.lines_of(planes[first])), list(k.lines_of(planes[second]))
    a[color], b[color] = b[color], a[color]
    planes[first], planes[second] = LineTable(a), LineTable(b)
    return _with_planes(k, planes)


def test_line_tables_that_span_too_many_points_match():
    """Two developed planes swap their color-3 lines: plane 0 then lies
    on 9 points, and is no Fano plane."""
    rep = check_scope(_swapped_between_planes(scope("19"), 0, 1, 3))
    assert not rep.valid
    assert rep.first_violation is None and rep.alien_points == []
    assert rep.bad_plane == (0, 9, 7)
    assert rep.summary() == (
        "plane 0 is not a plane: its lines lie on 9 points, wanted 7"
    )


def test_line_tables_that_repeat_a_pair_match():
    """Two copies of one replicated block swap a color: each copy then
    holds one of the block's lines twice and lacks another, on the same
    7 points."""
    seven = replicate(PairwiseBalancedDesign(7, (frozenset(range(7)),)), FANO)
    rep = check_scope(_swapped_between_planes(seven, 2, 5, 0))
    assert not rep.valid
    assert rep.bad_plane == (2, 7, 7)
    assert rep.summary() == (
        "plane 2 is not a plane: a pair of its points lies on more than one"
        " of its lines"
    )


@pytest.mark.parametrize("name", ["19", "25", "133"])
def test_developed_planes_as_line_tables_match(name):
    k = scope(name)
    tables = _with_planes(k, [LineTable(k.lines_of(p)) for p in k.planes])
    assert check_scope(tables).valid


def test_wrong_line_sizes_match():
    """Both refuse lines of the wrong size: the verifier raises the
    decoder's error, and the reference recount finds a pair off."""
    k = scope("19")
    moved = _with_planes(k, _moved_between_lines(k))
    with pytest.raises(MalformedInput, match="line has the wrong size"):
        verify_kaleidoscope(moved)
    assert not ref_verify_kaleidoscope(moved).valid


def test_reference_checks_that_rows_are_planes():
    """The reference does not take a layout's tiling on trust. Seven
    coinciding lines {0, 1, 2} cannot be built into a layout, so one is
    forced past the constructor here: under it, rows whose first three
    points are the Fano lines pass every pair count, yet cut planes that
    lie on three points."""
    forced = object.__new__(KaleidoscopeSchema)
    lines = ((0, 1, 2),) * 7
    for key, value in [("name", "bad"), ("k", 7), ("h", 3), ("lines", lines),
                       ("_pick", itemgetter(*chain.from_iterable(lines)))]:
        object.__setattr__(forced, key, value)
    rows = []
    for i in range(7):
        line = (i, (i + 1) % 7, (i + 3) % 7)
        rows.append(line + tuple(x for x in range(7) if x not in line))
    rep = ref_verify_kaleidoscope(Kaleidoscope(range(7), forced, tuple(rows)))
    assert not rep.valid
    assert rep.bad_plane == (0, 3, 7)


def test_wrong_line_count_raises_in_both():
    k = scope("19")
    planes = list(k.planes)
    planes[7] = LineTable(k.lines_of(planes[7])[:-1])
    broken = _with_planes(k, planes)
    with pytest.raises(MalformedInput):
        verify_kaleidoscope(broken)
    with pytest.raises(MalformedInput):
        ref_verify_kaleidoscope(broken)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 48, 49, 50, 133])
def test_sidon_codes_give_distinct_pair_sums(n):
    codes = designs._sidon_codes(n)
    assert len(codes) == n
    sums = [a + b for a, b in combinations(codes, 2)]
    assert len(set(sums)) == len(sums)


# position pairs (0, 5) and (1, 5) lie on two lines, (0, 3) and (1, 3)
# on none
_UNTILED = tuple((0, 1, 5) if ln == (0, 1, 3) else ln for ln in FANO.lines)
_UNTILED_MESSAGE = "layout covers position pair (0, 3) 0 times, wanted 1"


def _refuses_untiled_lines():
    """Building a layout from ``_UNTILED`` raises, by the constructor and
    by the loader alike, so neither verifier is ever shown one."""
    with pytest.raises(UntiledLayout) as built:
        KaleidoscopeSchema("untiled", 7, 3, _UNTILED)
    lines = [list(ln) for ln in _UNTILED]
    with pytest.raises(UntiledLayout) as loaded:
        schema_from_json({"name": "untiled", "k": 7, "h": 3, "lines": lines})
    for err in (built.value, loaded.value):
        assert str(err) == _UNTILED_MESSAGE
        assert (err.name, err.first_violation) == ("untiled", ((0, 3), 0))


def test_untiled_layout_family_matches():
    """No family's rows can be put under the untiled lines: they make no
    layout to judge the rows by."""
    _refuses_untiled_lines()


def test_untiled_layout_kaleidoscope_matches():
    """No kaleidoscope's planes can be cut by the untiled lines: they
    make no layout to judge the planes under."""
    _refuses_untiled_lines()


def _identity_case(case):
    kind, name = case.split(":")
    if kind == "valid":
        return family(name)
    return _spoiled_family(name)


@pytest.mark.parametrize(
    "case",
    [f"valid:{name}" for name in FAMILIES]
    + [f"spoiled:{name}" for name in ["19", "19-hesse", "25", "133"]]
    + ["untiled:19"],
)
def test_kdf_is_judged_as_plain_difference_families(case):
    """Each color is judged as the (v, h, 1) family of its lines, and a
    family whose colors all pass is a (v, k, b) family of its blocks.
    Untiled lines make no layout, so they have no family to judge."""
    if case == "untiled:19":
        _refuses_untiled_lines()
        return
    kdf = _identity_case(case)
    schema = kdf.schema
    rep = verify_kdf(kdf)
    for c, color_report in enumerate(rep.color_reports):
        lines = [schema.lines_at(row)[c] for row in kdf.blocks]
        assert color_report == verify_df(lines, kdf.group, schema.h, 1)
    if rep.valid:
        assert verify_df(kdf.blocks, kdf.group, schema.k, schema.b).valid


# ---------------------------------------------------------------------------
# the set of unordered differences per color


@pytest.mark.parametrize("name", ["7", "19", "19-hesse", "25", "49", "133"])
def test_negated_block_is_valid_without_counting(name, monkeypatch):
    kdf = family(name)
    group = kdf.group
    negated = (tuple(map(group.neg, kdf.blocks[0])),) + kdf.blocks[1:]
    kdf = KaleidoscopicDifferenceFamily(group, kdf.schema, negated)
    _refuse_counting(monkeypatch)
    rep = verify_kdf(kdf)
    assert rep.valid
    assert_same_report(rep, ref_verify_kdf(kdf))


def _changed_blocks(kdf, how):
    first, second, *rest = kdf.blocks
    if how == "drop":
        # distinct differences, none the negative of another, too few
        return (second, *rest)
    # The second block becomes a translate of the first and repeats its
    # differences: as many as before, none the negative of another, but
    # not distinct.
    shift = kdf.group.elements()[1]
    return (first, tuple(kdf.group.add(x, shift) for x in first), *rest)


@pytest.mark.parametrize("how", ["translate", "drop"])
@pytest.mark.parametrize("name", ["19", "31", "25", "133"])
def test_block_list_change_matches(name, how):
    kdf = family(name)
    blocks = _changed_blocks(kdf, how)
    rep = check_kdf(KaleidoscopicDifferenceFamily(kdf.group, FANO, blocks))
    assert not rep.valid
    assert rep.failing_colors == list(range(FANO.b))


@pytest.mark.parametrize("v", [8, 14, 20])
def test_even_order_families_match(v):
    # Every row has two points v / 2 apart, a difference equal to its
    # own negative.
    zv = make_group(Cyclic(v))
    half = v // 2
    rows = [
        (0, 1, 3, half, half + 1, half + 3, 2),
        (0, half, 1, half + 1, 2, half + 2, 3),
    ]
    for blocks in (rows[:1], rows):
        kdf = KaleidoscopicDifferenceFamily(zv, FANO, tuple(blocks))
        assert not check_kdf(kdf).valid
    for blocks, k, lam in (
        ([(0, half)], 2, 1),
        ([(0, half)], 2, 2),
        ([(0, 1, half), (0, 2, half + 2)], 3, 1),
        ([(0, d) for d in range(1, half)] + [(0, half)], 2, 1),
    ):
        new = verify_df(blocks, zv, k, lam)
        assert not new.valid
        assert_same_report(new, ref_verify_df(blocks, zv, k, lam))


def _unordered(group, rows, pairs):
    return [group.sub(row[j], row[i]) for row in rows for i, j in pairs]


def _has_negative_pair(group, diffs):
    return not set(diffs).isdisjoint(map(group.neg, diffs))


def test_df_failing_only_by_a_negative_pair_matches():
    # Three blocks over F_19 whose nine unordered differences are distinct
    # and nonzero, so only a pair d, -d among them tells they fail.
    f19 = _prime(19)
    pairs = list(combinations(range(3), 2))
    bases = [(0, a, b) for a, b in combinations(range(1, 19), 2)]
    for blocks in combinations(bases, 3):
        diffs = _unordered(f19, blocks, pairs)
        if len(set(diffs)) == 9 and _has_negative_pair(f19, diffs):
            break
    else:
        raise AssertionError("no such blocks")
    new = verify_df(blocks, f19, 3, 1)
    assert not new.valid
    assert_same_report(new, ref_verify_df(blocks, f19, 3, 1))


def test_kdf_failing_only_by_a_negative_pair_matches():
    # A Fano row over F_7 whose every line has three distinct nonzero
    # differences, but some line holds a pair d, -d.
    f7 = _prime(7)
    lines = [list(combinations(line, 2)) for line in FANO.lines]
    for row in permutations(range(7)):
        colors = [_unordered(f7, [row], pairs) for pairs in lines]
        if all(len(set(d)) == 3 for d in colors) and any(
            _has_negative_pair(f7, d) for d in colors
        ):
            break
    else:
        raise AssertionError("no such row")
    rep = check_kdf(KaleidoscopicDifferenceFamily(f7, FANO, (row,)))
    assert not rep.valid
    assert rep.failing_colors


def _counts_once(group, cols):
    """Counting: every ordered difference of two columns, row by row,
    tallied, must show each nonzero element exactly once."""
    counts = Counter()
    for a, b in permutations(cols, 2):
        counts.update(map(group.sub, a, b))
    return counts == Counter(x for x in group.elements() if x != group.zero)


def _positions(rows):
    return [list(col) for col in zip(*rows)]


def _cover_case(name):
    """A group and the columns of rows that cover it once; an even
    order, which no rows cover once, gets the columns of two rows."""
    if name.startswith("Z"):
        v = int(name[1:])
        rows = {
            13: [(0, 1, 4), (0, 2, 7)],
            21: [(0, 1, 4, 14, 16)],
        }.get(v, [(0, 1, 3), (0, 2, 7)])
        return make_group(Cyclic(v)), _positions(rows)
    kdf = family({"F19": "19", "F25": "25", "F7xF19": "133"}[name])
    cols = designs._columns(kdf.blocks, FANO.k)
    return kdf.group, [cols[i] for i in FANO.lines[1]]


def _shaken(group, cols, rng):
    """The columns, or a copy changed in one of a few ways."""
    cols = [list(col) for col in cols]
    rows, width = len(cols[0]), len(cols)
    r, c = rng.randrange(rows), rng.randrange(width)
    how = rng.randrange(6)
    if how == 1:  # one entry anywhere
        cols[c][r] = group[rng.randrange(group.order)]
    elif how == 2:  # a row negated: the same unordered differences
        for col in cols:
            col[r] = group.neg(col[r])
    elif how == 3:  # a row translated: the same differences
        shift = group[rng.randrange(group.order)]
        for col in cols:
            col[r] = group.add(col[r], shift)
    elif how == 4:  # a point repeated in its row: a zero difference
        cols[c][r] = cols[(c + 1) % width][r]
    elif how == 5:  # random columns of the same shape
        cols = [
            [group[rng.randrange(group.order)] for _ in range(rows)]
            for _ in range(width)
        ]
    return cols


@pytest.mark.parametrize(
    "name", ["Z13", "Z21", "Z14", "Z16", "F19", "F25", "F7xF19"]
)
def test_folded_differences_agree_with_counting(name):
    group, base = _cover_case(name)
    rng = random.Random(name)
    verdicts = Counter()
    for _ in range(150):
        cols = _shaken(group, base, rng)
        got = designs._covers_once(group, cols)
        assert got == _counts_once(group, cols)
        verdicts[got] += 1
    # Odd orders see both verdicts; no even order is covered once.
    assert verdicts[False] and bool(verdicts[True]) == (group.order % 2 == 1)


# ---------------------------------------------------------------------------
# large orders


def test_verify_kdf_memory_at_q_100003():
    """A valid family of 16,667 blocks is checked in a small peak."""
    field = _prime(100003)
    block = asymptotic_initial_block(field, "fano")
    kdf = generate_kdf_from_initial_block(field, block.points)
    tracemalloc.start()
    try:
        rep = verify_kdf(kdf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.valid
    assert peak < 25_000_000, peak


def test_failing_family_over_a_large_prime_names_a_prefix():
    f = _prime(1000000007)
    kdf = KaleidoscopicDifferenceFamily(f, FANO, (FANO19[1],))
    rep = verify_kdf(kdf)
    assert not rep.valid
    assert rep.failing_colors == list(range(FANO.b))
    # Color 0's one line covers six of the 10^9 + 6 nonzero elements, so
    # its report names the first elements in order not covered once,
    # found by a walk that stops after _OFF_LIMIT of them.
    counts = Counter(designs.delta(FANO.lines_at(FANO19[1])[0], f))
    walk = ((el, counts[el]) for el in range(1, f.order) if counts[el] != 1)
    want = list(islice(walk, designs._OFF_LIMIT))
    assert len(want) == designs._OFF_LIMIT
    assert rep.color_reports[0].off_elements == want


# ---------------------------------------------------------------------------
# hand-edited kaleidoscopes against a brute-force oracle


def _oracle(k):
    """The definition, counted by brute force: every plane has b lines
    of h distinct points, which lie on k points of the kaleidoscope with
    each pair of them on one line, and every (pair, color) occurs once.
    A row is cut into lists, so a repeated point stays visible."""
    schema = k.schema
    b, h, width = schema.b, schema.h, schema.k
    points = set(k.points)
    seen = Counter()
    for plane in k.planes:
        if isinstance(plane, LineTable):
            lines = [list(line) for line in plane]
        else:
            lines = [[plane[i] for i in line] for line in schema.lines]
        sizes = {len(ln) for ln in lines} | {len(set(ln)) for ln in lines}
        if len(lines) != b or sizes != {h}:
            return False
        spanned = set(chain.from_iterable(lines))
        if len(spanned) != width or not spanned <= points:
            return False
        pairs = Counter(
            frozenset(pair) for ln in lines for pair in combinations(ln, 2)
        )
        if len(pairs) != width * (width - 1) // 2 or max(pairs.values()) > 1:
            return False
        for color, ln in enumerate(lines):
            seen.update((frozenset(p), color) for p in combinations(ln, 2))
    n = len(points)
    return len(seen) == n * (n - 1) // 2 * b and set(seen.values()) <= {1}


def _affine_plane_7():
    """AG(2, 7): 56 lines of 7 points on 49."""
    blocks = [
        frozenset(x + 7 * ((m * x + c) % 7) for x in range(7))
        for m in range(7)
        for c in range(7)
    ]
    blocks += [frozenset(c + 7 * y for y in range(7)) for c in range(7)]
    return PairwiseBalancedDesign(49, tuple(blocks))


@functools.cache
def _edit_base(name):
    if name == "7-replicated":
        return replicate(
            PairwiseBalancedDesign(7, (frozenset(range(7)),)), FANO
        )
    if name == "9-hesse-replicated":
        return replicate(
            PairwiseBalancedDesign(9, (frozenset(range(9)),)), HESSE
        )
    if name == "49-replicated":
        return replicate(_affine_plane_7(), FANO)
    return scope(name)


EDIT_BASES = [
    "19", "25", "133", "19-hesse",
    "7-replicated", "9-hesse-replicated", "49-replicated",
]


def _near_pencil(points, j):
    """Line table j of the near-pencil on k = b sorted points: the line
    of every point but point j in color j, and {point j, point c} in
    every other color c. Lines of k - 1 and 2 points, each pair once."""
    pts = sorted(points)
    return LineTable(
        frozenset(pts) - {pts[j]} if c == j else frozenset({pts[j], pts[c]})
        for c in range(len(pts))
    )


def _edited(k, edits):
    """k with each edit applied in turn. An edit is plain data: its kind
    and ints taken modulo whatever they index, so examples stay short."""
    schema = k.schema
    b, width = schema.b, schema.k
    planes = list(k.planes)
    for kind, *args in edits:
        if kind == "one-point-row":
            x = k.points[args[0] % k.n]
            planes.append((x,) * width)
            continue
        if not planes:
            continue
        p = args[0] % len(planes)
        plane = planes[p]
        if kind == "move":
            # Move a point of one color's line into another's; with
            # ``back``, a point of that line moves the other way.
            lines = list(k.lines_of(plane))
            c1 = args[1] % b
            c2 = (c1 + 1 + args[2] % (b - 1)) % b
            x = sorted(lines[c1])[args[3] % len(lines[c1])]
            y = sorted(lines[c2])[args[4] % len(lines[c2])]
            lines[c1], lines[c2] = lines[c1] - {x}, lines[c2] | {x}
            if args[5]:
                lines[c1], lines[c2] = lines[c1] | {y}, lines[c2] - {y}
            planes[p] = LineTable(lines)
        elif kind == "repeat":
            rows = [
                i for i, r in enumerate(planes) if not isinstance(r, LineTable)
            ]
            if rows:
                p = rows[args[0] % len(rows)]
                row = list(planes[p])
                i = args[1] % width
                row[(i + 1 + args[2] % (width - 1)) % width] = row[i]
                planes[p] = tuple(row)
        elif kind == "drop":
            del planes[p]
        elif kind == "duplicate":
            planes.append(plane)
        elif kind == "swap-colors":
            q = args[1] % len(planes)
            swapped = _swapped_between_planes(
                _with_planes(k, planes), p, q, args[2] % b
            )
            planes = list(swapped.planes)
        elif kind == "pencil" and b == width:
            # Every plane on plane p's points gives way to a near-pencil
            # table on them: for a replicated block, all b copies.
            spanned = frozenset().union(*k.lines_of(plane))
            same = [
                i
                for i, pl in enumerate(planes)
                if frozenset().union(*k.lines_of(pl)) == spanned
            ]
            for j, i in enumerate(same):
                planes[i] = _near_pencil(spanned, j % width)
    return _with_planes(k, planes)


_INDEX = st.integers(0, 10**6)
_EDIT = st.one_of(
    st.tuples(st.just("move"), *[_INDEX] * 5, st.booleans()),
    st.tuples(st.just("repeat"), *[_INDEX] * 3),
    st.tuples(st.just("one-point-row"), _INDEX),
    st.tuples(st.sampled_from(["drop", "duplicate", "pencil"]), _INDEX),
    st.tuples(st.just("swap-colors"), *[_INDEX] * 3),
)


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from(EDIT_BASES),
    st.lists(_EDIT, min_size=0, max_size=3),
)
@example("7-replicated", [("pencil", 0)])
@example("49-replicated", [("pencil", 5)])
@example("19", [("one-point-row", 0)])
@example("19", [("repeat", 3, 0, 0)])
@example("19", [("swap-colors", 0, 1, 3)])
def test_edited_kaleidoscopes_match_the_oracle(name, edits):
    """The verifier either raises a shape fault, on an object the
    oracle refuses, or its verdict is the oracle's."""
    k = _edited(_edit_base(name), edits)
    want = _oracle(k)
    try:
        got = verify_kaleidoscope(k).valid
    except (MalformedInput, DuplicateElements):
        assert not want
    else:
        assert got == want
