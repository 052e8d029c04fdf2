"""Difference families, their colored refinements, and developed designs.

Verification functions return report objects and never raise on content
that is merely wrong; a report holds the verdict and the first faults it
names. A colored family's verdict is its colors', a kaleidoscope's its
pair count alone. Exceptions mark malformed input only, decoded or built
by hand alike: a kaleidoscope line not of h points raises
``MalformedInput``, a point repeated in a row ``DuplicateElements``.

A colored family's blocks are point rows: the family's one layout
``kdf.schema`` cuts each row into its colored lines. A kaleidoscope's
planes are point rows under its one layout ``scope.schema`` too, save the
planes given by their lines (``replicate``, a decoded line table, an
edited plane), which are ``LineTable``s; ``scope.lines_of(plane)`` reads
the lines of either.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain, combinations, islice, permutations
from json.encoder import encode_basestring_ascii as _quote
from operator import add, itemgetter
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .algebra import (
    Group,
    _Fresh,
    _Memo,
    _Record,
    _collector_paused,
    _is_json_int,
    descriptor_from_json,
    is_prime,
    make_group,
)
from .errors import (
    DuplicateElements,
    InvalidKDF,
    InvalidPBD,
    MalformedInput,
    NotAUnitalDesign,
)
from .schema import (
    KaleidoscopeSchema,
    _check_row,
    _check_rows,
    _first_pair_violation,
    schema_from_json,
    schema_to_json,
)

__all__ = [
    "delta",
    "DFReport",
    "verify_df",
    "DifferenceFamily",
    "KaleidoscopicDifferenceFamily",
    "KDFReport",
    "verify_kdf",
    "LineTable",
    "Kaleidoscope",
    "develop",
    "KaleidoscopeReport",
    "verify_kaleidoscope",
    "replicate",
    "PairwiseBalancedDesign",
    "PBDReport",
    "verify_pbd",
    "kdf_to_json",
    "kdf_from_json",
    "kaleidoscope_to_json",
    "kaleidoscope_from_json",
    "df_to_json",
    "df_from_json",
    "pbd_to_text",
    "pbd_from_text",
]


def delta(points: Iterable, group: Group) -> tuple:
    """All ordered differences x - y of distinct members, sorted canonically.

    A set of n distinct elements yields n(n-1) differences, listed with
    multiplicity.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise DuplicateElements(f"repeated element in {pts!r}")
    out = [group.sub(x, y) for x in pts for y in pts if x != y]
    out.sort()
    return tuple(out)


# ---------------------------------------------------------------------------
# plain difference families


# A failing report names at most this many off elements.
_OFF_LIMIT = 100


class DFReport(_Record):
    """A difference family's verdict.

    ``off_elements`` lists the first ``_OFF_LIMIT`` nonzero elements, in
    canonical order, not covered ``lam`` times. It is found by walking
    the group's elements only until that many are named, at most the
    number of covered elements plus ``_OFF_LIMIT`` steps when lam >= 1.
    """

    valid: bool
    lam: int
    off_elements: list  # (element, count) pairs where count != lam
    bad_blocks: list    # blocks of the wrong size or with repeats

    def summary(self) -> str:
        if self.valid:
            return "valid"
        parts = []
        if self.bad_blocks:
            parts.append(f"{len(self.bad_blocks)} malformed blocks")
        if self.off_elements:
            el, count = self.off_elements[0]
            parts.append(
                f"difference {el!r} covered {count} times, wanted {self.lam}"
            )
        return "; ".join(parts) or "invalid"


def _columns(rows: Sequence, k: int) -> list[list]:
    """Position i of every row, as column i, for each of k positions."""
    return [list(map(itemgetter(i), rows)) for i in range(k)]


def _covers_once(group: Group, cols: list) -> bool:
    """Whether the rows' differences at every pair of the given columns,
    taken both ways, cover every nonzero element exactly once.

    Each pair of columns gives one unordered difference per row, the
    pair {d, -d} of its two ordered differences, named by its smaller
    member (``Group.unsigned_differences``). So the n unordered
    differences must number (order - 1) / 2, and their names must be n
    distinct nonzero elements: then the n pairs are disjoint and cover
    2n nonzero elements. The order is then odd, so no d equals -d.
    """
    pairs = list(combinations(cols, 2))
    if 2 * sum(len(a) for a, _ in pairs) != group.order - 1:
        return False
    names = set()
    for a, b in pairs:
        names.update(group.unsigned_differences(b, a))
    return 2 * len(names) == group.order - 1 and group.zero not in names


def _counted_differences(group: Group, cols: list) -> Counter:
    """How often each element is row[i] - row[j], over all rows and every
    ordered pair (i, j) of distinct positions, the rows given by their
    columns. Each pair's differences are computed column by column."""
    coverage = Counter()
    for a, b in permutations(cols, 2):
        coverage.update(group.differences(a, b))
    return coverage


def _df_report(
    coverage: Counter, group: Group, lam: int, bad_blocks: list
) -> DFReport:
    """Judge counted differences: every nonzero element lam times."""
    zero = group.zero
    if (
        len(coverage) == group.order - 1
        and zero not in coverage
        and set(coverage.values()) <= {lam}
    ):
        off = []
    else:
        walk = (
            (el, coverage.get(el, 0))
            for el in group.elements()
            if el != zero and coverage.get(el, 0) != lam
        )
        off = list(islice(walk, _OFF_LIMIT))
    valid = not bad_blocks and not off and zero not in coverage
    return DFReport(valid, lam, off, bad_blocks)


def _judged(group: Group, cols: list, lam: int, bad_blocks: list) -> DFReport:
    """Judge point rows, given by their columns, as a difference family
    of index lam.

    At lam = 1 with no malformed block, rows that pass ``_covers_once``
    are valid uncounted; any other family is counted.
    """
    if lam == 1 and not bad_blocks and _covers_once(group, cols):
        return DFReport(True, 1, [], [])
    coverage = _counted_differences(group, cols)
    return _df_report(coverage, group, lam, bad_blocks)


def verify_df(blocks: Sequence, group: Group, k: int, lam: int) -> DFReport:
    """Check that blocks form a (v, k, lam) difference family over group.

    Every nonzero group element must occur exactly lam times among the
    differences of all blocks. Blocks of the wrong size or with a repeated
    point are set aside as malformed and the rest are ``_judged``.
    """
    good, bad_blocks = [], []
    for block in blocks:
        pts = tuple(block)
        if len(pts) != k or len(set(pts)) != k:
            bad_blocks.append(pts)
        else:
            good.append(pts)
    return _judged(group, _columns(good, k), lam, bad_blocks)


class DifferenceFamily(_Record):
    """A plain, uncolored difference family."""

    group: Group
    k: int
    lam: int
    blocks: tuple[frozenset, ...]

    def report(self) -> DFReport:
        return verify_df(self.blocks, self.group, self.k, self.lam)


# ---------------------------------------------------------------------------
# colored families


class KaleidoscopicDifferenceFamily(_Record):
    """Point rows whose same-colored lines each form a (v, h, 1) family.

    Each block is a row of k distinct points, cut into its colored lines
    by the family's one layout ``schema``, position by position.
    """

    group: Group
    schema: KaleidoscopeSchema
    blocks: tuple[tuple, ...]
    provenance: dict = _Fresh(dict)

    def __post_init__(self):
        _check_rows(self.schema, self.blocks)


class KDFReport(_Record):
    """A colored family's verdict: a ``DFReport`` per color, and those
    whose lines are not a (v, h, 1) family."""

    valid: bool
    color_reports: list[DFReport]
    failing_colors: list[int]

    def summary(self) -> str:
        if self.valid:
            return "valid"
        return f"colors {self.failing_colors} fail: " + "; ".join(
            f"color {c}: {self.color_reports[c].summary()}"
            for c in self.failing_colors[:3]
        )


@_collector_paused
def verify_kdf(kdf: KaleidoscopicDifferenceFamily) -> KDFReport:
    """Judge each color class, and the family by its colors alone.

    For every color, the lines of that color across all blocks must form
    a (v, h, 1) difference family; each is ``_judged`` as one, on its
    own columns, and a valid color passes ``_covers_once`` by one set
    of folded differences, uncounted. A failing color is counted, and
    its report names its first ``_OFF_LIMIT`` off elements. When every
    color passes, the blocks form a (v, k, b) difference family as a
    consequence: the layout tiles its position pairs by construction,
    so each nonzero element is covered once per color, b times in all.
    The collector is paused: the difference columns of a large family
    are tens of thousands of tuples, and no cycle among them.
    """
    cols = _columns(kdf.blocks, kdf.schema.k)
    color_reports = [
        _judged(kdf.group, [cols[i] for i in line], 1, [])
        for line in kdf.schema.lines
    ]
    failing = [c for c, rep in enumerate(color_reports) if not rep.valid]
    return KDFReport(not failing, color_reports, failing)


# ---------------------------------------------------------------------------
# full colored designs


class LineTable(tuple):
    """A plane given by its lines: b frozensets of points, in color order.

    A plane of any other type is a point row, cut into its lines by the
    layout of the kaleidoscope that holds it.
    """

    __slots__ = ()


class Kaleidoscope(_Record):
    """Colored planes on ``points``, a group or ``range(n)``, all under
    the one layout ``schema``.

    Each plane is a point row (a tuple of k points, position i at layout
    position i) or a ``LineTable``; ``lines_of`` gives either's lines.
    The planes that ``develop`` and ``kaleidoscope_from_json`` build share
    their point objects: equal points are one object, so a point that
    recurs in many planes is held once.
    """

    points: Sequence
    schema: KaleidoscopeSchema
    planes: tuple

    def __post_init__(self):
        pts = self.points
        if not isinstance(pts, Group) and not (
            type(pts) is range and pts.stop >= 0 and pts == range(pts.stop)
        ):
            raise MalformedInput("points must be a group or range(n)")

    @property
    def n(self) -> int:
        """The point count; ``len`` overflows past 2^63 - 1."""
        pts = self.points
        return pts.stop if isinstance(pts, range) else pts.order

    def lines_of(self, plane) -> tuple[frozenset, ...]:
        """The plane's b lines, as point sets, in color order."""
        if isinstance(plane, LineTable):
            return plane
        return self.schema.lines_at(plane)


@_collector_paused
def develop(kdf: KaleidoscopicDifferenceFamily) -> Kaleidoscope:
    """Translate every block by every group element.

    Each translate is stored as its point row, cut by the family's
    layout when its lines are read. The group is listed once, and each
    point's translates are a column of slices of that list
    (``Group.translate_column``), so the planes hold one reference per
    incidence and one object per point. Refuses families that fail
    verification, since the result would not be a kaleidoscope.
    """
    report = verify_kdf(kdf)
    if not report.valid:
        raise InvalidKDF(report.summary())
    group = kdf.group
    elems = list(group)
    planes = []
    for block in kdf.blocks:
        # Column i holds position i of every translate, in element order.
        planes.extend(zip(*[group.translate_column(x, elems) for x in block]))
    return Kaleidoscope(group, kdf.schema, tuple(planes))


class KaleidoscopeReport(_Record):
    """A kaleidoscope's verdict and, when it fails, its first fault."""

    valid: bool
    first_violation: Optional[tuple]  # ((x, y), color, count)
    alien_points: list
    # (plane index, points its lines lie on, k): a line table whose lines
    # are not a plane, named only when every pair count is right
    bad_plane: Optional[tuple] = None

    def summary(self) -> str:
        if self.valid:
            return "valid"
        if self.alien_points:
            return f"planes use unknown points {self.alien_points[:3]!r}"
        if self.bad_plane is not None:
            index, spanned, k = self.bad_plane
            if spanned != k:
                return (
                    f"plane {index} is not a plane: its lines lie on"
                    f" {spanned} points, wanted {k}"
                )
            return (
                f"plane {index} is not a plane: a pair of its points lies"
                " on more than one of its lines"
            )
        (x, y), color, count = self.first_violation
        return (
            f"pair ({x!r}, {y!r}) carries color {color} {count} times,"
            " wanted 1"
        )


def verify_kaleidoscope(k: Kaleidoscope) -> KaleidoscopeReport:
    """Judge k by the pair count alone (``_each_pair_once``): every
    color covers every point pair once, and every line table is a plane.
    A point row needs no plane check: a layout tiles its position pairs
    by construction, so it cuts the row's k distinct points into a
    plane.

    A failing k is recounted only to name its fault. Shape faults raise
    the decoder's errors: ``MalformedInput`` for a plane of the wrong
    length, a line not of h points or an unhashable point in a row,
    ``DuplicateElements`` for a point repeated in a row.
    """
    if _each_pair_once(k, k.n):
        return KaleidoscopeReport(True, None, [])
    return _kaleidoscope_violation(k)


def _rows_and_tables(k: Kaleidoscope) -> tuple[list, list]:
    """The planes that are point rows, and those that are line tables.

    A row or a line table of the wrong length, or a line not of h
    points, raises ``MalformedInput``.
    """
    schema = k.schema
    rows, tables = [], []
    for plane in k.planes:
        if isinstance(plane, LineTable):
            if len(plane) != schema.b:
                raise MalformedInput("plane has the wrong number of lines")
            tables.append(plane)
        else:
            if len(plane) != schema.k:
                raise MalformedInput("plane has the wrong number of points")
            rows.append(plane)
    if set(map(len, chain.from_iterable(tables))) - {schema.h}:
        raise MalformedInput("line has the wrong size")
    return rows, tables


def _sidon_codes(n: int) -> list[int]:
    """n ints whose pairwise sums are all different.

    For a prime p >= n, the numbers 2pi + (i^2 mod p), i < p, form a Sidon
    set (Erdos and Turan, 1941): a + b determines the pair {a, b}. So the
    sum of two codes is a flat, symmetric key of a point pair.
    """
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return [2 * p * i + i * i % p for i in range(n)]


def _is_plane(lines, k: int) -> bool:
    """Whether the lines lie on exactly k points and put each pair of
    those points on exactly one of them."""
    pairs = [pair for line in lines for pair in combinations(sorted(line), 2)]
    return (
        len(pairs) == len(set(pairs)) == k * (k - 1) // 2
        and len(frozenset().union(*lines)) == k
    )


def _each_pair_once(k: Kaleidoscope, n: int) -> bool:
    """True when every color's lines cover every point pair exactly once
    and every line table is a plane. A row of k distinct points is a
    plane already: its layout tiles the position pairs by construction.

    Rows are read position by position and line tables slot by slot
    (see ``_rows_and_tables``, whose ``MalformedInput`` passes through).
    Each point gets a code from ``_sidon_codes``, and a point pair is the
    sum of its two codes. A color passes when its lines make n(n-1)/2
    pair keys in all, no key twice and no key of a point paired with
    itself. An unknown or unhashable point, a line table that is not a
    plane, a point repeated in a row or a repeated key reads False.
    """
    rows, tables = _rows_and_tables(k)
    schema = k.schema
    b, h, width = schema.b, schema.h, schema.k
    pairs = n * (n - 1) // 2
    if len(k.planes) * (h * (h - 1) // 2) != pairs:
        return False
    code = dict(zip(k.points, _sidon_codes(n)))
    lines = list(chain.from_iterable(tables))
    try:
        row_codes = list(map(code.__getitem__, chain.from_iterable(rows)))
        line_codes = list(map(code.__getitem__, chain.from_iterable(lines)))
    except (KeyError, TypeError):
        # an unknown or an unhashable point
        return False
    if not all(_is_plane(table, width) for table in tables):
        return False
    # A Sidon set's sums tell x + x apart from every other pair's sum.
    doubles = {c + c for c in code.values()}
    # Position i of every row, and slot s of every line table, as columns.
    positions = [row_codes[i::width] for i in range(width)]
    stride = b * h
    for color, line in enumerate(schema.lines):
        cols = [
            positions[i] + line_codes[s::stride]
            for s, i in enumerate(line, color * h)
        ]
        keys = set()
        for a, c in combinations(cols, 2):
            keys.update(map(add, a, c))
        if len(keys) != pairs or not keys.isdisjoint(doubles):
            return False
    return True


def _kaleidoscope_violation(k: Kaleidoscope) -> KaleidoscopeReport:
    """Name the first fault of a kaleidoscope that failed the pair count;
    never a valid report. A point repeated in a row raises
    ``DuplicateElements`` first (``_check_rows``), so each line counted
    has h distinct points. Points are tested and walked through
    ``k.points``, never copied."""
    rows, _ = _rows_and_tables(k)
    _check_rows(k.schema, rows)
    points = k.points
    b = k.schema.b
    alien = []
    counts: dict = {}
    for plane in k.planes:
        for color, line in enumerate(k.lines_of(plane)):
            for x in line:
                if x not in points:
                    alien.append(x)
            for x, y in combinations(sorted(line), 2):
                counts[(x, y, color)] = counts.get((x, y, color), 0) + 1
    if alien:
        return KaleidoscopeReport(False, None, alien)
    n = k.n
    over = [key for key, c in counts.items() if c != 1]
    if over:
        x, y, color = min(over)
        return KaleidoscopeReport(
            False, ((x, y), color, counts[(x, y, color)]), []
        )
    if len(counts) == n * (n - 1) // 2 * b:
        # Every (pair, color) once, so the count failed on a line table
        # that is not a plane.
        width = k.schema.k
        index, plane = next(
            (index, plane)
            for index, plane in enumerate(k.planes)
            if isinstance(plane, LineTable) and not _is_plane(plane, width)
        )
        bad = (index, len(frozenset().union(*plane)), width)
        return KaleidoscopeReport(False, None, [], bad)
    # Some pair-color slot is missing; name the first one. Canonical
    # order is sorted order, so i < j gives x < y as the counts key them.
    x, y, color = next(
        (points[i], points[j], color)
        for i in range(n)
        for j in range(i + 1, n)
        for color in range(b)
        if (points[i], points[j], color) not in counts
    )
    return KaleidoscopeReport(False, ((x, y), color, 0), [])


# ---------------------------------------------------------------------------
# pairwise balanced designs and replication


class PairwiseBalancedDesign(_Record):
    """Blocks over points 0..v-1, meant to cover each pair exactly once."""

    v: int
    blocks: tuple[frozenset, ...]

    def __post_init__(self):
        if self.v < 0:
            raise MalformedInput(f"point count {self.v} is negative")
        for block in self.blocks:
            for x in block:
                if not isinstance(x, int) or not 0 <= x < self.v:
                    raise MalformedInput(
                        f"point {x!r} outside 0..{self.v - 1}"
                    )


class PBDReport(_Record):
    valid: bool
    first_violation: Optional[tuple]  # ((x, y), count)


def verify_pbd(pbd: PairwiseBalancedDesign) -> PBDReport:
    first = _first_pair_violation(pbd.blocks, pbd.v)
    return PBDReport(first is None, first)


def replicate(
    design: PairwiseBalancedDesign, schema: KaleidoscopeSchema
) -> Kaleidoscope:
    """Color b copies of each block of a 2-(v, k, 1) design.

    Copy j of a block assigns color (i + j) mod b to its i-th layout line,
    so the copies exhaust the colorings cyclically. The input must have
    uniform block size k equal to the layout's and cover each point pair
    exactly once.
    """
    k = schema.k
    for block in design.blocks:
        if len(block) != k:
            raise NotAUnitalDesign(
                f"block size {len(block)} differs from layout size {k}"
            )
    rep = verify_pbd(design)
    if not rep.valid:
        pair, count = rep.first_violation
        raise NotAUnitalDesign(f"pair {pair} covered {count} times")
    b = schema.b
    planes = []
    for block in design.blocks:
        ordered = tuple(sorted(block))
        base = schema.lines_at(ordered)
        for j in range(b):
            planes.append(LineTable(base[(c - j) % b] for c in range(b)))
    return Kaleidoscope(range(design.v), schema, tuple(planes))


# ---------------------------------------------------------------------------
# serialization


def df_to_json(df: DifferenceFamily) -> dict:
    enc = df.group.encoder()
    return {
        "group": df.group.to_json(),
        "k": df.k,
        "lambda": df.lam,
        "blocks": [sorted(map(enc, block)) for block in df.blocks],
    }


def _decoded(raw, dec, what: str):
    """A JSON list of elements, decoded one by one as it is read."""
    if not isinstance(raw, (list, tuple)):
        raise MalformedInput(f"{what} must be a list of elements")
    return map(dec, raw)


def _point_rows(raw: list, k: int, points: Group, same=None):
    """The rows of raw decoded a column at a time, or None.

    Each row must be a JSON list of k elements, and the elements must be
    spelled as ``points.decode_rows`` decodes them; the decoded points
    pass through ``same``, if given, and are cut into rows of k. When
    anything is irregular the answer is None, and the caller decodes row
    by row, which raises the first fault in document order.
    """
    if set(map(type, raw)) - {list} or set(map(len, raw)) - {k}:
        return None
    try:
        decoded = points.decode_rows(raw, same)
        # zip over k copies of one iterator cuts the points into rows.
        return tuple(zip(*[decoded] * k))
    except MalformedInput:
        return None


def df_from_json(obj) -> DifferenceFamily:
    if not isinstance(obj, dict):
        raise MalformedInput("difference family must be a JSON object")
    try:
        group = make_group(descriptor_from_json(obj["group"]))
        k = obj["k"]
        lam = obj["lambda"]
        raw = obj["blocks"]
    except KeyError as missing:
        raise MalformedInput(f"family object lacks key {missing}") from None
    if not (_is_json_int(k) and _is_json_int(lam)):
        raise MalformedInput("family k and lambda must be integers")
    if not isinstance(raw, list):
        raise MalformedInput("blocks must be a list")
    dec = group.decoder()
    blocks = tuple(frozenset(_decoded(block, dec, "block")) for block in raw)
    return DifferenceFamily(group, k, lam, blocks)


@_collector_paused
def kdf_to_json(kdf: KaleidoscopicDifferenceFamily) -> dict:
    return {
        "group": kdf.group.to_json(),
        "schema": schema_to_json(kdf.schema),
        "blocks": kdf.group.encode_rows(kdf.blocks),
        "provenance": kdf.provenance,
    }


def kdf_from_json(obj) -> KaleidoscopicDifferenceFamily:
    """Decode a colored family document.

    Blocks that are all lists of k elements are decoded a column at a
    time (``_point_rows``); other documents are decoded block by block,
    so a malformed one raises the first fault in document order, as the
    row checks of ``KaleidoscopicDifferenceFamily`` do after it.
    """
    if not isinstance(obj, dict):
        raise MalformedInput("family must be a JSON object")
    try:
        group = make_group(descriptor_from_json(obj["group"]))
        schema = schema_from_json(obj["schema"])
        raw = obj["blocks"]
    except KeyError as missing:
        raise MalformedInput(f"family object lacks key {missing}") from None
    if not isinstance(raw, list):
        raise MalformedInput("blocks must be a list")
    blocks = _point_rows(raw, schema.k, group)
    if blocks is None:
        dec = group.decoder()
        blocks = tuple(tuple(_decoded(block, dec, "block")) for block in raw)
    provenance = obj.get("provenance")
    if provenance is None:
        provenance = {}
    elif not isinstance(provenance, dict):
        raise MalformedInput("provenance must be an object")
    return KaleidoscopicDifferenceFamily(group, schema, blocks, provenance)


@_collector_paused
def kaleidoscope_to_json(k: Kaleidoscope) -> dict:
    if isinstance(k.points, range):
        points, enc = k.n, int
    else:
        points = k.points.to_json()
        # Each element is encoded once, and its JSON value is shared by
        # every plane, so ``dumps`` writes a list-valued one once per matrix.
        enc = _Memo(k.points.encoder()).__getitem__
    planes = []
    for plane in k.planes:
        if isinstance(plane, LineTable):
            lines = [list(map(enc, sorted(line))) for line in plane]
            planes.append({"lines": lines})
        else:
            planes.append(list(map(enc, plane)))
    return {
        "points": points,
        "schema": schema_to_json(k.schema),
        "planes": planes,
    }


def kaleidoscope_from_json(obj) -> Kaleidoscope:
    """Decode a kaleidoscope document.

    Equal points of the planes, in rows and line tables alike, are
    decoded to one object, the first one read, so the planes hold one
    reference per incidence and one object per point. Planes over a
    group that are all lists of k elements are decoded a column at a
    time (``_point_rows``) and checked by ``_check_rows``; any other
    document is decoded plane by plane, which raises the first fault in
    document order.
    """
    if not isinstance(obj, dict):
        raise MalformedInput("kaleidoscope must be a JSON object")
    try:
        raw_points = obj["points"]
        schema = schema_from_json(obj["schema"])
        raw_planes = obj["planes"]
    except KeyError as missing:
        raise MalformedInput(f"kaleidoscope lacks key {missing}") from None
    if isinstance(raw_points, dict):
        points = make_group(descriptor_from_json(raw_points))
        dec = points.decoder()
    elif not _is_json_int(raw_points):
        raise MalformedInput("points must be a count or a group descriptor")
    elif raw_points < 0:
        raise MalformedInput(f"point count {raw_points} is negative")
    else:
        points = range(raw_points)

        def dec(x):
            if type(x) is not int or x not in points:
                raise MalformedInput(f"point {x!r} out of range")
            return x
    if not isinstance(raw_planes, list):
        raise MalformedInput("planes must be a list")
    same = _Memo().__getitem__
    planes = None
    if isinstance(points, Group):
        planes = _point_rows(raw_planes, schema.k, points, same)
    if planes is None:
        planes = _planes_row_by_row(raw_planes, schema, dec, same)
    else:
        _check_rows(schema, planes)
    return Kaleidoscope(points, schema, planes)


def _planes_row_by_row(
    raw_planes: list, schema: KaleidoscopeSchema, dec, same
) -> tuple:
    """Decode planes one by one, each point by ``dec`` and then ``same``,
    raising the first fault in document order."""
    planes = []
    for raw in raw_planes:
        if isinstance(raw, dict):
            raw_lines = raw.get("lines")
            if not isinstance(raw_lines, list) or len(raw_lines) != schema.b:
                raise MalformedInput("plane needs one line per color")
            lines = LineTable(
                frozenset(map(same, _decoded(line, dec, "line")))
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
    return tuple(planes)


def pbd_to_text(pbd: PairwiseBalancedDesign) -> str:
    lines = [f"v={pbd.v}"]
    for block in pbd.blocks:
        lines.append(" ".join(str(x) for x in sorted(block)))
    return "\n".join(lines) + "\n"


def pbd_from_text(text: str) -> PairwiseBalancedDesign:
    """Parse the block-per-line format.

    The first significant line is ``v=<count>``; every later line lists
    one block as space-separated point indices. Blank lines and lines
    starting with ``#`` are skipped.
    """
    v = None
    blocks = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if v is None:
            if not line.startswith("v="):
                raise MalformedInput(f"line {lineno}: expected 'v=<count>'")
            try:
                v = int(line[2:])
            except ValueError:
                raise MalformedInput(
                    f"line {lineno}: bad point count {line[2:]!r}"
                ) from None
            if v < 0:
                raise MalformedInput(
                    f"line {lineno}: point count {v} is negative"
                )
            continue
        try:
            pts = [int(tok) for tok in line.split()]
        except ValueError:
            raise MalformedInput(
                f"line {lineno}: blocks are space-separated ints"
            ) from None
        if len(set(pts)) != len(pts):
            raise DuplicateElements(f"line {lineno}: repeated point")
        blocks.append(frozenset(pts))
    if v is None:
        raise MalformedInput("no 'v=' header found")
    return PairwiseBalancedDesign(v, tuple(blocks))


_INF = float("inf")
_INTS = {int}
_ROWS = {list, tuple}
_CHUNK_ITEMS = 8192  # items whose ids _item_texts holds at once


class _Unsupported(Exception):
    """A value ``_write`` leaves to the standard library's encoder."""


@_collector_paused
def dumps(obj) -> str:
    """Stable JSON text: sorted keys, one space of indent per level.

    The text is byte for byte ``json.dumps(obj, sort_keys=True,
    indent=1)``. With an indent, the standard library falls back to its
    pure-Python encoder; this writer appends the pieces of the whole text
    to one list and joins them once, so no level copies the text of the
    levels below it. It writes a list of ints in one pass. A matrix, a
    list of n lists or tuples all of one length k > 0, is one piece: one
    ``%`` fill of a template of n rows of k slots. The slots take the
    items themselves when all are ints, else the text of each distinct
    item, written once: one pass takes the items' ids, and only the
    first appearance of each is written (``_item_texts``). A value of any
    other type than dict, list, tuple, str, int, float, bool and None, or
    a key that is not a str, sends the whole object to ``json.dumps``,
    which encodes it or raises as it always did.

    It runs with the cyclic garbage collector paused, as the builders of
    the documents it writes do: the pieces and texts it makes hold no
    reference cycle, and the young collections those builders leave due
    would otherwise run here and free nothing.
    """
    out = []
    try:
        _write(obj, 0, out)
    except _Unsupported:
        return json.dumps(obj, sort_keys=True, indent=1)
    return "".join(out)


def read_text(path) -> str:
    """The file's text, as UTF-8. A file that cannot be read or is not
    UTF-8 raises ``MalformedInput`` naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise MalformedInput(f"{path}: {err}") from None


def load(path):
    """The JSON document in a file: ``read_text``, then ``loads`` with the
    file as its source. The command line's ``--file`` documents and the
    catalog's entries are all read by it."""
    return loads(read_text(path), path)


@_collector_paused
def loads(text: str, source: str = ""):
    """Decode JSON text. A syntax error, or nesting deeper than the
    decoder can recurse into, raises ``MalformedInput`` with the
    decoder's message, after ``source: `` when a source is named.

    It runs with the cyclic garbage collector paused: a decoded document
    is lists, dicts, strs and numbers, holds no reference cycle, and
    would otherwise start a collection every few hundred containers."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        message = f"{source}: {err}" if source else str(err)
        raise MalformedInput(message) from None


def _item_texts(rows: list, depth: int) -> tuple:
    """The texts of the rows' items at depth, in row order, each distinct
    object written once.

    The rows go in chunks of about ``_CHUNK_ITEMS`` items, so the ids of
    one chunk at a time are held. One pass takes the ids of a chunk's
    items, and one ``itemgetter`` call looks up their texts. When that
    finds an object not seen in an earlier chunk, ``dict.fromkeys`` over
    the ids picks out the new ones; a walk over the chunk writes each
    where it first appears and stops once all are written."""
    texts = {}
    fill = []
    step = max(1, _CHUNK_ITEMS // len(rows[0]))
    for start in range(0, len(rows), step):
        chunk = rows[start : start + step]
        ids = list(map(id, chain.from_iterable(chunk)))
        get = itemgetter(*ids)
        try:
            got = get(texts)
        except KeyError:
            fresh = dict.fromkeys(ids).keys() - texts.keys()
            for key, item in zip(ids, chain.from_iterable(chunk)):
                if key in fresh:
                    fresh.remove(key)
                    pieces = []
                    _write(item, depth, pieces)
                    texts[key] = "".join(pieces)
                    if not fresh:
                        break
            got = get(texts)
        # itemgetter of one id gives the bare text, not a 1-tuple.
        fill.extend(got if len(ids) > 1 else (got,))
    return tuple(fill)


def _write(obj, depth: int, out: list) -> None:
    """Append the text of obj at nesting depth to out."""
    kind = type(obj)
    if kind is str:
        out.append(_quote(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is list or kind is tuple:
        if not obj:
            out.append("[]")
            return
        outer = "\n" + " " * depth
        inner = outer + " "
        kinds = set(map(type, obj))
        if kinds == _INTS:
            text = "[" + inner + ("," + inner).join(map(int.__repr__, obj))
            out.append(text + outer + "]")
        elif kinds <= _ROWS and len(obj[0]) and len(set(map(len, obj))) == 1:
            # A matrix: n rows of k items, written by one template fill.
            # Only a matrix whose first item is an int can be all ints.
            flat = ()
            if type(obj[0][0]) is int:
                flat = tuple(chain.from_iterable(obj))
            if set(map(type, flat)) != _INTS:
                flat = _item_texts(obj, depth + 2)
            below = "\n" + " " * (depth + 1)
            slot = below + " %s"
            row = "[" + ",".join([slot] * len(obj[0])) + below + "]"
            template = (
                "[" + inner + ("," + inner).join([row] * len(obj)) + outer + "]"
            )
            out.append(template % flat)
        else:
            sep = "[" + inner
            for item in obj:
                out.append(sep)
                sep = "," + inner
                _write(item, depth + 1, out)
            out.append(outer + "]")
    elif kind is dict:
        if not obj:
            out.append("{}")
            return
        if set(map(type, obj)) != {str}:
            raise _Unsupported
        outer = "\n" + " " * depth
        inner = outer + " "
        sep = "{" + inner
        for name, value in sorted(obj.items()):
            out.append(sep + _quote(name) + ": ")
            sep = "," + inner
            _write(value, depth + 1, out)
        out.append(outer + "}")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif kind is float:
        if obj != obj:
            out.append("NaN")
        elif obj == _INF:
            out.append("Infinity")
        elif obj == -_INF:
            out.append("-Infinity")
        else:
            out.append(float.__repr__(obj))
    else:
        raise _Unsupported
