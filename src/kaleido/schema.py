"""Plane layouts: which positions of a block form each colored line.

A layout ("schema") on k positions is a list of b lines, each an h-subset
of {0, .., k-1}, such that every pair of positions lies on exactly one
line: a 2-(k, h, 1) design. ``KaleidoscopeSchema`` refuses lines that
miss or repeat a position pair, so every layout that exists tiles them.
The line index doubles as the color index everywhere in the package.

Two layouts are built in. The seven-point one has lines
{i, i+1, i+3} mod 7. The nine-point one stores its fixed point at position
0 and runs an eight-cycle over positions 1..8: lines {i, i+1, i+3} mod 8 on
the cycle, plus four lines {fixed, j, j+4} through position 0.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .algebra import _is_json_int, _Record
from .errors import DuplicateElements, MalformedInput, UntiledLayout

__all__ = [
    "KaleidoscopeSchema",
    "OrderedBlock",
    "builtin_schema",
    "schema_to_json",
    "schema_from_json",
]


class KaleidoscopeSchema(_Record, frozen=True):
    """b lines of h positions out of k that cover every position pair
    exactly once.

    Lines that are not h distinct positions in range raise
    ``MalformedInput``; lines that miss or repeat a position pair then
    raise ``UntiledLayout``, which names the first such pair.
    """

    name: str
    k: int
    h: int
    lines: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.k < 3 or not (2 <= self.h < self.k):
            raise MalformedInput(
                f"need k > h >= 2, got k={self.k}, h={self.h}"
            )
        for line in self.lines:
            if len(line) != self.h or len(set(line)) != self.h:
                raise MalformedInput(f"line {line} is not an {self.h}-subset")
            if any(not isinstance(i, int) or not 0 <= i < self.k for i in line):
                raise MalformedInput(f"line {line} has an index out of range")
        first = _first_pair_violation(self.lines, self.k)
        if first is not None:
            raise UntiledLayout(self.name, first)
        # One getter picks the points of every line, in color order.
        flat = [i for line in self.lines for i in line]
        object.__setattr__(self, "_pick", itemgetter(*flat))

    @property
    def b(self) -> int:
        """Number of lines, which is also the number of colors."""
        return len(self.lines)

    def lines_at(self, points: tuple) -> tuple[frozenset, ...]:
        """The b colored lines of a block, as point sets, color order."""
        picked = iter(self._pick(points))
        # zip over h copies of one iterator cuts the picks into lines.
        return tuple(map(frozenset, zip(*[picked] * self.h)))

    def same_layout(self, other: "KaleidoscopeSchema") -> bool:
        return (
            self.k == other.k
            and self.h == other.h
            and self.lines == other.lines
        )


def _first_pair_violation(blocks: Iterable, n: int) -> Optional[tuple]:
    """The first pair of 0..n-1, in lexicographic order, that the blocks
    do not cover exactly once, as ``(pair, count)``; None if there is
    none."""
    coverage = Counter(
        pair for block in blocks for pair in combinations(sorted(block), 2)
    )
    for pair in combinations(range(n), 2):
        if coverage[pair] != 1:
            return pair, coverage[pair]
    return None


def _sorted_line(indices: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(indices))


def _fano_schema() -> KaleidoscopeSchema:
    lines = tuple(
        _sorted_line((i, (i + 1) % 7, (i + 3) % 7)) for i in range(7)
    )
    return KaleidoscopeSchema("fano", 7, 3, lines)


def _hesse_schema() -> KaleidoscopeSchema:
    cyc = [
        _sorted_line((1 + i, 1 + (i + 1) % 8, 1 + (i + 3) % 8))
        for i in range(8)
    ]
    thru = [_sorted_line((0, j + 1, j + 5)) for j in range(4)]
    return KaleidoscopeSchema("hesse", 9, 3, tuple(cyc + thru))


# Built once: every caller shares these two frozen layouts.
_BUILTINS = {"fano": _fano_schema(), "hesse": _hesse_schema()}


def builtin_schema(name: str) -> KaleidoscopeSchema:
    try:
        return _BUILTINS[name]
    except KeyError:
        raise MalformedInput(f"no builtin layout named {name!r}") from None


def _check_row(schema: KaleidoscopeSchema, points: tuple) -> None:
    """Demand k distinct points, one per layout position."""
    if len(points) != schema.k:
        raise MalformedInput(
            f"block has {len(points)} points, layout wants {schema.k}"
        )
    try:
        distinct = len(set(points))
    except TypeError:
        for x in points:
            try:
                hash(x)
            except TypeError:
                raise MalformedInput(
                    f"unhashable point {x!r} in block {points}"
                ) from None
        raise
    if distinct != len(points):
        raise DuplicateElements(f"repeated point in block {points}")


def _check_rows(schema: KaleidoscopeSchema, rows: Sequence) -> None:
    """``_check_row`` on every row, in two whole-column passes: the
    rows' lengths, and the sizes of their point sets, must all be k.
    Only when they are not, or a point cannot be hashed, are the rows
    checked one by one, so the first faulty row is the one named."""
    k = {schema.k}
    try:
        whole = not (
            set(map(len, rows)) - k or set(map(len, map(set, rows))) - k
        )
    except TypeError:
        whole = False
    if not whole:
        for row in rows:
            _check_row(schema, row)


class OrderedBlock(_Record, frozen=True):
    """A point row with its layout, as a block search returns it."""

    schema: KaleidoscopeSchema
    points: tuple

    def __post_init__(self):
        _check_row(self.schema, self.points)

    def lines(self) -> tuple[frozenset, ...]:
        return self.schema.lines_at(self.points)


def schema_to_json(schema: KaleidoscopeSchema):
    """Builtin layouts serialize as their name, others in full."""
    for name, builtin in _BUILTINS.items():
        if schema.same_layout(builtin):
            return name
    return {
        "name": schema.name,
        "k": schema.k,
        "h": schema.h,
        "lines": [list(line) for line in schema.lines],
    }


def schema_from_json(obj) -> KaleidoscopeSchema:
    """A builtin layout by its name, or a layout object in full.

    An object without a ``name`` is named ``custom``. Lines that do not
    tile the position pairs raise ``UntiledLayout``, as the constructor
    does.
    """
    if isinstance(obj, str):
        return builtin_schema(obj)
    if not isinstance(obj, dict):
        raise MalformedInput("layout must be a name or a JSON object")
    name = obj.get("name", "custom")
    try:
        k = obj["k"]
        h = obj["h"]
        raw_lines = obj["lines"]
    except KeyError as missing:
        raise MalformedInput(f"layout object lacks key {missing}") from None
    if not isinstance(raw_lines, list):
        raise MalformedInput("layout lines must be a list")
    not_ints = MalformedInput("layout k, h and lines must hold integers")
    if not (_is_json_int(k) and _is_json_int(h)):
        raise not_ints
    try:
        lines = tuple(_sorted_line(line) for line in raw_lines)
    except TypeError:
        raise not_ints from None
    if not all(type(i) is int for line in lines for i in line):
        raise not_ints
    return KaleidoscopeSchema(str(name), k, h, lines)
