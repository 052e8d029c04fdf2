"""Composition constructions: difference matrices, products, and gluing.

The product construction pairs each block entry with a matrix row, one
composed block per matrix column, and adjoins the second family on the
zero fiber. Because any subset of rows of a difference matrix is again a
difference matrix on those rows, the construction respects colored lines
when the blocks are ordered: the lines of color j select rows by the
layout's j-th line, and those selected rows still cover every difference.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Optional

from .algebra import (
    Group,
    ProductGroup,
    descriptor_from_json,
    make_group,
)
from .designs import (
    Kaleidoscope,
    KaleidoscopicDifferenceFamily,
    LineTable,
    PairwiseBalancedDesign,
    develop,
    dumps,
    kaleidoscope_from_json,
    kdf_from_json,
    loads,
    verify_kaleidoscope,
    verify_kdf,
    verify_pbd,
)
from .errors import (
    IngredientInvalid,
    InvalidPBD,
    MalformedInput,
    MissingIngredient,
    OrderTooSmall,
    SchemaMismatch,
)
from .schema import schema_to_json

__all__ = [
    "DifferenceMatrix",
    "field_dm",
    "DMReport",
    "verify_dm",
    "compose_kdf",
    "pbd_compose",
    "Catalog",
    "dm_to_json",
    "dm_from_json",
]


@dataclass
class DifferenceMatrix:
    """k rows of |H| entries; row differences sweep H exactly once each."""

    group: Group
    rows: tuple[tuple, ...]

    @property
    def k(self) -> int:
        return len(self.rows)


def field_dm(field: Group, k: int) -> DifferenceMatrix:
    """The multiplication-table matrix over a field of order q >= k.

    Row i holds a_i * x as x sweeps the field, where a_i is the i-th
    element in canonical order. Distinct a_i make every row pair differ by
    a nonzero scalar multiple of the sweep, which hits each element once.
    """
    if not field.is_field:
        raise MalformedInput("the multiplication-table matrix needs a field")
    if k < 1:
        raise MalformedInput(f"a difference matrix needs a row, got k = {k}")
    if k > field.order:
        raise OrderTooSmall(
            f"cannot pick {k} distinct multipliers in a field of order"
            f" {field.order}"
        )
    sweep = list(field)  # read by every row
    rows = tuple(tuple(field.times(a, sweep)) for a in sweep[:k])
    return DifferenceMatrix(field, rows)


@dataclass
class DMReport:
    valid: bool
    failing_pair: Optional[tuple]  # (row, row, element, count)

    def summary(self) -> str:
        if self.valid:
            return "valid"
        r, s, el, count = self.failing_pair
        return (
            f"rows {r},{s}: difference {el!r} appears {count} times,"
            " wanted 1"
        )


def verify_dm(m: DifferenceMatrix) -> DMReport:
    """Check every row pair covers each group element exactly once."""
    group = m.group
    n = group.order
    for row in m.rows:
        if len(row) != n:
            raise MalformedInput(
                f"row length {len(row)} differs from group order {n}"
            )
    for r in range(len(m.rows)):
        for s in range(r + 1, len(m.rows)):
            counts = Counter(group.differences(m.rows[r], m.rows[s]))
            if len(counts) == n:  # n differences, n distinct values
                continue
            for el in group.elements():  # name the first failing element
                if counts[el] != 1:
                    return DMReport(False, (r, s, el, counts[el]))
    return DMReport(True, None)


def _check_dm_ingredient(m: DifferenceMatrix, k: int, group: Group):
    if m.k != k:
        raise IngredientInvalid(
            f"matrix has {m.k} rows, the blocks have {k} entries"
        )
    if m.group != group:
        raise IngredientInvalid("matrix group differs from the second family")
    rep = verify_dm(m)
    if not rep.valid:
        raise IngredientInvalid("difference matrix: " + rep.summary())


def compose_kdf(
    kdf: KaleidoscopicDifferenceFamily,
    kdfp: KaleidoscopicDifferenceFamily,
    m: Optional[DifferenceMatrix] = None,
) -> KaleidoscopicDifferenceFamily:
    """Product of two colored families with one shared layout.

    Positions are preserved, so the color-j lines of a composed block pick
    exactly the matrix rows indexed by the layout's j-th line. Ingredients
    are verified first, the families before the matrix, which defaults to
    ``field_dm`` over the second family's field, built once both pass.
    """
    if not kdf.schema.same_layout(kdfp.schema):
        raise SchemaMismatch("the families use different layouts")
    for name, ingredient in (("first", kdf), ("second", kdfp)):
        rep = verify_kdf(ingredient)
        if not rep.valid:
            raise IngredientInvalid(f"{name} family: {rep.summary()}")
    if m is None:
        m = field_dm(kdfp.group, kdf.schema.k)
    _check_dm_ingredient(m, kdf.schema.k, kdfp.group)
    product = ProductGroup(kdf.group, kdfp.group)
    schema = kdf.schema
    blocks = []
    for row in kdf.blocks:
        for col in range(kdfp.group.order):
            blocks.append(
                tuple((pt, m.rows[i][col]) for i, pt in enumerate(row))
            )
    zero = kdf.group.zero
    for row in kdfp.blocks:
        blocks.append(tuple((zero, y) for y in row))
    provenance = {
        "construction": "product",
        "left_order": kdf.group.order,
        "right_order": kdfp.group.order,
    }
    return KaleidoscopicDifferenceFamily(
        product, schema, tuple(blocks), provenance
    )


def _relabeled(plane, relabel: dict):
    """The same plane, row or line table, with every point x renamed
    relabel[x]."""
    move = relabel.__getitem__
    if isinstance(plane, LineTable):
        return LineTable(frozenset(map(move, line)) for line in plane)
    return tuple(map(move, plane))


def pbd_compose(
    pbd: PairwiseBalancedDesign,
    catalog: Mapping[int, Kaleidoscope],
) -> Kaleidoscope:
    """Glue catalog kaleidoscopes along the blocks of a covering design.

    Each design block is replaced by a copy of the catalog entry of its
    size, relabeled order-preservingly onto the block's points. Every
    point pair lies in one design block, so it keeps exactly one plane
    line per color.
    """
    rep = verify_pbd(pbd)
    if not rep.valid:
        pair, count = rep.first_violation
        raise InvalidPBD(f"pair {pair} covered {count} times, wanted 1")
    schema = None
    planes = []
    checked: set[int] = set()
    for block in pbd.blocks:
        size = len(block)
        ingredient = catalog.get(size)
        if ingredient is None:
            raise MissingIngredient(size)
        if schema is None:
            schema = ingredient.schema
        elif not ingredient.schema.same_layout(schema):
            raise SchemaMismatch(
                f"catalog entry for size {size} uses a different layout"
            )
        if size not in checked:
            krep = verify_kaleidoscope(ingredient)
            if not krep.valid:
                raise IngredientInvalid(
                    f"catalog entry for size {size}: {krep.summary()}"
                )
            checked.add(size)
        if ingredient.n != size:
            raise IngredientInvalid(
                f"catalog entry for size {size} has"
                f" {ingredient.n} points"
            )
        relabel = dict(zip(ingredient.points, sorted(block)))
        planes.extend(_relabeled(p, relabel) for p in ingredient.planes)
    if schema is None:
        raise MalformedInput("the covering design has no blocks")
    return Kaleidoscope(range(pbd.v), schema, tuple(planes))


# ---------------------------------------------------------------------------
# serialization and the on-disk catalog


def dm_to_json(m: DifferenceMatrix) -> dict:
    enc = m.group.encoder()
    return {
        "group": m.group.to_json(),
        "rows": [list(map(enc, row)) for row in m.rows],
    }


def dm_from_json(obj) -> DifferenceMatrix:
    if not isinstance(obj, dict):
        raise MalformedInput("difference matrix must be a JSON object")
    try:
        group = make_group(descriptor_from_json(obj["group"]))
        raw = obj["rows"]
    except KeyError as missing:
        raise MalformedInput(f"matrix object lacks key {missing}") from None
    if not isinstance(raw, list):
        raise MalformedInput("rows must be a list")
    if not all(isinstance(row, list) for row in raw):
        raise MalformedInput("each row must be a list of elements")
    dec = group.decoder()
    rows = tuple(tuple(map(dec, row)) for row in raw)
    return DifferenceMatrix(group, rows)


_CATALOG_NAME = re.compile(r"k(\d+)_(\w+)\.json$")


class Catalog:
    """Directory of verified families keyed by order and layout name.

    Files are named ``k<order>_<layout>.json`` and hold either a colored
    family (developed on read) or a full kaleidoscope.
    """

    def __init__(self, root):
        self.root = Path(root)

    def path_for(self, order: int, schema_name: str) -> Path:
        return self.root / f"k{order}_{schema_name}.json"

    def entries(self) -> list[dict]:
        out = []
        if not self.root.is_dir():
            return out
        for path in sorted(self.root.iterdir()):
            match = _CATALOG_NAME.fullmatch(path.name)
            if match:
                out.append(
                    {
                        "order": int(match.group(1)),
                        "schema": match.group(2),
                        "file": path.name,
                    }
                )
        return out

    def get_raw(self, order: int, schema_name: str) -> dict:
        """The entry's document, a family or a kaleidoscope object. A file
        that cannot be read, is not UTF-8 or holds any other document
        raises ``MalformedInput``."""
        path = self.path_for(order, schema_name)
        if not path.is_file():
            raise MissingIngredient(order)
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as err:
            raise MalformedInput(f"{path}: {err}") from None
        obj = loads(text, str(path))
        _is_family(obj)
        return obj

    def load_kaleidoscope(self, order: int, schema_name: str) -> Kaleidoscope:
        obj = self.get_raw(order, schema_name)
        if _is_family(obj):
            kdf = kdf_from_json(obj)
            scope = develop(kdf)  # develop verifies the family
        else:
            scope = kaleidoscope_from_json(obj)
            rep = verify_kaleidoscope(scope)
            if not rep.valid:
                raise IngredientInvalid(
                    f"catalog entry k{order}_{schema_name}:"
                    f" {rep.summary()}"
                )
        if scope.n != order:
            raise IngredientInvalid(
                f"catalog entry k{order}_{schema_name} has"
                f" {scope.n} points"
            )
        return scope

    def add(self, obj) -> Path:
        """Verify a family or kaleidoscope object and store it."""
        if _is_family(obj):
            kdf = kdf_from_json(obj)
            rep = verify_kdf(kdf)
            if not rep.valid:
                raise IngredientInvalid(rep.summary())
            order = kdf.group.order
            name = _schema_filename(schema_to_json(kdf.schema))
        else:
            scope = kaleidoscope_from_json(obj)
            rep = verify_kaleidoscope(scope)
            if not rep.valid:
                raise IngredientInvalid(rep.summary())
            order = scope.n
            name = _schema_filename(schema_to_json(scope.schema))
        path = self.path_for(order, name)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            with path.open("w") as out:
                out.write(dumps(obj))
                out.write("\n")
        except OSError as err:
            raise MalformedInput(f"{path}: {err}") from None
        return path


def _is_family(obj) -> bool:
    """Whether a catalog document is a colored family (it has blocks)
    rather than a kaleidoscope (it has planes); any other is refused."""
    if not isinstance(obj, dict) or not {"blocks", "planes"} & obj.keys():
        raise MalformedInput("expected a family or kaleidoscope object")
    return "blocks" in obj


def _schema_filename(encoded) -> str:
    if isinstance(encoded, str):
        return encoded
    name = str(encoded.get("name", "custom"))
    cleaned = re.sub(r"\W+", "", name) or "custom"
    return cleaned
