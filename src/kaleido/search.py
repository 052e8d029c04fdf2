"""Searches for initial blocks and exhaustive nonexistence sweeps.

An initial block is an ordered block over a field of order q = 1 (mod 6)
each of whose lines spreads its differences over all three cube classes.
Scaling such a block by a transversal of the plus-minus cosets inside the
cube class yields a colored difference family, so searching for families
reduces to searching for one good block.

The line predicate compares class keys. Three nonzero differences lie in
three distinct cube classes exactly when the cubic character
d -> d^((q-1)/3) takes three distinct values on them, whatever the
classes are called. Each field has one ``CyclotomicTable``: its ``key``
is that character and needs no primitive element, and its ``index``
gives labels, finding the primitive element on the first call. The
block checks and the parametric search key on ``key``. The constraint
chains name labels such as "the class of 2", and the prefix search looks
the same differences up again and again, so both key on the memoised
``index``.

The asymptotic constraint chains are data (``_CHAINS``), their classes
labels of ``search constrained``. Chain and prefix searches run one
descent, ``_first_block``, whose levels yield candidates given the
earlier picks and keep no other state.

The exhaustive sweep cuts its tree into subtrees at a fixed depth. On
more than one job it forks its own workers (``_forked_map``), which take
one subtree at a time, so importing this module loads no process pool.
"""

from __future__ import annotations

import functools
import marshal
import os
import re
from dataclasses import asdict, dataclass
from itertools import islice
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .algebra import (
    CyclotomicTable,
    Element,
    Group,
    PrimeField,
    _collector_paused,
    _is_json_int,
    is_prime,
    make_group,
    primitive_element,
    transversal,
)
from .designs import KaleidoscopicDifferenceFamily
from .errors import (
    BadCongruence,
    DuplicateElements,
    MalformedInput,
    NotAnInitialBlock,
    OrderTooSmall,
    UnsupportedOrder,
    ZeroElement,
)
from .schema import (
    KaleidoscopeSchema,
    OrderedBlock,
    _check_row,
    builtin_schema,
)

__all__ = [
    "Q_BOUNDS",
    "CyclotomicConstraint",
    "ConstrainedSearchResult",
    "verify_listed_block",
    "generate_kdf_from_initial_block",
    "find_constrained_element",
    "asymptotic_initial_block",
    "prefix_block_search",
    "ParametricResult",
    "form_block",
    "parametric_search",
    "FANO_AFFINE",
    "FANO_POWERS",
    "HESSE_POWERS",
    "consecutive_block_primes",
    "NonexistenceCertificate",
    "serial_sweep_reason",
    "exhaustive_nonexistence",
]


# Largest field order for which a t-constraint chain may come up empty.
# Any empty chain over a larger field contradicts the counting bound the
# asymptotic constructions rest on, so such an outcome is flagged.
Q_BOUNDS = {
    1: 1,
    2: 36,
    3: 939,
    4: 19_350,
    5: 326_661,
    6: 4_790_260,
    7: 64_391_800,
    8: 808_659_000,
}


def _check_jobs(jobs: int) -> None:
    if jobs < 1:
        raise MalformedInput(f"jobs must be at least 1, got {jobs}")


def _check_limit(name: str, limit: Optional[int]) -> None:
    if limit is not None and limit < 0:
        raise MalformedInput(f"{name} must not be negative, got {limit}")


def _check_block_field(field: Group) -> None:
    # A block scales into a family only when q = 1 (mod 6): 3 must divide
    # q - 1 for the cube classes, and q must be odd for the plus-minus
    # cosets the transversal tiles. In characteristic 2 the chains would
    # also name the class of 2, which is 0. A field with fewer than three
    # units is refused as the class table refuses it.
    if field.order < 4:
        raise OrderTooSmall(
            f"field of order {field.order} has fewer than 3 units"
        )
    if field.order % 6 != 1:
        raise BadCongruence(f"field order {field.order} is not 1 mod 6")


# ---------------------------------------------------------------------------
# the core predicate


def _line_spreads(points3, field: Group, key) -> bool:
    """True when the three differences get three distinct class keys.

    ``key`` is a ``CyclotomicTable``'s ``key`` (one power per call) or
    its memoised ``index``; either tells classes apart.
    """
    a, b, c = points3
    k1 = key(field.sub(a, b))
    k2 = key(field.sub(a, c))
    if k1 == k2:
        return False
    k3 = key(field.sub(b, c))
    return k3 != k1 and k3 != k2


def _check_points(field: Group, points) -> None:
    for x in points:
        if x not in field:
            raise MalformedInput(f"{x!r} is not an element of this field")


def _listed_row(field: Group, points, schema) -> tuple:
    """The layout and point row of a listed block, field and row checked.

    Without a layout, seven points take the Fano one, nine the Hesse one.
    A layout whose lines are not of three points is refused: a line
    spreads over the three cube classes through its three differences.
    """
    _check_block_field(field)
    row = tuple(points)
    if schema is None:
        name = {7: "fano", 9: "hesse"}.get(len(row))
        if name is None:
            raise MalformedInput(
                f"cannot infer a layout for a block of {len(row)} points"
            )
        schema = builtin_schema(name)
    if schema.h != 3:
        raise MalformedInput(
            f"layout {schema.name!r} has lines of {schema.h} points;"
            " an initial block needs lines of 3"
        )
    _check_row(schema, row)
    _check_points(field, row)
    return schema, row


def _failing_line(row, lines, field: Group, key) -> Optional[int]:
    """Index of the first line, a position triple read off ``row``, that
    does not spread; None when every line spreads."""
    for idx, (i, j, m) in enumerate(lines):
        if not _line_spreads((row[i], row[j], row[m]), field, key):
            return idx
    return None


def verify_listed_block(
    field: Group,
    points: Sequence,
    schema: Optional[KaleidoscopeSchema] = None,
) -> bool:
    """Full check of a single claimed initial block, every line tested.

    The classes are compared through the cubic character, so no table is
    built. Fields of order other than 1 (mod 6) are refused, as by the
    block searches.
    """
    schema, row = _listed_row(field, points, schema)
    key = CyclotomicTable(field, 3).key
    return _failing_line(row, schema.lines, field, key) is None


@_collector_paused
def generate_kdf_from_initial_block(
    field: Group,
    points: Sequence,
    schema: Optional[KaleidoscopeSchema] = None,
    mode: str = "canonical",
) -> KaleidoscopicDifferenceFamily:
    """Scale an initial block by a transversal into a full colored family.

    Each line of the block spreads over the three cube classes, and the
    plus-minus orbits of the transversal tile the cubes, so the scaled
    copies of any line tile all nonzero differences once. Fields of order
    other than 1 (mod 6) are refused, as by ``verify_listed_block``.
    """
    schema, row = _listed_row(field, points, schema)
    key = CyclotomicTable(field, 3).key
    idx = _failing_line(row, schema.lines, field, key)
    if idx is not None:
        raise NotAnInitialBlock(
            f"line {idx} of {row!r} does not spread over the three classes"
        )
    scalars = transversal(field, mode)
    # Column i holds point i of every scaled copy, in transversal order.
    cols = [field.times(x, scalars) for x in row]
    enc = field.encoder()
    provenance = {
        "initial_block": list(map(enc, row)),
        "transversal_mode": mode,
        "transversal": list(map(enc, scalars)),
        "primitive": enc(primitive_element(field)),
    }
    return KaleidoscopicDifferenceFamily(
        field, schema, tuple(zip(*cols)), provenance
    )


# ---------------------------------------------------------------------------
# constrained element search


@dataclass(frozen=True)
class CyclotomicConstraint:
    """Requires x - shift to lie in a given cube class.

    The class may be an int or a symbolic string such as "i", "2i", "i+1"
    or "j+2", where i is the class of 2 and j the class of 3 in the field
    at hand.
    """

    shift: Element
    klass: object


_SYMBOLIC = re.compile(r"(\d*)([ij])(?:\+(\d+))?")


def _small_ints(field: Group, n: int) -> list:
    out = [field.zero]
    for _ in range(n):
        out.append(field.add(out[-1], field.one))
    return out


def _resolve_class(klass, table: CyclotomicTable) -> int:
    if _is_json_int(klass):
        return klass % 3
    if not isinstance(klass, str):
        raise MalformedInput(f"bad class label {klass!r}")
    text = klass.replace(" ", "")
    if text.isdigit():
        return int(text) % 3
    match = _SYMBOLIC.fullmatch(text)
    if not match:
        raise MalformedInput(f"bad class label {klass!r}")
    coef = int(match.group(1)) if match.group(1) else 1
    n = 2 if match.group(2) == "i" else 3
    try:
        base = table.index(_small_ints(table.field, n)[n])
    except ZeroElement:
        raise MalformedInput(
            f"class label {klass!r} names the class of {n}, which is zero"
            " in this field"
        ) from None
    const = int(match.group(3)) if match.group(3) else 0
    return (coef * base + const) % 3


@dataclass
class ConstrainedSearchResult:
    element: Optional[Element]
    checked: int
    exhausted: bool
    contradicts_bound: bool
    bound: Optional[int]


def _meets(
    field: Group, table: CyclotomicTable, resolved: Sequence[tuple], x
) -> bool:
    """True when x - shift is nonzero and in class cls for every pair."""
    zero = field.zero
    for shift, cls in resolved:
        d = field.sub(x, shift)
        if d == zero or table.index(d) != cls:
            return False
    return True


def _iter_constrained(
    field: Group, table: CyclotomicTable, resolved: Sequence[tuple]
) -> Iterator[Element]:
    for x in field.elements():
        if _meets(field, table, resolved, x):
            yield x


def find_constrained_element(
    field: Group,
    constraints: Sequence[CyclotomicConstraint],
    max_candidates: Optional[int] = None,
) -> ConstrainedSearchResult:
    """Canonically smallest element satisfying every class constraint.

    When the whole field is swept without a hit and its order exceeds the
    recorded bound for this many constraints, the result carries a
    contradiction flag: by the counting bound such a chain cannot be
    empty, so either the constraints are mutually inconsistent or
    something upstream is wrong.
    """
    _check_limit("max_candidates", max_candidates)
    table = CyclotomicTable(field, 3)
    resolved = [(c.shift, _resolve_class(c.klass, table)) for c in constraints]
    checked = 0
    for checked, x in enumerate(islice(field, max_candidates), 1):
        if _meets(field, table, resolved, x):
            return ConstrainedSearchResult(x, checked, False, False, None)
    if checked < field.order:
        return ConstrainedSearchResult(None, checked, False, False, None)
    t = len(constraints)
    bound = Q_BOUNDS.get(t)
    contradicts = bound is not None and field.order > bound
    return ConstrainedSearchResult(None, checked, True, contradicts, bound)


# ---------------------------------------------------------------------------
# direct constructions from constraint chains


def _first_block(field, schema, key, levels, assemble, backtrack, picked=()):
    """First initial block of a depth-first descent below ``picked``.

    ``levels[m](picked)`` yields the candidates of level m in canonical
    order, given the tuple of earlier picks. At full depth
    ``assemble(picked)`` gives the block's point row, which is returned
    as an ``OrderedBlock`` if every line spreads. Greedy mode follows the
    first candidate at every level; backtracking mode tries them all.
    Returns None when no branch gives a block.
    """
    if len(picked) == len(levels):
        row = assemble(picked)
        initial = _failing_line(row, schema.lines, field, key) is None
        return OrderedBlock(schema, row) if initial else None
    for cand in levels[len(picked)](picked):
        found = _first_block(field, schema, key, levels, assemble, backtrack,
                             picked + (cand,))
        if found is not None or not backtrack:
            return found
    return None


# The constraint chains, one entry per layout: the block's point row and,
# per pick in turn, its (shift, class) pairs; a candidate x has x - shift
# nonzero and in that class for every pair. A row or shift entry is an
# int n, the field element n (its negative when n < 0), or an earlier
# pick's name, "-" in front to negate it. A class is a label of ``search
# constrained``: an int, or "i", "2i", "i+1", "j+2", ... where i is the
# class of 2 and j that of 3. Fano's entry depends on whether 2 is a cube.
_CHAINS = {
    "fano": ((0, 1, -1, "x", "-x", "y", "-y"), {
        "x": ((-1, 0), (0, "i"), (1, "2i")),
        "y": (("-x", 0), (1, "i"), ("x", "i"), (0, "2i"), (-1, "2i")),
    }),
    "fano, 2 a cube": ((0, 1, -1, "x", "-x", "y", "-y"), {
        "x": ((0, 1), (-1, 1), (1, 2)),
        "y": ((-1, 0), ("-x", 0), (1, 1), (0, 2), ("x", 2)),
    }),
    "hesse": ((0, 1, 2, 3, "c3", "c4", "c5", "c6", "c7"), {
        "c3": ((0, 0), (3, 0), (1, 1), (2, 2)),
        "c4": (("c3", 0), (0, 1), (2, 1), (1, 2), (3, 2)),
        "c5": (("c4", 0), (1, 1), (3, 1), ("c3", 2), (0, "i+1"), (2, "i+2")),
        "c6": (("c5", 0), (2, 1), ("c3", 1), (1, 2), ("c4", 2), (0, "j+1"),
               (3, "j+2")),
        "c7": (("c6", 0), (0, 1), ("c4", 1), (2, 2), ("c3", 2), ("c5", 2),
               (1, "i+1"), (3, "i+2")),
    }),
}


def asymptotic_initial_block(
    field: Group,
    schema_name: str = "fano",
    backtrack: bool = False,
) -> Optional[OrderedBlock]:
    """Build an initial block from the fixed constraint chains.

    The chains are the entries of ``_CHAINS``, their class labels those
    of ``search constrained``, resolved once per field. They force every
    line of the assembled block to spread over the three classes, and the
    descent checks every line again. Greedy mode takes the smallest
    member of each chain in turn, given the earlier picks, and gives up
    when a chain is empty, which can happen over small fields.
    Backtracking mode explores all chain members.
    """
    _check_block_field(field)
    table = CyclotomicTable(field, 3)
    if schema_name not in ("fano", "hesse"):
        raise MalformedInput(
            f"no chain construction for layout {schema_name!r}"
        )
    small = _small_ints(field, 3)
    two_a_cube = schema_name == "fano" and table.index(small[2]) == 0
    row, chain = _CHAINS["fano, 2 a cube" if two_a_cube else schema_name]
    names = tuple(chain)

    def element(term, picked):
        """The field element a row or shift entry names, given the picks."""
        if isinstance(term, int):
            return small[term] if term >= 0 else field.neg(small[-term])
        x = picked[names.index(term.lstrip("-"))]
        return field.neg(x) if term[0] == "-" else x

    def level(pairs):
        pairs = [(shift, _resolve_class(c, table)) for shift, c in pairs]
        return lambda p: _iter_constrained(
            field, table, [(element(shift, p), cls) for shift, cls in pairs])

    return _first_block(field, builtin_schema(schema_name), table.index,
                        [level(pairs) for pairs in chain.values()],
                        lambda p: tuple(element(t, p) for t in row), backtrack)


def prefix_block_search(
    field: Group,
    schema_name: str = "hesse",
    prefix: Optional[Sequence] = None,
) -> Optional[OrderedBlock]:
    """Depth-first search for an initial block extending a fixed prefix.

    Positions beyond the prefix are filled with field elements in
    canonical order; each line is tested the moment its last position is
    placed. The default prefix pins the first small elements, which costs
    generality but finds blocks quickly wherever they are plentiful.
    Fields of order other than 1 (mod 6) are refused, as by
    ``asymptotic_initial_block``: no block over them scales into a
    family.
    """
    _check_block_field(field)
    schema = builtin_schema(schema_name)
    key = CyclotomicTable(field, 3).index
    if prefix is None:
        n = 4 if schema.k == 9 else 2
        prefix = tuple(_small_ints(field, n - 1))
    start = tuple(prefix)
    _check_points(field, start)
    if len(set(start)) != len(start):
        raise DuplicateElements("prefix has a repeated point")
    if len(start) >= schema.k:
        raise MalformedInput("prefix fills the whole block")
    # per position: a getter of the points of each line ending there
    checks_at = [
        [itemgetter(*line) for line in schema.lines if max(line) == m]
        for m in range(schema.k)
    ]
    for m in range(len(start)):
        for line in checks_at[m]:
            if not _line_spreads(line(start), field, key):
                return None
    elems = field.elements()

    def extend(picked):
        row = start + picked
        lines = checks_at[len(row)]
        for cand in elems:
            if cand not in row and all(
                _line_spreads(line(row + (cand,)), field, key)
                for line in lines
            ):
                yield cand

    levels = [extend] * (schema.k - len(start))
    return _first_block(field, schema, key, levels, start.__add__, True)


# ---------------------------------------------------------------------------
# one-parameter block families


FANO_AFFINE = "fano-affine"
FANO_POWERS = "fano-powers"
HESSE_POWERS = "hesse-powers"


def _affine_points(field, x):
    one = field.one
    two = field.add(one, one)
    x1 = field.add(x, one)
    return (field.zero, one, two, x, x1, field.mul(x, x1), field.add(x, x))


def _fano_power_points(field, x):
    pts = [field.one]
    for _ in range(6):
        pts.append(field.mul(pts[-1], x))
    return tuple(pts)


def _hesse_power_points(field, x):
    pts = [field.zero, field.one]
    cur = field.one
    for _ in range(7):
        cur = field.mul(cur, x)
        pts.append(cur)
    return tuple(pts)


# For each form: the block builder, the layout name, and the short list of
# lines whose even distribution already forces all the others (the rest
# are unit multiples or translates of these).
_FORMS = {
    FANO_AFFINE: (
        _affine_points,
        "fano",
        ((0, 1, 3), (2, 3, 5), (5, 6, 1)),
    ),
    FANO_POWERS: (
        _fano_power_points,
        "fano",
        ((0, 1, 3), (4, 5, 0), (6, 0, 2)),
    ),
    HESSE_POWERS: (
        _hesse_power_points,
        "hesse",
        ((1, 2, 4), (6, 7, 1), (8, 1, 3), (0, 1, 5)),
    ),
}


def form_block(field: Group, form: str, x: Element) -> tuple:
    """The raw point tuple of a one-parameter form at x, unchecked."""
    if form not in _FORMS:
        raise MalformedInput(f"unknown form {form!r}")
    return _FORMS[form][0](field, x)


@dataclass
class ParametricResult:
    x: Element
    block: tuple
    checked: int


def _try_form_candidate(field, key, form, x):
    builder, schema_name, shortcut = _FORMS[form]
    pts = builder(field, x)
    if len(set(pts)) != len(pts):
        return None
    # The shortcut lines suffice by the scaling identities, but confirm
    # against the full predicate anyway; a disagreement means a bug.
    for lines in (shortcut, builtin_schema(schema_name).lines):
        if _failing_line(pts, lines, field, key) is not None:
            return None
    return pts


def parametric_search(
    field: Group,
    form: str,
    max_candidates: Optional[int] = None,
) -> Optional[ParametricResult]:
    """Smallest parameter x whose block form is a valid initial block.

    Candidates run in canonical order, screened by the form's reduced
    line list and then confirmed in full. Returns none when no x works,
    or when ``max_candidates`` runs out before one does. Fields of order
    other than 1 (mod 6) are refused, as by the other block searches.
    """
    _check_block_field(field)
    _check_limit("max_candidates", max_candidates)
    if form not in _FORMS:
        raise MalformedInput(f"unknown form {form!r}")
    elems = islice(field, max_candidates)
    key = CyclotomicTable(field, 3).key
    for idx, x in enumerate(elems):
        pts = _try_form_candidate(field, key, form, x)
        if pts is not None:
            return ParametricResult(x, pts, idx + 1)
    return None


# ---------------------------------------------------------------------------
# primes admitting the (0..6) block


def consecutive_block_primes(limit: int) -> list[int]:
    """Primes p <= limit, p = 1 (mod 6), where 2 is not a cube while 6 and
    20 both are.

    For such p the block (0, 1, 2, 3, 4, 5, 6) is an initial block: its
    line difference sets are unit multiples of {1, 2, 3} and {1, 4, 5},
    and the class conditions make both of those spread.
    """
    out = []
    for p in range(7, limit + 1):
        if p % 6 != 1 or not is_prime(p):
            continue
        chi = CyclotomicTable(make_group(PrimeField(p)), 3).key
        if chi(2 % p) == 1:
            continue
        if chi(6 % p) != 1 or chi(20 % p) != 1:
            continue
        out.append(p)
    return out


# ---------------------------------------------------------------------------
# exhaustive sweep over one small cyclic order


@dataclass
class NonexistenceCertificate:
    v: int
    schema: str
    blocks: int
    normalizations: tuple[str, ...]
    subtree_count: int
    nodes_visited: int
    solutions: int
    first_solution: Optional[tuple]
    exhausted: bool
    mode: str
    jobs: int

    def to_json(self) -> dict:
        obj = asdict(self)
        obj["normalizations"] = list(self.normalizations)
        if self.first_solution is not None:
            obj["first_solution"] = [list(b) for b in self.first_solution]
        return obj


_NORMALIZATIONS = (
    "translation: the first entry of every block is 0",
    "unit scaling: the second entry of the first block is 1",
    "solutions are counted over ordered block sequences",
)

_SPLIT_FREE_SLOTS = 3


@functools.cache
def _candidate_table(v: int) -> list:
    """Candidate masks and class masks of every line over the integers mod v.

    A difference d and its negative v - d form one class, bit
    min(d, v - d) - 1 of a class mask of (v - 1)/2 bits. Row ``a*v + b``
    is a pair ``(cands, classes)``. ``classes[c]`` is the class mask of
    the line {a, b, c}, or 0 when it is not repeat-free: a difference is
    zero or two fall in one class. ``cands[m]`` is the bitmask of every c
    whose line is repeat-free and misses the class mask m; it is the OR,
    over the subsets s of the complement of m, of the c with class mask
    s, taken by one subset-OR pass per row. Built once per order and
    process, and only read.
    """
    n = (v - 1) // 2
    size = 1 << n
    cls = [0] + [1 << (min(d, v - d) - 1) for d in range(1, v)]
    table = []
    for a in range(v):
        for b in range(v):
            classes = [0] * v
            by_mask = [0] * size
            ab = cls[(a - b) % v]
            for c in range(v):
                line = ab | cls[(a - c) % v] | cls[(b - c) % v]
                # three bits: no zero difference, three distinct classes
                if line.bit_count() == 3:
                    classes[c] = line
                    by_mask[line] |= 1 << c
            # by_mask[s] becomes the OR over every subset of s
            for i in range(n):
                bit = 1 << i
                for s in range(size):
                    if s & bit:
                        by_mask[s] |= by_mask[s ^ bit]
            # the complement of m is size - 1 - m
            table.append((by_mask[::-1], classes))
    return table


@functools.cache
def _sweep_plan(v: int, schema: KaleidoscopeSchema,
                stop_depth: Optional[int] = None) -> tuple:
    """The sweep's layout, built once per order, layout and stop depth.

    Returns ``(slots, fixed, steps)``: the (block, position) of every
    depth, the value fixed at every depth or None, and one step per depth
    the descent enters before it stops. A step is
    ``(r, pos, own, same, dyn, same2, r2, ahead)``:

    - ``own``: the checks ``(color, q1, q2)`` of the lines ending at this
      position; a pick here adds to those colors' masks;
    - ``same``: the child is in this block, so its set lacks the pick;
    - ``dyn``: the child's checks that the pick here can change, because
      their line reads this position or their color is closed here; None
      when the child collects or is a solution;
    - ``same2``, ``r2``: whether the grandchild is in this block, and
      its block, for its used residues;
    - ``ahead``: the grandchild's checks that the child's pick cannot
      change, which read only entries and masks set at or above this
      depth; None when the grandchild collects or is a solution.
    """
    t = (v - 1) // (schema.h * (schema.h - 1))
    k = schema.k
    slots = tuple((r, pos) for r in range(t) for pos in range(k))
    # every block starts with 0, and the first block's second entry is 1
    fixed = tuple(
        0 if pos == 0 else 1 if (r, pos) == (0, 1) else None
        for r, pos in slots
    )
    ending = [
        tuple(
            (color, *(q for q in line if q != m))
            for color, line in enumerate(schema.lines)
            if max(line) == m
        )
        for m in range(k)
    ]
    end = len(slots) if stop_depth is None else min(stop_depth, len(slots))

    def split(depth):
        """depth's checks as (unchanged, changed) by the pick one above."""
        r, pos = slots[depth]
        above_r, above = slots[depth - 1]
        closed = {color for color, _, _ in ending[above]}
        changed = tuple(
            check for check in ending[pos]
            if (r == above_r and above in check[1:]) or check[0] in closed
        )
        kept = tuple(check for check in ending[pos] if check not in changed)
        return kept, changed

    steps = []
    for depth in range(end):
        r, pos = slots[depth]
        same = dyn = same2 = r2 = ahead = None
        if depth + 1 < end:
            same = slots[depth + 1][0] == r
            dyn = split(depth + 1)[1]
        if depth + 2 < end:
            r2 = slots[depth + 2][0]
            same2 = r2 == r
            ahead = split(depth + 2)[0]
        steps.append((r, pos, ending[pos], same, dyn, same2, r2, ahead))
    return slots, fixed, tuple(steps)


class _Sweep:
    """Backtracking fill of all block entries with per-color pruning.

    State is one class mask per color: a difference d and its negative
    v - d form one class, so a color mask has (v - 1)/2 bits. A line
    commits the three classes of its differences and is rejected on any
    repeat. Because each color must cover v - 1 residues with exactly 6t
    differences, that is 3t classes out of (v - 1)/2, repeat-freedom at
    full depth is the whole condition.

    Candidates are found as bitmasks over the residues. Each line is
    checked at its last position; its two earlier entries a, b are fixed
    along the branch, so ``table[a*v + b][0][m]``, for its color's mask m,
    is the set of last entries the line accepts (``_candidate_table``).
    A position's candidates are the complement of its block's used
    residues ANDed with one such entry per line ending there, walked in
    ascending order. That is the test the differences would give one at a
    time, so the same candidates pass in the same order and the tree, its
    node count and its solution order are those of the direct
    computation.

    Each node is handed its own candidate set and ``nxt``, the part of
    its children's sets that its pick cannot change (forward checking,
    two levels deep). The plan (``_sweep_plan``, built once per order,
    layout and stop depth) splits each position's checks by the pick one
    above: those whose line reads that pick's position or whose color
    that pick closes, and the rest. For each pick the node ANDs the first
    kind into ``nxt``, less the pick's bit within a block, which gives
    the child's set, and evaluates the second kind one level further,
    which gives the grandchildren's part. Both read the same table
    entries in the same state as the child would on entry, so each set is
    exactly the one it would compute itself. When the grandchildren's
    part is empty, no grandchild has a candidate: the child would count
    its own picks and enter none, so the node counts them at once, cut at
    the node budget where one pick at a time would stop, and makes no
    call. The tree, its node count, its solutions and the budget's cut
    point are those of the descent that computes every set on entry.
    """

    def __init__(self, v: int, schema: KaleidoscopeSchema, mode: str,
                 max_nodes: Optional[int] = None):
        self.v = v
        self.schema = schema
        self.mode = mode
        self.max_nodes = max_nodes
        self.t = (v - 1) // (schema.h * (schema.h - 1))
        self.slots, self.fixed, _ = _sweep_plan(v, schema)
        self.table = _candidate_table(v)
        self.pts = [[None] * schema.k for _ in range(self.t)]
        self.used = [0] * self.t
        self.masks = [0] * schema.b
        self.nodes = 0
        self.solutions = 0
        self.first: Optional[tuple] = None
        self.stopped = False
        self.budget_hit = False

    def split_depth(self) -> int:
        free_seen = 0
        for depth, value in enumerate(self.fixed):
            if value is None:
                free_seen += 1
                if free_seen == _SPLIT_FREE_SLOTS:
                    return depth + 1
        return len(self.fixed)

    def run(self, prefix: tuple = (), stop_depth: Optional[int] = None,
            collect: Optional[list] = None):
        self._stop_depth = stop_depth
        self._collect = collect
        # Replayed prefix entries are not counted as nodes.
        self._replay = len(prefix)
        every = (1 << self.v) - 1
        self._allowed = [
            1 << prefix[depth] if depth < len(prefix)
            else every if value is None
            else 1 << value
            for depth, value in enumerate(self.fixed)
        ]
        self._steps = _sweep_plan(self.v, self.schema, stop_depth)[2]
        # No line ends at position 0 and every line ending at position 1
        # reads position 0, so the root's set and its children's unchanged
        # part are the allowed values alone.
        self._descend(0, self._allowed[0], self._allowed[1])

    def _descend(self, depth: int, free: int, nxt: int):
        if depth == self._stop_depth:
            values = tuple(
                self.pts[r][pos] for r, pos in self.slots[:depth]
            )
            self._collect.append(values)
            return
        if depth == len(self.slots):
            self.solutions += 1
            if self.first is None:
                self.first = tuple(tuple(row) for row in self.pts)
            if self.mode == "exists":
                self.stopped = True
            return
        r, pos, own, same, dyn, same2, r2, ahead = self._steps[depth]
        v = self.v
        row = self.pts[r]
        used_at = self.used
        used = used_at[r]
        masks = self.masks
        table = self.table
        closing = [
            (color, table[row[q1] * v + row[q2]][1], masks[color])
            for color, q1, q2 in own
        ]
        if ahead is not None:
            # the grandchild's allowed values less its block's used
            # residues; each pick is taken out below when that block is
            # this one
            base = self._allowed[depth + 2] & ~used_at[r2]
        counted = depth >= self._replay
        child_counted = depth + 1 >= self._replay
        limit = self.max_nodes
        while free:
            bit = free & -free
            free ^= bit
            if counted:
                if limit is not None and self.nodes >= limit:
                    self.stopped = True
                    self.budget_hit = True
                    return
                self.nodes += 1
            val = bit.bit_length() - 1
            # entries past this position are stale and never read
            row[pos] = val
            for color, classes, mask in closing:
                masks[color] = mask | classes[val]
            if dyn is None:
                # the child collects or is a solution
                sub = grand = -1
            else:
                sub = nxt & ~bit if same else nxt
                for color, q1, q2 in dyn:
                    sub &= table[row[q1] * v + row[q2]][0][masks[color]]
                grand = -1
                if sub and ahead is not None:
                    grand = base & ~bit if same2 else base
                    for color, q1, q2 in ahead:
                        grand &= table[row[q1] * v + row[q2]][0][masks[color]]
            if sub and grand:
                used_at[r] = used | bit
                self._descend(depth + 1, sub, grand)
                used_at[r] = used
            elif sub and child_counted:
                # no grandchild has a candidate: the child's picks are
                # all counted here
                self.nodes += sub.bit_count()
                if limit is not None and self.nodes > limit:
                    self.nodes = limit
                    self.stopped = True
                    self.budget_hit = True
            for color, _, mask in closing:
                masks[color] = mask
            if self.stopped:
                return


def serial_sweep_reason(mode: str, max_nodes: Optional[int]) -> Optional[str]:
    """Why a sweep runs in one process whatever jobs asks, or None."""
    if mode == "exists":
        return "exists mode stops at the first family in sweep order"
    if max_nodes is not None:
        return "a node budget is spent in sweep order"
    if not hasattr(os, "fork"):
        return "this platform cannot fork worker processes"
    return None


def _sweep_subtree(payload):
    """Sweep one subtree: (nodes, solutions, first, budget_hit)."""
    v, schema_name, mode, prefix, max_nodes = payload
    sweep = _Sweep(v, builtin_schema(schema_name), mode, max_nodes)
    sweep.run(prefix=prefix)
    return sweep.nodes, sweep.solutions, sweep.first, sweep.budget_hit


# Writes of at most PIPE_BUF bytes to a pipe are atomic; POSIX makes
# PIPE_BUF at least 512.
_ATOMIC_WRITE = 512


def _forked_map(fn, items: list, workers: int) -> list:
    """``[fn(x) for x in items]``, computed in ``workers`` forked children.

    The children inherit ``items``, so only indices are sent: each child
    reads them 4 bytes at a time from one shared pipe, into which the
    parent writes every index in atomic writes of whole indices, so each
    item goes to exactly one child, one at a time. At EOF a child writes
    its ``(index, result)`` pairs, marshalled, to its own pipe and leaves
    by ``os._exit``. The parent reads each child's pipe to EOF and reaps
    it, and raises ``ChildProcessError`` if one exited non-zero. If the
    parent fails or is interrupted, every child left is killed and
    reaped. Results must be marshallable.
    """
    results = [None] * len(items)
    readers = {}  # pid -> read end of that child's result pipe
    reaped = set()
    tasks_r, tasks_w = os.pipe()
    try:
        try:
            for _ in range(workers):
                out_r, out_w = os.pipe()
                try:
                    pid = os.fork()
                    if pid == 0:
                        _map_worker(fn, items, tasks_r, tasks_w, out_w)
                except BaseException:
                    os.close(out_r)
                    raise
                finally:
                    # Only the parent gets here, right after the fork, so
                    # no later child holds this child's result pipe open.
                    os.close(out_w)
                readers[pid] = out_r
        finally:
            os.close(tasks_r)
        try:
            indices = b"".join(
                i.to_bytes(4, "little") for i in range(len(items))
            )
            for at in range(0, len(indices), _ATOMIC_WRITE):
                os.write(tasks_w, indices[at:at + _ATOMIC_WRITE])
        finally:
            os.close(tasks_w)
        for pid, fd in readers.items():
            with open(fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped.add(pid)
            if code:
                raise ChildProcessError(
                    f"worker process {pid} exited with status {code}"
                )
            for i, result in marshal.loads(data):
                results[i] = result
    finally:
        for pid, fd in readers.items():
            os.close(fd)
            if pid not in reaped:
                # only a failed or interrupted map gets here, so start-up
                # does not import signal
                import signal

                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def _map_worker(fn, items, tasks_r, tasks_w, out_w):
    """A ``_forked_map`` child's whole life; it never returns."""
    code = 1
    try:
        os.close(tasks_w)
        done = []
        while index := os.read(tasks_r, 4):
            if len(index) != 4:
                raise OSError(f"read {len(index)} bytes of an index")
            i = int.from_bytes(index, "little")
            done.append((i, fn(items[i])))
        with open(out_w, "wb", closefd=False) as out:
            out.write(marshal.dumps(done))
        code = 0
    except Exception:
        import traceback

        os.write(2, traceback.format_exc().encode())
    finally:
        os._exit(code)


def exhaustive_nonexistence(
    v: int,
    schema_name: str = "fano",
    jobs: int = 1,
    mode: str = "count",
    max_nodes: Optional[int] = None,
    allow_long: bool = False,
) -> NonexistenceCertificate:
    """Sweep every normalized block sequence over the integers mod v.

    Supported orders are primes v = 1 (mod 6), v <= 19. In count mode the
    sweep visits the entire normalized tree and reports how many colored
    families exist; zero with the exhausted flag set is a nonexistence
    certificate. Exists mode stops at the first family. The heavier
    combinations, the nine-point layout at v >= 13 and anything at
    v = 19, must be opted into or given a node budget: nine points at
    v = 13 visit 96,605,589 nodes (about 10 s on two cores), and seven
    points at v = 19 an estimated 6.6e9.

    With jobs > 1 the subtrees are swept by min(jobs, subtrees) forked
    child processes, each taking one subtree at a time; the results are
    merged in subtree order, so every count and the first solution are
    those of one job. Exists mode, a node budget and a platform without
    ``os.fork`` run in one process (see ``serial_sweep_reason``).
    """
    if mode not in ("count", "exists"):
        raise MalformedInput(f"unknown mode {mode!r}")
    _check_jobs(jobs)
    _check_limit("max_nodes", max_nodes)
    schema = builtin_schema(schema_name)
    # The bound comes first, so every large v gets the same refusal.
    if v > 19:
        raise UnsupportedOrder(f"order {v} is beyond the supported sweep")
    if not is_prime(v) or v % 6 != 1:
        raise UnsupportedOrder(f"{v} is not a prime congruent to 1 mod 6")
    if schema.k > v:
        raise UnsupportedOrder(
            f"{schema.k}-point blocks do not fit in {v} points"
        )
    heavy = (schema.k == 9 and v >= 13) or (schema.k == 7 and v == 19)
    if heavy and not allow_long and max_nodes is None:
        raise UnsupportedOrder(
            "this sweep can run very long; pass allow_long=True or set"
            " max_nodes"
        )
    if serial_sweep_reason(mode, max_nodes) is not None:
        jobs = 1
    sweep = _Sweep(v, schema, mode, max_nodes)
    split = sweep.split_depth()
    prefixes: list[tuple] = []
    sweep.run(stop_depth=split, collect=prefixes)
    total_nodes = sweep.nodes
    solutions = 0
    first = None

    def payloads():
        # Read lazily by the serial map, so each subtree gets the budget
        # the earlier ones left; a spent budget stops the sweep.
        for prefix in prefixes:
            remaining = None if max_nodes is None else max_nodes - total_nodes
            if remaining is not None and remaining <= 0:
                return
            yield v, schema_name, mode, prefix, remaining

    if jobs > 1 and len(prefixes) > 1:
        # No more processes than subtrees; each takes one subtree at a
        # time, so one that drew small subtrees takes more of them.
        results = _forked_map(
            _sweep_subtree, list(payloads()), min(jobs, len(prefixes))
        )
    else:
        results = map(_sweep_subtree, payloads())
    finished = 0
    for nodes, sols, fst, budget_hit in results:
        total_nodes += nodes
        solutions += sols
        if first is None:
            first = fst
        if budget_hit or (mode == "exists" and sols):
            break
        finished += 1
    exhausted = not sweep.budget_hit and finished == len(prefixes)
    return NonexistenceCertificate(
        v=v,
        schema=schema_name,
        blocks=sweep.t,
        normalizations=_NORMALIZATIONS,
        subtree_count=len(prefixes),
        nodes_visited=total_nodes,
        solutions=solutions,
        first_solution=first,
        exhausted=exhausted,
        mode=mode,
        jobs=jobs,
    )
