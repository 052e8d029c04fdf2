"""Searches for initial blocks and exhaustive nonexistence sweeps.

An initial block is an ordered block over a field of order q = 1 (mod 6)
each of whose lines spreads its differences over all three cube classes.
Scaling such a block by a transversal of the plus-minus cosets inside the
cube class yields a colored difference family, so searching for families
reduces to searching for one good block.

The line predicate compares class keys. Three nonzero differences lie in
three distinct cube classes exactly when the cubic character
d -> d^((q-1)/3) takes three distinct values on them, whatever the
classes are called. So every check keys on the character and builds no
class table, unless a class label is named or lookups repeat: the
constraint chains name labels such as "the class of 2", and the prefix
search looks the same differences up again and again, so both key on the
memoised ``CyclotomicTable.index``.
"""

from __future__ import annotations

import functools
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .algebra import (
    CyclotomicTable,
    Element,
    Group,
    PrimeField,
    _is_json_int,
    cubic_character,
    element_encoder,
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
    UnsupportedOrder,
    ZeroElement,
)
from .schema import KaleidoscopeSchema, OrderedBlock, builtin_schema

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
    # also name the class of 2, which is 0.
    if field.order % 6 != 1:
        raise BadCongruence(f"field order {field.order} is not 1 mod 6")


# ---------------------------------------------------------------------------
# the core predicate


def _line_spreads(points3, field: Group, key) -> bool:
    """True when the three differences get three distinct class keys.

    ``key`` is ``CyclotomicTable.index`` or a ``cubic_character``.
    """
    a, b, c = points3
    k1 = key(field.sub(a, b))
    k2 = key(field.sub(a, c))
    if k1 == k2:
        return False
    k3 = key(field.sub(b, c))
    return k3 != k1 and k3 != k2


def _schema_for_block(points, schema: Optional[KaleidoscopeSchema]):
    if schema is not None:
        return schema
    if len(points) == 7:
        return builtin_schema("fano")
    if len(points) == 9:
        return builtin_schema("hesse")
    raise MalformedInput(
        f"cannot infer a layout for a block of {len(points)} points"
    )


def _check_points(field: Group, points) -> None:
    for x in points:
        if x not in field:
            raise MalformedInput(f"{x!r} is not an element of this field")


def _listed_block(field: Group, schema, points) -> OrderedBlock:
    """The block a caller lists, each point checked to be a field element."""
    block = OrderedBlock(schema, tuple(points))
    _check_points(field, block.points)
    return block


def _block_is_initial(block: OrderedBlock, field: Group, key) -> bool:
    return all(
        _line_spreads(tuple(line), field, key) for line in block.lines()
    )


def verify_listed_block(
    field: Group,
    points: Sequence,
    schema: Optional[KaleidoscopeSchema] = None,
) -> bool:
    """Full check of a single claimed initial block, every line tested.

    The classes are compared through the cubic character, so no table is
    built.
    """
    schema = _schema_for_block(points, schema)
    key = cubic_character(field)
    block = _listed_block(field, schema, points)
    return _block_is_initial(block, field, key)


def generate_kdf_from_initial_block(
    field: Group,
    points: Sequence,
    schema: Optional[KaleidoscopeSchema] = None,
    mode: str = "canonical",
) -> KaleidoscopicDifferenceFamily:
    """Scale an initial block by a transversal into a full colored family.

    Each line of the block spreads over the three cube classes, and the
    plus-minus orbits of the transversal tile the cubes, so the scaled
    copies of any line tile all nonzero differences once.
    """
    schema = _schema_for_block(points, schema)
    key = cubic_character(field)
    block = _listed_block(field, schema, points)
    for idx, line in enumerate(block.lines()):
        if not _line_spreads(tuple(line), field, key):
            raise NotAnInitialBlock(
                f"line {idx} of {tuple(points)!r} does not spread over the"
                " three classes"
            )
    scalars = transversal(field, mode)
    # Column i holds point i of every scaled copy, in transversal order.
    cols = [field.times(x, scalars) for x in block.points]
    blocks = tuple(OrderedBlock(schema, row) for row in zip(*cols))
    enc = element_encoder(field)
    provenance = {
        "initial_block": list(map(enc, block.points)),
        "transversal_mode": mode,
        "transversal": list(map(enc, scalars)),
        "primitive": enc(primitive_element(field)),
    }
    return KaleidoscopicDifferenceFamily(field, schema, blocks, provenance)


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
        base = table.class_of_int(n)
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
    for x in field.elements():
        if max_candidates is not None and checked >= max_candidates:
            return ConstrainedSearchResult(None, checked, False, False, None)
        checked += 1
        if _meets(field, table, resolved, x):
            return ConstrainedSearchResult(x, checked, False, False, None)
    t = len(constraints)
    bound = Q_BOUNDS.get(t)
    contradicts = bound is not None and field.order > bound
    return ConstrainedSearchResult(None, checked, True, contradicts, bound)


# ---------------------------------------------------------------------------
# direct constructions from constraint chains


def _small_ints(field: Group, n: int) -> list:
    out = [field.zero]
    for _ in range(n):
        out.append(field.add(out[-1], field.one))
    return out


def _first_block(field, schema, key, levels, assemble, backtrack, picked=()):
    """First initial block of a depth-first descent below ``picked``.

    ``levels[m](picked)`` yields the candidates of level m in canonical
    order, given the tuple of earlier picks. At full depth
    ``assemble(picked)`` gives the block's point tuple, which is returned
    as a block if every line spreads. Greedy mode follows the first
    candidate at every level; backtracking mode tries them all. Returns
    None when no branch gives a block.
    """
    if len(picked) == len(levels):
        block = OrderedBlock(schema, assemble(picked))
        return block if _block_is_initial(block, field, key) else None
    for cand in levels[len(picked)](picked):
        found = _first_block(field, schema, key, levels, assemble, backtrack,
                             picked + (cand,))
        if found is not None or not backtrack:
            return found
    return None


def _fano_chains(field, table):
    """Chains for x and y of the block (0, 1, -1, x, -x, y, -y)."""
    zero, one = field.zero, field.one
    neg_one = field.neg(one)
    i = table.class_of_int(2)
    if i == 0:
        chains = [
            lambda _: [(zero, 1), (neg_one, 1), (one, 2)],
            lambda p: [(neg_one, 0), (field.neg(p[0]), 0), (one, 1),
                       (zero, 2), (p[0], 2)],
        ]
    else:
        i2 = (2 * i) % 3
        chains = [
            lambda _: [(neg_one, 0), (zero, i), (one, i2)],
            lambda p: [(field.neg(p[0]), 0), (one, i), (p[0], i),
                       (zero, i2), (neg_one, i2)],
        ]

    def assemble(p):
        x, y = p
        return (zero, one, neg_one, x, field.neg(x), y, field.neg(y))

    return chains, assemble


def _hesse_chains(field, table):
    """Chains for c3..c7 of the block (0, 1, 2, 3, c3, ..., c7)."""
    small = zero, one, two, three = tuple(_small_ints(field, 3))
    i, j = table.class_of_int(2), table.class_of_int(3)
    i1, i2, j1, j2 = (i + 1) % 3, (i + 2) % 3, (j + 1) % 3, (j + 2) % 3
    chains = [
        lambda _: [(zero, 0), (three, 0), (one, 1), (two, 2)],
        lambda c: [(c[0], 0), (zero, 1), (two, 1), (one, 2), (three, 2)],
        lambda c: [(c[1], 0), (one, 1), (three, 1), (c[0], 2),
                   (zero, i1), (two, i2)],
        lambda c: [(c[2], 0), (two, 1), (c[0], 1), (one, 2), (c[1], 2),
                   (zero, j1), (three, j2)],
        lambda c: [(c[3], 0), (zero, 1), (c[1], 1), (two, 2), (c[0], 2),
                   (c[2], 2), (one, i1), (three, i2)],
    ]
    return chains, lambda c: small + c


_CHAINS = {"fano": _fano_chains, "hesse": _hesse_chains}


def asymptotic_initial_block(
    field: Group,
    schema_name: str = "fano",
    backtrack: bool = False,
) -> Optional[OrderedBlock]:
    """Build an initial block from the fixed constraint chains.

    The chains force every line of the assembled block to spread over the
    three classes, so success implies validity. Greedy mode takes the
    smallest member of each chain in turn, given the earlier picks, in
    both layouts, and gives up when a chain is empty, which can happen
    over small fields. Backtracking mode explores all chain members.
    """
    _check_block_field(field)
    table = CyclotomicTable(field, 3)
    if schema_name not in _CHAINS:
        raise MalformedInput(
            f"no chain construction for layout {schema_name!r}"
        )
    chains, assemble = _CHAINS[schema_name](field, table)
    levels = [lambda p, c=c: _iter_constrained(field, table, c(p))
              for c in chains]
    return _first_block(field, builtin_schema(schema_name), table.index,
                        levels, assemble, backtrack)


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
    pts = list(prefix)
    _check_points(field, pts)
    if len(set(pts)) != len(pts):
        raise DuplicateElements("prefix has a repeated point")
    if len(pts) >= schema.k:
        raise MalformedInput("prefix fills the whole block")
    # per position: a getter of the points of each line ending there
    checks_at = [
        [itemgetter(*line) for line in schema.lines if max(line) == m]
        for m in range(schema.k)
    ]
    for m in range(len(pts)):
        for line in checks_at[m]:
            if not _line_spreads(line(pts), field, key):
                return None
    start = tuple(pts)
    used = set(pts)
    elems = field.elements()

    def extend(_picked):
        # ``pts`` and ``used`` hold the branch: the descent resumes the
        # innermost level first, so each level undoes its own pick.
        lines = checks_at[len(pts)]
        for cand in elems:
            if cand in used:
                continue
            pts.append(cand)
            if all(_line_spreads(line(pts), field, key) for line in lines):
                used.add(cand)
                yield cand
                used.discard(cand)
            pts.pop()

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
    for positions in shortcut:
        if not _line_spreads(tuple(pts[q] for q in positions), field, key):
            return None
    # The shortcut lines suffice by the scaling identities, but confirm
    # against the full predicate anyway; a disagreement means a bug.
    schema = builtin_schema(schema_name)
    block = OrderedBlock(schema, pts)
    if not _block_is_initial(block, field, key):
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
    or when ``max_candidates`` runs out before one does.
    """
    _check_limit("max_candidates", max_candidates)
    if form not in _FORMS:
        raise MalformedInput(f"unknown form {form!r}")
    elems = field.elements()
    if max_candidates is not None:
        elems = elems[:max_candidates]
    key = cubic_character(field)
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
        chi = cubic_character(make_group(PrimeField(p)))
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
        return {
            "v": self.v,
            "schema": self.schema,
            "blocks": self.blocks,
            "normalizations": list(self.normalizations),
            "subtree_count": self.subtree_count,
            "nodes_visited": self.nodes_visited,
            "solutions": self.solutions,
            "first_solution": (
                [list(b) for b in self.first_solution]
                if self.first_solution is not None
                else None
            ),
            "exhausted": self.exhausted,
            "mode": self.mode,
            "jobs": self.jobs,
        }


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
    A node ANDs the complement of its block's used residues with one such
    entry per line ending at its position, and walks the set bits in
    ascending order. That is the test the differences would give one at a
    time, so the same candidates pass in the same order and the tree, its
    node count and its solution order are those of the direct
    computation.

    A node also looks one position ahead (forward checking) where the
    next position is in the same block, is neither the end nor the
    collecting depth, and has no line reading this position. Each color
    has one line per block, so the pick here changes neither the masks
    nor the row entries those lines read: every child's candidate set is
    one value ``nxt``, computed once per node, less the child's own bit.
    A sibling whose set is empty is counted as a node and not entered;
    when ``nxt`` is 0 all siblings are counted at once, the count cut at
    the node budget. Those children would have found no candidate, so
    the tree, its node count, its solutions and the budget's cut point
    are the same.
    """

    def __init__(self, v: int, schema: KaleidoscopeSchema, mode: str,
                 max_nodes: Optional[int] = None):
        self.v = v
        self.schema = schema
        self.mode = mode
        self.max_nodes = max_nodes
        self.t = (v - 1) // (schema.h * (schema.h - 1))
        k = schema.k
        self.slots = [(r, pos) for r in range(self.t) for pos in range(k)]
        self.fixed = {(r, 0): 0 for r in range(self.t)}
        self.fixed[(0, 1)] = 1
        self.table = _candidate_table(v)
        # per position: (color, q1, q2) for each line ending there
        self.checks_at = [
            [
                (color, *(q for q in line if q != m))
                for color, line in enumerate(schema.lines)
                if max(line) == m
            ]
            for m in range(k)
        ]
        self.pts = [[None] * k for _ in range(self.t)]
        self.used = [0] * self.t
        self.masks = [0] * schema.b
        self.nodes = 0
        self.solutions = 0
        self.first: Optional[tuple] = None
        self.stopped = False
        self.budget_hit = False

    def split_depth(self) -> int:
        free_seen = 0
        for depth, slot in enumerate(self.slots):
            if slot not in self.fixed:
                free_seen += 1
                if free_seen == _SPLIT_FREE_SLOTS:
                    return depth + 1
        return len(self.slots)

    def run(self, prefix: tuple = (), stop_depth: Optional[int] = None,
            collect: Optional[list] = None):
        self._stop_depth = stop_depth
        self._collect = collect
        # Replayed prefix entries are not counted as nodes.
        self._replay = len(prefix)
        every = (1 << self.v) - 1
        self._allowed = [
            1 << prefix[depth] if depth < len(prefix)
            else 1 << self.fixed[slot] if slot in self.fixed
            else every
            for depth, slot in enumerate(self.slots)
        ]
        # per depth: the checks of the next position when the pick here
        # cannot change them, else None
        self._ahead = []
        for depth, (r, pos) in enumerate(self.slots):
            child = depth + 1
            ahead = None
            if child not in (stop_depth, len(self.slots)):
                r2, pos2 = self.slots[child]
                checks = self.checks_at[pos2]
                if r2 == r and all(pos not in qs for _, *qs in checks):
                    ahead = checks
            self._ahead.append(ahead)
        self._descend(0)

    def _descend(self, depth: int):
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
        r, pos = self.slots[depth]
        v = self.v
        row = self.pts[r]
        used = self.used[r]
        masks = self.masks
        table = self.table
        free = self._allowed[depth] & ~used
        checks = []
        for color, q1, q2 in self.checks_at[pos]:
            cands, classes = table[row[q1] * v + row[q2]]
            mask = masks[color]
            free &= cands[mask]
            checks.append((color, classes, mask))
        # every child's candidates, less its own bit; -1 when not known
        nxt = -1
        ahead = self._ahead[depth]
        if ahead is not None:
            nxt = self._allowed[depth + 1] & ~used
            for color, q1, q2 in ahead:
                nxt &= table[row[q1] * v + row[q2]][0][masks[color]]
        counted = depth >= self._replay
        limit = self.max_nodes
        if not nxt and counted:
            self.nodes += free.bit_count()
            if limit is not None and self.nodes > limit:
                self.nodes = limit
                self.stopped = True
                self.budget_hit = True
            return
        while free:
            bit = free & -free
            free ^= bit
            if counted:
                if limit is not None and self.nodes >= limit:
                    self.stopped = True
                    self.budget_hit = True
                    return
                self.nodes += 1
            if not nxt & ~bit:
                continue
            val = bit.bit_length() - 1
            # entries past this position are stale and never read
            row[pos] = val
            self.used[r] = used | bit
            for color, classes, mask in checks:
                masks[color] = mask | classes[val]
            self._descend(depth + 1)
            for color, _, mask in checks:
                masks[color] = mask
            self.used[r] = used
            if self.stopped:
                return


def serial_sweep_reason(mode: str, max_nodes: Optional[int]) -> Optional[str]:
    """Why a sweep runs in one process whatever jobs asks, or None."""
    if mode == "exists":
        return "exists mode stops at the first family in sweep order"
    if max_nodes is not None:
        return "a node budget is spent in sweep order"
    return None


def _sweep_subtree(payload):
    """Sweep one subtree: (nodes, solutions, first, budget_hit)."""
    v, schema_name, mode, prefix, max_nodes = payload
    sweep = _Sweep(v, builtin_schema(schema_name), mode, max_nodes)
    sweep.run(prefix=prefix)
    return sweep.nodes, sweep.solutions, sweep.first, sweep.budget_hit


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
    v = 13 visit 96,605,589 nodes (about 15 s on two cores), and seven
    points at v = 19 an estimated 6.6e9. Exists mode and a node budget
    run in one process (see ``serial_sweep_reason``).
    """
    if mode not in ("count", "exists"):
        raise MalformedInput(f"unknown mode {mode!r}")
    _check_jobs(jobs)
    _check_limit("max_nodes", max_nodes)
    schema = builtin_schema(schema_name)
    # The bound comes first: trial division of a large v would run for
    # hours before the refusal.
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
        # About four batches per process: few round trips, yet a process
        # that drew small subtrees still takes another batch.
        chunksize = -(-len(prefixes) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(
                pool.map(_sweep_subtree, payloads(), chunksize=chunksize)
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
