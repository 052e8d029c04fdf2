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
import multiprocessing
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .algebra import (
    CyclotomicTable,
    Element,
    Group,
    PrimeField,
    cubic_character,
    descriptor_from_json,
    descriptor_to_json,
    element_to_json,
    is_prime,
    make_group,
    primitive_element,
    transversal,
)
from .designs import KaleidoscopicDifferenceFamily, scale_block
from .errors import (
    DuplicateElements,
    MalformedInput,
    NotAnInitialBlock,
    UnsupportedOrder,
)
from .schema import KaleidoscopeSchema, OrderedBlock, builtin_schema

__all__ = [
    "Q_BOUNDS",
    "SearchBudget",
    "CyclotomicConstraint",
    "ConstrainedSearchResult",
    "evenly_distributed",
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
    "serial_parametric_reason",
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


@dataclass(frozen=True)
class SearchBudget:
    max_candidates: Optional[int] = None
    chunk_size: int = 4096
    jobs: int = 1

    def __post_init__(self):
        _check_jobs(self.jobs)
        _check_limit("max_candidates", self.max_candidates)


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


def evenly_distributed(line: Iterable, table: CyclotomicTable) -> bool:
    """True when the three pairwise differences land in three classes.

    Sign does not matter because -1 is a cube in every field of order
    1 (mod 6).
    """
    if table.e != 3:
        raise MalformedInput("even distribution is a three-class notion")
    pts = tuple(line)
    if len(pts) != 3 or len(set(pts)) != 3:
        raise DuplicateElements(f"need 3 distinct elements, got {pts!r}")
    return _line_spreads(pts, table.field, table.index)


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


def _listed_block(field: Group, schema, points) -> OrderedBlock:
    """The block a caller lists, each point checked to be a field element."""
    block = OrderedBlock(schema, tuple(points))
    for x in block.points:
        if x not in field:
            raise MalformedInput(f"{x!r} is not an element of this field")
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
    blocks = tuple(scale_block(block, s, field) for s in scalars)
    provenance = {
        "initial_block": [element_to_json(field, x) for x in block.points],
        "transversal_mode": mode,
        "transversal": [element_to_json(field, s) for s in scalars],
        "primitive": element_to_json(field, primitive_element(field)),
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
    if isinstance(klass, int):
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
    base = table.class_of_int(2 if match.group(2) == "i" else 3)
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
    budget: Optional[SearchBudget] = None,
) -> ConstrainedSearchResult:
    """Canonically smallest element satisfying every class constraint.

    When the whole field is swept without a hit and its order exceeds the
    recorded bound for this many constraints, the result carries a
    contradiction flag: by the counting bound such a chain cannot be
    empty, so either the constraints are mutually inconsistent or
    something upstream is wrong.
    """
    table = CyclotomicTable(field, 3)
    resolved = [(c.shift, _resolve_class(c.klass, table)) for c in constraints]
    limit = budget.max_candidates if budget else None
    checked = 0
    for x in field.elements():
        if limit is not None and checked >= limit:
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


def asymptotic_initial_block(
    field: Group,
    schema_name: str = "fano",
    backtrack: bool = False,
) -> Optional[OrderedBlock]:
    """Build an initial block from the fixed constraint chains.

    The chains force every line of the assembled block to spread over the
    three classes, so success implies validity. Greedy mode takes the
    smallest element of each chain and gives up when a chain is empty,
    which can happen over small fields. Backtracking mode explores all
    chain members.
    """
    table = CyclotomicTable(field, 3)
    if schema_name == "fano":
        return _asymptotic_fano(field, table, backtrack)
    if schema_name == "hesse":
        return _asymptotic_hesse(field, table, backtrack)
    raise MalformedInput(f"no chain construction for layout {schema_name!r}")


def _asymptotic_fano(field, table, backtrack):
    zero = field.zero
    one = field.one
    neg_one = field.neg(one)
    i = table.class_of_int(2)
    if i == 0:
        x_chain = [(zero, 1), (neg_one, 1), (one, 2)]

        def y_chain(xb):
            return [
                (neg_one, 0),
                (field.neg(xb), 0),
                (one, 1),
                (zero, 2),
                (xb, 2),
            ]

    else:
        i2 = (2 * i) % 3
        x_chain = [(neg_one, 0), (zero, i), (one, i2)]

        def y_chain(xb):
            return [
                (field.neg(xb), 0),
                (one, i),
                (xb, i),
                (zero, i2),
                (neg_one, i2),
            ]

    schema = builtin_schema("fano")
    for xb in _iter_constrained(field, table, x_chain):
        for yb in _iter_constrained(field, table, y_chain(xb)):
            block = OrderedBlock(
                schema,
                (zero, one, neg_one, xb, field.neg(xb), yb, field.neg(yb)),
            )
            if _block_is_initial(block, field, table.index):
                return block
        if not backtrack:
            return None
    return None


def _asymptotic_hesse(field, table, backtrack):
    zero, one, two, three = _small_ints(field, 3)
    i = table.class_of_int(2)
    j = table.class_of_int(3)

    def c3(_):
        return [(zero, 0), (three, 0), (one, 1), (two, 2)]

    def c4(bs):
        return [(bs[0], 0), (zero, 1), (two, 1), (one, 2), (three, 2)]

    def c5(bs):
        return [
            (bs[1], 0),
            (one, 1),
            (three, 1),
            (bs[0], 2),
            (zero, (i + 1) % 3),
            (two, (i + 2) % 3),
        ]

    def c6(bs):
        return [
            (bs[2], 0),
            (two, 1),
            (bs[0], 1),
            (one, 2),
            (bs[1], 2),
            (zero, (j + 1) % 3),
            (three, (j + 2) % 3),
        ]

    def c7(bs):
        return [
            (bs[3], 0),
            (zero, 1),
            (bs[1], 1),
            (two, 2),
            (bs[0], 2),
            (bs[2], 2),
            (one, (i + 1) % 3),
            (three, (i + 2) % 3),
        ]

    chains = [c3, c4, c5, c6, c7]
    schema = builtin_schema("hesse")

    def descend(bs: tuple) -> Optional[OrderedBlock]:
        if len(bs) == 5:
            block = OrderedBlock(schema, (zero, one, two, three) + bs)
            if _block_is_initial(block, field, table.index):
                return block
            return None
        chain = chains[len(bs)](bs)
        for cand in _iter_constrained(field, table, chain):
            found = descend(bs + (cand,))
            if found is not None:
                return found
            if not backtrack:
                return None
        return None

    return descend(())


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
    """
    schema = builtin_schema(schema_name) if isinstance(schema_name, str) else schema_name
    key = CyclotomicTable(field, 3).index
    if prefix is None:
        n = 4 if schema.k == 9 else 2
        prefix = tuple(_small_ints(field, n - 1))
    pts = list(prefix)
    if len(set(pts)) != len(pts):
        raise DuplicateElements("prefix has a repeated point")
    if len(pts) >= schema.k:
        raise MalformedInput("prefix fills the whole block")
    checks_at = [
        [line for line in schema.lines if max(line) == m]
        for m in range(schema.k)
    ]
    for m in range(len(pts)):
        for line in checks_at[m]:
            if not _line_spreads(tuple(pts[q] for q in line), field, key):
                return None
    used = set(pts)
    elems = field.elements()

    def descend(m: int) -> bool:
        if m == schema.k:
            return True
        for cand in elems:
            if cand in used:
                continue
            pts.append(cand)
            ok = all(
                _line_spreads(tuple(pts[q] for q in line), field, key)
                for line in checks_at[m]
            )
            if ok:
                used.add(cand)
                if descend(m + 1):
                    return True
                used.discard(cand)
            pts.pop()
        return False

    if descend(len(pts)):
        return OrderedBlock(schema, tuple(pts))
    return None


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


@functools.lru_cache(maxsize=2)
def _chunk_field(desc):
    """Field, class key and elements for chunk workers.

    Cached per process, so a pool process builds the field once for all
    the chunks it runs.
    """
    field = make_group(desc)
    return field, cubic_character(field), field.elements()


# Set in each pool process by ``_init_chunk_worker``: the event the parent
# sets once it holds the first hit, so running chunks stop early.
_chunk_stop = None
# Candidates a chunk tries between two looks at the event.
_STOP_CHECK_EVERY = 256


def _init_chunk_worker(stop) -> None:
    global _chunk_stop
    _chunk_stop = stop


def _parametric_chunk(payload):
    """First hit in one chunk, or None; None too once told to stop."""
    desc_json, form, start, stop = payload
    field, key, elems = _chunk_field(descriptor_from_json(desc_json))
    for base in range(start, stop, _STOP_CHECK_EVERY):
        if _chunk_stop is not None and _chunk_stop.is_set():
            return None
        for idx in range(base, min(base + _STOP_CHECK_EVERY, stop)):
            if _try_form_candidate(field, key, form, elems[idx]) is not None:
                return idx
    return None


def parametric_search(
    field: Group,
    form: str,
    budget: Optional[SearchBudget] = None,
) -> Optional[ParametricResult]:
    """Smallest parameter x whose block form is a valid initial block.

    Candidates run in canonical order, screened by the form's reduced
    line list and then confirmed in full. Returns none when no x works,
    or when ``max_candidates`` runs out before one does. ``jobs`` above 1
    is used unless ``serial_parametric_reason`` gives a reason not to;
    even then the first chunk runs here, and a pool is started for the
    other chunks only when the first one misses.
    """
    if form not in _FORMS:
        raise MalformedInput(f"unknown form {form!r}")
    budget = budget or SearchBudget()
    elems = field.elements()
    total = len(elems)
    if budget.max_candidates is not None:
        total = min(total, budget.max_candidates)
    serial = serial_parametric_reason(total, budget.chunk_size) is not None
    parallel = budget.jobs > 1 and not serial
    here = min(total, budget.chunk_size) if parallel else total
    key = cubic_character(field)
    hit = next(
        (
            idx
            for idx in range(here)
            if _try_form_candidate(field, key, form, elems[idx]) is not None
        ),
        None,
    )
    if hit is None and parallel:
        hit = _parallel_first_index(field, form, here, total, budget)
    if hit is None:
        return None
    x = elems[hit]
    pts = _try_form_candidate(field, key, form, x)
    return ParametricResult(x, pts, hit + 1)


def _parallel_first_index(field, form, start, total, budget):
    """The serial loop's first hit from ``start`` on, from chunks run
    across the pool.

    Chunk results are read in order, so every chunk before the first hit
    has come back empty when it is read. Then the pending chunks are
    cancelled, and the running ones, all later than the hit, stop at
    their next look at the shared event.
    """
    desc_json = descriptor_to_json(field.descriptor)
    chunks = [
        (desc_json, form, lo, min(lo + budget.chunk_size, total))
        for lo in range(start, total, budget.chunk_size)
    ]
    stop = multiprocessing.Event()
    with ProcessPoolExecutor(
        max_workers=budget.jobs,
        initializer=_init_chunk_worker,
        initargs=(stop,),
    ) as pool:
        futures = [pool.submit(_parametric_chunk, c) for c in chunks]
        try:
            for fut in futures:
                idx = fut.result()
                if idx is not None:
                    return idx
        finally:
            stop.set()
            for fut in futures:
                fut.cancel()
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
        counted = depth >= self._replay
        limit = self.max_nodes
        while free:
            bit = free & -free
            free ^= bit
            val = bit.bit_length() - 1
            if counted:
                if limit is not None and self.nodes >= limit:
                    self.stopped = True
                    self.budget_hit = True
                    return
                self.nodes += 1
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


def serial_parametric_reason(
    candidates: int, chunk_size: int
) -> Optional[str]:
    """Why a parametric search runs in one process whatever jobs asks, or
    None. A pool is started only for more than two chunks of candidates."""
    if candidates <= 2 * chunk_size:
        return f"{candidates} candidates fit in two chunks of {chunk_size}"
    return None


def _sweep_worker(payload):
    v, schema_name, prefix = payload
    sweep = _Sweep(v, builtin_schema(schema_name), "count")
    sweep.run(prefix=prefix)
    return sweep.nodes, sweep.solutions, sweep.first


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
    v = 13 visit 96,605,589 nodes (about 64 s on two cores), and seven
    points at v = 19 an estimated 6.6e9. Exists mode and a node budget
    run in one process (see ``serial_sweep_reason``).
    """
    if mode not in ("count", "exists"):
        raise MalformedInput(f"unknown mode {mode!r}")
    _check_jobs(jobs)
    _check_limit("max_nodes", max_nodes)
    schema = builtin_schema(schema_name)
    if not is_prime(v) or v % 6 != 1:
        raise UnsupportedOrder(f"{v} is not a prime congruent to 1 mod 6")
    if v > 19:
        raise UnsupportedOrder(f"order {v} is beyond the supported sweep")
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
    exhausted = not sweep.budget_hit
    if exhausted and jobs > 1 and len(prefixes) > 1:
        payloads = [(v, schema_name, p) for p in prefixes]
        # About four batches per process: few round trips, yet a process
        # that drew small subtrees still takes another batch.
        chunksize = -(-len(payloads) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = pool.map(_sweep_worker, payloads, chunksize=chunksize)
            for nodes, sols, fst in results:
                total_nodes += nodes
                solutions += sols
                if first is None and fst is not None:
                    first = fst
    elif exhausted:
        for prefix in prefixes:
            remaining = None
            if max_nodes is not None:
                remaining = max_nodes - total_nodes
                if remaining <= 0:
                    exhausted = False
                    break
            cont = _Sweep(v, schema, mode, remaining)
            cont.run(prefix=prefix)
            total_nodes += cont.nodes
            solutions += cont.solutions
            if first is None and cont.first is not None:
                first = cont.first
            if cont.budget_hit:
                exhausted = False
                break
            if mode == "exists" and cont.solutions:
                exhausted = False
                break
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
