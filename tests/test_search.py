"""Block searches: constrained chains, parametric forms, exhaustive sweeps."""

import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from itertools import permutations

import pytest

from kaleido.algebra import (
    CyclotomicTable,
    ExtensionField,
    PrimeField,
    find_irreducible,
    is_prime,
    make_group,
)
from kaleido.designs import verify_kdf
from kaleido.errors import (
    BadCongruence,
    DuplicateElements,
    MalformedInput,
    NotAnInitialBlock,
    UnsupportedOrder,
)
from kaleido.schema import KaleidoscopeSchema, builtin_schema
from kaleido.search import (
    FANO_AFFINE,
    FANO_POWERS,
    HESSE_POWERS,
    Q_BOUNDS,
    CyclotomicConstraint,
    asymptotic_initial_block,
    exhaustive_nonexistence,
    find_constrained_element,
    form_block,
    generate_kdf_from_initial_block,
    parametric_search,
    prefix_block_search,
    consecutive_block_primes,
    verify_listed_block,
)
from kaleido import search as search_module

F19 = make_group(PrimeField(19))
T19 = CyclotomicTable(F19, 3)


# -- listed blocks ------------------------------------------------------------


def test_verify_listed_block():
    f37 = make_group(PrimeField(37))
    assert verify_listed_block(f37, (0, 1, 2, 13, 14, 34, 26))
    assert not verify_listed_block(f37, (0, 1, 2, 13, 14, 34, 25))


# -- scaling an initial block into a family ----------------------------------


def test_generate_family_sixth_powers():
    kdf = generate_kdf_from_initial_block(
        F19, (0, 1, 2, 4, 5, 11, 8), mode="sixth_powers"
    )
    got = list(kdf.blocks)
    assert got == [
        (0, 1, 2, 4, 5, 11, 8),
        (0, 7, 14, 9, 16, 1, 18),
        (0, 11, 3, 6, 17, 7, 12),
    ]
    assert verify_kdf(kdf).valid
    assert kdf.provenance["transversal"] == [1, 7, 11]


def test_generate_family_canonical():
    kdf = generate_kdf_from_initial_block(F19, (0, 1, 2, 4, 5, 11, 8))
    assert kdf.provenance["transversal"] == [1, 7, 8]
    assert kdf.provenance["transversal_mode"] == "canonical"
    assert verify_kdf(kdf).valid


def test_generate_family_nine_points():
    kdf = generate_kdf_from_initial_block(
        F19, (0, 1, 2, 3, 7, 16, 8, 4, 10), mode="sixth_powers"
    )
    assert len(kdf.blocks) == 3
    assert verify_kdf(kdf).valid


def test_generate_family_names_failing_line():
    with pytest.raises(NotAnInitialBlock) as err:
        generate_kdf_from_initial_block(F19, (0, 1, 2, 3, 4, 5, 6))
    assert "line 0" in str(err.value)


@pytest.mark.parametrize("p,d", [(3, 2), (2, 4)], ids=["q9", "q16"])
def test_generate_family_refuses_a_field_not_1_mod_6(p, d):
    # refused before any line is read, as by verify_listed_block
    field = make_group(ExtensionField(p, find_irreducible(p, d)))
    with pytest.raises(BadCongruence) as err:
        generate_kdf_from_initial_block(field, field.elements()[:7])
    assert str(err.value) == f"field order {p ** d} is not 1 mod 6"


@pytest.mark.parametrize("d", [2, 4, 6], ids=["q4", "q16", "q64"])
def test_parametric_search_refuses_a_field_not_1_mod_6(d):
    # 3 divides q - 1, but q is even: refused before any candidate, as by
    # the other block searches
    field = make_group(ExtensionField(2, find_irreducible(2, d)))
    for form in (FANO_AFFINE, FANO_POWERS, HESSE_POWERS):
        with pytest.raises(BadCongruence) as err:
            parametric_search(field, form)
        assert str(err.value) == f"field order {2 ** d} is not 1 mod 6"


# PG(2, 3): the 13 translates of {0, 1, 3, 9} mod 13, lines of 4 points;
# and the three point pairs of a triangle, lines of 2.
PG23 = KaleidoscopeSchema(
    "pg23",
    13,
    4,
    tuple(
        tuple(sorted((x + i) % 13 for x in (0, 1, 3, 9))) for i in range(13)
    ),
)
PAIRS = KaleidoscopeSchema("pairs", 3, 2, ((0, 1), (0, 2), (1, 2)))


@pytest.mark.parametrize("layout", [PG23, PAIRS], ids=["h4", "h2"])
def test_listed_blocks_need_lines_of_three_points(layout):
    field = make_group(PrimeField(79))
    row = tuple(range(layout.k))
    want = (
        f"layout {layout.name!r} has lines of {layout.h} points;"
        " an initial block needs lines of 3"
    )
    with pytest.raises(MalformedInput) as err:
        generate_kdf_from_initial_block(field, row, layout)
    assert str(err.value) == want
    with pytest.raises(MalformedInput) as err:
        verify_listed_block(field, row, layout)
    assert str(err.value) == want


# -- constrained element search ----------------------------------------------


def test_q_bounds_table():
    assert Q_BOUNDS == {
        1: 1,
        2: 36,
        3: 939,
        4: 19350,
        5: 326661,
        6: 4790260,
        7: 64391800,
        8: 808659000,
    }


def test_find_constrained_smallest_cube():
    res = find_constrained_element(F19, [CyclotomicConstraint(0, 0)])
    assert res.element == 1
    assert res.checked == 2  # zero itself never qualifies
    assert not res.exhausted


def test_find_constrained_symbolic_classes():
    # over F19 both 2 and 3 sit in class 1, so i and j resolve alike
    for klass, want in (("i", 2), ("j", 2), ("i+1", 4), ("2i", 4)):
        res = find_constrained_element(
            F19, [CyclotomicConstraint(0, klass)]
        )
        assert res.element == want, klass


def test_find_constrained_shifted():
    # x with x - 1 a cube and x - 0 in class 1
    res = find_constrained_element(
        F19,
        [CyclotomicConstraint(1, 0), CyclotomicConstraint(0, 1)],
    )
    x = res.element
    assert x is not None
    assert T19.index((x - 1) % 19) == 0
    assert T19.index(x) == 1


def test_contradiction_flag_above_bound():
    """An impossible pair over a field larger than the two-constraint
    bound must raise the contradiction flag; the same pair over a small
    field exhausts quietly."""
    impossible = [CyclotomicConstraint(0, 0), CyclotomicConstraint(0, 1)]
    big = find_constrained_element(make_group(PrimeField(37)), impossible)
    assert big.element is None
    assert big.exhausted
    assert big.contradicts_bound
    assert big.bound == 36
    small = find_constrained_element(make_group(PrimeField(7)), impossible)
    assert small.element is None
    assert small.exhausted
    assert not small.contradicts_bound


def test_find_constrained_budget():
    res = find_constrained_element(
        F19,
        [CyclotomicConstraint(0, 2)],
        max_candidates=1,
    )
    assert res.element is None
    assert res.checked == 1
    assert not res.exhausted


# -- chain-built blocks -------------------------------------------------------


def test_asymptotic_fano_541():
    f = make_group(PrimeField(541))
    blk = asymptotic_initial_block(f, "fano")
    assert blk.points == (0, 1, 540, 5, 536, 3, 538)
    assert verify_listed_block(f, blk.points)


def test_asymptotic_hesse_backtrack_937():
    f = make_group(PrimeField(937))
    blk = asymptotic_initial_block(f, "hesse", backtrack=True)
    assert blk.points == (0, 1, 2, 3, 408, 860, 140, 524, 694)
    assert verify_listed_block(f, blk.points)


def test_asymptotic_hesse_greedy_10009():
    f = make_group(PrimeField(10009))
    blk = asymptotic_initial_block(f, "hesse")
    assert blk.points == (0, 1, 2, 3, 7, 96, 2058, 1003, 143)
    assert verify_listed_block(f, blk.points)


@pytest.mark.parametrize("p", [7, 13, 19, 31, 37, 43, 61, 103])
def test_asymptotic_valid_or_none(p):
    """Greedy chains may come up empty over small fields, but whatever
    they return must be a genuine initial block."""
    f = make_group(PrimeField(p))
    for name in ("fano", "hesse"):
        blk = asymptotic_initial_block(f, name)
        if blk is not None:
            assert verify_listed_block(f, blk.points)


_LARGE_FIELD_CHAINS = """
import json
from kaleido.algebra import PrimeField, make_group
from kaleido.search import asymptotic_initial_block, verify_listed_block
f = make_group(PrimeField(10000141))
blocks = [asymptotic_initial_block(f, s).points for s in ("fano", "hesse")]
assert all(verify_listed_block(f, b) for b in blocks)
print(json.dumps(blocks))
"""


def test_asymptotic_chains_at_ten_million_hold_no_field_state(run_with_peak):
    """Both chains at q = 10,000,141 in a fresh process, under 60 MB peak:
    nothing the size of the field is built."""
    proc, peak = run_with_peak(_LARGE_FIELD_CHAINS, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [0, 1, 10000140, 88, 10000053, 526, 9999615],
        [0, 1, 2, 3, 60, 264, 2073, 1172, 524],
    ]
    assert peak < 60 * 1024, peak


def test_asymptotic_unknown_layout():
    with pytest.raises(MalformedInput):
        asymptotic_initial_block(F19, "triangle")


def test_prefix_search_109():
    f = make_group(PrimeField(109))
    blk = prefix_block_search(f, "hesse")
    assert blk.points == (0, 1, 2, 3, 11, 12, 24, 36, 23)
    assert verify_listed_block(f, blk.points)


def test_prefix_search_fano_default():
    blk = prefix_block_search(F19, "fano")
    assert blk is not None
    assert blk.points[:2] == (0, 1)
    assert verify_listed_block(F19, blk.points)


def test_prefix_search_custom_prefix():
    blk = prefix_block_search(F19, "fano", prefix=(0, 1, 2))
    assert blk is not None
    assert blk.points[:3] == (0, 1, 2)
    assert verify_listed_block(F19, blk.points)


def test_prefix_search_bad_prefixes():
    with pytest.raises(DuplicateElements):
        prefix_block_search(F19, "fano", prefix=(0, 0))
    with pytest.raises(MalformedInput):
        prefix_block_search(F19, "fano", prefix=tuple(range(7)))


def test_prefix_search_refuses_a_point_outside_the_field():
    # 21 is no residue mod 19; unchecked, it reached the class table
    with pytest.raises(MalformedInput, match="^21 is not an element of this"):
        prefix_block_search(F19, "fano", prefix=(0, 1, 21))


def test_prefix_search_dead_prefix():
    # positions 0, 1, 3 hold 0, 1, 3, whose differences 1, 3, 2 repeat a
    # class over F19, so the first line is dead before the search starts
    assert prefix_block_search(F19, "fano", prefix=(0, 1, 2, 3)) is None


def _block_searches(field) -> list:
    """Both chain layouts in both modes, then both prefix searches."""
    enc = field.encoder()

    def points(block):
        return None if block is None else [enc(x) for x in block.points]

    return [
        [points(asymptotic_initial_block(field, name, backtrack))
         for name in ("fano", "hesse") for backtrack in (False, True)],
        [points(prefix_block_search(field, name))
         for name in ("fano", "hesse")],
    ]


def test_block_searches_pinned():
    """Every chain and prefix search over 90 fields, as one digest.

    The digest was taken before the searches shared one descent: the 80
    primes = 1 (mod 6) below 1000, then eight prime squares and two prime
    cubes on their canonical moduli.
    """
    fields = [make_group(PrimeField(p)) for p in range(7, 1000, 6)
              if is_prime(p)]
    for p, d in ((5, 2), (11, 2), (17, 2), (7, 2), (13, 2), (23, 2),
                 (29, 2), (7, 3), (13, 3), (41, 2)):
        fields.append(make_group(ExtensionField(p, find_irreducible(p, d))))
    assert len(fields) == 90
    assert _digest([_block_searches(f) for f in fields]) == (
        "bd5b019af42ba6a23f933614e930a120f878438618b032ff2f957809fb49a20f"
    )


# -- brute-force oracles for the block searches ------------------------------


ORACLE_PRIMES = [q for q in range(7, 100, 6) if is_prime(q)]


def _spreads(q, a, b, c):
    """Three differences in three cube classes, by the cubic character."""
    e = (q - 1) // 3
    keys = {pow(d % q, e, q) for d in (a - b, a - c, b - c)}
    return 0 not in keys and len(keys) == 3


def _initial(q, lines, row):
    return all(_spreads(q, *(row[i] for i in line)) for line in lines)


def _plain_fill(q, lines, row):
    """First completion of ``row`` in lexicographic order, or None.

    Each line is checked once all its positions are filled."""
    k = 1 + max(max(line) for line in lines)
    if len(row) == k:
        return row
    for x in range(q):
        if x in row:
            continue
        longer = row + (x,)
        if all(_spreads(q, *(longer[i] for i in line))
               for line in lines if max(line) == len(row)):
            found = _plain_fill(q, lines, longer)
            if found is not None:
                return found
    return None


@pytest.mark.parametrize("q", ORACLE_PRIMES)
@pytest.mark.parametrize(
    "name,prefix", [("fano", (0, 1)), ("hesse", (0, 1, 2, 3))],
    ids=["fano", "hesse"],
)
def test_prefix_search_matches_a_plain_fill(q, name, prefix):
    lines = builtin_schema(name).lines
    want = None
    if all(_spreads(q, *(prefix[i] for i in line))
           for line in lines if max(line) < len(prefix)):
        want = _plain_fill(q, lines, prefix)
    got = prefix_block_search(make_group(PrimeField(q)), name)
    assert (None if got is None else got.points) == want


def _chain_levels(q, name):
    """Each chain level's (shift, class) pairs in plain integers mod q, as
    a function of the earlier picks; and the block row of the picks.

    A class is the discrete log to the smallest primitive root, mod 3."""
    g = next(g for g in range(2, q)
             if len({pow(g, n, q) for n in range(q - 1)}) == q - 1)
    log = {pow(g, n, q): n % 3 for n in range(q - 1)}
    i, j = log[2], log[3]
    if name == "hesse":
        levels = [
            lambda c: [(0, 0), (3, 0), (1, 1), (2, 2)],
            lambda c: [(c[0], 0), (0, 1), (2, 1), (1, 2), (3, 2)],
            lambda c: [(c[1], 0), (1, 1), (3, 1), (c[0], 2),
                       (0, (i + 1) % 3), (2, (i + 2) % 3)],
            lambda c: [(c[2], 0), (2, 1), (c[0], 1), (1, 2), (c[1], 2),
                       (0, (j + 1) % 3), (3, (j + 2) % 3)],
            lambda c: [(c[3], 0), (0, 1), (c[1], 1), (2, 2), (c[0], 2),
                       (c[2], 2), (1, (i + 1) % 3), (3, (i + 2) % 3)],
        ]
        return log, levels, lambda c: (0, 1, 2, 3) + c
    if i == 0:
        levels = [
            lambda p: [(0, 1), (-1, 1), (1, 2)],
            lambda p: [(-1, 0), (-p[0], 0), (1, 1), (0, 2), (p[0], 2)],
        ]
    else:
        levels = [
            lambda p: [(-1, 0), (0, i), (1, 2 * i % 3)],
            lambda p: [(-p[0], 0), (1, i), (p[0], i), (0, 2 * i % 3),
                       (-1, 2 * i % 3)],
        ]
    return log, levels, lambda p: tuple(
        x % q for x in (0, 1, -1, p[0], -p[0], p[1], -p[1])
    )


def _plain_chain_block(q, name, backtrack):
    log, levels, row = _chain_levels(q, name)
    lines = builtin_schema(name).lines

    def descend(picked):
        if len(picked) == len(levels):
            block = row(picked)
            return block if _initial(q, lines, block) else None
        pairs = levels[len(picked)](picked)
        for x in range(q):
            if all(log.get((x - shift) % q) == cls for shift, cls in pairs):
                found = descend(picked + (x,))
                if found is not None or not backtrack:
                    return found
        return None

    return descend(())


@pytest.mark.parametrize("q", [q for q in range(7, 1000, 6) if is_prime(q)])
def test_chains_match_a_plain_descent(q):
    """Below 100 no Hesse chain finds a block; the first are at 523
    (backtracking) and 991 (greedy)."""
    field = make_group(PrimeField(q))
    for name in ("fano", "hesse"):
        for backtrack in (False, True):
            got = asymptotic_initial_block(field, name, backtrack)
            want = _plain_chain_block(q, name, backtrack)
            assert (None if got is None else got.points) == want, (
                name, backtrack)


def _form_rows(q, x):
    """The three one-parameter rows at x, straight from their formulas."""
    powers = [pow(x, n, q) for n in range(8)]
    return {
        FANO_AFFINE: (0, 1, 2, x, (x + 1) % q, x * (x + 1) % q, 2 * x % q),
        FANO_POWERS: tuple(powers[:7]),
        HESSE_POWERS: (0, 1) + tuple(powers[1:]),
    }


@pytest.mark.parametrize("q", ORACLE_PRIMES)
def test_parametric_search_matches_a_plain_scan(q):
    field = make_group(PrimeField(q))
    layouts = {FANO_AFFINE: "fano", FANO_POWERS: "fano",
               HESSE_POWERS: "hesse"}
    for form, name in layouts.items():
        lines = builtin_schema(name).lines
        want = next(
            (x for x in range(q)
             if len(set(row := _form_rows(q, x)[form])) == len(row)
             and _initial(q, lines, row)),
            None,
        )
        got = parametric_search(field, form)
        if want is None:
            assert got is None, (q, form)
        else:
            assert (got.x, got.checked) == (want, want + 1), (q, form)
            assert got.block == _form_rows(q, want)[form]


# -- parametric forms ---------------------------------------------------------


def test_form_block_raw():
    f37 = make_group(PrimeField(37))
    assert form_block(f37, FANO_AFFINE, 13) == (0, 1, 2, 13, 14, 34, 26)
    assert form_block(F19, FANO_POWERS, 2) == (1, 2, 4, 8, 16, 13, 7)
    with pytest.raises(MalformedInput):
        form_block(F19, "spiral", 2)


def test_parametric_smallest_hit():
    f37 = make_group(PrimeField(37))
    res = parametric_search(f37, FANO_AFFINE)
    assert res.x == 13
    assert res.block == (0, 1, 2, 13, 14, 34, 26)
    assert res.checked == 14


@pytest.mark.parametrize("p", [13, 19])
def test_parametric_misses_small_primes(p):
    assert parametric_search(make_group(PrimeField(p)), FANO_AFFINE) is None


def test_parametric_budget_cuts_off():
    f37 = make_group(PrimeField(37))
    res = parametric_search(f37, FANO_AFFINE, max_candidates=5)
    assert res is None


@pytest.mark.parametrize(
    "desc, form, x, checked",
    [
        (PrimeField(100003), HESSE_POWERS, 71, 72),
        (ExtensionField(7, (1, 0, 1, 1)), FANO_POWERS, (5, 3, 4), 271),
        (PrimeField(8209), FANO_AFFINE, 47, 48),
        # the latest hit over the primes q = 1 (mod 6) up to 120,000
        (PrimeField(64921), HESSE_POWERS, 3199, 3200),
    ],
    ids=["q100003", "q343", "q8209", "q64921"],
)
def test_parametric_first_hit(desc, form, x, checked):
    field = make_group(desc)
    res = parametric_search(field, form)
    assert (res.x, res.checked) == (x, checked)
    assert res.block == form_block(field, form, x)
    assert verify_listed_block(field, res.block)


def test_parametric_unknown_form():
    with pytest.raises(MalformedInput):
        parametric_search(F19, "spiral")


@pytest.mark.parametrize(
    "q,form",
    [
        (31, FANO_AFFINE),
        (37, FANO_AFFINE),
        (37, FANO_POWERS),
        (19, HESSE_POWERS),
        (37, HESSE_POWERS),
    ],
)
def test_shortcut_lines_match_full_predicate(q, form):
    """The reduced line list must accept exactly the parameters the full
    check accepts, over the whole field."""
    field = make_group(PrimeField(q))
    table = CyclotomicTable(field, 3)
    builder, schema_name, shortcut = search_module._FORMS[form]
    for x in field.elements():
        pts = builder(field, x)
        if len(set(pts)) != len(pts):
            continue
        quick = all(
            search_module._line_spreads(
                tuple(pts[i] for i in positions), field, table.index
            )
            for positions in shortcut
        )
        full = verify_listed_block(field, pts)
        assert quick == full, (q, form, x)


# -- primes admitting the consecutive block ----------------------------------


def test_consecutive_block_primes():
    assert consecutive_block_primes(1000) == [7, 541, 571, 877, 937]


def test_consecutive_block_primes_empty_below_seven():
    assert consecutive_block_primes(6) == []


# -- exhaustive sweeps --------------------------------------------------------


def test_sweep_v7_count():
    cert = exhaustive_nonexistence(7, "fano")
    assert cert.solutions == 8
    assert cert.nodes_visited == 43
    assert cert.exhausted
    assert cert.blocks == 1
    assert cert.first_solution == ((0, 1, 2, 3, 4, 5, 6),)


def test_sweep_v7_exists():
    cert = exhaustive_nonexistence(7, "fano", mode="exists")
    assert cert.solutions >= 1
    assert cert.first_solution == ((0, 1, 2, 3, 4, 5, 6),)


def test_sweep_v7_parallel_matches_serial():
    serial = exhaustive_nonexistence(7, "fano", jobs=1)
    parallel = exhaustive_nonexistence(7, "fano", jobs=2)
    assert parallel.solutions == serial.solutions == 8
    assert parallel.nodes_visited == serial.nodes_visited == 43
    assert parallel.exhausted


def test_sweep_v7_batched_matches_serial():
    serial = exhaustive_nonexistence(7, "fano", jobs=1)
    batched = exhaustive_nonexistence(7, "fano", jobs=4)
    assert batched.jobs == 4
    assert (batched.solutions, batched.nodes_visited) == (8, 43)
    assert batched.first_solution == serial.first_solution


def test_sweep_forks_no_more_workers_than_subtrees(monkeypatch):
    """Each worker is forked up front, so the sweep asks for no more than
    it has subtrees. The fake map records the count and maps serially; it
    starts no process."""
    asked = []

    def serial_map(fn, items, workers):
        asked.append(workers)
        return list(map(fn, items))

    monkeypatch.setattr(search_module, "_forked_map", serial_map)
    serial = exhaustive_nonexistence(7, "fano", jobs=1)
    cert = exhaustive_nonexistence(7, "fano", jobs=10**6)
    assert asked == [cert.subtree_count] == [12]
    assert cert.jobs == 10**6
    assert cert.to_json() == dict(serial.to_json(), jobs=10**6)


@pytest.mark.parametrize("jobs", [2, 3, 4])
def test_sweep_v7_forked_certificate_matches_serial(jobs):
    serial = exhaustive_nonexistence(7, "fano", jobs=1)
    forked = exhaustive_nonexistence(7, "fano", jobs=jobs)
    assert forked.to_json() == dict(serial.to_json(), jobs=jobs)


def test_sweep_worker_failure_raises_and_leaves_no_process(
    monkeypatch, capfd, end_children
):
    real = search_module._sweep_subtree
    prefixes = []

    def recording(payload):
        prefixes.append(payload[3])
        return real(payload)

    monkeypatch.setattr(search_module, "_sweep_subtree", recording)
    exhaustive_nonexistence(7, "fano")
    doomed = prefixes[5]

    def failing(payload):
        if payload[3] == doomed:
            raise RuntimeError("this subtree fails")
        return real(payload)

    monkeypatch.setattr(search_module, "_sweep_subtree", failing)
    with pytest.raises(ChildProcessError, match="exited with status 1"):
        exhaustive_nonexistence(7, "fano", jobs=2)
    assert end_children() == []
    assert "RuntimeError: this subtree fails" in capfd.readouterr().err


def test_sweep_interrupted_parent_ends_its_workers(monkeypatch, end_children):
    """A KeyboardInterrupt while the parent waits for results kills and
    reaps the workers, which would otherwise sleep for a minute."""
    monkeypatch.setattr(
        search_module, "_sweep_subtree", lambda payload: time.sleep(60)
    )

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)
        with pytest.raises(KeyboardInterrupt):
            exhaustive_nonexistence(7, "fano", jobs=2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 30
    assert end_children() == []


def test_sweep_runs_serially_where_the_platform_cannot_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")
    reason = search_module.serial_sweep_reason("count", None)
    assert reason == "this platform cannot fork worker processes"
    cert = exhaustive_nonexistence(7, "fano", jobs=4)
    assert cert.jobs == 1
    assert cert.to_json() == exhaustive_nonexistence(7, "fano").to_json()


@pytest.mark.parametrize("module", ["kaleido", "kaleido.cli"])
def test_import_loads_no_process_pool(module):
    """Only a sweep on more than one job starts processes, and it forks
    them itself, so importing the package loads no pool machinery."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, {module}\n"
         "print(sorted({'concurrent.futures', 'multiprocessing'}"
         " & set(sys.modules)))"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_sweep_v13_batched_certificate_matches_serial():
    serial = exhaustive_nonexistence(13, "fano", jobs=1).to_json()
    batched = exhaustive_nonexistence(13, "fano", jobs=2).to_json()
    assert (serial.pop("jobs"), batched.pop("jobs")) == (1, 2)
    assert batched == serial


def test_sweep_node_budget():
    cert = exhaustive_nonexistence(13, "fano", max_nodes=10_000)
    assert not cert.exhausted
    assert cert.solutions == 0
    assert cert.nodes_visited == 10_000


def test_sweep_certificate_json():
    cert = exhaustive_nonexistence(7, "fano")
    obj = cert.to_json()
    assert obj["v"] == 7
    assert obj["solutions"] == 8
    assert obj["exhausted"] is True
    assert obj["first_solution"] == [[0, 1, 2, 3, 4, 5, 6]]
    assert len(obj["normalizations"]) == 3


def test_sweep_guards():
    with pytest.raises(UnsupportedOrder):
        exhaustive_nonexistence(25, "fano")
    with pytest.raises(UnsupportedOrder):
        exhaustive_nonexistence(11, "fano")
    with pytest.raises(UnsupportedOrder):
        exhaustive_nonexistence(23, "fano")
    with pytest.raises(UnsupportedOrder):
        exhaustive_nonexistence(7, "hesse")
    with pytest.raises(UnsupportedOrder):
        exhaustive_nonexistence(13, "hesse")
    with pytest.raises(UnsupportedOrder):
        exhaustive_nonexistence(19, "fano", mode="count")
    with pytest.raises(UnsupportedOrder):
        exhaustive_nonexistence(19, "fano", mode="exists")
    with pytest.raises(MalformedInput):
        exhaustive_nonexistence(7, "fano", mode="banana")


@pytest.mark.parametrize("v", [25, 2**61 - 1])
def test_sweep_checks_the_order_bound_first(v, monkeypatch):
    """A large order is refused before any primality test runs on it."""
    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) ran before the bound check")

    monkeypatch.setattr(search_module, "is_prime", no_trial_division)
    with pytest.raises(UnsupportedOrder) as err:
        exhaustive_nonexistence(v, "fano")
    assert str(err.value) == f"order {v} is beyond the supported sweep"


def test_sweep_rejects_bad_arguments():
    with pytest.raises(MalformedInput):
        exhaustive_nonexistence(7, "fano", jobs=0)
    with pytest.raises(MalformedInput):
        exhaustive_nonexistence(7, "fano", jobs=-3)
    with pytest.raises(MalformedInput):
        exhaustive_nonexistence(13, "fano", max_nodes=-5)
    budgeted = exhaustive_nonexistence(13, "fano", max_nodes=0)
    assert budgeted.nodes_visited == 0
    assert not budgeted.exhausted


def test_search_budget_rejects_bad_arguments():
    f37 = make_group(PrimeField(37))
    chain = [CyclotomicConstraint(0, 2)]
    with pytest.raises(TypeError):
        parametric_search(f37, FANO_AFFINE, jobs=2)
    with pytest.raises(MalformedInput):
        parametric_search(f37, FANO_AFFINE, max_candidates=-1)
    with pytest.raises(MalformedInput):
        find_constrained_element(f37, chain, max_candidates=-1)
    assert parametric_search(f37, FANO_AFFINE, max_candidates=0) is None
    res = find_constrained_element(f37, chain, max_candidates=0)
    assert res.element is None and res.checked == 0 and not res.exhausted


def test_serial_sweep_reason():
    assert search_module.serial_sweep_reason("count", None) is None
    assert "exists" in search_module.serial_sweep_reason("exists", None)
    assert "budget" in search_module.serial_sweep_reason("count", 10)
    cert = exhaustive_nonexistence(7, "fano", jobs=4, mode="exists")
    assert cert.jobs == 1


# -- the sweep tree against references kept outside the sweep ---------------


def _repeat_free(block, line, v):
    diffs = [(block[i] - block[j]) % v for i in line for j in line if i != j]
    return len(set(diffs)) == len(diffs)


def test_sweep_v7_matches_brute_force():
    """Every normalized order-7 block (0, 1, then the other five residues
    in any order) is tried directly; the sweep must agree on the families,
    on the first one, and on its node count, which is the number of
    normalized partial blocks whose completed lines are repeat-free."""
    v = 7
    lines = builtin_schema("fano").lines
    blocks = [(0, 1) + rest for rest in permutations(range(2, v))]
    assert len(blocks) == 120
    families = [
        b for b in blocks if all(_repeat_free(b, line, v) for line in lines)
    ]
    assert len(families) == 8
    partial = 1  # the block holding only its fixed 0
    for n in range(2, 8):
        for rest in permutations(range(2, v), n - 2):
            head = (0, 1) + rest
            partial += all(
                _repeat_free(head, line, v) for line in lines if max(line) < n
            )
    cert = exhaustive_nonexistence(v, "fano")
    assert cert.solutions == len(families)
    assert cert.first_solution == (min(families),)
    assert cert.nodes_visited == partial == 43


def _line_accepts(a, b, c, m, v):
    """The line {a, b, c} straight from its three differences: all
    nonzero, in three distinct classes {d, v - d}, none of them in the
    class mask m (bit k - 1 for the class of k)."""
    diffs = [(a - b) % v, (a - c) % v, (b - c) % v]
    if 0 in diffs:
        return False
    classes = {min(d, v - d) for d in diffs}
    return len(classes) == 3 and not any(m >> (k - 1) & 1 for k in classes)


def _candidate_table_errors(v, table, masks):
    """Every (a, b, c, m) on which the table and the direct check differ."""
    errors = []
    for a in range(v):
        for b in range(v):
            cands, classes = table[a * v + b]
            for c in range(v):
                diffs = [(a - b) % v, (a - c) % v, (b - c) % v]
                line = sum({1 << (min(d, v - d) - 1) for d in diffs if d})
                want = line if _line_accepts(a, b, c, 0, v) else 0
                if classes[c] != want:
                    errors.append((a, b, c, "classes"))
                for m in masks:
                    if (cands[m] >> c & 1) != _line_accepts(a, b, c, m, v):
                        errors.append((a, b, c, m))
    return errors


@pytest.mark.parametrize("v,sample", [(7, None), (13, None), (19, 40)])
def test_candidate_table_matches_the_differences(v, sample):
    """Every entry at v = 7 and 13; at v = 19 every row and c for a seeded
    sample of the 512 class masks, the empty and the full mask included."""
    n = (v - 1) // 2
    masks = range(1 << n)
    if sample is not None:
        masks = [0, (1 << n) - 1] + random.Random(v).sample(masks, sample)
    table = search_module._candidate_table(v)
    assert len(table) == v * v
    assert all(len(cands) == 1 << n for cands, _ in table)
    assert _candidate_table_errors(v, table, masks) == []


def test_candidate_table_check_catches_one_wrong_bit():
    v = 7
    masks = range(1 << 3)
    for row, m, c in [(1 * v + 2, 0, 4), (3 * v + 0, 5, 6), (0, 7, 0)]:
        table = list(search_module._candidate_table(v))
        cands, classes = table[row]
        cands = list(cands)
        cands[m] ^= 1 << c
        table[row] = (cands, classes)
        assert _candidate_table_errors(v, table, masks) == [
            (row // v, row % v, c, m)
        ]
    table = list(search_module._candidate_table(v))
    cands, classes = table[v + 2]
    table[v + 2] = (cands, [x ^ 1 for x in classes])
    assert len(_candidate_table_errors(v, table, [])) == v


def _subtree_node_counts(v, schema_name):
    schema = builtin_schema(schema_name)
    top = search_module._Sweep(v, schema, "count")
    prefixes = []
    top.run(stop_depth=top.split_depth(), collect=prefixes)
    counts = []
    for prefix in prefixes:
        sweep = search_module._Sweep(v, schema, "count")
        sweep.run(prefix=prefix)
        counts.append(sweep.nodes)
    return top.nodes, prefixes, counts


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def test_sweep_v13_subtree_counts_pinned():
    """The order-13 tree, subtree by subtree. The digests were taken from
    the direct difference-by-difference sweep this one replaced."""
    top, prefixes, counts = _subtree_node_counts(13, "fano")
    assert top == 621
    assert len(prefixes) == 528
    assert top + sum(counts) == 1_284_517
    assert _digest(prefixes) == (
        "11b7191219f942fbdd11179b35c4c833ed971377fa31523afb75f36b17ef2635"
    )
    assert _digest(counts) == (
        "3d4298d4f75e9a22b4921ec72a37364040218fe9f1c336d67c227456f18a0f6e"
    )


@pytest.mark.parametrize(
    "v,schema_name,depth,paths,nodes,digest",
    [
        (13, "hesse", 10, 55_152, 157_893,
         "dd038993f080ddce8c88683382da3836ea36fd6228b7af42818162b1c658994c"),
        (19, "fano", 8, 197_232, 424_023,
         "5ebdfdee32d472e135f15f412f0b84ac32c98b11309e7cfb842923e874db81ff"),
    ],
    ids=["v13-hesse", "v19-fano"],
)
def test_sweep_top_levels_pinned(v, schema_name, depth, paths, nodes, digest):
    """Every path of the tree through the first block and the second
    block's fixed 0, at the orders too deep to sweep in full."""
    sweep = search_module._Sweep(v, builtin_schema(schema_name), "count")
    got = []
    sweep.run(stop_depth=depth, collect=got)
    assert (len(got), sweep.nodes) == (paths, nodes)
    assert _digest(got) == digest


_NORMS = [
    "translation: the first entry of every block is 0",
    "unit scaling: the second entry of the first block is 1",
    "solutions are counted over ordered block sequences",
]


@pytest.mark.slow
def test_sweep_v13_nine_points_exhausted():
    """The nine-point tree at order 13 in full: no cyclic family. About
    10 s on two cores; run with --run-slow."""
    cert = exhaustive_nonexistence(13, "hesse", jobs=2, allow_long=True)
    assert cert.to_json() == {
        "v": 13, "schema": "hesse", "blocks": 2, "normalizations": _NORMS,
        "subtree_count": 720, "nodes_visited": 96_605_589, "solutions": 0,
        "first_solution": None, "exhausted": True, "mode": "count",
        "jobs": 2,
    }


@pytest.mark.parametrize(
    "kwargs,want",
    [
        (
            dict(v=19, schema_name="fano", mode="exists", max_nodes=200_000),
            {"v": 19, "schema": "fano", "blocks": 3, "normalizations": _NORMS,
             "subtree_count": 2772, "nodes_visited": 200_000, "solutions": 0,
             "first_solution": None, "exhausted": False, "mode": "exists",
             "jobs": 1},
        ),
        (
            dict(v=13, schema_name="hesse", max_nodes=300_000),
            {"v": 13, "schema": "hesse", "blocks": 2, "normalizations": _NORMS,
             "subtree_count": 720, "nodes_visited": 300_000, "solutions": 0,
             "first_solution": None, "exhausted": False, "mode": "count",
             "jobs": 1},
        ),
    ],
    ids=["v19-fano-exists", "v13-hesse"],
)
def test_budgeted_sweep_certificates_pinned(kwargs, want):
    assert exhaustive_nonexistence(**kwargs).to_json() == want


# -- the sweep against a plain descent ---------------------------------------


def _plain_sweep(v, schema_name, prefix=(), max_nodes=None, stop_depth=None,
                 mode="count"):
    """The sweep straight from the differences, with no candidate table
    and no lookahead.

    Entries are tried in ascending order, each unlike its block's earlier
    ones, and a line is checked at its last position: its three
    differences must be nonzero, lie in three distinct classes {d, v - d}
    and miss every class its color already holds. Every block starts with
    0 and the first block's second entry is 1. ``prefix`` entries are
    replayed and not counted. In ``"exists"`` mode the descent stops at
    its first solution. Returns (nodes, solutions, first, budget_hit, the
    entries of every path reaching ``stop_depth``).
    """
    schema = builtin_schema(schema_name)
    k = schema.k
    t = (v - 1) // (schema.h * (schema.h - 1))
    slots = [(r, pos) for r in range(t) for pos in range(k)]
    fixed = {(r, 0): 0 for r in range(t)}
    fixed[(0, 1)] = 1
    ending = [
        [(c, line) for c, line in enumerate(schema.lines) if max(line) == pos]
        for pos in range(k)
    ]
    rows = [[None] * k for _ in range(t)]
    held = [set() for _ in schema.lines]
    out = {"nodes": 0, "solutions": 0, "first": None, "hit": False}
    paths = []

    def descend(depth):
        """True when the budget or a solution in exists mode stops the
        sweep."""
        if depth == stop_depth:
            paths.append(tuple(rows[r][pos] for r, pos in slots[:depth]))
            return False
        if depth == len(slots):
            out["solutions"] += 1
            if out["first"] is None:
                out["first"] = tuple(map(tuple, rows))
            return mode == "exists"
        r, pos = slots[depth]
        row = rows[r]
        if depth < len(prefix):
            values = [prefix[depth]]
        elif (r, pos) in fixed:
            values = [fixed[r, pos]]
        else:
            values = range(v)
        for val in values:
            if val in row[:pos]:
                continue
            row[pos] = val
            new = []
            for color, (a, b, c) in ending[pos]:
                diffs = [(row[a] - row[b]) % v, (row[a] - row[c]) % v,
                         (row[b] - row[c]) % v]
                classes = {min(d, v - d) for d in diffs}
                if 0 in diffs or len(classes) < 3 or classes & held[color]:
                    break
                new.append((color, classes))
            else:
                if depth >= len(prefix):
                    if max_nodes is not None and out["nodes"] >= max_nodes:
                        out["hit"] = True
                        return True
                    out["nodes"] += 1
                for color, classes in new:
                    held[color] |= classes
                stop = descend(depth + 1)
                for color, classes in new:
                    held[color] -= classes
                if stop:
                    return True
        return False

    descend(0)
    return out["nodes"], out["solutions"], out["first"], out["hit"], paths


def _swept(v, schema_name, prefix=(), max_nodes=None, stop_depth=None,
           mode="count"):
    """``_plain_sweep``'s answer from the sweep."""
    sweep = search_module._Sweep(v, builtin_schema(schema_name), mode,
                                 max_nodes)
    paths = []
    sweep.run(prefix=prefix, stop_depth=stop_depth, collect=paths)
    return sweep.nodes, sweep.solutions, sweep.first, sweep.budget_hit, paths


def test_plain_sweep_matches_the_sweep_at_v7():
    """The plain descent gives the brute-force figures of
    ``test_sweep_v7_matches_brute_force``, and the sweep agrees with it
    under every budget, which also cuts the solutions found."""
    first = ((0, 1, 2, 3, 4, 5, 6),)
    assert _plain_sweep(7, "fano") == (43, 8, first, False, [])
    assert _plain_sweep(7, "fano", max_nodes=20)[:4] == (20, 3, first, True)
    for budget in range(45):
        want = _plain_sweep(7, "fano", max_nodes=budget)
        assert _swept(7, "fano", max_nodes=budget) == want, budget


def test_exists_mode_matches_plain_descent_at_v7():
    """Exists mode stops at the first family, under every budget up to
    past the node that finds it."""
    first = ((0, 1, 2, 3, 4, 5, 6),)
    whole = _plain_sweep(7, "fano", mode="exists")
    assert whole[1:] == (1, first, False, [])
    assert _swept(7, "fano", mode="exists") == whole
    for budget in range(whole[0] + 2):
        want = _plain_sweep(7, "fano", max_nodes=budget, mode="exists")
        got = _swept(7, "fano", max_nodes=budget, mode="exists")
        assert got == want, budget


def test_sweep_v13_every_budget_matches_plain_descent():
    """Every budget from 0 to the size of four order-13 subtrees rooted
    at the second block. Their deepest picks are counted at once, in the
    node above, wherever no grandchild has a candidate, so these budgets
    cut inside each such count at every point."""
    for prefix in _subtrees(13, "fano", 4, 1907, depth=7):
        size = _plain_sweep(13, "fano", prefix)[0]
        for budget in range(size + 1):
            want = _plain_sweep(13, "fano", prefix, budget)
            assert _swept(13, "fano", prefix, budget) == want, (prefix, budget)


def test_sweep_v13_one_level_deeper_subtrees_match_plain_descent():
    """The subtrees one entry below 20 seeded depth-9 paths, for every
    residue as that entry. Most hold no node, and many of those entries
    are no candidate at all: a replayed node whose grandchildren find no
    candidate must count nothing."""
    for path in _subtrees(13, "fano", 20, 1909, depth=9):
        for val in range(13):
            prefix = path + (val,)
            want = _plain_sweep(13, "fano", prefix)
            assert _swept(13, "fano", prefix) == want, prefix


def test_nine_point_subtree_collected_at_every_second_block_depth():
    """One nine-point order-13 subtree, among the smallest of the 720
    (29,348 nodes), collected at every depth of the second block: the
    lookahead must stop at the collecting depth wherever it is."""
    prefix = (0, 1, 5, 11, 6)
    for depth in range(9, 18):
        want = _plain_sweep(13, "hesse", prefix, stop_depth=depth)
        assert _swept(13, "hesse", prefix, stop_depth=depth) == want, depth
    assert want[0] == 29_348


@pytest.mark.parametrize(
    "v,schema_name", [(7, "fano"), (13, "fano"), (13, "hesse"), (19, "fano")]
)
def test_sweep_top_levels_match_plain_descent(v, schema_name):
    """The paths to every depth down to the subtree split."""
    top = search_module._Sweep(v, builtin_schema(schema_name), "count")
    for depth in range(1, top.split_depth() + 1):
        want = _plain_sweep(v, schema_name, stop_depth=depth)
        assert _swept(v, schema_name, stop_depth=depth) == want, depth


def _subtrees(v, schema_name, count, seed, depth=None):
    """Seeded subtrees rooted at ``depth``, by default the split."""
    top = search_module._Sweep(v, builtin_schema(schema_name), "count")
    prefixes = []
    top.run(stop_depth=depth or top.split_depth(), collect=prefixes)
    return random.Random(seed).sample(prefixes, count)


def test_sweep_v13_subtrees_match_plain_descent():
    """Both the lookahead's skipped calls and its counts taken at once
    happen at order 13 (not at 7): whole subtrees, budgets around their
    ends, seeded budgets inside, and paths collected in the second block,
    where the lookahead must not skip the collecting depth."""
    rng = random.Random(1301)
    for prefix in _subtrees(13, "fano", 16, 13):
        whole = _plain_sweep(13, "fano", prefix)
        assert _swept(13, "fano", prefix) == whole, prefix
        for depth in (9, 10, 11):
            want = _plain_sweep(13, "fano", prefix, stop_depth=depth)
            assert _swept(13, "fano", prefix, stop_depth=depth) == want
        size = whole[0]
        budgets = {0, 1, size - 1, size}
        budgets.update(rng.randrange(size) for _ in range(3))
        for budget in budgets:
            want = _plain_sweep(13, "fano", prefix, budget)
            assert _swept(13, "fano", prefix, budget) == want, (prefix, budget)


@pytest.mark.parametrize(
    "v,schema_name,count", [(19, "fano", 5), (13, "hesse", 3)]
)
def test_deep_subtrees_match_plain_descent(v, schema_name, count):
    """Subtrees too large to sweep here in full, under seeded budgets."""
    rng = random.Random(v)
    for prefix in _subtrees(v, schema_name, count, v):
        for budget in (rng.randrange(20_000), rng.randrange(20_000)):
            want = _plain_sweep(v, schema_name, prefix, budget)
            assert want[3], (prefix, budget)
            got = _swept(v, schema_name, prefix, budget)
            assert got == want, (prefix, budget)
