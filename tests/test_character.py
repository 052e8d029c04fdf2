"""A class table's key, the power character, checked against class indices.

The walk-keyed line predicate below is the reference: it compares class
indices taken from a walk over the powers of the primitive element (the
``power_walk`` fixture), which uses no power character. The package's
checks key the same predicate on ``CyclotomicTable.key`` instead, and
must accept exactly the same lines and blocks.
"""

import functools
import json
import subprocess
import sys
from itertools import combinations
from math import comb

import pytest

from kaleido import algebra, tables
from kaleido.algebra import (
    Cyclic,
    CyclotomicTable,
    ExtensionField,
    PrimeField,
    find_irreducible,
    make_group,
)
from kaleido.errors import (
    BadCongruence,
    DuplicateElements,
    MalformedInput,
    OrderTooSmall,
    ZeroElement,
)
from kaleido.schema import builtin_schema
from kaleido.search import (
    FANO_AFFINE,
    FANO_POWERS,
    _line_spreads,
    consecutive_block_primes,
    form_block,
    verify_listed_block,
)


def walk_line_spreads(points3, field, classes):
    """Reference predicate: three distinct class indices from a walk."""
    a, b, c = points3
    i1 = classes[field.sub(a, b)]
    i2 = classes[field.sub(a, c)]
    if i1 == i2:
        return False
    i3 = classes[field.sub(b, c)]
    return i3 != i1 and i3 != i2


def walk_block_spreads(field, block, classes):
    """Reference check of a listed block, every line of its layout."""
    schema = builtin_schema("fano" if len(block) == 7 else "hesse")
    return all(
        walk_line_spreads(tuple(block[q] for q in line), field, classes)
        for line in schema.lines
    )


def _field(p, degree=1):
    if degree == 1:
        return make_group(PrimeField(p))
    return make_group(ExtensionField(p, find_irreducible(p, degree)))


# Every field of order 7 through 49 whose units split into three classes,
# and one larger extension field.
TRIPLE_FIELDS = [
    (7, 1), (13, 1), (2, 4), (19, 1), (5, 2), (31, 1), (37, 1), (43, 1),
    (7, 2), (13, 2),
]


@pytest.mark.parametrize(
    "p,degree", TRIPLE_FIELDS, ids=[f"{p}^{d}" for p, d in TRIPLE_FIELDS]
)
def test_character_predicate_matches_table_on_every_triple(
    p, degree, power_walk
):
    field = _field(p, degree)
    # Both predicates read the same memoised subtraction, so the
    # comparison isolates the two class keys.
    field.sub = functools.lru_cache(maxsize=None)(field.sub)
    classes = power_walk(field, 3)
    chi = functools.lru_cache(maxsize=None)(CyclotomicTable(field, 3).key)
    spreading = 0
    for trip in combinations(field.elements(), 3):
        want = walk_line_spreads(trip, field, classes)
        assert _line_spreads(trip, field, chi) == want, trip
        spreading += want
    assert 0 < spreading < comb(field.order, 3)


def test_character_values_are_the_cube_roots_of_unity(power_walk):
    """The key takes one value per class, and 1 on class 0: for e = 3
    over every field above, and for e = 6 over those with 6 | q - 1."""
    for e in (3, 6):
        for p, degree in TRIPLE_FIELDS:
            field = _field(p, degree)
            if (field.order - 1) % e:
                continue
            chi = CyclotomicTable(field, e).key
            classes = power_walk(field, e)
            by_class = {}
            for x in field.elements():
                if x != field.zero:
                    by_class.setdefault(classes[x], set()).add(chi(x))
            values = [v for vs in by_class.values() for v in vs]
            assert len(by_class) == e and len(values) == e, (p, degree, e)
            assert by_class[0] == {field.one}


def _ext(p, modulus):
    return make_group(ExtensionField(p, tuple(c % p for c in modulus)))


def _stored_witnesses():
    """The 80 stored listed blocks and form witnesses, as (field, block)."""
    out = []
    for data, base in (
        (tables.FANO_SQUARE_T2M3, (-3, 0, 1)),
        (tables.FANO_SQUARE_T2P1, (1, 0, 1)),
    ):
        for p, (c0, c1) in sorted(data.items()):
            field = _ext(p, base)
            out.append((field, form_block(field, FANO_POWERS, (c0, c1))))
    for entry, form in (
        (tables.FANO_13_SQUARE, FANO_AFFINE),
        (tables.FANO_13_CUBE, FANO_POWERS),
    ):
        field = _ext(13, entry["modulus"])
        out.append((field, form_block(field, form, entry["x"])))
    for blocks in (tables.FANO_ALT_BLOCKS, tables.HESSE_ALT_BLOCKS):
        for p, block in sorted(blocks.items()):
            out.append((make_group(PrimeField(p)), block))
    for p, entry in sorted(tables.HESSE_SQUARE_BLOCKS.items()):
        block = tuple((c0 % p, c1 % p) for c0, c1 in entry["block"])
        out.append((_ext(p, entry["modulus"]), block))
    for p in tables.CONSECUTIVE_BLOCK_PRIMES_1000:
        out.append((make_group(PrimeField(p)), tuple(range(7))))
    return out


def _moved(field, block, pos):
    """The block with the point at ``pos`` moved to the next free element,
    or None when the block fills the field."""
    x = block[pos]
    for _ in range(field.order - 1):
        x = field.add(x, field.one)
        if x not in block:
            return block[:pos] + (x,) + block[pos + 1:]
    return None


# A walk costs a few microseconds per element. Over the 31 stored witness
# fields above this order (5.0e6 elements in all, up to 569^2) it would add
# some 20 s, so those witnesses are only checked to verify.
WALK_LIMIT = 50_000


def test_character_check_matches_table_on_stored_witnesses(power_walk):
    witnesses = _stored_witnesses()
    assert len(witnesses) == 80
    rejected = walked = 0
    for field, block in witnesses:
        assert verify_listed_block(field, block), (field, block)
        if field.order > WALK_LIMIT:
            continue
        classes = power_walk(field, 3)
        walked += 1
        assert walk_block_spreads(field, block, classes)
        for pos in range(len(block)):
            moved = _moved(field, block, pos)
            if moved is None:
                continue
            want = walk_block_spreads(field, moved, classes)
            assert verify_listed_block(field, moved) == want, (field, moved)
            rejected += not want
    assert walked == 49 and rejected > 0


def test_consecutive_block_primes_unchanged():
    assert consecutive_block_primes(1000) == list(
        tables.CONSECUTIVE_BLOCK_PRIMES_1000
    )


# -- the error contract of the table-free path --------------------------------


F37 = make_group(PrimeField(37))
F25 = make_group(ExtensionField(5, (2, 0, 1)))
F100003 = make_group(PrimeField(100003))


def test_listed_block_rejects_a_non_element():
    with pytest.raises(MalformedInput):
        verify_listed_block(F37, (0, 1, 2, 13, 14, 34, 37))


def test_listed_block_rejects_a_wrong_length_tuple():
    block = ((0, 0), (1, 0), (2, 0), (3, 0), (4, 0), (0, 1), (1, 2, 3))
    with pytest.raises(MalformedInput):
        verify_listed_block(F25, block)


def test_listed_block_rejects_a_repeated_point():
    with pytest.raises(DuplicateElements):
        verify_listed_block(F37, (0, 1, 2, 13, 14, 34, 34))


def reference_key(field, e):
    """The class key as ``CyclotomicTable`` built it for every field before
    a field class could give its own: zero first, then membership, then
    the field's power."""
    exp = (field.order - 1) // e
    zero = field.zero
    power = field.pow_

    def key(x):
        if x == zero:
            raise ZeroElement("zero belongs to no cyclotomic class")
        if x not in field:
            raise MalformedInput(f"{x!r} is not an element of this field")
        return power(x, exp)

    return key


# (x, the exception that x raises, or None for a value), over each field.
_Z, _M = ZeroElement, MalformedInput
_SHARED = [(0, _Z), (False, _Z), (0.0, _Z), (True, None), (1, None),
           (36, None), (-1, _M), (2.5, _M), ("1", _M), (None, _M)]
_KEY_CASES = [
    (F37, "", [*_SHARED, (37, _M)]),
    (F100003, "q100003-",
     [*_SHARED, (37, None), (100003, _M), (100004, _M)]),
]


@pytest.mark.parametrize(
    "field,x,error",
    [
        pytest.param(
            field, x, error,
            id=f"{prefix}{x!r}-{error.__name__ if error else 'value'}",
        )
        for field, prefix, cases in _KEY_CASES
        for x, error in cases
    ],
)
def test_character_errors_match_table_errors(field, x, error):
    """The table's key and index, and the field's character at e = 3 and
    6, give the reference key's value, or raise its exception."""
    table = CyclotomicTable(field, 3)
    for e, key in ((3, table.key), (6, field.character(6))):
        want = reference_key(field, e)
        if error is None:
            got = key(x)
            assert got == want(x) and type(got) is type(want(x)), (e, x)
            continue
        with pytest.raises(error):
            want(x)
        with pytest.raises(error):
            key(x)
    if error is None:
        assert table.index(x) == table.index(int(x))
    else:
        with pytest.raises(error):
            table.index(x)


@pytest.mark.parametrize(
    "group,error",
    [
        (make_group(Cyclic(13)), MalformedInput),
        (make_group(PrimeField(11)), BadCongruence),
        (make_group(PrimeField(3)), OrderTooSmall),
    ],
)
def test_character_needs_three_classes(group, error):
    with pytest.raises(error):
        CyclotomicTable(group, 3)
    if group.is_field:
        with pytest.raises(error):
            verify_listed_block(group, tuple(range(7)))


# -- labels on demand -----------------------------------------------------------


class _NoPrimitive(Exception):
    pass


def _refuse_primitive(field):
    raise _NoPrimitive


@pytest.mark.parametrize("e", [3, 6])
def test_table_finds_a_primitive_element_only_for_labels(e, monkeypatch):
    monkeypatch.setattr(algebra, "primitive_element", _refuse_primitive)
    table = CyclotomicTable(F37, e)
    assert table.key(1) == 1
    assert len({table.key(x) for x in range(1, 37)}) == e
    with pytest.raises(_NoPrimitive):
        table.index(2)


# F_p[t]/(t^2 + 2), p = 10^9 + 7: the modulus has constant term 2. Neither
# command needs a primitive element, so neither may look for one.
_LARGE_SQUARE = ["--q", str((10**9 + 7) ** 2), "--modulus", "2,0,1"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "block", *_LARGE_SQUARE,
         "--block", "0,0;1,0;0,1;1,1;2,0;0,2;2,1"],
        ["search", "parametric", *_LARGE_SQUARE, "--form", "fano-affine",
         "--budget", "50"],
    ],
    ids=["verify-block", "search-parametric"],
)
def test_key_only_commands_answer_at_a_large_square(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "kaleido", *argv],
        capture_output=True,
        text=True,
        timeout=8,
    )
    assert proc.returncode == 1, proc.stderr
    out = json.loads(proc.stdout)
    assert out["q"] == (10**9 + 7) ** 2
    assert out.get("valid", out.get("found")) is False


def test_a_class_label_at_a_large_square_with_constant_term_two():
    """A label needs the primitive element. Over t^2 + 2 the c t block has
    norms 2 c^2, squares since 2 is a square mod 10^9 + 7, so the walk
    skips it; it once took Theta(p) field powers and did not finish."""
    proc = subprocess.run(
        [sys.executable, "-m", "kaleido", "search", "constrained",
         *_LARGE_SQUARE, "--constraints", '[{"shift": [0, 0], "class": 1}]',
         "--budget", "2"],
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 1, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["q"], out["checked"], out["found"]) == (
        (10**9 + 7) ** 2, 2, False
    )
