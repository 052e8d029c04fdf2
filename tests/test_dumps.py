"""The JSON writer: byte for byte the standard library's indented text.

``designs.dumps`` replaces ``json.dumps(obj, sort_keys=True, indent=1)``
on every path that writes JSON, so any document must come out with the
same bytes. The order-133 and order-361 kaleidoscope texts and the
q = 100,003 family text are pinned by their digests in
``bench/pinned.json`` (read here, never written).
"""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kaleido.algebra import PrimeField, make_group
from kaleido.compose import compose_kdf, field_dm
from kaleido.designs import (
    _CHUNK_ITEMS,
    develop,
    dumps,
    kaleidoscope_to_json,
    kdf_to_json,
)
from kaleido.search import (
    asymptotic_initial_block,
    generate_kdf_from_initial_block,
)

PINNED = Path(__file__).resolve().parent.parent / "bench" / "pinned.json"


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats()
    | st.sampled_from([-0.0, 1e-7, 1e300, -1e-300, 5e-324])
    | st.text()
    | st.text(alphabet=st.characters(codec="utf-8"))
    | st.sampled_from(
        ['"', "\\", "\x00\x1f\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800"]
    )
)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(doc=documents)
@example(doc=[])
@example(doc={})
@example(doc=[[], {}, [[]], {"": {}}])
@example(doc={"b": [True, False, None], "a": [-1, 10**30, -(10**30)]})
@example(doc=[float("nan"), float("inf"), float("-inf"), -0.0, 1e-7, 1e300])
@example(doc={'q"uote': "back\\slash", "ctl": "\x01\n\t", "é": "\U0001f600"})
def test_dumps_matches_json_dumps(doc):
    assert dumps(doc) == reference(doc)


@settings(max_examples=100, deadline=None)
@given(
    shared=st.lists(st.integers() | st.booleans(), min_size=1, max_size=4),
    other=documents,
)
def test_shared_list_at_two_depths(shared, other):
    doc = {"a": shared, "b": [shared, [shared, other]], "c": [[[shared]]]}
    assert dumps(doc) == reference(doc)


def test_tuples_and_shared_element_encodings():
    pair = [3, 4]
    doc = {"planes": [[pair, pair], [[1, 2], pair]], "t": (1, (2, pair))}
    assert dumps(doc) == reference(doc)


percents = st.sampled_from(["%", "%s", "%%s", "%d", "100%", "%(k)s"])


@st.composite
def matrices(draw, items):
    """n >= 1 rows of k >= 1 items, lists and tuples mixed.

    The items come from a small pool, so one object recurs within the
    matrix, as an item and wrapped one level deeper.
    """
    k = draw(st.integers(min_value=1, max_value=4))
    pool = draw(st.lists(items, min_size=1, max_size=4))

    def item():
        got = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
        return [got] if draw(st.integers(0, 3)) == 0 else got

    return [
        draw(st.sampled_from([list, tuple]))(item() for _ in range(k))
        for _ in range(draw(st.integers(min_value=1, max_value=5)))
    ]


# Matrices of documents, of percent strings and of matrices.
rectangular = st.recursive(documents | percents, matrices, max_leaves=20)


def _same_as_reference(doc):
    try:
        want = reference(doc)
    except TypeError:
        with pytest.raises(TypeError):
            dumps(doc)
    else:
        assert dumps(doc) == want


@settings(max_examples=200, deadline=None)
@given(doc=rectangular)
@example(doc=[[7]])
@example(doc=[(1, "%s", None)])
@example(doc=[[1, 2], [3]])  # ragged
@example(doc=[[1], []])  # an empty row
@example(doc=[[], []])
@example(doc=[[{2: "two", 1: [1]}, 0], (1, 2)])
@example(doc=[[{"set": {1, 2}}], [3]])
@example(doc=[({"a": 1, 2: 3},), (4,)])
def test_rectangular_documents_match_json_dumps(doc):
    _same_as_reference(doc)
    # The same objects again at three depths, and as the rows of a matrix.
    _same_as_reference({"a": doc, "b": [doc, [doc]], "c": [doc, doc]})


def test_one_item_matrices_of_a_shared_list():
    pair = [3, 4]
    for doc in ([[pair]], ([pair],), {"a": [[pair]], "b": pair}):
        assert dumps(doc) == reference(doc)


def test_equal_items_that_are_distinct_objects():
    doc = [[[0, 1], [0, 1]], [[0, 1], [2, 3]]]
    assert dumps(doc) == reference(doc)
    shared = [0, 1]
    doc = [[shared, [0, 1]], [[0, 1], shared]]
    assert dumps(doc) == reference(doc)


def test_true_and_1_as_items_of_one_matrix():
    # Equal and of equal hash, yet written as "true" and "1".
    for doc in (
        [[[True], [1]], [[1], [True]]],
        [[True, 1], [1, True]],
        [(True,), (1,)],
    ):
        assert dumps(doc) == reference(doc)


def test_a_matrix_of_distinct_items_writes_every_one():
    doc = [[[i, j] for j in range(3)] for i in range(5)]
    assert dumps(doc) == reference(doc)
    doc = [[[i] for i in range(_CHUNK_ITEMS * 2 + 1)]]
    assert dumps(doc) == reference(doc)


def test_matrices_of_more_than_one_chunk():
    # Items first seen in a later chunk, items of earlier chunks seen
    # again, and a last chunk of one item.
    pool = [[i, -i] for i in range(40)]
    rows = [
        [pool[(3 * r + c) % (1 + r // 1000)] for c in range(3)]
        for r in range(_CHUNK_ITEMS)
    ]
    assert dumps(rows) == reference(rows)
    column = [[pool[r % 7]] for r in range(_CHUNK_ITEMS + 1)]
    column[-1] = [pool[39]]
    assert dumps(column) == reference(column)


def test_other_keys_and_types_go_to_json_dumps():
    for doc in ({2: "two", 1: [1]}, {"x": {2.5: [1], 0.5: None}}, {True: 1}):
        assert dumps(doc) == reference(doc)
    with pytest.raises(TypeError):
        dumps({"set": {1, 2}})
    with pytest.raises(TypeError):
        dumps({"a": 1, 2: 3})  # mixed keys cannot be sorted


def _composed_text_is_pinned(order):
    spec = json.loads(PINNED.read_text())["composed"][order]
    sides = [
        generate_kdf_from_initial_block(
            make_group(PrimeField(side["p"])), tuple(side["block"])
        )
        for side in (spec["left"], spec["right"])
    ]
    left, right = sides
    kdf = compose_kdf(left, right, field_dm(right.group, left.schema.k))
    scope = develop(kdf)
    assert len(scope.planes) == spec["planes"]
    text = dumps(kaleidoscope_to_json(scope))
    assert hashlib.sha256(text.encode()).hexdigest() == spec["sha256"]


def test_order_133_kaleidoscope_text_is_pinned():
    _composed_text_is_pinned("133")


def test_order_361_kaleidoscope_text_is_pinned():
    # Planes of shared element lists: the matrix fill with distinct texts.
    _composed_text_is_pinned("361")


def test_family_text_at_100003_is_pinned():
    spec = json.loads(PINNED.read_text())["family"]
    field = make_group(PrimeField(100003))
    block = asymptotic_initial_block(field, spec["schema"])
    kdf = generate_kdf_from_initial_block(field, block.points)
    text = dumps(kdf_to_json(kdf))
    want = spec["sha256"]["100003"]
    assert hashlib.sha256(text.encode()).hexdigest() == want
