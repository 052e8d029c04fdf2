"""The write path: a text written in one pass, whole rows encoded at
once, and the functions that build documents with the cyclic garbage
collector paused.

``Group.encode_rows`` must give what the element encoder gives, element
by element, and a colored family's text must keep its bytes: each
family's digest below was recorded from the element-by-element
``kdf_to_json``.
"""

import gc
import hashlib
import json
import random
import tracemalloc

import pytest

from kaleido.algebra import (
    Cyclic,
    ExtensionField,
    PrimeField,
    Product,
    make_group,
)
from kaleido.compose import compose_kdf, field_dm
from kaleido.designs import (
    KaleidoscopicDifferenceFamily,
    develop,
    dumps,
    kaleidoscope_to_json,
    kdf_to_json,
)
from kaleido.errors import InvalidKDF
from kaleido.schema import builtin_schema
from kaleido.search import (
    asymptotic_initial_block,
    generate_kdf_from_initial_block,
)

FANO = builtin_schema("fano")
F7 = make_group(PrimeField(7))
F19 = make_group(PrimeField(19))

GROUPS = {
    "Z21": Cyclic(21),
    "F19": PrimeField(19),
    "F25": ExtensionField(5, (2, 0, 1)),
    "F343": ExtensionField(7, (4, 0, 0, 1)),
    "F7xF19": Product(PrimeField(7), PrimeField(19)),
    "F25xF3": Product(ExtensionField(5, (2, 0, 1)), PrimeField(3)),
}

# sha256 of dumps(kdf_to_json(_family(name))), element by element.
FAMILY_TEXTS = {
    "Z21": (
        "6f40c1a6fbb4c29e7599057fae443feae101215b7bfc3797fa476b2a28c2c3e7"
    ),
    "F19": (
        "a640968a7265da0419421a6a62e54910139875ff3a2bf2501339bf0e93c6c3a1"
    ),
    "F25": (
        "705cc6edd983c2937f67562600f8e70394eed1221359c8d0ee797646ef97223b"
    ),
    "F343": (
        "a86bea985df34eb1c4fe3e4d37c1b59875b726061f029f37917e155b1e678c36"
    ),
    "F7xF19": (
        "27c1c254dfec15ba41c76f894e0c47ddf2e1784131b1ee84f8af81d81b0acca1"
    ),
    "F25xF3": (
        "53ba5d5ef102e1c7fd6c73968a76aa52eace1f1e41b3e00c518200cb4dc215fb"
    ),
    "Z21-true": (
        "462469a25768b65ad64be36e2c4f634fb350becaa0bb4d3e6162690b340ca10b"
    ),
}


def _rows(group, count=12, k=7, seed=3301):
    """Seeded rows of k distinct elements."""
    rng = random.Random(seed)
    return tuple(
        tuple(group[i] for i in rng.sample(range(group.order), k))
        for _ in range(count)
    )


def _family(name):
    """The colored family of one case: the real Fano families over F_19
    and F_7 x F_19, seeded rows over the rest, and over Z_21 rows whose
    first holds ``True`` in place of the point 1."""
    if name == "F19":
        return generate_kdf_from_initial_block(F19, (0, 1, 2, 4, 5, 11, 8))
    if name == "F7xF19":
        left = generate_kdf_from_initial_block(F7, (0, 1, 2, 3, 4, 5, 6))
        right = generate_kdf_from_initial_block(F19, (0, 1, 2, 4, 5, 11, 8))
        return compose_kdf(left, right, field_dm(F19, FANO.k))
    group = make_group(GROUPS[name.removesuffix("-true")])
    rows = _rows(group)
    if name.endswith("-true"):
        rows = ((0, True, 2, 4, 5, 11, 8),) + rows[1:]
    return KaleidoscopicDifferenceFamily(group, FANO, rows, {"seed": 3301})


def _element_by_element(group, rows):
    enc = group.encoder()
    return [list(map(enc, row)) for row in rows]


@pytest.mark.parametrize("name", list(GROUPS))
def test_encode_rows_matches_the_element_encoder(name):
    group = make_group(GROUPS[name])
    rows = _rows(group, count=40)
    got = group.encode_rows(rows)
    assert all(type(row) is list for row in got)
    assert json.dumps(got) == json.dumps(_element_by_element(group, rows))
    assert group.encode_rows(()) == []


def test_a_true_in_a_cyclic_row_encodes_as_1():
    group = make_group(Cyclic(21))
    rows = ((0, True, 2), (3, 4, 5))
    got = group.encode_rows(rows)
    assert json.dumps(got) == "[[0, 1, 2], [3, 4, 5]]"
    assert [list(map(type, row)) for row in got] == [[int] * 3] * 2
    assert json.dumps(got) == json.dumps(_element_by_element(group, rows))


@pytest.mark.parametrize("name", list(FAMILY_TEXTS))
def test_family_texts_keep_their_bytes(name):
    kdf = _family(name)
    text = dumps(kdf_to_json(kdf))
    want = json.dumps(
        {
            "group": kdf.group.to_json(),
            "schema": "fano",
            "blocks": _element_by_element(kdf.group, kdf.blocks),
            "provenance": kdf.provenance,
        },
        sort_keys=True,
        indent=1,
    )
    assert text == want
    assert hashlib.sha256(text.encode()).hexdigest() == FAMILY_TEXTS[name]


def _f361():
    """The bench's order-361 recipe: the F_19 Hesse family composed with
    itself."""
    block = (0, 1, 2, 3, 7, 16, 8, 4, 10)
    left, right = (
        generate_kdf_from_initial_block(F19, block) for _ in range(2)
    )
    return compose_kdf(left, right, field_dm(F19, left.schema.k))


def test_the_order_361_text_is_written_in_one_pass():
    """The writer's peak memory, above what was held before the call, is
    at most 2.5 times the text: the matrix of planes is one piece, and
    the pieces are joined once, not copied again at every level."""
    doc = kaleidoscope_to_json(develop(_f361()))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = dumps(doc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 4_000_000
    assert peak - before <= 2.5 * len(text)


# ---------------------------------------------------------------------------
# the collector pause


@pytest.fixture
def collector_on():
    was = gc.isenabled()
    gc.enable()
    yield
    if not was:
        gc.disable()


@pytest.fixture
def collector_off():
    was = gc.isenabled()
    gc.disable()
    yield
    if was:
        gc.enable()


def test_develop_restores_a_running_collector(collector_on):
    scope = develop(_f361())
    assert len(scope.planes) == 21660
    assert gc.isenabled()


def test_develop_restores_a_running_collector_when_it_raises(collector_on):
    kdf = generate_kdf_from_initial_block(F19, (0, 1, 2, 4, 5, 11, 8))
    broken = KaleidoscopicDifferenceFamily(
        kdf.group, kdf.schema, kdf.blocks[1:]
    )
    with pytest.raises(InvalidKDF):
        develop(broken)
    assert gc.isenabled()


def test_a_stopped_collector_stays_stopped(collector_off):
    kdf = _f361()
    develop(kdf)
    kdf_to_json(kdf)
    with pytest.raises(InvalidKDF):
        develop(KaleidoscopicDifferenceFamily(kdf.group, kdf.schema, ()))
    assert not gc.isenabled()


def _collections_during(call, *args):
    """The collections the collector ran while call(*args) ran."""
    seen = []

    def record(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.collect()  # no young objects left to trigger one on entry
    gc.callbacks.append(record)
    try:
        call(*args)
    finally:
        gc.callbacks.remove(record)
    return seen


def test_the_write_path_runs_no_collection(collector_on):
    kdf = _f361()
    assert _collections_during(develop, kdf) == []
    scope = develop(kdf)
    assert _collections_during(kaleidoscope_to_json, scope) == []
    assert _collections_during(kdf_to_json, kdf) == []
    field = make_group(PrimeField(10009))
    block = asymptotic_initial_block(field, "fano").points
    assert _collections_during(
        generate_kdf_from_initial_block, field, block
    ) == []
    assert gc.isenabled()


def _collections_in_dumps(doc, build, *args):
    """The collections that ``dumps(doc)`` runs when it is called right
    after ``build(*args)``, a paused builder.

    The collector runs once before the builder, never between it and
    ``dumps``: the builder's containers leave a young collection due,
    and the first container made with the collector on runs it. The
    callback and its list exist beforehand, the builder's result stays
    alive, and appending the callback makes no container."""
    seen = []

    def record(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.collect()
    built = build(*args)
    gc.callbacks.append(record)
    try:
        dumps(doc)
    finally:
        gc.callbacks.remove(record)
    del built
    return seen


def test_dumps_after_each_write_builder_runs_no_collection(collector_on):
    """Each builder below makes more containers than a young collection
    waits for, so ``dumps`` ran one at its first container before it
    paused the collector too."""
    kdf = _f361()
    scope = develop(kdf)
    doc = kaleidoscope_to_json(scope)
    field = make_group(PrimeField(100003))
    block = asymptotic_initial_block(field, "fano").points
    large = generate_kdf_from_initial_block(field, block)
    family = kdf_to_json(large)
    assert _collections_in_dumps(family, develop, kdf) == []
    assert _collections_in_dumps(doc, kaleidoscope_to_json, scope) == []
    assert _collections_in_dumps(family, kdf_to_json, large) == []
    assert _collections_in_dumps(
        family, generate_kdf_from_initial_block, field, block
    ) == []
    assert gc.isenabled()


def test_dumps_restores_a_running_collector(collector_on):
    assert dumps({"a": [[1, 2], [3, 4]]}) == json.dumps(
        {"a": [[1, 2], [3, 4]]}, sort_keys=True, indent=1
    )
    assert gc.isenabled()
    with pytest.raises(TypeError):
        dumps({"set": {1, 2}})
    assert gc.isenabled()


def test_dumps_leaves_a_stopped_collector_stopped(collector_off):
    dumps({"a": [[1, 2], [3, 4]]})
    assert not gc.isenabled()
    with pytest.raises(TypeError):
        dumps({"set": {1, 2}})
    assert not gc.isenabled()
