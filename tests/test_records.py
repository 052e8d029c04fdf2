"""The package's record classes: fields read from the class body, with
construction, defaults, equality, hashing, freezing and repr as the
``dataclasses`` versions of these classes had them, and no code made
at run time."""

import builtins
import copy
import pickle

import pytest

from kaleido import algebra, compose, designs, schema, search
from kaleido.algebra import (
    Cyclic,
    ExtensionField,
    PrimeField,
    Product,
    _Fresh,
    _Record,
    make_group,
)
from kaleido.designs import (
    DFReport,
    Kaleidoscope,
    KaleidoscopeReport,
    KaleidoscopicDifferenceFamily,
    PairwiseBalancedDesign,
    PBDReport,
)
from kaleido.errors import DuplicateElements, MalformedInput, UntiledLayout
from kaleido.schema import KaleidoscopeSchema, OrderedBlock, builtin_schema
from kaleido.search import (
    CyclotomicConstraint,
    ParametricResult,
    exhaustive_nonexistence,
    generate_kdf_from_initial_block,
)

FANO = builtin_schema("fano")
F19 = make_group(PrimeField(19))

# Every record class, its fields in constructor order, and whether it is
# frozen: as ``dataclasses.fields`` listed them.
RECORDS = [
    (algebra.Cyclic, ("v",), True),
    (algebra.PrimeField, ("p",), True),
    (algebra.ExtensionField, ("p", "modulus"), True),
    (algebra.Product, ("left", "right"), True),
    (schema.KaleidoscopeSchema, ("name", "k", "h", "lines"), True),
    (schema.OrderedBlock, ("schema", "points"), True),
    (designs.DFReport, ("valid", "lam", "off_elements", "bad_blocks"), False),
    (designs.DifferenceFamily, ("group", "k", "lam", "blocks"), False),
    (
        designs.KaleidoscopicDifferenceFamily,
        ("group", "schema", "blocks", "provenance"),
        False,
    ),
    (designs.KDFReport, ("valid", "color_reports", "failing_colors"), False),
    (designs.Kaleidoscope, ("points", "schema", "planes"), False),
    (
        designs.KaleidoscopeReport,
        ("valid", "first_violation", "alien_points", "bad_plane"),
        False,
    ),
    (designs.PairwiseBalancedDesign, ("v", "blocks"), False),
    (designs.PBDReport, ("valid", "first_violation"), False),
    (compose.DifferenceMatrix, ("group", "rows"), False),
    (compose.DMReport, ("valid", "failing_pair"), False),
    (search.CyclotomicConstraint, ("shift", "klass"), True),
    (
        search.ConstrainedSearchResult,
        ("element", "checked", "exhausted", "contradicts_bound", "bound"),
        False,
    ),
    (search.ParametricResult, ("x", "block", "checked"), False),
    (
        search.NonexistenceCertificate,
        (
            "v", "schema", "blocks", "normalizations", "subtree_count",
            "nodes_visited", "solutions", "first_solution", "exhausted",
            "mode", "jobs",
        ),
        False,
    ),
]


@pytest.mark.parametrize("cls, fields, frozen", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_each_record_class_lists_its_fields(cls, fields, frozen):
    assert issubclass(cls, _Record)
    assert cls._fields == fields
    assert (cls.__hash__ is not None) == frozen


def test_positional_and_keyword_construction_agree():
    assert ExtensionField(5, (2, 0, 1)) == ExtensionField(
        modulus=(2, 0, 1), p=5
    )
    assert ExtensionField(5, modulus=(2, 0, 1)).modulus == (2, 0, 1)
    result = ParametricResult(block=(0, 1), checked=3, x=2)
    assert (result.x, result.block, result.checked) == (2, (0, 1), 3)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: PrimeField(), "missing required argument 'p'"),
        (lambda: ExtensionField(5), "missing required argument 'modulus'"),
        (lambda: PrimeField(7, 11), "has 1 fields but was given 2 positional"),
        (lambda: PrimeField(q=7), "missing required argument 'p'"),
        (lambda: PrimeField(7, q=1), "unexpected keyword argument 'q'"),
        (lambda: PrimeField(7, p=7), "multiple values for argument 'p'"),
        (lambda: PBDReport(True), "missing required argument"),
    ],
)
def test_a_missing_or_extra_argument_raises_type_error(make, message):
    with pytest.raises(TypeError, match=message):
        make()


def test_defaults():
    report = KaleidoscopeReport(False, None, [])
    assert report.bad_plane is None
    assert KaleidoscopeReport(False, None, [], (0, 9, 7)).bad_plane == (
        0, 9, 7,
    )
    assert KaleidoscopeReport.bad_plane is None


def test_each_family_gets_its_own_provenance():
    blocks = ((0, 1, 2, 4, 5, 11, 8),)
    one = KaleidoscopicDifferenceFamily(F19, FANO, blocks)
    two = KaleidoscopicDifferenceFamily(F19, FANO, blocks)
    assert one.provenance == two.provenance == {}
    assert one.provenance is not two.provenance
    one.provenance["method"] = "hand"
    assert two.provenance == {}
    assert not hasattr(KaleidoscopicDifferenceFamily, "provenance")
    given = {"method": "given"}
    assert KaleidoscopicDifferenceFamily(
        F19, FANO, blocks, given
    ).provenance is given


def test_post_init_runs_after_the_fields_are_set():
    with pytest.raises(UntiledLayout):
        KaleidoscopeSchema("bad", 7, 3, ((0, 1, 2),) * 7)
    with pytest.raises(MalformedInput):
        KaleidoscopeSchema("small", 2, 2, ())
    with pytest.raises(DuplicateElements):
        OrderedBlock(FANO, (0,) * 7)
    with pytest.raises(DuplicateElements):
        KaleidoscopicDifferenceFamily(F19, FANO, ((0,) * 7,))
    with pytest.raises(MalformedInput):
        Kaleidoscope([0, 1, 2], FANO, ())
    with pytest.raises(MalformedInput):
        PairwiseBalancedDesign(-1, ())
    # The layout's line picker is set by its check, past the freeze.
    assert FANO.lines_at(tuple(range(7)))[0] == frozenset({0, 1, 3})


def test_equality_holds_within_one_class_only():
    assert PrimeField(7) == PrimeField(7)
    assert PrimeField(7) != PrimeField(11)
    assert Cyclic(7) != PrimeField(7)
    assert make_group(Cyclic(7)) != make_group(PrimeField(7))
    assert PrimeField(7) != 7
    assert PrimeField(7) != (7,)
    assert Product(Cyclic(3), PrimeField(7)) == Product(
        Cyclic(3), PrimeField(7)
    )
    assert Product(Cyclic(3), PrimeField(7)) != Product(
        PrimeField(3), PrimeField(7)
    )
    assert PBDReport(True, None) == PBDReport(True, None)
    assert PBDReport(True, None) != DFReport(True, None, [], [])


def test_frozen_records_refuse_assignment_and_hash_by_their_fields():
    field = PrimeField(7)
    for name in ("p", "other"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(field, name, 11)
    with pytest.raises(AttributeError, match="cannot delete field 'p'"):
        del field.p
    assert field.p == 7
    with pytest.raises(AttributeError):
        FANO.k = 9
    # The hash is that of the fields' tuple, as a frozen dataclass's was.
    assert hash(field) == hash((7,))
    assert hash(ExtensionField(5, (2, 0, 1))) == hash((5, (2, 0, 1)))
    assert hash(FANO) == hash(("fano", 7, 3, FANO.lines))
    assert len({PrimeField(7), PrimeField(7), Cyclic(7)}) == 2
    assert hash(CyclotomicConstraint(0, "i")) == hash((0, "i"))


def test_mutable_records_take_assignment_and_are_unhashable():
    result = ParametricResult(2, (0, 1), 3)
    result.checked = 4
    assert result == ParametricResult(2, (0, 1), 4)
    with pytest.raises(TypeError, match="unhashable"):
        hash(result)
    with pytest.raises(TypeError, match="unhashable"):
        hash(KaleidoscopeReport(True, None, []))


def test_repr_text():
    assert repr(PrimeField(7)) == "PrimeField(p=7)"
    assert repr(ExtensionField(5, (2, 0, 1))) == (
        "ExtensionField(p=5, modulus=(2, 0, 1))"
    )
    assert repr(Product(Cyclic(3), PrimeField(7))) == (
        "Product(left=Cyclic(v=3), right=PrimeField(p=7))"
    )
    assert repr(make_group(PrimeField(7))) == "PrimeFieldGroup(PrimeField(p=7))"
    assert repr(FANO) == (
        "KaleidoscopeSchema(name='fano', k=7, h=3, lines=((0, 1, 3),"
        " (1, 2, 4), (2, 3, 5), (3, 4, 6), (0, 4, 5), (1, 5, 6), (0, 2, 6)))"
    )
    assert repr(KaleidoscopeReport(False, ((1, 2), 3, 0), [])) == (
        "KaleidoscopeReport(valid=False, first_violation=((1, 2), 3, 0),"
        " alien_points=[], bad_plane=None)"
    )
    assert repr(DFReport(True, 1, [], [])) == (
        "DFReport(valid=True, lam=1, off_elements=[], bad_blocks=[])"
    )
    assert repr(CyclotomicConstraint(0, "i")) == (
        "CyclotomicConstraint(shift=0, klass='i')"
    )
    assert repr(ParametricResult(13, (0, 1, 2), 14)) == (
        "ParametricResult(x=13, block=(0, 1, 2), checked=14)"
    )


def test_certificate_json_keeps_its_keys_and_their_order():
    got = exhaustive_nonexistence(7, "fano").to_json()
    want = {
        "v": 7,
        "schema": "fano",
        "blocks": 1,
        "normalizations": [
            "translation: the first entry of every block is 0",
            "unit scaling: the second entry of the first block is 1",
            "solutions are counted over ordered block sequences",
        ],
        "subtree_count": 12,
        "nodes_visited": 43,
        "solutions": 8,
        "first_solution": [[0, 1, 2, 3, 4, 5, 6]],
        "exhausted": True,
        "mode": "count",
        "jobs": 1,
    }
    assert got == want
    assert list(got) == list(want)


def test_records_pickle_and_copy():
    kdf = generate_kdf_from_initial_block(F19, (0, 1, 2, 4, 5, 11, 8))
    for record in (
        PrimeField(7),
        FANO,
        ParametricResult(2, (0, 1), 3),
        kdf,
        designs.verify_kdf(kdf),
    ):
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
            assert twin == record
            assert list(vars(twin)) == list(vars(record))


def test_a_record_class_is_made_without_generated_code(monkeypatch):
    calls = []
    for name in ("exec", "eval", "compile"):
        real = getattr(builtins, name)
        monkeypatch.setattr(
            builtins, name,
            lambda *args, _name=name, _real=real, **kwargs: (
                calls.append(_name) or _real(*args, **kwargs)
            ),
        )

    class Point(_Record, frozen=True):
        x: int
        y: int = 0

    class Bag(_Record):
        items: list = _Fresh(list)

    made = (
        Point(1) == Point(x=1, y=0),
        repr(Point(1, 2)),
        hash(Point(1, 2)),
        Bag().items,
        Bag().items is Bag().items,
    )
    monkeypatch.undo()
    assert calls == []
    # The repr names the class by its qualified name, as before.
    assert made == (
        True, f"{Point.__qualname__}(x=1, y=2)", hash((1, 2)), [], False,
    )

