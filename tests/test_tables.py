"""Witness records and the one checker behind ``kaleido reproduce``.

The records must describe exactly the witnesses the benchmark pins in
``bench/pinned.json`` (read here, never written), every table must
recheck clean through the CLI, and a record that is wrong by one must be
caught. The hand-written rechecks in ``test_acceptance.py`` stay the
independent reference for the same constants.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from kaleido import tables
from kaleido.algebra import (
    ExtensionField,
    ExtensionFieldGroup,
    PrimeField,
    PrimeFieldGroup,
    is_prime,
    make_group,
)
from kaleido.cli import main
from kaleido.search import FANO_AFFINE, HESSE_POWERS, parametric_search

PINNED = Path(__file__).resolve().parent.parent / "bench" / "pinned.json"

# Table ids in the README's order, with their entry counts.
TABLE_SIZES = {
    "fano-primes": 35,
    "fano-exceptions": 14,
    "fano-squares-5mod12": 27,
    "fano-squares-11mod12": 27,
    "fano-13-extensions": 2,
    "hesse-primes": 8,
    "hesse-alt": 14,
    "hesse-squares": 6,
    "consecutive-primes": 6,
}


def _canonical(entry: dict) -> str:
    return json.dumps(entry, sort_keys=True)


def test_records_match_the_pinned_witnesses():
    pinned = json.loads(PINNED.read_text())["tables"]
    records = [
        json.loads(json.dumps({"table": table_id, **record}))
        for table_id, table in tables.WITNESSES.items()
        for record in table
    ]
    assert len(records) == len(pinned) == 139
    assert Counter(map(_canonical, records)) == Counter(
        map(_canonical, pinned)
    )


def test_table_ids_in_readme_order():
    assert list(tables.WITNESSES) == list(TABLE_SIZES)


@pytest.mark.parametrize("table_id,size", TABLE_SIZES.items())
def test_reproduce_every_table(table_id, size, capsys):
    assert main(["reproduce", table_id]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["table"] == table_id
    assert out["all_valid"] is True
    assert len(out["entries"]) == size
    for entry, record in zip(out["entries"], tables.WITNESSES[table_id]):
        assert entry["valid"] is True
        assert {k: entry[k] for k in record} == json.loads(json.dumps(record))
        assert ("recomputed" in entry) == (
            record["kind"] in ("parametric", "consecutive")
        )


def test_recheck_builds_one_descriptor_per_field(monkeypatch):
    """A field keeps the descriptor it is made from: rechecking the nine
    tables builds as many field descriptors as fields."""
    made = Counter()

    def count(cls, what):
        init = cls.__init__

        def counted(self, *args, **kwargs):
            made[what] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    count(PrimeField, "descriptors")
    count(ExtensionField, "descriptors")
    count(PrimeFieldGroup, "fields")
    count(ExtensionFieldGroup, "fields")
    for table_id in tables.WITNESSES:
        assert tables.recheck(table_id)["all_valid"]
    assert made["fields"] > 200
    assert made["descriptors"] == made["fields"]


def _first(table_id: str, kind: str) -> dict:
    return next(r for r in tables.WITNESSES[table_id] if r["kind"] == kind)


def _x_plus_one(record: dict) -> dict:
    p, x = record["field"]["p"], record["x"]
    if isinstance(x, int):
        return {**record, "x": (x + 1) % p}
    return {**record, "x": ((x[0] + 1) % p, *x[1:])}


def _point_moved(record: dict) -> dict:
    p, pts = record["field"]["p"], record["block"]
    last = pts[-1]
    if isinstance(last, int):
        moved = (last + 1) % p
    else:
        moved = ((last[0] + 1) % p, *last[1:])
    return {**record, "block": (*pts[:-1], moved)}


BROKEN = [
    ("fano-primes", "parametric", _x_plus_one),
    ("hesse-primes", "parametric", _x_plus_one),
    ("fano-squares-5mod12", "form", _x_plus_one),
    ("fano-13-extensions", "form", _x_plus_one),
    ("fano-exceptions", "block", _point_moved),
    ("hesse-squares", "block", _point_moved),
    ("consecutive-primes", "block", _point_moved),
    (
        "consecutive-primes",
        "consecutive",
        lambda r: {**r, "primes": r["primes"][:-1]},
    ),
]


@pytest.mark.parametrize(
    "table_id,kind,spoil",
    BROKEN,
    ids=[f"{t}-{k}" for t, k, _ in BROKEN],
)
def test_a_record_off_by_one_is_caught(table_id, kind, spoil, monkeypatch,
                                       capsys):
    bad = spoil(_first(table_id, kind))
    monkeypatch.setitem(
        tables.WITNESSES, table_id, [*tables.WITNESSES[table_id], bad]
    )
    result = tables.recheck(table_id)
    assert result["all_valid"] is False
    assert [e["valid"] for e in result["entries"]].count(False) == 1
    assert result["entries"][-1]["valid"] is False
    assert main(["reproduce", table_id]) == 1
    captured = capsys.readouterr()
    assert json.loads(captured.out)["all_valid"] is False
    assert "MISMATCH" in captured.err


def _smallest_x(p: int, form: str):
    res = parametric_search(make_group(PrimeField(p)), form)
    return None if res is None else res.x


def test_witness_table_comments_match_a_rescan():
    primes = [p for p in range(7, 1000, 6) if is_prime(p)]
    affine = {
        p: _smallest_x(p, FANO_AFFINE) for p in primes if 37 <= p <= 577
    }
    found = {p: x for p, x in affine.items() if x is not None}
    stored = tables.FANO_AFFINE_PRIMES
    assert {p: x for p, x in found.items() if p in stored} == stored
    assert {p: x for p, x in found.items() if p not in stored} == {
        211: 173, 337: 51, 379: 16, 421: 21, 463: 37, 547: 118,
    }
    assert [p for p in affine if p not in found] == [
        p for p in tables.FANO_AFFINE_EXCEPTIONS if p >= 37
    ]
    # the primes = 1 (mod 6) below 1000 where the power form has no witness
    assert [p for p in primes if _smallest_x(p, HESSE_POWERS) is None] == [
        7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 109, 127, 151, 157, 193, 199,
        211, 241, 271, 283, 337, 349, 367, 463, 733, 751, 811, 937,
    ]
