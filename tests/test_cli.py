"""Command line round trips, one exercise per subcommand."""

import json
import subprocess
import sys

import pytest

from kaleido.algebra import PrimeField, make_group
from kaleido.cli import main
from kaleido.compose import compose_kdf, dm_to_json, field_dm
from kaleido.designs import (
    DifferenceFamily,
    PairwiseBalancedDesign,
    develop,
    df_to_json,
    kaleidoscope_to_json,
    kdf_to_json,
    pbd_to_text,
)
from kaleido.schema import builtin_schema
from kaleido.search import generate_kdf_from_initial_block

F7 = make_group(PrimeField(7))
F19 = make_group(PrimeField(19))


def _out(capsys):
    captured = capsys.readouterr()
    return json.loads(captured.out)


def _fkdf19():
    return generate_kdf_from_initial_block(F19, (0, 1, 2, 4, 5, 11, 8))


@pytest.fixture
def kdf19_file(tmp_path):
    path = tmp_path / "fkdf19.json"
    path.write_text(json.dumps(kdf_to_json(_fkdf19())))
    return str(path)


@pytest.fixture
def kdf7_file(tmp_path):
    kdf = generate_kdf_from_initial_block(F7, (0, 1, 2, 3, 4, 5, 6))
    path = tmp_path / "fkdf7.json"
    path.write_text(json.dumps(kdf_to_json(kdf)))
    return str(path)


# -- verify -------------------------------------------------------------------


def test_verify_block_valid(capsys):
    rc = main(
        ["verify", "block", "--q", "37", "--block", "0,1,2,13,14,34,26"]
    )
    assert rc == 0
    assert _out(capsys)["valid"] is True


def test_verify_block_invalid(capsys):
    rc = main(
        ["verify", "block", "--q", "37", "--block", "0,1,2,13,14,34,25"]
    )
    assert rc == 1
    assert _out(capsys)["valid"] is False


def test_verify_block_bad_order():
    # 9 - 1 is not divisible by 3, so the class table cannot exist
    rc = main(["verify", "block", "--q", "9", "--block", "0;1;2;3;4;5;6"])
    assert rc == 2


def test_verify_kdf_file(capsys, kdf19_file):
    assert main(["verify", "kdf", "--file", kdf19_file]) == 0
    assert _out(capsys)["valid"] is True


def test_verify_kdf_file_invalid(capsys, tmp_path, kdf19_file):
    obj = json.loads((tmp_path / "fkdf19.json").read_text())
    obj["blocks"][0] = [0, 1, 2, 4, 5, 11, 9]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["verify", "kdf", "--file", str(bad)]) == 1
    out = _out(capsys)
    assert out["valid"] is False
    assert out["failing_colors"]


def test_verify_df_file(capsys, tmp_path):
    df = DifferenceFamily(F7, 3, 1, (frozenset({0, 1, 3}),))
    path = tmp_path / "df.json"
    path.write_text(json.dumps(df_to_json(df)))
    assert main(["verify", "df", "--file", str(path)]) == 0
    assert _out(capsys)["valid"] is True


def _kdf19_obj():
    return json.loads(json.dumps(kdf_to_json(_fkdf19())))


def _scope19_obj():
    return json.loads(json.dumps(kaleidoscope_to_json(develop(_fkdf19()))))


def _dm7_obj():
    return json.loads(json.dumps(dm_to_json(field_dm(F7, 7))))


def _df7_obj():
    df = DifferenceFamily(F7, 3, 1, (frozenset({0, 1, 3}),))
    return json.loads(json.dumps(df_to_json(df)))


def _bad_kdf_block(obj):
    obj["blocks"] = [5]


def _bad_dm_row(obj):
    obj["rows"][0] = 5


def _null_k(obj):
    obj["k"] = None


def _float_k(obj):
    # read through int(), this would be k = 3 and lambda = 1: valid
    obj["k"], obj["lambda"] = 3.7, "1"


def _float_layout(obj):
    # read through int(), this would be the seven-point layout: valid;
    # read as floats, it would fail with a traceback
    fano = [list(line) for line in builtin_schema("fano").lines]
    obj["schema"] = {"name": "x", "k": 7.0, "h": 3.0, "lines": fano}


def _nested_layout_lines(obj):
    obj["schema"] = {"name": "x", "k": 7, "h": 3, "lines": [[[0], [1], [2]]]}


def _bad_plane_lines(obj):
    obj["planes"][0] = {"lines": [1, 2, 3, 4, 5, 6, 7]}


def _negative_points(obj):
    obj["points"], obj["planes"] = -3, []


def _true_points(obj):
    obj["points"], obj["planes"] = True, []


def _true_element(obj):
    # read as the integer 1, this would still be a valid family
    assert obj["blocks"][0][1] == 1
    obj["blocks"][0][1] = True


@pytest.mark.parametrize(
    "target, make, spoil",
    [
        ("kdf", _kdf19_obj, _bad_kdf_block),
        ("kaleidoscope", _scope19_obj, _bad_plane_lines),
        ("kaleidoscope", _scope19_obj, _negative_points),
        ("kaleidoscope", _scope19_obj, _true_points),
        ("kdf", _kdf19_obj, _true_element),
        ("dm", _dm7_obj, _bad_dm_row),
        ("df", _df7_obj, _null_k),
        ("kdf", _kdf19_obj, _nested_layout_lines),
        ("df", _df7_obj, _float_k),
        ("kdf", _kdf19_obj, _float_layout),
    ],
    ids=["int-block", "int-lines", "negative-points", "true-points",
         "true-element", "int-row", "null-k", "nested-layout-lines",
         "float-k", "float-layout"],
)
def test_verify_malformed_documents(target, make, spoil, tmp_path, capsys):
    obj = make()
    spoil(obj)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", target, "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def _scope49_obj():
    """A developed family over F_7 x F_7, whose points are int pairs."""
    kdf = generate_kdf_from_initial_block(F7, (0, 1, 2, 3, 4, 5, 6))
    scope = develop(compose_kdf(kdf, kdf, field_dm(F7, 7)))
    return json.loads(json.dumps(kaleidoscope_to_json(scope)))


@pytest.mark.parametrize(
    "point, message",
    [
        ([True, 0], "expected an integer element, got True"),
        ([1.0, 0], "expected an integer element, got 1.0"),
        ([1], "expected a pair, got [1]"),
        ([[1], 0], "expected an integer element, got [1]"),
    ],
)
def test_product_points_that_are_no_int_pair(point, message, tmp_path, capsys):
    obj = _scope49_obj()
    obj["planes"][0][0] = point
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", "kaleidoscope", "--file", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_product_points_reduce_mod_each_factor(tmp_path, capsys):
    obj = _scope49_obj()
    obj["planes"] = [
        [[a + 7, b - 14] for a, b in row] for row in obj["planes"]
    ]
    path = tmp_path / "shifted.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", "kaleidoscope", "--file", str(path)]) == 0
    assert _out(capsys)["valid"] is True


def test_verify_missing_file():
    assert main(["verify", "kdf", "--file", "/nonexistent.json"]) == 2


def test_verify_schema_builtin(capsys):
    assert main(["verify", "schema", "--schema", "hesse"]) == 0
    out = _out(capsys)
    assert out["valid"] is True
    assert out["name"] == "hesse"


def test_verify_schema_file_invalid(tmp_path, capsys):
    obj = {
        "name": "broken",
        "k": 7,
        "h": 3,
        "lines": [[0, 1, 2]] * 7,
    }
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", "schema", "--schema", str(path)]) == 1
    assert _out(capsys)["valid"] is False


def test_verify_pbd(tmp_path, capsys):
    pbd = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    path = tmp_path / "pbd.txt"
    path.write_text(pbd_to_text(pbd))
    assert main(["verify", "pbd", "--file", str(path)]) == 0
    assert _out(capsys)["valid"] is True


# -- search -------------------------------------------------------------------


def test_search_parametric_hit(capsys):
    rc = main(
        ["search", "parametric", "--q", "37", "--form", "fano-affine"]
    )
    assert rc == 0
    out = _out(capsys)
    assert out["x"] == 13
    assert out["checked"] == 14


def test_search_parametric_miss(capsys):
    rc = main(
        ["search", "parametric", "--q", "13", "--form", "fano-affine"]
    )
    assert rc == 1
    assert _out(capsys)["found"] is False


def test_search_parametric_budget_cut_is_not_a_miss(capsys):
    # x = 13 works at q = 37, but a budget of 5 stops the search first
    rc = main(
        ["search", "parametric", "--q", "37", "--form", "fano-affine",
         "--budget", "5"]
    )
    assert rc == 1
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["found"] is False
    assert out["exhausted"] is False
    assert "budget of 5 candidates reached" in captured.err
    assert "no parameter works" not in captured.err


@pytest.mark.parametrize("budget", [[], ["--budget", "13"]])
def test_search_parametric_full_run_is_exhausted(budget, capsys):
    rc = main(
        ["search", "parametric", "--q", "13", "--form", "fano-affine",
         *budget]
    )
    assert rc == 1
    captured = capsys.readouterr()
    out = json.loads(captured.out)
    assert out["found"] is False
    assert out["exhausted"] is True
    assert "no parameter works" in captured.err


def test_search_asymptotic(capsys):
    rc = main(["search", "asymptotic", "--q", "541", "--schema", "fano"])
    assert rc == 0
    assert _out(capsys)["block"] == [0, 1, 540, 5, 536, 3, 538]


def test_search_asymptotic_emit_kdf(capsys, tmp_path):
    rc = main(
        ["search", "asymptotic", "--q", "541", "--schema", "fano",
         "--emit-kdf"]
    )
    assert rc == 0
    out = _out(capsys)
    # the bare family object, ready to pipe into verify or develop
    assert len(out["blocks"]) == 90
    path = tmp_path / "fam541.json"
    path.write_text(json.dumps(out))
    assert main(["verify", "kdf", "--file", str(path)]) == 0
    assert _out(capsys)["valid"] is True


def test_search_prefix_emit_kdf(capsys, tmp_path):
    rc = main(
        ["search", "constrained", "--q", "109", "--schema", "hesse",
         "--prefix", "--emit-kdf"]
    )
    assert rc == 0
    out = _out(capsys)
    assert len(out["blocks"]) == 18
    path = tmp_path / "fam109.json"
    path.write_text(json.dumps(out))
    assert main(["verify", "kdf", "--file", str(path)]) == 0
    assert _out(capsys)["valid"] is True


def test_search_asymptotic_miss(capsys):
    rc = main(["search", "asymptotic", "--q", "13", "--schema", "hesse"])
    assert rc == 1
    assert _out(capsys)["found"] is False


def test_search_constrained_inline(capsys):
    rc = main(
        [
            "search", "constrained", "--q", "19",
            "--constraints", '[{"shift": 0, "class": 0}]',
        ]
    )
    assert rc == 0
    assert _out(capsys)["element"] == 1


def test_search_constrained_contradiction(capsys):
    rc = main(
        [
            "search", "constrained", "--q", "37",
            "--constraints",
            '[{"shift": 0, "class": 0}, {"shift": 0, "class": 1}]',
        ]
    )
    assert rc == 1
    out = _out(capsys)
    assert out["exhausted"] is True
    assert out["contradicts_bound"] is True


def test_search_constrained_file(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_text('[{"shift": 1, "class": 0}, {"shift": 0, "class": 1}]')
    rc = main(
        ["search", "constrained", "--q", "19", "--file", str(path)]
    )
    assert rc == 0
    assert _out(capsys)["found"] is True


def test_search_constrained_prefix(capsys):
    rc = main(
        ["search", "constrained", "--q", "109", "--schema", "hesse",
         "--prefix"]
    )
    assert rc == 0
    assert _out(capsys)["block"] == [0, 1, 2, 3, 11, 12, 24, 36, 23]


def test_search_constrained_dead_prefix(capsys):
    rc = main(
        ["search", "constrained", "--q", "19", "--schema", "fano",
         "--prefix", "0,1,2,3"]
    )
    assert rc == 1


def test_search_constrained_no_inputs():
    assert main(["search", "constrained", "--q", "19"]) == 2


def test_search_constrained_has_no_jobs_flag(capsys):
    # Only the exhaustive sweep runs on a pool; neither search takes --jobs.
    for argv in (
        ["search", "constrained", "--q", "19", "--prefix", "",
         "--schema", "fano", "--jobs", "9"],
        ["search", "parametric", "--q", "37", "--form", "fano-affine",
         "--jobs", "2"],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unrecognized arguments: ")
        assert "--jobs" in err


def test_search_constrained_budget_with_prefix(capsys):
    rc = main(
        ["search", "constrained", "--q", "19", "--prefix", "",
         "--schema", "fano", "--budget", "1"]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("flag", ["--constraints", "--file"])
def test_search_constrained_chain_with_prefix(flag, tmp_path, capsys):
    chain = '[{"shift": 0, "class": 2}]'
    path = tmp_path / "chain.json"
    path.write_text(chain)
    value = chain if flag == "--constraints" else str(path)
    rc = main(
        ["search", "constrained", "--q", "19", "--prefix", "",
         "--schema", "fano", flag, value]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_search_constrained_emit_kdf_without_prefix(capsys):
    rc = main(
        ["search", "constrained", "--q", "19",
         "--constraints", '[{"shift": 0, "class": 0}]', "--emit-kdf"]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_search_constrained_budget(capsys):
    rc = main(
        ["search", "constrained", "--q", "19",
         "--constraints", '[{"shift": 0, "class": 2}]', "--budget", "1"]
    )
    assert rc == 1
    out = _out(capsys)
    assert out["checked"] == 1
    assert out["exhausted"] is False


@pytest.mark.parametrize(
    "constraints",
    ['[{"class": "i"}]', '{"a": 1}', '[{"shift": 0, "class": true}]'],
    ids=["missing-shift", "not-a-list", "true-class"],
)
def test_search_constrained_malformed_constraints(constraints, capsys):
    rc = main(
        ["search", "constrained", "--q", "19", "--constraints", constraints]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_verify_schema_file_without_k(tmp_path, capsys):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps({"name": "x", "h": 3, "lines": [[0, 1, 2]]}))
    assert main(["verify", "schema", "--schema", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


# -- compose, develop, replicate ----------------------------------------------


def test_compose_dm(capsys):
    assert main(["compose", "dm", "--q", "7", "--k", "7"]) == 0
    out = _out(capsys)
    assert len(out["rows"]) == 7
    assert all(len(row) == 7 for row in out["rows"])


@pytest.mark.parametrize("k", ["-1", "0"])
def test_compose_dm_needs_a_row(k, capsys):
    assert main(["compose", "dm", "--q", "7", "--k", k]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_compose_kdf_default_dm(capsys, kdf7_file, kdf19_file, tmp_path):
    rc = main(
        ["compose", "kdf", "--left", kdf7_file, "--right", kdf19_file]
    )
    assert rc == 0
    out = _out(capsys)
    assert out["group"] == {
        "kind": "product",
        "left": {"kind": "prime", "p": 7},
        "right": {"kind": "prime", "p": 19},
    }
    assert len(out["blocks"]) == 22
    composed = tmp_path / "composed.json"
    composed.write_text(json.dumps(out))
    assert main(["verify", "kdf", "--file", str(composed)]) == 0


def test_compose_kdf_explicit_dm(capsys, kdf7_file, tmp_path):
    m = field_dm(F7, 7)
    dm_path = tmp_path / "dm.json"
    dm_path.write_text(json.dumps(dm_to_json(m)))
    rc = main(
        [
            "compose", "kdf",
            "--left", kdf7_file,
            "--right", kdf7_file,
            "--dm", str(dm_path),
        ]
    )
    assert rc == 0
    # seven scaled copies of the right block plus the lifted left block
    assert len(_out(capsys)["blocks"]) == 8


def test_develop(capsys, kdf19_file):
    assert main(["develop", "--file", kdf19_file]) == 0
    out = _out(capsys)
    assert len(out["planes"]) == 57


def test_develop_invalid(tmp_path, capsys, kdf19_file):
    obj = json.loads((tmp_path / "fkdf19.json").read_text())
    obj["blocks"][0] = [0, 1, 2, 4, 5, 11, 9]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert main(["develop", "--file", str(bad)]) == 1
    assert _out(capsys)["valid"] is False


def test_replicate(tmp_path, capsys):
    pbd = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    path = tmp_path / "unital.txt"
    path.write_text(pbd_to_text(pbd))
    assert main(["replicate", "--file", str(path), "--schema", "fano"]) == 0
    assert len(_out(capsys)["planes"]) == 7


def test_replicate_rejects_mixed_sizes(tmp_path, capsys):
    pbd = PairwiseBalancedDesign(
        9, (frozenset(range(7)), frozenset({0, 7}), frozenset({0, 8}),
            frozenset({7, 8}))
        + tuple(frozenset({i, j}) for i in range(1, 7) for j in (7, 8)),
    )
    path = tmp_path / "mixed.txt"
    path.write_text(pbd_to_text(pbd))
    assert main(["replicate", "--file", str(path), "--schema", "fano"]) == 1


# -- exhaustive sweep ---------------------------------------------------------


def test_nonexistence_v7(capsys):
    assert main(["nonexistence", "--v", "7"]) == 0
    out = _out(capsys)
    assert out["solutions"] == 8
    assert out["exhausted"] is True


def test_nonexistence_budgeted(capsys):
    rc = main(
        ["nonexistence", "--v", "13", "--max-nodes", "5000"]
    )
    assert rc == 1
    out = _out(capsys)
    assert out["solutions"] == 0
    assert out["exhausted"] is False


def test_nonexistence_unsupported():
    assert main(["nonexistence", "--v", "25"]) == 2


def test_nonexistence_refuses_a_large_order_at_once():
    # 2^61 - 1 is a prime = 1 (mod 6); trial division of it takes hours
    v = str(2**61 - 1)
    proc = subprocess.run(
        [sys.executable, "-m", "kaleido", "nonexistence", "--v", v],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: order {v} is beyond the supported sweep\n"


@pytest.mark.parametrize(
    "extra",
    [
        ["--jobs", "-3"],
        ["--jobs", "0"],
        ["--max-nodes", "-5"],
    ],
)
def test_nonexistence_bad_arguments(extra, capsys):
    assert main(["nonexistence", "--v", "7", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


def test_search_negative_budget(capsys):
    rc = main([
        "search", "parametric", "--q", "37", "--form", "fano-affine",
        "--budget", "-1",
    ])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["asymptotic", "--q", "64"], "field order 64 is not 1 mod 6"),
        (["asymptotic", "--q", "16"], "field order 16 is not 1 mod 6"),
        (["asymptotic", "--q", "16", "--schema", "hesse"],
         "field order 16 is not 1 mod 6"),
        (["constrained", "--q", "16", "--constraints",
          '[{"shift": [0, 0, 0, 0], "class": "i"}]'],
         "class label 'i' names the class of 2, which is zero"),
        (["constrained", "--q", "64", "--schema", "fano", "--prefix", ""],
         "field order 64 is not 1 mod 6"),
        (["constrained", "--q", "16", "--schema", "hesse", "--prefix", ""],
         "field order 16 is not 1 mod 6"),
    ],
)
def test_search_in_characteristic_two_names_the_cause(argv, message, capsys):
    # 2 = 0 here, so the chains' "class of 2" does not exist, and no
    # block scales into a family
    assert main(["search", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize(
    "argv",
    [
        ["asymptotic", "--q", "5"],
        ["asymptotic", "--q", "5", "--schema", "hesse", "--backtrack"],
        ["constrained", "--q", "5", "--schema", "fano", "--prefix", ""],
        ["constrained", "--q", "11", "--prefix", ""],
    ],
)
def test_block_search_names_the_missing_congruence(argv, capsys):
    """One wording whether 3 fails to divide q - 1 or q is even."""
    assert main(["search", *argv]) == 2
    captured = capsys.readouterr()
    q = argv[argv.index("--q") + 1]
    assert captured.out == ""
    assert captured.err == f"error: field order {q} is not 1 mod 6\n"


@pytest.mark.parametrize(
    "extra,rc,reason",
    [
        (["--v", "13", "--max-nodes", "1000"], 1, "node budget"),
        (["--v", "7", "--mode", "exists"], 0, "exists mode"),
    ],
)
def test_nonexistence_says_when_jobs_are_reduced(extra, rc, reason, capsys):
    assert main(["nonexistence", "--jobs", "4", *extra]) == rc
    captured = capsys.readouterr()
    assert json.loads(captured.out)["jobs"] == 1
    note = captured.err.splitlines()[0]
    assert note.startswith("note: ran on 1 job instead of 4")
    assert reason in note


def test_nonexistence_no_note_when_jobs_kept(capsys):
    assert main(["nonexistence", "--v", "7", "--jobs", "2"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["jobs"] == 2
    assert "note:" not in captured.err


# -- reproduce ----------------------------------------------------------------


def test_reproduce_fast_table(capsys):
    assert main(["reproduce", "fano-13-extensions"]) == 0
    out = _out(capsys)
    assert out["all_valid"] is True
    fields = [e["field"] for e in out["entries"]]
    assert [(f["p"], len(f["modulus"]) - 1) for f in fields] == [
        (13, 2), (13, 3)
    ]


def test_reproduce_unknown_table(capsys):
    assert main(["reproduce", "no-such-table"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: argument table: invalid choice")


# -- catalog ------------------------------------------------------------------


def test_catalog_cycle(tmp_path, capsys, kdf19_file, monkeypatch):
    monkeypatch.setenv("KALEIDO_CATALOG", str(tmp_path / "cat"))
    assert main(["catalog", "add", "--file", kdf19_file]) == 0
    stored = _out(capsys)["stored"]
    assert stored.endswith("k19_fano.json")

    assert main(["catalog", "list"]) == 0
    entries = _out(capsys)["entries"]
    assert entries == [
        {"order": 19, "schema": "fano", "file": "k19_fano.json"}
    ]

    assert main(["catalog", "get", "--order", "19", "--schema", "fano"]) == 0
    raw = _out(capsys)
    assert len(raw["blocks"]) == 3

    assert main(["catalog", "get", "--order", "7", "--schema", "fano"]) == 1


def test_compose_pbd_from_catalog(tmp_path, capsys, kdf7_file, monkeypatch):
    monkeypatch.setenv("KALEIDO_CATALOG", str(tmp_path / "cat"))
    assert main(["catalog", "add", "--file", kdf7_file]) == 0
    capsys.readouterr()
    pbd = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    path = tmp_path / "pbd.txt"
    path.write_text(pbd_to_text(pbd))
    assert main(["compose", "pbd", "--file", str(path)]) == 0
    out = _out(capsys)
    assert len(out["planes"]) == 7


def test_compose_pbd_missing_ingredient(tmp_path, monkeypatch):
    monkeypatch.setenv("KALEIDO_CATALOG", str(tmp_path / "empty"))
    pbd = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    path = tmp_path / "pbd.txt"
    path.write_text(pbd_to_text(pbd))
    assert main(["compose", "pbd", "--file", str(path)]) == 2


# -- console entry point ------------------------------------------------------


def test_console_script_smoke():
    proc = subprocess.run(
        [
            sys.executable, "-m", "kaleido.cli",
            "verify", "block", "--q", "37",
            "--block", "0,1,2,13,14,34,26",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True


def test_python_dash_m_kaleido():
    proc = subprocess.run(
        [sys.executable, "-m", "kaleido", "nonexistence", "--v", "7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solutions"] == 8
