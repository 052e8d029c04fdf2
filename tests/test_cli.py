"""Command line round trips, one exercise per subcommand."""

import json
import os
import resource
import subprocess
import sys

import pytest

from kaleido.algebra import PrimeField, make_group
from kaleido.cli import _prime_power, main
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
from kaleido.errors import MalformedInput
from kaleido.schema import builtin_schema
from kaleido.search import (
    generate_kdf_from_initial_block,
    verify_listed_block,
)

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


def test_verify_block_bad_order(capsys):
    # well-formed points of F_9; 9 - 1 is not divisible by 3, and the
    # block is refused with the block searches' wording
    block = "0,0;1,0;2,0;0,1;1,1;2,1;0,2"
    rc = main(["verify", "block", "--q", "9", "--block", block])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: field order 9 is not 1 mod 6\n"


@pytest.mark.parametrize("q", [16, 64])
def test_verify_block_refuses_characteristic_two(q, capsys):
    # 3 divides q - 1, but q is even: the searches refuse such a field,
    # and so does the check of a listed block
    block = "0,0;1,0;0,1;1,1;0,0,1;1,0,1;0,1,1"
    rc = main(["verify", "block", "--q", str(q), "--block", block])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: field order {q} is not 1 mod 6\n"


@pytest.mark.parametrize(
    "name, h, lines, block",
    [
        # PG(2, 3): the 13 translates of {0, 1, 3, 9} mod 13
        (
            "pg23",
            4,
            [sorted((x + i) % 13 for x in (0, 1, 3, 9)) for i in range(13)],
            ",".join(map(str, range(13))),
        ),
        ("pairs", 2, [[0, 1], [0, 2], [1, 2]], "0,1,2"),
    ],
    ids=["h4", "h2"],
)
def test_verify_block_refuses_lines_not_of_three_points(
    name, h, lines, block, tmp_path, capsys
):
    path = tmp_path / f"{name}.json"
    k = len(block.split(","))
    path.write_text(json.dumps({"name": name, "k": k, "h": h, "lines": lines}))
    argv = ["verify", "block", "--q", "79", "--block", block]
    assert main(argv + ["--schema", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: layout {name!r} has lines of {h} points;"
        " an initial block needs lines of 3\n"
    )


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


def test_search_asymptotic_at_a_large_prime_order():
    # 2^61 - 1 = 1 (mod 6); trial division of it took hours
    q = str(2**61 - 1)
    proc = subprocess.run(
        [sys.executable, "-m", "kaleido", "search", "asymptotic", "--q", q],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0
    assert proc.stderr == "found an initial block\n"
    assert json.loads(proc.stdout)["q"] == 2**61 - 1


@pytest.mark.parametrize(
    "args", [[], ["--schema", "hesse", "--backtrack"]], ids=["fano", "hesse"]
)
def test_search_asymptotic_at_a_prime_order_with_a_large_q_minus_1_factor(
    args,
):
    # q - 1 = 6 * 288,230,376,151,712,227, a prime that trial division of
    # q - 1 for the primitive element could not reach
    q = 1_729_382_256_910_273_363
    proc = subprocess.run(
        [sys.executable, "-m", "kaleido", "search", "asymptotic",
         "--q", str(q), *args],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["found"] is True
    assert verify_listed_block(make_group(PrimeField(q)), out["block"])


def _prime_power_by_division(q):
    """(p, d) with p prime and p^d = q, by dividing out q's least factor;
    None when q is not a prime power."""
    if q < 2:
        return None
    p = next(f for f in range(2, q + 1) if q % f == 0)
    d = 0
    while q % p == 0:
        q //= p
        d += 1
    return (p, d) if q == 1 else None


def test_prime_power_matches_trial_division():
    for q in range(-10, 5000):
        want = _prime_power_by_division(q)
        if want is not None:
            assert _prime_power(q) == want, q
        else:
            with pytest.raises(MalformedInput) as err:
                _prime_power(q)
            assert str(err.value) == f"{q} is not a prime power"


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize(
    "args,rc,err",
    [
        # (10^9 + 7)^2 and 1,000,003^3: the fields build, the blocks fail
        (["verify", "block", "--q", "1000000014000000049",
          "--block", "0,0;1,0;0,1;1,1;2,0;0,2;2,1"], 1, ""),
        (["verify", "block", "--q", "1000009000027000027",
          "--block", "0,0,0;1,0,0;2,0,0;3,0,0;4,0,0;5,0,0;6,0,0"], 1, ""),
        # the product of the two primes after 10^15
        (["search", "asymptotic", "--q", "1000000000000128000000000003367"],
         2, "error: 1000000000000128000000000003367 is not a prime power"),
        # 2^89 - 1, a prime past the Miller-Rabin bound
        (["search", "asymptotic", "--q", "618970019642690137449562111"],
         2, "error: cannot prove 618970019642690137449562111 prime"),
    ],
    ids=["p2", "p3", "semiprime", "m89"],
)
def test_large_orders_are_set_up_in_polylog_steps(args, rc, err):
    """Field set-up neither lists residues nor factors q: each call
    answers within a 1 GiB address space."""
    proc = subprocess.run(
        [sys.executable, "-m", "kaleido", *args],
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == rc, proc.stderr
    assert proc.stderr.startswith(err), proc.stderr
    assert "Traceback" not in proc.stderr


def test_failing_family_over_a_large_prime_answers_in_small_memory(tmp_path):
    """A one-block family over F_(10^9 + 7) fails without listing the
    group: exit 1 within a 1 GiB address space."""
    doc = tmp_path / "family.json"
    doc.write_text(json.dumps({
        "group": {"kind": "prime", "p": 1000000007},
        "schema": "fano",
        "blocks": [[0, 1, 2, 4, 5, 11, 8]],
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "kaleido", "verify", "kdf", "--file", str(doc)],
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["valid"] is False


def test_compose_refuses_a_failing_family_before_the_default_matrix(
    tmp_path, kdf7_file
):
    """An empty family over F_(10^9 + 7) is refused before the default
    matrix lists that field: exit 2 within a 1 GiB address space."""
    doc = tmp_path / "empty.json"
    doc.write_text(json.dumps({
        "group": {"kind": "prime", "p": 1000000007},
        "schema": "fano",
        "blocks": [],
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "kaleido", "compose", "kdf",
         "--left", kdf7_file, "--right", str(doc)],
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: second family:"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_running_out_of_memory_is_one_error_line():
    """The family at q = 10,000,141 needs about 1 GB; within 400 MB of
    address space the command stops with one error line and exit 2, not
    a MemoryError traceback."""
    cap = 400_000 * 1024

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "kaleido", "search", "asymptotic",
         "--q", "10000141", "--emit-kdf"],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=limit,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: out of memory\n"
    assert proc.stdout == ""


_CLI = (
    "import sys\n"
    "from kaleido.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize("q", [3163**2, 10007**2], ids=["3163^2", "10007^2"])
def test_hesse_chain_at_a_large_prime_square_walks_the_field(q, run_with_peak):
    """The chains read field elements one at a time: at 10007^2 the
    search once listed all 10^8 elements and ran out of memory."""
    proc, peak = run_with_peak(
        _CLI, "search", "asymptotic", "--q", str(q), "--schema", "hesse",
        "--backtrack", timeout=60, preexec_fn=_limit_memory,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "found an initial block\n"
    assert peak < 60 * 1024, peak
    assert json.loads(proc.stdout)["found"] is True


@pytest.mark.parametrize(
    "target, doc",
    [
        ("kaleidoscope", {"points": {"kind": "prime", "p": 1000000007},
                          "schema": "fano", "planes": []}),
        ("kaleidoscope", {"points": {"kind": "prime", "p": 2**61 - 1},
                          "schema": "fano", "planes": []}),
        # (10^12 + 39)^2 points: len() of them overflows
        ("kaleidoscope", {"points": {"kind": "ext", "p": 1000000000039,
                                     "modulus": [1, 0, 1]},
                          "schema": "fano", "planes": []}),
        ("kdf", {"group": {"kind": "ext", "p": 1000000007,
                           "modulus": [1, 0, 1]},
                 "schema": "fano",
                 "blocks": [[[0, 0], [1, 0], [0, 1], [1, 1], [2, 0], [0, 2],
                             [2, 1]]]}),
    ],
    ids=["scope-p", "scope-m61", "scope-ext", "kdf-ext"],
)
def test_failing_document_over_a_large_group_answers_in_small_memory(
    target, doc, tmp_path
):
    """Each fails without listing or copying its points: exit 1 within
    a 1 GiB address space."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run(
        [sys.executable, "-m", "kaleido", "verify", target, "--file",
         str(path)],
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=_limit_memory,
    )
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["valid"] is False
    if target == "kaleidoscope":
        first = "((0, 0), (0, 1))" if "modulus" in str(doc) else "(0, 1)"
        want = f"pair {first} carries color 0 0 times, wanted 1\n"
        assert proc.stderr == want


# ---------------------------------------------------------------------------
# malformed documents name their fault


_FANO7 = '"points": 7, "schema": "fano"'
_SEVEN_LINES = '[[0, 1], [0, 2], [0, 3], [0, 4], [0, 5], [0, 6], [1, 2]]'


@pytest.mark.parametrize(
    "target, text, message",
    [
        ("kaleidoscope", '{%s, "planes": {}}' % _FANO7,
         "planes must be a list"),
        ("kaleidoscope", '{%s, "planes": [{"lines": 5}]}' % _FANO7,
         "plane needs one line per color"),
        ("kaleidoscope", '{%s, "planes": [{"lines": [[0, 1, 2]]}]}' % _FANO7,
         "plane needs one line per color"),
        ("kaleidoscope", '{%s, "planes": [{"lines": %s}]}'
         % (_FANO7, _SEVEN_LINES), "line has the wrong size"),
        ("kaleidoscope", '{%s, "planes": [5]}' % _FANO7,
         "plane must be a point list or a line table"),
        ("kaleidoscope", '{%s, "planes": [[0, 1, 2, 3, 4, 5, 9]]}' % _FANO7,
         "point 9 out of range"),
        ("kaleidoscope", '{%s, "planes": [[0, 1, 2, 3, 4, 5, true]]}'
         % _FANO7, "point True out of range"),
        ("pbd", "0 1 2\n", "line 1: expected 'v=<count>'"),
        ("pbd", "v=x\n", "line 1: bad point count 'x'"),
        ("pbd", "# a comment\n\nv=7\n0 a\n",
         "line 4: blocks are space-separated ints"),
        ("pbd", "# a comment only\n", "no 'v=' header found"),
        ("pbd", "v=7\n0 1 1\n", "line 2: repeated point"),
        ("pbd", "v=-3\n", "line 1: point count -3 is negative"),
        ("schema", "[1, 2]", "layout must be a name or a JSON object"),
        ("schema", '{"k": 7, "h": 3, "lines": 5}',
         "layout lines must be a list"),
        ("kdf", '{"group": {"kind": "prime", "p": 7}, "schema": 5,'
         ' "blocks": []}', "layout must be a name or a JSON object"),
        *(
            ("kdf", '{"group": {"kind": "prime", "p": 7}, "schema": "fano",'
             ' "blocks": [], "provenance": %s}' % value,
             "provenance must be an object")
            for value in ("[]", "0", "false", '""')
        ),
    ],
)
def test_malformed_document_names_its_fault(
    target, text, message, tmp_path, capsys
):
    path = tmp_path / "doc"
    path.write_text(text)
    flag = "--schema" if target == "schema" else "--file"
    assert main(["verify", target, flag, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# --modulus


@pytest.mark.parametrize("modulus", ["1,0,1", "2,0,1", "-5,7,1"])
def test_modulus_names_the_field(modulus, capsys):
    argv = ["compose", "dm", "--q", "49", "--k", "3", f"--modulus={modulus}"]
    assert main(argv) == 0
    group = _out(capsys)["group"]
    want = [int(c) % 7 for c in modulus.split(",")]
    assert group == {"kind": "ext", "p": 7, "modulus": want}


@pytest.mark.parametrize(
    "q, modulus, message",
    [
        ("49", "1,0,0,1", "--modulus needs degree 2 for order 49"),
        ("49", "1,1", "--modulus needs degree 2 for order 49"),
        ("49", "1,0,2", "extension modulus must be monic"),
        ("49", "6,0,1", "[6, 0, 1] factors over Z_7"),
        ("49", "1,x,1", "invalid literal for int() with base 10: 'x'"),
        ("49", "", "invalid literal for int() with base 10: ''"),
        ("43", "1,0,1", "--modulus only applies to prime powers"),
        # an empty value is refused, not read as no modulus
        ("43", "", "--modulus only applies to prime powers"),
    ],
    ids=["degree-3", "degree-1", "not-monic", "reducible", "not-int",
         "empty", "prime", "prime-empty"],
)
def test_modulus_refusals(q, modulus, message, capsys):
    argv = ["verify", "block", "--q", q, f"--modulus={modulus}",
            "--block", "0,1,2,3,4,5,6"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_search_constrained_schema_without_prefix(capsys):
    # The layout names the block --prefix extends; a chain search has none.
    rc = main(
        ["search", "constrained", "--q", "19",
         "--constraints", '[{"shift": 0, "class": "i"}]', "--schema", "fano"]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --schema applies only to --prefix\n"


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


def test_nameless_layout_file_is_named_custom(tmp_path, capsys):
    """One loader reads a layout file for every command, and names a
    layout without a name ``custom``."""
    fano = builtin_schema("fano")
    layout = tmp_path / "nameless.json"
    layout.write_text(
        json.dumps({"k": 7, "h": 3, "lines": [list(l) for l in fano.lines]})
    )
    assert main(["verify", "schema", "--schema", str(layout)]) == 0
    assert _out(capsys)["name"] == "custom"
    rc = main(["verify", "block", "--q", "19", "--block", "0,1,2,4,5,11,8",
               "--schema", str(layout)])
    assert rc == 0
    assert _out(capsys)["valid"] is True
    pbd = tmp_path / "plane.txt"
    plane = PairwiseBalancedDesign(7, (frozenset(range(7)),))
    pbd.write_text(pbd_to_text(plane))
    assert main(["replicate", "--file", str(pbd), "--schema", str(layout)]) == 0
    # the layout equals the builtin, so the document names it as such
    out = _out(capsys)
    assert out["schema"] == "fano"
    assert len(out["planes"]) == 7


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
    # 2^61 - 1 is a prime = 1 (mod 6), far past the bound
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
        # 3 divides q - 1, but q is even
        ["parametric", "--q", "4", "--form", "fano-powers"],
        ["parametric", "--q", "16", "--form", "fano-powers"],
        ["parametric", "--q", "64", "--form", "fano-powers"],
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


def test_nonexistence_says_when_the_platform_cannot_fork(monkeypatch, capsys):
    monkeypatch.delattr(os, "fork")
    assert main(["nonexistence", "--v", "7", "--jobs", "4"]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["jobs"] == 1
    assert captured.err.splitlines()[0] == (
        "note: ran on 1 job instead of 4:"
        " this platform cannot fork worker processes"
    )


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


@pytest.fixture
def refusal_files(tmp_path, kdf7_file, kdf19_file):
    """Files named by the argument lists of the refusal cases."""
    files = {"left": kdf7_file, "right": kdf19_file}
    for name, group, k in (("dm5", F19, 5), ("dm7", F7, 7)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(dm_to_json(field_dm(group, k))))
        files[name] = str(path)
    path = tmp_path / "empty.txt"
    path.write_text("v=0\n")
    files["pbd0"] = str(path)
    return files


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            "compose kdf --left {left} --right {right} --dm {dm5}",
            "matrix has 5 rows, the blocks have 7 entries",
        ),
        (
            "compose kdf --left {left} --right {right} --dm {dm7}",
            "matrix group differs from the second family",
        ),
        (
            "catalog add --file {dm7}",
            "expected a family or kaleidoscope object",
        ),
        ("verify schema --schema=", "pass --schema with a name or a file"),
        ("compose pbd --file {pbd0}", "the covering design has no blocks"),
    ],
    ids=["dm-rows", "dm-group", "catalog-matrix", "empty-schema", "empty-pbd"],
)
def test_ingredient_refusals_are_one_error_line(
    argv, message, refusal_files, tmp_path, capsys, monkeypatch
):
    monkeypatch.setenv("KALEIDO_CATALOG", str(tmp_path / "cat"))
    assert main([arg.format(**refusal_files) for arg in argv.split()]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not (tmp_path / "cat").exists()


def _one_error_line(rc, capsys):
    """The error line of a run that must exit 2 with nothing on stdout."""
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


def _seven_point_pbd(tmp_path):
    path = tmp_path / "pbd.txt"
    path.write_text(
        pbd_to_text(PairwiseBalancedDesign(7, (frozenset(range(7)),)))
    )
    return str(path)


@pytest.mark.parametrize(
    "text", ["5", "null", "true", "1.5", '["blocks"]', '{"points": 7}']
)
def test_catalog_refuses_a_document_that_is_no_entry(text, tmp_path, capsys):
    """``catalog add``, and ``compose pbd`` through a catalog entry, read
    a document that is no JSON object, or an object with neither blocks
    nor planes, as neither a family nor a kaleidoscope."""
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    cat = tmp_path / "cat"
    rc = main(["catalog", "add", "--file", str(doc), "--catalog", str(cat)])
    err = _one_error_line(rc, capsys)
    assert err == "error: expected a family or kaleidoscope object\n"
    assert not cat.exists()

    cat.mkdir()
    (cat / "k7_fano.json").write_text(text)
    pbd = _seven_point_pbd(tmp_path)
    rc = main(["compose", "pbd", "--file", pbd, "--catalog", str(cat)])
    err = _one_error_line(rc, capsys)
    assert err == "error: expected a family or kaleidoscope object\n"

    rc = main(["catalog", "get", "--order", "7", "--catalog", str(cat)])
    err = _one_error_line(rc, capsys)
    assert err == "error: expected a family or kaleidoscope object\n"


def test_catalog_add_refuses_an_unusable_catalog_path(
    tmp_path, capsys, kdf19_file
):
    """A catalog under a regular file cannot be made: one error line
    naming the file that would have been stored."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    cat = blocker / "sub"
    rc = main(["catalog", "add", "--file", kdf19_file, "--catalog", str(cat)])
    err = _one_error_line(rc, capsys)
    assert err.startswith(f"error: {cat / 'k19_fano.json'}: ")
    assert "Not a directory" in err


@pytest.mark.parametrize(
    "argv",
    [
        "verify kdf --file {bad}",
        "verify kaleidoscope --file {bad}",
        "develop --file {bad}",
        "catalog add --file {bad} --catalog {empty}",
        "catalog get --order 7 --catalog {cat}",
    ],
    ids=["verify-kdf", "verify-kaleidoscope", "develop", "catalog-add",
         "catalog-get"],
)
def test_a_file_that_is_not_utf8_is_named(argv, tmp_path, capsys):
    """A document or catalog entry whose bytes are not UTF-8 is one error
    line that names the file, as an unreadable file is."""
    bad = tmp_path / "bad.json"
    cat = tmp_path / "cat"
    cat.mkdir()
    entry = cat / "k7_fano.json"
    for path in (bad, entry):
        path.write_bytes(b'\xff\xfe{"blocks": []}')
    empty = tmp_path / "emptycat"
    files = {"bad": bad, "cat": cat, "empty": empty}
    rc = main([arg.format(**files) for arg in argv.split()])
    err = _one_error_line(rc, capsys)
    source = bad if "{bad}" in argv else entry
    assert err.startswith(f"error: {source}: 'utf-8' codec can't decode")
    assert not empty.exists()


# A document nested deeper than the JSON decoder can recurse into.
DEEP = "[" * 2000 + "]" * 2000


@pytest.fixture
def deep_files(tmp_path, kdf7_file):
    """Files named by the argument lists of the deep-document cases: a
    deep document, a catalog whose one entry is deep, and a PBD that
    asks that catalog for its entry."""
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP)
    cat = tmp_path / "deepcat"
    cat.mkdir()
    (cat / "k7_fano.json").write_text(DEEP)
    return {
        "deep": str(deep),
        "cat": str(cat),
        "entry": str(cat / "k7_fano.json"),
        "kdf": kdf7_file,
        "pbd": _seven_point_pbd(tmp_path),
        "empty": str(tmp_path / "emptycat"),
    }


@pytest.mark.parametrize(
    "argv,source",
    [
        ("verify kdf --file {deep}", "{deep}"),
        ("verify kaleidoscope --file {deep}", "{deep}"),
        ("verify df --file {deep}", "{deep}"),
        ("verify dm --file {deep}", "{deep}"),
        ("verify schema --schema {deep}", "{deep}"),
        ("develop --file {deep}", "{deep}"),
        ("compose kdf --left {kdf} --right {deep}", "{deep}"),
        ("compose kdf --left {kdf} --right {kdf} --dm {deep}", "{deep}"),
        ("catalog add --file {deep} --catalog {empty}", "{deep}"),
        ("catalog get --order 7 --catalog {cat}", "{entry}"),
        ("compose pbd --file {pbd} --catalog {cat}", "{entry}"),
        ("search constrained --q 7 --file {deep}", "{deep}"),
        ("search constrained --q 7 --constraints " + DEEP, ""),
    ],
    ids=[
        "verify-kdf", "verify-kaleidoscope", "verify-df", "verify-dm",
        "verify-schema", "develop", "compose-kdf", "compose-kdf-dm",
        "catalog-add", "catalog-get", "compose-pbd", "constraints-file",
        "constraints-inline",
    ],
)
def test_deep_json_is_one_error_line(argv, source, deep_files, capsys):
    """Every JSON reader refuses a document too deep to decode, naming
    its file as for a syntax error; inline constraints have no file."""
    rc = main([arg.format(**deep_files) for arg in argv.split()])
    err = _one_error_line(rc, capsys)
    prefix = f"{source.format(**deep_files)}: " if source else ""
    assert err.startswith(f"error: {prefix}maximum recursion depth exceeded")
    assert not os.path.exists(deep_files["empty"])


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


@pytest.mark.parametrize(
    "argv",
    [
        ["nonexistence", "--v", "7"],
        ["search", "asymptotic", "--q", "100003", "--emit-kdf"],
    ],
    ids=["nonexistence", "emit-kdf"],
)
def test_closed_stdout_exits_with_the_outcome_code(argv):
    """A reader that leaves before the result is written costs the
    output, not the exit code, and prints no traceback."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "kaleido", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr
