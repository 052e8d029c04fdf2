"""Malformed input at the CLI boundary: an exit code, never a traceback.

Each document example takes the valid documents a command reads (``verify
df``, ``verify kdf``, ``verify kaleidoscope``, ``verify dm``, ``develop``,
``compose kdf`` or ``catalog add``), replaces or deletes one value anywhere
in one of them, and runs the command in process; ``catalog add`` stores
into a catalog of its own per example. Each argument example runs
``compose dm``, a ``search`` or ``verify block`` on random values of its
flags, integer flags included. Any exception escaping ``main`` fails the
test, as would a traceback on stderr.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from kaleido.algebra import PrimeField, make_group
from kaleido.cli import main
from kaleido.compose import dm_to_json, field_dm
from kaleido.designs import (
    DifferenceFamily,
    develop,
    df_to_json,
    kaleidoscope_to_json,
    kdf_to_json,
)
from kaleido.search import generate_kdf_from_initial_block

F7 = make_group(PrimeField(7))
KDF7 = generate_kdf_from_initial_block(F7, tuple(range(7)))

DOCUMENTS = {
    "df": df_to_json(
        DifferenceFamily(F7, 3, 1, (frozenset({0, 1, 3}),))
    ),
    "kdf": kdf_to_json(KDF7),
    "kaleidoscope": kaleidoscope_to_json(develop(KDF7)),
    "dm": dm_to_json(field_dm(F7, 7)),
}
# Each command with the flags that name its documents and their kinds.
COMMANDS = [
    (["verify", "df"], [("--file", "df")]),
    (["verify", "kdf"], [("--file", "kdf")]),
    (["verify", "kaleidoscope"], [("--file", "kaleidoscope")]),
    (["verify", "dm"], [("--file", "dm")]),
    (["develop"], [("--file", "kdf")]),
    (
        ["compose", "kdf"],
        [("--left", "kdf"), ("--right", "kdf"), ("--dm", "dm")],
    ),
    (["catalog", "add"], [("--file", "kdf")]),
    (["catalog", "add"], [("--file", "kaleidoscope")]),
]
# Keys the documents use, so that random objects sometimes look right.
KEYS = [
    "group", "kind", "p", "v", "modulus", "left", "right", "k", "h",
    "lambda", "blocks", "schema", "name", "lines", "points", "planes",
    "provenance", "rows", "shift", "class",
]

scalars = (
    st.none()
    | st.booleans()
    | st.integers(-3, 30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["", "fano", "hesse", "prime", "cyclic", "ext"])
)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=8,
)


def _paths(doc, prefix=()):
    """Every place in a JSON document, as a tuple of keys and indices."""
    yield prefix
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield from _paths(child, prefix + (key,))


def _spoil(doc, path, value, delete):
    """A copy of doc with the value at path replaced, or deleted."""
    doc = json.loads(json.dumps(doc))
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@st.composite
def spoiled(draw):
    argv, files = draw(st.sampled_from(COMMANDS))
    docs = [DOCUMENTS[kind] for _, kind in files]
    which = draw(st.integers(0, len(docs) - 1))
    path = draw(st.sampled_from(list(_paths(docs[which]))))
    docs[which] = _spoil(
        docs[which], path, draw(values), draw(st.booleans())
    )
    return argv, [flag for flag, _ in files], docs


def _run(argv):
    """Run ``main`` on argv in process and hold it to the contract."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue().startswith("error:")


@settings(max_examples=150, deadline=None)
@given(spoiled())
def test_malformed_documents_never_raise(case):
    argv, flags, docs = case
    with tempfile.TemporaryDirectory() as tmp:
        for flag, doc in zip(flags, docs):
            path = Path(tmp) / f"{flag.strip('-')}.json"
            path.write_text(json.dumps(doc))
            argv = argv + [flag, str(path)]
        if argv[0] == "catalog":
            argv = argv + ["--catalog", str(Path(tmp) / "catalog")]
        _run(argv)


# Argument values. The integer flags mostly get integer text, which
# argparse passes on, so the example reaches the command's own checks;
# sometimes they get text that is no integer, which argparse refuses and
# ``main`` must report as malformed. Orders run over primes, prime powers
# and non-powers, small enough that a full search stays quick.
NOT_INTS = st.sampled_from(["x", "1.5", ""])
ORDERS = st.sampled_from(
    [-7, 0, 1, 2, 4, 6, 7, 8, 9, 12, 13, 16, 19, 25, 27, 31, 37, 49, 64]
) | NOT_INTS
NUMBERS = st.integers(-3, 12) | NOT_INTS
TOKENS = st.sampled_from(
    ["0", "1", "2", "3", "5", "-1", "40", "", " ", "x", "1.5", "1,2", "0,0"]
)
# Random tokens, or the 7 or 9 distinct residues a block needs.
BLOCKS = st.builds(
    lambda toks, sep: sep.join(toks),
    st.lists(TOKENS, max_size=10),
    st.sampled_from([",", ";"]),
) | st.lists(
    st.integers(0, 40), min_size=7, max_size=9, unique=True
).map(lambda pts: ",".join(map(str, pts)))
# Random JSON, random text, or chains that look right.
LABELS = st.sampled_from([0, 1, 2, 5, "i", "2i", "j+1", "k", 1.5, None])
CONSTRAINTS = (
    values.map(json.dumps)
    | st.text(max_size=12)
    | st.lists(
        st.fixed_dictionaries({"shift": values, "class": values})
        | st.fixed_dictionaries(
            {"shift": st.integers(-2, 40), "class": LABELS}
        ),
        max_size=3,
    ).map(json.dumps)
)


def _given(name, strategy):
    """The flag and its value, joined by "=" so that argparse reads a
    value such as "-1,2" as the flag's and not as a flag."""
    return strategy.map(lambda v: [f"{name}={v}"])


def _flag(name, strategy):
    """The flag and its value, or nothing."""
    return st.one_of(st.just([]), _given(name, strategy))


ARGUMENTS = st.one_of(
    st.tuples(
        st.just(["compose", "dm"]),
        _flag("--q", ORDERS),
        _given("--k", NUMBERS),
    ),
    st.tuples(
        st.just(["search", "parametric", "--form", "fano-affine"]),
        _flag("--q", ORDERS),
        _flag("--budget", NUMBERS),
    ),
    st.tuples(
        st.sampled_from(
            [["search", "asymptotic"], ["search", "asymptotic", "--schema",
                                        "hesse"]]
        ),
        _flag("--q", ORDERS),
    ),
    st.tuples(
        st.sampled_from([["search", "constrained"],
                         ["search", "constrained", "--schema", "fano"]]),
        _flag("--q", ORDERS),
        _flag("--prefix", BLOCKS),
        _flag("--budget", NUMBERS),
        _flag("--constraints", CONSTRAINTS),
    ),
    st.tuples(
        st.just(["verify", "block"]),
        _flag("--q", ORDERS),
        _given("--block", BLOCKS),
    ),
).map(lambda parts: [arg for part in parts for arg in part])


@settings(max_examples=200, deadline=None)
@given(ARGUMENTS)
def test_malformed_arguments_never_raise(argv):
    _run(argv)
