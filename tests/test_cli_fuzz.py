"""Malformed documents at the CLI boundary: an exit code, never a traceback.

Each example takes a valid document for ``verify df``, ``verify kdf``,
``verify kaleidoscope`` or ``develop``, replaces or deletes one value
anywhere in it, and runs the command in process. Any exception escaping
``main`` fails the test, as would a traceback on stderr.
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
}
COMMANDS = [
    (["verify", "df"], "df"),
    (["verify", "kdf"], "kdf"),
    (["verify", "kaleidoscope"], "kaleidoscope"),
    (["develop"], "kdf"),
]
# Keys the documents use, so that random objects sometimes look right.
KEYS = [
    "group", "kind", "p", "v", "modulus", "left", "right", "k", "h",
    "lambda", "blocks", "schema", "name", "lines", "points", "planes",
    "provenance",
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
    argv, kind = draw(st.sampled_from(COMMANDS))
    doc = DOCUMENTS[kind]
    path = draw(st.sampled_from(list(_paths(doc))))
    return argv, _spoil(doc, path, draw(values), draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(spoiled())
def test_malformed_documents_never_raise(case):
    argv, doc = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(argv + ["--file", str(path)])
    assert rc in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if rc == 2:
        assert err.getvalue().startswith("error:")
