"""Exact bytes of every command: exit code, stdout and stderr.

Each case runs one command in an empty working directory holding the
input files below, with ``KALEIDO_CATALOG`` unset, so no absolute path
reaches the output. Its digest is one SHA-256 over (exit code, stdout,
stderr). Where a command can end both ways, both are pinned. Argument
parser errors are left out: their wording differs between Python
versions, and ``test_cli.py`` checks them by their prefix.
"""

import hashlib
import json
import shlex

import pytest

from kaleido.algebra import PrimeField, make_group
from kaleido.cli import main
from kaleido.compose import dm_to_json, field_dm
from kaleido.designs import (
    DifferenceFamily,
    PairwiseBalancedDesign,
    develop,
    df_to_json,
    kaleidoscope_to_json,
    kdf_to_json,
    pbd_to_text,
)
from kaleido.search import generate_kdf_from_initial_block

F7 = make_group(PrimeField(7))
F19 = make_group(PrimeField(19))


def _inputs():
    """Input file name -> text."""
    kdf7 = generate_kdf_from_initial_block(F7, (0, 1, 2, 3, 4, 5, 6))
    kdf19 = kdf_to_json(
        generate_kdf_from_initial_block(F19, (0, 1, 2, 4, 5, 11, 8))
    )
    bad_kdf19 = json.loads(json.dumps(kdf19))
    bad_kdf19["blocks"][0] = [0, 1, 2, 4, 5, 11, 9]
    scope7 = kaleidoscope_to_json(develop(kdf7))
    bad_scope7 = json.loads(json.dumps(scope7))
    bad_scope7["planes"][0][:2] = [1, 0]
    dm7 = dm_to_json(field_dm(F7, 7))
    bad_dm7 = json.loads(json.dumps(dm7))
    bad_dm7["rows"][2][1] = 1
    mixed = PairwiseBalancedDesign(
        9, (frozenset(range(7)), frozenset({0, 7}), frozenset({0, 8}),
            frozenset({7, 8}))
        + tuple(frozenset({i, j}) for i in range(1, 7) for j in (7, 8)),
    )
    return {
        "df7.json": json.dumps(df_to_json(
            DifferenceFamily(F7, 3, 1, (frozenset({0, 1, 3}),))
        )),
        "bad-df7.json": json.dumps(df_to_json(
            DifferenceFamily(F7, 3, 1, (frozenset({0, 1, 2}),))
        )),
        "kdf7.json": json.dumps(kdf_to_json(kdf7)),
        "kdf19.json": json.dumps(kdf19),
        "bad-kdf19.json": json.dumps(bad_kdf19),
        "scope7.json": json.dumps(scope7),
        "bad-scope7.json": json.dumps(bad_scope7),
        "dm7.json": json.dumps(dm7),
        "bad-dm7.json": json.dumps(bad_dm7),
        "plane7.txt": pbd_to_text(
            PairwiseBalancedDesign(7, (frozenset(range(7)),))
        ),
        "bad-pbd7.txt": pbd_to_text(
            PairwiseBalancedDesign(7, (frozenset({0, 1, 2}),))
        ),
        "mixed.txt": pbd_to_text(mixed),
        "bad-schema.json": json.dumps(
            {"name": "broken", "k": 7, "h": 3, "lines": [[0, 1, 2]] * 7}
        ),
        "chain.json": '[{"shift": 1, "class": 0}, {"shift": 0, "class": 1}]',
        "truncated.json": "[1,",
    }


# name -> (commands run first, command pinned, its digest)
CASES = {
    "verify-df-valid": (
        [],
        "verify df --file df7.json",
        "b5a097084ce7ed17207386f2ba3c6f9010f600a9ca39fc6084821e517286f287",
    ),
    "verify-df-invalid": (
        [],
        "verify df --file bad-df7.json",
        "d88caf283deaf770406c294751810f35d324f8afaf4996ffc741081c818fa1f6",
    ),
    "verify-df-missing-file": (
        [],
        "verify df --file missing.json",
        "b67fffea07179a7cc995ecc53029e16cc988499af2ca579fd84f25298229c872",
    ),
    "verify-kdf-valid": (
        [],
        "verify kdf --file kdf19.json",
        "b02307d35d7d2b02c25ba9be92749c43a6beb82602ac5d28b83cd793ea2f7961",
    ),
    "verify-kdf-invalid": (
        [],
        "verify kdf --file bad-kdf19.json",
        "badccc6c63449ab61eb14e9fa3cdb176feded3a1f78c994dfe35238f177519ed",
    ),
    "verify-kdf-truncated-json": (
        [],
        "verify kdf --file truncated.json",
        "c3777809c54d72d6e7d94ece0f6d85bb87214d4951502cf34c39ded22bf213f9",
    ),
    "verify-kaleidoscope-valid": (
        [],
        "verify kaleidoscope --file scope7.json",
        "72e136e990b7b9443df896064630c8d7c400d3a3eae7547d45bd85bef30eeb1c",
    ),
    "verify-kaleidoscope-invalid": (
        [],
        "verify kaleidoscope --file bad-scope7.json",
        "177fb1ed43d1376fe585d8008922f92693b97ac68fc30f44bd1f3b718abf2d7a",
    ),
    "verify-dm-valid": (
        [],
        "verify dm --file dm7.json",
        "1e70d7f36c35603d89df66f80a23f3f8dd548105b716fde571e9a51655360653",
    ),
    "verify-dm-invalid": (
        [],
        "verify dm --file bad-dm7.json",
        "770e5791a388ae0e4beb21a417667f11c5974db436d21a3484b9851dd616c1e9",
    ),
    "verify-pbd-valid": (
        [],
        "verify pbd --file plane7.txt",
        "ea8279cb62be31ad4d62ea5ab61e755727441469a657ea96d41e48e58333cca9",
    ),
    "verify-pbd-invalid": (
        [],
        "verify pbd --file bad-pbd7.txt",
        "136799003e84dfc56d3bdbfd39aa3cdba08e81ce6a1257a9dd409e8ca3c8b8e8",
    ),
    "verify-pbd-missing-file": (
        [],
        "verify pbd --file missing.txt",
        "30d799680e791d94fbecdaca2597ab24bcc8718a55352420f59315118c005c92",
    ),
    "verify-block-valid": (
        [],
        "verify block --q 37 --block 0,1,2,13,14,34,26",
        "d6f4f4b7ccf5864429063d1ec9d777362d60182f6ece94d96d82fab06def616a",
    ),
    "verify-block-invalid": (
        [],
        "verify block --q 37 --block 0,1,2,13,14,34,25 --schema fano",
        "0e42414035476a43f89bd67e8e4bcbe18bac4ce49307fee6df7e4e3bdfa193fa",
    ),
    "verify-block-bad-order": (
        [],
        "verify block --q 9 --block '0;1;2;3;4;5;6'",
        "bff0abdf8f7b79f4ab95e37a8445b0d81833bbb3c12b80f9a23962e6822b49e5",
    ),
    "verify-block-empty-modulus": (
        [],
        "verify block --q 43 --modulus= --block 0,1,2,3,4,5,6",
        "797eac0b62b0963ce0ce097fa478f38f7b99b37c5538bc3501ade8cd89d1c084",
    ),
    "verify-schema-builtin": (
        [],
        "verify schema --schema hesse",
        "b68c13c4b6547ad4f9fb13a975185326aecf4d76bd6cdaae0da1b3a3b21ba4d8",
    ),
    "verify-schema-invalid": (
        [],
        "verify schema --schema bad-schema.json",
        "117e89b42f7355ff7125892f3a85849a2a843f2bca752c05f02f06e698443752",
    ),
    "search-parametric-found": (
        [],
        "search parametric --q 37 --form fano-affine",
        "1a9d23ee6b29ed92c5819419394ff888ef1a0d2dc035664043c43746209be5e3",
    ),
    "search-parametric-exhausted": (
        [],
        "search parametric --q 13 --form fano-affine",
        "89b960f36925d9fd78df846a3abe7d3ba3ab9681e89d521bbdeaaf06b23d2e33",
    ),
    "search-parametric-budget": (
        [],
        "search parametric --q 37 --form fano-affine --budget 5",
        "c480cd9898a1f4dc0d41fffc04c73b284c35e23713fe275b2e02f5cc6ceec370",
    ),
    "search-asymptotic-found": (
        [],
        "search asymptotic --q 541 --schema fano",
        "4b3afe1b380718b75e06a825e601cae1a957a133f7db6b4009b20c998da22579",
    ),
    "search-asymptotic-emit-kdf": (
        [],
        "search asymptotic --q 541 --emit-kdf",
        "1cabf32d9fa4e1b2b275eb67dcd5661cdb9f97afb3de2adfa0a37095f3173480",
    ),
    "search-asymptotic-miss": (
        [],
        "search asymptotic --q 13 --schema hesse",
        "3e76c9de3115cfcdb09f704b1abff1e9f871fd02e0a764248e85fcda0eb5e043",
    ),
    "search-asymptotic-q5": (
        [],
        "search asymptotic --q 5",
        "1fae670e9be2909c6dfcf34ba5bc23e90d18b7517a3709657071ac70f7097a99",
    ),
    "search-prefix-found": (
        [],
        "search constrained --q 109 --schema hesse --prefix",
        "449eb8673440e3c8266f9e1e7ec4c7004ae12336e4ce5d86fc25b8292d441dff",
    ),
    "search-prefix-emit-kdf": (
        [],
        "search constrained --q 19 --schema fano --prefix '' --emit-kdf",
        "e1a0ec654789afa83367b1cf4f461643d7799eab94dd8bfa179c93f99dd7a4bf",
    ),
    "search-prefix-dead": (
        [],
        "search constrained --q 19 --schema fano --prefix 0,1,2,3",
        "64a53fd5c18cbec772f306eedb1ff5fd5b413975f7070468ad3d9bf409b855a1",
    ),
    "search-prefix-with-budget": (
        [],
        "search constrained --q 19 --prefix '' --schema fano --budget 1",
        "e383903e869a1b340af60682f07f2b41e1785b0bad149089d4c0e5aee4b4aef7",
    ),
    "search-constrained-found": (
        [],
        "search constrained --q 19 --constraints "
        """'[{"shift": 0, "class": 0}]'""",
        "dc70aa5f7cf9458e901125e76e37ee95d4db969fab403a6982866992cda1d1e6",
    ),
    "search-constrained-file": (
        [],
        "search constrained --q 19 --file chain.json",
        "72b80e4feb49ce5eaf248d97dd57f2515067873ba70fdf3fa6fe5f4d3e6892e2",
    ),
    "search-constrained-contradiction": (
        [],
        "search constrained --q 37 --constraints "
        """'[{"shift": 0, "class": 0}, {"shift": 0, "class": 1}]'""",
        "ac801c930d6dfecc1539994c85f80f7c45fe425807b080146d8374705b12fe8f",
    ),
    "search-constrained-budget": (
        [],
        "search constrained --q 19 --constraints "
        """'[{"shift": 0, "class": 2}]' --budget 1""",
        "413ecdd5ceb29386b9079da36f6798f9ce67e34e2859dec756cdc65514bd9f43",
    ),
    "search-constrained-no-inputs": (
        [],
        "search constrained --q 19",
        "b1427d030cacb49844d1fe0546ee151f0084b1fef79055c8902697625978a47b",
    ),
    "compose-dm": (
        [],
        "compose dm --q 7 --k 3",
        "7ccd08514e9cc3bc8d6ba9d2e52b0c7cadc35cdc56b7e35ab41982b39c9c4745",
    ),
    "compose-kdf-default-dm": (
        [],
        "compose kdf --left kdf7.json --right kdf19.json",
        "a78b57b9767eb868049e5de3cdbd21b343bdf48ce742d209f4b8af3c7aefe470",
    ),
    "compose-kdf-explicit-dm": (
        [],
        "compose kdf --left kdf7.json --right kdf7.json --dm dm7.json",
        "69359d5057b4c885ab31e0789127d87b08996611558f25042fe3ed603e0046b2",
    ),
    "compose-pbd": (
        ["catalog add --file kdf7.json"],
        "compose pbd --file plane7.txt",
        "cab7d2f20a803d030fc4b3b0a5bd30a0c58933eefe4117612edefd722bbf0063",
    ),
    "compose-pbd-missing-ingredient": (
        [],
        "compose pbd --file plane7.txt",
        "69128af89fa23a68e989c1efc80fd6086d30a9d33a5d258b318a55f69bdd6854",
    ),
    "develop-valid": (
        [],
        "develop --file kdf7.json",
        "a81767177818bf1b0846479c21e6c2e996af70a6454770c1212d4374c711b689",
    ),
    "develop-invalid": (
        [],
        "develop --file bad-kdf19.json",
        "a458a062c4d58980f930a7ec31ca183d60deef2bd7d7ae55073fe3cbefca352d",
    ),
    "replicate-valid": (
        [],
        "replicate --file plane7.txt --schema fano",
        "4520df4b18beb3b9d86019d089ed21a07810c576f295e1e441c93d44ef2d5a90",
    ),
    "replicate-not-unital": (
        [],
        "replicate --file mixed.txt --schema fano",
        "02592bf0b79e2d0a4735f5e2ac2c9c31200bc1f9323cbe3f528c345a3dd8a541",
    ),
    "nonexistence-found": (
        [],
        "nonexistence --v 7",
        "a883b2c4fda759b0fa125aa2b19757ed7471acc85a4951c88201604d9f0bc32b",
    ),
    "nonexistence-budget": (
        [],
        "nonexistence --v 13 --max-nodes 5000",
        "0c3dba94545902fa17fc83a161918f7ffe12493ba542c36dae987528ace61a8f",
    ),
    "nonexistence-exists-jobs-note": (
        [],
        "nonexistence --v 7 --mode exists --jobs 2",
        "aa117fe9555396eff4625311fe90807ca5942fe394b89695ef078b60cfd97190",
    ),
    "nonexistence-pool": (
        [],
        "nonexistence --v 7 --jobs 2",
        "b19ffefbefe439c51c3c82ed577ff5d4fb1b86564d8f5365460c6d7aa1e1452e",
    ),
    "nonexistence-bad-jobs": (
        [],
        "nonexistence --v 7 --jobs 0",
        "4a70c9a4be6059df6f430b33aafd56c85be06c611feb414b0636d37dba0053f0",
    ),
    "reproduce": (
        [],
        "reproduce fano-13-extensions",
        "ac80f534a65513e0a1106012962ee6ce392a1ba9f0553d0390e6b7c52b732cd6",
    ),
    "catalog-add": (
        [],
        "catalog add --file kdf19.json",
        "5231c29a95e07735d69af80459524dd8bda43ad2b23585d830e17e6a86218250",
    ),
    "catalog-list": (
        ["catalog add --file kdf19.json"],
        "catalog list",
        "460fea01eb4b51f61c58bc4c15c88d94a8efda05d50914b94187ad5aa9525cc8",
    ),
    "catalog-get": (
        ["catalog add --file kdf19.json"],
        "catalog get --order 19 --schema fano",
        "11674d0027dd6ee5d7ebf3799d5ebc5b05060ab2a4bd96dee54a59314090e2fd",
    ),
    "catalog-get-missing": (
        ["catalog add --file kdf19.json"],
        "catalog get --order 7",
        "c506e848ede1c46c2291803dac8d1d74306f868e0435a40cb05f11907ffa6cce",
    ),
}


def _run(capsys, command):
    rc = main(shlex.split(command))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("KALEIDO_CATALOG", raising=False)
    for name, text in _inputs().items():
        (tmp_path / name).write_text(text)
    return tmp_path


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_bytes_pinned(name, workdir, capsys):
    setup, command, digest = CASES[name]
    for before in setup:
        assert _run(capsys, before)[0] == 0, before
    rc, out, err = _run(capsys, command)
    got = hashlib.sha256(json.dumps([rc, out, err]).encode()).hexdigest()
    assert got == digest, (rc, out[:200], err)
