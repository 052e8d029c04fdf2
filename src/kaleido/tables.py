"""Known witnesses and exception lists for small orders.

Every entry here is checkable: each x or block below must survive the
full initial-block predicate. ``WITNESSES`` restates the constants as one
list of records per published table, and ``recheck`` re-verifies a table
from scratch. Exception lists enumerate orders where the named
one-parameter form has no witness at all; those are re-established by
exhaustive sweeps over the parameter.
"""

from __future__ import annotations

from . import search
from .algebra import ExtensionField, PrimeField, make_group

# Smallest x for which (0, 1, 2, x, x+1, x^2+x, 2x) is an initial block
# over the prime field of that order, for primes = 1 (mod 6) from 37
# through 577. Six primes in that range have a witness that is not
# stored: 211, 337, 379, 421, 463 and 547 (x = 173, 51, 16, 21, 37, 118).
FANO_AFFINE_PRIMES = {
    37: 13,
    67: 61,
    73: 35,
    97: 5,
    103: 18,
    109: 26,
    139: 47,
    151: 12,
    157: 84,
    163: 55,
    181: 61,
    193: 78,
    223: 143,
    229: 37,
    241: 20,
    271: 89,
    277: 47,
    283: 7,
    307: 23,
    313: 92,
    331: 48,
    349: 55,
    367: 34,
    373: 122,
    397: 19,
    409: 137,
    433: 24,
    439: 174,
    457: 147,
    487: 111,
    499: 87,
    523: 133,
    541: 10,
    571: 3,
    577: 80,
}

# Primes = 1 (mod 6) up to 577 where no x makes the affine form work.
FANO_AFFINE_EXCEPTIONS = (13, 19, 31, 43, 61, 79, 127, 199)

# Hand-found seven-point initial blocks for the affine-form exceptions
# that still admit some block (all but 13 and 19).
FANO_ALT_BLOCKS = {
    31: (0, 1, 2, 12, 13, 27, 24),
    43: (0, 1, 2, 7, 8, 37, 38),
    61: (0, 1, 2, 5, 6, 41, 10),
    79: (0, 1, 2, 24, 25, 11, 48),
    127: (0, 1, 2, 12, 13, 87, 24),
    199: (0, 1, 2, 4, 5, 71, 8),
}

# Power-form witnesses (1, x, ..., x^6) over squares of primes
# p = 5 (mod 12). The field is built on t^2 - 3 for these p, and x is
# given by its coefficient pair (c0, c1) meaning c0 + c1*t.
FANO_SQUARE_T2M3 = {
    5: (4, 1),
    17: (6, 3),
    29: (1, 2),
    41: (3, 15),
    53: (1, 19),
    89: (1, 15),
    101: (1, 43),
    113: (1, 39),
    137: (1, 63),
    149: (1, 17),
    173: (1, 34),
    197: (2, 18),
    233: (1, 99),
    257: (1, 33),
    269: (1, 65),
    281: (1, 7),
    293: (3, 9),
    317: (1, 27),
    353: (1, 9),
    389: (1, 11),
    401: (1, 40),
    449: (1, 8),
    461: (1, 8),
    509: (1, 103),
    521: (1, 82),
    557: (1, 7),
    569: (1, 116),
}

# Same power-form witnesses over t^2 + 1 for primes p = 11 (mod 12).
FANO_SQUARE_T2P1 = {
    11: (3, 4),
    23: (1, 11),
    47: (2, 12),
    59: (2, 15),
    71: (2, 32),
    83: (2, 3),
    107: (2, 51),
    131: (1, 22),
    167: (3, 9),
    179: (1, 8),
    191: (1, 23),
    227: (1, 91),
    239: (1, 101),
    251: (1, 42),
    263: (1, 56),
    311: (2, 41),
    347: (1, 16),
    359: (1, 157),
    383: (1, 122),
    419: (1, 30),
    431: (1, 15),
    443: (1, 122),
    467: (1, 31),
    479: (1, 103),
    491: (1, 126),
    503: (1, 50),
    563: (1, 73),
}

# Order 169: affine form over t^2 - 2 with x = 6 + 2t.
FANO_13_SQUARE = {"modulus": (-2, 0, 1), "x": (6, 2)}

# Order 2197: power form (1, x, ..., x^6) over t^3 - 2 with
# x = 10 + 7t + 11t^2.
FANO_13_CUBE = {"modulus": (-2, 0, 0, 1), "x": (10, 7, 11)}

# Smallest x for which (0, 1, x, x^2, ..., x^7) is a nine-point initial
# block over the prime field of that order.
HESSE_PRIME_X = {
    97: 14,
    103: 36,
    139: 61,
    163: 143,
    181: 66,
    223: 187,
    229: 184,
    277: 97,
}

# Hand-found nine-point initial blocks for the smallest power-form
# exceptions beyond 13.
HESSE_ALT_BLOCKS = {
    31: (12, 0, 1, 3, 6, 13, 8, 28, 11),
    37: (24, 0, 1, 7, 3, 35, 29, 25, 17),
    43: (13, 0, 1, 3, 7, 8, 22, 17, 14),
    61: (50, 0, 1, 6, 5, 15, 10, 13, 14),
    67: (26, 0, 1, 6, 7, 18, 13, 12, 11),
    73: (3, 0, 1, 4, 6, 29, 27, 16, 17),
    79: (16, 0, 1, 4, 20, 12, 25, 7, 17),
}

# Nine-point initial blocks over small prime squares. Moduli are listed
# low coefficient first; block entries are coefficient pairs.
HESSE_SQUARE_BLOCKS = {
    5: {
        "modulus": (-3, 0, 1),
        "block": (
            (1, 3), (0, 0), (1, 0), (2, 0), (2, 1),
            (0, 1), (0, 2), (4, 3), (1, 4),
        ),
    },
    11: {
        "modulus": (1, 0, 1),
        "block": (
            (0, 1), (0, 0), (1, 0), (2, 0), (3, 1),
            (4, 6), (4, 10), (0, 4), (1, 8),
        ),
    },
    13: {
        "modulus": (-2, 0, 1),
        "block": (
            (2, 12), (0, 0), (1, 0), (2, 0), (3, 1),
            (4, 1), (2, 8), (9, 3), (3, 4),
        ),
    },
    17: {
        "modulus": (-3, 0, 1),
        "block": (
            (5, 3), (0, 0), (1, 0), (2, 0), (3, 1),
            (4, 2), (1, 1), (0, 2), (1, 3),
        ),
    },
    23: {
        "modulus": (1, 0, 1),
        "block": (
            (0, 1), (0, 0), (1, 0), (2, 0), (2, 5),
            (4, 14), (3, 7), (2, 7), (9, 21),
        ),
    },
    29: {
        "modulus": (-3, 0, 1),
        "block": (
            (0, 4), (0, 0), (1, 0), (2, 0), (2, 1),
            (4, 2), (4, 3), (3, 1), (1, 4),
        ),
    },
}

# Primes up to 1000 where 2 is a non-cube while 6 and 20 are both
# cubes, making (0, 1, 2, 3, 4, 5, 6) an initial block.
CONSECUTIVE_BLOCK_PRIMES_1000 = (7, 541, 571, 877, 937)



# ---------------------------------------------------------------------------
# witness records and their checker
#
# One record list per published table; each record is JSON-ready data of
# one of four kinds:
#   parametric   field, form, and the smallest x (None: no x works)
#   form         field, form and an x that makes an initial block
#   block        field and the points of an initial block
#   consecutive  limit and the consecutive-block primes up to it
# A field is {"p": p}, plus "modulus" (low to high, reduced mod p) for an
# extension field.


def _field(p: int, modulus=None) -> dict:
    if modulus is None:
        return {"p": p}
    return {"p": p, "modulus": tuple(c % p for c in modulus)}


def _records(kind: str, values: dict, modulus=None, **common) -> list:
    """One record per prime p of a stored table {p: x or block}."""
    key = "block" if kind == "block" else "x"
    return [
        {"kind": kind, "field": _field(p, modulus), **common, key: value}
        for p, value in sorted(values.items())
    ]


# Table ids in the order the README lists them.
WITNESSES = {
    "fano-primes": _records(
        "parametric", FANO_AFFINE_PRIMES, form=search.FANO_AFFINE
    ),
    "fano-exceptions": (
        _records("parametric", dict.fromkeys(FANO_AFFINE_EXCEPTIONS),
                 form=search.FANO_AFFINE)
        + _records("block", FANO_ALT_BLOCKS)
    ),
    "fano-squares-5mod12": _records(
        "form", FANO_SQUARE_T2M3, modulus=(-3, 0, 1), form=search.FANO_POWERS
    ),
    "fano-squares-11mod12": _records(
        "form", FANO_SQUARE_T2P1, modulus=(1, 0, 1), form=search.FANO_POWERS
    ),
    "fano-13-extensions": (
        _records("form", {13: FANO_13_SQUARE["x"]},
                 modulus=FANO_13_SQUARE["modulus"], form=search.FANO_AFFINE)
        + _records("form", {13: FANO_13_CUBE["x"]},
                   modulus=FANO_13_CUBE["modulus"], form=search.FANO_POWERS)
    ),
    "hesse-primes": _records(
        "parametric", HESSE_PRIME_X, form=search.HESSE_POWERS
    ),
    "hesse-alt": (
        _records("parametric", dict.fromkeys(HESSE_ALT_BLOCKS),
                 form=search.HESSE_POWERS)
        + _records("block", HESSE_ALT_BLOCKS)
    ),
    "hesse-squares": [
        {"kind": "block", "field": _field(p, e["modulus"]),
         "block": e["block"]}
        for p, e in sorted(HESSE_SQUARE_BLOCKS.items())
    ],
    "consecutive-primes": (
        [{"kind": "consecutive", "limit": 1000,
          "primes": CONSECUTIVE_BLOCK_PRIMES_1000}]
        + _records("block", dict.fromkeys(CONSECUTIVE_BLOCK_PRIMES_1000,
                                          tuple(range(7))))
    ),
}


def _check(record: dict) -> dict:
    """The record with ``valid``, and ``recomputed`` where it reruns a scan."""
    kind = record["kind"]
    if kind == "consecutive":
        found = tuple(search.consecutive_block_primes(record["limit"]))
        return {**record, "recomputed": found,
                "valid": found == tuple(record["primes"])}
    spec = record["field"]
    if "modulus" in spec:
        field = make_group(ExtensionField(spec["p"], spec["modulus"]))
    else:
        field = make_group(PrimeField(spec["p"]))
    if kind == "parametric":
        res = search.parametric_search(field, record["form"])
        got = None if res is None else res.x
        return {**record, "recomputed": got, "valid": got == record["x"]}
    if kind == "form":
        points = search.form_block(field, record["form"], record["x"])
    else:
        points = record["block"]
    valid = len(set(points)) == len(points) and search.verify_listed_block(
        field, points
    )
    return {**record, "valid": valid}


def recheck(table_id: str) -> dict:
    """Recompute every record of one table in ``WITNESSES`` from scratch.

    Parametric records rerun the smallest-x search, form and block
    records check their block in full, and a consecutive record reruns
    the prime scan. ``all_valid`` holds when every entry does.
    """
    entries = [_check(r) for r in WITNESSES[table_id]]
    return {
        "table": table_id,
        "all_valid": all(e["valid"] for e in entries),
        "entries": entries,
    }
