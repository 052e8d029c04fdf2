"""Command line front end.

Results go to stdout as JSON with sorted keys; one human-readable status
line goes to stderr. Exit status is 0 for valid or found, 1 for invalid
or not found, 2 for malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .algebra import (
    ExtensionField,
    ExtensionFieldGroup,
    Group,
    PrimeField,
    element_from_json,
    element_to_json,
    find_irreducible,
    make_group,
    prime_factors,
)
from .compose import (
    Catalog,
    compose_kdf,
    dm_from_json,
    dm_to_json,
    field_dm,
    pbd_compose,
    verify_dm,
)
from .designs import (
    develop,
    df_from_json,
    dumps,
    kaleidoscope_from_json,
    kaleidoscope_to_json,
    kdf_from_json,
    kdf_to_json,
    pbd_from_text,
    replicate,
    verify_kaleidoscope,
    verify_kdf,
    verify_pbd,
)
from .errors import (
    InvalidKDF,
    KaleidoError,
    MalformedInput,
    MissingIngredient,
    NotAUnitalDesign,
)
from .schema import (
    KaleidoscopeSchema,
    builtin_schema,
    layout_from_json,
    schema_from_json,
    validate_schema,
)
from . import search, tables
from .search import (
    CyclotomicConstraint,
    asymptotic_initial_block,
    exhaustive_nonexistence,
    find_constrained_element,
    generate_kdf_from_initial_block,
    parametric_search,
    prefix_block_search,
    serial_sweep_reason,
    verify_listed_block,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MALFORMED = 2


def _emit(obj: dict, note: str = "") -> None:
    print(dumps(obj))
    if note:
        print(note, file=sys.stderr)


def _load_json(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise MalformedInput(f"{path}: {err}") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise MalformedInput(f"{path}: {err}") from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as err:
        raise MalformedInput(f"{path}: {err}") from None


def _prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise MalformedInput(f"{q} is not a prime power")
    ps = prime_factors(q)
    if len(ps) != 1:
        raise MalformedInput(f"{q} is not a prime power")
    p = ps[0]
    d, n = 0, q
    while n % p == 0:
        n //= p
        d += 1
    if n != 1:
        raise MalformedInput(f"{q} is not a prime power")
    return p, d


def _field_from_args(args) -> Group:
    q = args.q
    if q is None:
        raise MalformedInput("an order is required; pass --q")
    modulus = getattr(args, "modulus", None)
    p, d = _prime_power(q)
    if d == 1:
        if modulus:
            raise MalformedInput("--modulus only applies to prime powers")
        return make_group(PrimeField(p))
    if modulus:
        coeffs = tuple(int(c) % p for c in modulus.split(","))
        if len(coeffs) != d + 1:
            raise MalformedInput(
                f"--modulus needs degree {d} for order {q}"
            )
    else:
        coeffs = find_irreducible(p, d)
    return make_group(ExtensionField(p, coeffs))


def _parse_element(field: Group, text: str):
    text = text.strip()
    if "," in text:
        obj = [int(c) for c in text.split(",")]
        if isinstance(field, ExtensionFieldGroup):
            obj += [0] * (field.degree - len(obj))
    else:
        obj = int(text)
    return element_from_json(field, obj)


def _parse_block(field: Group, text: str) -> tuple:
    sep = ";" if isinstance(field, ExtensionFieldGroup) else ","
    return tuple(_parse_element(field, tok) for tok in text.split(sep))


def _schema_from_arg(name: str) -> KaleidoscopeSchema:
    if name in ("fano", "hesse"):
        return builtin_schema(name)
    return schema_from_json(_load_json(name))


def _catalog_from_args(args) -> Catalog:
    root = args.catalog or os.environ.get("KALEIDO_CATALOG") or "./catalog"
    return Catalog(root)


# ---------------------------------------------------------------------------
# verify


def _cmd_verify_df(args) -> int:
    df = df_from_json(_load_json(args.file))
    rep = df.report()
    _emit(
        {"kind": "df", "valid": rep.valid, "summary": rep.summary()},
        rep.summary(),
    )
    return EXIT_OK if rep.valid else EXIT_INVALID


def _cmd_verify_kdf(args) -> int:
    kdf = kdf_from_json(_load_json(args.file))
    rep = verify_kdf(kdf)
    _emit(
        {
            "kind": "kdf",
            "valid": rep.valid,
            "summary": rep.summary(),
            "failing_colors": list(rep.failing_colors),
        },
        rep.summary(),
    )
    return EXIT_OK if rep.valid else EXIT_INVALID


def _cmd_verify_kaleidoscope(args) -> int:
    scope = kaleidoscope_from_json(_load_json(args.file))
    rep = verify_kaleidoscope(scope)
    _emit(
        {
            "kind": "kaleidoscope",
            "valid": rep.valid,
            "summary": rep.summary(),
        },
        rep.summary(),
    )
    return EXIT_OK if rep.valid else EXIT_INVALID


def _cmd_verify_dm(args) -> int:
    m = dm_from_json(_load_json(args.file))
    rep = verify_dm(m)
    _emit(
        {"kind": "dm", "valid": rep.valid, "summary": rep.summary()},
        rep.summary(),
    )
    return EXIT_OK if rep.valid else EXIT_INVALID


def _cmd_verify_block(args) -> int:
    field = _field_from_args(args)
    pts = _parse_block(field, args.block)
    schema = _schema_from_arg(args.schema) if args.schema else None
    ok = verify_listed_block(field, pts, schema)
    _emit(
        {
            "kind": "block",
            "q": field.order,
            "block": [element_to_json(field, x) for x in pts],
            "valid": ok,
        },
        "initial block" if ok else "not an initial block",
    )
    return EXIT_OK if ok else EXIT_INVALID


def _cmd_verify_schema(args) -> int:
    if args.schema in ("fano", "hesse"):
        schema = builtin_schema(args.schema)
    elif args.schema:
        obj = _load_json(args.schema)
        if isinstance(obj, dict):
            obj = {"name": "custom", **obj}
        schema = layout_from_json(obj)
    else:
        raise MalformedInput("pass --schema with a name or a file")
    rep = validate_schema(schema)
    _emit(
        {
            "kind": "schema",
            "name": schema.name,
            "valid": rep.valid,
            "first_violation": rep.first_violation,
        },
        "valid layout" if rep.valid else f"violation: {rep.first_violation}",
    )
    return EXIT_OK if rep.valid else EXIT_INVALID


def _cmd_verify_pbd(args) -> int:
    pbd = pbd_from_text(_read_text(args.file))
    rep = verify_pbd(pbd)
    _emit(
        {
            "kind": "pbd",
            "v": pbd.v,
            "valid": rep.valid,
            "first_violation": rep.first_violation,
        },
        "valid" if rep.valid else f"violation: {rep.first_violation}",
    )
    return EXIT_OK if rep.valid else EXIT_INVALID


# ---------------------------------------------------------------------------
# search


def _cmd_search_parametric(args) -> int:
    field = _field_from_args(args)
    res = parametric_search(field, args.form, args.budget)
    candidates = field.order
    if args.budget is not None:
        candidates = min(candidates, args.budget)
    out = {
        "found": res is not None,
        "form": args.form,
        "q": field.order,
        "exhausted": res is None and candidates == field.order,
    }
    if res is None:
        note = "no parameter works"
        if not out["exhausted"]:
            note = f"budget of {candidates} candidates reached, nothing found"
        _emit(out, note)
        return EXIT_INVALID
    out["x"] = element_to_json(field, res.x)
    out["block"] = [element_to_json(field, p) for p in res.block]
    out["checked"] = res.checked
    _emit(out, f"found x after {res.checked} candidates")
    return EXIT_OK


def _emit_found_block(field: Group, args, block, miss_note: str) -> int:
    """Print a search's block, or its family with ``--emit-kdf``, or the
    miss; returns the exit code."""
    if block is None:
        _emit(
            {"found": False, "q": field.order, "schema": args.schema},
            miss_note,
        )
        return EXIT_INVALID
    if args.emit_kdf:
        kdf = generate_kdf_from_initial_block(
            field, block.points, block.schema
        )
        _emit(
            kdf_to_json(kdf),
            f"scaled the block into a family of {len(kdf.blocks)}",
        )
        return EXIT_OK
    _emit(
        {
            "found": True,
            "q": field.order,
            "schema": args.schema,
            "block": [element_to_json(field, p) for p in block.points],
        },
        "found an initial block",
    )
    return EXIT_OK


def _cmd_search_asymptotic(args) -> int:
    field = _field_from_args(args)
    block = asymptotic_initial_block(
        field, args.schema, backtrack=args.backtrack
    )
    return _emit_found_block(
        field, args, block, "chain construction found nothing"
    )


def _constraints_from_json(field: Group, raw) -> list:
    """Constraint objects {"shift": element, "class": label} from JSON."""
    if not isinstance(raw, list) or not all(isinstance(c, dict) for c in raw):
        raise MalformedInput("constraints must be a JSON list of objects")
    try:
        return [
            CyclotomicConstraint(
                element_from_json(field, c["shift"]), c["class"]
            )
            for c in raw
        ]
    except KeyError as missing:
        raise MalformedInput(f"constraint lacks key {missing}") from None


def _cmd_search_constrained(args) -> int:
    field = _field_from_args(args)
    if args.prefix is not None:
        if args.budget is not None:
            raise MalformedInput("--budget does not apply to --prefix")
        if args.constraints is not None or args.file is not None:
            raise MalformedInput(
                "--constraints and --file do not apply to --prefix"
            )
        prefix = _parse_block(field, args.prefix) if args.prefix else None
        block = prefix_block_search(field, args.schema, prefix)
        return _emit_found_block(
            field, args, block, "no block extends the prefix"
        )
    if args.emit_kdf:
        raise MalformedInput("--emit-kdf applies only to --prefix")
    if args.constraints:
        raw = json.loads(args.constraints)
    elif args.file:
        raw = _load_json(args.file)
    else:
        raise MalformedInput("pass --constraints, --file or --prefix")
    res = find_constrained_element(
        field,
        _constraints_from_json(field, raw),
        args.budget,
    )
    out = {
        "found": res.element is not None,
        "q": field.order,
        "checked": res.checked,
        "exhausted": res.exhausted,
        "contradicts_bound": res.contradicts_bound,
        "bound": res.bound,
    }
    if res.element is not None:
        out["element"] = element_to_json(field, res.element)
        _emit(out, f"found after {res.checked} candidates")
        return EXIT_OK
    note = "no element satisfies the chain"
    if res.contradicts_bound:
        note += " (contradicts the counting bound)"
    _emit(out, note)
    return EXIT_INVALID


# ---------------------------------------------------------------------------
# compose, develop, replicate


def _cmd_compose_dm(args) -> int:
    field = _field_from_args(args)
    m = field_dm(field, args.k)
    _emit(dm_to_json(m), f"{args.k} x {field.order} difference matrix")
    return EXIT_OK


def _cmd_compose_kdf(args) -> int:
    left = kdf_from_json(_load_json(args.left))
    right = kdf_from_json(_load_json(args.right))
    if args.dm:
        m = dm_from_json(_load_json(args.dm))
    else:
        m = field_dm(right.group, left.schema.k)
    out = compose_kdf(left, right, m)
    _emit(
        kdf_to_json(out),
        f"composed family over order {out.group.order}",
    )
    return EXIT_OK


def _cmd_compose_pbd(args) -> int:
    pbd = pbd_from_text(_read_text(args.file))
    catalog = _catalog_from_args(args)
    sizes = sorted({len(block) for block in pbd.blocks})
    ingredients = {
        size: catalog.load_kaleidoscope(size, args.schema) for size in sizes
    }
    scope = pbd_compose(pbd, ingredients)
    _emit(
        kaleidoscope_to_json(scope),
        f"assembled {len(scope.planes)} planes on {len(scope.points)} points",
    )
    return EXIT_OK


def _cmd_develop(args) -> int:
    kdf = kdf_from_json(_load_json(args.file))
    try:
        scope = develop(kdf)
    except InvalidKDF as err:
        _emit({"valid": False, "error": str(err)}, str(err))
        return EXIT_INVALID
    _emit(
        kaleidoscope_to_json(scope),
        f"developed {len(scope.planes)} planes on {len(scope.points)} points",
    )
    return EXIT_OK


def _cmd_replicate(args) -> int:
    pbd = pbd_from_text(_read_text(args.file))
    schema = _schema_from_arg(args.schema)
    try:
        scope = replicate(pbd, schema)
    except NotAUnitalDesign as err:
        _emit({"valid": False, "error": str(err)}, str(err))
        return EXIT_INVALID
    _emit(
        kaleidoscope_to_json(scope),
        f"replicated into {len(scope.planes)} planes",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# exhaustive sweep


def _cmd_nonexistence(args) -> int:
    cert = exhaustive_nonexistence(
        args.v,
        args.schema,
        jobs=args.jobs,
        mode=args.mode,
        max_nodes=args.max_nodes,
        allow_long=args.allow_long,
    )
    reason = serial_sweep_reason(args.mode, args.max_nodes)
    if args.jobs != 1 and reason is not None:
        print(
            f"note: ran on 1 job instead of {args.jobs}: {reason}",
            file=sys.stderr,
        )
    note = (
        f"{cert.solutions} normalized families, "
        f"{cert.nodes_visited} nodes"
        + ("" if cert.exhausted else " (sweep not exhausted)")
    )
    _emit(cert.to_json(), note)
    return EXIT_OK if cert.solutions > 0 else EXIT_INVALID


# ---------------------------------------------------------------------------
# reproduce known tables


def _cmd_reproduce(args) -> int:
    result = tables.recheck(args.table)
    note = "all entries check out" if result["all_valid"] else "MISMATCH"
    _emit(result, note)
    return EXIT_OK if result["all_valid"] else EXIT_INVALID


# ---------------------------------------------------------------------------
# catalog


def _cmd_catalog_add(args) -> int:
    catalog = _catalog_from_args(args)
    path = catalog.add(_load_json(args.file))
    _emit({"stored": str(path)}, f"stored {path}")
    return EXIT_OK


def _cmd_catalog_list(args) -> int:
    catalog = _catalog_from_args(args)
    _emit({"root": str(catalog.root), "entries": catalog.entries()})
    return EXIT_OK


def _cmd_catalog_get(args) -> int:
    catalog = _catalog_from_args(args)
    try:
        raw = catalog.get_raw(args.order, args.schema)
    except MissingIngredient:
        _emit(
            {"found": False, "order": args.order, "schema": args.schema},
            "no such entry",
        )
        return EXIT_INVALID
    _emit(raw)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_field_flags(sub) -> None:
    sub.add_argument("--q", type=int, help="field order (prime power)")
    sub.add_argument(
        "--modulus",
        help="irreducible modulus, coefficients low to high, e.g. -3,0,1",
    )


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors reach ``main`` as malformed input.

    ``add_subparsers`` builds every subcommand parser with this class too.
    """

    def error(self, message):
        raise MalformedInput(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kaleido",
        description="colored block designs from difference families",
    )
    top = parser.add_subparsers(dest="command", required=True)

    ver = top.add_parser("verify", help="check an object end to end")
    vsub = ver.add_subparsers(dest="target", required=True)
    for name, fn in (
        ("df", _cmd_verify_df),
        ("kdf", _cmd_verify_kdf),
        ("kaleidoscope", _cmd_verify_kaleidoscope),
        ("dm", _cmd_verify_dm),
        ("pbd", _cmd_verify_pbd),
    ):
        sp = vsub.add_parser(name)
        sp.add_argument("--file", required=True)
        sp.set_defaults(func=fn)
    sp = vsub.add_parser("block")
    _add_field_flags(sp)
    sp.add_argument("--block", required=True)
    sp.add_argument("--schema")
    sp.set_defaults(func=_cmd_verify_block)
    sp = vsub.add_parser("schema")
    sp.add_argument("--schema", required=True, help="fano, hesse or a file")
    sp.set_defaults(func=_cmd_verify_schema)

    sea = top.add_parser("search", help="look for initial blocks")
    ssub = sea.add_subparsers(dest="strategy", required=True)
    sp = ssub.add_parser("parametric")
    _add_field_flags(sp)
    sp.add_argument(
        "--form",
        required=True,
        choices=sorted((search.FANO_AFFINE, search.FANO_POWERS,
                        search.HESSE_POWERS)),
    )
    sp.add_argument("--budget", type=int)
    sp.set_defaults(func=_cmd_search_parametric)
    sp = ssub.add_parser("asymptotic")
    _add_field_flags(sp)
    sp.add_argument("--schema", default="fano", choices=("fano", "hesse"))
    sp.add_argument("--backtrack", action="store_true")
    sp.add_argument("--emit-kdf", action="store_true")
    sp.set_defaults(func=_cmd_search_asymptotic)
    sp = ssub.add_parser("constrained")
    _add_field_flags(sp)
    sp.add_argument("--constraints", help="inline JSON constraint list")
    sp.add_argument("--file", help="JSON constraint list file")
    sp.add_argument(
        "--prefix",
        nargs="?",
        const="",
        default=None,
        help="block prefix to extend, e.g. 0,1,2,3; empty for the default",
    )
    sp.add_argument("--schema", default="hesse", choices=("fano", "hesse"))
    sp.add_argument("--budget", type=int)
    sp.add_argument("--emit-kdf", action="store_true")
    sp.set_defaults(func=_cmd_search_constrained)

    com = top.add_parser("compose", help="product and filling constructions")
    csub = com.add_subparsers(dest="what", required=True)
    sp = csub.add_parser("dm")
    _add_field_flags(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.set_defaults(func=_cmd_compose_dm)
    sp = csub.add_parser("kdf")
    sp.add_argument("--left", required=True)
    sp.add_argument("--right", required=True)
    sp.add_argument("--dm")
    sp.set_defaults(func=_cmd_compose_kdf)
    sp = csub.add_parser("pbd")
    sp.add_argument("--file", required=True)
    sp.add_argument("--schema", default="fano")
    sp.add_argument("--catalog")
    sp.set_defaults(func=_cmd_compose_pbd)

    sp = top.add_parser("develop", help="translate a family into planes")
    sp.add_argument("--file", required=True)
    sp.set_defaults(func=_cmd_develop)

    sp = top.add_parser(
        "replicate", help="color copies of a clean block design"
    )
    sp.add_argument("--file", required=True)
    sp.add_argument("--schema", default="fano")
    sp.set_defaults(func=_cmd_replicate)

    sp = top.add_parser(
        "nonexistence", help="sweep all normalized families over one order"
    )
    sp.add_argument("--v", type=int, required=True)
    sp.add_argument("--schema", default="fano", choices=("fano", "hesse"))
    sp.add_argument("--jobs", type=int, default=1)
    sp.add_argument("--mode", default="count", choices=("count", "exists"))
    sp.add_argument("--max-nodes", type=int)
    sp.add_argument("--allow-long", action="store_true")
    sp.set_defaults(func=_cmd_nonexistence)

    sp = top.add_parser("reproduce", help="recheck a published table")
    sp.add_argument("table", choices=tables.WITNESSES)
    sp.set_defaults(func=_cmd_reproduce)

    cat = top.add_parser("catalog", help="store of verified ingredients")
    catsub = cat.add_subparsers(dest="action", required=True)
    sp = catsub.add_parser("add")
    sp.add_argument("--file", required=True)
    sp.add_argument("--catalog")
    sp.set_defaults(func=_cmd_catalog_add)
    sp = catsub.add_parser("list")
    sp.add_argument("--catalog")
    sp.set_defaults(func=_cmd_catalog_list)
    sp = catsub.add_parser("get")
    sp.add_argument("--order", type=int, required=True)
    sp.add_argument("--schema", default="fano")
    sp.add_argument("--catalog")
    sp.set_defaults(func=_cmd_catalog_get)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except KaleidoError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MALFORMED
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
