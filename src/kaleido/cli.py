"""Command line front end.

Results go to stdout as JSON with sorted keys; a human-readable status
note goes to stderr. Exit status is 0 for valid or found, 1 for invalid
or not found, 2 for malformed input.

Every ``_cmd_*`` handler returns ``(result, note, ok)``: the JSON result,
the stderr note ("" for none) and whether the outcome is valid or found.
Only ``main`` turns that triple into output and an exit code, and a
``KaleidoError`` or ``ValueError`` into an ``error:`` line and exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import (
    ExtensionField,
    Group,
    PrimeField,
    find_irreducible,
    is_prime,
    make_group,
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
    load,
    loads,
    pbd_from_text,
    read_text,
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
    UntiledLayout,
)
from .schema import _BUILTINS, KaleidoscopeSchema, schema_from_json
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

Outcome = tuple[dict, str, bool]  # (result, note, ok) of a handler


def _emit(obj: dict, note: str) -> None:
    print(dumps(obj))
    if note:
        print(note, file=sys.stderr)


def _prime_power(q: int) -> tuple[int, int]:
    """(p, d) with p prime and p^d = q, by exact integer d-th roots."""
    if q < 2:
        raise MalformedInput(f"{q} is not a prime power")
    for d in range(q.bit_length() - 1, 0, -1):
        # Newton's method for the integer d-th root, from above it.
        p = 1 << -(-q.bit_length() // d)
        while (nxt := ((d - 1) * p + q // p ** (d - 1)) // d) < p:
            p = nxt
        if p ** d == q and is_prime(p):
            return p, d
    raise MalformedInput(f"{q} is not a prime power")


def _field_from_args(args) -> Group:
    q = args.q
    if q is None:
        raise MalformedInput("an order is required; pass --q")
    modulus = getattr(args, "modulus", None)
    p, d = _prime_power(q)
    if modulus is None:
        if d == 1:
            return make_group(PrimeField(p))
        return make_group(ExtensionField(p, find_irreducible(p, d)))
    if d == 1:
        raise MalformedInput("--modulus only applies to prime powers")
    coeffs = tuple(int(c) % p for c in modulus.split(","))
    if len(coeffs) != d + 1:
        raise MalformedInput(f"--modulus needs degree {d} for order {q}")
    return make_group(ExtensionField(p, coeffs))


def _parse_element(field: Group, text: str):
    text = text.strip()
    if "," in text:
        obj = [int(c) for c in text.split(",")]
        obj += [0] * (field.degree - len(obj))
    else:
        obj = int(text)
    return field.decoder()(obj)


def _parse_block(field: Group, text: str) -> tuple:
    sep = ";" if field.degree > 1 else ","
    return tuple(_parse_element(field, tok) for tok in text.split(sep))


def _schema_from_arg(name: str) -> KaleidoscopeSchema:
    """A builtin layout by its name, or the layout in the file so named."""
    return schema_from_json(name if name in _BUILTINS else load(name))


def _catalog_from_args(args) -> Catalog:
    root = args.catalog or os.environ.get("KALEIDO_CATALOG") or "./catalog"
    return Catalog(root)


# ---------------------------------------------------------------------------
# verify

# target -> decode and check a document, giving a report with valid and
# summary(). Each entry looks its functions up in this module when it is
# called, so a tracer that rebinds them (bench/tracing.py) sees the calls.
_REPORTS = {
    "df": lambda o: df_from_json(o).report(),
    "kdf": lambda o: verify_kdf(kdf_from_json(o)),
    "kaleidoscope": lambda o: verify_kaleidoscope(kaleidoscope_from_json(o)),
    "dm": lambda o: verify_dm(dm_from_json(o)),
}


def _cmd_verify_report(args) -> Outcome:
    rep = _REPORTS[args.target](load(args.file))
    out = {"kind": args.target, "valid": rep.valid, "summary": rep.summary()}
    if args.target == "kdf":
        out["failing_colors"] = list(rep.failing_colors)
    return out, rep.summary(), rep.valid


def _cmd_verify_block(args) -> Outcome:
    field = _field_from_args(args)
    pts = _parse_block(field, args.block)
    schema = _schema_from_arg(args.schema) if args.schema else None
    ok = verify_listed_block(field, pts, schema)
    out = {
        "kind": "block",
        "q": field.order,
        "block": list(map(field.encoder(), pts)),
        "valid": ok,
    }
    return out, "initial block" if ok else "not an initial block", ok


def _cmd_verify_schema(args) -> Outcome:
    if not args.schema:
        raise MalformedInput("pass --schema with a name or a file")
    try:
        name, first = _schema_from_arg(args.schema).name, None
    except UntiledLayout as err:
        name, first = err.name, err.first_violation
    out = {
        "kind": "schema",
        "name": name,
        "valid": first is None,
        "first_violation": first,
    }
    note = "valid layout" if first is None else f"violation: {first}"
    return out, note, first is None


def _cmd_verify_pbd(args) -> Outcome:
    pbd = pbd_from_text(read_text(args.file))
    rep = verify_pbd(pbd)
    out = {
        "kind": "pbd",
        "v": pbd.v,
        "valid": rep.valid,
        "first_violation": rep.first_violation,
    }
    note = "valid" if rep.valid else f"violation: {rep.first_violation}"
    return out, note, rep.valid


# ---------------------------------------------------------------------------
# search


def _cmd_search_parametric(args) -> Outcome:
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
        return out, note, False
    enc = field.encoder()
    out["x"] = enc(res.x)
    out["block"] = list(map(enc, res.block))
    out["checked"] = res.checked
    return out, f"found x after {res.checked} candidates", True


def _found_block(field: Group, args, block, miss_note: str) -> Outcome:
    """A search's block, or its family with ``--emit-kdf``, or the miss."""
    if block is None:
        out = {"found": False, "q": field.order, "schema": args.schema}
        return out, miss_note, False
    if args.emit_kdf:
        kdf = generate_kdf_from_initial_block(
            field, block.points, block.schema
        )
        note = f"scaled the block into a family of {len(kdf.blocks)}"
        return kdf_to_json(kdf), note, True
    out = {
        "found": True,
        "q": field.order,
        "schema": args.schema,
        "block": list(map(field.encoder(), block.points)),
    }
    return out, "found an initial block", True


def _cmd_search_asymptotic(args) -> Outcome:
    field = _field_from_args(args)
    block = asymptotic_initial_block(
        field, args.schema, backtrack=args.backtrack
    )
    return _found_block(field, args, block, "chain construction found nothing")


def _constraints_from_json(field: Group, raw) -> list:
    """Constraint objects {"shift": element, "class": label} from JSON."""
    if not isinstance(raw, list) or not all(isinstance(c, dict) for c in raw):
        raise MalformedInput("constraints must be a JSON list of objects")
    dec = field.decoder()
    try:
        return [CyclotomicConstraint(dec(c["shift"]), c["class"]) for c in raw]
    except KeyError as missing:
        raise MalformedInput(f"constraint lacks key {missing}") from None


def _cmd_search_constrained(args) -> Outcome:
    field = _field_from_args(args)
    if args.prefix is not None:
        if args.budget is not None:
            raise MalformedInput("--budget does not apply to --prefix")
        if args.constraints is not None or args.file is not None:
            raise MalformedInput(
                "--constraints and --file do not apply to --prefix"
            )
        args.schema = args.schema or "hesse"
        prefix = _parse_block(field, args.prefix) if args.prefix else None
        block = prefix_block_search(field, args.schema, prefix)
        return _found_block(field, args, block, "no block extends the prefix")
    if args.emit_kdf:
        raise MalformedInput("--emit-kdf applies only to --prefix")
    if args.schema is not None:
        raise MalformedInput("--schema applies only to --prefix")
    if args.constraints:
        raw = loads(args.constraints)
    elif args.file:
        raw = load(args.file)
    else:
        raise MalformedInput("pass --constraints, --file or --prefix")
    res = find_constrained_element(
        field,
        _constraints_from_json(field, raw),
        args.budget,
    )
    found = res.element is not None
    out = {
        "found": found,
        "q": field.order,
        "checked": res.checked,
        "exhausted": res.exhausted,
        "contradicts_bound": res.contradicts_bound,
        "bound": res.bound,
    }
    if found:
        out["element"] = field.encoder()(res.element)
        return out, f"found after {res.checked} candidates", True
    note = "no element satisfies the chain"
    if res.contradicts_bound:
        note += " (contradicts the counting bound)"
    return out, note, False


# ---------------------------------------------------------------------------
# compose, develop, replicate


def _cmd_compose_dm(args) -> Outcome:
    field = _field_from_args(args)
    m = field_dm(field, args.k)
    return dm_to_json(m), f"{args.k} x {field.order} difference matrix", True


def _cmd_compose_kdf(args) -> Outcome:
    left = kdf_from_json(load(args.left))
    right = kdf_from_json(load(args.right))
    m = dm_from_json(load(args.dm)) if args.dm else None
    out = compose_kdf(left, right, m)
    note = f"composed family over order {out.group.order}"
    return kdf_to_json(out), note, True


def _cmd_compose_pbd(args) -> Outcome:
    pbd = pbd_from_text(read_text(args.file))
    catalog = _catalog_from_args(args)
    sizes = sorted({len(block) for block in pbd.blocks})
    ingredients = {
        size: catalog.load_kaleidoscope(size, args.schema) for size in sizes
    }
    scope = pbd_compose(pbd, ingredients)
    note = f"assembled {len(scope.planes)} planes on {scope.n} points"
    return kaleidoscope_to_json(scope), note, True


def _refusal(err: Exception) -> Outcome:
    return {"valid": False, "error": str(err)}, str(err), False


def _cmd_develop(args) -> Outcome:
    kdf = kdf_from_json(load(args.file))
    try:
        scope = develop(kdf)
    except InvalidKDF as err:
        return _refusal(err)
    note = f"developed {len(scope.planes)} planes on {scope.n} points"
    return kaleidoscope_to_json(scope), note, True


def _cmd_replicate(args) -> Outcome:
    pbd = pbd_from_text(read_text(args.file))
    schema = _schema_from_arg(args.schema)
    try:
        scope = replicate(pbd, schema)
    except NotAUnitalDesign as err:
        return _refusal(err)
    note = f"replicated into {len(scope.planes)} planes"
    return kaleidoscope_to_json(scope), note, True


# ---------------------------------------------------------------------------
# exhaustive sweep


def _cmd_nonexistence(args) -> Outcome:
    cert = exhaustive_nonexistence(
        args.v,
        args.schema,
        jobs=args.jobs,
        mode=args.mode,
        max_nodes=args.max_nodes,
        allow_long=args.allow_long,
    )
    reason = serial_sweep_reason(args.mode, args.max_nodes)
    note = ""
    if args.jobs != 1 and reason is not None:
        note = f"note: ran on 1 job instead of {args.jobs}: {reason}\n"
    note += (
        f"{cert.solutions} normalized families, "
        f"{cert.nodes_visited} nodes"
        + ("" if cert.exhausted else " (sweep not exhausted)")
    )
    return cert.to_json(), note, cert.solutions > 0


# ---------------------------------------------------------------------------
# reproduce known tables


def _cmd_reproduce(args) -> Outcome:
    result = tables.recheck(args.table)
    ok = result["all_valid"]
    return result, "all entries check out" if ok else "MISMATCH", ok


# ---------------------------------------------------------------------------
# catalog


def _cmd_catalog_add(args) -> Outcome:
    path = _catalog_from_args(args).add(load(args.file))
    return {"stored": str(path)}, f"stored {path}", True


def _cmd_catalog_list(args) -> Outcome:
    catalog = _catalog_from_args(args)
    return {"root": str(catalog.root), "entries": catalog.entries()}, "", True


def _cmd_catalog_get(args) -> Outcome:
    try:
        raw = _catalog_from_args(args).get_raw(args.order, args.schema)
    except MissingIngredient:
        out = {"found": False, "order": args.order, "schema": args.schema}
        return out, "no such entry", False
    return raw, "", True


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
    for name in (*_REPORTS, "pbd"):
        sp = vsub.add_parser(name)
        sp.add_argument("--file", required=True)
        sp.set_defaults(
            func=_cmd_verify_pbd if name == "pbd" else _cmd_verify_report
        )
    sp = vsub.add_parser("block")
    _add_field_flags(sp)
    sp.add_argument("--block", required=True)
    sp.add_argument("--schema")
    sp.set_defaults(func=_cmd_verify_block)
    sp = vsub.add_parser("schema")
    sp.add_argument(
        "--schema", required=True, help=f"{', '.join(_BUILTINS)} or a file"
    )
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
    sp.add_argument("--schema", default="fano", choices=tuple(_BUILTINS))
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
    sp.add_argument("--schema", choices=tuple(_BUILTINS))
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
    sp.add_argument("--schema", default="fano", choices=tuple(_BUILTINS))
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
        result, note, ok = args.func(args)
        try:
            _emit(result, note)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader left early. Point stdout at devnull so that the
            # interpreter's final flush cannot raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK if ok else EXIT_INVALID
    except (KaleidoError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_MALFORMED
    except MemoryError:
        # The frames that held the memory are gone by now, so printing
        # the one line has room again.
        print("error: out of memory", file=sys.stderr)
        return EXIT_MALFORMED


if __name__ == "__main__":
    sys.exit(main())
