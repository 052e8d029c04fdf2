"""The four workloads: seeded inputs, one pass of operations, and checks.

Inputs are plain data made from the seed and from the pinned answers in
``pinned.json``; the package sees only those inputs, never the seed. One
pass runs every operation of a workload through the public kaleido API
and checks each answer against the pinned one. A wrong answer and an
exception both count as a failed operation.

Every operation builds its own field objects, so nothing a previous
operation cached (primitive elements, element lists, class tables) is
reused, just as in separate ``kaleido`` commands.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from kaleido import algebra, compose, designs, search

WORKLOADS = ("tables-recheck", "sweep-v13", "families-write", "families-read")
PINNED_PATH = Path(__file__).with_name("pinned.json")

# The three texts families-write produces and families-read consumes.
PIPELINES = ("family", "133", "361")
TEXT_FILES = {
    "family": "family.json",
    "133": "kaleidoscope-133.json",
    "361": "kaleidoscope-361.json",
}

# Rebound by the traced run, so decoding shows as its own span.
json_loads = json.loads


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


def make_inputs(workload: str, seed: int, pinned: dict) -> dict:
    """Seeded inputs: which large prime, and in what order to work."""
    rng = random.Random(seed)
    if workload == "tables-recheck":
        order = list(range(len(pinned["tables"])))
        rng.shuffle(order)
        return {"order": order}
    if workload == "sweep-v13":
        return {}
    if workload in ("families-write", "families-read"):
        primes = sorted(int(q) for q in pinned["family"]["sha256"])
        return {"q": rng.choice(primes), "order": rng.sample(PIPELINES, 3)}
    raise ValueError(f"unknown workload {workload!r}")


def read_texts(workdir: Path) -> dict:
    return {k: (workdir / name).read_text() for k, name in TEXT_FILES.items()}


def write_texts(workdir: Path, texts: dict) -> None:
    for key, name in TEXT_FILES.items():
        (workdir / name).write_text(texts[key])


@dataclass
class Outcome:
    """What one pass did: its wall time, its checks and its counters."""

    wall_s: float = 0.0
    interval: tuple = (0.0, 0.0)  # perf_counter at the start and the end
    attempted: int = 0
    failures: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    texts: dict = field(default_factory=dict)

    def count(self, name: str, n) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def fail(self, label: str, detail: str) -> None:
        self.failures.setdefault(label, detail)


def _no_span(name):
    return nullcontext()


def run_pass(workload: str, inputs: dict, pinned: dict, span=None) -> Outcome:
    """Run every operation of one workload once, then check the answers.

    ``wall_s`` covers the operations and the cheap checks made between
    them. Checks that hash whole output texts run after the clock stops.
    """
    span = span or _no_span
    out = Outcome()
    ops, deferred = _OPS[workload](inputs, pinned)
    t0 = time.perf_counter()
    with span("bench.pass"):
        for label, span_name, op in ops:
            with span(span_name):
                try:
                    ok, detail = op(out)
                except Exception as err:  # an exception is a failed operation
                    ok, detail = False, f"{type(err).__name__}: {err}"
            out.attempted += 1
            if not ok:
                out.fail(label, detail)
    t1 = time.perf_counter()
    out.wall_s, out.interval = t1 - t0, (t0, t1)
    for label, check in deferred:
        ok, detail = check(out)
        if not ok:
            out.fail(label, detail)
    return out


# ---------------------------------------------------------------------------
# tables-recheck


def _element(x):
    return tuple(x) if isinstance(x, list) else x


def _field(spec: dict):
    if "modulus" in spec:
        desc = algebra.ExtensionField(spec["p"], tuple(spec["modulus"]))
    else:
        desc = algebra.PrimeField(spec["p"])
    return algebra.make_group(desc)


def _entry_label(entry: dict) -> str:
    if "field" not in entry:
        return f"{entry['table']} up to {entry['limit']}"
    spec = entry["field"]
    degree = len(spec.get("modulus", (0, 1))) - 1
    return f"{entry['table']} q={spec['p'] ** degree}"


def _table_op(entry: dict):
    kind = entry["kind"]

    def op(out: Outcome):
        if kind == "consecutive":
            got = search.consecutive_block_primes(entry["limit"])
            return list(got) == entry["primes"], f"found {list(got)}"
        fld = _field(entry["field"])
        if kind == "parametric":
            res = search.parametric_search(fld, entry["form"])
            checked = fld.order if res is None else res.checked
            out.count("parametric_candidates", checked)
            got = None if res is None else res.x
            return got == _element(entry["x"]), f"x = {got!r}"
        if kind == "form":
            block = search.form_block(fld, entry["form"], _element(entry["x"]))
        else:
            block = tuple(_element(x) for x in entry["block"])
        ok = len(set(block)) == len(block) and search.verify_listed_block(
            fld, block
        )
        return ok, "not an initial block"

    return op


def _tables_ops(inputs: dict, pinned: dict):
    entries = pinned["tables"]
    ops = []
    for idx in inputs["order"]:
        entry = entries[idx]
        ops.append(
            (_entry_label(entry), "bench." + entry["table"], _table_op(entry))
        )
    return ops, []


# ---------------------------------------------------------------------------
# sweep-v13


def cpu_seconds() -> float:
    """CPU time of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _sweep_ops(inputs: dict, pinned: dict):
    spec = pinned["sweep"]

    def op(out: Outcome):
        before = cpu_seconds()
        cert = search.exhaustive_nonexistence(
            spec["v"], spec["schema"], jobs=spec["jobs"]
        )
        out.count("sweep_cpu_s", cpu_seconds() - before)
        out.count("sweep_nodes", cert.nodes_visited)
        out.count("sweep_subtrees", cert.subtree_count)
        out.counters["sweep_jobs"] = cert.jobs
        ok = (
            cert.solutions == spec["solutions"]
            and cert.exhausted
            and cert.nodes_visited == spec["nodes"]
            and cert.subtree_count == spec["subtrees"]
        )
        return ok, (
            f"{cert.solutions} solutions, {cert.nodes_visited} nodes,"
            f" {cert.subtree_count} subtrees, exhausted={cert.exhausted}"
        )

    label = f"sweep v={spec['v']} {spec['schema']} jobs={spec['jobs']}"
    return [(label, "bench.sweep", op)], []


# ---------------------------------------------------------------------------
# families-write


def _prime_field(p: int):
    return algebra.make_group(algebra.PrimeField(p))


def compose_family(spec: dict):
    """The composed family of one pinned recipe, as the CLI builds it."""
    left = search.generate_kdf_from_initial_block(
        _prime_field(spec["left"]["p"]), tuple(spec["left"]["block"])
    )
    right = search.generate_kdf_from_initial_block(
        _prime_field(spec["right"]["p"]), tuple(spec["right"]["block"])
    )
    m = compose.field_dm(right.group, left.schema.k)
    return compose.compose_kdf(left, right, m)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digest_check(key: str, want: str):
    def check(out: Outcome):
        text = out.texts.get(key)
        if text is None:
            return False, "no text produced"
        return _digest(text) == want, "text differs from the pinned digest"

    return check


def _write_family_op(q: int):
    def op(out: Outcome):
        fld = _prime_field(q)
        block = search.asymptotic_initial_block(fld, "fano")
        if block is None:
            return False, "no initial block found"
        kdf = search.generate_kdf_from_initial_block(fld, block.points)
        text = designs.dumps(designs.kdf_to_json(kdf))
        out.texts["family"] = text
        out.count("json_bytes", len(text))
        return len(kdf.blocks) == (q - 1) // 6, f"{len(kdf.blocks)} blocks"

    return op


def _write_composed_op(key: str, spec: dict):
    def op(out: Outcome):
        scope = designs.develop(compose_family(spec))
        planes = len(scope.planes)
        out.count("planes", planes)
        text = designs.dumps(designs.kaleidoscope_to_json(scope))
        out.texts[key] = text
        out.count("json_bytes", len(text))
        return planes == spec["planes"], f"{planes} planes"

    return op


def _write_ops(inputs: dict, pinned: dict):
    q = inputs["q"]
    ops, deferred = [], []
    for key in inputs["order"]:
        if key == "family":
            label = f"write family q={q}"
            op = _write_family_op(q)
            want = pinned["family"]["sha256"][str(q)]
        else:
            spec = pinned["composed"][key]
            label = f"write kaleidoscope {key}"
            op = _write_composed_op(key, spec)
            want = spec["sha256"]
        ops.append((label, f"bench.write-{key}", op))
        deferred.append((label, _digest_check(key, want)))
    return ops, deferred


# ---------------------------------------------------------------------------
# families-read


def _read_family_op(q: int, text: str):
    def op(out: Outcome):
        kdf = designs.kdf_from_json(json_loads(text))
        rep = designs.verify_kdf(kdf)
        out.count("kdf_blocks", len(kdf.blocks))
        ok = rep.valid and len(kdf.blocks) == (q - 1) // 6
        return ok, f"{len(kdf.blocks)} blocks, {rep.summary()}"

    return op


def _read_scope_op(text: str, planes: int):
    def op(out: Outcome):
        scope = designs.kaleidoscope_from_json(json_loads(text))
        rep = designs.verify_kaleidoscope(scope)
        schema = scope.schema
        pairs_per_line = schema.h * (schema.h - 1) // 2
        out.count("incidences", len(scope.planes) * schema.b * pairs_per_line)
        ok = rep.valid and len(scope.planes) == planes
        return ok, f"{len(scope.planes)} planes, {rep.summary()}"

    return op


def _read_ops(inputs: dict, pinned: dict):
    q, texts = inputs["q"], inputs["texts"]
    ops = []
    for key in inputs["order"]:
        if key == "family":
            label = f"read family q={q}"
            op = _read_family_op(q, texts[key])
        else:
            label = f"read kaleidoscope {key}"
            op = _read_scope_op(texts[key], pinned["composed"][key]["planes"])
        ops.append((label, f"bench.read-{key}", op))
    return ops, []


_OPS = {
    "tables-recheck": _tables_ops,
    "sweep-v13": _sweep_ops,
    "families-write": _write_ops,
    "families-read": _read_ops,
}
