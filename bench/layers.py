"""Per-layer metrics of a traced pass, and the baseline rows they cover.

Every metric is emitted on every workload's traced run. A layer the
workload never calls reads 0 there; the report lists those names as idle.

Naming: ``<layer>.<function>_s`` is the time spent in calls to that
function, its callees included; a call nested inside another call of the
same function is not counted again. ``<layer>.self_s`` is the time the
layer spent in its own code: span durations minus their children's.
``bench.self_s`` is the benchmark's own code between the calls.
"""

from __future__ import annotations

from tracing import durations, find, self_times, subtree

# Layers whose self time is reported for the pass; the CLI runs outside it.
PASS_LAYERS = ("algebra", "schema", "search", "compose", "designs", "bench")

# Name and unit of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    ("algebra.primitive_element_s", "s"),
    ("algebra.cyclotomic_table_s", "s"),
    ("algebra.tables_dense", "count"),
    ("algebra.tables_lazy", "count"),
    ("algebra.elements_s", "s"),
    ("algebra.transversal_s", "s"),
    ("algebra.ext_mul_per_s", "1/s"),
    ("algebra.class_index_per_s.dense", "1/s"),
    ("algebra.class_index_per_s.lazy", "1/s"),
    ("algebra.prime_sub_per_s", "1/s"),
    ("algebra.product_add_per_s", "1/s"),
    ("algebra.self_s", "s"),
    ("schema.block_lines_per_s", "1/s"),
    ("schema.self_s", "s"),
    ("search.verify_listed_block_s", "s"),
    ("search.verify_listed_block_calls", "count"),
    ("search.parametric_search_s", "s"),
    ("search.parametric_candidates", "count"),
    ("search.candidates_per_s", "1/s"),
    ("search.consecutive_block_primes_s", "s"),
    ("search.asymptotic_initial_block_s", "s"),
    ("search.generate_kdf_s", "s"),
    ("search.sweep_s", "s"),
    ("search.sweep_nodes", "count"),
    ("search.sweep_subtrees", "count"),
    ("search.sweep_nodes_per_s", "1/s"),
    ("search.sweep_cpu_s", "s"),
    ("search.sweep_nodes_per_s_1core", "1/s"),
    ("search.sweep_scaling_eff", "ratio"),
    ("search.self_s", "s"),
    ("compose.field_dm_s", "s"),
    ("compose.compose_kdf_s", "s"),
    ("compose.self_s", "s"),
    ("designs.develop_s", "s"),
    ("designs.develop_planes_per_s", "1/s"),
    ("designs.kaleidoscope_to_json_s", "s"),
    ("designs.kdf_to_json_s", "s"),
    ("designs.dumps_s", "s"),
    ("designs.json_bytes", "bytes"),
    ("designs.json_loads_s", "s"),
    ("designs.kaleidoscope_from_json_s", "s"),
    ("designs.kdf_from_json_s", "s"),
    ("designs.verify_kaleidoscope_s", "s"),
    ("designs.incidences_per_s", "1/s"),
    ("designs.verify_kdf_s", "s"),
    ("designs.verify_kdf_blocks_per_s", "1/s"),
    ("designs.self_s", "s"),
    ("cli.overhead_s", "s"),
    ("bench.self_s", "s"),
    ("trace.overhead_s", "s"),
)
UNITS = dict(PER_LAYER)

# Span-timed functions: metric name -> span name.
_TIMED = {
    "algebra.primitive_element_s": "algebra.primitive_element",
    "algebra.cyclotomic_table_s": "algebra.cyclotomic_table",
    "algebra.elements_s": "algebra.elements",
    "algebra.transversal_s": "algebra.transversal",
    "search.verify_listed_block_s": "search.verify_listed_block",
    "search.parametric_search_s": "search.parametric_search",
    "search.consecutive_block_primes_s": "search.consecutive_block_primes",
    "search.asymptotic_initial_block_s": "search.asymptotic_initial_block",
    "search.generate_kdf_s": "search.generate_kdf",
    "search.sweep_s": "search.sweep",
    "compose.field_dm_s": "compose.field_dm",
    "compose.compose_kdf_s": "compose.compose_kdf",
    "designs.develop_s": "designs.develop",
    "designs.kaleidoscope_to_json_s": "designs.kaleidoscope_to_json",
    "designs.kdf_to_json_s": "designs.kdf_to_json",
    "designs.dumps_s": "designs.dumps",
    "designs.json_loads_s": "designs.json_loads",
    "designs.kaleidoscope_from_json_s": "designs.kaleidoscope_from_json",
    "designs.kdf_from_json_s": "designs.kdf_from_json",
    "designs.verify_kaleidoscope_s": "designs.verify_kaleidoscope",
    "designs.verify_kdf_s": "designs.verify_kdf",
}

# Counted work divided by a span-timed metric: (rate, work counter, time).
_RATES = (
    ("search.candidates_per_s", "parametric_candidates", "search.parametric_search_s"),
    ("search.sweep_nodes_per_s", "sweep_nodes", "search.sweep_s"),
    ("designs.develop_planes_per_s", "planes", "designs.develop_s"),
    ("designs.incidences_per_s", "incidences", "designs.verify_kaleidoscope_s"),
    ("designs.verify_kdf_blocks_per_s", "kdf_blocks", "designs.verify_kdf_s"),
)


def layer_metrics(
    spans: list,
    table_kinds: dict,
    counters: dict,
    rates: dict,
    sweep_1core: dict | None,
    nproc: int,
) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and the reasons for gaps.

    ``trace.overhead_s`` needs the untraced runs and is filled in by the
    caller.
    """
    inside = subtree(spans, find(spans, "bench.pass")[0])
    m = {key: sum(durations(spans, inside, name)) for key, name in _TIMED.items()}
    m["search.verify_listed_block_calls"] = len(
        durations(spans, inside, "search.verify_listed_block")
    )
    m["algebra.tables_dense"] = table_kinds["dense"]
    m["algebra.tables_lazy"] = table_kinds["lazy"]
    m["search.parametric_candidates"] = counters.get("parametric_candidates", 0)
    m["search.sweep_nodes"] = counters.get("sweep_nodes", 0)
    m["search.sweep_subtrees"] = counters.get("sweep_subtrees", 0)
    m["search.sweep_cpu_s"] = counters.get("sweep_cpu_s", 0.0)
    m["designs.json_bytes"] = counters.get("json_bytes", 0)
    for rate, work, seconds in _RATES:
        m[rate] = counters.get(work, 0) / m[seconds] if m[seconds] else 0.0
    own = self_times(spans, inside)
    for layer in PASS_LAYERS:
        m[f"{layer}.self_s"] = own.get(layer, 0.0)
    cli_roots = find(spans, "bench.cli")
    cli_spans = subtree(spans, cli_roots[0]) if cli_roots else []
    m["cli.overhead_s"] = self_times(spans, cli_spans).get("cli", 0.0)
    m.update(rates)

    absent = {}
    m["search.sweep_nodes_per_s_1core"] = 0.0
    m["search.sweep_scaling_eff"] = 0.0
    if sweep_1core:
        one = sweep_1core["nodes"] / sweep_1core["seconds"]
        m["search.sweep_nodes_per_s_1core"] = one
        jobs = counters.get("sweep_jobs", 1)
        if nproc < 2:
            del m["search.sweep_scaling_eff"]
            absent["search.sweep_scaling_eff"] = (
                f"nproc is {nproc}: the jobs={jobs} sweep had no second core"
            )
        elif m["search.sweep_s"]:
            m["search.sweep_scaling_eff"] = m["search.sweep_nodes_per_s"] / (
                one * jobs
            )
    return m, absent


# ROADMAP's baseline table, row by row: (row, owning workload).
BASELINE_ROWS = (
    ("criterion 9: order-13 seven-point sweep, jobs=1", "sweep-v13"),
    ("criterion 9, jobs=2", "sweep-v13"),
    ("order-19 seven-point exists, 500k-node budget", "sweep-v13"),
    ("criterion 5: 54 prime-square witnesses", "tables-recheck"),
    ("criterion 12: property suites", None),
    ("order 361: compose", "families-write"),
    ("order 361: verify_kdf", "families-write"),
    ("order 361: develop (21,660 planes)", "families-write"),
    ("order 361: verify_kaleidoscope", "families-read"),
    ("order 361: kaleidoscope_to_json", "families-write"),
    ("q = 100003: generate_kdf_from_initial_block", "families-write"),
    ("q = 100003: verify_kdf (16,667 blocks)", "families-read"),
)


def baseline_rows(workload: str, spans: list, extras: dict, q) -> dict:
    """Seconds for each baseline row this workload measures."""

    def under(name: str) -> list[int]:
        roots = find(spans, name)
        return subtree(spans, roots[0]) if roots else []

    def total(indices, name, parent=None):
        return sum(durations(spans, indices, name, parent))

    measured = {
        "criterion 9: order-13 seven-point sweep, jobs=1": lambda: extras[
            "sweep_1core"
        ]["seconds"],
        "criterion 9, jobs=2": lambda: total(under("bench.pass"), "search.sweep"),
        "order-19 seven-point exists, 500k-node budget": lambda: extras[
            "sweep_19_exists"
        ]["seconds"],
        "criterion 5: 54 prime-square witnesses": lambda: total(
            under("bench.pass"), "bench.fano-squares-5mod12"
        )
        + total(under("bench.pass"), "bench.fano-squares-11mod12"),
        "order 361: compose": lambda: total(
            under("bench.write-361"), "compose.compose_kdf"
        ),
        "order 361: verify_kdf": lambda: total(
            under("bench.write-361"), "designs.verify_kdf", "designs.develop"
        ),
        "order 361: develop (21,660 planes)": lambda: total(
            under("bench.write-361"), "designs.develop"
        ),
        "order 361: verify_kaleidoscope": lambda: total(
            under("bench.read-361"), "designs.verify_kaleidoscope"
        ),
        "order 361: kaleidoscope_to_json": lambda: total(
            under("bench.write-361"), "designs.kaleidoscope_to_json"
        ),
        "q = 100003: generate_kdf_from_initial_block": lambda: total(
            under("bench.write-family"), "search.generate_kdf"
        ),
        "q = 100003: verify_kdf (16,667 blocks)": lambda: total(
            under("bench.read-family"), "designs.verify_kdf"
        ),
    }
    rows = {}
    for row, owner in BASELINE_ROWS:
        if owner is None:
            rows[row] = {
                "seconds": None,
                "why": "test-suite loops, not a kaleido command; pytest times it",
            }
        elif owner != workload:
            rows[row] = {"measured_on": owner}
        else:
            rows[row] = {"seconds": measured[row]()}
            if row.startswith("q = "):
                rows[row]["q"] = q
    return rows
