"""One fresh interpreter: set up one workload, run it once, report.

``run.py`` starts this file once per repetition, so every pass pays the
start-up costs a ``kaleido`` command pays: importing the package, finding
primitive elements, listing field elements, building class tables.

Protocol: the worker prints one JSON object as its last line, with the
``time.perf_counter`` reading at which its set-up ended. A
``speed.Sampler`` runs from the worker's first line to the end of the
measurements, so set-up, pass and, in trace mode, spans and rates are
all reported at the reference speed; the pass is reported raw as well.
Modes:

- ``setup``: set up, then exit; a set-up time sample only.
- ``run``: one untraced pass.
- ``prepare``: one families-write pass whose texts are saved to the work
  directory for families-read.
- ``trace``: one traced pass, then the CLI commands the workload owns,
  the rate microbenchmarks and the workload's extra baseline rows.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import io
import json
import os
import resource
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
MODES = ("setup", "run", "prepare", "trace")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=MODES, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path, help="where trace mode writes spans")
    return ap.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _run_pass(args, inputs: dict, pinned: dict, sampler, span=None):
    import workloads

    # The sweep pass runs its work in child processes on every core.
    parallel = args.workload == "sweep-v13" and pinned["sweep"]["jobs"] > 1
    sampler.spread(parallel)
    try:
        return workloads.run_pass(args.workload, inputs, pinned, span)
    finally:
        sampler.spread(False)


def _timing(sampler, ready: float, outcome=None) -> dict:
    """Set-up and pass times at the reference speed; stops the sampler."""
    sampler.stop()
    probes = sampler.probe_seconds(STARTED, ready)
    scaled = sampler.clock(ready) - sampler.clock(STARTED)
    timing = {
        "ready": ready,
        "setup_scale": scaled / max(ready - STARTED - probes, 1e-9),
        "setup_probe_s": probes,
    }
    if outcome is not None:
        t0, t1 = outcome.interval
        timing.update(
            wall_s=sampler.clock(t1) - sampler.clock(t0),
            probe_s=sampler.probe_seconds(t0, t1),
        )
    return timing


def _result(outcome, inputs: dict, timing: dict, **extra) -> dict:
    return {
        "inputs": {k: inputs[k] for k in ("q", "order") if k in inputs},
        "wall_s": timing["wall_s"],
        "raw_wall_s": outcome.wall_s,
        "timing": timing,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "counters": outcome.counters,
        "peak_rss_mb": peak_rss_mb(),
        **extra,
    }


def main(argv=None) -> int:
    sampler = speed.Sampler()
    sampler.start()
    args = _parse(argv)
    import kaleido

    src = (ROOT / "src").resolve()
    if Path(kaleido.__file__).resolve().parent.parent != src:
        print(f"error: kaleido imported from {kaleido.__file__}", file=sys.stderr)
        return 2
    import workloads

    pinned = workloads.load_pinned()
    inputs = workloads.make_inputs(args.workload, args.seed, pinned)
    if args.workload == "families-read":
        inputs["texts"] = workloads.read_texts(args.workdir)
    ready = time.perf_counter()

    if args.mode == "setup":
        result = {"timing": _timing(sampler, ready)}
    elif args.mode == "trace":
        result = _trace(args, inputs, pinned, sampler, ready)
    else:
        outcome = _run_pass(args, inputs, pinned, sampler)
        timing = _timing(sampler, ready, outcome)
        if args.mode == "prepare" and not outcome.failures:
            workloads.write_texts(args.workdir, outcome.texts)
        result = _result(outcome, inputs, timing)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# trace mode


def _cli_commands(workload: str, pinned: dict, workdir: Path) -> list[list]:
    """The CLI commands that do the same work as the workload."""
    import workloads

    if workload == "tables-recheck":
        tables = dict.fromkeys(e["table"] for e in pinned["tables"])
        return [["reproduce", t] for t in tables]
    if workload == "families-write":
        from kaleido import designs

        argvs = []
        for key, spec in pinned["composed"].items():
            path = workdir / f"family-{key}.json"
            kdf = workloads.compose_family(spec)
            path.write_text(designs.dumps(designs.kdf_to_json(kdf)))
            argvs.append(["develop", "--file", str(path)])
        return argvs
    if workload == "families-read":
        files = workloads.TEXT_FILES
        return [
            ["verify", "kdf", "--file", str(workdir / files["family"])],
            ["verify", "kaleidoscope", "--file", str(workdir / files["133"])],
            ["verify", "kaleidoscope", "--file", str(workdir / files["361"])],
        ]
    return []


def _timed_sweep(outcome, clock, label: str, want: dict, **kwargs) -> dict:
    """One extra sweep outside the pass, checked like an operation."""
    from kaleido import search

    t0 = clock()
    cert = search.exhaustive_nonexistence(**kwargs)
    seconds = clock() - t0
    outcome.attempted += 1
    got = {
        "nodes": cert.nodes_visited,
        "solutions": cert.solutions,
        "exhausted": cert.exhausted,
    }
    if any(got[k] != want[k] for k in want):
        outcome.fail(label, f"got {got}, want {want}")
    return {"seconds": seconds, **got}


def _sweep_extras(outcome, pinned: dict, clock) -> dict:
    spec = pinned["sweep"]
    slow = pinned["sweep_19_exists"]
    return {
        "sweep_1core": _timed_sweep(
            outcome,
            clock,
            "sweep jobs=1",
            {"nodes": spec["nodes"], "solutions": spec["solutions"]},
            v=spec["v"],
            schema_name=spec["schema"],
            jobs=1,
        ),
        "sweep_19_exists": _timed_sweep(
            outcome,
            clock,
            "sweep v=19 exists",
            {k: slow[k] for k in ("nodes", "solutions", "exhausted")},
            v=slow["v"],
            schema_name=slow["schema"],
            mode="exists",
            max_nodes=slow["max_nodes"],
        ),
    }


def _trace(args, inputs: dict, pinned: dict, sampler, ready: float) -> dict:
    import layers
    import micro
    import tracing
    import workloads
    from kaleido import cli

    tracer = tracing.Tracer()
    tracer.install()
    outcome = _run_pass(args, inputs, pinned, sampler, tracer.span)
    table_kinds = dict(tracer.table_kinds)
    argvs = _cli_commands(args.workload, pinned, args.workdir)
    with tracer.span("bench.cli"):
        for argv in argvs:
            sink = io.StringIO()
            try:
                with redirect_stdout(sink), redirect_stderr(sink):
                    code = cli.main(argv)
            except SystemExit as err:  # argparse rejected the command line
                code = err.code
            except Exception as err:  # an exception is a failed operation
                code = f"{type(err).__name__}: {err}"
            outcome.attempted += 1
            if code != 0:
                outcome.fail("kaleido " + " ".join(argv), f"exit {code}")
    tracer.uninstall()

    extras = {}
    if args.workload == "sweep-v13":
        extras = _sweep_extras(outcome, pinned, sampler.clock)
    rates = micro.rates(args.seed, sampler.clock)
    timing = _timing(sampler, ready, outcome)
    # Span times on the reference-speed clock, so layers add up to wall_s.
    clock = sampler.clock
    spans = [[n, clock(t0), clock(t1), up] for n, t0, t1, up in tracer.spans]
    nproc = len(os.sched_getaffinity(0))
    metrics, absent = layers.layer_metrics(
        spans,
        table_kinds,
        outcome.counters,
        rates,
        extras.get("sweep_1core"),
        nproc,
    )
    for path in tracer.missing:
        absent[path] = "not found in the package; its span is missing"
    rows = layers.baseline_rows(args.workload, spans, extras, inputs.get("q"))
    if args.spans is not None:
        args.spans.write_text(
            json.dumps(
                {"workload": args.workload, "seed": args.seed, "spans": spans}
            )
        )
    return _result(
        outcome, inputs, timing, layers=metrics, absent=absent, baseline=rows,
        extras=extras,
    )


if __name__ == "__main__":
    sys.exit(main())
