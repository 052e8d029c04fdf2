"""Tests of the benchmark itself: its checks, its names and its seeding.

Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import layers
import run
import speed
import tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHEAP_TABLES = ("fano-primes", "fano-exceptions")


def _cheap_entries(pinned):
    return [
        i for i, e in enumerate(pinned["tables"]) if e["table"] in CHEAP_TABLES
    ]


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_pinned_answers_pass():
    pinned = workloads.load_pinned()
    out = workloads.run_pass(
        "tables-recheck", {"order": _cheap_entries(pinned)}, pinned
    )
    assert out.failures == {}
    assert out.attempted == len(_cheap_entries(pinned))


def test_wrong_expected_x_makes_failed_ratio_nonzero():
    pinned = workloads.load_pinned()
    order = _cheap_entries(pinned)
    bad = copy.deepcopy(pinned)
    bad["tables"][order[0]]["x"] += 1
    out = workloads.run_pass("tables-recheck", {"order": order}, bad)
    assert len(out.failures) == 1
    rep = worker._result(out, {"order": order}, {"wall_s": out.wall_s})
    report, result = run.summarize(
        "tables-recheck", 0, False, {}, [], [rep], [0.1], None
    )
    assert report["failed_ratio"] == 1 / len(order)
    assert result["failed"] == 1
    assert result["correct"] is False


def test_wrong_pinned_digest_is_a_failure():
    pinned = workloads.load_pinned()
    bad = copy.deepcopy(pinned)
    bad["composed"]["133"]["sha256"] = "0" * 64
    inputs = {"q": 100003, "order": ["133"]}
    assert workloads.run_pass("families-write", inputs, pinned).failures == {}
    out = workloads.run_pass("families-write", inputs, bad)
    assert list(out.failures) == ["write kaleidoscope 133"]


def test_exception_counts_as_failure():
    pinned = workloads.load_pinned()
    order = _cheap_entries(pinned)[:1]
    bad = copy.deepcopy(pinned)
    bad["tables"][order[0]]["field"]["p"] = 36
    out = workloads.run_pass("tables-recheck", {"order": order}, bad)
    assert out.attempted == 1
    assert "NonPrimeModulus" in next(iter(out.failures.values()))


def test_pinned_tables_match_the_package():
    from kaleido import tables

    pinned = workloads.load_pinned()["tables"]
    xs = {
        (e["table"], e["field"]["p"]): e["x"]
        for e in pinned
        if e["kind"] == "parametric"
    }
    for p, x in tables.FANO_AFFINE_PRIMES.items():
        assert xs[("fano-primes", p)] == x
    for p, x in tables.HESSE_PRIME_X.items():
        assert xs[("hesse-primes", p)] == x
    for p in tables.FANO_AFFINE_EXCEPTIONS:
        assert xs[("fano-exceptions", p)] is None
    squares = [e for e in pinned if e["table"].startswith("fano-squares")]
    assert len(squares) == len(tables.FANO_SQUARE_T2M3) + len(
        tables.FANO_SQUARE_T2P1
    )
    (consecutive,) = [e for e in pinned if e["kind"] == "consecutive"]
    assert consecutive["primes"] == list(tables.CONSECUTIVE_BLOCK_PRIMES_1000)


def test_same_seed_same_inputs():
    pinned = workloads.load_pinned()
    for name in workloads.WORKLOADS:
        random.seed(1)
        first = workloads.make_inputs(name, 7, pinned)
        random.seed(2)
        assert workloads.make_inputs(name, 7, pinned) == first
    tables = {
        tuple(workloads.make_inputs("tables-recheck", s, pinned)["order"])
        for s in range(5)
    }
    assert len(tables) == 5
    primes = {
        workloads.make_inputs("families-write", s, pinned)["q"]
        for s in range(20)
    }
    assert len(primes) > 1
    for s in range(5):
        assert workloads.make_inputs(
            "families-write", s, pinned
        ) == workloads.make_inputs("families-read", s, pinned)


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.E2E_UNITS
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        layers.PER_LAYER
    )


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_emitted_metrics_match_benchmark_json():
    base = ["--workload", "families-write", "--seed", "3", "--seconds", "0"]
    plain = _run(*base, "--trace", "0")
    assert plain.returncode == 0, plain.stderr
    result = _last_json_line(plain.stdout)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]

    traced = _run(*base, "--trace", "1")
    assert traced.returncode == 0, traced.stderr
    result = _last_json_line(traced.stdout)
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name, metric in result["metrics"].items():
        assert metric["unit"] == layers.UNITS[name]
    report = json.loads(traced.stdout.strip().splitlines()[-2])
    assert report["failed_ratio"] == 0
    assert report["absent"] == {}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench")
    done = _run(
        "--workload", "sweep-v13", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_clock_runs_at_the_speed_of_the_last_probe():
    sampler = speed.Sampler()
    ref = speed.REFERENCE_PROBE_S
    # A probe at reference speed ends at 1 s; one at half speed at 2 s.
    sampler._record(1.0 - ref, 1.0, ref)
    sampler._record(2.0 - 2 * ref, 2.0, 2 * ref)
    # 1 s before the second probe counts in full, and its time not at all.
    assert abs(sampler.clock(2.0) - (1.0 - 2 * ref)) < 1e-12
    # After it, a second counts half.
    assert abs(sampler.clock(3.0) - sampler.clock(2.0) - 0.5) < 1e-12
    # Before the first probe, the clock runs at its speed.
    assert abs(sampler.clock(0.5) - -0.5) < 1e-12
    assert abs(sampler.probe_seconds(0.0, 3.0) - 3 * ref) < 1e-12
    assert abs(sampler.probe_seconds(1.0, 3.0) - 2 * ref) < 1e-12
    assert sampler.probe_seconds(2.5, 3.0) == 0.0


def test_sampler_probes_while_work_runs():
    sampler = speed.Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            speed.probe()
        t1 = time.perf_counter()
    finally:
        sampler.stop()
    probes = sampler.probe_seconds(t0, t1)
    assert len(sampler.ends) >= 5
    assert sampler.clock(t1) > sampler.clock(t0)
    assert 0 < probes < t1 - t0


def test_self_times_subtract_children():
    spans = [
        ["bench.pass", 0.0, 10.0, -1],
        ["search.verify_listed_block", 1.0, 6.0, 0],
        ["algebra.cyclotomic_table", 2.0, 5.0, 1],
        ["algebra.cyclotomic_table", 3.0, 4.0, 2],
    ]
    inside = tracing.subtree(spans, 0)
    assert inside == [0, 1, 2, 3]
    assert tracing.self_times(spans, inside) == {
        "bench": 5.0,
        "search": 2.0,
        "algebra": 3.0,
    }
    # The nested call of the same function is not counted twice.
    assert tracing.durations(spans, inside, "algebra.cyclotomic_table") == [3.0]
