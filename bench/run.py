"""Benchmark of the kaleido commands users run, end to end and per layer.

Usage, from the root of a kaleido checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition runs one pass of the workload in a fresh interpreter
(``worker.py``), and repetitions continue until ``--seconds`` have passed.
Times are reported at a reference machine speed, which each worker
samples while it runs (``speed.py``), because the speed of a shared host
drifts by up to a factor of two. With ``--trace 0`` the last line of
output reports the end-to-end metrics; with ``--trace 1`` the run also
makes one traced pass and the last line reports the per-layer metrics.
The line before it is a JSON report with the machine context, the
samples and any failures.

Uses the standard library only. Scratch files go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().with_name("worker.py")
WORKLOADS = ("tables-recheck", "sweep-v13", "families-write", "families-read")
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_SAMPLES = 9
# A sweep pass takes about half of --seconds; three passes give a median.
MIN_REPS = 3
CHILD_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str, workdir: Path, spans=None):
    """Run one worker; return its set-up seconds and its result.

    The worker reports when its set-up ended on ``time.perf_counter``,
    which reads the system-wide monotonic clock on Linux, so set-up runs
    from just before the worker is started to that moment. It is given at
    the reference speed (see ``speed.py``): less the worker's probes,
    times the ratio of reference to measured speed over that set-up.
    """
    cmd = [
        sys.executable, str(WORKER), "--workload", workload, "--seed",
        str(seed), "--mode", mode, "--workdir", str(workdir),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    with subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True
    ) as proc:
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise WorkerError(f"{mode} worker for {workload} timed out")
    if proc.returncode != 0:
        raise WorkerError(
            f"{mode} worker for {workload} exited with {proc.returncode}"
        )
    lines = out.strip().splitlines()
    if not lines:
        raise WorkerError(f"{mode} worker for {workload} printed no result")
    result = json.loads(lines[-1])
    timing = result["timing"]
    setup_s = timing["ready"] - t0
    setup_s = (setup_s - timing["setup_probe_s"]) * timing["setup_scale"]
    return setup_s, result


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path):
    """Run the repetitions, extra set-ups and traced pass of one run."""
    rundir = work / f"run-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)
    prep = []
    try:
        if workload == "families-read":
            # The read path decodes what the write path wrote for this seed.
            prep.append(spawn("families-write", seed, "prepare", rundir)[1])
            if prep[0]["failures"]:
                return prep, [], [], None
        reps, setups = [], []
        t0 = time.perf_counter()
        while len(reps) < MIN_REPS or time.perf_counter() - t0 < seconds:
            setup_s, result = spawn(workload, seed, "run", rundir)
            setups.append(setup_s)
            reps.append(result)
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(workload, seed, "setup", rundir)[0])
        traced = None
        if trace:
            spans = work / f"spans-{workload}.json"
            traced = spawn(workload, seed, "trace", rundir, spans)[1]
        return prep, reps, setups, traced
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def summarize(workload, seed, trace, context, prep, reps, setups, traced):
    """The report and the result line of one run."""
    done = prep + reps + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in done)
    failures = [f"{k}: {v}" for r in done for k, v in r["failures"].items()]
    walls = [r["wall_s"] for r in reps]
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "context": context,
        "reps": len(reps),
        "wall_s_samples": walls,
        "raw_wall_s_samples": [r["raw_wall_s"] for r in reps],
        "setup_s_samples": setups,
        "peak_rss_mb_samples": [r["peak_rss_mb"] for r in reps],
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / max(attempted, 1),
        "failures": failures[:20],
    }
    if reps:
        report["inputs"] = reps[0]["inputs"]
        report["counters"] = reps[0]["counters"]
    if not reps:
        metrics = {}
    elif not trace:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
        }
        metrics = {
            k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()
        }
    else:
        import layers

        values = dict(traced["layers"])
        values["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in layers.PER_LAYER
            if name in values
        }
        report["traced_wall_s"] = traced["wall_s"]
        report["idle"] = sorted(k for k, v in values.items() if v == 0)
        report["absent"] = traced["absent"]
        report["baseline"] = traced["baseline"]
        report["extras"] = traced["extras"]
    result = {
        "correct": not failures and bool(reps),
        "attempted": max(attempted, 1),
        "failed": len(failures) if reps else max(len(failures), 1),
        "metrics": metrics,
    }
    return report, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "kaleido" / "__init__.py").is_file():
        print(f"error: no kaleido sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    context = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "loadavg_before": os.getloadavg(),
    }
    try:
        prep, reps, setups, traced = measure(
            args.workload, args.seed, args.seconds, bool(args.trace),
            ROOT / ".bench_work",
        )
    except WorkerError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    context["loadavg_after"] = os.getloadavg()
    if args.workload == "sweep-v13" and reps:
        context["sweep_jobs"] = reps[0]["counters"].get("sweep_jobs")
    report, result = summarize(
        args.workload, args.seed, bool(args.trace), context, prep, reps,
        setups, traced,
    )
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
