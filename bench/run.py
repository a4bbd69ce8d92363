"""Benchmark for dphier: four workloads, each checked against computations
made apart from the program.

From the root of a checkout:

    python3 bench/run.py --workload spatial-release --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload sequence --seed 1 --seconds 12 --trace 1

Workloads: spatial-release, spatial-query, sequence, audit (see README.md).
Each is a closed loop with one client in this process: a batch user who runs
one pass (a fixed list of commands) after another for ``--seconds``.  Inputs
are made from ``--seed`` in a separate set-up process, so set-up memory never
counts against the pass.

``--trace 0`` reports the end-to-end metrics setup_s, run_s (median pass
time) and peak_rss_mb.  ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics of the traced ones.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The program is read from ``src/`` of the checkout; without it
the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

# One client, one process: math libraries get one thread each (nproc is 2).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORKLOADS = ("spatial-release", "spatial-query", "sequence", "audit")
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 5.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--preset", choices=("full", "tiny"), default="full",
                    help="input sizes; tiny exists for the benchmark's own tests")
    return ap.parse_args(argv)


def run_setup(workload, seed, workdir, preset):
    """One set-up process; returns its wall time from start to exit."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, str(BENCH / "make_inputs.py"), workload, str(seed), str(workdir), preset]
    t0 = perf_counter()
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True)
    elapsed = perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"set-up failed with code {proc.returncode}:\n{proc.stderr}")
    return elapsed


def timed_pass(run_pass, runner, workdir, seed, sizes):
    gc.collect()
    t0 = perf_counter()
    run_pass(runner, workdir, seed, sizes)
    return perf_counter() - t0


def digests(workload, workdir):
    """SHA-256 of every released artifact; read outside the timed pass."""
    import checks
    import passes

    return [checks.sha256(p) if p.exists() else None for p in passes.released_artifacts(workload, workdir)]


def measure(args, workdir, sizes):
    """Untraced passes for the run length, at least two; returns the
    metrics, the runner and the artifact digests of every pass."""
    import passes

    setups = []
    while len(setups) < MIN_SETUPS or (sum(setups) < SETUP_BUDGET_S and len(setups) < MAX_SETUPS):
        setups.append(run_setup(args.workload, args.seed, workdir, args.preset))
    run_pass, runner = passes.PASSES[args.workload], passes.Runner()
    times, sums, start = [], [], perf_counter()
    while len(times) < 2 or perf_counter() - start < args.seconds:
        times.append(timed_pass(run_pass, runner, workdir, args.seed, sizes))
        sums.append(digests(args.workload, workdir))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"setup_s samples: {', '.join(f'{t:.4f}' for t in setups)}")
    print(f"run_s samples: {', '.join(f'{t:.4f}' for t in times)}")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(times), "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }
    return metrics, runner, sums


def measure_traced(args, workdir, sizes):
    """Alternating untraced and traced passes; per-layer metrics of the
    traced ones, the runner and the artifact digests of every pass."""
    import passes
    import tracing

    run_setup(args.workload, args.seed, workdir, args.preset)
    run_pass, runner = passes.PASSES[args.workload], passes.Runner()
    plain, traced, layers, sums, start = [], [], [], [], perf_counter()
    while not traced or perf_counter() - start < args.seconds:
        runner.tracer = None
        plain.append(timed_pass(run_pass, runner, workdir, args.seed, sizes))
        sums.append(digests(args.workload, workdir))
        runner.tracer = tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        try:
            traced.append(timed_pass(run_pass, runner, workdir, args.seed, sizes))
        finally:
            restore()
        layers.append(tracer.metrics())
        sums.append(digests(args.workload, workdir))
    print(f"untraced run_s samples: {', '.join(f'{t:.4f}' for t in plain)}")
    print(f"traced run_s samples: {', '.join(f'{t:.4f}' for t in traced)}")
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif unit in ("s", "us"):
            value = statistics.median(layer[name] for layer in layers)
        else:  # counts are exact and equal in every pass; report the last
            value = layers[-1][name]
        metrics[name] = (value, unit)
    return metrics, runner, sums


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dphier" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'dphier'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import dphier
    import make_inputs
    import passes

    if Path(dphier.__file__).resolve().parent != SRC / "dphier":
        print(f"error: dphier was imported from {dphier.__file__}, not {SRC}", file=sys.stderr)
        return 2
    sizes = make_inputs.PRESETS[args.preset]
    workdir = BENCH / "work" / f"{args.workload}-{args.preset}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    try:
        if args.trace:
            metrics, runner, sums = measure_traced(args, workdir, sizes)
        else:
            metrics, runner, sums = measure(args, workdir, sizes)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    t0 = perf_counter()
    try:
        fails, notes = checks.CHECKS[args.workload](workdir, args.seed, sizes)
    except Exception:  # a check that cannot finish is a failed check
        fails, notes = [f"check raised:\n{traceback.format_exc()}"], []
    if any(d != sums[0] for d in sums):
        fails.append("passes with the same seed released different bytes")
    print(f"checks took {perf_counter() - t0:.1f}s")
    for path, digest in zip(passes.released_artifacts(args.workload, workdir), sums[-1]):
        if digest:
            print(f"sha256 {digest}  {path.stat().st_size:>9} bytes  {path.name}")
    for note in notes:
        print(note)
    for fail in fails:
        print(f"CHECK FAILED: {fail}")
    result = {
        "correct": not fails,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
