#!/usr/bin/env python3
"""thermoloop benchmark: time the workloads, check their outputs, print the metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload hold64-cli --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

``--trace 0`` repeats untraced executions of one workload for ``--seconds``
and reports the end-to-end metrics; ``--trace 1`` alternates untraced and
traced executions and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from tracing import Tracer, patched, wrapper_cost_s

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUT_DIR = ROOT / ".perfbench_out"
MIN_EXECUTIONS = 3      # per untraced run; more while the next one fits in --seconds
MIN_PAIRS = 4           # per traced run, so that trace.overhead_frac outweighs drift


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time of one run (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_program() -> None:
    """Import thermoloop from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import thermoloop
    if not Path(thermoloop.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"thermoloop came from {thermoloop.__file__}, not {ROOT / 'src'}")


def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": git_revision(),
    }


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' elsewhere."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def attempt(execute, errors: list):
    """One execution; an exception or a failed check counts as a failed execution."""
    try:
        ex = execute()
    except Exception:  # a defect in the program under test: record it and go on
        errors.append(traceback.format_exc())
        return None
    errors.extend(ex.failures)
    return None if ex.failures else ex


def run_untraced(wl, deadline: float, errors: list):
    """Untraced executions until ``deadline``; wall time and throughput over all of them.

    The host's speed shifts between levels up to 2x apart that last tens of
    seconds, so the median of a run's few executions jumps to whichever level
    held for most of them; the mean over the whole run averages the levels.
    ``setup_s`` is short and uses the median.
    """
    good, attempted = [], 0
    last = 0.0
    while attempted < MIN_EXECUTIONS or perf_counter() + last <= deadline:
        attempted += 1
        start = perf_counter()
        ex = attempt(wl.execute, errors)
        last = perf_counter() - start
        if ex is not None:
            good.append(ex)
    print(f"# {wl.name}: {len(good)} of {attempted} executions passed; wall_s samples "
          + " ".join(f"{ex.wall_s:.4f}" for ex in good))
    metrics = {}
    if good:
        print(f"# {wl.name}: wall_s median {statistics.median(ex.wall_s for ex in good):.4f}, "
              f"steps_per_s median {statistics.median(ex.steps / ex.run_s for ex in good):.2f}")
        metrics = {
            "wall_s": statistics.mean(ex.wall_s for ex in good),
            "setup_s": statistics.median(ex.setup_s for ex in good),
            "steps_per_s": sum(ex.steps for ex in good) / sum(ex.run_s for ex in good),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return metrics, attempted, attempted - len(good)


def traced_execution(wl, tracer):
    with patched(tracer.replacements()), tracer.region(f"workload.{wl.name}"):
        return wl.execute()


def run_traced(wl, deadline: float, errors: list, trace_path: Path, env: dict):
    """Alternate untraced and traced executions; per-layer medians and trace checks."""
    pairs, attempted = [], 0
    last = 0.0
    while len(pairs) < MIN_PAIRS or perf_counter() + last <= deadline:
        attempted += 2
        start = perf_counter()
        tracer = Tracer()
        if len(pairs) % 2:      # alternate which side goes first, so drift cancels
            traced = attempt(lambda: traced_execution(wl, tracer), errors)
            plain = attempt(wl.execute, errors)
        else:
            plain = attempt(wl.execute, errors)
            traced = attempt(lambda: traced_execution(wl, tracer), errors)
        if plain is None or traced is None:
            break
        if traced.digest != plain.digest:
            errors.append("traced final y/kappa differ from the untraced run")
            break
        pairs.append((plain, traced, tracer))
        last = perf_counter() - start
    failed = attempted - 2 * len(pairs)
    if not pairs:
        return {}, attempted, failed

    ratios = [t.wall_s / p.wall_s for p, t, _ in pairs]
    print(f"# {wl.name}: {len(pairs)} traced/untraced pairs; wall ratios "
          + " ".join(f"{r:.4f}" for r in ratios))
    overhead = statistics.median(ratios) - 1.0
    per_exec = [tracer.layer_metrics() for _, _, tracer in pairs]
    metrics = {name: statistics.median_low(m[name] for m in per_exec) for name in per_exec[0]}
    plain, traced, tracer = pairs[0]
    metrics["metrics.trajectory.bytes_computed"] = traced.trajectory_bytes
    metrics["output.bytes_written"] = traced.bytes_written
    metrics["trace.overhead_frac"] = overhead

    # Pair ratios drift by several percent on a shared machine, so the spans'
    # coverage of stepper.run is checked against the tracing cost computed from
    # the wrapped-call count and the measured cost of one wrapper.
    cost = wrapper_cost_s()
    for _, _, tr in pairs:
        run_s, unaccounted = tr.unaccounted_run_s()
        tracing_s = tr.wrapped_calls() * cost
        print(f"# {wl.name}: stepper.run.s {run_s:.4f}, outside child spans {unaccounted:.4f}, "
              f"computed tracing cost {tracing_s:.4f} ({tr.wrapped_calls()} wrapped calls)")
        if abs(unaccounted) > tracing_s:
            failed += 1
            errors.append(f"spans leave {unaccounted:.4f} s of {run_s:.4f} s in stepper.run "
                          f"unaccounted, more than the tracing cost {tracing_s:.4f} s")
    tracer.write(trace_path, {"workload": wl.name, "seed": wl.seed, "environment": env})
    return metrics, attempted, failed


def run_one(args, spec: dict) -> int:
    try:
        import_program()
    except ImportError as err:
        print(f"error: cannot import thermoloop from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    declared = spec["per_layer" if args.trace else "end_to_end"]
    env = environment()
    print("# environment " + json.dumps(env, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    errors: list = []
    try:
        deadline = perf_counter() + seconds
        wl = workloads.Workload(args.workload, args.seed, workdir)
        # The first execution is checked but not timed: it pays for lazy imports
        # and first-touch memory, which later executions reuse.
        warm_failed = attempt(wl.execute, errors) is None
        if args.trace:
            trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            metrics, attempted, failed = run_traced(wl, deadline, errors, trace_path, env)
        else:
            metrics, attempted, failed = run_untraced(wl, deadline, errors)
        attempted += 1
        failed += warm_failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in errors:
        print(f"# failure: {err.strip()}", file=sys.stderr)
    result_metrics = {}
    for m in declared:
        value = metrics.get(m["name"])        # None only when every execution failed
        result_metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"# {args.workload:15s} {m['name']:40s} {value!s:>20s} {m['unit']:8s} "
              f"({m['better']} is better)")
    print(f"# {args.workload:15s} {'failed_frac':40s} {failed / attempted:>20.6g} "
          f"{'fraction':8s} (lower is better; {failed} of {attempted} executions)")
    correct = bool(metrics) and not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


def run_all(args, spec: dict) -> int:
    """Each workload in a fresh process of its own, so peak_rss_mb is per workload."""
    status = 0
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        with open(ROOT / "BENCHMARK.json") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"error: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    return run_all(args, spec) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    for var in THREAD_VARS:     # before numpy is first imported
        os.environ[var] = "1"
    sys.exit(main())
