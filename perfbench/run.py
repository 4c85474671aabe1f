"""Benchmark for ecobench: three CLI workloads, timed end to end or traced per layer.

    python3 perfbench/run.py --workload grid-small --seed 42 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all    # every workload in one process

A run repeats passes of one workload for --seconds (at least three passes and
one per input seed; with --trace 1 at least two traced and one untraced) and
checks every pass's output. Untraced passes run the reference slices of speed.py, so that their
times can be given at a fixed reference speed as well as raw.
Human-readable lines go first; the last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`: end-to-end metrics
with --trace 0, per-layer metrics with --trace 1. Run from the repository root;
the program is imported from its `src` directory. Scratch files and span
dumps go to perfbench/out.
"""

from __future__ import annotations

import os

# One process with single-threaded BLAS: no more threads than cores, and
# steadier timings. Must be set before numpy is first imported.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh-interpreter set-ups per untraced run; their median is setup_s. They
# are spread over the run, between passes, so that a slow spell of the shared
# machine moves only a few of them.
SETUP_SAMPLES = 21
# Untraced passes per run at least, so that timings are medians even when one
# pass takes a third of --seconds or more (grid-900-holdout); never fewer than
# one per input seed.
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"adj_wall_s": "s", "adj_ops_per_s": "1/s", "ok_share": "ratio",
                    "setup_s": "s", "peak_rss_mb": "MB"}
# Counts a traced run prints but leaves out of its JSON: both read 0 on every
# workload BENCHMARK.json lists (ANN diverges only on grid-900-holdout, and
# SVM converged on every workload and seed tried).
PRINTED_ONLY = ("neural.fit_failed", "margin_instance.svm_unconverged")


def _require_program():
    if not (SRC / "ecobench" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'ecobench'} not found; run from a checkout that holds src/")
    sys.path.insert(0, str(SRC))


def machine_note(seed: int) -> dict:
    import numpy
    import scipy
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "load": "one process, passes run one after another",
        "seed": seed,
    }


def timing_summary(values: list[float]) -> str:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.6g} of n={n}, range {ordered[0]:.6g} to {ordered[-1]:.6g}"
    if n >= 11:
        text += f", p{100 * (n - 10) / n:.0f}={ordered[n - 11]:.6g}"
    else:
        text += ", no percentile has 10 samples beyond it"
    return text


def setup_argv(workload: str, inputs: list[int], work: Path) -> list[str]:
    """The set-up probe for a workload and its input seeds; it also writes the
    CSV files the workload reads."""
    import workloads
    tables = []
    for seed in inputs:
        for table in workloads.TABLES[workload]:
            n_per_class, offset, *stem = table.split(":")
            tables.append(":".join([n_per_class, str(seed + int(offset)),
                                    *(f"{name}-{seed}" for name in stem)]))
    return [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(work), *tables]


def time_setup(argv: list[str]) -> float:
    """Seconds for `import ecobench` plus the input tables, in a fresh interpreter."""
    done = subprocess.run(argv, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True, cwd=ROOT)
    return float(done.stdout.strip().splitlines()[-1])


def per_input(by_input: dict, value) -> float:
    """Mean over the input seeds of the median of `value` over each one's passes."""
    return statistics.fmean(statistics.median(value(r) for r in results)
                            for results in by_input.values())


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    # The traced run keeps to the run seed, so that its counts can repeat.
    inputs = [seed] if trace else workloads.input_seeds(workload, seed)
    work = OUT / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        probe = setup_argv(workload, inputs, work)
        setup_goal = 1 if trace else SETUP_SAMPLES
        setup = [time_setup(probe)]
        checks = {s: workloads.OutputCheck(workload, s) for s in inputs}
        by_input = {s: [] for s in inputs}
        untraced, traced, tracers = [], [], []
        origin = time.perf_counter()
        deadline = origin + seconds
        while True:
            now = time.perf_counter()
            if trace:
                if now >= deadline and len(traced) >= 2 and untraced:
                    break
                use_tracer = len(traced) <= len(untraced)
            else:
                if now >= deadline and len(untraced) >= max(MIN_PASSES, len(inputs)):
                    break
                use_tracer = False
            if use_tracer:
                input_seed = seed
                tracer = tracing.Tracer()
                with tracing.traced(tracer):
                    result = workloads.run_pass(workload, seed, work, slices=False)
                tracers.append(tracer)
                traced.append(result)
            else:
                input_seed = inputs[len(untraced) % len(inputs)]
                result = workloads.run_pass(workload, input_seed, work)
                untraced.append(result)
                by_input[input_seed].append(result)
            checks[input_seed].check(result, len(traced) + len(untraced) - 1)
            due = math.ceil(setup_goal * (time.perf_counter() - origin) / seconds)
            while len(setup) < min(due, setup_goal):
                setup.append(time_setup(probe))
        while len(setup) < setup_goal:
            setup.append(time_setup(probe))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced
    outcome = {
        "workload": workload,
        "attempted": sum(r.attempted for r in passes),
        "failed": sum(r.failed for r in passes),
        "walls": [r.wall_s for r in untraced],
        "adjusted": [r.adjusted_s for r in untraced],
        "setup": setup,
        "errors": sorted({f"{op}: {text}" for r in passes for op, text in r.errors.items()}),
        "mismatches": [m for c in checks.values() for m in c.mismatches],
        "notes": [n for c in checks.values() for n in c.notes],
        "inputs": inputs,
    }
    outcome["wall_s"] = per_input(by_input, lambda r: r.wall_s)
    outcome["ops_per_s"] = per_input(by_input, lambda r: (r.attempted - r.failed) / r.wall_s)
    outcome["end_to_end"] = {
        "adj_wall_s": per_input(by_input, lambda r: r.adjusted_s),
        "adj_ops_per_s": per_input(by_input, lambda r: (r.attempted - r.failed) / r.adjusted_s),
        "ok_share": 1.0 - outcome["failed"] / outcome["attempted"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        per_pass = [tracing.layer_metrics(t) for t in tracers]
        layers = {}
        for name in tracing.TIMING_METRICS:
            layers[name] = statistics.median(p[name] for p in per_pass)
        for name in tracing.COUNT_METRICS:
            values = [p[name] for p in per_pass]
            if len(set(values)) != 1:
                outcome["mismatches"].append(f"count {name} differs between traced passes: {values}")
            layers[name] = values[0]
        traced_wall = statistics.median(r.wall_s for r in traced)
        layers["trace.overhead_ratio"] = traced_wall / outcome["wall_s"]
        outcome["per_layer"] = layers
        outcome["traced_walls"] = [r.wall_s for r in traced]
        OUT.mkdir(parents=True, exist_ok=True)
        dump = OUT / f"spans-{workload}-seed{seed}.json"
        dump.write_text(json.dumps({
            "machine": machine_note(seed),
            "workload": workload,
            "passes": [tracing.spans_record(t, origin) for t in tracers],
        }) + "\n", encoding="utf-8")
        outcome["spans_file"] = str(dump.relative_to(ROOT))
    return outcome


def print_outcome(outcome: dict, trace: bool):
    name = outcome["workload"]
    attempted, failed = outcome["attempted"], outcome["failed"]
    e2e = outcome["end_to_end"]
    print(f"== {name}")
    print(f"  input seeds {outcome['inputs']}: a timing below is the mean over them of the "
          "median over each one's passes")
    print(f"  wall_s       {outcome['wall_s']:.6g} s     (passes: {timing_summary(outcome['walls'])}, "
          "tracing off)")
    print(f"  ops_per_s    {outcome['ops_per_s']:.6g} 1/s   (successful operations per second of pass)")
    print(f"  adj_wall_s   {e2e['adj_wall_s']:.6g} s     "
          f"(passes: {timing_summary(outcome['adjusted'])}, at the reference speed)")
    print(f"  adj_ops_per_s {e2e['adj_ops_per_s']:.6g} 1/s  (ops_per_s at the reference speed)")
    print(f"  failed_share {failed / attempted:.6g} ratio ({failed} failed of {attempted} attempted)")
    print(f"  ok_share     {e2e['ok_share']:.6g} ratio")
    if not trace:
        print(f"  setup_s      {e2e['setup_s']:.6g} s     ({timing_summary(outcome['setup'])})")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.6g} MB")
    if trace:
        traced_wall = statistics.median(outcome["traced_walls"])
        print(f"  traced wall_s {traced_wall:.6g} s "
              f"({timing_summary(outcome['traced_walls'])}); spans in {outcome['spans_file']}")
        print(f"  tracing overhead {traced_wall - outcome['wall_s']:+.6g} s "
              "(median traced wall_s minus median untraced wall_s)")
        for metric, value in outcome["per_layer"].items():
            print(f"  {metric:34} {value:.6g}")
    for line in outcome["errors"]:
        print(f"  failed operation: {line}")
    for line in outcome["notes"]:
        print(f"  note: {line}")
    for line in outcome["mismatches"]:
        print(f"  OUTPUT MISMATCH: {line}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="grid-small, grid-900-holdout, model-roundtrip or all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _require_program()
    import tracing
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)} or all")

    note = machine_note(args.seed)
    print("machine: " + json.dumps(note))
    outcomes = []
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_outcome(outcome, bool(args.trace))
        outcomes.append(outcome)

    metrics = {}
    for outcome in outcomes:
        prefix = f"{outcome['workload']}." if len(outcomes) > 1 else ""
        if args.trace:
            for metric, value in outcome["per_layer"].items():
                if metric in PRINTED_ONLY:
                    continue
                unit = "count" if metric in tracing.COUNT_METRICS else \
                    "ratio" if metric == "trace.overhead_ratio" else "s"
                metrics[prefix + metric] = {"value": value, "unit": unit}
        else:
            for metric, value in outcome["end_to_end"].items():
                metrics[prefix + metric] = {"value": value, "unit": END_TO_END_UNITS[metric]}
    correct = not any(o["mismatches"] for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(o["attempted"] for o in outcomes),
        "failed": sum(o["failed"] for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
