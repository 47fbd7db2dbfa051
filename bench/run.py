#!/usr/bin/env python3
"""statediv benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload pair-grid --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each exists): ``pair-grid``,
``preserver-verify`` and ``cli-small-d``.  Every workload is a closed loop
with one caller in this single process: the op list is run in whole passes
until ``--seconds`` of op time have been spent.  Every op is checked against
an independent numpy reference (bench/reference.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, which come from
spans recorded by bench/tracer.py around statediv's public functions.  The
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the
human-readable report.  Spans and the full report are written under
``.bench_out/`` in the current directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("pair-grid", "preserver-verify", "cli-small-d")
SETUP_REPEATS = 5
ORDER_SEED = 0  # fixed, so every --seed runs its ops in the same order
IMPORT_PROBE = "import numpy, scipy.linalg, statediv, statediv.cli"
TAIL_BEYOND = 10
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test sizes"
    )
    parser.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="perturb one reference value, to prove the output check is live",
    )
    return parser.parse_args(argv)


def _pin_blas() -> int:
    """Pin BLAS threads before numpy is imported: at most nproc, here 1."""
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for name in BLAS_ENV:
        os.environ[name] = str(threads)
    return threads


def _import_package():
    """Import statediv from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import statediv
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import statediv from {src}: {exc}")
    origin = Path(statediv.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"bench: statediv imported from {origin}, not from {src}")
    return statediv


def _import_seconds() -> float:
    """Median wall time of a fresh interpreter importing the package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _interleave(ops: list) -> list:
    """Spread each kind of op over the pass, keeping stages in order.

    Ops of one kind run far apart in time, so a short burst of load from
    outside the process does not land on every op of that kind.
    """
    order = random.Random(ORDER_SEED)
    out = []
    for stage in sorted({op.stage for op in ops}):
        batch = [op for op in ops if op.stage == stage]
        order.shuffle(batch)
        out += batch
    return out


def _environment(threads: int) -> dict:
    import numpy as np
    import scipy

    blas = "unknown"
    try:
        blas_info = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "blas_threads": threads,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
    }


def _run_op(op, tracer, op_id: int) -> tuple[float, bool]:
    """One closed-loop call: time it, then check it outside the timed region."""
    if tracer is not None:
        tracer.op_id = op_id
        span = tracer.begin(op.span)
    start = time.perf_counter()
    try:
        result = op.fn()
        raised = None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        result, raised = None, exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end(span)
    if raised is not None:
        return elapsed, False
    try:
        ok = bool(op.check(result))
    except Exception:  # a malformed result fails its check
        ok = False
    return elapsed, ok


class Loop:
    """Latencies and failures over whole passes of the op list."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed: list[str] = []
        self.walls: list[float] = []
        self.pass_timed: list[float] = []

    def run_pass(self, ops, tracer=None) -> float:
        start = time.perf_counter()
        first = len(self.latencies)
        for op in ops:
            elapsed, ok = _run_op(op, tracer, len(self.latencies))
            self.latencies.append(elapsed)
            if not ok:
                self.failed.append(op.name)
        wall = time.perf_counter() - start
        self.walls.append(wall)
        self.pass_timed.append(sum(self.latencies[first:]))
        return wall

    @property
    def timed_s(self) -> float:
        return sum(self.latencies)


def _tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n - 1
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    threads = _pin_blas()
    _import_package()
    workload = importlib.import_module(args.workload.replace("-", "_"))
    import_s = _import_seconds()

    out_dir = Path.cwd() / ".bench_out"
    work_dir = out_dir / f"work-{args.workload}-{os.getpid()}"
    try:
        setup_times = []
        inputs = None
        for _ in range(SETUP_REPEATS):
            if work_dir.exists():
                shutil.rmtree(work_dir)
            work_dir.mkdir(parents=True)
            start = time.perf_counter()
            inputs = workload.setup(args.seed, args.size, work_dir)
            setup_times.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(setup_times)

        ops = _interleave(workload.make_ops(inputs, corrupt=args.corrupt_reference))
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "size": args.size,
            "env": _environment(threads),
            "loop": "closed, 1 caller, whole passes of the op list",
            "ops_per_pass": len(ops),
            "setup": {"import_s": import_s, "median_setup_s": statistics.median(setup_times),
                      "setup_repeats": SETUP_REPEATS},
        }
        if args.trace:
            metrics, loop = _traced(workload, inputs, ops, args, report, out_dir, work_dir)
        else:
            metrics, loop = _untraced(ops, args, setup_s, report)
        report.update(workload.extra_report(inputs))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = len(loop.latencies)
    failed = len(loop.failed)
    report["fail_ratio"] = {
        "value": failed / attempted,
        "unit": "ratio",
        "failed": failed,
        "attempted": attempted,
        "failed_ops": sorted(set(loop.failed)),
    }
    report["metrics"] = metrics
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{name}.json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")

    _print_report(report)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


def _untraced(ops, args, setup_s: float, report: dict):
    loop = Loop()
    while loop.timed_s < args.seconds or not loop.walls:
        loop.run_pass(ops)
    n = len(loop.latencies)
    tail, percentile, beyond = _tail(loop.latencies)
    report["samples"] = {
        "ops": n,
        "passes": len(loop.walls),
        "timed_s": loop.timed_s,
        "tail_percentile": percentile,
        "tail_samples_beyond": beyond,
        "pass_timed_s": loop.pass_timed,
    }
    values = {
        "setup_s": setup_s,
        # the median pass damps a burst of load from outside the process
        "ops_per_s": len(ops) / statistics.median(loop.pass_timed),
        "op_p50_ms": 1e3 * statistics.median(loop.latencies),
        "op_tail_ms": 1e3 * tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    report["latency_by_op_ms"] = _median_by_op(ops, loop)
    # every sample, in run order; sample i is op i % len(op_order)
    report["op_order"] = [op.name for op in ops]
    report["latencies_ms"] = [1e3 * latency for latency in loop.latencies]
    return metrics, loop


def _median_by_op(ops, loop: Loop) -> dict[str, float]:
    per_op: dict[str, list[float]] = {}
    for index, latency in enumerate(loop.latencies):
        per_op.setdefault(ops[index % len(ops)].name, []).append(latency)
    return {name: 1e3 * statistics.median(values) for name, values in per_op.items()}


def _traced(workload, inputs, ops, args, report: dict, out_dir: Path, work_dir: Path):
    import layers
    from tracer import Tracer

    tracer = Tracer()

    def traced_summary(run) -> dict:
        first = len(tracer.spans)
        counters, counted = tracer.counters.copy(), tracer.counted_s.copy()
        tracer.install()
        try:
            run()
        finally:
            tracer.uninstall()
        return layers.pass_summary(tracer, first, counters, counted)

    def traced_setup() -> None:
        span = tracer.begin("setup")
        try:
            workload.setup(args.seed, args.size, work_dir)
        finally:
            tracer.end(span)

    # set-up writes the same files again: same seed, same bytes
    setup = traced_summary(traced_setup)
    untraced, traced = Loop(), Loop()
    passes = []
    while untraced.timed_s + traced.timed_s < args.seconds or not traced.walls:
        untraced.run_pass(ops)
        passes.append(traced_summary(lambda: traced.run_pass(ops, tracer)))
    overhead = statistics.median(traced.walls) - statistics.median(untraced.walls)
    extras = workload.layer_extras(inputs, ops, untraced)
    metrics = layers.metrics(setup, passes, overhead, extras)
    report["absent"] = list(tracer.absent)
    report["samples"] = {"untraced_passes": len(untraced.walls), "traced_passes": len(traced.walls),
                         "spans": len(tracer.spans)}
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"{args.workload}-spans.jsonl"))
    loop = Loop()
    loop.latencies = untraced.latencies + traced.latencies
    loop.failed = untraced.failed + traced.failed
    return metrics, loop


def _print_report(report: dict) -> None:
    print(f"# workload {report['workload']} seed {report['seed']} trace {report['trace']} "
          f"size {report['size']}")
    print("# env " + json.dumps(report["env"], sort_keys=True))
    print("# loop " + report["loop"] + f"; {report['ops_per_pass']} ops per pass")
    samples = report.get("samples", {})
    print("# samples " + json.dumps(samples, sort_keys=True))
    for name, metric in report["metrics"].items():
        note = ""
        if name == "op_tail_ms":
            note = (f"  (p{samples['tail_percentile']:.3f}, {samples['tail_samples_beyond']} "
                    f"samples beyond, n={samples['ops']})")
        elif name in ("op_p50_ms", "ops_per_s"):
            note = f"  (n={samples['ops']})"
        print(f"{name} {_fmt(metric['value'])} {metric['unit']}{note}")
    fail = report["fail_ratio"]
    print(f"fail_ratio {_fmt(fail['value'])} {fail['unit']}  ({fail['failed']}/{fail['attempted']} "
          f"failed: {', '.join(fail['failed_ops']) or 'none'})")
    for key in ("adversarial", "eigh_kernel"):
        if key in report:
            print(f"# {key} " + json.dumps(report[key], sort_keys=True))
    if report.get("absent"):
        print("# absent " + ", ".join(report["absent"]))


if __name__ == "__main__":
    sys.exit(main())
