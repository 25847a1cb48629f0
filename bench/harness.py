"""Closed-loop measurement, metrics and the result line of one benchmark run."""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads
from spans import LAYER_FUNCTIONS, Recorder, span_name, tracing

RUN_PY = Path(__file__).resolve().parent / "run.py"
ROOT = workloads.ROOT

SETUP_SAMPLES = 31  # fresh processes per run, spread over the run; setup_s is their median
IMPORT_SAMPLES = 15  # bare `import alsalign` processes per traced cli_fresh run, spread likewise
WARMUP_OPS = 2
CLI_PROBE_REPS = 5
MIN_P90_SAMPLES = 100

# latency_ms.p50 is printed but not registered: on the build machine it
# flips between the machine's fast and slow states (see bench/README.md).
END_TO_END = [
    ("latency_ms.p90", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("correct_rate", "ratio"),
    ("ok_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def _per_layer_names() -> list[tuple[str, str]]:
    out = []
    for module, attr, stats, _ in LAYER_FUNCTIONS:
        name = span_name(module, attr)
        out += [(f"{name}.calls", "count/op"), (f"{name}.self_ms", "ms/op")]
        out += [(f"{name}.{stat}", "count/op") for stat in stats]
    out += [("cli.main.calls", "count/op"), ("cli.main.self_ms", "ms/op"), ("op.self_ms", "ms/op")]
    out.append(("cli.import_ms", "ms"))
    for sub in workloads.CLI_SUBS:
        out += [(f"cli.{sub}.wall_ms", "ms"), (f"cli.{sub}.inproc_ms", "ms"), (f"cli.{sub}.bytes_out", "bytes")]
    out += [("trace.untraced_op_ms", "ms"), ("trace.traced_op_ms", "ms"), ("trace.overhead_ms", "ms")]
    return out


# The traced run's metrics; every layer value is per traced op.
PER_LAYER = _per_layer_names()


def cpu_s() -> float:
    """CPU time of this process plus every child it has reaped."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Loop:
    """Outcome of the timed ops of one run."""

    def __init__(self):
        self.latency_s: list[float] = []  # untraced ops
        self.traced_latency_s: list[float] = []
        self.untraced_by_sub: dict[str, list[float]] = {}
        self.cpu_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.correct = 0


def run_op(workload, i: int, loop: Loop, rec: Recorder | None = None) -> None:
    """One op: timed, then checked against the workload's reference."""
    with tracing(rec) if rec is not None else contextlib.nullcontext():
        c0, t0 = cpu_s(), time.perf_counter()
        try:
            if rec is None:
                out = workload.op(i)
            else:
                with rec.span("op"):
                    out = workload.op(i, rec)
            error = None
        except Exception as exc:  # counted and shown; the loop goes on
            error = exc
        elapsed = time.perf_counter() - t0
        loop.cpu_s += cpu_s() - c0
    loop.attempted += 1
    (loop.latency_s if rec is None else loop.traced_latency_s).append(elapsed)
    if error is not None:
        loop.failed += 1
        if loop.failed == 1:
            traceback.print_exception(error, file=sys.stderr)
        return
    if rec is None and isinstance(workload, workloads.CliWorkload):
        loop.untraced_by_sub.setdefault(workload.sub(i), []).append(elapsed)
    if workload.check(i, out):
        loop.correct += 1
    elif loop.attempted - loop.failed - loop.correct == 1:
        print(f"op {i}: output differs from the reference", file=sys.stderr)


def measure(workload, seconds: float, rec: Recorder | None = None, probe=None, probes: int = 0) -> Loop:
    """Warm up, then run ops for `seconds` of loop time; with rec, every other op is traced.

    `probe` runs `probes` times at even intervals between ops.  The time it
    takes is added to the deadline, so the ops still get `seconds`.
    """
    warm = Loop()
    for i in range(WARMUP_OPS):
        run_op(workload, i, warm)
    if rec is not None:
        run_op(workload, WARMUP_OPS, warm, Recorder())  # warms the traced path; its spans are dropped
    loop = Loop()
    i = WARMUP_OPS + 1
    start = time.perf_counter()
    deadline = start + seconds
    done = 0
    while (now := time.perf_counter()) < deadline:
        if done < probes and now >= start + done * seconds / probes:
            probe()
            done += 1
            spent = time.perf_counter() - now
            deadline += spent
            start += spent
            continue
        run_op(workload, i, loop, rec if rec is not None and i % 2 else None)
        i += 1
    return loop


def setup_probe(workload: str, seed: int) -> float:
    """setup_s of one fresh benchmark process."""
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, check=True, stdin=subprocess.DEVNULL,
    )
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def end_to_end(workload, loop: Loop, setup: list[float]) -> dict[str, float]:
    lat = loop.latency_s
    done = loop.attempted - loop.failed
    return {
        "latency_ms.p90": 1000.0 * float(np.percentile(lat, 90)),
        "ops_per_s": done / sum(lat),
        "cpu_ms_per_op": 1000.0 * loop.cpu_s / loop.attempted,
        "correct_rate": loop.correct / loop.attempted,
        "ok_rate": done / loop.attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": workload.peak_rss_kb() / 1024.0,
    }


def per_layer(workload, loop: Loop, rec: Recorder, imports: list[float]) -> dict[str, float]:
    ops = len(loop.traced_latency_s)
    summary = rec.summary()
    metrics = {}
    for name, unit in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = summary.get(base, (0, 0.0))[0] / ops
        elif stat == "self_ms":
            metrics[name] = 1000.0 * summary.get(base, (0, 0.0))[1] / ops
        elif unit == "count/op":
            metrics[name] = rec.counts.get(name, 0) / ops
        else:
            metrics[name] = 0.0  # the cli.* probes, which only cli_fresh runs
    if isinstance(workload, workloads.CliWorkload):
        metrics["cli.import_ms"] = 1000.0 * statistics.median(imports)
        for sub in workloads.CLI_SUBS:
            walls = loop.untraced_by_sub.get(sub)  # none only in a run too short to reach every subcommand
            metrics[f"cli.{sub}.wall_ms"] = 1000.0 * statistics.median(walls) if walls else 0.0
            metrics[f"cli.{sub}.inproc_ms"] = workload.inproc_ms(sub, CLI_PROBE_REPS)
            metrics[f"cli.{sub}.bytes_out"] = float(workload.bytes_out[sub])
    untraced = 1000.0 * statistics.fmean(loop.latency_s)
    traced = 1000.0 * statistics.fmean(loop.traced_latency_s)
    metrics["trace.untraced_op_ms"] = untraced
    metrics["trace.traced_op_ms"] = traced
    metrics["trace.overhead_ms"] = traced - untraced
    return metrics


def git_commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(args, workload, loop: Loop, setup: list[float]) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op": workload.describe(),
        "ops_per_run": loop.attempted,
        "samples": {
            "latency": len(loop.latency_s),
            "traced_latency": len(loop.traced_latency_s),
            "setup": len(setup),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def run(args, work: Path, t_start: float) -> dict:
    """Measure one workload; print the metric table and the record; return the result."""
    workload = workloads.build(args.workload, args.seed, work)
    if args.setup_only:
        return {"setup_s": time.perf_counter() - t_start}
    if args.trace:
        rec = Recorder()
        setup, imports = [], []
        # The import probes are spread over the run like the set-up probes,
        # so they see the same machine as the fresh-process ops.
        loop = measure(
            workload, args.seconds, rec, probe=lambda: imports.append(workload.import_s()),
            probes=IMPORT_SAMPLES if isinstance(workload, workloads.CliWorkload) else 0,
        )
        metrics, units = per_layer(workload, loop, rec, imports), dict(PER_LAYER)
    else:
        # Set-up is sampled across the run, so one slow spell of the machine
        # does not decide every sample.
        setup = []
        loop = measure(
            workload, args.seconds, probe=lambda: setup.append(setup_probe(args.workload, args.seed)),
            probes=SETUP_SAMPLES,
        )
        metrics, units = end_to_end(workload, loop, setup), dict(END_TO_END)
        if len(loop.latency_s) < MIN_P90_SAMPLES:
            print(f"warning: p90 rests on {len(loop.latency_s)} < {MIN_P90_SAMPLES} samples", file=sys.stderr)
        print(f"{'latency_ms.p50':<46} {1000.0 * float(np.percentile(loop.latency_s, 50)):>16.6g} ms (not registered)")
        print(f"{'error_rate':<46} {loop.failed / loop.attempted:>16.6g} ratio (registered as ok_rate)")
    for name, value in metrics.items():
        print(f"{name:<46} {value:>16.6g} {units[name]}")
    print(f"attempted {loop.attempted}, failed {loop.failed}")
    print(json.dumps({"record": record(args, workload, loop, setup)}))
    return {
        "correct": loop.failed == 0 and loop.correct == loop.attempted,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
