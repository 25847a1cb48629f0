"""Tiny-size smoke runs of every workload, the output contract, and mutation checks.

Run with ``python -m pytest bench/tests -q``; the repository's own test
command collects only tests/, so none of this adds to it.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import workloads
from spans import Recorder

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def tiny_autoconnect(seed=3):
    return workloads.AutoconnectWorkload(
        seed, candidates=3, duration_ms=64.0, window_ms=10.0, max_planted_ms=10.0, snr_db=10.0, pool=8
    )


def tiny_venue(seed=3):
    return workloads.VenueWorkload(seed, seats=200, depth_m=40.0)


def run_ops(workload, n, rec=None):
    loop = harness.Loop()
    for i in range(n):
        harness.run_op(workload, i, loop, rec if rec is not None and i % 2 else None)
    return loop


class Mutated:
    """A workload whose op output is altered before it is checked."""

    def __init__(self, inner, mutate):
        self.inner, self.mutate = inner, mutate

    def op(self, i, rec=None):
        return self.mutate(self.inner.op(i, rec))

    def check(self, i, out):
        return self.inner.check(i, out)


@pytest.mark.parametrize("make", [tiny_autoconnect, tiny_venue])
def test_tiny_in_process_workloads_are_correct_untraced_and_traced(make):
    workload = make()
    rec = Recorder()
    loop = run_ops(workload, 6, rec)
    assert (loop.attempted, loop.failed, loop.correct) == (6, 0, 6)
    metrics = harness.per_layer(workload, loop, rec, [])
    assert [n for n, _ in harness.PER_LAYER] == list(metrics)
    assert metrics["op.self_ms"] >= 0.0


def test_tiny_cli_workload_runs_every_subcommand(tmp_path):
    workload = workloads.CliWorkload(seed=3, work=tmp_path, cycles=2)
    rec, loop = Recorder(), harness.Loop()
    for i in range(10):  # each cycle of five runs every subcommand: first untraced, then traced
        harness.run_op(workload, i, loop, rec if i >= 5 else None)
    assert (loop.attempted, loop.failed, loop.correct) == (10, 0, 10)
    assert set(loop.untraced_by_sub) == set(workloads.CLI_SUBS)
    assert rec.summary()["cli.main"][0] == 5
    assert set(workload.bytes_out) == set(workloads.CLI_SUBS)
    assert workload.peak_rss_kb() > 0


def test_autoconnect_trials_are_a_function_of_the_seed():
    assert tiny_autoconnect(5).trials == tiny_autoconnect(5).trials
    assert tiny_autoconnect(5).trials != tiny_autoconnect(6).trials


def test_venue_reference_matches_the_plan_rules():
    ref = tiny_venue().reference
    assert ref.max_abs_residual_ms <= 5.0
    assert ref.zone.min() == 0 and ref.zone.max() == ref.zones - 1


# Mutation checks: a wrong answer must count as incorrect, never as correct.


def _wrong_lag(result):
    return dataclasses.replace(result, lag_ms=result.lag_ms + 1000.0 / workloads.SAMPLE_RATE_HZ)


def _wrong_stream(result):
    return dataclasses.replace(result, stream_id="S99")


def _wrong_zone(output):
    plan, verification = output
    rows = list(verification.seats)
    rows[7] = dataclasses.replace(rows[7], zone_index=(rows[7].zone_index + 1) % len(plan.zones))
    return plan, dataclasses.replace(verification, seats=tuple(rows))


def _wrong_residual(output):
    plan, verification = output
    rows = list(verification.seats)
    rows[3] = dataclasses.replace(rows[3], residual_ms=rows[3].residual_ms + 1e-6)
    return plan, dataclasses.replace(verification, seats=tuple(rows))


def _uncovered_seat(output):
    plan, verification = output
    rows = list(verification.seats)
    rows[0] = dataclasses.replace(rows[0], zone_index=None, presentation_delay_ms=None, residual_ms=None, distortion=None)
    return plan, dataclasses.replace(verification, seats=tuple(rows))


def _changed_bytes(run):
    if run.out is None:
        return dataclasses.replace(run, stdout=run.stdout.replace(b"violation", b"Violation"))
    return dataclasses.replace(run, out=run.out[:-2] + bytes([run.out[-2] ^ 1]) + run.out[-1:])


@pytest.mark.parametrize(
    "make, mutate",
    [
        (tiny_autoconnect, _wrong_lag),
        (tiny_autoconnect, _wrong_stream),
        (tiny_venue, _wrong_zone),
        (tiny_venue, _wrong_residual),
        (tiny_venue, _uncovered_seat),
    ],
)
def test_mutated_in_process_output_is_counted_incorrect(make, mutate):
    loop = run_ops(Mutated(make(), mutate), 4)
    assert (loop.attempted, loop.failed, loop.correct) == (4, 0, 0)


def test_changed_cli_output_bytes_are_counted_incorrect(tmp_path):
    loop = run_ops(Mutated(workloads.CliWorkload(seed=3, work=tmp_path, cycles=1), _changed_bytes), 5)
    assert (loop.attempted, loop.failed, loop.correct) == (5, 0, 0)


def test_unexpected_exit_code_is_counted_as_a_failure(tmp_path):
    workload = workloads.CliWorkload(seed=3, work=tmp_path, cycles=1)
    validate = workload.invocations["validate"]
    workload.invocations["validate"] = dataclasses.replace(validate, exit_code=0)
    workload.order = ["validate"]
    loop = run_ops(workload, 2)
    assert (loop.attempted, loop.failed, loop.correct) == (2, 2, 0)


# The driver-facing contract of run.py.


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec[kind]]


def test_benchmark_json_declares_exactly_the_reported_metrics():
    assert _declared("end_to_end") == harness.END_TO_END
    assert _declared("per_layer") == harness.PER_LAYER
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


@pytest.mark.parametrize("trace, kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_the_result_line(trace, kind):
    proc = _run("--workload", "autoconnect_short", "--seed", "9", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert [(n, m["unit"]) for n, m in result["metrics"].items()] == _declared(kind)
    record = json.loads(proc.stdout.splitlines()[-2])["record"]
    assert record["seed"] == 9 and record["ops_per_run"] == result["attempted"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "venue_verify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
