"""Acceptance gate: worked examples and statistical bounds, end to end.

Each check prints one PASS/FAIL line (run pytest -s to see them all) and
asserts the same condition, so the suite doubles as a human-readable
checklist.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from alsalign.acoustics import propagation_delay_ms
from alsalign.autoconnect import CandidateStream, estimate_alignment_delay, select_stream
from alsalign.broadcast import (
    AdvertisingTrain,
    AudioStreamDescriptor,
    BroadcastSink,
    BroadcastSource,
    BufferExceededError,
    ParameterUnsupportedError,
    SpecMode,
    TransportKind,
    sink_apply_delays,
    transport_propagation_delay_ms,
    end_to_end_residual_ms,
    validate_config,
)
from alsalign.cli import main
from alsalign.perception import DistortionClass, classify_residual, comb_filter_magnitude, notch_frequencies
from alsalign.planner import plan_zones, residual_delay_ms, zone_for_delay
from alsalign.signals import Signal, add_noise_snr, delay_signal, gen_white_noise

from test_autoconnect import brute_force_search
from test_golden import QUICK_START


def report(criterion: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{criterion} failed{suffix}"


def test_c01_transmitter_count_for_60m_hall():
    plan_zones(60.96, 30.0, 343.0)  # warm-up
    t0 = time.perf_counter()
    plan = plan_zones(60.96, 30.0, 343.0)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    ok = len(plan.zones) == 3 and elapsed_ms < 1.0
    report("C01 transmitter-count", ok, f"zones={len(plan.zones)}, runtime={elapsed_ms:.3f} ms")


def test_c02_propagation_delay_magnitude():
    delay = propagation_delay_ms(60.96, 343.0)
    exact = 1000.0 * 60.96 / 343.0
    ok = abs(delay - exact) <= 1e-6 and abs(delay - 180.0) <= 6.0
    report("C02 delay-magnitude", ok, f"delay={delay:.6f} ms")


def test_c03_residual_bound_over_random_plans():
    rng = np.random.default_rng(20240917)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        max_distance = float(rng.uniform(0.0, 500.0))
        tolerance = float(rng.uniform(5.0, 50.0))
        plan = plan_zones(max_distance, tolerance)
        for frac in rng.uniform(0.0, 1.0, size=5):
            delay = float(frac) * plan.span_ms
            zone = zone_for_delay(plan, delay)
            r = abs(residual_delay_ms(delay, zone.presentation_delay_ms))
            worst = max(worst, r / tolerance)
            assert r <= tolerance
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    report("C03 residual-bound", ok, f"worst |r|/tol={worst:.4f}, runtime={elapsed:.2f} s")


def test_c04_perceptual_thresholds():
    fixed = (
        classify_residual(3.0) is DistortionClass.COLORATION
        and classify_residual(20.0) is DistortionClass.REVERBERATION
        and classify_residual(50.0) is DistortionClass.ECHO
        and classify_residual(0.0) is DistortionClass.ALIGNED
    )
    rng = np.random.default_rng(4)
    symmetric = all(
        classify_residual(r) is classify_residual(-r) for r in rng.uniform(-200.0, 200.0, size=1000)
    )
    report("C04 perceptual-thresholds", fixed and symmetric)


def test_c05_comb_notch_depth():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        delay = float(rng.uniform(0.05, 20.0))
        gain = float(rng.uniform(0.0, 2.0))
        notches = notch_frequencies(delay, 8000.0)
        assert notches, f"no notches for delay {delay}"
        for f in notches:
            err = abs(comb_filter_magnitude(delay, gain, f) - abs(1.0 - gain))
            worst = max(worst, err)
    ok = worst <= 1e-9
    report("C05 comb-notch-depth", ok, f"worst error={worst:.2e}")


def test_c06_autoconnect_accuracy():
    sr = 16000
    trials = 500
    rng = np.random.default_rng(6)
    correct = 0
    lag_hits = 0
    t0 = time.perf_counter()
    for t in range(trials):
        seeds = [int(rng.integers(0, 2**63)) for _ in range(3)]
        streams = [gen_white_noise(s, 1000.0, sr) for s in seeds]
        candidates = [CandidateStream(f"S{j}", streams[j]) for j in range(3)]
        true_idx = int(rng.integers(0, 3))
        true_delay_ms = float(rng.uniform(0.0, 400.0))
        true_shift = round(true_delay_ms * sr / 1000.0)
        mic = add_noise_snr(
            delay_signal(streams[true_idx], true_delay_ms), 0.0, seed=int(rng.integers(0, 2**63))
        )
        result = select_stream(mic, candidates, max_lag_ms=400.0, threshold=0.3)
        if result.matched and result.stream_id == f"S{true_idx}":
            correct += 1
            est_shift = round(result.lag_ms * sr / 1000.0)
            if abs(est_shift - true_shift) <= 1:
                lag_hits += 1
    elapsed = time.perf_counter() - t0
    select_rate = correct / trials
    lag_rate = lag_hits / correct if correct else 0.0
    ok = select_rate >= 0.99 and lag_rate >= 0.95 and elapsed < 60.0
    report(
        "C06 autoconnect-accuracy",
        ok,
        f"selected={select_rate:.1%}, lag within +-1 sample={lag_rate:.1%}, runtime={elapsed:.1f} s",
    )


def test_c07_oracle_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        sr = 8000
        n = int(rng.integers(16, 513))
        mic = Signal(rng.uniform(-1.0, 1.0, n), sr)
        stream = Signal(rng.uniform(-1.0, 1.0, n), sr)
        max_lag = int(rng.integers(1, n - 2))
        ref_lag, ref_peak = brute_force_search(mic, stream, max_lag)
        lag_ms, peak = estimate_alignment_delay(mic, stream, max_lag * 1000.0 / sr)
        assert round(lag_ms * sr / 1000.0) == ref_lag
        worst = max(worst, abs(peak - ref_peak))
        assert abs(peak - ref_peak) <= 1e-12
    report("C07 oracle-equivalence", worst <= 1e-12, f"worst peak diff={worst:.2e}")


def test_c08_spec_mode_boundaries():
    eps = 1e-9
    shared = BroadcastSource(
        streams=(AudioStreamDescriptor("s1", 48000),),
        trains=tuple(
            AdvertisingTrain(f"t{i}", "s1", presentation_delay_ms=10.0 * i) for i in range(3)
        ),
    )
    checks = []
    # (a) multi-train-per-stream
    checks.append(len(validate_config(shared, SpecMode.STRICT)) == 1)
    checks.append(validate_config(shared, SpecMode.AMENDED) == [])
    # (b) presentation delay cap at 40 in strict
    strict_sink = BroadcastSink(max_presentation_delay_ms=40.0)
    checks.append(sink_apply_delays(strict_sink, 40.0, SpecMode.STRICT) == 40.0)
    with pytest.raises(BufferExceededError):
        sink_apply_delays(strict_sink, 40.0 + eps, SpecMode.STRICT)
    with pytest.raises(BufferExceededError):
        sink_apply_delays(BroadcastSink(1000.0), 40.0 + eps, SpecMode.STRICT)
    # (c) local alignment delay unsupported in strict
    with pytest.raises(ParameterUnsupportedError):
        sink_apply_delays(BroadcastSink(40.0, local_alignment_delay_ms=eps), 0.0, SpecMode.STRICT)
    # amended accepts all three up to the 500 ms buffer
    amended_sink = BroadcastSink(max_presentation_delay_ms=500.0)
    checks.append(sink_apply_delays(amended_sink, 500.0, SpecMode.AMENDED) == 500.0)
    with pytest.raises(BufferExceededError):
        sink_apply_delays(amended_sink, 500.0 + eps, SpecMode.AMENDED)
    checks.append(
        sink_apply_delays(BroadcastSink(500.0, local_alignment_delay_ms=100.0), 400.0, SpecMode.AMENDED)
        == 500.0
    )
    report("C08 spec-mode-boundaries", all(checks))


def test_c09_ultrasound_zero_residual():
    rng = np.random.default_rng(9)
    exact = True
    for d in rng.uniform(0.0, 500.0, size=100):
        acoustic = propagation_delay_ms(float(d), 343.0)
        transport = transport_propagation_delay_ms(TransportKind.ULTRASOUND, float(d), 343.0)
        exact = exact and end_to_end_residual_ms(acoustic, transport, 0.0, 0.0) == 0.0
    report("C09 ultrasound-zero-residual", exact)


def test_c10_cli_determinism(tmp_path, monkeypatch):
    # the quick-start plan, map and autoconnect, run twice, each time from a new directory
    outputs = []
    for run in ("one", "two"):
        (tmp_path / run).mkdir()
        monkeypatch.chdir(tmp_path / run)
        for sub in ("plan", "map", "autoconnect"):
            assert main(QUICK_START[sub][0]) == 0
        outputs.append([Path(QUICK_START[sub][1]).read_bytes() for sub in ("plan", "map", "autoconnect")])
    ok = outputs[0] == outputs[1]
    # sanity: the selection actually matched stream A
    assert json.loads(outputs[0][2].decode())["stream_id"] == "A"
    report("C10 cli-determinism", ok)
