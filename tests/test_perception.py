import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from alsalign import perception
from alsalign.perception import (
    DistortionClass,
    classify_residual,
    comb_filter_magnitude,
    ear_signal,
    notch_frequencies,
)
from alsalign.signals import Signal, delay_signal, gen_sine, gen_white_noise, mix


class TestClassifyResidual:
    @pytest.mark.parametrize(
        "residual,expected",
        [
            (0.0, DistortionClass.ALIGNED),
            (0.1, DistortionClass.ALIGNED),
            (0.11, DistortionClass.COLORATION),
            (3.0, DistortionClass.COLORATION),
            (5.0, DistortionClass.COLORATION),
            (5.001, DistortionClass.REVERBERATION),
            (20.0, DistortionClass.REVERBERATION),
            (30.0, DistortionClass.REVERBERATION),
            (30.001, DistortionClass.ECHO),
            (-50.0, DistortionClass.ECHO),
            (177.7, DistortionClass.ECHO),
        ],
    )
    def test_bands(self, residual, expected):
        assert classify_residual(residual) is expected

    @given(r=st.floats(min_value=-1000, max_value=1000))
    def test_sign_symmetric(self, r):
        assert classify_residual(r) is classify_residual(-r)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            classify_residual(float("nan"))
        with pytest.raises(ValueError):
            classify_residual(float("inf"))


class TestCombFilterMagnitude:
    def test_dc_constructive(self):
        for delay in (0.5, 1.0, 7.3):
            assert comb_filter_magnitude(delay, 1.0, 0.0) == pytest.approx(2.0)

    def test_first_notch(self):
        assert comb_filter_magnitude(1.0, 1.0, 500.0) == pytest.approx(0.0, abs=1e-9)

    def test_first_peak(self):
        assert comb_filter_magnitude(1.0, 1.0, 1000.0) == pytest.approx(2.0, abs=1e-9)

    def test_between_peak_and_notch(self):
        # a sixth of the 1 kHz period: cos = 1/2, so |H| = sqrt(1 + g^2 + g)
        assert comb_filter_magnitude(1.0, 0.5, 1000.0 / 6) == pytest.approx(math.sqrt(1.75), abs=1e-12)

    def test_zero_delay_adds_in_phase(self):
        assert comb_filter_magnitude(0.0, 0.5, 1234.0) == 1.5

    def test_zero_gain_is_flat(self):
        for f in (0.0, 123.4, 9999.0):
            assert comb_filter_magnitude(2.5, 0.0, f) == 1.0

    def test_notch_depth_tracks_gain(self):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            delay = float(rng.uniform(0.05, 20.0))
            gain = float(rng.uniform(0.0, 2.0))
            for f in notch_frequencies(delay, 8000.0):
                assert comb_filter_magnitude(delay, gain, f) == pytest.approx(abs(1.0 - gain), abs=1e-9)

    def test_peak_height_tracks_gain(self):
        rng = np.random.default_rng(77)
        for _ in range(50):
            delay = float(rng.uniform(0.1, 10.0))
            gain = float(rng.uniform(0.0, 2.0))
            k = int(rng.integers(1, 10))
            peak_freq = k * 1000.0 / delay
            assert comb_filter_magnitude(delay, gain, peak_freq) == pytest.approx(1.0 + gain, abs=1e-9)


class TestNotchFrequencies:
    def test_1ms_below_4k(self):
        assert notch_frequencies(1.0, 4000.0) == [500.0, 1500.0, 2500.0, 3500.0]

    def test_zero_delay(self):
        assert notch_frequencies(0.0, 8000.0) == []

    def test_notch_at_max_freq_included(self):
        assert notch_frequencies(1.0, 3500.0) == [500.0, 1500.0, 2500.0, 3500.0]

    def test_10ms_below_200(self):
        assert notch_frequencies(10.0, 200.0) == [50.0, 150.0]

    def test_nan_max_freq_named(self):
        with pytest.raises(ValueError, match=r"^max_freq_hz must not be NaN, got nan$"):
            notch_frequencies(1.0, float("nan"))

    def test_ascending(self):
        notches = notch_frequencies(3.7, 20000.0)
        assert notches == sorted(notches)
        assert all(f <= 20000.0 for f in notches)


# a silent branch, so that the other branch shows alone in the unit-gain sum
SILENCE = Signal(np.zeros(320), 16000)


class TestEarSignal:
    def test_broadcast_only(self):
        b = gen_white_noise(1, 20, 16000)
        out = ear_signal(b, SILENCE, 0.0)
        assert np.array_equal(out.samples, b.samples)

    def test_acoustic_only_is_delayed_acoustic(self):
        a = gen_white_noise(2, 20, 16000)
        out = ear_signal(SILENCE, a, 2.0)
        assert np.array_equal(out.samples, delay_signal(a, 2.0).samples)

    def test_sub_millisecond_residual_delays_acoustic(self):
        a = gen_white_noise(2, 20, 16000)
        out = ear_signal(SILENCE, a, 0.5)
        assert np.array_equal(out.samples, delay_signal(a, 0.5).samples)

    def test_negative_residual_delays_broadcast(self):
        b = gen_white_noise(1, 20, 16000)
        out = ear_signal(b, SILENCE, -3.0)
        assert np.array_equal(out.samples, delay_signal(b, 3.0).samples)

    def test_notch_cancellation_at_500hz(self):
        sr = 16000
        tone = gen_sine(500.0, 100, sr)
        out = ear_signal(tone, tone, 1.0)
        steady = out.samples[16:]  # past the 1 ms transient
        assert float(np.sqrt(np.mean(steady**2))) <= 1e-6 * tone.rms()

    def test_mismatched_rates_rejected(self):
        with pytest.raises(ValueError):
            ear_signal(gen_sine(100, 10, 8000), gen_sine(100, 10, 16000), 0.0)

    def test_gains_default_to_one(self):
        b = gen_white_noise(1, 20, 16000)
        a = gen_white_noise(2, 20, 16000)
        out = ear_signal(b, a, 0.0)
        assert np.array_equal(out.samples, b.samples + a.samples)

    def test_branch_weighted_through_mix(self):
        b = gen_white_noise(1, 20, 16000)
        a = gen_white_noise(2, 20, 16000)
        out = ear_signal(mix([(b, 0.5)]), a, 2.0)
        expected = mix([(b, 0.5), (delay_signal(a, 2.0), 1.0)])
        assert np.array_equal(out.samples, expected.samples)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: comb_filter_magnitude(NAN, 1.0, 100.0), "delay_ms must be >= 0, got nan"),
        # past the check, math.cos(inf) would raise a ValueError of its own
        (lambda: comb_filter_magnitude(INF, 1.0, 100.0), "delay_ms must be >= 0, got inf"),
        (lambda: comb_filter_magnitude(1.0, INF, 100.0), "gain must be >= 0, got inf"),
        (lambda: comb_filter_magnitude(1.0, 0.5, NAN), "freq_hz must be finite, got nan"),
        (lambda: comb_filter_magnitude(1.0, 0.5, -INF), "freq_hz must be finite, got -inf"),
        (lambda: notch_frequencies(NAN, 8000.0), "delay_ms must be >= 0, got nan"),
        # past the check, the notch cap would reject it with its own message
        (lambda: notch_frequencies(INF, 8000.0), "delay_ms must be >= 0, got inf"),
        (lambda: notch_frequencies(1.0, NAN), "max_freq_hz must not be NaN, got nan"),
        (lambda: notch_frequencies(1e9, 8000.0), "a 1000000000.0 ms delay has more than 1000000 notches up to 8000.0 Hz"),
    ],
    ids=[
        "comb-delay-nan",
        "comb-delay-inf",
        "comb-gain-inf",
        "comb-freq-nan",
        "comb-freq-minus-inf",
        "notch-delay-nan",
        "notch-delay-inf",
        "notch-max-freq-nan",
        "notch-count-cap",
    ],
)
def test_nonfinite_numbers_rejected(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == message


def test_exactly_the_notch_cap_accepted(monkeypatch):
    # 1 ms has a notch every 1000 Hz from 500 Hz: 10 up to 10,000 Hz
    monkeypatch.setattr(perception, "_MAX_NOTCHES", 10)
    assert len(notch_frequencies(1.0, 10_000.0)) == 10
    with pytest.raises(ValueError) as err:
        notch_frequencies(1.0, 10_001.0)
    assert str(err.value) == "a 1.0 ms delay has more than 10 notches up to 10001.0 Hz"
