import numpy as np
import pytest
from hypothesis import given, strategies as st

from alsalign import signals
from alsalign.signals import (
    Signal,
    add_noise_snr,
    delay_signal,
    gen_sine,
    gen_white_noise,
    mix,
    read_wav,
    write_wav,
)


class TestGenWhiteNoise:
    def test_length_arithmetic(self):
        sig = gen_white_noise(1, 1.0, 1000)
        assert len(sig) == 1
        assert -1.0 <= sig.samples[0] < 1.0

    def test_determinism(self):
        a = gen_white_noise(42, 100, 16000)
        b = gen_white_noise(42, 100, 16000)
        assert np.array_equal(a.samples, b.samples)

    def test_mean_near_zero(self):
        # uniform on [-1, 1): mean 0, std of the sample mean ~ 0.0018 at n=1e5
        sig = gen_white_noise(7, 100_000 / 16.0, 16000)
        assert len(sig) == 100_000
        assert abs(float(np.mean(sig.samples))) <= 0.02

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            gen_white_noise(1, -1.0, 16000)
        with pytest.raises(ValueError):
            gen_white_noise(1, 10.0, 0)


class TestGenSine:
    def test_zero_freq_is_silence(self):
        sig = gen_sine(0.0, 10, 8000)
        assert np.all(sig.samples == 0.0)

    def test_quarter_period_sample(self):
        sig = gen_sine(1000.0, 10, 16000, amplitude=1.0)
        assert sig.samples[4] == pytest.approx(1.0, abs=1e-12)

    def test_length(self):
        assert len(gen_sine(440.0, 100, 16000)) == 1600

    def test_nyquist_rejected(self):
        with pytest.raises(ValueError):
            gen_sine(8000.0, 10, 16000)


class TestDelaySignal:
    def test_zero_delay_identity(self):
        sig = gen_white_noise(3, 50, 16000)
        assert np.array_equal(delay_signal(sig, 0.0).samples, sig.samples)

    def test_shift_10ms_at_16k(self):
        sig = gen_white_noise(3, 50, 16000)
        out = delay_signal(sig, 10.0)
        assert len(out) == len(sig)
        assert np.all(out.samples[:160] == 0.0)
        assert np.array_equal(out.samples[160:], sig.samples[:-160])

    def test_one_sample_delay(self):
        sig = gen_white_noise(3, 10, 16000)
        out = delay_signal(sig, 1000.0 / 16000)
        assert out.samples[0] == 0.0
        assert np.array_equal(out.samples[1:], sig.samples[:-1])

    def test_subsample_delay_rounds_to_even(self):
        sig = gen_white_noise(3, 10, 16000)
        out = delay_signal(sig, 0.03)  # 0.48 samples -> 0
        assert np.array_equal(out.samples, sig.samples)

    def test_delay_past_end_gives_silence(self):
        sig = gen_white_noise(3, 10, 16000)
        for delay_ms in (1000.0, 1e308):
            out = delay_signal(sig, delay_ms)
            assert len(out) == len(sig)
            assert np.all(out.samples == 0.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            delay_signal(gen_white_noise(1, 10, 16000), -1.0)

    @given(
        a=st.floats(min_value=0, max_value=50),
        b=st.floats(min_value=0, max_value=50),
    )
    def test_composition_matches_total_when_shifts_agree(self, a, b):
        sr = 16000
        sig = gen_white_noise(11, 20, sr)
        shift_two_step = round(a * sr / 1000.0) + round(b * sr / 1000.0)
        shift_total = round((a + b) * sr / 1000.0)
        if shift_two_step == shift_total:
            two_step = delay_signal(delay_signal(sig, a), b)
            total = delay_signal(sig, a + b)
            assert np.array_equal(two_step.samples, total.samples)


class TestMix:
    def test_single_part_identity(self):
        sig = gen_white_noise(5, 20, 8000)
        assert np.array_equal(mix([(sig, 1.0)]).samples, sig.samples)

    def test_doubling(self):
        sig = gen_white_noise(5, 20, 8000)
        out = mix([(sig, 1.0), (sig, 1.0)])
        assert np.array_equal(out.samples, 2.0 * sig.samples)

    def test_linearity(self):
        x = gen_white_noise(5, 20, 8000)
        y = gen_white_noise(6, 20, 8000)
        out = mix([(x, 0.25), (y, -1.5)])
        assert np.array_equal(out.samples, 0.25 * x.samples + (-1.5) * y.samples)

    def test_comb_notch_cancellation(self):
        # 500 Hz summed with itself 1 ms later: cos(2*pi*500*0.001) = -1
        sr = 16000
        tone = gen_sine(500.0, 100, sr)
        out = mix([(tone, 1.0), (delay_signal(tone, 1.0), 1.0)])
        steady = out.samples[int(sr * 0.001) :]
        input_rms = tone.rms()
        assert float(np.sqrt(np.mean(steady**2))) <= 1e-6 * input_rms

    def test_zero_extension(self):
        x = Signal(np.ones(4), 8000)
        y = Signal(np.ones(2), 8000)
        out = mix([(x, 1.0), (y, 1.0)])
        assert out.samples.tolist() == [2.0, 2.0, 1.0, 1.0]

    def test_mismatched_rates_rejected(self):
        with pytest.raises(ValueError):
            mix([(gen_sine(100, 10, 8000), 1.0), (gen_sine(100, 10, 16000), 1.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mix([])


class TestAddNoiseSnr:
    def test_zero_db_power_ratio(self):
        sig = gen_sine(440.0, 100_000 / 16.0, 16000)
        noisy = add_noise_snr(sig, 0.0, seed=9)
        noise = noisy.samples - sig.samples
        ratio = sig.power() / float(np.mean(noise**2))
        assert ratio == pytest.approx(1.0, rel=0.05)

    def test_20_db_power_ratio(self):
        sig = gen_sine(440.0, 100_000 / 16.0, 16000)
        noisy = add_noise_snr(sig, 20.0, seed=9)
        noise = noisy.samples - sig.samples
        ratio = sig.power() / float(np.mean(noise**2))
        assert ratio == pytest.approx(100.0, rel=0.05)

    def test_determinism(self):
        sig = gen_white_noise(1, 100, 16000)
        a = add_noise_snr(sig, 0.0, seed=4)
        b = add_noise_snr(sig, 0.0, seed=4)
        assert np.array_equal(a.samples, b.samples)

    def test_zero_power_rejected(self):
        silent = Signal(np.zeros(100), 16000)
        with pytest.raises(ValueError):
            add_noise_snr(silent, 0.0, seed=1)

    def test_nonfinite_sum_rejected(self):
        # the power of these samples overflows to inf, and so does the noise scale
        loud = Signal(np.full(4, 1e200), 16000)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="^samples must be finite, got inf at index 0$"):
            add_noise_snr(loud, 0.0, seed=1)


class TestSignalType:
    def test_immutable_samples(self):
        sig = gen_white_noise(1, 10, 16000)
        with pytest.raises(ValueError):
            sig.samples[0] = 2.0

    @pytest.mark.parametrize(
        "make",
        [
            lambda: delay_signal(gen_white_noise(1, 10, 16000), 1.0),
            lambda: add_noise_snr(gen_white_noise(1, 10, 16000), 0.0, seed=2),
        ],
        ids=["delay", "add-noise"],
    )
    def test_derived_samples_are_read_only(self, make):
        samples = make().samples
        assert not samples.flags.writeable
        with pytest.raises(ValueError):
            samples[0] = 2.0

    def test_constructor_copies_its_input(self):
        arr = np.array([0.25, -0.5, 0.75])
        sig = Signal(arr, 8000)
        arr[0] = 1.0
        assert np.array_equal(sig.samples, [0.25, -0.5, 0.75])

    def test_white_noise_keeps_its_block(self, large_allocation_steps):
        # the generator's two uint64 work arrays are its only arrays of
        # 8 * n bytes: the floats reuse one of them, and the signal holds
        # them without a copy
        n = 16000
        gen_white_noise(1, 1000, n)
        assert large_allocation_steps(lambda: gen_white_noise(1, 1000, n), min_bytes=8 * n) <= 2

    def test_duration(self):
        assert gen_white_noise(1, 250, 8000).duration_ms == 250.0

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            Signal(np.zeros(4), 0)


class TestWav:
    def test_round_trip(self, tmp_path):
        sig = gen_white_noise(77, 50, 16000)
        path = tmp_path / "x.wav"
        write_wav(sig, path)
        back = read_wav(path)
        assert back.sample_rate_hz == 16000
        assert len(back) == len(sig)
        assert np.max(np.abs(back.samples - sig.samples)) <= 1.0 / 32768.0

    def test_full_scale_clipping(self, tmp_path):
        sig = Signal(np.array([-1.0, 0.999999, 1.0]), 8000)
        path = tmp_path / "clip.wav"
        write_wav(sig, path)
        back = read_wav(path)
        assert back.samples[0] == -1.0
        assert back.samples[2] == 32767.0 / 32768.0

    def test_frame_count_over_cap_rejected_before_reading(self, tmp_path, monkeypatch):
        path = tmp_path / "long.wav"
        write_wav(gen_white_noise(7, 10, 16000), path)
        monkeypatch.setattr(signals, "_MAX_SAMPLES", 160)
        assert len(read_wav(path)) == 160
        monkeypatch.setattr(signals, "_MAX_SAMPLES", 159)
        with pytest.raises(ValueError, match="^160 frames at 16000 Hz is more than 159 samples$"):
            read_wav(path)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: Signal(np.zeros(4), NAN),
        lambda: gen_white_noise(1, INF, 16000),
        lambda: gen_sine(440.0, INF, 16000),
        lambda: delay_signal(gen_white_noise(1, 10, 16000), INF),
        lambda: add_noise_snr(gen_white_noise(1, 10, 16000), NAN, 0),
        lambda: add_noise_snr(gen_white_noise(1, 10, 16000), INF, 0),
        lambda: add_noise_snr(gen_white_noise(1, 10, 16000), -1e308, 0),
    ],
    ids=["rate-nan", "noise-duration-inf", "sine-duration-inf", "delay-inf", "snr-nan", "snr-inf", "snr-huge-negative"],
)
def test_nonfinite_numbers_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: Signal(np.array([0.0, NAN, 1.0]), 16000),
        lambda: Signal(np.array([INF, 0.0]), 16000),
        lambda: Signal([0.0, -INF], 16000),
        lambda: gen_sine(440.0, 10.0, 16000, amplitude=NAN),
        lambda: gen_sine(440.0, 10.0, 16000, amplitude=INF),
        lambda: mix([(gen_white_noise(1, 10, 16000), INF)]),
    ],
    ids=["nan", "inf", "minus-inf-list", "sine-amplitude-nan", "sine-amplitude-inf", "mix-gain-inf"],
)
def test_nonfinite_samples_rejected(call):
    with pytest.raises(ValueError, match="must be finite"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: gen_white_noise(1, 1e12, 16000),
        lambda: gen_sine(440.0, 1e12, 16000),
        lambda: gen_white_noise(1, 1000.0, 10**12),
        lambda: gen_white_noise(1, 1000.0, 10_000_001),
    ],
    ids=["noise-duration", "sine-duration", "rate", "one-past-cap"],
)
def test_sample_count_capped_before_allocation(call):
    with pytest.raises(ValueError, match="samples"):
        call()
