import math
import random
import re
import sys
import tracemalloc
import warnings
import wave

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
        sig = gen_sine(1000.0, 10, 16000)
        assert sig.samples[4] == pytest.approx(1.0, abs=1e-12)

    def test_length(self):
        assert len(gen_sine(440.0, 100, 16000)) == 1600

    def test_nyquist_rejected(self):
        with pytest.raises(ValueError, match=r"^freq_hz must satisfy 0 <= f < Nyquist \(8000.0 Hz\), got 8000.0$"):
            gen_sine(8000.0, 10, 16000)

    def test_overflowing_phase_is_a_value_error_without_warning(self):
        # 2 pi f overflows to inf; the first sample's phase would be 0 * inf
        with pytest.raises(ValueError, match=r"^phase of a 4e\+307 Hz tone over 1 samples at 1\d{308} Hz overflows$"):
            gen_sine(4e307, 1e-305, 10**308)


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

    def test_nonfinite_gain_named(self):
        sig = gen_white_noise(5, 20, 8000)
        with pytest.raises(ValueError, match=r"^gain of part 1 must be finite, got nan$"):
            mix([(sig, 1.0), (sig, float("nan"))])

    def test_overflowing_sum_is_a_value_error_without_warning(self):
        tone = gen_sine(1000.0, 10, 16000)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match=r"^samples must be finite, got inf at index 3$"):
                mix([(tone, 1e308), (tone, 1e308)])


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

    @pytest.mark.parametrize("maker", ["gen_sine", "read_wav"])
    def test_makers_hand_over_their_array(self, tmp_path, maker):
        # the traced peak is the signal's own 8 * n bytes, plus the file's
        # 2 * n PCM bytes for read_wav: no working copy and no copy into the
        # Signal, with n / 2 bytes to spare
        n = 160_000
        path = tmp_path / "tone.wav"
        write_wav(gen_sine(440.0, 10_000, 16000), path)
        make, held = {
            "gen_sine": (lambda: gen_sine(440.0, 10_000, 16000), 8 * n),
            "read_wav": (lambda: read_wav(path), 10 * n),
        }[maker]
        tracemalloc.start()
        try:
            assert len(make()) == n
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert held <= peak <= held + n // 2

    def test_compares_and_hashes_by_identity(self):
        a, b = Signal(np.zeros(3), 16000), Signal(np.zeros(3), 16000)
        assert a == a
        assert a != b
        assert len({a, b, a}) == 2

    def test_power_of_empty_and_one_sample_signals(self):
        assert Signal(np.zeros(0), 8000).power() == 0.0
        assert Signal(np.array([0.5]), 8000).power() == 0.25

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

    def test_pcm_scale_and_clipping(self, tmp_path):
        path = tmp_path / "scale.wav"
        write_wav(Signal(np.array([-1.5, -0.75, 0.0, 0.75, 1.5]), 8000), path)
        with wave.open(str(path), "rb") as w:
            assert w.readframes(5) == np.array([-32768, -24576, 0, 24576, 32767], dtype="<i2").tobytes()

    def test_frame_rate_must_be_positive(self, tmp_path):
        path = tmp_path / "rate.wav"
        write_wav(gen_white_noise(7, 10, 16000), path)
        header = bytearray(path.read_bytes())
        header[24:28] = (1).to_bytes(4, "little")  # the sample rate field of the fmt chunk
        path.write_bytes(bytes(header))
        assert read_wav(path).sample_rate_hz == 1
        header[24:28] = bytes(4)
        path.write_bytes(bytes(header))
        with pytest.raises(ValueError, match="^sample_rate_hz must be > 0, got 0$"):
            read_wav(path)

    def test_rate_beyond_the_header_rejected_before_the_file_is_made(self, tmp_path):
        # the header's 32-bit byte rate holds 2 bytes per sample up to 2**31 - 1 Hz
        path = tmp_path / "fast.wav"
        write_wav(Signal(np.zeros(4), 2**31 - 1), path)
        assert read_wav(path).sample_rate_hz == 2**31 - 1
        path.unlink()
        with pytest.raises(ValueError, match="^a 16-bit WAV header holds at most 2147483647 Hz, got 2147483648 Hz$"):
            write_wav(Signal(np.zeros(4), 2**31), path)
        assert not path.exists()

    @pytest.mark.parametrize("cut, held", [(40, 60), (41, 59)], ids=["even-cut", "odd-cut"])
    def test_short_data_chunk_rejected(self, tmp_path, cut, held):
        # the header promises 80 frames; what is left of them is not a signal
        path = tmp_path / "cut.wav"
        write_wav(gen_white_noise(7, 10, 8000), path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match=f"^bad WAV data: the data chunk holds {held} of 80 frames$"):
            read_wav(path)

    def test_cut_and_flipped_files_read_whole_or_refused(self, tmp_path):
        # every outcome is a ValueError or exactly the frames that the header promises
        path = tmp_path / "x.wav"
        write_wav(gen_white_noise(7, 10, 8000), path)
        whole = path.read_bytes()
        rng = random.Random(19)
        for _ in range(2000):
            data = bytearray(whole[: rng.randrange(len(whole) + 1)] if rng.random() < 0.5 else whole)
            for _ in range(rng.randrange(4) if data else 0):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
            path.write_bytes(data)
            try:
                sig = read_wav(path)
            except ValueError:
                continue
            with wave.open(str(path), "rb") as w:
                assert len(sig) == w.getnframes(), bytes(data)

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
        lambda: gen_sine(440.0, INF, 16000),
        lambda: delay_signal(gen_white_noise(1, 10, 16000), INF),
        lambda: add_noise_snr(gen_white_noise(1, 10, 16000), NAN, 0),
        lambda: add_noise_snr(gen_white_noise(1, 10, 16000), INF, 0),
        lambda: add_noise_snr(gen_white_noise(1, 10, 16000), -1e308, 0),
    ],
    ids=["rate-nan", "sine-duration-inf", "delay-inf", "snr-nan", "snr-inf", "snr-huge-negative"],
)
def test_nonfinite_numbers_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Signal(np.zeros(4), INF), "sample_rate_hz must be > 0, got inf"),
        (lambda: gen_white_noise(1, 0.0, INF), "sample_rate_hz must be > 0, got inf"),
        # an int past the float range is refused here, not left to overflow a duration product
        (lambda: Signal(np.zeros(4), 10**309), f"sample_rate_hz must be > 0, got {10**309}"),
        (lambda: gen_white_noise(1, 1.0, 10**309), f"sample_rate_hz must be > 0, got {10**309}"),
        # a WAV header holds whole hertz, so a fractional rate is refused rather than rounded
        (lambda: Signal(np.zeros(4), 8000.5), "sample_rate_hz must be a whole number of hertz, got 8000.5"),
        (lambda: gen_white_noise(1, 1000.0, 8000.5), "sample_rate_hz must be a whole number of hertz, got 8000.5"),
        (lambda: gen_sine(440.0, 1000.0, 8000.5), "sample_rate_hz must be a whole number of hertz, got 8000.5"),
        (lambda: gen_white_noise(1, INF, 16000), "duration_ms must be >= 0, got inf"),
        (
            lambda: add_noise_snr(gen_white_noise(1, 10, 16000), math.nextafter(300.0, INF), 0),
            "snr_db must be within +-300 dB, got 300.00000000000006",
        ),
        (
            lambda: add_noise_snr(gen_white_noise(1, 10, 16000), math.nextafter(-300.0, -INF), 0),
            "snr_db must be within +-300 dB, got -300.00000000000006",
        ),
        (
            lambda: gen_sine(2e307, 3e-305, 10**308),
            f"phase of a 2e+307 Hz tone over 3 samples at {10**308} Hz overflows",
        ),
    ],
    ids=[
        "signal-rate-inf",
        "noise-rate-inf",
        "signal-rate-past-float-range",
        "noise-rate-past-float-range",
        "signal-rate-fractional",
        "noise-rate-fractional",
        "sine-rate-fractional",
        "duration-inf",
        "snr-just-above-300",
        "snr-just-below-minus-300",
        "sine-last-phase-overflows",
    ],
)
def test_just_out_of_range_rejected(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call, length",
    [
        (lambda: Signal(np.zeros(4), 1), 4),
        (lambda: gen_white_noise(1, 1000.0, 1), 1),
        (lambda: Signal(np.zeros(4), sys.float_info.max), 4),
        (lambda: gen_white_noise(1, 0.0, sys.float_info.max), 0),
        (lambda: Signal(np.zeros(4), 16000.0), 4),
        (lambda: gen_white_noise(1, 1000.0, 11025), 11025),
        (lambda: gen_sine(440.0, 1000.0, 11025), 11025),
        (lambda: add_noise_snr(gen_white_noise(1, 10, 16000), 300.0, 0), 160),
        (lambda: add_noise_snr(gen_white_noise(1, 10, 16000), -300.0, 0), 160),
        # at 1e200 Hz the phase is finite, though 2 pi f (n - 1) times the rate is not
        (lambda: gen_sine(1e199, 1e-194, 10**200), 1000),
        # the last phase, 2 pi f / rate, is finite, though 2 pi f times 2 or 3 pi f is not
        (lambda: gen_sine(2e307, 2e-305, 10**308), 2),
    ],
    ids=[
        "signal-rate-1",
        "noise-rate-1",
        "signal-rate-float-max",
        "noise-rate-float-max",
        "signal-rate-whole-float",
        "noise-rate-odd",
        "sine-rate-odd",
        "snr-300",
        "snr-minus-300",
        "sine-rate-1e200",
        "sine-two-samples-at-2e307-hz",
    ],
)
def test_range_edges_accepted(call, length):
    assert len(call()) == length


def test_exactly_the_sample_cap_accepted(monkeypatch):
    monkeypatch.setattr(signals, "_MAX_SAMPLES", 160)
    assert len(gen_white_noise(1, 10.0, 16000)) == 160
    with pytest.raises(ValueError, match="^10.0625 ms at 16000 Hz is more than 160 samples$"):
        gen_white_noise(1, 10.0625, 16000)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Signal(np.array([0.0, NAN, 1.0]), 16000),
        lambda: Signal(np.array([INF, 0.0]), 16000),
        lambda: Signal([0.0, -INF], 16000),
        lambda: mix([(gen_white_noise(1, 10, 16000), INF)]),
    ],
    ids=["nan", "inf", "minus-inf-list", "mix-gain-inf"],
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
