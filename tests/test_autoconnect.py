import math

import numpy as np
import pytest

from alsalign import autoconnect
from alsalign.autoconnect import (
    CandidateStream,
    estimate_alignment_delay,
    autoconnect_pipeline,
    select_stream,
)
from alsalign.broadcast import BroadcastSink, ParameterUnsupportedError, SpecMode
from alsalign.signals import Signal, add_noise_snr, delay_signal, gen_sine, gen_white_noise


def brute_force_search(mic, stream, max_lag):
    """Independent exhaustive reference: plain Python sums over every lag."""
    n = min(len(mic), len(stream))
    best_lag, best_val = 0, -math.inf
    for lag in range(max_lag + 1):
        sw = [float(v) for v in stream.samples[: n - lag]]
        mw = [float(v) for v in mic.samples[lag:n]]
        num = math.fsum(a * b for a, b in zip(sw, mw))
        denom = math.sqrt(math.fsum(a * a for a in sw)) * math.sqrt(math.fsum(b * b for b in mw))
        val = 0.0 if denom == 0.0 else num / denom
        if val > best_val:
            best_lag, best_val = lag, val
    return best_lag, best_val


def pairwise_dot(s_window, m_window):
    """The exact score's numerator: numpy's pairwise sum of the products, no BLAS."""
    return np.add.reduce(s_window * m_window)


def loop_search(mic, stream, max_lag, dot=pairwise_dot):
    """The exhaustive search: one exact score per lag.

    Same arrays, expressions and tie-break as the library's exact
    re-score, so its (lag, peak) must match bit for bit. With dot=np.dot
    it is the search as it was before the FFT.
    """
    n = min(len(mic), len(stream))
    m = mic.samples[:n]
    s = stream.samples[:n]
    nlags = max_lag + 1
    s_head = np.concatenate(([0.0], np.cumsum(np.square(s))))
    m_tail = np.concatenate((np.cumsum(np.square(m)[::-1])[::-1], [0.0]))
    nums = np.empty(nlags)
    for lag in range(nlags):
        nums[lag] = dot(s[: n - lag], m[lag:])
    denoms = np.sqrt(s_head[n - np.arange(nlags)]) * np.sqrt(m_tail[:nlags])
    curve = np.zeros(nlags)
    nonzero = denoms > 0.0
    curve[nonzero] = nums[nonzero] / denoms[nonzero]
    best = int(np.argmax(curve))
    return best, float(curve[best])


def _random_pairs():
    rng = np.random.default_rng(11)
    pairs = []
    for _ in range(40):
        n = int(rng.integers(3, 700))
        mic = Signal(rng.normal(size=n), 8000)
        stream = Signal(rng.normal(size=int(rng.integers(n, n + 50))), 8000)
        pairs.append((mic, stream, int(rng.integers(0, n - 1))))
    return pairs


def _delayed_noisy_copies():
    pairs = []
    for seed in range(12):
        stream = gen_white_noise(seed, 250, 16000)
        mic = add_noise_snr(delay_signal(stream, 7.5 * seed), -10.0 + 2.0 * seed, seed=100 + seed)
        pairs.append((mic, stream, 1600))
    return pairs


def _pure_tones():
    pairs = []
    for freq in (50.0, 440.0, 1000.0, 3000.0):
        tone = gen_sine(freq, 250, 8000)
        pairs.append((delay_signal(tone, 12.0), tone, 1000))
        pairs.append((tone, tone, 1000))
    return pairs


def _tiny_tail_windows():
    # The mic's tail is scaled to 1e-150 and holds a copy of the stream at
    # lag 150. FFT rounding (about 1e-16 of the full norms) swamps every
    # score whose mic window lies in the tail; the true peak is there.
    rng = np.random.default_rng(13)
    pairs = []
    for k in range(6):
        n, lag = 512, 150
        s = rng.normal(size=n)
        m = rng.normal(size=n)
        m[100:lag] *= 1e-150
        m[lag:] = 1e-150 * s[: n - lag]
        if k % 2:
            m[lag:] += 1e-151 * rng.normal(size=n - lag)
        pairs.append((Signal(m, 8000), Signal(s, 8000), n - 2 - 40 * k))
    return pairs


def _tiny_windows_of_huge_signals():
    # Signals of norm about 1e131 whose windows at large lags are about
    # 1e-150 on both sides: the error bound divided by such a window's
    # norm overflows, and the peak (a copy at lag 280) lies there.
    rng = np.random.default_rng(19)
    pairs = []
    for k in range(3):
        n = 400
        s = rng.normal(size=n)
        m = rng.normal(size=n)
        s[:150] *= 1e-150
        s[150:] *= 1e130
        m[:250] *= 1e130
        m[250:] *= 1e-150
        m[280:] = s[:120]
        pairs.append((Signal(m, 8000), Signal(s, 8000), 300 + 20 * k))
    return pairs


def _extreme_scales():
    # norms outside the range where the FFT bound holds: every lag is exact
    rng = np.random.default_rng(17)
    pairs = []
    for mic_scale, stream_scale in ((1e-200, 1.0), (1e-140, 1e140), (1e140, 1e140), (1e-140, 1e-140)):
        stream = rng.normal(size=200)
        mic = np.concatenate((rng.normal(size=30), stream[:170])) + 0.1 * rng.normal(size=200)
        pairs.append((Signal(mic_scale * mic, 8000), Signal(stream_scale * stream, 8000), 150))
    # a tone at 1e-160, delayed 96 samples and undelayed: the spectrum
    # product underflows, and if the FFT estimates were trusted here the
    # peaks would land at lags 896 and 800
    tone = gen_sine(440.0, 250, 8000)
    for mic in (delay_signal(tone, 12.0), tone):
        pairs.append((Signal(1e-160 * mic.samples, 8000), Signal(1e-160 * tone.samples, 8000), 1000))
    return pairs


@pytest.mark.parametrize(
    "pairs",
    [_random_pairs, _delayed_noisy_copies, _pure_tones, _tiny_tail_windows, _tiny_windows_of_huge_signals, _extreme_scales],
    ids=["random", "delayed-noisy", "pure-tones", "tiny-tail-windows", "tiny-windows-huge-norms", "extreme-scales"],
)
def test_search_equals_loop_oracle(pairs):
    for mic, stream, max_lag in pairs():
        lag_ms, peak = estimate_alignment_delay(mic, stream, max_lag * 1000.0 / mic.sample_rate_hz)
        expected_lag, expected_peak = loop_search(mic, stream, max_lag)
        assert lag_ms == expected_lag * 1000.0 / mic.sample_rate_hz
        assert peak == expected_peak


@pytest.mark.parametrize("pairs", [_random_pairs, _delayed_noisy_copies], ids=["random", "delayed-noisy"])
def test_search_agrees_with_dot_loop(pairs):
    # np.dot scored each lag before the pairwise sum did. Both are within
    # n * eps of the true score, so the lags agree and the peaks differ by
    # at most 2 * n * eps, plus an eps for the division.
    eps = np.finfo(np.float64).eps
    for mic, stream, max_lag in pairs():
        n = min(len(mic), len(stream))
        lag_ms, peak = estimate_alignment_delay(mic, stream, max_lag * 1000.0 / mic.sample_rate_hz)
        dot_lag, dot_peak = loop_search(mic, stream, max_lag, dot=np.dot)
        assert lag_ms == dot_lag * 1000.0 / mic.sample_rate_hz
        assert abs(peak - dot_peak) <= 2 * n * eps + eps


def test_same_bits_on_any_blas_thread_count(fresh_python):
    # Windows of 12,800 to 16,000 samples: past OpenBLAS's 10,000-element
    # cut-off, where a BLAS dot product would be threaded and round
    # differently with the thread count.
    code = """
from alsalign.autoconnect import CandidateStream, estimate_alignment_delay, select_stream
from alsalign.signals import add_noise_snr, delay_signal, gen_white_noise
for seed in range(8):
    stream = gen_white_noise(seed, 1000, 16000)
    mic = add_noise_snr(delay_signal(stream, 25.0 * seed), 0.0, seed=100 + seed)
    lag_ms, peak = estimate_alignment_delay(mic, stream, 400.0)
    other = CandidateStream("B", gen_white_noise(50 + seed, 1000, 16000))
    result = select_stream(mic, [CandidateStream("A", stream), other], 400.0)
    print(lag_ms.hex(), peak.hex(), result.stream_id, result.lag_ms.hex(), result.peak_ncc.hex())
"""
    outputs = []
    for threads in ("1", "2"):
        done = fresh_python(code, env={"OPENBLAS_NUM_THREADS": threads}, check=True)
        outputs.append(done.stdout.splitlines())
    assert len(outputs[0]) == 8
    assert outputs[0] == outputs[1]


def test_eps_is_float64_machine_epsilon():
    # the FFT error radius scales with this constant, which is taken from
    # the standard library so that importing autoconnect does not load numpy
    assert autoconnect._EPS == float(np.finfo(np.float64).eps)


def test_tiny_tail_peak_found():
    mic, stream, max_lag = _tiny_tail_windows()[0]
    lag_ms, peak = estimate_alignment_delay(mic, stream, max_lag * 1000.0 / 8000)
    assert lag_ms == 150 * 1000.0 / 8000
    assert peak == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("value", [1.0, -0.5, 0.3])
@pytest.mark.parametrize("n", [64, 300])
def test_constant_signals_tie_at_every_lag(value, n):
    # Every lag scores 1 in exact arithmetic, so every lag is re-scored.
    # Rounding of the window norms lifts some lags an ulp or so above 1
    # (all ones at n = 300 peak at lag 5), and the search must agree.
    sig = Signal(np.full(n, value), 8000)
    lag_ms, peak = estimate_alignment_delay(sig, sig, (n - 2) * 1000.0 / 8000)
    expected_lag, expected_peak = loop_search(sig, sig, n - 2)
    assert (lag_ms, peak) == (expected_lag * 1000.0 / 8000, expected_peak)


def test_exact_ties_break_to_lag_zero():
    # windows of 64, 63 and 62 ones: each score rounds to exactly 1.0
    sig = Signal(np.ones(64), 8000)
    assert estimate_alignment_delay(sig, sig, 2 * 1000.0 / 8000) == (0.0, 1.0)
    assert loop_search(sig, sig, 2) == (0, 1.0)


def test_silent_mic_scores_zero():
    mic = Signal(np.zeros(300), 8000)
    stream = gen_white_noise(2, 300 * 1000.0 / 8000, 8000)
    assert estimate_alignment_delay(mic, stream, 250 * 1000.0 / 8000) == (0.0, 0.0)
    assert loop_search(mic, stream, 250) == (0, 0.0)


@pytest.mark.parametrize(
    "durations_ms, groups", [((1000, 1000, 1000), 1), ((1000, 900, 1000), 2)], ids=["one-overlap", "two-overlaps"]
)
def test_one_large_allocation_per_overlap_length(durations_ms, groups, large_allocation_steps):
    # the search keeps every float work array in one block per overlap
    # length; arrays of this size made one by one are mapped afresh, and
    # page-faulted, on every search
    streams = [gen_white_noise(seed, ms, 16000) for seed, ms in enumerate(durations_ms)]
    mic = add_noise_snr(delay_signal(streams[0], 120.0), 0.0, seed=9)
    candidates = [CandidateStream(f"S{j}", s) for j, s in enumerate(streams)]
    select_stream(mic, candidates, 400.0)  # loads numpy.fft and its plans
    assert large_allocation_steps(lambda: select_stream(mic, candidates, 400.0)) <= groups


def loop_select(mic, candidates, max_lag, threshold):
    """Selection as it was before the batched search: loop_search per
    candidate in id order, keeping the first strictly greater peak."""
    best_id, best_peak, best_lag = None, -math.inf, None
    for cand in sorted(candidates, key=lambda c: c.id):
        lag, peak = loop_search(mic, cand.signal, max_lag)
        if peak > best_peak:
            best_id, best_peak, best_lag = cand.id, peak, lag
    if best_peak < threshold:
        return None, best_peak, None
    return best_id, best_peak, best_lag * 1000.0 / mic.sample_rate_hz


def _planted_mic(rng, stream, lag, noise):
    n = len(stream)
    return np.concatenate((rng.normal(size=lag), stream[: n - lag])) + noise * rng.normal(size=n)


def _mixed_lengths():
    # overlap groups of 250, 300 and 400 samples: candidates shorter and
    # longer than the 400-sample mic, which holds a copy of "D" at lag 60
    rng = np.random.default_rng(23)
    streams = {cid: rng.normal(size=length) for cid, length in zip("ABCDE", (250, 300, 300, 520, 400))}
    return _planted_mic(rng, streams["D"][:400], 60, 0.5), streams, 200, "D"


def _silent_and_constant():
    rng = np.random.default_rng(29)
    streams = {"const": np.full(300, 0.7), "silent": np.zeros(300), "noise": rng.normal(size=300)}
    return _planted_mic(rng, streams["noise"], 25, 0.3), streams, 150, "noise"


def _one_row_out_of_fft_range():
    # "tiny" has a norm below 2**-450, so its row alone skips the FFT;
    # it is the planted stream and must still win
    rng = np.random.default_rng(31)
    planted = rng.normal(size=300)
    streams = {"other": rng.normal(size=300), "tiny": 1e-140 * planted, "zeta": rng.normal(size=300)}
    return _planted_mic(rng, planted, 40, 0.2), streams, 120, "tiny"


def _one_loud_row():
    # "loud" has a norm above 2**450, so its row takes no estimate from the
    # 2-D transform that the other rows, at FFT size 864, do use; it is the
    # planted stream and must still win
    rng = np.random.default_rng(43)
    planted = rng.normal(size=600)
    streams = {"loud": 2.0**460 * planted, "other": rng.normal(size=600), "zeta": rng.normal(size=600)}
    return _planted_mic(rng, planted, 70, 0.3), streams, 200, "loud"


def _identical_pair():
    # the same samples under "B" and "A": equal peaks break to the smaller id
    rng = np.random.default_rng(37)
    stream = rng.normal(size=320)
    streams = {"B": stream, "A": stream.copy(), "C": rng.normal(size=320)}
    return _planted_mic(rng, stream, 20, 0.5), streams, 100, "A"


def _all_below_threshold():
    # no candidate reaches the threshold; the best peak is still reported
    rng = np.random.default_rng(41)
    return rng.normal(size=400), {f"S{j}": rng.normal(size=400) for j in range(5)}, 150, None


@pytest.mark.parametrize(
    "case",
    [
        _mixed_lengths,
        _silent_and_constant,
        _one_row_out_of_fft_range,
        _one_loud_row,
        _identical_pair,
        _all_below_threshold,
    ],
    ids=[
        "mixed-lengths",
        "silent-and-constant",
        "one-row-out-of-fft-range",
        "one-loud-row",
        "identical-pair",
        "all-below-threshold",
    ],
)
def test_select_stream_equals_loop_oracle(case):
    mic_samples, streams, max_lag, winner = case()
    mic = Signal(mic_samples, 8000)
    candidates = [CandidateStream(cid, Signal(s, 8000)) for cid, s in streams.items()]
    result = select_stream(mic, candidates, max_lag * 1000.0 / 8000, 0.3)
    assert (result.stream_id, result.peak_ncc, result.lag_ms) == loop_select(mic, candidates, max_lag, 0.3)
    assert result.stream_id == winner
    if winner is None:
        assert 0.0 < result.peak_ncc < 0.3


def test_power_of_two_scaling_keeps_every_bit():
    # Scaling the mic by 2**k and every stream by 2**-k scales each sum,
    # product, FFT bin and norm of the search exactly, away from underflow
    # and overflow, so the lag and peak must not change in a single bit;
    # the check needs no oracle and covers the FFT path
    rng = np.random.default_rng(47)
    for seed in range(20):
        streams = [
            gen_white_noise(seed, 250, 8000),
            gen_sine(100.0 + 150.0 * seed, 250, 8000),
            gen_white_noise(100 + seed, 250, 8000),
        ]
        planted = streams[seed % 3]
        mic = add_noise_snr(delay_signal(planted, 2.5 * seed), 6.0 - 0.5 * seed, seed=200 + seed)
        k = int(rng.integers(-40, 40))

        def search(mic_scale, stream_scale):
            candidates = [
                CandidateStream(f"S{j}", Signal(s.samples * stream_scale, 8000)) for j, s in enumerate(streams)
            ]
            return select_stream(Signal(mic.samples * mic_scale, 8000), candidates, 75.0)

        plain = search(1.0, 1.0)
        assert search(2.0**k, 2.0**-k) == plain, (seed, k)
        assert plain.stream_id == f"S{seed % 3}", seed


def _near_tie_cases(n, max_lag):
    """40 seeded pairs of n samples at 8 kHz: delayed tones, constant signals and noisy delayed noise."""
    rng = np.random.default_rng(53)
    duration_ms = n * 1000.0 / 8000
    cases = []
    for k in range(40):
        delay_ms = int(rng.integers(0, max_lag)) * 1000.0 / 8000
        if k % 3 == 0:
            stream = gen_sine(50.0 + 97.0 * k, duration_ms, 8000)
            mic = delay_signal(stream, delay_ms)
        elif k % 3 == 1:
            stream = Signal(np.full(n, rng.uniform(-1.0, 1.0)), 8000)
            mic = Signal(np.full(n, rng.uniform(-1.0, 1.0)), 8000)
        else:
            stream = gen_white_noise(k, duration_ms, 8000)
            mic = add_noise_snr(delay_signal(stream, delay_ms), float(rng.uniform(-10.0, 10.0)), seed=300 + k)
        cases.append((mic, stream))
    return cases


def adversarial_mismatches(monkeypatch, n, max_lag, f):
    """The near-tie cases whose search differs from loop_search when every FFT estimate errs by f radii.

    The wrapped irfft lowers the exact winner's estimate by f * R and raises
    every other lag's by f * R, where R = 4 * size * eps * |s| * |m| is the
    search's radius before division by the window norms. It indexes the
    last axis, so it perturbs a 1-D row and every row of a 2-D transform.
    """
    irfft, case = np.fft.irfft, {}

    def perturbed_irfft(a, size, **kwargs):
        out = irfft(a, size, **kwargs)
        shift = f * 4 * size * autoconnect._EPS * case["norms"]
        winner = out[..., case["lag"]] - shift
        out[..., : max_lag + 1] += shift
        out[..., case["lag"]] = winner
        return out

    monkeypatch.setattr(np.fft, "irfft", perturbed_irfft)
    mismatches = []
    for i, (mic, stream) in enumerate(_near_tie_cases(n, max_lag)):
        lag, peak = loop_search(mic, stream, max_lag)
        case.update(lag=lag, norms=float(np.linalg.norm(mic.samples[:n]) * np.linalg.norm(stream.samples[:n])))
        if estimate_alignment_delay(mic, stream, max_lag * 1000.0 / 8000) != (lag * 1000.0 / 8000, peak):
            mismatches.append(i)
    monkeypatch.undo()
    return mismatches


@pytest.mark.parametrize(("n", "max_lag", "size"), [(100, 50, 162), (200, 100, 324), (300, 200, 512), (2000, 600, 2916)])
def test_search_exact_when_fft_errs_against_the_winner(monkeypatch, n, max_lag, size):
    # Within the radius (f < 1) no FFT error may change the result. Below
    # size 576 the radius does not cover the FFT's rounding, so no lag takes
    # its score from the FFT there and even 4 radii change nothing; above
    # it 4 radii do change some results, which shows that the wrapper bites.
    assert autoconnect._fft_size(n + max_lag) == size
    for f in (0.5, 0.99):
        assert adversarial_mismatches(monkeypatch, n, max_lag, f) == [], f
    assert (adversarial_mismatches(monkeypatch, n, max_lag, 4.0) == []) == (size < 576)


def score_at_lag(mic, stream, lag):
    """NCC of the pair at one lag: the search's peak over the lag-0 window."""
    n = min(len(mic), len(stream))
    lag_ms, peak = estimate_alignment_delay(
        Signal(mic.samples[lag:n], mic.sample_rate_hz), Signal(stream.samples[: n - lag], stream.sample_rate_hz), 0.0
    )
    assert lag_ms == 0.0
    return peak


class TestNormalizedCrossCorrelation:
    def test_self_similarity_is_one(self):
        sig = gen_white_noise(1, 100, 16000)
        assert score_at_lag(sig, sig, 0) == pytest.approx(1.0, abs=1e-12)

    def test_negation_is_minus_one(self):
        sig = gen_white_noise(1, 100, 16000)
        neg = Signal(-sig.samples, sig.sample_rate_hz)
        assert score_at_lag(neg, sig, 0) == pytest.approx(-1.0, abs=1e-12)

    def test_bounded_for_many_inputs(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(8, 200))
            a = Signal(rng.normal(size=n), 8000)
            b = Signal(rng.normal(size=n), 8000)
            lag = int(rng.integers(0, n - 2))
            assert abs(score_at_lag(a, b, lag)) <= 1.0 + 1e-9


class TestEstimateAlignmentDelay:
    def test_identity_gives_zero_lag(self):
        sig = gen_white_noise(3, 200, 16000)
        lag_ms, peak = estimate_alignment_delay(sig, sig, 50.0)
        assert lag_ms == 0.0
        assert peak == pytest.approx(1.0, abs=1e-12)

    def test_noiseless_delay_recovered_exactly(self):
        stream = gen_white_noise(4, 1000, 16000)
        mic = delay_signal(stream, 100.0)
        lag_ms, peak = estimate_alignment_delay(mic, stream, 150.0)
        assert lag_ms == 100.0
        assert peak == pytest.approx(1.0, abs=1e-9)

    def test_noisy_delay_within_one_sample(self):
        sr = 16000
        stream = gen_white_noise(5, 1000, sr)
        mic = add_noise_snr(delay_signal(stream, 100.0), 0.0, seed=50)
        lag_ms, peak = estimate_alignment_delay(mic, stream, 150.0)
        assert abs(round(lag_ms * sr / 1000.0) - 1600) <= 1
        assert peak > 0.5

    def test_matches_brute_force_on_short_signals(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(32, 257))
            sr = 8000
            mic = Signal(rng.uniform(-1, 1, n), sr)
            stream = Signal(rng.uniform(-1, 1, n), sr)
            for max_lag in (0, int(rng.integers(1, n - 2))):
                expected_lag, expected_peak = brute_force_search(mic, stream, max_lag)
                lag_ms, peak = estimate_alignment_delay(mic, stream, max_lag * 1000.0 / sr)
                assert round(lag_ms * sr / 1000.0) == expected_lag
                assert peak == pytest.approx(expected_peak, abs=1e-12)
                assert abs(peak) <= 1.0 + 1e-9

    def test_empty_search_range_rejected(self):
        sig = gen_white_noise(1, 1, 8000)  # 8 samples
        with pytest.raises(ValueError):
            estimate_alignment_delay(sig, sig, 1000.0)  # max lag 8 leaves no overlap

    def test_negative_max_lag_rejected(self):
        sig = gen_white_noise(1, 100, 8000)
        with pytest.raises(ValueError):
            estimate_alignment_delay(sig, sig, -1.0)


class TestSelectStream:
    def make_candidates(self, sr=16000, dur=1000):
        return [
            CandidateStream("A", gen_white_noise(11, dur, sr)),
            CandidateStream("B", gen_white_noise(22, dur, sr)),
        ]

    def test_delayed_noisy_copy_matches_right_stream(self):
        cands = self.make_candidates()
        mic = add_noise_snr(delay_signal(cands[0].signal, 120.0), 0.0, seed=99)
        result = select_stream(mic, cands, 200.0, 0.3)
        assert result.matched
        assert result.stream_id == "A"
        assert result.lag_ms == pytest.approx(120.0, abs=1000.0 / 16000.0)

    def test_uncorrelated_mic_is_no_match(self):
        cands = self.make_candidates()
        mic = gen_white_noise(33, 1000, 16000)
        result = select_stream(mic, cands, 200.0, 0.3)
        assert not result.matched
        assert result.stream_id is None
        assert result.lag_ms is None
        assert result.peak_ncc < 0.3

    def test_identical_single_candidate(self):
        sig = gen_white_noise(44, 500, 16000)
        result = select_stream(sig, [CandidateStream("only", sig)], 100.0, 0.3)
        assert result.matched
        assert result.stream_id == "only"
        assert result.peak_ncc == pytest.approx(1.0, abs=1e-9)
        assert result.lag_ms == 0.0

    def test_scale_invariance_of_selection(self):
        cands = self.make_candidates()
        mic = add_noise_snr(delay_signal(cands[1].signal, 60.0), 0.0, seed=5)
        base = select_stream(mic, cands, 100.0, 0.3)
        for scale in (0.01, 0.125, 3.7, 1024.0):
            scaled = Signal(scale * mic.samples, mic.sample_rate_hz)
            result = select_stream(scaled, cands, 100.0, 0.3)
            assert result.stream_id == base.stream_id
            assert result.lag_ms == base.lag_ms
            assert result.peak_ncc == pytest.approx(base.peak_ncc, abs=1e-12)

    def test_peak_equal_to_threshold_matches(self):
        cands = self.make_candidates()
        mic = add_noise_snr(delay_signal(cands[1].signal, 30.0), 0.0, seed=11)
        peak = select_stream(mic, cands, 100.0).peak_ncc
        assert 0.0 < peak < 1.0
        result = select_stream(mic, cands, 100.0, threshold=peak)
        assert (result.stream_id, result.peak_ncc, result.lag_ms) == ("B", peak, 30.0)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            select_stream(gen_white_noise(1, 100, 8000), [], 10.0, 0.3)

    def test_bad_threshold_rejected(self):
        cands = self.make_candidates()
        mic = gen_white_noise(1, 100, 16000)
        for threshold in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                select_stream(mic, cands, 10.0, threshold)

    def test_duplicate_ids_rejected(self):
        sig = gen_white_noise(1, 100, 8000)
        with pytest.raises(ValueError):
            select_stream(sig, [CandidateStream("x", sig), CandidateStream("x", sig)], 10.0, 0.3)

    def test_first_failing_candidate_in_id_order_raises(self):
        # every candidate is checked before any is searched: "B" has the
        # wrong rate and "C" leaves 1 sample of overlap at lag 100
        mic = gen_white_noise(1, 25, 8000)  # 200 samples
        cands = [
            CandidateStream("C", gen_white_noise(2, 12.625, 8000)),  # 101 samples
            CandidateStream("B", gen_white_noise(3, 25, 16000)),
            CandidateStream("A", gen_white_noise(4, 25, 8000)),
        ]
        with pytest.raises(ValueError, match="^mismatched sample rates: mic 8000 vs stream 16000$"):
            select_stream(mic, cands, 12.5, 0.3)
        with pytest.raises(ValueError, match=r"^lag range 0\.\.100 leaves less than 2 samples"):
            select_stream(mic, [cands[0], cands[2]], 12.5, 0.3)

    @pytest.mark.parametrize("max_lag_ms", [-1.0, math.inf, math.nan])
    def test_bad_max_lag_raises_before_candidate_errors(self, max_lag_ms):
        mic = gen_white_noise(1, 25, 8000)
        cands = [CandidateStream("A", gen_white_noise(3, 25, 16000)), CandidateStream("B", gen_white_noise(2, 1, 8000))]
        with pytest.raises(ValueError, match="^max_lag_ms must be >= 0, got"):
            select_stream(mic, cands, max_lag_ms, 0.3)


class TestAutoconnectPipeline:
    def test_match_updates_amended_sink(self):
        stream = gen_white_noise(8, 1000, 16000)
        mic = delay_signal(stream, 100.0)
        sink = BroadcastSink(max_presentation_delay_ms=500.0)
        result, updated = autoconnect_pipeline(
            mic, [CandidateStream("A", stream)], sink, SpecMode.AMENDED, 200.0, 0.3
        )
        assert result.matched
        assert updated.local_alignment_delay_ms == pytest.approx(100.0, abs=1000.0 / 16000.0)
        # compensation nulls the residual to within one sample
        residual = 100.0 - updated.local_alignment_delay_ms
        assert abs(residual) <= 1000.0 / 16000.0

    def test_no_match_leaves_sink_unchanged(self):
        sink = BroadcastSink(max_presentation_delay_ms=500.0)
        result, updated = autoconnect_pipeline(
            gen_white_noise(1, 1000, 16000),
            [CandidateStream("A", gen_white_noise(2, 1000, 16000))],
            sink,
            SpecMode.AMENDED,
            200.0,
            0.3,
        )
        assert not result.matched
        assert updated is sink

    def test_strict_sink_rejects_estimated_lag(self):
        stream = gen_white_noise(8, 1000, 16000)
        mic = delay_signal(stream, 100.0)
        sink = BroadcastSink(max_presentation_delay_ms=40.0)
        with pytest.raises(ParameterUnsupportedError):
            autoconnect_pipeline(mic, [CandidateStream("A", stream)], sink, SpecMode.STRICT, 200.0, 0.3)

    def test_forced_stream_overrides_scores(self):
        a = gen_white_noise(11, 1000, 16000)
        b = gen_white_noise(22, 1000, 16000)
        mic = delay_signal(a, 50.0)
        sink = BroadcastSink(max_presentation_delay_ms=500.0)
        result, _ = autoconnect_pipeline(
            mic,
            [CandidateStream("A", a), CandidateStream("B", b)],
            sink,
            SpecMode.AMENDED,
            100.0,
            0.3,
            forced_stream="B",
        )
        assert result.stream_id == "B"
        assert result.peak_ncc < 0.3  # forced in spite of the low score

    @pytest.mark.parametrize("forced_stream", [None, "A"], ids=["select", "forced"])
    @pytest.mark.parametrize(
        "ids, threshold, spoil, message",
        [
            ([], 0.3, None, "^select_stream requires at least one candidate$"),
            (["A", "A"], 0.3, None, "^duplicate candidate stream ids$"),
            (["A"], math.nan, None, r"^threshold must be in \(0, 1\), got nan$"),
            (["A"], 5.0, None, r"^threshold must be in \(0, 1\), got 5.0$"),
            (["A"], -1.0, None, r"^threshold must be in \(0, 1\), got -1.0$"),
            (
                ["A", "B"],
                0.3,
                lambda s: Signal(s.samples, 16000),
                "^mismatched sample rates: mic 8000 vs stream 16000$",
            ),
            (
                ["A", "B"],
                0.3,
                lambda s: Signal(s.samples[:40], 8000),
                r"^lag range 0\.\.80 leaves less than 2 samples of overlap \(min signal length 40\)$",
            ),
            (
                ["A", "B"],
                0.3,
                lambda s: Signal(1e300 * s.samples, 8000),
                "^signals too loud: mic norm times stream norm overflows float64$",
            ),
        ],
        ids=[
            "empty",
            "duplicate-ids",
            "threshold-nan",
            "threshold-5",
            "threshold-minus-1",
            "other-rate",
            "too-short",
            "too-loud",
        ],
    )
    def test_forced_stream_checks_candidates_like_select(self, ids, threshold, spoil, message, forced_stream):
        # spoil replaces the last candidate's signal, so a forced "A" must
        # still check and search "B"
        sig = gen_white_noise(1, 100, 8000)
        candidates = [CandidateStream(cid, gen_white_noise(k, 100, 8000)) for k, cid in enumerate(ids)]
        if spoil is not None:
            candidates[-1] = CandidateStream(ids[-1], spoil(candidates[-1].signal))
        with pytest.raises(ValueError, match=message):
            autoconnect_pipeline(
                sig, candidates, BroadcastSink(500.0), SpecMode.AMENDED, 10.0, threshold, forced_stream
            )

    def test_forced_unknown_stream_rejected(self):
        sig = gen_white_noise(1, 100, 8000)
        with pytest.raises(KeyError):
            autoconnect_pipeline(
                sig,
                [CandidateStream("A", sig)],
                BroadcastSink(500.0),
                SpecMode.AMENDED,
                10.0,
                0.3,
                forced_stream="Z",
            )

    def test_forced_result_is_the_forced_streams_search(self):
        # the forced stream is searched in one batch with the others, and
        # the rows of the batch must not change one another's lag or peak
        max_lag_ms = 20.0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            lengths = rng.choice([60, 100, 150, 250], size=int(rng.integers(2, 6)))
            candidates = [
                CandidateStream(f"S{j}", gen_white_noise(100 * seed + j, float(ms), 8000))
                for j, ms in enumerate(lengths)
            ]
            forced = candidates[int(rng.integers(len(candidates)))]
            source = candidates[int(rng.integers(len(candidates)))].signal
            mic = add_noise_snr(delay_signal(source, float(rng.uniform(0.0, 15.0))), 0.0, seed=seed)
            result, _ = autoconnect_pipeline(
                mic, candidates, BroadcastSink(500.0), SpecMode.AMENDED, max_lag_ms, 0.3, forced.id
            )
            assert result.stream_id == forced.id
            assert (result.lag_ms, result.peak_ncc) == estimate_alignment_delay(mic, forced.signal, max_lag_ms)


class TestSnrMonotonicity:
    def test_accuracy_nondecreasing_in_snr(self):
        # reduced-size version of the acceptance sweep
        sr = 16000
        trials = 40
        accuracy = {}
        for snr_db in (-10.0, 0.0, 10.0):
            correct = 0
            for t in range(trials):
                streams = [gen_white_noise(1000 + 10 * t + j, 500, sr) for j in range(3)]
                cands = [CandidateStream(f"S{j}", streams[j]) for j in range(3)]
                true_idx = t % 3
                true_delay = 10.0 + (t * 7.3) % 150.0
                mic = add_noise_snr(delay_signal(streams[true_idx], true_delay), snr_db, seed=5000 + t)
                result = select_stream(mic, cands, 200.0, 0.3)
                if result.matched and result.stream_id == f"S{true_idx}":
                    correct += 1
            accuracy[snr_db] = correct / trials
        assert accuracy[10.0] >= accuracy[-10.0]
        assert accuracy[10.0] >= 0.9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("forced_stream", [None, "A"], ids=["select", "forced"])
@pytest.mark.parametrize("scale", [1e153, 1e160])
def test_too_loud_signals_rejected(scale, forced_stream):
    # at 1e153 the noise's energy overflows float64, at 1e160 each square
    # does; the search used to give no match at -inf, or a nan peak
    sig = Signal(scale * gen_white_noise(1, 250, 16000).samples, 16000)
    with pytest.raises(ValueError, match="^signals too loud: mic norm times stream norm overflows float64$"):
        autoconnect_pipeline(
            sig, [CandidateStream("A", sig)], BroadcastSink(500.0), SpecMode.AMENDED, 50.0, 0.3, forced_stream
        )


@pytest.mark.parametrize("max_lag_ms", [math.inf, 1e308], ids=["inf", "overflows-at-16k"])
def test_nonfinite_max_lag_rejected(max_lag_ms):
    sig = gen_white_noise(1, 100, 16000)
    with pytest.raises(ValueError, match="max_lag_ms"):
        estimate_alignment_delay(sig, sig, max_lag_ms)
