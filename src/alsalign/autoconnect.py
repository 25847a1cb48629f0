"""Stream selection by resemblance to the listener's acoustic environment.

Scan candidate broadcast streams, score each against the microphone
signal with windowed normalized cross-correlation over non-negative
integer lags, connect to the best-scoring stream, and reuse the peak lag
as the listener's local alignment delay.

The lag search is a generalized cross-correlation without weighting
(Knapp & Carter, 1976): the mic is transformed once per selection (once
per overlap length, when candidates are shorter than the mic), one FFT
per stream then estimates every lag's score with a rounding bound, and
the few lags that could still be the peak are re-scored with exact dot
products. Lag and peak are therefore those of an exhaustive search, bit
for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .broadcast import BroadcastSink, SpecMode, sink_apply_delays
from .signals import Signal

__all__ = [
    "CandidateStream",
    "SelectionResult",
    "estimate_alignment_delay",
    "select_stream",
    "autoconnect_pipeline",
    "DEFAULT_THRESHOLD",
]

DEFAULT_THRESHOLD = 0.3

# float64 machine epsilon, 2**-52; numpy is imported only inside the searches
_EPS = sys.float_info.epsilon
# signal norms for which the FFT bound holds. Above the range the FFT can
# overflow. Below it the spectrum product underflows into subnormals, so
# the relative error bound no longer holds (a 440 Hz tone at 1e-160 then
# peaks 800 lags off).
_FFT_MIN_NORM = 2.0**-450
_FFT_MAX_NORM = 2.0**450


@dataclass(frozen=True)
class CandidateStream:
    id: str
    signal: Signal

    def __post_init__(self):
        if len(self.signal) == 0:
            raise ValueError(f"candidate {self.id!r} has an empty signal")


@dataclass(frozen=True)
class SelectionResult:
    """Outcome of stream selection; stream_id/lag_ms are None on no match."""

    stream_id: str | None
    peak_ncc: float
    lag_ms: float | None

    @property
    def matched(self) -> bool:
        return self.stream_id is not None


def _fft_size(min_size: int) -> int:
    """Smallest 2**a * 3**b >= min_size; pocketfft is slow at prime lengths."""
    best = 1 << (min_size - 1).bit_length()
    power3 = 3
    while power3 < best:
        best = min(best, power3 << (-(-min_size // power3) - 1).bit_length())
        power3 *= 3
    return best


def _max_lag(mic: Signal, max_lag_ms: float) -> int:
    """max_lag_ms as a whole number of samples at the mic's rate."""
    if not 0 <= max_lag_ms < math.inf:
        raise ValueError(f"max_lag_ms must be >= 0, got {max_lag_ms}")
    max_lag = max_lag_ms * mic.sample_rate_hz / 1000.0
    if max_lag == math.inf:
        raise ValueError(f"max_lag_ms {max_lag_ms} overflows at {mic.sample_rate_hz} Hz")
    return round(max_lag)


def _best_lags(mic: Signal, streams: list[Signal], max_lag_samples: int) -> list[tuple[int, float]]:
    """Per stream, the first lag in 0..max_lag_samples with the highest NCC, and that NCC.

    Every lag is scored as np.dot(s[:n-lag], m[lag:]) / denom[lag], or 0
    where the window norms vanish, and the result is exactly what
    scoring them all gives. One FFT cross-correlation per stream bounds
    each score to within (4 * size * eps * |s| * |m|) / denom[lag]; the
    dot product is taken only at lags whose upper bound reaches the best
    lower bound of that stream. Window norms come from prefix and suffix
    sums of squares. Streams that share an overlap length n share the
    mic's window norms and spectrum, and are scored as rows of one array.
    Raises ValueError when a stream norm times the mic norm overflows.
    """
    lengths = []
    for stream in streams:
        if mic.sample_rate_hz != stream.sample_rate_hz:
            raise ValueError(
                f"mismatched sample rates: mic {mic.sample_rate_hz} vs stream {stream.sample_rate_hz}"
            )
        n = min(len(mic), len(stream))
        if max_lag_samples < 0 or n - max_lag_samples < 2:
            raise ValueError(
                f"lag range 0..{max_lag_samples} leaves less than 2 samples of overlap "
                f"(min signal length {n})"
            )
        lengths.append(n)
    import numpy as np

    nlags = max_lag_samples + 1
    results: list[tuple[int, float]] = [(0, 0.0)] * len(streams)
    for n in sorted(set(lengths)):
        rows = [k for k, length in enumerate(lengths) if length == n]
        m = mic.samples[:n]
        ss = [streams[k].samples[:n] for k in rows]

        # window norms for lag = 0 .. max_lag: |s[0:n-lag]| from prefix sums
        # of squares (a row per stream) and |m[lag:n]| from suffix sums
        denoms = np.empty((len(rows), nlags))
        with np.errstate(over="ignore", invalid="ignore"):  # signals this loud raise below
            for row, s in enumerate(ss):
                denoms[row] = np.cumsum(np.square(s))[n - nlags :][::-1]
            np.sqrt(denoms, out=denoms)
            m_norms = np.sqrt(np.cumsum(np.square(m)[::-1])[::-1][:nlags])
            norm_s, norm_m = denoms[:, 0].copy(), float(m_norms[0])
            denoms *= m_norms
            if not np.isfinite(norm_s * norm_m).all():
                raise ValueError("signals too loud: mic norm times stream norm overflows float64")
        nonzero = denoms > 0.0

        # outside this range the FFT could overflow or lose precision to underflow
        in_range = (_FFT_MIN_NORM <= np.minimum(norm_s, norm_m)) & (np.maximum(norm_s, norm_m) <= _FFT_MAX_NORM)
        size = _fft_size(n + max_lag_samples)  # no wrap-around into lags 0..max_lag
        # covers the rounding of the FFT and of np.dot (at most n * eps * |s| * |m|)
        bound = (4 * size * _EPS * norm_s * norm_m)[:, None]
        # below denom = bound a score's interval is wider than [-1, 1] and
        # dividing by denom can overflow: such lags are always scored exactly
        sharp = (denoms >= bound) & in_range[:, None]
        nums = np.zeros_like(denoms)
        if in_range.any():
            m_spec = np.fft.rfft(m, size)
            for row in np.flatnonzero(in_range):
                nums[row] = np.fft.irfft(m_spec * np.conj(np.fft.rfft(ss[row], size)), size)[:nlags]
        # each row keeps the lags whose upper bound reaches its best lower bound;
        # at lags that are not sharp the quotients are unused and may be inf or nan
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nums /= denoms  # the FFT's estimate of each score
            radius = bound / denoms
            lower = nums - radius
            lower[~sharp] = -np.inf
            nums += radius  # upper bounds
            exact = np.where(sharp, nums >= lower.max(axis=1, keepdims=True), nonzero)
        del nums, radius, lower  # (K, nlags) each: free them before scores is made

        scores = np.where(nonzero, -np.inf, 0.0)
        for row, lag in zip(*np.nonzero(exact)):
            scores[row, lag] = np.dot(ss[row][: n - lag], m[lag:]) / denoms[row, lag]
        best = np.argmax(scores, axis=1)  # argmax returns the first (smallest) lag on ties
        for row, k in enumerate(rows):
            results[k] = int(best[row]), float(scores[row, best[row]])
    return results


def estimate_alignment_delay(mic: Signal, stream: Signal, max_lag_ms: float) -> tuple[float, float]:
    """Integer-lag NCC search; returns (lag_ms, peak_ncc).

    The result is that of scoring every lag in 0..max_lag_ms exactly:
    an FFT cross-correlation narrows the search, and the lags it cannot
    rule out are re-scored with exact dot products. Ties in the peak
    value break to the smallest lag. The search is one-sided (lag >= 0):
    the broadcast always precedes the acoustic signal here. This is the
    search select_stream runs for all its candidates at once, with the
    mic transformed once per selection.
    """
    ((best, peak),) = _best_lags(mic, [stream], _max_lag(mic, max_lag_ms))
    return best * 1000.0 / mic.sample_rate_hz, peak


def select_stream(
    mic: Signal,
    candidates: list[CandidateStream],
    max_lag_ms: float,
    threshold: float = DEFAULT_THRESHOLD,
) -> SelectionResult:
    """Pick the candidate with the highest correlation peak.

    Every candidate is checked before any is searched, and the first
    failing one in id order raises. Candidates are scored in id order so
    ties break to the smallest id; a best peak below the threshold
    yields a no-match result.
    """
    if not candidates:
        raise ValueError("select_stream requires at least one candidate")
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    ids = [c.id for c in candidates]
    if len(ids) != len(set(ids)):
        raise ValueError("duplicate candidate stream ids")
    ordered = sorted(candidates, key=lambda c: c.id)
    searched = _best_lags(mic, [c.signal for c in ordered], _max_lag(mic, max_lag_ms))
    best_id = None
    best_peak = -math.inf
    best_lag = None
    for cand, (lag, peak) in zip(ordered, searched):
        if peak > best_peak:
            best_id, best_peak, best_lag = cand.id, peak, lag
    if best_peak < threshold:
        return SelectionResult(None, float(best_peak), None)
    return SelectionResult(best_id, float(best_peak), best_lag * 1000.0 / mic.sample_rate_hz)


def autoconnect_pipeline(
    mic: Signal,
    candidates: list[CandidateStream],
    sink: BroadcastSink,
    mode: SpecMode,
    max_lag_ms: float,
    threshold: float = DEFAULT_THRESHOLD,
    forced_stream: str | None = None,
) -> tuple[SelectionResult, BroadcastSink]:
    """Scan, compare, connect: returns the selection and the updated sink.

    A forced stream id overrides scoring entirely (manual override). On a
    match the estimated lag becomes the sink's local alignment delay and
    the sink must accept it under the given rule set; sink errors
    propagate. On no match the sink is returned unchanged.
    """
    if forced_stream is not None:
        by_id = {c.id: c for c in candidates}
        if forced_stream not in by_id:
            raise KeyError(f"forced stream {forced_stream!r} is not among the candidates")
        lag_ms, peak = estimate_alignment_delay(mic, by_id[forced_stream].signal, max_lag_ms)
        result = SelectionResult(forced_stream, peak, lag_ms)
    else:
        result = select_stream(mic, candidates, max_lag_ms, threshold)
    if not result.matched:
        return result, sink
    updated = sink.with_local_delay(result.lag_ms)
    sink_apply_delays(updated, 0.0, mode)
    return result, updated
