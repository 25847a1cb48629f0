"""Stream selection by resemblance to the listener's acoustic environment.

Scan candidate broadcast streams, score each against the microphone
signal with windowed normalized cross-correlation over non-negative
integer lags, connect to the best-scoring stream, and reuse the peak lag
as the listener's local alignment delay.

The lag search is a generalized cross-correlation without weighting
(Knapp & Carter, 1976): the mic is transformed once per selection (once
per overlap length, when candidates are shorter than the mic), FFTs
over the rows of all streams then estimate every lag's score with a
rounding bound, and the few lags that could still be the peak are
re-scored exactly, as the pairwise sum of the window's products. Lag
and peak are therefore those of an exhaustive search, bit for bit. No
step calls BLAS, so the bits do not depend on the thread count either.
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
# peaks 800 lags off). Why 2**450 each way:
# - size: the generators and read_wav cap a signal at 1e7 samples, and a
#   search needs max_lag < n, so the FFT size stays below 2**26.
# - overflow: every bin and partial sum of a forward FFT is at most
#   sum|x| <= sqrt(size) * |x|, so a spectrum product is at most
#   size * |s| * |m| <= 2**926, and the inverse's sums of at most size
#   such terms stay below 2**952 < 2**1024.
# - underflow: at |s| * |m| >= 2**-900 the radius numerator
#   4 * size * eps * |s| * |m| is at least 2**-941 (size >= 576), a normal
#   number. A rounding that underflows errs by at most 2**-1075. Even
#   size**2 of them after the product stay below 2**-80 of the radius, and
#   so do the n products of an exact score. One in a forward FFT, times
#   the other spectrum (at most sqrt(size) times a norm, with each norm at
#   least 2**-450), stays below 2**-500 of it. The radius leaves far more
#   slack than that (see below).
# - the 1e-160 tone has |s| * |m| ~ 2**-1053, so its radius, ~2**-1091,
#   would round to zero.
# Both margins hold for any size below 2**45. The _one_row_out_of_fft_range
# oracle case in the tests pins the guard.
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
    """Smallest 2**a * 3**b * 5**c >= min_size; pocketfft has fast passes for these factors."""
    best = 1 << (min_size - 1).bit_length()
    power5 = 1
    while power5 < best:
        odd = power5
        while odd < best:  # odd * 2**a >= min_size from a = bit_length(ceil(min_size / odd) - 1)
            best = min(best, odd << ((min_size - 1) // odd).bit_length())
            odd *= 3
        power5 *= 5
    return best


def _best_lags(mic: Signal, streams: list[Signal], max_lag_ms: float) -> list[tuple[float, float]]:
    """Per stream, the first lag in 0..max_lag_ms with the highest NCC, in ms, and that NCC.

    max_lag_ms is rounded to a whole number of samples at the mic's rate.

    Every lag is scored as np.add.reduce(s[:n-lag] * m[lag:]) / denom[lag],
    or 0 where the window norms vanish, and the result is exactly what
    scoring them all gives. One FFT cross-correlation per stream bounds
    each score to within (4 * size * eps * |s| * |m|) / denom[lag]; the
    exact score is taken only at lags whose upper bound reaches the best
    lower bound of that stream. Window norms come from prefix and suffix
    sums of squares. Streams that share an overlap length n share the
    mic's window norms and spectrum, and are scored as rows of one array:
    one cumsum and one forward FFT along the rows serve them all, and the
    inverse FFT takes as many rows at a time as fit where their samples
    were. Each overlap length gets one work block, and every float array
    of its search is a view into it, written in place: the denominators;
    the mic's and each stream's spectrum, whose floats hold the squares
    before the transforms and the radii, lower bounds and scores after
    them; and the streams' samples, whose place then holds the correlation
    lines and the estimates and upper bounds, then the re-score products.
    Raises ValueError when max_lag_ms is negative, infinite or overflows
    at the mic's rate, and when a stream norm times the mic norm overflows.
    """
    if not 0 <= max_lag_ms < math.inf:
        raise ValueError(f"max_lag_ms must be >= 0, got {max_lag_ms}")
    max_lag = max_lag_ms * mic.sample_rate_hz / 1000.0
    if max_lag == math.inf:
        raise ValueError(f"max_lag_ms {max_lag_ms} overflows at {mic.sample_rate_hz} Hz")
    max_lag_samples = round(max_lag)
    lengths = []
    for stream in streams:
        if mic.sample_rate_hz != stream.sample_rate_hz:
            raise ValueError(
                f"mismatched sample rates: mic {mic.sample_rate_hz} vs stream {stream.sample_rate_hz}"
            )
        n = min(len(mic), len(stream))
        if n - max_lag_samples < 2:
            raise ValueError(
                f"lag range 0..{max_lag_samples} leaves less than 2 samples of overlap "
                f"(min signal length {n})"
            )
        lengths.append(n)
    import numpy as np

    nlags = max_lag_samples + 1
    results: list = [None] * len(streams)
    for n in sorted(set(lengths)):
        rows = [k for k, length in enumerate(lengths) if length == n]
        m = mic.samples[:n]
        ss = [streams[k].samples[:n] for k in rows]
        size = _fft_size(n + max_lag_samples)  # no wrap-around into lags 0..max_lag
        bins = size // 2 + 1
        cells = len(rows) * nlags
        # the inverse FFT writes as many correlation lines at a time as fit in
        # the samples' place beside the estimates, and at least one
        batch = max(1, (len(rows) * n - cells) // size)
        spectra_end = cells + 2 * bins * (len(rows) + 1)

        # One work block for this overlap length; every float array below is a
        # view into it. On glibc this also keeps the search's memory mapped
        # between searches: the first free of a block above the mmap
        # threshold raises that threshold to the block's size, and the trim
        # threshold to twice that (the dynamic threshold of mallopt(3),
        # M_MMAP_THRESHOLD). From then on the block, pocketfft's scratch and
        # the caller's signals come from the heap, which is given back to the
        # OS, and page-faulted in again, only when more than twice the block
        # lies free at its top.
        block = np.empty(spectra_end + max(len(rows) * n, batch * size + cells))
        denoms = block[:cells].reshape(len(rows), nlags)
        spectra = block[cells:spectra_end].view(np.complex128).reshape(len(rows) + 1, bins)
        m_spec, s_specs = spectra[0], spectra[1:]
        # the spectra's floats hold the squares before the transforms, and the
        # scores after them
        squares = block[cells : cells + len(rows) * n].reshape(len(rows), n)
        scores = block[cells : 2 * cells].reshape(len(rows), nlags)
        # the rest holds the samples, then correlation lines and the estimates,
        # then the re-score products
        samples = block[spectra_end : spectra_end + len(rows) * n].reshape(len(rows), n)
        lines_end = spectra_end + batch * size
        lines = block[spectra_end:lines_end].reshape(batch, size)
        nums = block[lines_end : lines_end + cells].reshape(len(rows), nlags)
        np.concatenate(ss, out=samples.reshape(-1))

        # window norms for lag = 0 .. max_lag: |s[0:n-lag]| from prefix sums
        # of squares (a row per stream) and |m[lag:n]| from suffix sums
        m_squares = squares[0]
        with np.errstate(over="ignore", invalid="ignore"):  # signals this loud raise below
            np.cumsum(np.square(samples, out=squares), axis=1, out=squares)
            np.sqrt(squares[:, n - nlags :][:, ::-1], out=denoms)
            np.cumsum(np.square(m[::-1], out=m_squares), out=m_squares)
            m_norms = np.sqrt(m_squares[n - nlags :], out=m_squares[n - nlags :])[::-1]
            norm_s, norm_m = denoms[:, 0].copy(), float(m_norms[0])
            denoms *= m_norms
            if not np.isfinite(norm_s * norm_m).all():
                raise ValueError("signals too loud: mic norm times stream norm overflows float64")
        nonzero = denoms > 0.0

        # outside this range the FFT could overflow or lose precision to underflow,
        # and below size 576 its rounding is not covered by the radius (see below)
        in_range = (size >= 576) & (_FFT_MIN_NORM <= np.minimum(norm_s, norm_m))
        in_range &= np.maximum(norm_s, norm_m) <= _FFT_MAX_NORM
        # The radius covers both roundings between an FFT estimate and the
        # exact score it stands for. Here u = eps/2, L = log2(size),
        # gamma_k = k*u/(1 - k*u), n <= size, and s_w, m_w are the windows
        # at a lag (Higham, Accuracy and Stability of Numerical Algorithms,
        # 2nd ed., 2002):
        # - FFT: pocketfft transforms size = 2**a * 3**b * 5**c in passes of
        #   radix 4, 2, 3 and 5. A radix-p pass multiplies the values of each
        #   group of p by twiddles good to u and adds them in a p-point
        #   butterfly, sqrt(p) times a unitary map. To first order its
        #   roundings add G d to the output, where each rounding d_r is at most
        #   u times a value a_r . x and G carries it to the outputs, so the
        #   pass errs normwise by eta_p <= u * |G|_2 * |A|_2 / sqrt(p) of its
        #   output (A has the rows a_r). Over pocketfft's butterflies and every
        #   twiddle angle this gives eta_2 <= 2.9, eta_3 <= 4.7, eta_4 <= 3.8
        #   and eta_5 <= 6.3 eps: each below log2(p) * eta, with the radix-2
        #   bound eta = u + gamma_4*(sqrt(2) + u) ~ 3.33 eps of §24.1, Thm
        #   24.2. So every transform errs normwise by at most L*eta, as a
        #   radix-2 one does. Each spectrum is at most sqrt(n) times its
        #   signal's norm in every bin, so the two forward transforms, the
        #   product (sqrt(2)*gamma_2) and the inverse put every estimate
        #   within (10 L + 3) * sqrt(size) * eps * |s| * |m|.
        # - exact score: one rounded product per term, then numpy's pairwise
        #   sum: eight running sums over blocks of at most 128 samples,
        #   joined by a halving tree (§4.2). That is at most
        #   k = min(n, ceil(log2 n) + 21) roundings deep, so the score errs by
        #   at most gamma_k * sum|s_i m_i| <= gamma_k * |s_w| * |m_w| by
        #   Cauchy-Schwarz. Any summation order, np.dot's included, gives at
        #   most gamma_n.
        # With the pairwise sum the two add up to less than
        # 4 * size * eps * |s| * |m| for size >= 576; the largest size below
        # it, 540 = 2**2 * 3**3 * 5, exceeds the radius by 1.6%, and the
        # smallest ones by about 3x. So rows below 576 skip the FFT and every
        # lag is scored exactly.
        bound = (4 * size * _EPS * norm_s * norm_m)[:, None]
        # below denom = bound a score's interval is wider than [-1, 1] and
        # dividing by denom can overflow: such lags are always scored exactly
        sharp = (denoms >= bound) & in_range[:, None]
        # the transforms estimate every row; rows outside the range are never
        # sharp, so their estimates are not read. They cannot overflow: the mic
        # is in range, and a stream norm whose square is finite is below 2**512.
        if in_range.any():
            np.fft.rfft(m, size, out=m_spec)
            np.conj(np.fft.rfft(samples, size, axis=1, out=s_specs), out=s_specs)
            np.multiply(m_spec, s_specs, out=s_specs)
            for row in range(0, len(rows), batch):
                part = np.fft.irfft(s_specs[row : row + batch], size, axis=1, out=lines[: len(rows) - row])
                nums[row : row + batch] = part[:, :nlags]
        # each row keeps the lags whose upper bound reaches its best lower bound;
        # at lags that are not sharp the quotients are unused and may be inf or nan.
        # scores holds the radii, then the lower bounds, then the radii again.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            nums /= denoms  # the FFT's estimate of each score
            np.subtract(nums, np.divide(bound, denoms, out=scores), out=scores)
            best_lower = np.max(scores, axis=1, where=sharp, initial=-np.inf, keepdims=True)
            nums += np.divide(bound, denoms, out=scores)  # upper bounds
            exact = nonzero.copy()
            np.greater_equal(nums, best_lower, out=exact, where=sharp)

        scores.fill(0.0)
        np.copyto(scores, -np.inf, where=nonzero)
        exact_rows, exact_lags = np.nonzero(exact)
        for row, lag in zip(exact_rows.tolist(), exact_lags.tolist()):
            window = np.multiply(ss[row][: n - lag], m[lag:], out=lines[0, : n - lag])
            scores[row, lag] = np.add.reduce(window) / denoms[row, lag]
        best = np.argmax(scores, axis=1)  # argmax returns the first (smallest) lag on ties
        for row, k in enumerate(rows):
            results[k] = int(best[row]) * 1000.0 / mic.sample_rate_hz, float(scores[row, best[row]])
    return results


def estimate_alignment_delay(mic: Signal, stream: Signal, max_lag_ms: float) -> tuple[float, float]:
    """Integer-lag NCC search; returns (lag_ms, peak_ncc).

    The result is that of scoring every lag in 0..max_lag_ms exactly:
    an FFT cross-correlation narrows the search, and the lags it cannot
    rule out are re-scored exactly, as pairwise sums of products. Ties in
    the peak value break to the smallest lag. The search is one-sided (lag >= 0):
    the broadcast always precedes the acoustic signal here. This is the
    search select_stream runs for all its candidates at once, with the
    mic transformed once per selection.
    """
    return _best_lags(mic, [stream], max_lag_ms)[0]


def _scores(
    mic: Signal, candidates: list[CandidateStream], max_lag_ms: float, threshold: float
) -> list[tuple[str, float, float]]:
    """Each candidate's (id, lag_ms, peak_ncc) in id order, from one batched search.

    Selection and a forced connection both start here. Every candidate
    is checked before any is searched, and the first failing one in id
    order raises.
    """
    if not candidates:
        raise ValueError("select_stream requires at least one candidate")
    if not 0 < threshold < 1:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    ordered = sorted(candidates, key=lambda c: c.id)
    if len({c.id for c in ordered}) != len(ordered):
        raise ValueError("duplicate candidate stream ids")
    searched = _best_lags(mic, [c.signal for c in ordered], max_lag_ms)
    return [(c.id, lag_ms, peak) for c, (lag_ms, peak) in zip(ordered, searched)]


def select_stream(
    mic: Signal,
    candidates: list[CandidateStream],
    max_lag_ms: float,
    threshold: float = DEFAULT_THRESHOLD,
) -> SelectionResult:
    """Pick the candidate with the highest correlation peak.

    Ties break to the smallest id; a best peak below the threshold
    yields a no-match result.
    """
    # max keeps the first of equal peaks, and _scores is in id order
    stream_id, lag_ms, peak = max(_scores(mic, candidates, max_lag_ms, threshold), key=lambda score: score[2])
    if peak < threshold:
        return SelectionResult(None, peak, None)
    return SelectionResult(stream_id, peak, lag_ms)


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

    A forced stream id overrides the choice (manual override), not the
    search: every candidate is checked and scored as select_stream does,
    and the forced one is connected whatever its score. On a match the
    estimated lag becomes the sink's local alignment delay and the sink
    must accept it under the given rule set; sink errors propagate. On no
    match the sink is returned unchanged.
    """
    if forced_stream is None:
        result = select_stream(mic, candidates, max_lag_ms, threshold)
    else:
        by_id = {score[0]: score[1:] for score in _scores(mic, candidates, max_lag_ms, threshold)}
        if forced_stream not in by_id:
            raise ValueError(f"forced stream {forced_stream!r} is not among the candidates")
        lag_ms, peak = by_id[forced_stream]
        result = SelectionResult(forced_stream, peak, lag_ms)
    if not result.matched:
        return result, sink
    updated = sink.with_local_delay(result.lag_ms)
    sink_apply_delays(updated, 0.0, mode)
    return result, updated
