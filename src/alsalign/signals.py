"""Deterministic generation and elementary manipulation of sampled audio.

Signals are immutable mono float64 arrays with a sample rate. Every
generator is a pure function of its arguments (including the seed), so
repeated calls are bit-identical.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .prng import SplitMix64

# numpy is imported where arrays are made, so that planning alone never loads it
if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Signal",
    "gen_white_noise",
    "gen_sine",
    "delay_signal",
    "mix",
    "add_noise_snr",
    "read_wav",
    "write_wav",
]

# checked before any signal is allocated or read; 625 s at 16 kHz
_MAX_SAMPLES = 10_000_000
# a 16-bit mono WAV header holds the byte rate, 2 bytes per sample, in 32 bits
_MAX_WAV_RATE_HZ = 2**31 - 1


@dataclass(frozen=True, eq=False)
class Signal:
    """Uniformly sampled mono audio, nominal amplitude range [-1, 1].

    A Signal compares and hashes by identity, as the handle of its array.
    """

    samples: np.ndarray = field(repr=False)
    sample_rate_hz: int

    def __post_init__(self):
        _check_rate(self.sample_rate_hz)
        import numpy as np

        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
        _require_finite(arr)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return len(self.samples)

    def power(self) -> float:
        """Mean squared amplitude; 0.0 for an empty signal."""
        if len(self.samples) == 0:
            return 0.0
        import numpy as np

        return float(np.mean(np.square(self.samples)))

    def rms(self) -> float:
        return math.sqrt(self.power())


def _check_rate(sample_rate_hz: int) -> None:
    # an int rate above the float range would overflow every duration it is multiplied with
    if not 0 < sample_rate_hz <= sys.float_info.max:
        raise ValueError(f"sample_rate_hz must be > 0, got {sample_rate_hz}")
    # a WAV header holds whole hertz, so a fractional rate would not survive a round trip
    if sample_rate_hz % 1:
        raise ValueError(f"sample_rate_hz must be a whole number of hertz, got {sample_rate_hz}")


def _require_finite(arr: np.ndarray) -> None:
    import numpy as np

    # one NaN or inf would spread to every lag of an FFT correlation
    finite = np.isfinite(arr)
    if not finite.all():
        first = int(np.argmin(finite))
        raise ValueError(f"samples must be finite, got {arr[first]} at index {first}")


def _own(samples: np.ndarray, sample_rate_hz: int) -> Signal:
    """A Signal over a 1-D finite float64 array made here, at a checked rate: no copy, no scan."""
    samples.flags.writeable = False
    sig = object.__new__(Signal)
    object.__setattr__(sig, "samples", samples)
    object.__setattr__(sig, "sample_rate_hz", sample_rate_hz)
    return sig


def _num_samples(duration_ms: float, sample_rate_hz: int) -> int:
    if not 0 <= duration_ms < math.inf:
        raise ValueError(f"duration_ms must be >= 0, got {duration_ms}")
    _check_rate(sample_rate_hz)
    n = duration_ms * sample_rate_hz / 1000.0
    if not n <= _MAX_SAMPLES:
        raise ValueError(f"{duration_ms} ms at {sample_rate_hz} Hz is more than {_MAX_SAMPLES} samples")
    # round half to even, matching the sample-shift convention
    return round(n)


def gen_white_noise(seed: int, duration_ms: float, sample_rate_hz: int) -> Signal:
    """White noise, i.i.d. uniform on [-1, 1), bit-identical per (seed, params)."""
    n = _num_samples(duration_ms, sample_rate_hz)
    return _own(SplitMix64(seed).symmetric_block(n), sample_rate_hz)


def gen_sine(freq_hz: float, duration_ms: float, sample_rate_hz: int) -> Signal:
    """Pure tone: samples[k] = sin(2*pi*freq_hz*k/sample_rate_hz)."""
    n = _num_samples(duration_ms, sample_rate_hz)
    if not 0 <= freq_hz < sample_rate_hz / 2:
        raise ValueError(
            f"freq_hz must satisfy 0 <= f < Nyquist ({sample_rate_hz / 2} Hz), got {freq_hz}"
        )
    # the phase rises with k, so the last one, computed as below, bounds them all
    if n and not math.isfinite(2.0 * math.pi * freq_hz * (n - 1) / sample_rate_hz):
        raise ValueError(f"phase of a {freq_hz} Hz tone over {n} samples at {sample_rate_hz} Hz overflows")
    import numpy as np

    phase = np.arange(n, dtype=np.float64)
    phase *= 2.0 * np.pi * freq_hz
    phase /= sample_rate_hz
    return _own(np.sin(phase, out=phase), sample_rate_hz)


def delay_signal(sig: Signal, delay_ms: float) -> Signal:
    """Shift right by the nearest whole sample; head zero-padded, length kept.

    Negative delays are rejected: represent them by delaying the other
    signal of the pair instead.
    """
    if not 0 <= delay_ms < math.inf:
        raise ValueError(f"delay_ms must be >= 0, got {delay_ms}")
    # a shift past the end gives all zeros; clamping keeps round() finite for huge delays
    shift = round(min(delay_ms * sig.sample_rate_hz / 1000.0, len(sig)))
    if shift == 0:
        return sig
    import numpy as np

    n = len(sig)
    out = np.zeros(n)
    out[shift:] = sig.samples[: n - shift]
    return _own(out, sig.sample_rate_hz)


def mix(parts: list[tuple[Signal, float]]) -> Signal:
    """Sample-wise weighted sum; shorter parts are zero-extended."""
    if not parts:
        raise ValueError("mix requires at least one (signal, gain) part")
    for i, (_, gain) in enumerate(parts):
        if not math.isfinite(gain):
            raise ValueError(f"gain of part {i} must be finite, got {gain}")
    rates = {sig.sample_rate_hz for sig, _ in parts}
    if len(rates) != 1:
        raise ValueError(f"mismatched sample rates: {sorted(rates)}")
    import numpy as np

    n = max(len(sig) for sig, _ in parts)
    out = np.zeros(n)
    # a sum that overflows is rejected below, as samples that are not finite
    with np.errstate(over="ignore", invalid="ignore"):
        for sig, gain in parts:
            out[: len(sig)] += gain * sig.samples
    _require_finite(out)
    return _own(out, rates.pop())


def add_noise_snr(sig: Signal, snr_db: float, seed: int) -> Signal:
    """Add white noise scaled so power(sig)/power(noise) == 10**(snr_db/10).

    |snr_db| is limited to 300 dB: there the weaker part is already near
    float64 rounding of the stronger, and far beyond it 10**(snr_db/10)
    overflows or underflows.
    """
    if not -300.0 <= snr_db <= 300.0:
        raise ValueError(f"snr_db must be within +-300 dB, got {snr_db}")
    p_sig = sig.power()
    if p_sig == 0.0:
        raise ValueError("add_noise_snr requires a signal with nonzero power")
    import numpy as np

    noise = SplitMix64(seed).symmetric_block(len(sig))
    p_noise = float(np.mean(np.square(noise)))
    target = p_sig / 10.0 ** (snr_db / 10.0)
    noise *= np.sqrt(target / p_noise)
    noise += sig.samples
    _require_finite(noise)
    return _own(noise, sig.sample_rate_hz)


def write_wav(sig: Signal, path) -> None:
    """16-bit PCM mono RIFF; amplitudes map linearly to [-1, 1)."""
    if not sig.sample_rate_hz <= _MAX_WAV_RATE_HZ:
        raise ValueError(f"a 16-bit WAV header holds at most {_MAX_WAV_RATE_HZ} Hz, got {sig.sample_rate_hz} Hz")
    import wave

    import numpy as np

    pcm = np.clip(np.round(sig.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(sig.sample_rate_hz)
        w.writeframes(pcm.tobytes())


def read_wav(path) -> Signal:
    """Read a 16-bit PCM mono WAV as write_wav writes it; another format or a short file raises ValueError."""
    import wave

    import numpy as np

    try:
        w = wave.open(str(path), "rb")
    # wave raises EOFError for a file that ends inside the header, and RuntimeError
    # for a chunk that runs past the end of the RIFF chunk; neither has a message
    except (wave.Error, EOFError, RuntimeError) as exc:
        raise ValueError(f"bad WAV header: {str(exc) or 'truncated'}") from None
    with w:
        if w.getnchannels() != 1:
            raise ValueError(f"expected mono WAV, got {w.getnchannels()} channels")
        if w.getsampwidth() != 2:
            raise ValueError(f"expected 16-bit PCM, got {8 * w.getsampwidth()}-bit")
        n, rate = w.getnframes(), w.getframerate()
        if n > _MAX_SAMPLES:
            raise ValueError(f"{n} frames at {rate} Hz is more than {_MAX_SAMPLES} samples")
        _check_rate(rate)
        data = w.readframes(n)
        if len(data) != 2 * n:
            raise ValueError(f"bad WAV data: the data chunk holds {len(data) // 2} of {n} frames")
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64)
    samples /= 32768.0
    return _own(samples, rate)
