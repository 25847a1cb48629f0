"""Perceptual classification of residual alignment delay and comb-filter math.

A listener hearing both the broadcast and the acoustic signal perceives
their time offset as coloration, reverberation or echo depending on its
magnitude; the summed ear signal shows comb-filter notches at odd
multiples of 1/(2*delay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .signals import Signal, delay_signal, mix

__all__ = [
    "DistortionClass",
    "MixSpec",
    "classify_residual",
    "comb_filter_magnitude",
    "notch_frequencies",
    "ear_signal",
]

ALIGNED_MAX_MS = 0.1
COLORATION_MAX_MS = 5.0
REVERBERATION_MAX_MS = 30.0

# a delay of d seconds has about d * f notches below f; checked before the list is built
_MAX_NOTCHES = 1_000_000


class DistortionClass(Enum):
    ALIGNED = "aligned"
    COLORATION = "coloration"
    REVERBERATION = "reverberation"
    ECHO = "echo"


@dataclass(frozen=True)
class MixSpec:
    """Linear gains applied to the broadcast and acoustic branches."""

    broadcast_gain: float = 1.0
    acoustic_gain: float = 1.0

    def __post_init__(self):
        if not (0 <= self.broadcast_gain < math.inf and 0 <= self.acoustic_gain < math.inf):
            raise ValueError("gains must be >= 0")


def classify_residual(residual_ms: float) -> DistortionClass:
    """Map a signed residual delay to its perceptual category.

    Classification is by magnitude (which signal leads does not matter),
    with bands closed on their upper edge: aligned <= 0.1 ms,
    coloration <= 5 ms, reverberation <= 30 ms, echo above.
    """
    if not math.isfinite(residual_ms):
        raise ValueError(f"residual must be finite, got {residual_ms}")
    a = abs(residual_ms)
    if a <= ALIGNED_MAX_MS:
        return DistortionClass.ALIGNED
    if a <= COLORATION_MAX_MS:
        return DistortionClass.COLORATION
    if a <= REVERBERATION_MAX_MS:
        return DistortionClass.REVERBERATION
    return DistortionClass.ECHO


def comb_filter_magnitude(delay_ms: float, gain: float, freq_hz: float) -> float:
    """|H(f)| of a unit signal summed with a gain-weighted copy delayed by delay_ms."""
    if not 0 <= delay_ms < math.inf:
        raise ValueError(f"delay_ms must be >= 0, got {delay_ms}")
    if not 0 <= gain < math.inf:
        raise ValueError(f"gain must be >= 0, got {gain}")
    if not math.isfinite(freq_hz):
        raise ValueError(f"freq_hz must be finite, got {freq_hz}")
    c = math.cos(2.0 * math.pi * freq_hz * delay_ms / 1000.0)
    # rounding can push the radicand a hair below 0 at exact notches
    return math.sqrt(max(0.0, 1.0 + gain * gain + 2.0 * gain * c))


def notch_frequencies(delay_ms: float, max_freq_hz: float) -> list[float]:
    """All comb notches (2k+1)*1000/(2*delay_ms) up to max_freq_hz, ascending."""
    if not 0 <= delay_ms < math.inf:
        raise ValueError(f"delay_ms must be >= 0, got {delay_ms}")
    if delay_ms == 0:
        return []
    if not delay_ms * max_freq_hz / 1000.0 <= _MAX_NOTCHES:
        raise ValueError(
            f"a {delay_ms} ms delay has more than {_MAX_NOTCHES} notches up to {max_freq_hz} Hz"
        )
    notches = []
    k = 0
    while True:
        f = (2 * k + 1) * 1000.0 / (2.0 * delay_ms)
        if f > max_freq_hz:
            return notches
        notches.append(f)
        k += 1


def ear_signal(broadcast: Signal, acoustic: Signal, residual_ms: float, spec: MixSpec) -> Signal:
    """Mixed ear signal with the lagging branch delayed by |residual_ms|.

    Positive residual means the acoustic signal arrives after the
    broadcast; negative means the broadcast branch lags instead.
    """
    if not math.isfinite(residual_ms):
        raise ValueError(f"residual must be finite, got {residual_ms}")
    if broadcast.sample_rate_hz != acoustic.sample_rate_hz:
        raise ValueError(
            f"mismatched sample rates: {broadcast.sample_rate_hz} vs {acoustic.sample_rate_hz}"
        )
    if residual_ms >= 0:
        acoustic = delay_signal(acoustic, residual_ms)
    else:
        broadcast = delay_signal(broadcast, -residual_ms)
    return mix([(broadcast, spec.broadcast_gain), (acoustic, spec.acoustic_gain)])
