"""Broadcast control-plane model: sources, advertising trains, sinks.

Two rule sets apply. Strict mirrors the current broadcast audio
specification: one advertising train per stream, sinks only guarantee
40 ms of presentation-delay buffering and expose no per-listener delay
parameter. Amended applies the proposed relaxations: many trains may
point at one stream, sinks buffer at least 500 ms and accept a local
alignment delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .acoustics import SPEED_OF_SOUND_M_PER_S, _load_json, _read, propagation_delay_ms
from .signals import _check_rate

__all__ = [
    "SpecMode",
    "TransportKind",
    "AudioStreamDescriptor",
    "AdvertisingTrain",
    "BroadcastSource",
    "BroadcastSink",
    "Violation",
    "SinkDelayError",
    "BufferExceededError",
    "ParameterUnsupportedError",
    "STRICT_PRESENTATION_DELAY_CAP_MS",
    "AMENDED_MIN_BUFFER_MS",
    "default_sink",
    "validate_config",
    "sink_apply_delays",
    "transport_propagation_delay_ms",
    "end_to_end_residual_ms",
    "airtime_occupancy",
    "source_from_dict",
    "load_broadcast_config",
]

STRICT_PRESENTATION_DELAY_CAP_MS = 40.0
AMENDED_MIN_BUFFER_MS = 500.0

DEFAULT_STREAM_AIRTIME = 0.30
DEFAULT_TRAIN_AIRTIME = 0.01


class SpecMode(Enum):
    STRICT = "strict"
    AMENDED = "amended"


class TransportKind(Enum):
    ELECTROMAGNETIC = "electromagnetic"
    ULTRASOUND = "ultrasound"


class SinkDelayError(Exception):
    """A sink cannot render the requested delays."""


class BufferExceededError(SinkDelayError):
    """Requested delay exceeds what the sink can buffer."""


class ParameterUnsupportedError(SinkDelayError):
    """The rule set offers no parameter for the requested delay."""


@dataclass(frozen=True)
class AudioStreamDescriptor:
    id: str
    sample_rate_hz: int
    channels: int = 1
    airtime_fraction: float = DEFAULT_STREAM_AIRTIME

    def __post_init__(self):
        try:
            _check_rate(self.sample_rate_hz)
        except ValueError as exc:
            raise ValueError(f"stream {self.id}: {exc}") from None
        if self.channels not in (1, 2):
            raise ValueError(f"stream {self.id}: channels must be 1 or 2, got {self.channels}")
        if not 0 <= self.airtime_fraction <= 1:
            raise ValueError(f"stream {self.id}: airtime_fraction must be in [0, 1], got {self.airtime_fraction}")


@dataclass(frozen=True)
class AdvertisingTrain:
    """Metadata packet stream describing one audio stream, incl. its delay."""

    id: str
    target_stream_id: str
    presentation_delay_ms: float
    codec: str = ""
    channels: str = ""
    airtime_fraction: float = DEFAULT_TRAIN_AIRTIME

    def __post_init__(self):
        if not 0 <= self.presentation_delay_ms < math.inf:
            raise ValueError(f"train {self.id}: presentation_delay_ms must be >= 0, got {self.presentation_delay_ms}")
        if not 0 <= self.airtime_fraction <= 1:
            raise ValueError(f"train {self.id}: airtime_fraction must be in [0, 1], got {self.airtime_fraction}")


@dataclass(frozen=True)
class BroadcastSource:
    """Streams, advertising trains, and the rule set that checks them unless the caller names another."""

    transport: TransportKind = TransportKind.ELECTROMAGNETIC
    streams: tuple[AudioStreamDescriptor, ...] = ()
    trains: tuple[AdvertisingTrain, ...] = ()
    mode: SpecMode = SpecMode.STRICT

    def __post_init__(self):
        object.__setattr__(self, "streams", tuple(self.streams))
        object.__setattr__(self, "trains", tuple(self.trains))
        stream_ids = [s.id for s in self.streams]
        if len(stream_ids) != len(set(stream_ids)):
            raise ValueError("duplicate stream ids")
        train_ids = [t.id for t in self.trains]
        if len(train_ids) != len(set(train_ids)):
            raise ValueError("duplicate train ids")
        known = set(stream_ids)
        for t in self.trains:
            if t.target_stream_id not in known:
                raise ValueError(f"train {t.id} targets unknown stream {t.target_stream_id!r}")


@dataclass(frozen=True)
class BroadcastSink:
    """Receiver: buffer capacity plus an optional per-listener delay."""

    max_presentation_delay_ms: float
    local_alignment_delay_ms: float = 0.0

    def __post_init__(self):
        if not 0 < self.max_presentation_delay_ms < math.inf:
            raise ValueError(f"max_presentation_delay_ms must be > 0, got {self.max_presentation_delay_ms}")
        if not 0 <= self.local_alignment_delay_ms < math.inf:
            raise ValueError(f"local_alignment_delay_ms must be >= 0, got {self.local_alignment_delay_ms}")


def default_sink(mode: SpecMode) -> BroadcastSink:
    """Sink with the default buffer for the rule set: 40 ms strict, 500 ms amended."""
    if mode is SpecMode.STRICT:
        return BroadcastSink(STRICT_PRESENTATION_DELAY_CAP_MS)
    return BroadcastSink(AMENDED_MIN_BUFFER_MS)


@dataclass(frozen=True)
class Violation:
    rule: str
    message: str
    offending_ids: tuple[str, ...] = ()


def validate_config(source: BroadcastSource, mode: SpecMode) -> list[Violation]:
    """Check a source against the rule set; an empty list means valid.

    Strict forbids pointing more than one advertising train at the same
    audio stream; amended permits it.
    """
    if mode is SpecMode.AMENDED:
        return []
    violations = []
    for stream in source.streams:
        trains = [t.id for t in source.trains if t.target_stream_id == stream.id]
        if len(trains) > 1:
            violations.append(
                Violation(
                    rule="multi-train-per-stream",
                    message=(
                        f"stream {stream.id!r} is referenced by {len(trains)} advertising "
                        f"trains ({', '.join(trains)}); strict mode allows one"
                    ),
                    offending_ids=(stream.id, *trains),
                )
            )
    return violations


def sink_apply_delays(sink: BroadcastSink, presentation_delay_ms: float, mode: SpecMode) -> float:
    """Total delay the sink renders, or raise if the rule set forbids it.

    Strict: no local-delay parameter exists, and presentation delay is
    capped at min(sink buffer, 40 ms). Amended: presentation plus local
    delay must fit the sink buffer.
    """
    if not 0 <= presentation_delay_ms < math.inf:
        raise ValueError(f"presentation_delay_ms must be >= 0, got {presentation_delay_ms}")
    if mode is SpecMode.STRICT:
        if sink.local_alignment_delay_ms > 0:
            raise ParameterUnsupportedError(
                f"strict mode has no local alignment delay parameter "
                f"(requested {sink.local_alignment_delay_ms} ms)"
            )
        cap = min(sink.max_presentation_delay_ms, STRICT_PRESENTATION_DELAY_CAP_MS)
        if presentation_delay_ms > cap:
            raise BufferExceededError(
                f"presentation delay {presentation_delay_ms} ms exceeds strict cap {cap} ms"
            )
        return presentation_delay_ms
    total = presentation_delay_ms + sink.local_alignment_delay_ms
    if total > sink.max_presentation_delay_ms:
        raise BufferExceededError(
            f"total delay {total} ms exceeds sink buffer {sink.max_presentation_delay_ms} ms"
        )
    return total


def transport_propagation_delay_ms(
    kind: TransportKind, distance_m: float, speed_of_sound: float = SPEED_OF_SOUND_M_PER_S
) -> float:
    """Transport delay to the listener: 0 for radio, sound-speed for ultrasound."""
    if not 0 <= distance_m < math.inf:
        raise ValueError(f"distance_m must be >= 0, got {distance_m}")
    if kind is TransportKind.ELECTROMAGNETIC:
        return 0.0
    return propagation_delay_ms(distance_m, speed_of_sound)


def end_to_end_residual_ms(
    acoustic_delay_ms: float,
    transport_delay_ms: float,
    presentation_delay_ms: float,
    local_alignment_delay_ms: float,
) -> float:
    """Signed remaining misalignment after all compensation stages."""
    return acoustic_delay_ms - (transport_delay_ms + presentation_delay_ms + local_alignment_delay_ms)


def airtime_occupancy(source: BroadcastSource) -> float:
    """Additive airtime model: fractions of all streams plus all trains.

    Values above 1 mean over-subscription and are returned as-is.
    """
    return sum(s.airtime_fraction for s in source.streams) + sum(
        t.airtime_fraction for t in source.trains
    )


def source_from_dict(data: dict) -> BroadcastSource:
    """Parse the broadcast config schema; unknown keys are rejected."""
    return _read(BroadcastSource, data, "broadcast config")


def load_broadcast_config(path) -> BroadcastSource:
    return source_from_dict(_load_json(path))
