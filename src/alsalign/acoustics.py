"""Venue geometry and acoustic propagation delay from loudspeakers to seats.

Geometry is 2-D; the acoustic delay of a seat is the first arrival, i.e.
the propagation delay from the nearest loudspeaker.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from typing import get_args, get_origin, get_type_hints

__all__ = [
    "SPEED_OF_SOUND_M_PER_S",
    "Position",
    "Seat",
    "Venue",
    "SeatDelay",
    "propagation_delay_ms",
    "delay_map",
    "venue_from_dict",
    "load_venue",
]

SPEED_OF_SOUND_M_PER_S = 343.0  # dry air at 20 C


@dataclass(frozen=True)
class Position:
    x_m: float
    y_m: float

    def __post_init__(self):
        if not (math.isfinite(self.x_m) and math.isfinite(self.y_m)):
            raise ValueError(f"coordinates must be finite, got ({self.x_m}, {self.y_m})")

    def distance_to(self, other: "Position") -> float:
        return math.hypot(self.x_m - other.x_m, self.y_m - other.y_m)


@dataclass(frozen=True)
class Seat(Position):
    id: str = field(kw_only=True)


@dataclass(frozen=True)
class Venue:
    loudspeakers: tuple[Position, ...]
    seats: tuple[Seat, ...] = ()
    speed_of_sound_m_per_s: float = SPEED_OF_SOUND_M_PER_S

    def __post_init__(self):
        object.__setattr__(self, "loudspeakers", tuple(self.loudspeakers))
        object.__setattr__(self, "seats", tuple(self.seats))
        if not self.loudspeakers:
            raise ValueError("venue needs at least one loudspeaker")
        if not 0 < self.speed_of_sound_m_per_s < math.inf:
            raise ValueError(f"speed of sound must be > 0, got {self.speed_of_sound_m_per_s}")
        ids = [s.id for s in self.seats]
        if len(ids) != len(set(ids)):
            dup = sorted(i for i, count in Counter(ids).items() if count > 1)
            raise ValueError(f"duplicate seat ids: {dup}")


@dataclass(frozen=True)
class SeatDelay:
    """One row of a venue delay map."""

    seat_id: str
    distance_m: float
    acoustic_delay_ms: float


def propagation_delay_ms(distance_m: float, speed_m_per_s: float = SPEED_OF_SOUND_M_PER_S) -> float:
    """Time for sound to travel distance_m, in milliseconds."""
    if not 0 <= distance_m < math.inf:
        raise ValueError(f"distance_m must be >= 0, got {distance_m}")
    if not 0 < speed_m_per_s < math.inf:
        raise ValueError(f"speed must be > 0, got {speed_m_per_s}")
    delay = 1000.0 * distance_m / speed_m_per_s
    if delay == math.inf:
        raise ValueError(f"propagation delay over {distance_m} m overflows")
    return delay


def delay_map(venue: Venue) -> list[SeatDelay]:
    """Per-seat first arrival, sorted by seat id: distance to the nearest loudspeaker and its delay."""
    rows = []
    for seat in sorted(venue.seats, key=lambda s: s.id):
        distance = min(seat.distance_to(ls) for ls in venue.loudspeakers)
        delay = propagation_delay_ms(distance, venue.speed_of_sound_m_per_s)
        rows.append(SeatDelay(seat.id, distance, delay))
    return rows


def _convert(kind, value, key: str, where: str):
    """A config value as a field of class kind: each JSON type rule of the config files.

    A number field refuses a bool but reads a numeric string, and an int
    field refuses a fractional part rather than cut it off. A str or Enum
    field takes only a JSON string, and an Enum reads it in any case.
    """
    if kind is float or kind is int:
        if isinstance(value, bool):
            raise ValueError(f"key {key!r} in {where} must be a number, got {json.dumps(value)}")
        if kind is int and isinstance(value, float) and math.isfinite(value) and not value.is_integer():
            raise ValueError(f"key {key!r} in {where} must be an integer, got {json.dumps(value)}")
        return kind(value)
    if not isinstance(value, str):
        raise ValueError(f"key {key!r} in {where} must be a JSON string, got {json.dumps(value)}")
    if kind is str:
        return value
    try:
        return kind(value.lower())
    except ValueError:
        raise ValueError(f"unknown {key} {value!r} in {where}") from None


def _read_array(kind, value, key: str, where: str) -> list:
    """The JSON array under key, each entry read as a kind named key[i]."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a JSON array")
    return [_read(kind, entry, f"{key}[{i}]") for i, entry in enumerate(value)]


@cache
def _schema(cls):
    """cls's config keys, sorted and each mapped to whether it is required, and (name, kind, read) per field.

    A field without a default is a required key. Its annotation says how it
    is read: a tuple[X, ...] from a JSON array of X entries, the rest by
    _convert.
    """
    keys, parts, hints = {}, [], get_type_hints(cls)
    for f in fields(cls):
        kind, read = hints[f.name], _convert
        keys[f.name] = f.default is MISSING
        if get_origin(kind) is tuple:
            kind, read = get_args(kind)[0], _read_array
        parts.append((f.name, kind, read))
    return dict(sorted(keys.items())), parts


def _read(cls, entry, where: str):
    """A cls read from the config object entry, named where in messages."""
    keys, parts = _schema(cls)
    if not isinstance(entry, dict):
        raise ValueError(f"{where} must be a JSON object")
    for key in entry:
        if key not in keys:
            raise ValueError(f"unknown key {key!r} in {where}")
    for key, required in keys.items():
        if required and key not in entry:
            raise ValueError(f"missing key {key!r} in {where}")
    return cls(**{name: read(kind, entry[name], name, where) for name, kind, read in parts if name in entry})


def venue_from_dict(data: dict) -> Venue:
    """Build a Venue from the JSON config schema; unknown keys are rejected."""
    return _read(Venue, data, "venue config")


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _load_json(path):
    """The JSON value in the file at path; a key repeated within an object raises ValueError."""
    with open(path, encoding="utf-8") as f:
        return json.load(f, object_pairs_hook=_unique_keys)


def load_venue(path) -> Venue:
    return venue_from_dict(_load_json(path))
