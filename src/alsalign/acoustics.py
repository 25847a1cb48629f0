"""Venue geometry and acoustic propagation delay from loudspeakers to seats.

Geometry is 2-D; the acoustic delay of a seat is the first arrival, i.e.
the propagation delay from the nearest loudspeaker.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import MISSING, dataclass, fields

__all__ = [
    "SPEED_OF_SOUND_M_PER_S",
    "Position",
    "Seat",
    "Venue",
    "SeatDelay",
    "propagation_delay_ms",
    "seat_acoustic_delay_ms",
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
class Seat:
    id: str
    position: Position


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

    def seat(self, seat_id: str) -> Seat:
        for s in self.seats:
            if s.id == seat_id:
                return s
        raise KeyError(f"no seat {seat_id!r} in venue")

    def nearest_loudspeaker_distance_m(self, position: Position) -> float:
        return min(position.distance_to(ls) for ls in self.loudspeakers)


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


def seat_acoustic_delay_ms(venue: Venue, seat_id: str) -> float:
    """First-arrival delay: propagation delay from the nearest loudspeaker."""
    seat = venue.seat(seat_id)
    distance = venue.nearest_loudspeaker_distance_m(seat.position)
    return propagation_delay_ms(distance, venue.speed_of_sound_m_per_s)


def delay_map(venue: Venue) -> list[SeatDelay]:
    """Per-seat nearest distance and acoustic delay, sorted by seat id."""
    rows = []
    for seat in sorted(venue.seats, key=lambda s: s.id):
        distance = venue.nearest_loudspeaker_distance_m(seat.position)
        delay = propagation_delay_ms(distance, venue.speed_of_sound_m_per_s)
        rows.append(SeatDelay(seat.id, distance, delay))
    return rows


def _require_keys(entry, allowed: set[str], required: set[str], what: str) -> None:
    """Reject a config entry that is not a JSON object or has unknown or missing keys."""
    if not isinstance(entry, dict):
        raise ValueError(f"{what} must be a JSON object")
    for key in entry:
        if key not in allowed:
            raise ValueError(f"unknown key {key!r} in {what}")
    for key in sorted(required):
        if key not in entry:
            raise ValueError(f"missing key {key!r} in {what}")


def _convert(kind: str, value, key: str, where: str):
    """A config value as a str, int or float field: each JSON type rule of the config files.

    A number field refuses a bool but reads a numeric string, and an int
    field refuses a fractional part rather than cut it off.
    """
    if kind == "str":
        if isinstance(value, str):
            return value
        raise ValueError(f"key {key!r} in {where} must be a JSON string, got {json.dumps(value)}")
    if isinstance(value, bool):
        raise ValueError(f"key {key!r} in {where} must be a number, got {json.dumps(value)}")
    if kind == "int" and isinstance(value, float) and math.isfinite(value) and not value.is_integer():
        raise ValueError(f"key {key!r} in {where} must be an integer, got {json.dumps(value)}")
    return float(value) if kind == "float" else int(value)


def _schema(cls, nested: dict):
    """A cls entry's config keys, each mapped to whether it is required, and build(entry, where).

    Field names are the keys and fields without a default are required. A
    field named in nested is read as that class: a tuple field from a JSON
    array of entries, any other (a seat's position) from the entry's own keys.
    """
    keys, parts = {}, []
    for f in fields(cls):
        kind, inner = f.type, nested.get(f.name)
        if inner and not kind.startswith("tuple["):
            inner_keys, inner = _schema(inner, nested)
            keys.update(inner_keys)
            kind = None
        else:
            keys[f.name] = f.default is MISSING
        parts.append((f.name, kind, inner))

    def build(entry, where):
        values = {}
        for name, kind, inner in parts:
            if kind is None:
                values[name] = inner(entry, where)
            elif name in entry:
                value = entry[name]
                values[name] = _from_entries(inner, value, name, **nested) if inner else _convert(kind, value, name, where)
        return cls(**values)

    return keys, build


def _from_entries(cls, entries, what: str, **nested) -> list:
    """Build one cls per entry of the JSON array under the key what, named what[i].

    A tuple holds one top-level object instead, named what. nested names the
    class of each field, at any depth, that is not a str, int or float.
    """
    if not isinstance(entries, (list, tuple)):
        raise ValueError(f"{what} must be a JSON array")
    keys, build = _schema(cls, nested)
    allowed, required = set(keys), {key for key, needed in keys.items() if needed}
    built = []
    for i, entry in enumerate(entries):
        where = what if isinstance(entries, tuple) else f"{what}[{i}]"
        _require_keys(entry, allowed, required, where)
        built.append(build(entry, where))
    return built


def venue_from_dict(data: dict) -> Venue:
    """Build a Venue from the JSON config schema; unknown keys are rejected."""
    return _from_entries(Venue, (data,), "venue config", loudspeakers=Position, seats=Seat, position=Position)[0]


def load_venue(path) -> Venue:
    with open(path, encoding="utf-8") as f:
        return venue_from_dict(json.load(f))
