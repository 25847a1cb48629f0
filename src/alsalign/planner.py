"""Partition a venue's acoustic-delay span into presentation-delay zones.

Equal-width zones with midpoint presentation delay minimize the worst
residual for a given transmitter count; the count is the smallest N with
zone width <= 2*tolerance, so every covered seat stays within the bound.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .acoustics import SPEED_OF_SOUND_M_PER_S, SeatDelay, Venue, _load_json, _read, delay_map, propagation_delay_ms
from .perception import DistortionClass, classify_residual

__all__ = [
    "Zone",
    "DelayPlan",
    "UncoveredDelayError",
    "plan_zones",
    "zone_for_delay",
    "residual_delay_ms",
    "verify_plan",
    "SeatAssignment",
    "PlanVerification",
    "plan_to_dict",
    "plan_from_dict",
    "load_plan",
]

# structural checks tolerate values round-tripped through 6-significant-digit
# files, and compare in ms: rounding the speed, a delay and its distance (the
# last edge up) keeps the distance, converted to ms, within 1.5e-5 of the span
_REL_SLACK = 2e-5
# checked before any zone is built; far above any real venue at any sane tolerance
_MAX_ZONES = 100_000


class UncoveredDelayError(ValueError):
    """Acoustic delay falls outside the plan's covered span."""


@dataclass(frozen=True)
class Zone:
    index: int
    delay_lo_ms: float
    delay_hi_ms: float
    presentation_delay_ms: float
    distance_lo_m: float
    distance_hi_m: float

    def __post_init__(self):
        nums = (self.delay_lo_ms, self.delay_hi_ms, self.presentation_delay_ms, self.distance_lo_m, self.distance_hi_m)
        if not all(map(math.isfinite, nums)):
            raise ValueError(f"zone {self.index}: delays and distances must be finite, got {nums}")
        if self.delay_lo_ms > self.delay_hi_ms:
            raise ValueError(f"zone {self.index}: delay_lo {self.delay_lo_ms} > delay_hi {self.delay_hi_ms}")

    @property
    def width_ms(self) -> float:
        return self.delay_hi_ms - self.delay_lo_ms


@dataclass(frozen=True)
class DelayPlan:
    """Contiguous half-open zones [lo, hi) starting at 0; last zone closed above."""

    tolerance_ms: float
    speed_of_sound_m_per_s: float
    zones: tuple[Zone, ...]

    def __post_init__(self):
        object.__setattr__(self, "zones", tuple(self.zones))
        if not 0 < self.tolerance_ms < math.inf:
            raise ValueError(f"tolerance_ms must be > 0, got {self.tolerance_ms}")
        if not 0 < self.speed_of_sound_m_per_s < math.inf:
            raise ValueError(f"speed of sound must be > 0, got {self.speed_of_sound_m_per_s}")
        if not self.zones:
            raise ValueError("plan needs at least one zone")
        slack = _REL_SLACK * max(1.0, self.span_ms)
        prev_hi = 0.0
        for i, zone in enumerate(self.zones):
            if zone.index != i:
                raise ValueError(f"zone indices must be 0..N-1 ascending, got {zone.index} at {i}")
            if abs(zone.delay_lo_ms - prev_hi) > slack:
                raise ValueError(f"zone {i} starts at {zone.delay_lo_ms}, expected {prev_hi}")
            mid = (zone.delay_lo_ms + zone.delay_hi_ms) / 2.0
            if abs(zone.presentation_delay_ms - mid) > slack:
                raise ValueError(f"zone {i} presentation delay {zone.presentation_delay_ms} is not the midpoint {mid}")
            if zone.width_ms > 2.0 * self.tolerance_ms + slack:
                raise ValueError(f"zone {i} width {zone.width_ms} exceeds 2*tolerance {2 * self.tolerance_ms}")
            for delay, dist in ((zone.delay_lo_ms, zone.distance_lo_m), (zone.delay_hi_ms, zone.distance_hi_m)):
                if abs(dist * 1000.0 / self.speed_of_sound_m_per_s - delay) > slack:
                    raise ValueError(f"zone {i} distance {dist} inconsistent with delay {delay}")
            prev_hi = zone.delay_hi_ms

    @property
    def span_ms(self) -> float:
        return self.zones[-1].delay_hi_ms


def plan_zones(max_distance_m: float, tolerance_ms: float, speed_m_per_s: float = SPEED_OF_SOUND_M_PER_S) -> DelayPlan:
    """Plan the fewest equal-width zones covering [0, span) within +-tolerance.

    span is the propagation delay of max_distance_m; the zone count is
    max(1, ceil(span / (2*tolerance))) and each zone's presentation delay
    is its midpoint.
    """
    if not 0 < tolerance_ms < math.inf:
        raise ValueError(f"tolerance_ms must be > 0, got {tolerance_ms}")
    span = propagation_delay_ms(max_distance_m, speed_m_per_s)
    ratio = span / (2.0 * tolerance_ms)
    if not ratio <= _MAX_ZONES:
        raise ValueError(
            f"a {span} ms span at tolerance {tolerance_ms} ms needs more than {_MAX_ZONES} zones"
        )
    n = max(1, math.ceil(ratio))
    m_per_ms = speed_m_per_s / 1000.0
    zones = []
    for i in range(n):
        lo = span * i / n
        hi = span * (i + 1) / n
        zones.append(
            Zone(
                index=i,
                delay_lo_ms=lo,
                delay_hi_ms=hi,
                presentation_delay_ms=(lo + hi) / 2.0,
                distance_lo_m=lo * m_per_ms,
                distance_hi_m=hi * m_per_ms,
            )
        )
    return DelayPlan(tolerance_ms, speed_m_per_s, tuple(zones))


def zone_for_delay(plan: DelayPlan, acoustic_delay_ms: float) -> Zone:
    """The zone whose interval contains the delay (last zone closed at its top)."""
    if not 0 <= acoustic_delay_ms <= plan.span_ms:
        raise UncoveredDelayError(
            f"delay {acoustic_delay_ms} ms outside plan span [0, {plan.span_ms}]"
        )
    return plan.zones[max(0, bisect_right(plan.zones, acoustic_delay_ms, key=lambda z: z.delay_lo_ms) - 1)]


def residual_delay_ms(acoustic_delay_ms: float, presentation_delay_ms: float) -> float:
    """Signed residual; positive means the acoustic signal arrives later."""
    return acoustic_delay_ms - presentation_delay_ms


@dataclass(frozen=True)
class SeatAssignment(SeatDelay):
    """Per-seat verification row: the delay_map row, plus its zone, residual and class, all None when uncovered."""

    zone_index: int | None = None
    presentation_delay_ms: float | None = None
    residual_ms: float | None = None
    distortion: DistortionClass | None = None

    @property
    def covered(self) -> bool:
        return self.zone_index is not None


@dataclass(frozen=True)
class PlanVerification:
    seats: tuple[SeatAssignment, ...]

    @property
    def max_abs_residual_ms(self) -> float:
        """The largest |residual| over the covered seats; 0.0 when none is covered."""
        return max((abs(s.residual_ms) for s in self.seats if s.covered), default=0.0)

    @property
    def uncovered_seat_ids(self) -> list[str]:
        return [s.seat_id for s in self.seats if not s.covered]


def verify_plan(venue: Venue, plan: DelayPlan) -> PlanVerification:
    """Assign every seat to its zone and report residuals and classes.

    Seats whose delay exceeds the plan span are flagged uncovered rather
    than failing the whole verification.
    """
    # a plan's zone distances hold only at the speed of sound it was made for
    if not math.isclose(venue.speed_of_sound_m_per_s, plan.speed_of_sound_m_per_s, rel_tol=_REL_SLACK):
        raise ValueError(
            f"venue speed {venue.speed_of_sound_m_per_s} != plan speed {plan.speed_of_sound_m_per_s}"
        )
    rows = []
    for entry in delay_map(venue):
        try:
            zone = zone_for_delay(plan, entry.acoustic_delay_ms)
        except UncoveredDelayError:
            rows.append(SeatAssignment(entry.seat_id, entry.distance_m, entry.acoustic_delay_ms))
            continue
        residual = residual_delay_ms(entry.acoustic_delay_ms, zone.presentation_delay_ms)
        rows.append(
            SeatAssignment(
                entry.seat_id,
                entry.distance_m,
                entry.acoustic_delay_ms,
                zone.index,
                zone.presentation_delay_ms,
                residual,
                classify_residual(residual),
            )
        )
    return PlanVerification(tuple(rows))


def plan_to_dict(plan: DelayPlan) -> dict:
    """The plan file's object: the plan's fields, with each zone's fields, by name."""
    return {**vars(plan), "zones": [dict(vars(zone)) for zone in plan.zones]}


def plan_from_dict(data: dict) -> DelayPlan:
    return _read(DelayPlan, data, "plan")


def load_plan(path) -> DelayPlan:
    return plan_from_dict(_load_json(path))
