import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from alsalign import planner
from alsalign.acoustics import Position, Seat, Venue
from alsalign.perception import DistortionClass
from alsalign.planner import (
    DelayPlan,
    UncoveredDelayError,
    Zone,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    plan_zones,
    residual_delay_ms,
    verify_plan,
    zone_for_delay,
)

SPAN_200FT = 1000.0 * 60.96 / 343.0


class TestPlanZones:
    def test_200ft_needs_three_transmitters(self):
        plan = plan_zones(60.96, 30.0, 343.0)
        assert len(plan.zones) == 3
        assert plan.span_ms == pytest.approx(SPAN_200FT)

    def test_small_hall_single_zone(self):
        plan = plan_zones(10.0, 30.0, 343.0)
        assert len(plan.zones) == 1
        assert plan.span_ms == pytest.approx(10000.0 / 343.0)
        # single-transmitter system: one presentation delay at span/2
        assert plan.zones[0].presentation_delay_ms == pytest.approx(plan.span_ms / 2)

    def test_degenerate_zero_distance(self):
        plan = plan_zones(0.0, 30.0, 343.0)
        assert len(plan.zones) == 1
        assert plan.zones[0].presentation_delay_ms == 0.0
        assert plan.span_ms == 0.0

    def test_zone_structure(self):
        plan = plan_zones(60.96, 30.0, 343.0)
        for i, zone in enumerate(plan.zones):
            assert zone.index == i
            assert zone.width_ms <= 2 * 30.0 + 1e-9
            assert zone.presentation_delay_ms == pytest.approx((zone.delay_lo_ms + zone.delay_hi_ms) / 2)
        assert plan.zones[0].delay_lo_ms == 0.0
        mid = plan.zones[2].presentation_delay_ms
        assert mid == pytest.approx(5 * SPAN_200FT / 6)

    def test_distances_track_delays(self):
        plan = plan_zones(60.96, 30.0, 343.0)
        assert plan.zones[-1].distance_hi_m == pytest.approx(60.96)
        for zone in plan.zones:
            assert zone.distance_lo_m == pytest.approx(zone.delay_lo_ms * 343.0 / 1000.0)

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            plan_zones(60.96, 0.0, 343.0)
        with pytest.raises(ValueError):
            plan_zones(60.96, -5.0, 343.0)

    @given(
        d1=st.floats(min_value=0, max_value=400),
        d2=st.floats(min_value=0, max_value=400),
        tol=st.floats(min_value=5, max_value=50),
    )
    def test_zone_count_nondecreasing_in_distance(self, d1, d2, tol):
        lo, hi = sorted((d1, d2))
        assert len(plan_zones(lo, tol).zones) <= len(plan_zones(hi, tol).zones)

    @given(
        d=st.floats(min_value=0, max_value=400),
        t1=st.floats(min_value=5, max_value=50),
        t2=st.floats(min_value=5, max_value=50),
    )
    def test_zone_count_nonincreasing_in_tolerance(self, d, t1, t2):
        lo, hi = sorted((t1, t2))
        assert len(plan_zones(d, hi).zones) <= len(plan_zones(d, lo).zones)

    @given(
        d=st.floats(min_value=0.001, max_value=500),
        tol=st.floats(min_value=1, max_value=60),
    )
    @settings(max_examples=200)
    def test_zones_tile_span_exactly(self, d, tol):
        plan = plan_zones(d, tol)
        assert plan.zones[0].delay_lo_ms == 0.0
        for a, b in zip(plan.zones, plan.zones[1:]):
            assert a.delay_hi_ms == b.delay_lo_ms


class TestZoneForDelay:
    def test_lower_edge(self):
        plan = plan_zones(60.96, 30.0, 343.0)
        assert zone_for_delay(plan, 0.0).index == 0

    def test_span_upper_edge_closed(self):
        plan = plan_zones(60.96, 30.0, 343.0)
        assert zone_for_delay(plan, plan.span_ms).index == 2

    def test_interior_boundary_goes_to_upper_zone(self):
        plan = plan_zones(60.96, 30.0, 343.0)
        boundary = plan.zones[1].delay_lo_ms
        assert zone_for_delay(plan, boundary).index == 1

    def test_beyond_span_rejected(self):
        plan = plan_zones(60.96, 30.0, 343.0)
        with pytest.raises(UncoveredDelayError):
            zone_for_delay(plan, plan.span_ms + 0.001)
        with pytest.raises(UncoveredDelayError):
            zone_for_delay(plan, -0.001)

    def test_degenerate_plan_covers_zero(self):
        plan = plan_zones(0.0, 30.0, 343.0)
        assert zone_for_delay(plan, 0.0).index == 0


class TestResidual:
    def test_aligned(self):
        assert residual_delay_ms(150.0, 150.0) == 0.0

    def test_rear_of_zone(self):
        assert residual_delay_ms(177.73, 147.857) == pytest.approx(29.873)

    def test_front_of_zone_negative(self):
        assert residual_delay_ms(0.0, 29.621) == pytest.approx(-29.621)


def uniform_venue(n_seats: int, max_m: float) -> Venue:
    seats = tuple(
        Seat(f"S{i:04d}", Position(0.0, max_m * i / (n_seats - 1))) for i in range(n_seats)
    )
    return Venue(loudspeakers=(Position(0.0, 0.0),), seats=seats)


class TestVerifyPlan:
    def test_1000_uniform_seats_within_tolerance(self):
        venue = uniform_venue(1000, 60.96)
        plan = plan_zones(60.96, 30.0, 343.0)
        report = verify_plan(venue, plan)
        assert len(report.seats) == 1000
        assert report.max_abs_residual_ms <= 30.0
        assert not report.uncovered_seat_ids
        classes = {s.distortion for s in report.seats}
        assert classes <= {
            DistortionClass.ALIGNED,
            DistortionClass.COLORATION,
            DistortionClass.REVERBERATION,
        }

    def test_seat_at_zone_midpoint_is_aligned(self):
        plan = plan_zones(60.96, 30.0, 343.0)
        mid_delay = plan.zones[1].presentation_delay_ms
        distance = mid_delay * 343.0 / 1000.0
        venue = Venue((Position(0.0, 0.0),), (Seat("M", Position(0.0, distance)),))
        report = verify_plan(venue, plan)
        assert report.seats[0].residual_ms == pytest.approx(0.0, abs=1e-9)
        assert report.seats[0].distortion is DistortionClass.ALIGNED

    def test_max_residual_below_1ms(self):
        plan = plan_zones(60.96, 30.0, 343.0)
        mid = plan.zones[1].presentation_delay_ms * 343.0 / 1000.0
        seats = (Seat("A", Position(0.0, mid + 0.1)), Seat("B", Position(0.0, mid - 0.05)))
        report = verify_plan(Venue((Position(0.0, 0.0),), seats), plan)
        assert report.max_abs_residual_ms == max(abs(s.residual_ms) for s in report.seats)
        assert report.max_abs_residual_ms == pytest.approx(100.0 / 343.0)

    def test_seat_beyond_span_is_flagged(self):
        plan = plan_zones(60.96, 30.0, 343.0)
        venue = Venue((Position(0.0, 0.0),), (Seat("FAR", Position(0.0, 100.0)),))
        report = verify_plan(venue, plan)
        assert report.uncovered_seat_ids == ["FAR"]
        assert not report.seats[0].covered

    def test_speed_mismatch_rejected(self):
        plan = plan_zones(60.96, 30.0, 343.0)
        venue = Venue((Position(0.0, 0.0),), (), speed_of_sound_m_per_s=320.0)
        with pytest.raises(ValueError, match="speed"):
            verify_plan(venue, plan)


class TestPlanSerialization:
    def test_round_trip(self):
        plan = plan_zones(60.96, 30.0, 343.0)
        again = plan_from_dict(plan_to_dict(plan))
        assert again == plan

    def test_load_from_file(self, tmp_path):
        plan = plan_zones(25.0, 10.0, 343.0)
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_to_dict(plan)))
        assert load_plan(path) == plan

    def test_survives_6_significant_digit_rounding(self):
        plan = plan_zones(60.96, 30.0, 343.0)
        data = plan_to_dict(plan)

        def round6(v):
            return float(format(v, ".6g")) if isinstance(v, float) else v

        rounded = {
            "tolerance_ms": round6(data["tolerance_ms"]),
            "speed_of_sound_m_per_s": round6(data["speed_of_sound_m_per_s"]),
            "zones": [{k: round6(v) for k, v in z.items()} for z in data["zones"]],
        }
        again = plan_from_dict(rounded)
        assert len(again.zones) == 3
        assert again.span_ms == pytest.approx(plan.span_ms, rel=1e-5)

    def test_unknown_key_rejected(self):
        data = plan_to_dict(plan_zones(10.0, 30.0))
        data["extra"] = 1
        with pytest.raises(ValueError, match="unknown key 'extra'"):
            plan_from_dict(data)

    def test_gap_rejected(self):
        data = plan_to_dict(plan_zones(60.96, 30.0))
        data["zones"][1]["delay_lo_ms"] += 1.0
        with pytest.raises(ValueError, match="starts at"):
            plan_from_dict(data)

    def test_non_midpoint_presentation_rejected(self):
        data = plan_to_dict(plan_zones(60.96, 30.0))
        data["zones"][0]["presentation_delay_ms"] += 2.0
        with pytest.raises(ValueError, match="midpoint"):
            plan_from_dict(data)

    # Below a 1 ms span the slack is 2e-5 ms. Each check takes a one-zone plan
    # off by exactly that and rejects one off by 3e-5 ms. At 1000 m/s a
    # distance in m is the same number as its delay in ms.
    @pytest.mark.parametrize(
        "lo, hi, presentation, distance_lo, rejected",
        [
            (2e-5, 0.5, (2e-5 + 0.5) / 2.0, 2e-5, None),
            (3e-5, 0.5, (3e-5 + 0.5) / 2.0, 3e-5, "zone 0 starts at 3e-05, expected 0.0"),
            (0.0, 0.0, 2e-5, 0.0, None),
            (0.0, 0.0, 3e-5, 0.0, "zone 0 presentation delay 3e-05 is not the midpoint 0.0"),
            (0.0, 0.50002, 0.25001, 0.0, None),
            (0.0, 0.50003, 0.250015, 0.0, "zone 0 width 0.50003 exceeds 2*tolerance 0.5"),
            (0.0, 0.0, 0.0, 2e-5, None),
            (0.0, 0.0, 0.0, 3e-5, "zone 0 distance 3e-05 inconsistent with delay 0.0"),
        ],
        ids=["start", "start-over", "midpoint", "midpoint-over", "width", "width-over", "distance", "distance-over"],
    )
    def test_checks_take_exactly_the_slack(self, lo, hi, presentation, distance_lo, rejected):
        zones = (Zone(0, lo, hi, presentation, distance_lo, hi),)
        if rejected is None:
            assert DelayPlan(0.25, 1000.0, zones).zones == zones
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(rejected)}$"):
                DelayPlan(0.25, 1000.0, zones)


class TestResidualBoundProperty:
    @given(
        d=st.floats(min_value=0.001, max_value=500),
        tol=st.floats(min_value=5, max_value=50),
        fractions=st.lists(st.floats(min_value=0, max_value=1), min_size=1, max_size=20),
    )
    @settings(max_examples=300)
    def test_every_covered_delay_within_tolerance(self, d, tol, fractions):
        plan = plan_zones(d, tol)
        for frac in fractions:
            delay = frac * plan.span_ms
            zone = zone_for_delay(plan, delay)
            assert abs(residual_delay_ms(delay, zone.presentation_delay_ms)) <= tol


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: plan_zones(10.0, INF),
        lambda: DelayPlan(NAN, 343.0, plan_zones(10.0, 30.0).zones),
        lambda: DelayPlan(INF, 343.0, plan_zones(10.0, 30.0).zones),
        lambda: DelayPlan(30.0, NAN, plan_zones(10.0, 30.0).zones),
        lambda: Zone(0, NAN, NAN, NAN, NAN, NAN),
        lambda: Zone(0, 0.0, INF, INF, 0.0, INF),
        lambda: Zone(0, 0.0, 10.0, NAN, 0.0, 3.43),
    ],
    ids=[
        "plan-tolerance-inf",
        "tolerance-nan",
        "tolerance-inf",
        "speed-nan",
        "zone-all-nan",
        "zone-hi-inf",
        "zone-presentation-nan",
    ],
)
def test_nonfinite_numbers_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "tolerance, speed, message",
    [
        (0.0, 343.0, "tolerance_ms must be > 0, got 0.0"),
        (30.0, 0.0, "speed of sound must be > 0, got 0.0"),
        (30.0, INF, "speed of sound must be > 0, got inf"),
    ],
    ids=["tolerance-0", "speed-0", "speed-inf"],
)
def test_plan_range_edges_rejected(tolerance, speed, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DelayPlan(tolerance, speed, plan_zones(10.0, 30.0).zones)


def test_slow_speed_of_sound_accepted():
    # 10 m at 0.5 m/s is a 20 s span: 334 zones of at most 60 ms
    assert len(plan_zones(10.0, 30.0, 0.5).zones) == 334


def test_zone_count_capped_before_building():
    with pytest.raises(ValueError, match="zones"):
        plan_zones(60.96, 1e-300)
    with pytest.raises(ValueError, match="zones"):
        plan_zones(60.96, SPAN_200FT / (2 * 100_001))


def test_exactly_the_zone_cap_accepted(monkeypatch):
    # 68.6 m at 343 m/s is exactly 200 ms: 4 zones of 50 ms at a 25 ms tolerance
    monkeypatch.setattr(planner, "_MAX_ZONES", 4)
    assert len(plan_zones(68.6, 25.0).zones) == 4
    with pytest.raises(ValueError, match="^a 200.0 ms span at tolerance 24.99 ms needs more than 4 zones$"):
        plan_zones(68.6, 24.99)
