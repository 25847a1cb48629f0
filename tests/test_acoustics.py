import json
import time

import pytest
from hypothesis import given, strategies as st

from alsalign.acoustics import (
    Position,
    Seat,
    Venue,
    delay_map,
    load_venue,
    propagation_delay_ms,
    venue_from_dict,
)


class TestPropagationDelay:
    def test_200ft_is_about_180ms(self):
        delay = propagation_delay_ms(60.96, 343.0)
        assert delay == pytest.approx(1000.0 * 60.96 / 343.0, abs=1e-9)
        assert abs(delay - 180.0) <= 6.0

    def test_zero_distance(self):
        assert propagation_delay_ms(0.0, 343.0) == 0.0

    def test_10m_is_just_under_30ms(self):
        delay = propagation_delay_ms(10.0, 343.0)
        assert delay == pytest.approx(10000.0 / 343.0)
        assert delay < 30.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            propagation_delay_ms(-1.0, 343.0)
        with pytest.raises(ValueError, match=r"^distance_m must be >= 0, got inf$"):
            propagation_delay_ms(float("inf"), 343.0)

    def test_bad_speed_rejected(self):
        with pytest.raises(ValueError):
            propagation_delay_ms(1.0, 0.0)
        with pytest.raises(ValueError, match=r"^speed must be > 0, got inf$"):
            propagation_delay_ms(1.0, float("inf"))
        assert propagation_delay_ms(1.0, 0.5) == 2000.0

    @given(d=st.floats(min_value=0, max_value=1000))
    def test_linear_in_distance(self, d):
        assert propagation_delay_ms(2 * d, 343.0) == pytest.approx(2 * propagation_delay_ms(d, 343.0), rel=1e-12)


def venue_one_speaker(seats):
    return Venue(loudspeakers=(Position(0.0, 0.0),), seats=tuple(seats))


class TestSeatAcousticDelay:
    def test_10m_seat(self):
        venue = venue_one_speaker([Seat("A1", Position(0.0, 10.0))])
        assert delay_map(venue)[0].acoustic_delay_ms == pytest.approx(10000.0 / 343.0)

    def test_equidistant_speakers(self):
        venue = Venue(
            loudspeakers=(Position(-3.0, 0.0), Position(3.0, 0.0)),
            seats=(Seat("A1", Position(0.0, 4.0)),),
        )
        # both speakers are 5 m away
        assert delay_map(venue)[0].acoustic_delay_ms == pytest.approx(5000.0 / 343.0)

    def test_distance_is_euclidean(self):
        speaker, seat = Position(3.0, 4.0), Position(6.0, 8.0)
        assert speaker.distance_to(seat) == seat.distance_to(speaker) == 5.0
        venue = Venue(loudspeakers=(speaker,), seats=(Seat("A1", seat),))
        assert delay_map(venue)[0].acoustic_delay_ms == pytest.approx(5000.0 / 343.0)

    def test_first_arrival_wins(self):
        venue = Venue(
            loudspeakers=(Position(0.0, 5.0), Position(0.0, 20.0)),
            seats=(Seat("A1", Position(0.0, 0.0)),),
        )
        assert delay_map(venue)[0].acoustic_delay_ms == pytest.approx(5000.0 / 343.0)


class TestDelayMap:
    def test_sorted_rows(self):
        venue = venue_one_speaker(
            [
                Seat("B2", Position(0.0, 2.0)),
                Seat("A1", Position(0.0, 1.0)),
                Seat("C3", Position(0.0, 3.0)),
            ]
        )
        rows = delay_map(venue)
        assert [r.seat_id for r in rows] == ["A1", "B2", "C3"]
        assert rows[0].distance_m == pytest.approx(1.0)

    def test_200ft_row(self):
        venue = venue_one_speaker([Seat("Z", Position(0.0, 60.96))])
        (row,) = delay_map(venue)
        assert row.acoustic_delay_ms == pytest.approx(1000.0 * 60.96 / 343.0)

    def test_empty_seats(self):
        assert delay_map(venue_one_speaker([])) == []


class TestVenueType:
    def test_needs_loudspeaker(self):
        with pytest.raises(ValueError):
            Venue(loudspeakers=())

    def test_speed_range(self):
        assert Venue((Position(0.0, 0.0),), (), 0.5).speed_of_sound_m_per_s == 0.5
        for speed in (0.0, float("inf")):
            with pytest.raises(ValueError, match=rf"^speed of sound must be > 0, got {speed}$"):
                Venue((Position(0.0, 0.0),), (), speed)

    def test_duplicate_seat_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            venue_one_speaker([Seat("A", Position(0, 1)), Seat("A", Position(0, 2))])
        # each repeated id once, sorted
        seats = [Seat(i, Position(0, k)) for k, i in enumerate(["C", "A", "B", "C", "A", "C"])]
        with pytest.raises(ValueError, match=r"^duplicate seat ids: \['A', 'C'\]$"):
            venue_one_speaker(seats)

    def test_one_duplicate_among_many_seats_rejected_quickly(self):
        # listing the duplicates used to take one count per seat: 9 s here
        seats = [Seat(f"S{k}", Position(0, k)) for k in range(20_000)] + [Seat("S0", Position(1, 0))]
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^duplicate seat ids: \['S0'\]$"):
            venue_one_speaker(seats)
        assert time.perf_counter() - start < 1.0

    def test_nonfinite_position_rejected(self):
        with pytest.raises(ValueError):
            Position(float("nan"), 0.0)


class TestVenueConfig:
    def test_minimal_roundtrip(self, tmp_path):
        cfg = {
            "speed_of_sound_m_per_s": 340.0,
            "loudspeakers": [{"x_m": 0, "y_m": 0}, {"y_m": -2.5, "x_m": 3}],
            "seats": [{"id": "A1", "x_m": 0, "y_m": 5}],
        }
        path = tmp_path / "venue.json"
        path.write_text(json.dumps(cfg))
        venue = load_venue(path)
        # repr also pins int against float
        expected = Venue((Position(0.0, 0.0), Position(3.0, -2.5)), (Seat("A1", Position(0.0, 5.0)),), 340.0)
        assert repr(venue) == repr(expected)

    def test_speed_defaults_to_343(self):
        venue = venue_from_dict({"loudspeakers": [{"x_m": 0, "y_m": 0}], "seats": []})
        assert venue.speed_of_sound_m_per_s == 343.0

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'wibble'"):
            venue_from_dict({"loudspeakers": [{"x_m": 0, "y_m": 0}], "wibble": 1})

    def test_unknown_seat_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'z_m'"):
            venue_from_dict(
                {"loudspeakers": [{"x_m": 0, "y_m": 0}], "seats": [{"id": "A", "x_m": 0, "y_m": 0, "z_m": 1}]}
            )

    def test_missing_loudspeakers_rejected(self):
        with pytest.raises(ValueError, match="missing key 'loudspeakers'"):
            venue_from_dict({"seats": []})

    @pytest.mark.parametrize("array", [list, tuple])
    def test_entry_named_with_its_index(self, array):
        # a Python tuple holds a list key's entries just as a list does
        loudspeakers = array(({"x_m": 0, "y_m": 0}, {"x_m": 1}))
        with pytest.raises(ValueError, match=r"^missing key 'y_m' in loudspeakers\[1\]$"):
            venue_from_dict({"loudspeakers": loudspeakers})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: Venue((Position(0.0, 0.0),), (), NAN),
        lambda: Venue((Position(0.0, 0.0),), (), INF),
        lambda: propagation_delay_ms(NAN, 343.0),
        lambda: propagation_delay_ms(INF, 343.0),
        lambda: propagation_delay_ms(1e308, 343.0),
        lambda: propagation_delay_ms(10.0, NAN),
        lambda: propagation_delay_ms(10.0, INF),
    ],
    ids=[
        "venue-speed-nan",
        "venue-speed-inf",
        "distance-nan",
        "distance-inf",
        "delay-overflow",
        "speed-nan",
        "speed-inf",
    ],
)
def test_nonfinite_numbers_rejected(call):
    with pytest.raises(ValueError):
        call()
