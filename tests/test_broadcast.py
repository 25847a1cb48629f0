import json

import pytest
from hypothesis import given, strategies as st

from alsalign.broadcast import (
    AdvertisingTrain,
    AudioStreamDescriptor,
    BroadcastSink,
    BroadcastSource,
    BufferExceededError,
    ParameterUnsupportedError,
    SpecMode,
    TransportKind,
    airtime_occupancy,
    default_sink,
    end_to_end_residual_ms,
    load_broadcast_config,
    sink_apply_delays,
    source_from_dict,
    transport_propagation_delay_ms,
    validate_config,
)


def stream(sid="s1", airtime=0.30):
    return AudioStreamDescriptor(id=sid, sample_rate_hz=48000, channels=2, airtime_fraction=airtime)


def train(tid, target="s1", delay=30.0, airtime=0.01):
    return AdvertisingTrain(
        id=tid, target_stream_id=target, presentation_delay_ms=delay, codec="lc3-48-2", channels="stereo", airtime_fraction=airtime
    )


def one_stream_three_trains():
    return BroadcastSource(
        transport=TransportKind.ELECTROMAGNETIC,
        streams=(stream(),),
        trains=(train("t1", delay=29.6), train("t2", delay=88.9), train("t3", delay=148.1)),
    )


class TestValidateConfig:
    def test_strict_rejects_shared_stream(self):
        violations = validate_config(one_stream_three_trains(), SpecMode.STRICT)
        assert len(violations) == 1
        v = violations[0]
        assert v.rule == "multi-train-per-stream"
        assert set(v.offending_ids) == {"s1", "t1", "t2", "t3"}

    def test_strict_rejects_two_trains_on_one_stream(self):
        source = BroadcastSource(streams=(stream(),), trains=(train("t1"), train("t2")))
        violations = validate_config(source, SpecMode.STRICT)
        assert [v.offending_ids for v in violations] == [("s1", "t1", "t2")]

    def test_amended_accepts_shared_stream(self):
        assert validate_config(one_stream_three_trains(), SpecMode.AMENDED) == []

    def test_one_to_one_is_fine_in_strict(self):
        source = BroadcastSource(streams=(stream(),), trains=(train("t1"),))
        assert validate_config(source, SpecMode.STRICT) == []

    def test_amended_is_a_relaxation(self):
        # anything strict accepts, amended accepts too
        sources = [
            BroadcastSource(),
            BroadcastSource(streams=(stream(),), trains=(train("t1"),)),
            BroadcastSource(streams=(stream("a"), stream("b")), trains=(train("t1", "a"), train("t2", "b"))),
        ]
        for source in sources:
            if not validate_config(source, SpecMode.STRICT):
                assert validate_config(source, SpecMode.AMENDED) == []

    def test_unknown_target_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown stream"):
            BroadcastSource(streams=(stream(),), trains=(train("t1", target="ghost"),))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate stream ids"):
            BroadcastSource(streams=(stream("s1"), stream("s1")))
        with pytest.raises(ValueError, match="duplicate train ids"):
            BroadcastSource(streams=(stream(),), trains=(train("t1"), train("t1")))


class TestSinkApplyDelays:
    def test_strict_at_cap(self):
        sink = BroadcastSink(max_presentation_delay_ms=40.0)
        assert sink_apply_delays(sink, 40.0, SpecMode.STRICT) == 40.0

    def test_strict_over_cap(self):
        sink = BroadcastSink(max_presentation_delay_ms=40.0)
        with pytest.raises(BufferExceededError):
            sink_apply_delays(sink, 100.0, SpecMode.STRICT)

    def test_strict_caps_at_40_even_with_big_buffer(self):
        sink = BroadcastSink(max_presentation_delay_ms=1000.0)
        with pytest.raises(BufferExceededError):
            sink_apply_delays(sink, 40.0 + 1e-9, SpecMode.STRICT)

    def test_strict_rejects_local_delay(self):
        sink = BroadcastSink(max_presentation_delay_ms=40.0, local_alignment_delay_ms=10.0)
        with pytest.raises(ParameterUnsupportedError):
            sink_apply_delays(sink, 0.0, SpecMode.STRICT)

    def test_amended_sums_delays(self):
        sink = BroadcastSink(max_presentation_delay_ms=500.0, local_alignment_delay_ms=27.73)
        total = sink_apply_delays(sink, 150.0, SpecMode.AMENDED)
        assert total == pytest.approx(177.73)

    def test_amended_buffer_boundary(self):
        sink = BroadcastSink(max_presentation_delay_ms=500.0)
        assert sink_apply_delays(sink, 500.0, SpecMode.AMENDED) == 500.0
        with pytest.raises(BufferExceededError):
            sink_apply_delays(sink, 500.0 + 1e-9, SpecMode.AMENDED)

    def test_negative_presentation_rejected(self):
        with pytest.raises(ValueError):
            sink_apply_delays(BroadcastSink(40.0), -1.0, SpecMode.STRICT)

    def test_default_sinks(self):
        assert default_sink(SpecMode.STRICT).max_presentation_delay_ms == 40.0
        assert default_sink(SpecMode.AMENDED).max_presentation_delay_ms == 500.0


class TestTransport:
    def test_electromagnetic_is_instantaneous(self):
        assert transport_propagation_delay_ms(TransportKind.ELECTROMAGNETIC, 60.0) == 0.0

    def test_ultrasound_travels_at_sound_speed(self):
        delay = transport_propagation_delay_ms(TransportKind.ULTRASOUND, 60.0, 343.0)
        assert delay == pytest.approx(60000.0 / 343.0)

    def test_zero_distance(self):
        for kind in TransportKind:
            assert transport_propagation_delay_ms(kind, 0.0) == 0.0

    def test_negative_distance_rejected(self):
        with pytest.raises(ValueError):
            transport_propagation_delay_ms(TransportKind.ULTRASOUND, -1.0)


class TestEndToEndResidual:
    def test_ultrasound_self_compensates(self):
        # carrier and acoustic wave share the propagation delay exactly
        for d in (0.0, 12.5, 60.96, 313.0):
            acoustic = 1000.0 * d / 343.0
            transport = transport_propagation_delay_ms(TransportKind.ULTRASOUND, d, 343.0)
            assert end_to_end_residual_ms(acoustic, transport, 0.0, 0.0) == 0.0

    def test_fully_compensated_em_path(self):
        assert end_to_end_residual_ms(177.73, 0.0, 150.0, 27.73) == pytest.approx(0.0, abs=1e-12)

    def test_uncompensated(self):
        assert end_to_end_residual_ms(174.93, 0.0, 0.0, 0.0) == 174.93

    @given(
        acoustic=st.floats(min_value=0, max_value=1000),
        compensation=st.floats(min_value=0, max_value=1000),
    )
    def test_antisymmetric(self, acoustic, compensation):
        fwd = end_to_end_residual_ms(acoustic, compensation, 0.0, 0.0)
        rev = end_to_end_residual_ms(compensation, acoustic, 0.0, 0.0)
        assert fwd == -rev


class TestAirtime:
    def test_three_streams_three_trains(self):
        source = BroadcastSource(
            streams=(stream("a"), stream("b"), stream("c")),
            trains=(train("t1", "a"), train("t2", "b"), train("t3", "c")),
        )
        assert airtime_occupancy(source) == pytest.approx(0.93)

    def test_one_stream_three_trains_is_cheaper(self):
        assert airtime_occupancy(one_stream_three_trains()) == pytest.approx(0.33)

    def test_empty_source(self):
        assert airtime_occupancy(BroadcastSource()) == 0.0

    @given(
        n=st.integers(min_value=2, max_value=12),
        per_stream=st.floats(min_value=0.02, max_value=0.5),
        per_train=st.floats(min_value=0.001, max_value=0.019),
    )
    def test_shared_stream_beats_n_copies(self, n, per_stream, per_train):
        trains = tuple(train(f"t{i}", "s1", airtime=per_train) for i in range(n))
        shared = BroadcastSource(streams=(stream("s1", per_stream),), trains=trains)
        copies = BroadcastSource(
            streams=tuple(stream(f"s{i}", per_stream) for i in range(1, n + 1)),
            trains=tuple(train(f"t{i}", f"s{i + 1}", airtime=per_train) for i in range(n)),
        )
        assert airtime_occupancy(shared) < airtime_occupancy(copies)


class TestBroadcastConfigFile:
    def test_load_example_schema(self, tmp_path):
        cfg = {
            "mode": "strict",
            "transport": "electromagnetic",
            "streams": [
                {"id": "s1", "sample_rate_hz": 48000, "channels": 2, "airtime_fraction": 0.30},
                {"id": "s2", "sample_rate_hz": 16000},
            ],
            "trains": [
                {
                    "id": "t1",
                    "target_stream_id": "s1",
                    "presentation_delay_ms": 30,
                    "codec": "lc3-48-2",
                    "channels": "stereo",
                    "airtime_fraction": 0.01,
                },
                {"id": "t2", "target_stream_id": "s2", "presentation_delay_ms": 5},
            ],
        }
        path = tmp_path / "bc.json"
        path.write_text(json.dumps(cfg))
        source = load_broadcast_config(path)
        # absent keys take the dataclass defaults; repr also pins int against float
        expected = BroadcastSource(
            TransportKind.ELECTROMAGNETIC,
            (AudioStreamDescriptor("s1", 48000, 2, 0.30), AudioStreamDescriptor("s2", 16000, 1, 0.30)),
            (
                AdvertisingTrain("t1", "s1", 30.0, "lc3-48-2", "stereo", 0.01),
                AdvertisingTrain("t2", "s2", 5.0, "", "", 0.01),
            ),
            SpecMode.STRICT,
        )
        assert repr(source) == repr(expected)

    def test_mode_is_optional(self):
        source = source_from_dict({"streams": [], "trains": []})
        assert source.mode is SpecMode.STRICT
        assert source.streams == ()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key 'power'"):
            source_from_dict({"streams": [], "trains": [], "power": 9000})

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            source_from_dict({"transport": "carrier-pigeon"})

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"transport": "carrier-pigeon"}, "unknown transport 'carrier-pigeon' in broadcast config"),
            ({"mode": "Lenient"}, "unknown mode 'Lenient' in broadcast config"),
            ({"mode": True}, "key 'mode' in broadcast config must be a JSON string, got true"),
            ({"mode": None}, "key 'mode' in broadcast config must be a JSON string, got null"),
            ({"transport": 5}, "key 'transport' in broadcast config must be a JSON string, got 5"),
        ],
        ids=["unknown-transport", "unknown-mode", "bool-mode", "null-mode", "number-transport"],
    )
    def test_mode_and_transport_message(self, data, message):
        # mode and transport are JSON strings; nothing else is coerced to one
        with pytest.raises(ValueError) as err:
            source_from_dict(data)
        assert str(err.value) == message

    def test_mode_and_transport_read_in_any_case(self):
        source = source_from_dict({"mode": "AMENDED", "transport": "Ultrasound"})
        assert (source.mode, source.transport) == (SpecMode.AMENDED, TransportKind.ULTRASOUND)

    def test_defaults_applied(self):
        source = source_from_dict(
            {
                "streams": [{"id": "s1", "sample_rate_hz": 48000}],
                "trains": [{"id": "t1", "target_stream_id": "s1", "presentation_delay_ms": 0}],
            }
        )
        assert source.streams[0].airtime_fraction == 0.30
        assert source.trains[0].airtime_fraction == 0.01


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "call",
    [
        lambda: BroadcastSink(NAN),
        lambda: BroadcastSink(INF),
        lambda: BroadcastSink(500.0, NAN),
        lambda: BroadcastSink(500.0, INF),
        lambda: AdvertisingTrain("T", "S", NAN),
        lambda: AdvertisingTrain("T", "S", INF),
        lambda: sink_apply_delays(BroadcastSink(NAN), 1e9, SpecMode.AMENDED),
        lambda: sink_apply_delays(BroadcastSink(500.0), NAN, SpecMode.AMENDED),
        lambda: sink_apply_delays(BroadcastSink(40.0), INF, SpecMode.STRICT),
        lambda: transport_propagation_delay_ms(TransportKind.ULTRASOUND, 1e308),
        lambda: AudioStreamDescriptor("S", INF),
        lambda: transport_propagation_delay_ms(TransportKind.ELECTROMAGNETIC, INF),
    ],
    ids=[
        "sink-buffer-nan",
        "sink-buffer-inf",
        "sink-local-nan",
        "sink-local-inf",
        "train-delay-nan",
        "train-delay-inf",
        "nan-buffer-no-cap",
        "presentation-nan",
        "presentation-inf",
        "ultrasound-overflow",
        "stream-rate-inf",
        "distance-inf",
    ],
)
def test_nonfinite_numbers_rejected(call):
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: AudioStreamDescriptor("S", 48000, airtime_fraction=0.0),
        lambda: AudioStreamDescriptor("S", 48000, airtime_fraction=1.0),
        lambda: AdvertisingTrain("T", "S", 0.0, airtime_fraction=0.0),
        lambda: AdvertisingTrain("T", "S", 0.0, airtime_fraction=1.0),
        lambda: AudioStreamDescriptor("S", 1),
        lambda: BroadcastSink(1.0),
    ],
    ids=["stream-airtime-0", "stream-airtime-1", "train-airtime-0", "train-airtime-1", "stream-rate-1", "sink-buffer-1"],
)
def test_range_ends_accepted(call):
    # airtime fractions are a closed range; a rate or buffer need only be above 0
    call()


def test_zero_sink_buffer_rejected():
    with pytest.raises(ValueError, match="max_presentation_delay_ms must be > 0"):
        BroadcastSink(0.0)
