"""Span recorder arithmetic and the installation of the layer wrappers."""

import pytest

from alsalign import autoconnect, planner, signals
from spans import LAYER_FUNCTIONS, Recorder, _search_counts, tracing


class FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return float(next(self._ticks))


def test_self_time_is_duration_minus_direct_children():
    # op [0, 12] contains a [1, 7] and c [8, 10]; a contains b [2, 5]
    rec = Recorder(clock=FakeClock([0, 1, 2, 5, 7, 8, 10, 12]))
    op = rec.begin(rec.name_id("op"))
    a = rec.begin(rec.name_id("a"))
    b = rec.begin(rec.name_id("b"))
    rec.end(b)
    rec.end(a)
    c = rec.begin(rec.name_id("c"))
    rec.end(c)
    rec.end(op)
    summary = rec.summary()
    assert summary == {"op": (1, 4.0), "a": (1, 3.0), "b": (1, 3.0), "c": (1, 2.0)}
    assert sum(s for _, s in summary.values()) == 12.0  # self times tile the root span


def test_self_time_sums_over_calls_of_one_name():
    rec = Recorder(clock=FakeClock([0, 1, 3, 4, 7, 10]))
    with rec.span("op"):
        for _ in range(2):
            with rec.span("leaf"):
                pass
    assert rec.summary() == {"op": (1, 5.0), "leaf": (2, 5.0)}


def test_adopted_spans_count_against_their_new_parent():
    child = Recorder(clock=FakeClock([0, 1, 2, 3]))
    with child.span("cli.main"):
        with child.span("planner.plan_zones"):
            pass
    child.counts["planner.plan_zones.zones"] += 3
    rec = Recorder(clock=FakeClock([100, 110]))
    with rec.span("op") as op:
        rec.adopt(child.dump(), parent=op)
    assert rec.summary() == {"op": (1, 7.0), "cli.main": (1, 2.0), "planner.plan_zones": (1, 1.0)}
    assert rec.counts["planner.plan_zones.zones"] == 3


def test_summary_refuses_open_spans():
    rec = Recorder()
    rec.begin(rec.name_id("op"))
    with pytest.raises(RuntimeError):
        rec.summary()


def test_search_counts_match_a_brute_force_sum():
    mic = signals.gen_white_noise(1, 100.0, 16000)
    stream = signals.gen_white_noise(2, 90.0, 16000)
    counts = _search_counts((mic, stream, 20.0), {}, None)
    n, max_lag = len(stream), 320
    assert counts == {"lags": max_lag + 1, "macs": sum(n - lag for lag in range(max_lag + 1))}
    assert _search_counts((mic,), {"stream": stream, "max_lag_ms": 20.0}, None) == counts


def test_tracing_wraps_where_callers_look_up_and_restores():
    originals = (planner.delay_map, planner.zone_for_delay, planner.classify_residual, autoconnect.sink_apply_delays)
    from alsalign import acoustics

    venue = acoustics.venue_from_dict(
        {"loudspeakers": [{"x_m": 0, "y_m": 0}], "seats": [{"id": f"s{k}", "x_m": 0, "y_m": 3.0 * k} for k in range(4)]}
    )
    plan = planner.plan_zones(9.0, 5.0)
    rec = Recorder()
    with tracing(rec):
        assert planner.delay_map is not originals[0]
        planner.verify_plan(venue, plan)
        with pytest.raises(RuntimeError):
            with tracing(Recorder()):
                pass
    assert (planner.delay_map, planner.zone_for_delay, planner.classify_residual, autoconnect.sink_apply_delays) == originals
    summary = rec.summary()
    assert summary["planner.verify_plan"][0] == 1
    assert summary["acoustics.delay_map"][0] == 1  # called through planner's own global
    assert summary["planner.zone_for_delay"][0] == 4
    assert summary["perception.classify_residual"][0] == 4
    assert rec.counts["acoustics.delay_map.seats"] == 4
    assert rec.counts["planner.verify_plan.uncovered"] == 0


def test_sink_rejections_are_counted_and_reraised():
    from alsalign import broadcast

    rec = Recorder()
    sink = broadcast.BroadcastSink(40.0, local_alignment_delay_ms=5.0)
    with tracing(rec):
        with pytest.raises(broadcast.ParameterUnsupportedError):
            broadcast.sink_apply_delays(sink, 0.0, broadcast.SpecMode.STRICT)
        broadcast.sink_apply_delays(sink, 0.0, broadcast.SpecMode.AMENDED)
    assert rec.summary()["broadcast.sink_apply_delays"][0] == 2
    assert rec.counts["broadcast.sink_apply_delays.rejected"] == 1


def test_every_layer_function_exists():
    import alsalign

    for module, attr, _, _ in LAYER_FUNCTIONS:
        owner = getattr(alsalign, module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner)
