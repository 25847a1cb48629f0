import contextlib
import csv
import functools
import importlib
import io
import json
import math
import pkgutil
import random
import sys
import tempfile
import wave
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import alsalign
from alsalign.cli import build_parser, main, parse_signal_source
from alsalign.planner import plan_to_dict, plan_zones
from alsalign.signals import add_noise_snr, delay_signal, gen_sine, gen_white_noise, write_wav

REPO = Path(__file__).resolve().parents[1]
DEMO_VENUE = REPO / "demo" / "venue.json"
DEMO_BROADCAST = REPO / "demo" / "broadcast.json"


def write_venue_200ft(tmp_path: Path, n_seats: int = 20) -> Path:
    seats = [
        {"id": f"S{i:04d}", "x_m": 0.0, "y_m": 60.96 * i / (n_seats - 1)} for i in range(n_seats)
    ]
    path = tmp_path / "venue.json"
    path.write_text(
        json.dumps({"loudspeakers": [{"x_m": 0, "y_m": 0}], "seats": seats})
    )
    return path


class TestParser:
    def test_subcommands_exist(self):
        parser = build_parser()
        args = parser.parse_args(["plan", "--venue", "v.json", "--out", "p.json"])
        assert args.command == "plan"
        assert args.tolerance_ms == 30.0
        args = parser.parse_args(["autoconnect", "--mic", "m", "--out", "o.json"])
        assert args.max_lag_ms == 500.0
        assert args.threshold == 0.3
        assert args.mode == "amended"
        assert args.seed == 0

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestPlanCommand:
    def test_200ft_makes_three_zones(self, tmp_path, capsys):
        venue = write_venue_200ft(tmp_path)
        out = tmp_path / "plan.json"
        assert main(["plan", "--venue", str(venue), "--tolerance-ms", "30", "--out", str(out)]) == 0
        assert "zones: 3" in capsys.readouterr().out
        plan = json.loads(out.read_text())
        assert len(plan["zones"]) == 3
        assert plan["zones"][0]["delay_lo_ms"] == 0.0

    def test_zero_tolerance_is_usage_error(self, tmp_path, capsys):
        venue = write_venue_200ft(tmp_path)
        rc = main(["plan", "--venue", str(venue), "--tolerance-ms", "0", "--out", str(tmp_path / "p.json")])
        assert rc == 2
        assert "tolerance" in capsys.readouterr().err

    def test_single_seat_at_stage(self, tmp_path):
        venue = tmp_path / "venue.json"
        venue.write_text(
            json.dumps({"loudspeakers": [{"x_m": 0, "y_m": 0}], "seats": [{"id": "A", "x_m": 0, "y_m": 0}]})
        )
        out = tmp_path / "plan.json"
        assert main(["plan", "--venue", str(venue), "--out", str(out)]) == 0
        plan = json.loads(out.read_text())
        assert len(plan["zones"]) == 1
        assert plan["zones"][0]["presentation_delay_ms"] == 0.0

    def test_last_edge_of_one_metre_is_kept(self, tmp_path):
        # the published last edge is rounded up at the 6th digit; 1.0 is on that grid
        venue = tmp_path / "venue.json"
        venue.write_text(
            json.dumps({"loudspeakers": [{"x_m": 0, "y_m": 0}], "seats": [{"id": "A", "x_m": 0, "y_m": 1}]})
        )
        out = tmp_path / "plan.json"
        assert main(["plan", "--venue", str(venue), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["zones"][-1]["distance_hi_m"] == 1.0

    def test_venue_without_seats_spans_nothing(self, tmp_path, capsys):
        venue = tmp_path / "venue.json"
        venue.write_text(json.dumps({"loudspeakers": [{"x_m": 0, "y_m": 0}]}))
        out = tmp_path / "plan.json"
        assert main(["plan", "--venue", str(venue), "--out", str(out)]) == 0
        assert "max residual bound: 0 ms" in capsys.readouterr().out
        assert json.loads(out.read_text())["zones"][-1]["delay_hi_ms"] == 0.0

    def test_malformed_venue_names_offending_key(self, tmp_path, capsys):
        venue = tmp_path / "venue.json"
        venue.write_text(json.dumps({"loudspeakers": [{"x_m": 0, "y_m": 0}], "zzz": 1}))
        rc = main(["plan", "--venue", str(venue), "--out", str(tmp_path / "p.json")])
        assert rc == 2
        assert "'zzz'" in capsys.readouterr().err

    def test_missing_file(self, tmp_path):
        assert main(["plan", "--venue", str(tmp_path / "nope.json"), "--out", str(tmp_path / "p.json")]) == 2


class TestMapCommand:
    def run_plan_and_map(self, tmp_path, venue):
        plan = tmp_path / "plan.json"
        out = tmp_path / "map.csv"
        assert main(["plan", "--venue", str(venue), "--out", str(plan)]) == 0
        assert main(["map", "--venue", str(venue), "--plan", str(plan), "--out", str(out)]) == 0
        return out.read_text().splitlines()

    def test_rows_within_tolerance(self, tmp_path):
        venue = write_venue_200ft(tmp_path, n_seats=50)
        lines = self.run_plan_and_map(tmp_path, venue)
        assert lines[0] == "seat_id,distance_m,acoustic_delay_ms,zone,presentation_delay_ms,residual_ms,class"
        assert len(lines) == 51
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[6] != "uncovered"
            assert abs(float(fields[5])) <= 30.0

    def test_rows_sorted_by_seat_id(self, tmp_path):
        venue = write_venue_200ft(tmp_path, n_seats=10)
        lines = self.run_plan_and_map(tmp_path, venue)
        ids = [line.split(",")[0] for line in lines[1:]]
        assert ids == sorted(ids)

    def test_empty_venue_gives_header_only(self, tmp_path):
        venue = tmp_path / "venue.json"
        venue.write_text(json.dumps({"loudspeakers": [{"x_m": 0, "y_m": 0}], "seats": []}))
        lines = self.run_plan_and_map(tmp_path, venue)
        assert len(lines) == 1

    def test_seat_beyond_plan_span_is_uncovered(self, tmp_path):
        venue = write_venue_200ft(tmp_path)
        plan = tmp_path / "plan.json"
        assert main(["plan", "--venue", str(venue), "--out", str(plan)]) == 0
        far_venue = tmp_path / "far.json"
        far_venue.write_text(
            json.dumps({"loudspeakers": [{"x_m": 0, "y_m": 0}], "seats": [{"id": "FAR", "x_m": 0, "y_m": 100}]})
        )
        out = tmp_path / "map.csv"
        assert main(["map", "--venue", str(far_venue), "--plan", str(plan), "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1]
        assert row.endswith(",uncovered")

    def test_seat_ids_with_csv_specials_read_back(self, tmp_path):
        ids = ["A,1", 'B"2', "C\n3", "D"]
        venue = tmp_path / "venue.json"
        venue.write_text(
            json.dumps(
                {
                    "loudspeakers": [{"x_m": 0, "y_m": 0}],
                    "seats": [{"id": seat, "x_m": 0, "y_m": 5.0 * k} for k, seat in enumerate(ids)],
                }
            )
        )
        plan = tmp_path / "plan.json"
        out = tmp_path / "map.csv"
        assert main(["plan", "--venue", str(venue), "--out", str(plan)]) == 0
        assert main(["map", "--venue", str(venue), "--plan", str(plan), "--out", str(out)]) == 0
        with out.open(newline="") as f:
            rows = list(csv.reader(f))
        assert [row[0] for row in rows] == ["seat_id", *ids]
        assert {len(row) for row in rows} == {7}
        assert [row[1] for row in rows[1:]] == ["0", "5", "10", "15"]  # distance_m, not a piece of an id

    def test_written_plan_is_read_back_at_any_speed(self, tmp_path, capsys):
        # plan writes 6 significant digits, the last edge rounded up; map must
        # accept that file whatever the speed of sound
        rng = random.Random(22)
        venue, plan = tmp_path / "venue.json", tmp_path / "plan.json"
        for _ in range(100):
            speed = round(10 ** rng.uniform(math.log10(300), 6), 1)
            distance = round(rng.uniform(1, 3000), 3)
            tolerance = rng.choice(["5", "10", "30"])
            venue.write_text(
                json.dumps(
                    {
                        "speed_of_sound_m_per_s": speed,
                        "loudspeakers": [{"x_m": 0, "y_m": 0}],
                        "seats": [{"id": "A", "x_m": distance, "y_m": 0}],
                    }
                )
            )
            assert main(["plan", "--venue", str(venue), "--tolerance-ms", tolerance, "--out", str(plan)]) == 0
            rc = main(["map", "--venue", str(venue), "--plan", str(plan), "--out", str(tmp_path / "map.csv")])
            assert rc == 0, (speed, distance, tolerance, capsys.readouterr().err)

    @pytest.mark.parametrize(
        "command",
        [["map", "--out", "m.csv"], ["simulate", "--seat", "S0", "--out", "r.json"]],
        ids=["map", "simulate"],
    )
    def test_speed_mismatch_is_input_error(self, tmp_path, capsys, command):
        # a plan's zones hold only at its own speed of sound, for map and simulate alike
        venue = write_venue_200ft(tmp_path)
        plan = tmp_path / "plan.json"
        assert main(["plan", "--venue", str(venue), "--out", str(plan)]) == 0
        capsys.readouterr()
        slow_venue = tmp_path / "slow.json"
        slow_venue.write_text(
            json.dumps(
                {
                    "speed_of_sound_m_per_s": 320,
                    "loudspeakers": [{"x_m": 0, "y_m": 0}],
                    "seats": [{"id": "S0", "x_m": 0, "y_m": 10}],
                }
            )
        )
        name, *rest, out = command
        rc = main([name, "--venue", str(slow_venue), "--plan", str(plan), *rest, str(tmp_path / out)])
        assert rc == 2
        assert capsys.readouterr() == ("", "error: venue speed 320.0 != plan speed 343.0\n")
        assert not (tmp_path / out).exists()


class TestSimulateCommand:
    def test_zone_midpoint_seat_is_aligned(self, tmp_path):
        venue = tmp_path / "venue.json"
        plan = tmp_path / "plan.json"
        # build the plan for a 200 ft hall, then drop a seat at zone 1's midpoint
        base = write_venue_200ft(tmp_path)
        assert main(["plan", "--venue", str(base), "--out", str(plan)]) == 0
        zones = json.loads(plan.read_text())["zones"]
        mid_m = (zones[1]["distance_lo_m"] + zones[1]["distance_hi_m"]) / 2
        venue.write_text(
            json.dumps({"loudspeakers": [{"x_m": 0, "y_m": 0}], "seats": [{"id": "M", "x_m": 0, "y_m": mid_m}]})
        )
        out = tmp_path / "report.json"
        assert main(["simulate", "--venue", str(venue), "--plan", str(plan), "--seat", "M", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["class"] == "aligned"
        assert abs(report["residual_ms"]) <= 0.1
        assert report["notch_frequencies_hz"] == []

    def test_far_seat_under_plan_is_reverberation(self, tmp_path):
        venue = write_venue_200ft(tmp_path)
        plan = tmp_path / "plan.json"
        assert main(["plan", "--venue", str(venue), "--out", str(plan)]) == 0
        out = tmp_path / "report.json"
        rc = main(["simulate", "--venue", str(venue), "--plan", str(plan), "--seat", "S0019", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["class"] == "reverberation"
        assert report["residual_ms"] == pytest.approx(29.62, abs=0.01)

    def test_far_seat_without_plan_is_echo(self, tmp_path):
        venue = write_venue_200ft(tmp_path)
        out = tmp_path / "report.json"
        assert main(["simulate", "--venue", str(venue), "--seat", "S0019", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["class"] == "echo"
        assert report["residual_ms"] == pytest.approx(177.726, abs=0.001)

    def test_seat_beyond_plan_span_is_uncompensated(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        assert main(["plan", "--venue", str(write_venue_200ft(tmp_path)), "--out", str(plan)]) == 0
        far_venue = tmp_path / "far.json"
        far_venue.write_text(
            json.dumps({"loudspeakers": [{"x_m": 0, "y_m": 0}], "seats": [{"id": "FAR", "x_m": 0, "y_m": 100}]})
        )
        capsys.readouterr()
        out = tmp_path / "report.json"
        argv = ["simulate", "--venue", str(far_venue), "--plan", str(plan), "--seat", "FAR", "--out", str(out)]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "seat FAR is beyond the plan span; simulating uncompensated playback"
        assert lines[1] == "seat FAR: residual 291.545 ms -> echo"
        report = json.loads(out.read_text())
        assert report["class"] == "echo"
        assert report["residual_ms"] == 291.545  # 100 m at 343 m/s, no presentation delay

    def test_unknown_seat_is_input_error(self, tmp_path, capsys):
        venue = write_venue_200ft(tmp_path)
        rc = main(["simulate", "--venue", str(venue), "--seat", "GHOST", "--out", str(tmp_path / "r.json")])
        assert rc == 2
        assert "GHOST" in capsys.readouterr().err


class TestAutoconnectCommand:
    def test_wav_mic_recovers_delay(self, tmp_path):
        mic = add_noise_snr(delay_signal(gen_white_noise(7, 1000, 16000), 120.0), 0.0, 42)
        wav = tmp_path / "mic.wav"
        write_wav(mic, wav)
        out = tmp_path / "sel.json"
        rc = main(
            [
                "autoconnect",
                "--mic", str(wav),
                "--stream", "A=noise:7:1000:16000",
                "--stream", "B=noise:8:1000:16000",
                "--max-lag-ms", "400",
                "--out", str(out),
            ]
        )
        assert rc == 0
        sel = json.loads(out.read_text())
        assert sel["stream_id"] == "A"
        assert sel["lag_ms"] == pytest.approx(120.0, abs=1000.0 / 16000.0)
        assert sel["applied_sink_delay_ms"] == sel["lag_ms"]

    def test_uncorrelated_mic_is_exit_1(self, tmp_path):
        out = tmp_path / "sel.json"
        rc = main(
            [
                "autoconnect",
                "--mic", "noise:100:1000:16000",
                "--stream", "A=noise:7:1000:16000",
                "--max-lag-ms", "400",
                "--out", str(out),
            ]
        )
        assert rc == 1
        sel = json.loads(out.read_text())
        assert sel["outcome"] == "no-match"
        assert sel["stream_id"] is None

    def test_forced_stream_wins(self, tmp_path):
        out = tmp_path / "sel.json"
        rc = main(
            [
                "autoconnect",
                "--mic", "noise:7:1000:16000",
                "--stream", "A=noise:7:1000:16000",
                "--stream", "B=noise:8:1000:16000",
                "--force-stream", "B",
                "--max-lag-ms", "400",
                "--out", str(out),
            ]
        )
        assert rc == 0
        sel = json.loads(out.read_text())
        assert sel["stream_id"] == "B"
        assert sel["forced"] is True

    def test_strict_mode_rejects_nonzero_lag(self, tmp_path, capsys):
        mic = delay_signal(gen_white_noise(7, 1000, 16000), 120.0)
        wav = tmp_path / "mic.wav"
        write_wav(mic, wav)
        out = tmp_path / "sel.json"
        rc = main(
            [
                "autoconnect",
                "--mic", str(wav),
                "--stream", "A=noise:7:1000:16000",
                "--mode", "strict",
                "--max-lag-ms", "400",
                "--out", str(out),
            ]
        )
        assert rc == 2
        assert "ParameterUnsupportedError" in capsys.readouterr().err
        sel = json.loads(out.read_text())
        assert sel["outcome"] == "error"
        assert sel["error"] == "ParameterUnsupportedError"

    def test_wav_over_sample_cap_is_input_error(self, tmp_path, capsys, monkeypatch):
        wav = tmp_path / "mic.wav"
        write_wav(gen_white_noise(7, 10, 16000), wav)
        # the cap is lowered so that no large file is written
        monkeypatch.setattr(alsalign.signals, "_MAX_SAMPLES", 100)
        argv = ["autoconnect", "--mic", str(wav), "--stream", "A=noise:7:5:16000", "--out", str(tmp_path / "o.json")]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: cannot read WAV {str(wav)!r}: 160 frames at 16000 Hz is more than 100 samples\n"

    def test_no_stream_is_usage_error(self, tmp_path, capsys):
        rc = main(["autoconnect", "--mic", "noise:1:100:8000", "--out", str(tmp_path / "x.json")])
        assert rc == 2
        assert capsys.readouterr().err == "error: autoconnect needs at least one --stream ID=SOURCE\n"

    @pytest.mark.parametrize("force", [[], ["--force-stream", "A"]], ids=["select", "forced"])
    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--stream", "A=noise:8:200:16000"], "duplicate candidate stream ids"),
            (["--threshold", "nan"], "threshold must be in (0, 1), got nan"),
            (["--threshold", "5"], "threshold must be in (0, 1), got 5.0"),
            (["--threshold", "-1"], "threshold must be in (0, 1), got -1.0"),
            (["--stream", "B=noise:8:200:8000"], "mismatched sample rates: mic 16000 vs stream 8000"),
        ],
        ids=["duplicate-ids", "threshold-nan", "threshold-5", "threshold-minus-1", "other-rate"],
    )
    def test_bad_candidates_are_usage_errors(self, tmp_path, capsys, extra, message, force):
        # a forced stream overrides the choice, not the checks of the
        # threshold and of every candidate
        out = tmp_path / "sel.json"
        argv = ["autoconnect", "--mic", "noise:7:200:16000", "--stream", "A=noise:7:200:16000", *extra]
        rc = main([*argv, "--max-lag-ms", "10", *force, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("item", ["missing-equals-sign", "=noise:7:200:8000", "A="])
    def test_bad_stream_spec_is_usage_error(self, tmp_path, capsys, item):
        rc = main(
            [
                "autoconnect",
                "--mic", "noise:1:100:8000",
                "--stream", item,
                "--out", str(tmp_path / "x.json"),
            ]
        )
        assert rc == 2
        assert capsys.readouterr().err == f"error: bad --stream {item!r}: expected <id>=<source>\n"

    def test_sine_source_fields_are_hz_ms_rate(self):
        sig = parse_signal_source("sine:100:250:8000")
        assert sig.sample_rate_hz == 8000
        assert sig.samples.tolist() == gen_sine(100.0, 250.0, 8000).samples.tolist()

    def test_sine_source_spec(self, tmp_path):
        out = tmp_path / "sel.json"
        rc = main(
            [
                "autoconnect",
                "--mic", "sine:440:500:16000",
                "--stream", "A=sine:440:500:16000",
                "--max-lag-ms", "1",
                "--out", str(out),
            ]
        )
        assert rc == 0
        assert json.loads(out.read_text())["peak_ncc"] == pytest.approx(1.0, abs=1e-9)


class TestValidateCommand:
    def test_demo_config_amended_ok(self, capsys):
        assert main(["validate", "--config", str(DEMO_BROADCAST)]) == 0
        out = capsys.readouterr().out
        assert "ok" in out
        assert "airtime occupancy: 0.33" in out

    def test_config_without_mode_is_strict(self, tmp_path, capsys):
        # neither --mode nor the file names a mode: validate checks the strict spec
        config = {k: v for k, v in json.loads(DEMO_BROADCAST.read_text()).items() if k != "mode"}
        cfg = tmp_path / "bc.json"
        cfg.write_text(json.dumps(config))
        assert main(["validate", "--config", str(cfg)]) == 1
        assert "multi-train-per-stream" in capsys.readouterr().out

    def test_empty_config_ok(self, tmp_path, capsys):
        cfg = tmp_path / "bc.json"
        cfg.write_text(json.dumps({"streams": [], "trains": []}))
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "airtime occupancy: 0" in capsys.readouterr().out

    def test_malformed_config_is_input_error(self, tmp_path):
        cfg = tmp_path / "bc.json"
        cfg.write_text("{not json")
        assert main(["validate", "--config", str(cfg)]) == 2


ZONE_KEYS = ("delay_lo_ms", "delay_hi_ms", "presentation_delay_ms", "distance_lo_m", "distance_hi_m")

# input file kind -> (argv that reads the file, config with an unknown key and the section
# named in the error, config whose first entry is not an object and that entry's name,
# config with an entry value that its field's type cannot convert and the conversion error,
# config whose list key holds no JSON array and that key)
INPUT_FILES = {
    "venue file": (
        lambda path, tmp: ["plan", "--venue", path, "--out", str(tmp / "p.json")],
        ({"loudspeakers": [{"x_m": 0, "y_m": 0}], "zzz": 1}, "venue config"),
        ({"loudspeakers": [[0, 0]]}, "loudspeakers[0]"),
        ({"loudspeakers": [{"x_m": 0, "y_m": [1]}]}, "float() argument must be a string or a real number, not 'list'"),
        ({"loudspeakers": "ab"}, "loudspeakers"),
    ),
    "plan file": (
        lambda path, tmp: ["map", "--venue", str(DEMO_VENUE), "--plan", path, "--out", str(tmp / "m.csv")],
        ({"tolerance_ms": 30, "speed_of_sound_m_per_s": 343, "zones": [], "zzz": 1}, "plan"),
        ({"tolerance_ms": 30, "speed_of_sound_m_per_s": 343, "zones": [[0]]}, "zones[0]"),
        (
            {
                "tolerance_ms": 30,
                "speed_of_sound_m_per_s": 343,
                "zones": [{"index": 0, **dict.fromkeys(ZONE_KEYS, "x")}],
            },
            "could not convert string to float: 'x'",
        ),
        ({"tolerance_ms": 30, "speed_of_sound_m_per_s": 343, "zones": {}}, "zones"),
    ),
    "broadcast config": (
        lambda path, tmp: ["validate", "--config", path],
        ({"zzz": 1}, "broadcast config"),
        ({"streams": [1]}, "streams[0]"),
        ({"streams": [{"id": "S", "sample_rate_hz": "x"}]}, "invalid literal for int() with base 10: 'x'"),
        ({"streams": [], "trains": ""}, "trains"),
    ),
}


class TestInputErrorMessages:
    """Every input fault is exit 2 with exactly one pinned error line."""

    @pytest.mark.parametrize(
        "fault",
        ["missing", "directory", "invalid-json", "unknown-key", "non-object-entry", "bad-value", "non-array-list"],
    )
    @pytest.mark.parametrize("what", list(INPUT_FILES))
    def test_input_file_fault(self, tmp_path, capsys, what, fault):
        argv_for, (unknown_cfg, section), (entry_cfg, entry), (value_cfg, conversion_error), (list_cfg, list_key) = (
            INPUT_FILES[what]
        )
        path = tmp_path / "input.json"
        if fault == "missing":
            expected = f"{what} not found: {path}"
        elif fault == "directory":
            path.mkdir()
            expected = f"cannot read {what} {path}: Is a directory"
        elif fault == "invalid-json":
            path.write_text("{not json")
            expected = (
                f"{what} {path} is not valid JSON: "
                "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
            )
        elif fault == "unknown-key":
            path.write_text(json.dumps(unknown_cfg))
            expected = f"bad {what} {path}: unknown key 'zzz' in {section}"
        elif fault == "non-object-entry":
            path.write_text(json.dumps(entry_cfg))
            expected = f"bad {what} {path}: {entry} must be a JSON object"
        elif fault == "bad-value":
            path.write_text(json.dumps(value_cfg))
            expected = f"bad {what} {path}: {conversion_error}"
        else:
            path.write_text(json.dumps(list_cfg))
            expected = f"bad {what} {path}: {list_key} must be a JSON array"
        assert main(argv_for(str(path), tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize(
        "what, text, key",
        [
            (
                "venue file",
                '{"loudspeakers": [{"x_m": 0, "y_m": 0}], "seats": [], "seats": [{"id": "A", "x_m": 3, "y_m": 4}]}',
                "seats",
            ),
            ("plan file", '{"tolerance_ms": 5, ' + json.dumps(plan_to_dict(plan_zones(100.0, 30.0)))[1:], "tolerance_ms"),
            ("broadcast config", '{"streams": [{"id": "S", "sample_rate_hz": 16000, "id": "T"}]}', "id"),
        ],
    )
    def test_repeated_key(self, tmp_path, capsys, what, text, key):
        # json.load alone keeps the last of two equal keys, and each file would then load
        path = tmp_path / "input.json"
        path.write_text(text)
        assert main(INPUT_FILES[what][0](str(path), tmp_path)) == 2
        assert capsys.readouterr().err == f"error: bad {what} {path}: duplicate key {key!r}\n"

    @pytest.mark.parametrize("key, value", [("index", 1.9), ("sample_rate_hz", 16000.9), ("channels", 2.7)])
    def test_fractional_int_value(self, tmp_path, capsys, key, value):
        # an int field rejects a number with a fractional part rather than cut it off
        if key == "index":
            what, entry, config = "plan file", "zones[1]", plan_to_dict(plan_zones(100.0, 30.0))
            config["zones"][1]["index"] = value
        else:
            what, entry, config = "broadcast config", "streams[0]", {"streams": [{"id": "S", "sample_rate_hz": 16000}]}
            config["streams"][0][key] = value
        path = tmp_path / "input.json"
        path.write_text(json.dumps(config))
        assert main(INPUT_FILES[what][0](str(path), tmp_path)) == 2
        expected = f"bad {what} {path}: key {key!r} in {entry} must be an integer, got {value}"
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize(
        "what, spoil, expected",
        [
            (
                "broadcast config",
                lambda cfg: cfg["streams"][0].update(airtime_fraction=True),
                "key 'airtime_fraction' in streams[0] must be a number, got true",
            ),
            (
                "venue file",
                lambda cfg: cfg["loudspeakers"][0].update(x_m=True),
                "key 'x_m' in loudspeakers[0] must be a number, got true",
            ),
            (
                "venue file",
                lambda cfg: cfg["seats"].__setitem__(0, {"id": None, "x_m": "3", "y_m": 0}),
                "key 'id' in seats[0] must be a JSON string, got null",
            ),
            (
                "broadcast config",
                lambda cfg: cfg["streams"][0].update(id={"a": [1]}),
                "key 'id' in streams[0] must be a JSON string, got {\"a\": [1]}",
            ),
            (
                "venue file",
                lambda cfg: cfg.update(speed_of_sound_m_per_s=True),
                "key 'speed_of_sound_m_per_s' in venue config must be a number, got true",
            ),
            (
                "broadcast config",
                lambda cfg: cfg.update(mode=True),
                "key 'mode' in broadcast config must be a JSON string, got true",
            ),
        ],
        ids=["stream-airtime-bool", "loudspeaker-x-bool", "seat-null-id", "stream-object-id", "venue-speed-bool", "mode-bool"],
    )
    def test_value_of_wrong_json_type(self, tmp_path, capsys, what, spoil, expected):
        # a bool is no number and only a JSON string is a str; neither is coerced
        config = json.loads((DEMO_BROADCAST if what == "broadcast config" else DEMO_VENUE).read_text())
        spoil(config)
        path = tmp_path / "input.json"
        path.write_text(json.dumps(config))
        assert main(INPUT_FILES[what][0](str(path), tmp_path)) == 2
        assert capsys.readouterr().err == f"error: bad {what} {path}: {expected}\n"

    def test_integral_float_int_value(self, tmp_path, capsys):
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"streams": [{"id": "S", "sample_rate_hz": 16000.0, "channels": 2.0}]}))
        assert main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().out == "ok\nairtime occupancy: 0.3\n"

    def test_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "nodir" / "plan.json"
        assert main(["plan", "--venue", str(DEMO_VENUE), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: No such file or directory\n"


MIC = ["--mic", "noise:7:200:16000", "--stream", "A=noise:7:200:16000", "--max-lag-ms=50"]


class TestOutOfRangeInputs:
    """Out-of-range, oversized and malformed inputs end in exit 2 with one pinned error line."""

    @pytest.fixture
    def files(self, tmp_path):
        nan = float("nan")
        speaker = [{"x_m": 0, "y_m": 0}]

        def seat(y_m):
            return {"id": "A", "x_m": 0, "y_m": y_m}

        assert main(["plan", "--venue", str(DEMO_VENUE), "--out", str(tmp_path / "demo_plan.json")]) == 0
        demo_plan = json.loads((tmp_path / "demo_plan.json").read_text())

        def plan_with(spoil):
            plan = json.loads(json.dumps(demo_plan))
            spoil(plan)
            return plan

        stream = {"id": "s", "sample_rate_hz": 16000}
        configs = {
            "nan_speed.json": {"speed_of_sound_m_per_s": nan, "loudspeakers": speaker, "seats": [seat(10)]},
            "far_seat.json": {"loudspeakers": speaker, "seats": [seat(1e308)]},
            "near_and_far.json": {"loudspeakers": speaker, "seats": [seat(10), {"id": "B", "x_m": 0, "y_m": 1e308}]},
            "remote_seat.json": {"loudspeakers": speaker, "seats": [seat(1e6)]},
            "nan_plan.json": {
                "tolerance_ms": 30,
                "speed_of_sound_m_per_s": 343,
                "zones": [{"index": 0, **dict.fromkeys(ZONE_KEYS, nan)}],
            },
            "no_zones.json": plan_with(lambda p: p.update(zones=[])),
            "index_5.json": plan_with(lambda p: p["zones"][1].update(index=5)),
            "tolerance_10.json": plan_with(lambda p: p.update(tolerance_ms=10)),
            "tolerance_25.json": plan_with(lambda p: p.update(tolerance_ms=25)),
            "bad_distance.json": plan_with(lambda p: p["zones"][0].update(distance_hi_m=99)),
            "three_channels.json": {"streams": [{**stream, "channels": 3}]},
            "stream_airtime.json": {"streams": [{**stream, "airtime_fraction": 2}]},
            "stream_rate_0.json": {"streams": [{**stream, "sample_rate_hz": 0}]},
            "train_delay_negative.json": {
                "streams": [stream],
                "trains": [{"id": "t", "target_stream_id": "s", "presentation_delay_ms": -1.5}],
            },
            "train_airtime.json": {
                "streams": [stream],
                "trains": [{"id": "t", "target_stream_id": "s", "presentation_delay_ms": 0, "airtime_fraction": 2}],
            },
        }
        for name, cfg in configs.items():
            (tmp_path / name).write_text(json.dumps(cfg))
        (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
        # json reads 1e999 as inf
        (tmp_path / "inf_seat.json").write_text(
            '{"loudspeakers": [{"x_m": 0, "y_m": 0}], "seats": [{"id": "A", "x_m": 1e999, "y_m": 0}]}'
        )
        for name, channels, width in (("stereo.wav", 2, 2), ("8bit.wav", 1, 1)):
            with wave.open(str(tmp_path / name), "wb") as w:
                w.setnchannels(channels)
                w.setsampwidth(width)
                w.setframerate(8000)
                w.writeframes(bytes(channels * width * 100))
        return tmp_path

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["autoconnect", *MIC, "--sink-buffer-ms=nan", "--out", "{tmp}/o.json"],
                "max_presentation_delay_ms must be > 0, got nan",
                id="nan-sink-buffer",
            ),
            pytest.param(
                ["autoconnect", *MIC, "--snr-db=nan", "--out", "{tmp}/o.json"],
                "snr_db must be within +-300 dB, got nan",
                id="nan-snr",
            ),
            pytest.param(
                ["autoconnect", *MIC, "--snr-db=-1e308", "--out", "{tmp}/o.json"],
                "snr_db must be within +-300 dB, got -1e+308",
                id="huge-negative-snr",
            ),
            pytest.param(
                ["autoconnect", *MIC, "--max-lag-ms=inf", "--out", "{tmp}/o.json"],
                "max_lag_ms must be >= 0, got inf",
                id="inf-max-lag",
            ),
            pytest.param(
                ["autoconnect", "--mic", "noise:7:1e12:16000", "--stream", "A=sine:440:200:16000", "--out", "{tmp}/o.json"],
                "bad synthetic signal spec 'noise:7:1e12:16000': 1000000000000.0 ms at 16000 Hz is more than 10000000 samples",
                id="sample-cap-spec",
            ),
            pytest.param(
                ["map", "--venue", str(DEMO_VENUE), "--plan", "{tmp}/nan_plan.json", "--out", "{tmp}/m.csv"],
                "bad plan file {tmp}/nan_plan.json: zone 0: delays and distances must be finite, got (nan, nan, nan, nan, nan)",
                id="nan-plan-zones",
            ),
            pytest.param(
                ["simulate", "--venue", "{tmp}/nan_speed.json", "--seat", "A", "--out", "{tmp}/r.json"],
                "bad venue file {tmp}/nan_speed.json: speed of sound must be > 0, got nan",
                id="nan-speed-of-sound",
            ),
            pytest.param(
                ["simulate", "--venue", "{tmp}/remote_seat.json", "--seat", "A", "--out", "{tmp}/r.json"],
                "a 2915451.8950437317 ms delay has more than 1000000 notches up to 8000.0 Hz",
                id="notch-cap",
            ),
            pytest.param(
                ["simulate", "--venue", str(DEMO_VENUE), "--seat", "ZZ", "--out", "{tmp}/r.json"],
                "no seat 'ZZ' in venue",
                id="unknown-seat",
            ),
            pytest.param(
                ["simulate", "--venue", str(DEMO_VENUE), "--seat", "ZZ", "--plan", "{tmp}/demo_plan.json", "--out", "{tmp}/r.json"],
                "no seat 'ZZ' in venue",
                id="unknown-seat-with-plan",
            ),
            pytest.param(
                # the plan is read before the seat is looked up
                ["simulate", "--venue", str(DEMO_VENUE), "--seat", "ZZ", "--plan", "{tmp}/no_zones.json", "--out", "{tmp}/r.json"],
                "bad plan file {tmp}/no_zones.json: plan needs at least one zone",
                id="unknown-seat-and-bad-plan",
            ),
            pytest.param(
                ["simulate", "--venue", str(DEMO_VENUE), "--seat", "K1", "--sample-rate-hz=10000000000", "--out", "{tmp}/r.json"],
                "1000.0 ms at 10000000000 Hz is more than 10000000 samples",
                id="sample-cap-rate",
            ),
            pytest.param(
                ["simulate", "--venue", str(DEMO_VENUE), "--seat", "K1", f"--sample-rate-hz={10**309}", "--out", "{tmp}/r.json"],
                f"sample_rate_hz must be > 0, got {10**309}",
                id="rate-past-float-range",
            ),
            pytest.param(
                ["autoconnect", "--mic", f"sine:1:1:{10**309}", "--stream", "A=noise:7:200:8000", "--out", "{tmp}/o.json"],
                f"bad synthetic signal spec 'sine:1:1:{10**309}': sample_rate_hz must be > 0, got {10**309}",
                id="mic-rate-past-float-range",
            ),
            pytest.param(
                ["plan", "--venue", "{tmp}/inf_seat.json", "--out", "{tmp}/p.json"],
                "bad venue file {tmp}/inf_seat.json: coordinates must be finite, got (inf, 0.0)",
                id="seat-at-inf",
            ),
            pytest.param(
                ["plan", "--venue", "{tmp}/far_seat.json", "--out", "{tmp}/p.json"],
                "propagation delay over 1e+308 m overflows",
                id="seat-at-1e308-m",
            ),
            pytest.param(
                # every seat's delay is part of the venue, checked before the seat is looked up
                ["simulate", "--venue", "{tmp}/near_and_far.json", "--seat", "A", "--out", "{tmp}/r.json"],
                "propagation delay over 1e+308 m overflows",
                id="simulate-beside-a-seat-at-1e308-m",
            ),
            pytest.param(
                ["plan", "--venue", str(DEMO_VENUE), "--tolerance-ms=1e-300", "--out", "{tmp}/p.json"],
                "a 175.02426845252052 ms span at tolerance 1e-300 ms needs more than 100000 zones",
                id="zone-cap",
            ),
            pytest.param(
                ["validate", "--config", "{tmp}/deep.json"],
                "broadcast config {tmp}/deep.json is not valid JSON: ",  # the rest is the json module's
                id="json-nested-too-deep",
            ),
            pytest.param(
                ["map", "--venue", str(DEMO_VENUE), "--plan", "{tmp}/no_zones.json", "--out", "{tmp}/m.csv"],
                "bad plan file {tmp}/no_zones.json: plan needs at least one zone",
                id="plan-no-zones",
            ),
            pytest.param(
                ["map", "--venue", str(DEMO_VENUE), "--plan", "{tmp}/index_5.json", "--out", "{tmp}/m.csv"],
                "bad plan file {tmp}/index_5.json: zone indices must be 0..N-1 ascending, got 5 at 1",
                id="plan-index-5-at-1",
            ),
            pytest.param(
                ["map", "--venue", str(DEMO_VENUE), "--plan", "{tmp}/tolerance_10.json", "--out", "{tmp}/m.csv"],
                "bad plan file {tmp}/tolerance_10.json: zone 0 width 58.3414 exceeds 2*tolerance 20.0",
                id="plan-tolerance-10",
            ),
            pytest.param(
                ["map", "--venue", str(DEMO_VENUE), "--plan", "{tmp}/tolerance_25.json", "--out", "{tmp}/m.csv"],
                "bad plan file {tmp}/tolerance_25.json: zone 0 width 58.3414 exceeds 2*tolerance 50.0",
                id="plan-tolerance-25",
            ),
            pytest.param(
                ["map", "--venue", str(DEMO_VENUE), "--plan", "{tmp}/bad_distance.json", "--out", "{tmp}/m.csv"],
                "bad plan file {tmp}/bad_distance.json: zone 0 distance 99.0 inconsistent with delay 58.3414",
                id="plan-bad-distance",
            ),
            pytest.param(
                ["validate", "--config", "{tmp}/three_channels.json"],
                "bad broadcast config {tmp}/three_channels.json: stream s: channels must be 1 or 2, got 3",
                id="stream-3-channels",
            ),
            pytest.param(
                ["validate", "--config", "{tmp}/stream_airtime.json"],
                "bad broadcast config {tmp}/stream_airtime.json: stream s: airtime_fraction must be in [0, 1], got 2",
                id="stream-airtime-2",
            ),
            pytest.param(
                ["validate", "--config", "{tmp}/train_airtime.json"],
                "bad broadcast config {tmp}/train_airtime.json: train t: airtime_fraction must be in [0, 1], got 2",
                id="train-airtime-2",
            ),
            pytest.param(
                ["validate", "--config", "{tmp}/stream_rate_0.json"],
                "bad broadcast config {tmp}/stream_rate_0.json: stream s: sample_rate_hz must be > 0, got 0",
                id="stream-rate-0",
            ),
            pytest.param(
                ["validate", "--config", "{tmp}/train_delay_negative.json"],
                "bad broadcast config {tmp}/train_delay_negative.json: train t: presentation_delay_ms must be >= 0, got -1.5",
                id="train-delay-negative",
            ),
            pytest.param(
                ["autoconnect", "--mic", "{tmp}/stereo.wav", "--stream", "A=noise:7:200:8000", "--out", "{tmp}/o.json"],
                "cannot read WAV '{tmp}/stereo.wav': expected mono WAV, got 2 channels",
                id="mic-stereo-wav",
            ),
            pytest.param(
                ["autoconnect", "--mic", "{tmp}/8bit.wav", "--stream", "A=noise:7:200:8000", "--out", "{tmp}/o.json"],
                "cannot read WAV '{tmp}/8bit.wav': expected 16-bit PCM, got 8-bit",
                id="mic-8-bit-wav",
            ),
            pytest.param(
                ["autoconnect", "--mic", "{tmp}/none.wav", "--stream", "A=noise:7:200:8000", "--out", "{tmp}/o.json"],
                "signal source not found: {tmp}/none.wav",
                id="mic-missing-wav",
            ),
            pytest.param(
                ["autoconnect", "--mic", "noise:1:100", "--stream", "A=noise:7:200:8000", "--out", "{tmp}/o.json"],
                "bad synthetic signal spec 'noise:1:100': expected noise:<a>:<ms>:<sr>",
                id="mic-spec-two-fields",
            ),
            pytest.param(
                ["autoconnect", *MIC, "--stream", "B=noise:1:0:8000", "--out", "{tmp}/o.json"],
                "candidate 'B' has an empty signal",
                id="empty-stream",
            ),
            pytest.param(
                ["autoconnect", *MIC, "--force-stream", "Z", "--out", "{tmp}/o.json"],
                "forced stream 'Z' is not among the candidates",
                id="unknown-forced-stream",
            ),
        ],
    )
    def test_rejected_with_one_error_line(self, files, capsys, argv, message):
        capsys.readouterr()
        assert main([a.format(tmp=files) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message.format(tmp=files)}")
        assert err.count("\n") == 1

    @pytest.mark.skipif(sys.platform != "linux", reason="caps the address space through Linux RLIMIT_AS")
    def test_out_of_memory_is_one_error_line(self, fresh_process, tmp_path):
        # the two 600 s signals fit in 400 MiB, the search's 223 MiB work block does not
        import resource

        cap = functools.partial(resource.setrlimit, resource.RLIMIT_AS, (400 << 20, 400 << 20))
        out = tmp_path / "sel.json"
        argv = ["--mic", "noise:1:600000:16000", "--stream", "A=noise:1:600000:16000", "--out", str(out)]
        done = fresh_process("-m", "alsalign", "autoconnect", *argv, text=True, preexec_fn=cap)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: out of memory: ")
        assert done.stderr.count("\n") == 1
        assert not out.exists()


# finite values plus the values that break one-sided checks or overflow
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -1.0, 1e308, 1e-300]),
)
# durations stay at 200 ms or below unless they are meant to trip a check
DURATIONS = st.one_of(st.floats(0.0, 200.0), st.sampled_from([math.inf, -math.inf, math.nan, -1.0, 1e308, 1e-300]))
RATES = st.one_of(st.sampled_from([8000, 16000]), st.integers(-10, 48000), st.just(10**12))


def venues(coordinates, speeds, min_seats=0):
    positions = st.fixed_dictionaries({"x_m": coordinates, "y_m": coordinates})
    return st.fixed_dictionaries(
        {
            "loudspeakers": st.lists(positions, min_size=1, max_size=2),
            "seats": st.lists(positions, min_size=min_seats, max_size=3).map(
                lambda ps: [{"id": f"S{i}", **p} for i, p in enumerate(ps)]
            ),
        },
        optional={"speed_of_sound_m_per_s": speeds},
    )


# the first branch gives a valid venue with a seat S0, as the first branch of
# PLANS gives a valid plan, so that plan and simulate also run to the end
VENUES = st.one_of(
    venues(st.floats(-100.0, 100.0), st.just(343.0), min_seats=1),
    venues(NUMBERS, st.one_of(st.just(343.0), NUMBERS)),
)
PLANS = st.one_of(
    st.builds(lambda d, t: plan_to_dict(plan_zones(d, t)), st.floats(0.0, 100.0), st.floats(1.0, 100.0)),
    st.fixed_dictionaries(
        {
            "tolerance_ms": NUMBERS,
            "speed_of_sound_m_per_s": NUMBERS,
            "zones": st.lists(
                st.fixed_dictionaries({k: NUMBERS for k in ZONE_KEYS}), min_size=1, max_size=2
            ).map(lambda zs: [{"index": i, **z} for i, z in enumerate(zs)]),
        }
    ),
)
BROADCASTS = st.fixed_dictionaries(
    {
        "streams": st.just([{"id": "S", "sample_rate_hz": 16000}])
        | st.builds(lambda r, a: [{"id": "S", "sample_rate_hz": r, "airtime_fraction": a}], NUMBERS, NUMBERS),
        "trains": st.lists(
            st.builds(
                lambda i, d, a: {"id": f"T{i}", "target_stream_id": "S", "presentation_delay_ms": d, "airtime_fraction": a},
                st.integers(0, 9),
                NUMBERS,
                NUMBERS,
            ),
            max_size=2,
            unique_by=lambda t: t["id"],
        ),
    },
    optional={"mode": st.sampled_from(["strict", "amended"])},
)

# JSON values other than numbers: null, string, list, object and bool
NON_NUMBERS = st.one_of(
    st.none(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    st.booleans(),
)


class TestFuzz:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_exit_code_and_one_error_line(self, data):
        command = data.draw(st.sampled_from(["plan", "map", "simulate", "autoconnect", "validate"]))
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            venue, plan, config, out = tmp / "venue.json", tmp / "plan.json", tmp / "bc.json", str(tmp / "out")
            venue.write_text(json.dumps(data.draw(VENUES)))
            plan.write_text(json.dumps(data.draw(PLANS)))
            config.write_text(json.dumps(data.draw(BROADCASTS)))
            if command == "plan":
                tolerance = data.draw(st.one_of(st.floats(1.0, 100.0), NUMBERS))
                argv = ["plan", "--venue", str(venue), f"--tolerance-ms={tolerance}", "--out", out]
            elif command == "map":
                argv = ["map", "--venue", str(venue), "--plan", str(plan), "--out", out]
            elif command == "simulate":
                seat = data.draw(st.sampled_from(["S0", "S1", "GHOST"]))
                rate = data.draw(RATES)
                argv = ["simulate", "--venue", str(venue), "--seat", seat, f"--sample-rate-hz={rate}", "--out", out]
                argv += data.draw(st.sampled_from([[], ["--plan", str(plan)]]))
            elif command == "autoconnect":
                # a matching invocation with up to two of its numbers fuzzed
                v = {"seed": 7, "ms": 200.0, "rate": 16000, "freq": 440.0, "lag": 50.0, "threshold": 0.3}
                for key in data.draw(st.sets(st.sampled_from(list(v)), max_size=2)):
                    v[key] = data.draw({"seed": st.integers(0, 9), "ms": DURATIONS, "rate": RATES}.get(key, NUMBERS))
                argv = [
                    "autoconnect",
                    f"--mic=noise:{v['seed']}:{v['ms']}:{v['rate']}",
                    "--stream=A=noise:7:200:16000",
                    f"--stream=B=sine:{v['freq']}:200:16000",
                    f"--max-lag-ms={v['lag']}",
                    f"--threshold={v['threshold']}",
                    "--out",
                    out,
                ]
                argv += data.draw(st.sampled_from([[], ["--mode=strict"]]))
                for flag in ("--snr-db", "--sink-buffer-ms"):
                    if data.draw(st.booleans()):
                        argv.append(f"{flag}={data.draw(NUMBERS)}")
            else:
                argv = ["validate", "--config", str(config)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
        assert rc in (0, 1, 2)
        if rc == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_non_number_entry_value(self, data):
        # valid configs with one scalar value, top-level or in an entry, drawn from
        # NON_NUMBERS: the command that reads it either accepts the value or exits 2
        # with one error line
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            venue, plan, config, out = tmp / "venue.json", tmp / "plan.json", tmp / "bc.json", str(tmp / "out")
            configs = {
                venue: json.loads(DEMO_VENUE.read_text()),
                plan: plan_to_dict(plan_zones(100.0, 30.0)),
                config: json.loads(DEMO_BROADCAST.read_text()),
            }
            spoiled = data.draw(st.sampled_from(list(configs)))
            top = configs[spoiled]
            entries = [top, *(entry for v in top.values() if isinstance(v, list) for entry in v)]
            slots = [(entry, key) for entry in entries for key in entry if not isinstance(entry[key], list)]
            entry, key = data.draw(st.sampled_from(slots))
            entry[key] = value = data.draw(NON_NUMBERS)
            for path, content in configs.items():
                path.write_text(json.dumps(content))
            map_argv = ["map", "--venue", str(venue), "--plan", str(plan), "--out", out]
            simulate_argv = ["simulate", "--venue", str(venue), "--plan", str(plan), "--seat", "A1", "--out", out]
            readers = {
                venue: [["plan", "--venue", str(venue), "--out", out], map_argv, simulate_argv],
                plan: [map_argv, simulate_argv],
                config: [["validate", "--config", str(config)]],
            }
            argv = data.draw(st.sampled_from(readers[spoiled]))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(argv)
        assert rc in (0, 1, 2)
        if not isinstance(value, str):
            assert rc == 2  # no field takes null, a list, an object or a bool, and a str field only a string
        if rc == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1


def test_exports_name_existing_public_names():
    # every name in a module's __all__ exists, the package's public names,
    # apart from its submodules, are exactly the names of those lists, and
    # each is the module's own object
    public = set()
    submodules = set()
    for info in pkgutil.iter_modules(alsalign.__path__):
        submodules.add(info.name)
        module = importlib.import_module(f"alsalign.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"alsalign.{info.name}.__all__ lists missing {name}"
            assert getattr(alsalign, name) is getattr(module, name), name
            public.add(name)
    exported = {name for name in dir(alsalign) if not name.startswith("_")} - submodules
    assert exported == public, (sorted(exported - public), sorted(public - exported))
