"""Command-line entry point: alsalign <plan|map|simulate|autoconnect|validate>.

All numeric output is formatted at 6 significant digits and files are
written with \\n line endings, so identical invocations produce
byte-identical outputs. Exit codes: 0 success/match, 1 clean negative
result (no match, validation failure), 2 usage or input error, refused
sink delay or out of memory, with one error line and no output file.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from pathlib import Path

# Every layer module is loaded here, not per subcommand: bench/spans.py
# patches only the alsalign namespaces loaded before its tracing() starts,
# so a traced CLI process must have them all by then.  decimal and csv,
# which only some subcommands use, are imported where they are used.
from . import acoustics, autoconnect, broadcast, perception, planner, signals

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_ERROR = 2

SIMULATE_PROGRAM_MS = 1000.0


def fmt(x: float) -> str:
    """Fixed 6-significant-digit rendering used for every emitted number."""
    return format(float(x), ".6g")


def _ceil6(x: float) -> float:
    """Round up at the 6th significant digit (never below the true value)."""
    if x == 0:
        return 0.0
    from decimal import ROUND_CEILING, Decimal

    d = Decimal(x)
    quantum = Decimal(1).scaleb(d.adjusted() - 5)
    return float(d.quantize(quantum, rounding=ROUND_CEILING))


def _json_ready(value):
    """Round all floats to the 6-significant-digit grid before dumping."""
    if isinstance(value, float):
        return float(fmt(value))
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    return value


def _write(path, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def _write_json(path, payload: dict) -> None:
    _write(path, json.dumps(_json_ready(payload), indent=2) + "\n")


def _load(loader, path, what: str):
    """Run a file loader, turning every input fault into a ValueError naming the file."""
    try:
        return loader(path)
    except FileNotFoundError:
        raise ValueError(f"{what} not found: {path}") from None
    except OSError as exc:
        raise ValueError(f"cannot read {what} {path}: {exc.strerror or exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ValueError(f"{what} {path} is not valid JSON: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"bad {what} {path}: {exc}") from None


def parse_signal_source(spec: str) -> signals.Signal:
    """Signal from a synthetic URI (noise:seed:ms:sr, sine:hz:ms:sr) or a WAV path."""
    head, _, rest = spec.partition(":")
    if head in ("noise", "sine"):
        parts = rest.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad synthetic signal spec {spec!r}: expected {head}:<a>:<ms>:<sr>")
        try:
            if head == "noise":
                seed, dur, sr = int(parts[0]), float(parts[1]), int(parts[2])
                return signals.gen_white_noise(seed, dur, sr)
            freq, dur, sr = float(parts[0]), float(parts[1]), int(parts[2])
            return signals.gen_sine(freq, dur, sr)
        except ValueError as exc:
            raise ValueError(f"bad synthetic signal spec {spec!r}: {exc}") from None
    return _load(signals.read_wav, spec, "signal source")


def run_plan(args: argparse.Namespace) -> int:
    venue = _load(acoustics.load_venue, args.venue, "venue file")
    farthest = max((row.distance_m for row in acoustics.delay_map(venue)), default=0.0)
    plan = planner.plan_zones(farthest, args.tolerance_ms, venue.speed_of_sound_m_per_s)
    payload = _json_ready(planner.plan_to_dict(plan))
    # publish the span rounded up, so rounding never drops the farthest seat
    payload["zones"][-1]["delay_hi_ms"] = _ceil6(plan.span_ms)
    payload["zones"][-1]["distance_hi_m"] = _ceil6(plan.zones[-1].distance_hi_m)
    _write_json(args.out, payload)
    bound = plan.span_ms / (2 * len(plan.zones))
    print(f"zones: {len(plan.zones)}")
    print(f"max residual bound: {fmt(bound)} ms")
    print(f"wrote {args.out}")
    return EXIT_OK


MAP_HEADER = ("seat_id", "distance_m", "acoustic_delay_ms", "zone", "presentation_delay_ms", "residual_ms", "class")


def run_map(args: argparse.Namespace) -> int:
    import csv

    venue = _load(acoustics.load_venue, args.venue, "venue file")
    plan = _load(planner.load_plan, args.plan, "plan file")
    report = planner.verify_plan(venue, plan)
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")  # quotes only the fields that need it
    writer.writerow(MAP_HEADER)
    for row in report.seats:
        seat = (row.seat_id, fmt(row.distance_m), fmt(row.acoustic_delay_ms))
        if row.covered:
            zone = (str(row.zone_index), fmt(row.presentation_delay_ms), fmt(row.residual_ms), row.distortion.value)
        else:
            zone = ("", "", "", "uncovered")
        writer.writerow(seat + zone)
    _write(args.out, text.getvalue())
    print(f"seats: {len(report.seats)}")
    print(f"max |residual|: {fmt(report.max_abs_residual_ms)} ms")
    if report.uncovered_seat_ids:
        print(f"uncovered seats: {len(report.uncovered_seat_ids)}")
    print(f"wrote {args.out}")
    return EXIT_OK


def run_simulate(args: argparse.Namespace) -> int:
    venue = _load(acoustics.load_venue, args.venue, "venue file")
    plan = None if args.plan is None else _load(planner.load_plan, args.plan, "plan file")
    rows = acoustics.delay_map(venue) if plan is None else planner.verify_plan(venue, plan).seats
    seat = next((row for row in rows if row.seat_id == args.seat), None)
    if seat is None:
        raise ValueError(f"no seat {args.seat!r} in venue")
    uncovered = plan is not None and not seat.covered
    # uncompensated unless a plan zone covers the seat
    residual = seat.acoustic_delay_ms if plan is None or uncovered else seat.residual_ms
    program = signals.gen_white_noise(args.seed, SIMULATE_PROGRAM_MS, args.sample_rate_hz)
    ear = perception.ear_signal(program, program, residual)
    distortion = perception.classify_residual(residual).value
    _write_json(
        args.out,
        {
            "seat_id": args.seat,
            "residual_ms": residual,
            "class": distortion,
            "notch_frequencies_hz": perception.notch_frequencies(abs(residual), args.sample_rate_hz / 2.0),
        },
    )
    if uncovered:
        print(f"seat {args.seat} is beyond the plan span; simulating uncompensated playback")
    print(f"seat {args.seat}: residual {fmt(residual)} ms -> {distortion}")
    print(f"ear signal rms: {fmt(ear.rms())}")
    print(f"wrote {args.out}")
    return EXIT_OK


def run_autoconnect(args: argparse.Namespace) -> int:
    if not args.stream:
        raise ValueError("autoconnect needs at least one --stream ID=SOURCE")
    mode = broadcast.SpecMode(args.mode)
    mic = parse_signal_source(args.mic)
    if args.snr_db is not None:
        mic = signals.add_noise_snr(mic, args.snr_db, args.seed)
    candidates = []
    for item in args.stream:
        stream_id, sep, src = item.partition("=")
        if not sep or not stream_id or not src:
            raise ValueError(f"bad --stream {item!r}: expected <id>=<source>")
        candidates.append(autoconnect.CandidateStream(stream_id, parse_signal_source(src)))
    sink = (
        broadcast.BroadcastSink(args.sink_buffer_ms)
        if args.sink_buffer_ms is not None
        else broadcast.default_sink(mode)
    )
    result, updated = autoconnect.autoconnect_pipeline(
        mic, candidates, sink, mode, args.max_lag_ms, args.threshold, args.force_stream
    )
    payload: dict = {"mode": mode.value}
    if result.matched:
        payload.update(
            outcome="match",
            stream_id=result.stream_id,
            peak_ncc=result.peak_ncc,
            lag_ms=result.lag_ms,
            applied_sink_delay_ms=updated.local_alignment_delay_ms,
            forced=args.force_stream is not None,
        )
        message = f"match: {result.stream_id} (peak {fmt(result.peak_ncc)}, lag {fmt(result.lag_ms)} ms)"
    else:
        payload.update(outcome="no-match", stream_id=None, peak_ncc=result.peak_ncc, lag_ms=None, forced=False)
        message = f"no match (best peak {fmt(result.peak_ncc)} below threshold {fmt(args.threshold)})"
    _write_json(args.out, payload)
    print(message)
    print(f"wrote {args.out}")
    return EXIT_OK if result.matched else EXIT_NEGATIVE


def run_validate(args: argparse.Namespace) -> int:
    source = _load(broadcast.load_broadcast_config, args.config, "broadcast config")
    mode = source.mode if args.mode is None else broadcast.SpecMode(args.mode)
    violations = broadcast.validate_config(source, mode)
    occupancy = broadcast.airtime_occupancy(source)
    if violations:
        for v in violations:
            print(f"violation [{v.rule}]: {v.message}")
    else:
        print("ok")
    print(f"airtime occupancy: {fmt(occupancy)}")
    return EXIT_OK if not violations else EXIT_NEGATIVE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alsalign",
        description="Plan, validate and simulate alignment-delay compensation for assistive listening.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="compute a delay-zone plan for a venue")
    p.add_argument("--venue", required=True, help="venue JSON file")
    p.add_argument("--tolerance-ms", type=float, default=30.0, help="max |residual| per seat (default 30)")
    p.add_argument("--out", required=True, help="output plan JSON")
    p.set_defaults(run=run_plan)

    p = sub.add_parser("map", help="per-seat delay/residual/class CSV for a plan")
    p.add_argument("--venue", required=True)
    p.add_argument("--plan", required=True, help="plan JSON file")
    p.add_argument("--out", required=True, help="output CSV")
    p.set_defaults(run=run_map)

    p = sub.add_parser("simulate", help="distortion report for one seat")
    p.add_argument("--venue", required=True)
    p.add_argument("--plan", default=None, help="plan JSON; omit for uncompensated playback")
    p.add_argument("--seat", required=True, help="seat id")
    p.add_argument("--sample-rate-hz", type=int, default=16000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output report JSON")
    p.set_defaults(run=run_simulate)

    p = sub.add_parser("autoconnect", help="select the broadcast stream matching a mic signal")
    p.add_argument("--mic", required=True, help="mic source: WAV path or noise:<seed>:<ms>:<sr> / sine:<hz>:<ms>:<sr>")
    p.add_argument(
        "--stream",
        action="append",
        default=[],
        metavar="ID=SOURCE",
        help="candidate stream (repeatable)",
    )
    p.add_argument("--max-lag-ms", type=float, default=500.0)
    p.add_argument("--threshold", type=float, default=autoconnect.DEFAULT_THRESHOLD)
    p.add_argument("--mode", choices=["strict", "amended"], default="amended")
    p.add_argument("--snr-db", type=float, default=None, help="degrade the mic with noise at this SNR")
    p.add_argument("--seed", type=int, default=0, help="seed for --snr-db noise")
    p.add_argument("--force-stream", default=None, help="connect to this stream id regardless of scores")
    p.add_argument("--sink-buffer-ms", type=float, default=None, help="override the sink buffer")
    p.add_argument("--out", required=True, help="output selection JSON")
    p.set_defaults(run=run_autoconnect)

    p = sub.add_parser("validate", help="check a broadcast config against a rule set")
    p.add_argument("--config", required=True, help="broadcast config JSON")
    p.add_argument("--mode", choices=["strict", "amended"], default=None, help="override the file's mode")
    p.set_defaults(run=run_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:  # every usage or input fault, from the library or from this module
        print(f"error: {exc}", file=sys.stderr)
    except broadcast.SinkDelayError as exc:  # the sink refuses the lag that autoconnect found
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    except MemoryError as exc:  # an input too large for this machine, not a negative result
        print(f"error: out of memory: {exc}", file=sys.stderr)
    return EXIT_ERROR
