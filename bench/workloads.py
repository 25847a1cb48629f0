"""The benchmark's workloads: seeded inputs, one closed-loop op, and a check.

Each workload builds its inputs from the workload seed with its own
``random.Random``; the program sees only the generated inputs.  ``op(i)``
is one request, and ``check(i, output)`` compares its output with a
reference that never calls the code under test.
"""

from __future__ import annotations

import io
import json
import math
import os
import random
import resource
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from alsalign import acoustics, autoconnect, broadcast, planner, signals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden"
DEMO = ROOT / "demo"

SAMPLE_RATE_HZ = 16000
AMENDED = broadcast.SpecMode.AMENDED
TRIAL_POOL = 512


def _self_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------- autoconnect


@dataclass(frozen=True)
class Trial:
    stream_seeds: tuple[int, ...]
    planted: int  # index of the stream the mic carries
    shift: int  # planted delay in whole samples
    noise_seed: int


def stream_id(index: int) -> str:
    return f"S{index:02d}"


class AutoconnectWorkload:
    """One op is one stream-selection trial against a planted stream and lag.

    The mic is one candidate delayed by a planted whole-sample lag, plus
    seeded noise at the given SNR; the op synthesises the signals and runs
    ``autoconnect_pipeline`` with the amended default sink.
    """

    def __init__(
        self,
        seed: int,
        candidates: int,
        duration_ms: float,
        window_ms: float,
        max_planted_ms: float,
        snr_db: float,
        pool: int = TRIAL_POOL,
    ):
        self.candidates = candidates
        self.duration_ms = duration_ms
        self.window_ms = window_ms
        self.snr_db = snr_db
        max_shift = round(max_planted_ms * SAMPLE_RATE_HZ / 1000.0)
        rng = random.Random(seed)
        self.trials = [
            Trial(
                tuple(rng.getrandbits(63) for _ in range(candidates)),
                rng.randrange(candidates),
                rng.randint(0, max_shift),
                rng.getrandbits(63),
            )
            for _ in range(pool)
        ]

    def describe(self) -> str:
        lags = round(self.window_ms * SAMPLE_RATE_HZ / 1000.0) + 1
        return (
            f"{self.candidates} candidates x {self.duration_ms:g} ms at {SAMPLE_RATE_HZ} Hz, "
            f"{self.window_ms:g} ms window ({lags} lags), {self.snr_db:g} dB SNR"
        )

    def op(self, i: int, rec=None) -> autoconnect.SelectionResult:
        trial = self.trials[i % len(self.trials)]
        streams = [signals.gen_white_noise(s, self.duration_ms, SAMPLE_RATE_HZ) for s in trial.stream_seeds]
        delayed = signals.delay_signal(streams[trial.planted], trial.shift * 1000.0 / SAMPLE_RATE_HZ)
        mic = signals.add_noise_snr(delayed, self.snr_db, trial.noise_seed)
        candidates = [autoconnect.CandidateStream(stream_id(j), s) for j, s in enumerate(streams)]
        result, _ = autoconnect.autoconnect_pipeline(
            mic, candidates, broadcast.default_sink(AMENDED), AMENDED, self.window_ms
        )
        return result

    def check(self, i: int, result: autoconnect.SelectionResult) -> bool:
        """The planted stream, at exactly the planted whole-sample lag."""
        trial = self.trials[i % len(self.trials)]
        return (
            result.stream_id == stream_id(trial.planted)
            and result.lag_ms is not None
            and round(result.lag_ms * SAMPLE_RATE_HZ / 1000.0) == trial.shift
        )

    def peak_rss_kb(self) -> int:
        return _self_peak_rss_kb()


# ---------------------------------------------------------------- venue


@dataclass(frozen=True)
class VenueReference:
    """Expected per-seat results, in seat-id order, from the planning rules."""

    seat_ids: list[str]
    zones: int
    zone: np.ndarray
    residual_ms: np.ndarray
    distortion: list[str]
    max_abs_residual_ms: float


CLASS_NAMES = ("aligned", "coloration", "reverberation", "echo")
CLASS_UPPER_EDGES_MS = (0.1, 5.0, 30.0)  # bands are closed on their upper edge
RESIDUAL_ATOL_MS = 1e-9


def venue_reference(config: dict, tolerance_ms: float) -> VenueReference:
    """Vectorised oracle over the seats, written from the planning rules.

    First arrival from the nearest loudspeaker; the fewest equal-width
    zones of width <= 2 * tolerance covering [0, farthest delay], with the
    last zone closed above; presentation delay at each zone's midpoint.
    """
    speed = float(config["speed_of_sound_m_per_s"])
    seats = sorted(config["seats"], key=lambda s: s["id"])
    sx = np.array([s["x_m"] for s in seats], dtype=float)
    sy = np.array([s["y_m"] for s in seats], dtype=float)
    lx = np.array([ls["x_m"] for ls in config["loudspeakers"]], dtype=float)
    ly = np.array([ls["y_m"] for ls in config["loudspeakers"]], dtype=float)
    distance = np.hypot(sx[:, None] - lx[None, :], sy[:, None] - ly[None, :]).min(axis=1)
    delay = 1000.0 * distance / speed
    span = float(delay.max())
    zones = max(1, math.ceil(span / (2.0 * tolerance_ms)))
    edges = span * np.arange(zones + 1) / zones
    zone = np.clip(np.searchsorted(edges, delay, side="right") - 1, 0, zones - 1)
    residual = delay - (edges[zone] + edges[zone + 1]) / 2.0
    band = np.searchsorted(CLASS_UPPER_EDGES_MS, np.abs(residual), side="left")
    max_abs = float(np.abs(residual).max())
    if max_abs > tolerance_ms * (1 + 1e-12) or delay.max() > span:
        raise AssertionError("venue oracle violates its own bound")
    return VenueReference(
        [s["id"] for s in seats], zones, zone, residual, [CLASS_NAMES[b] for b in band], max_abs
    )


def venue_matches(ref: VenueReference, plan: planner.DelayPlan, result: planner.PlanVerification) -> bool:
    rows = result.seats
    if len(plan.zones) != ref.zones or len(rows) != len(ref.seat_ids):
        return False
    if any(r.zone_index is None for r in rows):  # an uncovered seat
        return False
    if [r.seat_id for r in rows] != ref.seat_ids:
        return False
    zone = np.array([r.zone_index for r in rows])
    residual = np.array([r.residual_ms for r in rows])
    return (
        bool(np.array_equal(zone, ref.zone))
        and bool(np.allclose(residual, ref.residual_ms, rtol=0.0, atol=RESIDUAL_ATOL_MS))
        and [r.distortion.value for r in rows] == ref.distortion
        and abs(result.max_abs_residual_ms - ref.max_abs_residual_ms) <= RESIDUAL_ATOL_MS
    )


class VenueWorkload:
    """One op parses a large venue config, plans its zones and verifies them."""

    def __init__(
        self,
        seed: int,
        seats: int = 5000,
        loudspeakers: int = 8,
        depth_m: float = 120.0,
        width_m: float = 80.0,
        tolerance_ms: float = 5.0,
    ):
        rng = random.Random(seed)
        pitch = width_m / loudspeakers
        stage_y = 2.0  # loudspeakers hang at the stage edge; seats run back to depth_m
        self.tolerance_ms = tolerance_ms
        self.config = {
            "speed_of_sound_m_per_s": 343.0,
            "loudspeakers": [
                {"x_m": round(-width_m / 2 + pitch * (k + 0.5) + rng.uniform(-1, 1), 2), "y_m": stage_y}
                for k in range(loudspeakers)
            ],
            "seats": [
                {
                    "id": f"S{k:05d}",
                    "x_m": round(rng.uniform(-width_m / 2, width_m / 2), 2),
                    "y_m": round(rng.uniform(stage_y + 2.0, depth_m), 2),
                }
                for k in range(seats)
            ],
        }
        self.reference = venue_reference(self.config, tolerance_ms)

    def describe(self) -> str:
        return (
            f"{len(self.config['seats'])} seats, {len(self.config['loudspeakers'])} loudspeakers, "
            f"{self.tolerance_ms:g} ms tolerance ({self.reference.zones} zones)"
        )

    def op(self, i: int, rec=None):
        venue = acoustics.venue_from_dict(self.config)
        farthest = max(row.distance_m for row in acoustics.delay_map(venue))
        plan = planner.plan_zones(farthest, self.tolerance_ms, venue.speed_of_sound_m_per_s)
        return plan, planner.verify_plan(venue, plan)

    def check(self, i: int, output) -> bool:
        return venue_matches(self.reference, *output)

    def peak_rss_kb(self) -> int:
        return _self_peak_rss_kb()


# ---------------------------------------------------------------- cli


CLI_SUBS = ("plan", "map", "simulate", "autoconnect", "validate")


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    out_file: str | None  # written relative to the working directory
    exit_code: int


def quick_start() -> dict[str, Invocation]:
    """The README quick-start invocations on demo/."""
    venue = str(DEMO / "venue.json")
    plan = str(GOLDEN / "plan.json")
    return {
        "plan": Invocation(("plan", "--venue", venue, "--tolerance-ms", "30", "--out", "plan.json"), "plan.json", 0),
        "map": Invocation(("map", "--venue", venue, "--plan", plan, "--out", "map.csv"), "map.csv", 0),
        "simulate": Invocation(
            ("simulate", "--venue", venue, "--plan", plan, "--seat", "K1", "--out", "report.json"), "report.json", 0
        ),
        "autoconnect": Invocation(
            (
                "autoconnect",
                "--mic", "noise:7:1000:16000", "--snr-db", "0", "--seed", "42",
                "--stream", "A=noise:7:1000:16000", "--stream", "B=noise:8:1000:16000",
                "--max-lag-ms", "400", "--out", "selection.json",
            ),
            "selection.json",
            0,
        ),
        "validate": Invocation(("validate", "--config", str(DEMO / "broadcast.json"), "--mode", "strict"), None, 1),
    }


class UnexpectedExit(Exception):
    """A CLI process ended with another exit code than expected."""


class ChildTimeout(Exception):
    """A CLI process did not end in time and was killed."""


CHILD_TIMEOUT_S = 60.0


def _raise_timeout(signum, frame):
    raise ChildTimeout(f"child process still running after {CHILD_TIMEOUT_S} s")


def wait_child(proc: subprocess.Popen, timeout_s: float = CHILD_TIMEOUT_S):
    """Reap proc and return (exit code, its own resource usage).

    os.wait4 gives the usage of this one child, which Popen.wait does not;
    a SIGALRM bounds the wait without a watchdog thread.
    """
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except ChildTimeout:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


@dataclass(frozen=True)
class CliRun:
    sub: str
    stdout: bytes
    out: bytes | None


class CliWorkload:
    """One op is one fresh ``python -m alsalign`` process.

    Ops cycle through the quick-start subcommands in a seeded order, each
    cycle running every subcommand once.  Outputs must match the golden
    copies in bench/golden byte for byte.
    """

    def __init__(self, seed: int, work: Path, cycles: int = 200):
        self.work = work
        self.invocations = quick_start()
        rng = random.Random(seed)
        subs = sorted(self.invocations)
        self.order = []
        for _ in range(cycles):
            rng.shuffle(subs)
            self.order.extend(subs)
        self.golden = {
            sub: (
                (GOLDEN / f"{sub}.stdout").read_bytes(),
                (GOLDEN / inv.out_file).read_bytes() if inv.out_file else None,
            )
            for sub, inv in self.invocations.items()
        }
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.peak_kb = 0
        self.bytes_out: dict[str, int] = {}

    def describe(self) -> str:
        return "one fresh process per op, cycling " + ", ".join(sorted(self.invocations))

    def sub(self, i: int) -> str:
        return self.order[i % len(self.order)]

    def _spawn(self, sub: str, prefix: list[str]) -> CliRun:
        inv = self.invocations[sub]
        stdout_path = self.work / f"{sub}.stdout"
        out_path = self.work / inv.out_file if inv.out_file else None
        if out_path is not None and out_path.exists():
            out_path.unlink()  # a run that writes nothing must not pass on a stale file
        with open(stdout_path, "wb") as stdout, open(self.work / f"{sub}.stderr", "wb") as stderr:
            proc = subprocess.Popen(
                [*prefix, *inv.argv], cwd=self.work, env=self.env, stdin=subprocess.DEVNULL,
                stdout=stdout, stderr=stderr,
            )
            code, usage = wait_child(proc)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if code != inv.exit_code:
            raise UnexpectedExit(f"{sub}: exit code {code}, expected {inv.exit_code}")
        return CliRun(
            sub,
            stdout_path.read_bytes(),
            out_path.read_bytes() if out_path is not None and out_path.exists() else None,
        )

    def op(self, i: int, rec=None) -> CliRun:
        sub = self.sub(i)
        if rec is None:
            return self._spawn(sub, [sys.executable, "-m", "alsalign"])
        spans_path = self.work / "spans.json"
        spans_path.unlink(missing_ok=True)  # never adopt a previous op's spans
        run = self._spawn(sub, [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path)])
        rec.adopt(json.loads(spans_path.read_text()), parent=rec.current())
        return run

    def check(self, i: int, run: CliRun) -> bool:
        self.bytes_out[run.sub] = len(run.stdout) + len(run.out or b"")
        return (run.stdout, run.out) == self.golden[run.sub]

    def peak_rss_kb(self) -> int:
        return self.peak_kb

    def inproc_ms(self, sub: str, reps: int) -> float:
        """Median wall time of cli.main(argv) in this (warm) process."""
        from alsalign import cli

        argv = list(self.invocations[sub].argv)
        here = os.getcwd()
        times = []
        os.chdir(self.work)
        try:
            for _ in range(reps + 1):  # the first call warms caches and is dropped
                t0 = time.perf_counter()
                with redirect_stdout(io.StringIO()):
                    cli.main(argv)
                times.append(time.perf_counter() - t0)
        finally:
            os.chdir(here)
        return 1000.0 * float(np.median(times[1:]))

    def import_s(self) -> float:
        """Wall time of one fresh process that only imports alsalign."""
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", "import alsalign"], env=self.env, stdin=subprocess.DEVNULL)
        code, _ = wait_child(proc)
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise UnexpectedExit(f"import alsalign: exit code {code}")
        return elapsed


def build(name: str, seed: int, work: Path):
    if name == "autoconnect_long":
        return AutoconnectWorkload(seed, candidates=3, duration_ms=1000.0, window_ms=400.0, max_planted_ms=360.0, snr_db=0.0)
    if name == "autoconnect_short":
        return AutoconnectWorkload(seed, candidates=16, duration_ms=128.0, window_ms=20.0, max_planted_ms=20.0, snr_db=10.0)
    if name == "venue_verify":
        return VenueWorkload(seed)
    if name == "cli_fresh":
        return CliWorkload(seed, work)
    raise ValueError(f"unknown workload {name!r}")
