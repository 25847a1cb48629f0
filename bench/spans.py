"""In-memory span recorder and the layer wrappers the traced run installs.

A span is one call into a layer: its name, the span that caused it, and
its duration.  Spans are appended to flat arrays while the benchmark
runs and are summarised once, at the end of the run.  The benchmark is
single-threaded, so spans nest strictly and a span's self time is its
duration minus the durations of its direct children.

Nothing under ``src/`` is changed: ``tracing()`` replaces each layer's
public function, for the duration of a ``with`` block, in every
``alsalign`` module namespace where callers look it up (for example
``planner.delay_map``, which ``verify_plan`` calls through its own module
globals), and restores the originals on exit.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

import alsalign
from alsalign import broadcast

ROOT_PARENT = -1


class Recorder:
    """Spans and per-layer counts of one process, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("q")
        self._time = array("d")  # start while a span is open, duration once closed
        self._open: list[int] = []
        self.counts: Counter = Counter()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        return self._ids[name]

    def begin(self, name_id: int) -> int:
        idx = len(self._time)
        self._name.append(name_id)
        self._parent.append(self._open[-1] if self._open else ROOT_PARENT)
        self._open.append(idx)
        self._time.append(self._clock())
        return idx

    def end(self, idx: int) -> None:
        self._time[idx] = self._clock() - self._time[idx]
        self._open.pop()

    def current(self) -> int:
        """Index of the innermost open span."""
        return self._open[-1]

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself; yields its index."""
        idx = self.begin(self.name_id(name))
        try:
            yield idx
        finally:
            self.end(idx)

    def _check_closed(self) -> None:
        if self._open:
            raise RuntimeError(f"{len(self._open)} spans still open")

    def dump(self) -> dict:
        """Closed spans and counts as JSON-ready data."""
        self._check_closed()
        return {
            "names": list(self._names),
            "name": self._name.tolist(),
            "parent": self._parent.tolist(),
            "duration_s": self._time.tolist(),
            "counts": dict(self.counts),
        }

    def adopt(self, dump: dict, parent: int) -> None:
        """Append spans recorded in another process below one of ours.

        Only durations and nesting are used, so the two processes' clocks
        need not agree.
        """
        offset = len(self._time)
        ids = [self.name_id(n) for n in dump["names"]]
        for name, par, dur in zip(dump["name"], dump["parent"], dump["duration_s"]):
            self._name.append(ids[name])
            self._parent.append(parent if par == ROOT_PARENT else par + offset)
            self._time.append(dur)
        self.counts.update(dump["counts"])

    def summary(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, self time in seconds)."""
        self._check_closed()
        name = np.array(self._name, dtype=np.int64)
        parent = np.array(self._parent, dtype=np.int64)
        dur = np.array(self._time, dtype=np.float64)
        nested = parent != ROOT_PARENT
        child_time = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        k = len(self._names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=dur - child_time, minlength=k)
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self._names)}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _search_counts(args, kwargs, result) -> dict:
    # Computed from the arguments, not measured: the exhaustive search
    # evaluates lags 0..L, each a dot product of n - lag samples.
    mic, stream = _arg(args, kwargs, 0, "mic"), _arg(args, kwargs, 1, "stream")
    n = min(len(mic), len(stream))
    max_lag = round(_arg(args, kwargs, 2, "max_lag_ms") * mic.sample_rate_hz / 1000.0)
    lags = max_lag + 1
    return {"lags": lags, "macs": lags * n - max_lag * lags // 2}


def _sink_counts(args, kwargs, outcome) -> dict:
    return {"rejected": int(isinstance(outcome, broadcast.SinkDelayError))}


# (module, attribute path, count names, counts from (args, kwargs, result)).
# Span and metric names are "<module>.<function>".  Counts are taken for
# calls that return, except those in COUNTS_ON_ERROR, which also see
# the exception a call raised.
LAYER_FUNCTIONS = [
    ("prng", "SplitMix64.symmetric_block", ("samples",), lambda a, k, r: {"samples": len(r)}),
    ("signals", "gen_white_noise", (), None),
    ("signals", "delay_signal", (), None),
    ("signals", "add_noise_snr", (), None),
    ("autoconnect", "estimate_alignment_delay", ("lags", "macs"), _search_counts),
    ("autoconnect", "select_stream", ("matched",), lambda a, k, r: {"matched": int(r.matched)}),
    ("autoconnect", "autoconnect_pipeline", (), None),
    ("broadcast", "sink_apply_delays", ("rejected",), _sink_counts),
    ("broadcast", "validate_config", (), None),
    ("broadcast", "load_broadcast_config", (), None),
    ("acoustics", "venue_from_dict", (), None),
    ("acoustics", "delay_map", ("seats",), lambda a, k, r: {"seats": len(r)}),
    ("planner", "plan_zones", ("zones",), lambda a, k, r: {"zones": len(r.zones)}),
    ("planner", "verify_plan", ("uncovered",), lambda a, k, r: {"uncovered": len(r.uncovered_seat_ids)}),
    ("planner", "zone_for_delay", (), None),
    ("perception", "classify_residual", (), None),
    ("perception", "notch_frequencies", (), None),
    ("perception", "ear_signal", (), None),
]
COUNTS_ON_ERROR = {_sink_counts}


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rpartition('.')[2]}"


def _wrap(rec: Recorder, name: str, fn, counts):
    name_id = rec.name_id(name)
    totals = rec.counts
    on_error = counts in COUNTS_ON_ERROR

    def traced(*args, **kwargs):
        idx = rec.begin(name_id)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            rec.end(idx)
            if on_error:
                for stat, v in counts(args, kwargs, exc).items():
                    totals[f"{name}.{stat}"] += v
            raise
        rec.end(idx)
        if counts is not None:
            for stat, v in counts(args, kwargs, result).items():
                totals[f"{name}.{stat}"] += v
        return result

    traced.traced_span = name
    return traced


@contextlib.contextmanager
def tracing(rec: Recorder):
    """Route every call of the layer functions through span recorders."""
    modules = [m for n, m in list(sys.modules.items()) if n == "alsalign" or n.startswith("alsalign.")]
    undo = []
    try:
        for module, attr, _, counts in LAYER_FUNCTIONS:
            mod = getattr(alsalign, module)
            owner_path, _, leaf = attr.rpartition(".")
            owner = getattr(mod, owner_path) if owner_path else mod
            original = getattr(owner, leaf)
            if hasattr(original, "traced_span"):
                raise RuntimeError(f"{module}.{attr} is already traced")
            wrapper = _wrap(rec, span_name(module, attr), original, counts)
            # a method is looked up on its class; a function in every
            # module namespace that bound it, e.g. planner.delay_map
            targets = [owner] if owner_path else [m for m in modules if m.__dict__.get(leaf) is original]
            for target in targets:
                undo.append((target, leaf, original))
                setattr(target, leaf, wrapper)
        yield rec
    finally:
        for target, leaf, original in reversed(undo):
            setattr(target, leaf, original)
