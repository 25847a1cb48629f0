"""alsalign benchmark: one seeded, closed-loop workload measured for a fixed time.

    python3 bench/run.py --workload autoconnect_long --seed 1 --seconds 34 --trace 0

One caller in one process sends the next op when the previous one has
returned.  The run prints every metric by name and unit, a record of the
environment, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  It builds nothing: the program is imported from src/ of
the checkout.  See bench/README.md.
"""

import time

T_START = time.perf_counter()  # setup_s counts from here, before numpy and alsalign load

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("autoconnect_long", "autoconnect_short", "venue_verify", "cli_fresh")


def parse_args(argv):
    p = argparse.ArgumentParser(description="alsalign benchmark (see bench/README.md)")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=34.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= 120:
        p.error("--seconds must be in (0, 120]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "alsalign" / "__init__.py").is_file():
        print(f"error: no alsalign sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import alsalign

    if Path(alsalign.__file__).resolve().parent != (SRC / "alsalign").resolve():
        print(f"error: imported alsalign from {alsalign.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import harness

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        result = harness.run(args, work, T_START)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # stays while another run still uses it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
