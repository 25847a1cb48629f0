"""The README quick-start invocations give the committed golden bytes.

bench/golden/ holds the stdout and the output file of each invocation, as
the benchmark checks them; this test only reads that directory.
"""

from pathlib import Path

import pytest

from alsalign.cli import main

REPO = Path(__file__).resolve().parents[1]
VENUE = str(REPO / "demo" / "venue.json")
GOLDEN = REPO / "bench" / "golden"
PLAN = str(GOLDEN / "plan.json")

# subcommand -> (argv run from an empty directory, output file, exit code)
QUICK_START = {
    "plan": (["plan", "--venue", VENUE, "--tolerance-ms", "30", "--out", "plan.json"], "plan.json", 0),
    "map": (["map", "--venue", VENUE, "--plan", PLAN, "--out", "map.csv"], "map.csv", 0),
    "simulate": (
        ["simulate", "--venue", VENUE, "--plan", PLAN, "--seat", "K1", "--out", "report.json"],
        "report.json",
        0,
    ),
    "autoconnect": (
        [
            "autoconnect",
            "--mic", "noise:7:1000:16000", "--snr-db", "0", "--seed", "42",
            "--stream", "A=noise:7:1000:16000", "--stream", "B=noise:8:1000:16000",
            "--max-lag-ms", "400", "--out", "selection.json",
        ],
        "selection.json",
        0,
    ),
    "validate": (["validate", "--config", str(REPO / "demo" / "broadcast.json"), "--mode", "strict"], None, 1),
}


@pytest.mark.parametrize("sub", list(QUICK_START))
def test_quick_start_output_bytes(sub, tmp_path, monkeypatch, capsys):
    argv, out, exit_code = QUICK_START[sub]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == exit_code
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.encode() == (GOLDEN / f"{sub}.stdout").read_bytes()
    if out is not None:
        assert (tmp_path / out).read_bytes() == (GOLDEN / out).read_bytes()
