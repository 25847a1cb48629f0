"""The README quick-start invocations give the committed golden bytes.

QUICK_START is the README's quick-start block, with absolute paths for
the demo files and the golden plan. bench/golden/ holds the stdout and
the output file of each invocation, as the benchmark checks them; this
test only reads that directory. Each invocation runs in-process, as a
fresh `python -m alsalign` process, as a fresh process with numpy's
SIMD kernels held to the x86-64-v2 baseline, so that the bytes do not
depend on which kernels numpy picks, and through the `alsalign` script
that `pip install -e .` puts on PATH, when there is one.
"""

import shlex
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from alsalign.cli import main

REPO = Path(__file__).resolve().parents[1]
VENUE = str(REPO / "demo" / "venue.json")
GOLDEN = REPO / "bench" / "golden"
PLAN = str(GOLDEN / "plan.json")
BROADCAST = str(REPO / "demo" / "broadcast.json")

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
    "validate": (["validate", "--config", BROADCAST, "--mode", "strict"], None, 1),
}

# numpy's dispatched x86 targets above its X86_V2 baseline
ABOVE_BASELINE = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
CPU_FEATURES = getattr(np._core._multiarray_umath, "__cpu_features__", {})


@pytest.fixture(params=["in-process", "python-m", "python-m-baseline-simd", "alsalign-script"])
def run(request, tmp_path, monkeypatch, capsys, fresh_process):
    """Run an argv from an empty directory; return (exit code, stdout, stderr) as bytes."""
    monkeypatch.chdir(tmp_path)
    if request.param == "alsalign-script":
        script = shutil.which("alsalign")
        if script is None:
            pytest.skip("no alsalign script on PATH; pip install -e . writes one")

        def installed(argv):  # the entry a user runs
            done = subprocess.run([script, *argv], capture_output=True)
            return done.returncode, done.stdout, done.stderr

        return installed
    env = None
    if request.param == "python-m-baseline-simd":
        if not any(CPU_FEATURES.get(feature) for feature in ABOVE_BASELINE):
            pytest.skip("numpy runs none of its SIMD targets above the baseline here")
        env = {"NPY_DISABLE_CPU_FEATURES": " ".join(ABOVE_BASELINE)}

    def python_m(argv):  # the entry the benchmark spawns
        done = fresh_process("-m", "alsalign", *argv, env=env)
        return done.returncode, done.stdout, done.stderr

    def in_process(argv):
        exit_code = main(argv)
        captured = capsys.readouterr()
        return exit_code, captured.out.encode(), captured.err.encode()

    return in_process if request.param == "in-process" else python_m


@pytest.mark.parametrize("sub", list(QUICK_START))
def test_quick_start_output_bytes(sub, run, tmp_path):
    argv, out, exit_code = QUICK_START[sub]
    assert run(argv) == (exit_code, (GOLDEN / f"{sub}.stdout").read_bytes(), b"")
    if out is not None:
        assert (tmp_path / out).read_bytes() == (GOLDEN / out).read_bytes()


def test_readme_quick_start_is_the_table():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Quick start", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = block.replace("\\\n", " ").splitlines()
    documented = [shlex.split(command)[1:] for command in commands if command.startswith("alsalign ")]
    as_written = {VENUE: "demo/venue.json", PLAN: "plan.json", BROADCAST: "demo/broadcast.json"}
    assert documented == [[as_written.get(arg, arg) for arg in argv] for argv, _, _ in QUICK_START.values()]


def test_readme_library_example_prints_its_comments(fresh_python):
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # each print line ends with a comment that gives its output
    expected = [line.rpartition("# ")[2] for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["3", "A 120.0"]
    done = fresh_python(code, check=True)
    assert done.stdout.splitlines() == expected
