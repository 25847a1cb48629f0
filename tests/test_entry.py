"""The process entry starts OpenBLAS with one thread; cli.main leaves os.environ alone."""

import contextlib
import io
import os
from pathlib import Path

import pytest

from alsalign.cli import main

AUTOCONNECT = [
    "autoconnect",
    "--mic", "noise:7:1000:16000", "--snr-db", "0", "--seed", "42",
    "--stream", "A=noise:7:1000:16000", "--stream", "B=noise:8:1000:16000",
    "--max-lag-ms", "400", "--out", "selection.json",
]

# run the entry as `python -m alsalign` does, then count this process's OS threads
RUN_ENTRY = (
    "import os, runpy\n"
    "try:\n"
    "    runpy.run_module('alsalign', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    print('exit', exc.code)\n"
    "print(len(os.listdir('/proc/self/task')))\n"
)


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads through Linux /proc")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts no worker on one core")
@pytest.mark.parametrize("env, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)], ids=["default", "user-set-2"])
def test_entry_runs_openblas_on_one_thread_unless_set(fresh_python, tmp_path, monkeypatch, env, threads):
    # OpenBLAS falls back to these when OPENBLAS_NUM_THREADS is unset
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    done = fresh_python(RUN_ENTRY, *AUTOCONNECT, env=env, cwd=tmp_path)
    assert done.stderr == "", done.stderr
    *_, exit_line, count = done.stdout.splitlines()
    assert exit_line == "exit 0"
    assert int(count) == threads


def test_cli_main_leaves_environment_alone(tmp_path, monkeypatch):
    # unset, so that a default set by cli.main would show
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.chdir(tmp_path)
    before = dict(os.environ)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(AUTOCONNECT) == 0
    assert dict(os.environ) == before
