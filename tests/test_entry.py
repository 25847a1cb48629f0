"""The process entry starts OpenBLAS with one thread; cli.main leaves os.environ alone."""

import contextlib
import io
import os
from pathlib import Path

import pytest

from alsalign.cli import main

from test_golden import QUICK_START
from test_package import RUN_ENTRY, loaded


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="counts threads through Linux /proc")
@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts no worker on one core")
@pytest.mark.parametrize("env, threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)], ids=["default", "user-set-2"])
def test_entry_runs_openblas_on_one_thread_unless_set(fresh_python, tmp_path, monkeypatch, env, threads):
    # OpenBLAS falls back to these when OPENBLAS_NUM_THREADS is unset
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    assert loaded(fresh_python, RUN_ENTRY, *QUICK_START["autoconnect"][0], env=env, cwd=tmp_path)["threads"] == threads


def test_cli_main_leaves_environment_alone(tmp_path, monkeypatch):
    # unset, so that a default set by cli.main would show
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.chdir(tmp_path)
    before = dict(os.environ)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(QUICK_START["autoconnect"][0]) == 0
    assert dict(os.environ) == before
