import os
import subprocess
import sys
from pathlib import Path

import pytest

import alsalign


@pytest.fixture
def fresh_process():
    """Run a fresh interpreter that imports this checkout's alsalign.

    Returns a function (*args, env=None, **run_kwargs) -> CompletedProcess
    that runs `python *args`; env holds variables to add to the current
    environment, and run_kwargs go to subprocess.run. Output is captured.
    """
    src_dir = str(Path(alsalign.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)

    def run(*args: str, env: dict[str, str] | None = None, **run_kwargs) -> subprocess.CompletedProcess:
        full_env = {**os.environ, "PYTHONPATH": path, **(env or {})}
        return subprocess.run([sys.executable, *args], env=full_env, capture_output=True, **run_kwargs)

    return run


@pytest.fixture
def fresh_python(fresh_process):
    """Run Python code in a fresh interpreter: (code, *args, env=None, **run_kwargs).

    As fresh_process, with the output captured as text.
    """

    def run(code: str, *args: str, **kwargs) -> subprocess.CompletedProcess:
        return fresh_process("-c", code, *args, text=True, **kwargs)

    return run
