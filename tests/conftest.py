import os
import subprocess
import sys
from pathlib import Path

import pytest

import alsalign


@pytest.fixture
def fresh_python():
    """Run Python code in a fresh interpreter that imports this checkout's alsalign.

    Returns a function (code, *args, env=None, **run_kwargs) -> CompletedProcess;
    env holds variables to add to the current environment, and run_kwargs
    go to subprocess.run. Output is captured as text.
    """
    src_dir = str(Path(alsalign.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)

    def run(code: str, *args: str, env: dict[str, str] | None = None, **run_kwargs) -> subprocess.CompletedProcess:
        full_env = {**os.environ, "PYTHONPATH": path, **(env or {})}
        return subprocess.run(
            [sys.executable, "-c", code, *args], env=full_env, capture_output=True, text=True, **run_kwargs
        )

    return run
