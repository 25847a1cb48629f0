import os
import subprocess
import sys
import tracemalloc
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


@pytest.fixture
def large_allocation_steps():
    """Return count(fn, min_bytes=64 KiB): run fn under tracemalloc and count the steps of min_bytes or more.

    A profile hook reads traced memory at every Python and C call and
    return, then resets its peak. A step is a rise of the peak by
    min_bytes above the level at the previous event, so each array of
    min_bytes or more counts once, except that arrays made between the
    same two events count once together.
    """

    def count(fn, min_bytes=64 * 1024):
        steps = level = 0

        def hook(frame, event, arg):
            nonlocal steps, level
            current, peak = tracemalloc.get_traced_memory()
            if peak - level >= min_bytes:
                steps += 1
            tracemalloc.reset_peak()
            level = current

        tracemalloc.start()
        level = tracemalloc.get_traced_memory()[0]
        sys.setprofile(hook)
        try:
            fn()
        finally:
            sys.setprofile(None)
            tracemalloc.stop()
        return steps

    return count
