"""What a fresh process loads: the package itself loads no submodule, a
CLI process loads every layer module, decimal, csv and wave load only in
the subcommands that use them, and numpy only in the audio subcommands."""

import json

import pytest

from test_golden import QUICK_START

# the last stdout line: what the process loaded, and its OS thread count
REPORT = (
    "import json, os, sys\n"
    "print(json.dumps({\n"
    "    'alsalign': sorted(m.partition('.')[2] for m in sys.modules if m.startswith('alsalign.')),\n"
    "    'deferred': sorted({'csv', 'decimal', 'wave'} & set(sys.modules)),\n"
    "    'numpy': sorted({'numpy', 'numpy.fft'} & set(sys.modules)),\n"
    "    'threads': len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else None,\n"
    "}))\n"
)
LIBRARY = {"acoustics", "autoconnect", "broadcast", "perception", "planner", "prng", "signals"}

# run the entry as `python -m alsalign` does, report, and exit with the entry's code
RUN_ENTRY = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('alsalign', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    + REPORT
    + "sys.exit(code)\n"
)


def loaded(fresh_python, code: str, *args: str, exit_code=0, **kwargs) -> dict:
    """Run code that ends with REPORT in a fresh interpreter; return the report."""
    done = fresh_python(code, *args, **kwargs)
    assert done.stderr == "", done.stderr
    assert done.returncode == exit_code
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "lookup, modules",
    [
        ("", set()),
        ("assert not hasattr(alsalign, '__wrapped__')", set()),
        ("alsalign.signals", {"signals", "prng"}),
        ("alsalign.planner", {"planner", "acoustics", "perception"}),
        ("alsalign.broadcast", {"broadcast", "acoustics", "signals", "prng"}),
        ("alsalign.cli", LIBRARY | {"cli"}),
        ("assert not hasattr(alsalign, 'plan_zones')", set()),
    ],
    ids=["import", "dunder", "signals", "planner", "broadcast", "cli", "plan_zones"],
)
def test_name_loads_its_module(fresh_python, lookup, modules):
    # no lookup loads numpy: the planning side is pure arithmetic
    report = loaded(fresh_python, f"import alsalign\n{lookup}\n" + REPORT)
    assert set(report["alsalign"]) == modules
    assert report["numpy"] == []


# subcommand -> (deferred standard modules, numpy modules) it loads; the
# audio commands must load numpy, or the checks that the others do not
# could pass vacuously, and only the autoconnect search loads numpy.fft
LOADS = {
    "plan": ({"decimal"}, set()),
    "map": ({"csv"}, set()),
    "simulate": (set(), {"numpy"}),
    "autoconnect": (set(), {"numpy", "numpy.fft"}),
    "validate": (set(), set()),
}


@pytest.mark.parametrize("sub", list(QUICK_START))
def test_subcommand_loads_every_layer_and_only_its_deferred_modules(fresh_python, tmp_path, sub):
    argv, _, exit_code = QUICK_START[sub]
    report = loaded(fresh_python, RUN_ENTRY, *argv, cwd=tmp_path, exit_code=exit_code)
    assert set(report["alsalign"]) == LIBRARY | {"cli"}
    assert (set(report["deferred"]), set(report["numpy"])) == LOADS[sub]
