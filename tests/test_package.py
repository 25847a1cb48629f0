"""What a fresh process loads: the package itself loads no submodule, a
CLI process loads every layer module, and decimal, csv and wave load only
in the subcommands that use them."""

import ast
import contextlib
import io
from pathlib import Path

import pytest

import alsalign
from alsalign.cli import main

REPO = Path(__file__).resolve().parents[1]
DEMO_VENUE = REPO / "demo" / "venue.json"
DEMO_BROADCAST = REPO / "demo" / "broadcast.json"

# the last stdout line lists the alsalign submodules the code loaded
LOADED = "print(sorted(m.partition('.')[2] for m in sys.modules if m.startswith('alsalign.')))\n"
# ... and the line before it the deferred standard modules it loaded
DEFERRED = "print(sorted({'csv', 'decimal', 'wave'} & set(sys.modules)))\n"
LIBRARY = {"acoustics", "autoconnect", "broadcast", "perception", "planner", "prng", "signals"}

# run the entry as `python -m alsalign` does
RUN_ENTRY = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('alsalign', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    + DEFERRED
    + LOADED
    + "sys.exit(code)\n"
)


def _printed_sets(fresh_python, code: str, *args: str, cwd=None, exit_code=0) -> list[set[str]]:
    done = fresh_python(code, *args, cwd=cwd)
    assert done.stderr == "", done.stderr
    assert done.returncode == exit_code
    return [set(ast.literal_eval(line)) for line in done.stdout.splitlines()[-2:]]


def _loaded(fresh_python, code: str) -> set[str]:
    return _printed_sets(fresh_python, code)[-1]


def test_import_loads_no_submodule(fresh_python):
    assert _loaded(fresh_python, "import sys, alsalign\n" + LOADED) == set()


def test_dunder_lookup_loads_nothing(fresh_python):
    code = "import sys, alsalign\nassert not hasattr(alsalign, '__wrapped__')\n" + LOADED
    assert _loaded(fresh_python, code) == set()


@pytest.mark.parametrize(
    "name, modules",
    [
        ("signals", {"signals", "prng"}),
        ("planner", {"planner", "acoustics", "perception"}),
        ("cli", LIBRARY | {"cli"}),
        ("plan_zones", LIBRARY),
        ("__all__", LIBRARY),
    ],
)
def test_name_loads_its_module(fresh_python, name, modules):
    assert _loaded(fresh_python, f"import sys, alsalign\nalsalign.{name}\n" + LOADED) == modules


def test_star_import_binds_every_public_name(fresh_python):
    code = "import sys\nfrom alsalign import *\nprint(sorted(k for k in dir() if not k.startswith('_')))\n"
    done = fresh_python(code, check=True)
    bound = set(ast.literal_eval(done.stdout.splitlines()[-1])) - {"sys"}
    assert bound == set(alsalign.__all__)
    assert len(bound) == 70


def test_one_lookup_binds_every_public_name(fresh_python):
    code = "import alsalign\nalsalign.plan_zones\nprint(sorted(k for k in vars(alsalign) if not k.startswith('_')))\n"
    done = fresh_python(code, check=True)
    assert set(ast.literal_eval(done.stdout.splitlines()[-1])) == set(alsalign.__all__)


@pytest.mark.parametrize(
    "argv, exit_code, deferred",
    [
        (["plan", "--venue", str(DEMO_VENUE), "--out", "plan.json"], 0, {"decimal"}),
        (["map", "--venue", str(DEMO_VENUE), "--plan", "demo-plan.json", "--out", "map.csv"], 0, {"csv"}),
        (["validate", "--config", str(DEMO_BROADCAST), "--mode", "strict"], 1, set()),
        (
            ["simulate", "--venue", str(DEMO_VENUE), "--plan", "demo-plan.json", "--seat", "K1", "--out", "r.json"],
            0,
            set(),
        ),
        (
            [
                "autoconnect",
                "--mic", "noise:7:1000:16000", "--snr-db", "0", "--seed", "42",
                "--stream", "A=noise:7:1000:16000", "--stream", "B=noise:8:1000:16000",
                "--max-lag-ms", "400", "--out", "selection.json",
            ],
            0,
            set(),
        ),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_subcommand_loads_every_layer_and_only_its_deferred_modules(fresh_python, tmp_path, argv, exit_code, deferred):
    with contextlib.redirect_stdout(io.StringIO()):
        main(["plan", "--venue", str(DEMO_VENUE), "--out", str(tmp_path / "demo-plan.json")])
    loaded_deferred, loaded = _printed_sets(fresh_python, RUN_ENTRY, *argv, cwd=tmp_path, exit_code=exit_code)
    assert loaded == LIBRARY | {"cli"}
    assert loaded_deferred == deferred
