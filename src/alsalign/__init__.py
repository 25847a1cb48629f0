"""Deterministic planning and simulation toolkit for assistive listening alignment.

Submodules: signals (deterministic audio), prng (SplitMix64), acoustics
(venue geometry and propagation delay), perception (residual
classification, comb filter), planner (delay zones), broadcast
(control-plane rules), autoconnect (stream selection by
cross-correlation), cli. Each public name is imported from its
submodule, as in ``from alsalign.planner import plan_zones``.

Importing the package loads no submodule (PEP 562): looking a submodule
up by name loads that module and the ones it imports.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_SUBMODULES = frozenset(("acoustics", "autoconnect", "broadcast", "cli", "perception", "planner", "prng", "signals"))


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
