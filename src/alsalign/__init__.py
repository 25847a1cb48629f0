"""Deterministic planning and simulation toolkit for assistive listening alignment.

Submodules: signals (deterministic audio), acoustics (venue geometry and
propagation delay), perception (residual classification, comb filter),
planner (delay zones), broadcast (control-plane rules), autoconnect
(stream selection by cross-correlation), cli. Every name in a
submodule's __all__ is also a name of the package.

Importing the package loads no submodule (PEP 562). A submodule name
loads that module; the first other public name, or ``__all__``, loads
the seven library modules and binds all their public names here.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_LIBRARY = ("acoustics", "autoconnect", "broadcast", "perception", "planner", "prng", "signals")
_SUBMODULES = frozenset((*_LIBRARY, "cli"))


def _bind_public_names() -> None:
    names = list(_LIBRARY)
    for module_name in _LIBRARY:
        module = _import_module(f"{__name__}.{module_name}")
        names.extend(module.__all__)
        globals().update({name: getattr(module, name) for name in module.__all__})
    globals()["__all__"] = names


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    if name == "__all__" or not name.startswith("__"):
        _bind_public_names()
        if name in globals():
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    _bind_public_names()
    return sorted(globals())
