"""Deterministic planning and simulation toolkit for assistive listening alignment.

Submodules: signals (deterministic audio), acoustics (venue geometry and
propagation delay), perception (residual classification, comb filter),
planner (delay zones), broadcast (control-plane rules), autoconnect
(stream selection by cross-correlation), cli. Every name in a
submodule's __all__ is also a name of the package.
"""

from .acoustics import *
from .autoconnect import *
from .broadcast import *
from .perception import *
from .planner import *
from .prng import *
from .signals import *

__version__ = "0.1.0"
