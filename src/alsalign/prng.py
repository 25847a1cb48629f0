"""SplitMix64 pseudo-random generator.

Chosen for bit-exact reproducibility: the whole state is one 64-bit
integer and the update is three xorshift-multiply lines, so any
implementation on any platform produces the same stream for the same
seed. All randomness in this package flows through this generator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

# numpy is imported where arrays are made, so that planning alone never loads it
if TYPE_CHECKING:
    import numpy as np

__all__ = ["SplitMix64"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class SplitMix64:
    """Deterministic 64-bit generator; state advances by a fixed odd gamma."""

    def __init__(self, seed: int):
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform float in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def symmetric_block(self, n: int) -> np.ndarray:
        """n uniform floats in [-1, 1), identical to n calls of 2 * next_float() - 1.

        The k-th output only depends on state + k*gamma, so the block is
        computed with vectorized uint64 arithmetic (in place, wrapping mod
        2**64) and the state is then advanced past it. The top 53 bits
        convert to floats exactly; scaling them by 2**-52 instead of 2**-53
        and then by 2 is exact, and so is subtracting 1 from a multiple of
        2**-52 in [0, 2). The floats are written over the spent shift
        buffer, so the block costs two arrays of n.
        """
        if n < 0:
            raise ValueError(f"block length must be >= 0, got {n}")
        import numpy as np

        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _GAMMA
        z += self._state
        shifted = np.empty_like(z)
        for shift, mix in ((30, _MIX1), (27, _MIX2)):
            z ^= np.right_shift(z, shift, out=shifted)
            z *= mix
        z ^= np.right_shift(z, 31, out=shifted)
        z >>= 11
        self._state = (self._state + n * _GAMMA) & _MASK64
        u = np.multiply(z, 2.0**-52, out=shifted.view(np.float64))
        u -= 1.0
        return u
