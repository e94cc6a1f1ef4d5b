"""Deterministic counter-based random streams for simulation and sampling.

The generator is SplitMix64 used in counter mode: output ``i`` of a stream
with seed ``s`` is the SplitMix64 finalizer applied to ``s + (i+1)*GAMMA``.
Counter mode makes block generation vectorizable with numpy while keeping
the sequence a pure function of ``(seed, i)``, so results are reproducible
bit for bit across platforms and across chunkings of the draw.

Constants are the standard SplitMix64 ones and are frozen: tests rely on
exact output values.  A stream offers only the draws the program makes;
the test suite builds its integers and shuffles on ``uniform``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RandomStream"]

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps mod 2^64 by construction

    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class RandomStream:
    """Explicit-seed random stream with vectorized draws.

    Parameters
    ----------
    seed : int
        Any Python integer; reduced mod 2^64.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def spawn(self, index: int) -> "RandomStream":
        """Derive an independent child stream; deterministic in (seed, index)."""
        tag = _mix(np.uint64([(int(self._seed) + 0x632BE59BD9B4E019 * (index + 1)) & 0xFFFFFFFFFFFFFFFF]))[0]
        return RandomStream(int(tag))

    def uint64(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix(self._seed + idx * _GAMMA)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1), using the top 53 bits of each word."""
        return (self.uint64(n) >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def exponential(self, n: int) -> np.ndarray:
        """n unit-rate exponentials by inverse-CDF sampling."""
        return -np.log1p(-self.uniform(n))

    def simplex(self, k: int) -> np.ndarray:
        """One uniform (Dirichlet(1,...,1)) point on the k-simplex."""
        e = self.exponential(k)
        return e / e.sum()
