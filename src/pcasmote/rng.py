"""Deterministic pseudorandom stream used by every stochastic stage.

The generator is splitmix64.  Starting from a 64-bit ``seed``, each call
advances the state by the golden-gamma constant and finalises it:

    state  <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z      <- state
    z      <- (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z      <- (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output <- z XOR (z >> 31)

Derived draws are defined exactly as:

* ``random()``      -> ``(next_u64() >> 11) * 2**-53`` (uniform in [0, 1))
* ``randrange(n)``  -> ``next_u64() % n``

Because the state after ``i + 1`` calls is ``seed + (i + 1) * gamma mod 2^64``,
draw i (counting from 0) is the finaliser of that state on its own.
``next_u64_array(seeds, n)`` computes the first ``n`` draws of each seed of a
list that way, one uint64 row per seed; it is part of the spec.  One stream,
``[Rng(seed).next_u64() for _ in range(n)]``, is row 0 of a one-seed call.

``derive_seed(seed, index)`` feeds ``seed + (index + 1) * 0x9E3779B97F4A7C15``
through the finaliser, giving independent, reproducible sub-streams for
sequenced stages (e.g. successive oversampling runs).

Any implementation following these rules reproduces the streams bit for bit.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    """splitmix64 finaliser, on a Python int or elementwise on a uint64 array.

    uint64 array arithmetic wraps mod 2^64 without a warning, so the masks
    are no-ops there.
    """
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """splitmix64 stream; same seed gives the same sequence forever."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Integer in [0, n). Modulo reduction, documented as part of the stream."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return self.next_u64() % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by randrange."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]


def next_u64_array(seeds, n: int) -> np.ndarray:
    """The first ``n`` outputs of ``Rng(seed).next_u64()`` for each seed of
    the sequence ``seeds``, as a uint64 array ``(len(seeds), n)``."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    steps = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    starts = np.array([s & _MASK64 for s in seeds], dtype=np.uint64)
    return _mix(starts[:, None] + steps)


def derive_seed(seed: int, index: int) -> int:
    """Deterministic sub-seed for stage ``index`` of a seeded sequence."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    return _mix((seed + (index + 1) * _GAMMA) & _MASK64)
