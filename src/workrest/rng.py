"""Counter-based deterministic random values (splitmix64 finalizer).

Every random quantity in the simulator is a pure function of
``(seed, worker_id, counter)``: the three values are combined into one
64-bit word and pushed through the splitmix64 finalizer. This makes the
value independent of evaluation order, so runs are reproducible no matter
how workers are batched or parallelized.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_WORKER_KEY = 0x9E3779B97F4A7C15
_SLOT_KEY = 0xD1B54A32D192ED03
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Stream tags keep population-generation draws disjoint from mood draws
# (slot counters are always far below these values).
REPUTATION_STREAM = 0x5245505554415449
MU_MAX_STREAM = 0x4D41585052304455


def mix64(seed: int, worker_id: int, counter: int) -> int:
    """Combine (seed, worker_id, counter) into one uniform 64-bit word."""
    z = (seed ^ (worker_id * _WORKER_KEY) ^ (counter * _SLOT_KEY)) & _MASK64
    z ^= z >> 30
    z = (z * _MIX1) & _MASK64
    z ^= z >> 27
    z = (z * _MIX2) & _MASK64
    z ^= z >> 31
    return z


def uniform01(seed: int, worker_id: int, counter: int) -> float:
    """Uniform double in [0, 1) keyed by (seed, worker_id, counter)."""
    return mix64(seed, worker_id, counter) / 2.0 ** 64


def uniform01_array(seed: int, worker_ids: np.ndarray, counter: int) -> np.ndarray:
    """Vectorized ``uniform01`` over an array of worker ids.

    Bit-identical to the scalar path: uint64 arithmetic wraps mod 2**64
    exactly like the masked Python-int arithmetic above.
    """
    ids = np.asarray(worker_ids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed & _MASK64) ^ (ids * np.uint64(_WORKER_KEY))
        z = z ^ np.uint64((counter * _SLOT_KEY) & _MASK64)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
    return z / 2.0 ** 64
