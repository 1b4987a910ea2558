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


def uniform01_array(seed: int, worker_ids: np.ndarray, counter) -> np.ndarray:
    """Uniform doubles in [0, 1], one per worker id, keyed by (seed, id, counter).

    uint64 arithmetic wraps mod 2**64, so each value equals the scalar
    splitmix64 reference computed with masked Python ints; a word within
    2**10 of 2**64 rounds to 1.0. A ``(k, 1)`` array ``counter`` gives k rows.
    A seed outside [0, 2**64) is a ValueError: reduced, it would alias one inside.
    """
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    ids = np.asarray(worker_ids, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed) ^ (ids * np.uint64(_WORKER_KEY))
        z = z ^ (np.asarray(counter, dtype=np.uint64) * np.uint64(_SLOT_KEY))
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
    return z * 2.0 ** -64
