"""Per-slot workload generation and task delegation across workers.

New tasks per slot are a fixed fraction (the load factor) of the
collective capacity omega, the sum of the workers' reputation-weighted
capacities r * mu_max (``SimState.weighted_capacity``). They are split
across workers proportionally to that capacity discounted by current
backlog, so busy workers receive less, using largest-remainder rounding
to keep the split integral and exactly conserving.
"""

from __future__ import annotations

import math

import numpy as np


def slot_workload(load_factor: float, omega: float) -> int:
    """Tasks delegated per slot: round-half-up(load_factor * omega)."""
    if omega <= 0.0:
        raise ValueError(f"zero collective capacity: omega must be positive, got {omega}")
    return int(math.floor(load_factor * omega + 0.5))


def apportion(w_req: int, weights: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Split ``w_req`` units proportionally to ``weights`` (largest remainder).

    The weights are non-negative, and a sum that is not positive is a
    ``ValueError``; a run's never is, as the collective capacity is
    positive and every backlog finite. Remainder ties are awarded by
    descending weight then ascending id, so a strictly heavier worker never
    receives less, and a zero weight receives nothing. Output sums to
    ``w_req`` exactly.
    """
    total = float(np.add.reduce(weights))
    if not total > 0.0:
        raise ValueError(f"delegation weights must have a positive sum, got {total}")
    n = len(weights)
    shares = w_req * weights / total
    floors = np.floor(shares)
    remainders = shares - floors
    base = floors.astype(np.int64)
    # Every remainder is < 1, so the leftover fits in one award per worker.
    leftover = w_req - int(np.add.reduce(base))
    if not 0 <= leftover <= n:
        raise ArithmeticError(f"largest-remainder leftover {leftover} outside [0, {n}]")
    if leftover == 0:
        return base
    # Award order: remainder desc, weight desc, id asc. Select the leftover-th
    # largest remainder in O(n), in place in a scratch copy (``shares``); a positive
    # one has a positive weight, so only a zero cut can reach a zero weight.
    shares -= floors
    shares.partition(n - leftover)
    cut = shares[n - leftover]
    if cut == 0.0 and leftover > (positive := int(np.count_nonzero(weights > 0.0))):
        raise ArithmeticError(f"largest-remainder leftover {leftover} outside [0, {positive}]")
    award = remainders >= cut
    if int(np.count_nonzero(award)) == leftover:
        base += award
        return base
    # More workers tie at the cut than units are left, so order the tied
    # ones; a zero weight sorts after every positive one.
    above = remainders > cut
    base += above
    tied = np.flatnonzero(remainders == cut)
    tied = tied[np.lexsort((ids[tied], -weights[tied]))][:leftover - int(np.count_nonzero(above))]
    base[tied] += 1
    return base


def delegation_weights(weighted_capacity: np.ndarray, backlog: np.ndarray) -> np.ndarray:
    """Per-worker delegation weight: r * mu_max / (1 + current backlog)."""
    return weighted_capacity / (1.0 + backlog)
