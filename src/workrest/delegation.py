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

    The weights must have a positive sum (a ``ValueError`` otherwise); in a
    run they always do, as the collective capacity is positive and every
    backlog finite. Remainder ties are awarded by descending weight then
    ascending id, so a strictly heavier worker never receives less, and a
    zero weight receives nothing. Output sums to ``w_req`` exactly.
    """
    total = float(weights.sum())
    if not total > 0.0:
        raise ValueError(f"delegation weights must have a positive sum, got {total}")
    n = len(weights)
    shares = w_req * weights / total
    base = np.floor(shares).astype(np.int64)
    remainders = shares - base
    # Every remainder is < 1, so the leftover fits in one award per worker.
    leftover = w_req - int(base.sum())
    positive = int(np.count_nonzero(weights > 0.0))
    if not 0 <= leftover <= positive:
        raise ArithmeticError(f"largest-remainder leftover {leftover} outside [0, {positive}]")
    if leftover == 0:
        return base
    # Award order: remainder desc, weight desc, id asc. Select the
    # leftover-th largest remainder in O(n), award every remainder above
    # it, and order the workers tied at it if they outnumber the units
    # left. Zero weights have remainder 0 and sort after every positive
    # weight, so they never receive units.
    cut = np.partition(remainders, n - leftover)[n - leftover]
    above = remainders > cut
    base += above
    tied = np.flatnonzero(remainders == cut)
    rest = leftover - int(above.sum())
    if len(tied) > rest:
        tied = tied[np.lexsort((ids[tied], -weights[tied]))][:rest]
    base[tied] += 1
    return base


def delegation_weights(weighted_capacity: np.ndarray, backlog: np.ndarray) -> np.ndarray:
    """Per-worker delegation weight: r * mu_max / (1 + current backlog)."""
    return weighted_capacity / (1.0 + backlog)
