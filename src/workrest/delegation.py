"""Per-slot workload generation and task delegation across workers.

New tasks per slot are a fixed fraction (the load factor) of the
population's reputation-weighted capacity. They are then split across
workers proportionally to reputation-weighted capacity discounted by
current backlog, so busy workers receive less, using largest-remainder
rounding to keep the split integral and exactly conserving.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .workers import WorkerProfile


def collective_capacity(population: Sequence[WorkerProfile]) -> float:
    """Reputation-weighted capacity of the population: sum r_i * mu_max_i."""
    if len(population) == 0:
        raise ValueError("population must be non-empty")
    values = np.array([p.reputation * p.mu_max for p in population])
    return float(values.sum())


def slot_workload(load_factor: float, omega: float) -> int:
    """Tasks delegated per slot: round-half-up(load_factor * omega)."""
    if omega <= 0.0:
        raise ValueError(f"omega must be positive, got {omega}")
    return int(math.floor(load_factor * omega + 0.5))


def apportion(w_req: int, weights: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Split ``w_req`` units proportionally to ``weights`` (largest remainder).

    Remainder ties are awarded by descending weight then ascending id, so
    a strictly heavier worker never receives less. If all weights are zero
    the units are spread uniformly in ascending-id order. Output sums to
    ``w_req`` exactly.
    """
    n = len(weights)
    if w_req == 0:
        return np.zeros(n, dtype=np.int64)
    total = float(weights.sum())
    if total <= 0.0:
        out = np.full(n, w_req // n, dtype=np.int64)
        out[np.argsort(ids, kind="stable")[: w_req % n]] += 1
        return out

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
    # it, and order only the workers tied at it. Zero weights have
    # remainder 0 and sort after every positive weight, so they never
    # receive units while any positive weight exists.
    cut = np.partition(remainders, n - leftover)[n - leftover]
    above = remainders > cut
    base += above
    tied = np.flatnonzero(remainders == cut)
    base[tied[np.lexsort((ids[tied], -weights[tied]))][: leftover - above.sum()]] += 1
    return base


def delegation_weights(
    reputation: np.ndarray, mu_max: np.ndarray, backlog: np.ndarray
) -> np.ndarray:
    """Per-worker delegation weight: r * mu_max / (1 + current backlog)."""
    return reputation * mu_max / (1.0 + backlog)
