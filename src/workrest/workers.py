"""Worker identity: reputation and per-slot capacity.

A worker's queues (the real backlog, a count whose task ages follow from
the arrival history kept when there is a deadline to expire tasks at,
and the virtual "conceptual" queue that grows whenever the worker rests
while tasks are pending) live as population-wide arrays in
``engine.SimState``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class WorkerProfile:
    """Immutable worker identity: reputation and per-slot capacity."""

    id: int
    reputation: float
    mu_max: int

    def __post_init__(self) -> None:
        if not 0 <= self.id < 2**63:
            raise ValueError(f"worker id must be in [0, 2**63), got {self.id}")
        if not 0.0 <= self.reputation <= 1.0:
            raise ValueError(
                f"reputation must be in [0, 1], got {self.reputation}"
            )
        if not (self.mu_max >= 1 and self.mu_max % 1 == 0):
            raise ValueError(f"mu_max must be a whole number >= 1, got {self.mu_max}")
