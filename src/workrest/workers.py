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
    """Immutable worker identity: reputation and whole per-slot capacity (an int)."""

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
        if not (1 <= self.mu_max <= 2**53 and self.mu_max % 1 == 0):
            raise ValueError(f"mu_max must be a whole number in [1, 2**53], got {self.mu_max}")
        if type(self.mu_max) is not int:
            object.__setattr__(self, "mu_max", int(self.mu_max))
