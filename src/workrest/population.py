"""Worker populations: CSV interchange and synthetic generation.

The canonical interchange format is a UTF-8 CSV with the exact header
``worker_id,reputation,mu_max``. Synthetic populations are deterministic
functions of a seed, drawn from the same counter-based generator family
as per-slot moods but on dedicated streams.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rng import MU_MAX_STREAM, REPUTATION_STREAM, uniform01_array
from .workers import WorkerProfile

CSV_HEADER = ["worker_id", "reputation", "mu_max"]


@dataclass(frozen=True)
class Distribution:
    """Uniform on ``[lo, hi]``; ``constant(value)`` is the range ``[value, value]``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError(f"uniform bounds out of order: [{self.lo}, {self.hi}]")

    @classmethod
    def constant(cls, value: float) -> "Distribution":
        return cls(value, value)


@dataclass(frozen=True)
class PopulationSpec:
    """Synthetic-population recipe: size, distributions and a seed. Capacities
    are uniform integers on ``[lo, hi]``."""

    count: int
    reputation_dist: Distribution = Distribution(0.5, 1.0)
    mu_max_dist: Distribution = Distribution(1, 10)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        # Every profile drawn lies between these two corners.
        rep, cap = self.reputation_dist, self.mu_max_dist
        WorkerProfile(id=0, reputation=rep.lo, mu_max=cap.lo)
        WorkerProfile(id=0, reputation=rep.hi, mu_max=cap.hi)


def generate(spec: PopulationSpec) -> list[WorkerProfile]:
    """Deterministically generate profiles with ids 0..count-1."""
    ids = np.arange(spec.count, dtype=np.uint64)
    u = uniform01_array(spec.seed, ids, REPUTATION_STREAM)
    v = uniform01_array(spec.seed, ids, MU_MAX_STREAM)
    rep, lo, hi = spec.reputation_dist, int(spec.mu_max_dist.lo), int(spec.mu_max_dist.hi)
    reps = rep.lo + (rep.hi - rep.lo) * u
    caps = np.minimum(hi, lo + (v * (hi - lo + 1)).astype(np.int64))
    return list(map(WorkerProfile, range(spec.count), reps.tolist(), caps.tolist()))


def load_csv(path: str) -> list[WorkerProfile]:
    """Parse and validate a worker CSV, preserving file order."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file, expected header {CSV_HEADER}")
        if header != CSV_HEADER:
            raise ValueError(f"{path}: bad header {header!r}, expected {CSV_HEADER}")
        profiles: list[WorkerProfile] = []
        seen: set[int] = set()
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                if not row:
                    continue
                raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(row)}")
            try:
                worker_id, reputation, mu_max = int(row[0]), float(row[1]), int(row[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed row {row!r}: {exc}") from None
            if worker_id in seen:
                raise ValueError(f"{path}:{lineno}: duplicate worker id {worker_id}")
            try:
                profiles.append(WorkerProfile(worker_id, reputation, mu_max))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            seen.add(worker_id)
    if not profiles:
        raise ValueError(f"{path}: no worker rows")
    return profiles


def write_csv(path: str, population: Sequence[WorkerProfile]) -> None:
    """Write the canonical worker CSV, which round-trips exactly (floats as reprs)."""
    if not population:
        raise ValueError("cannot write an empty population: a worker CSV needs a row")
    rows = "".join([f"{p.id},{p.reputation!r},{p.mu_max}\n" for p in population])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n" + rows)
