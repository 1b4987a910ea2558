"""Worker populations: the worker record, CSV interchange and synthetic generation.

A worker is its id, reputation and per-slot capacity; its queues live as
population-wide arrays in ``engine.SimState``. The canonical interchange
format is a UTF-8 CSV with the exact header ``worker_id,reputation,mu_max``;
``read_csv`` reads it and the sweep CSV by one rule.
Synthetic populations are deterministic functions of a seed, drawn from
the same counter-based generator family as per-slot moods but on
dedicated streams.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

import numpy as np

from .rng import MU_MAX_STREAM, REPUTATION_STREAM, uniform01_array

CSV_HEADER = ["worker_id", "reputation", "mu_max"]
T = TypeVar("T")
_set = object.__setattr__  # writes a field of a frozen record


@dataclass(frozen=True, slots=True, init=False)
class WorkerProfile:
    """Immutable worker identity: a reputation, and a whole id and per-slot capacity (ints)."""

    id: int
    reputation: float
    mu_max: int

    def __init__(self, id: int, reputation: float, mu_max: int) -> None:
        if not (0 <= id < 2**63 and id % 1 == 0):
            raise ValueError(f"worker id must be a whole number in [0, 2**63), got {id}")
        if not 0.0 <= reputation <= 1.0:
            raise ValueError(f"reputation must be in [0, 1], got {reputation}")
        if not (1 <= mu_max <= 2**53 and mu_max % 1 == 0):
            raise ValueError(f"mu_max must be a whole number in [1, 2**53], got {mu_max}")
        _set(self, "id", int(id))
        _set(self, "reputation", reputation)
        _set(self, "mu_max", int(mu_max))

    def __reduce__(self):  # pickles as the constructor call, so unpickling checks
        return WorkerProfile, (self.id, self.reputation, self.mu_max)


@dataclass(frozen=True)
class PopulationSpec:
    """Synthetic-population recipe: size, two uniform ``(lo, hi)`` ranges and a
    seed. Reputations are uniform on their range, capacities uniform integers
    on ``[lo, hi]``."""

    count: int
    reputation_dist: tuple[float, float] = (0.5, 1.0)
    mu_max_dist: tuple[float, float] = (1, 10)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if not 0 <= self.seed < 2**64:  # the generator reads a seed as a 64-bit word
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        for lo, hi in (self.reputation_dist, self.mu_max_dist):
            if hi < lo:
                raise ValueError(f"uniform bounds out of order: [{lo}, {hi}]")
        # Every profile drawn lies between the corners (lo, lo) and (hi, hi).
        for reputation, mu_max in zip(self.reputation_dist, self.mu_max_dist):
            WorkerProfile(0, reputation, mu_max)


def generate(spec: PopulationSpec) -> list[WorkerProfile]:
    """Deterministically generate profiles with ids 0..count-1."""
    ids = np.arange(spec.count, dtype=np.uint64)
    u = uniform01_array(spec.seed, ids, REPUTATION_STREAM)
    v = uniform01_array(spec.seed, ids, MU_MAX_STREAM)
    (rep_lo, rep_hi), (lo, hi) = spec.reputation_dist, map(int, spec.mu_max_dist)
    reps = rep_lo + (rep_hi - rep_lo) * u
    caps = np.minimum(hi, lo + (v * (hi - lo + 1)).astype(np.int64))
    return list(map(WorkerProfile, range(spec.count), reps.tolist(), caps.tolist()))


def read_csv(path: str, header: list[str], build: Callable[[list[str]], T]) -> list[T]:
    """``build`` of each record of the UTF-8 CSV at ``path`` below its exact
    ``header``, in file order, skipping blank lines. A fault is a ValueError
    naming ``PATH:LINE:`` (the file line the record ends on, so a quoted field
    that spans lines counts each line) or, for the file as a whole, ``PATH:``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            found = next(reader, None)
            records = [build(row) for row in reader if row] if found == header else None
        except UnicodeDecodeError as exc:  # decoded a chunk at a time, so no line
            raise ValueError(f"{path}: not UTF-8: {exc}") from None
        except (ValueError, csv.Error) as exc:  # csv.Error: a field over its size limit
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    if records is None:
        fault = "empty file" if found is None else f"bad header {found!r}"
        raise ValueError(f"{path}: {fault}, expected header {header}")
    if not records:
        raise ValueError(f"{path}: no data rows")
    return records


def load_csv(path: str) -> list[WorkerProfile]:
    """Parse and validate a worker CSV, preserving file order."""
    seen: set[int] = set()

    def profile(row: list[str]) -> WorkerProfile:
        if len(row) != 3:
            raise ValueError(f"expected 3 fields, got {len(row)}")
        try:
            worker_id, reputation, mu_max = int(row[0]), float(row[1]), int(row[2])
        except ValueError as exc:
            raise ValueError(f"malformed row {row!r}: {exc}") from None
        if worker_id in seen:
            raise ValueError(f"duplicate worker id {worker_id}")
        seen.add(worker_id)
        return WorkerProfile(worker_id, reputation, mu_max)

    return read_csv(path, CSV_HEADER, profile)


def write_csv(path: str, population: Sequence[WorkerProfile]) -> None:
    """Write the canonical worker CSV, which round-trips exactly (floats as reprs)."""
    if not population:
        raise ValueError("cannot write an empty population: a worker CSV needs a row")
    rows = "".join([f"{p.id},{p.reputation!r},{p.mu_max}\n" for p in population])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n" + rows)
