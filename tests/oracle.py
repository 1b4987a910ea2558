"""Scalar per-worker reference semantics: the test oracle for the engine.

Each function states one part of the model for one worker at a time:
the splitmix64 counter hash behind moods and populations, the synthetic
population draw, the five policy rules as the paper states them, the
queue recurrences, the oldest-first cohort FIFO, the collective
capacity, largest-remainder delegation and the Lyapunov function. ``shadow.ShadowSim`` strings them into a whole simulation that
the vectorized engine in ``workrest.engine`` must replay exactly. None of
this is used by the simulator itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from workrest.engine import SimState
from workrest.numerics import SNAP_RTOL, SNAP_SCALE_CAP
from workrest.policies import PolicyParams
from workrest.population import PopulationSpec, WorkerProfile
from workrest.rng import (
    _MASK64, _MIX1, _MIX2, _SLOT_KEY, _WORKER_KEY, MU_MAX_STREAM, REPUTATION_STREAM,
)


def snap_floor(x: float) -> int:
    """Floor ``x``, snapping up when x is a hair below the next integer."""
    if x < 0.0:
        raise ValueError(f"snap_floor expects a non-negative value, got {x}")
    f = math.floor(x)
    if (f + 1) - x <= min(max(x, 1.0), SNAP_SCALE_CAP) * SNAP_RTOL:
        return f + 1
    return f


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
    """Uniform double in [0, 1] keyed by (seed, worker_id, counter); a word
    within 2**10 of 2**64 rounds to 1.0."""
    return mix64(seed, worker_id, counter) / 2.0 ** 64


def mood_sample(seed: int, worker_id: int, slot: int) -> float:
    """Deterministic per-(worker, slot) mood, uniform on [0, 1]."""
    return uniform01(seed, worker_id, slot)


def generate(spec: PopulationSpec) -> list[WorkerProfile]:
    """The synthetic population one worker at a time: reputation uniform on
    its range, capacity a uniform integer on ``[lo, hi]`` inclusive."""
    rep_lo, rep_hi = spec.reputation_dist
    lo, hi = (int(b) for b in spec.mu_max_dist)
    profiles = []
    for i in range(spec.count):
        u = uniform01(spec.seed, i, REPUTATION_STREAM)
        v = uniform01(spec.seed, i, MU_MAX_STREAM)
        profiles.append(WorkerProfile(
            id=i,
            reputation=rep_lo + (rep_hi - rep_lo) * u,
            mu_max=min(hi, lo + int(v * (hi - lo + 1))),
        ))
    return profiles


# --- worker queues ----------------------------------------------------------


@dataclass
class TaskCohort:
    """Tasks delegated in the same slot; ``age`` counts slots since then."""

    count: int
    age: int = 0


@dataclass
class WorkerState:
    """Mutable per-worker queues. ``backlog`` is oldest-cohort-first."""

    backlog: list[TaskCohort] = field(default_factory=list)
    q: int = 0
    conceptual_q: int = 0

    def backlog_total(self) -> int:
        return sum(c.count for c in self.backlog)


def compute_mu(effort: float, mood: float, mu_max: int) -> int:
    """Tasks completed for a given effort/mood: floor(effort*mood*mu_max).

    Uses the snapping floor so that effort values of the form q/(mood*mu_max)
    yield exactly q tasks despite double rounding.
    """
    if not 0.0 <= effort <= 1.0:
        raise ValueError(f"effort must be in [0, 1], got {effort}")
    if not 0.0 <= mood <= 1.0:
        raise ValueError(f"mood must be in [0, 1], got {mood}")
    if mu_max < 1:
        raise ValueError(f"mu_max must be >= 1, got {mu_max}")
    return snap_floor(effort * (mood * mu_max))


def update_backlog_count(q: int, arrivals: int, completed: int) -> int:
    """Count-level backlog recurrence: max[0, q + arrivals - completed].

    This is the oracle the cohort FIFO is checked against.
    """
    return max(0, q + arrivals - completed)


def update_conceptual_queue(Q: int, q: int, completed: int, mu_max: int) -> int:
    """Conceptual-queue recurrence.

    Grows by mu_max when the worker rested (completed nothing) with a
    non-empty backlog, and drains with completions like the real queue.
    """
    x = mu_max if (q > 0 and completed == 0) else 0
    return max(0, Q + x - completed)


def enqueue_arrivals(state: WorkerState, arrivals: int) -> None:
    """Append newly delegated tasks as an age-0 cohort."""
    if arrivals < 0:
        raise ValueError(f"arrivals must be non-negative, got {arrivals}")
    if arrivals > 0:
        state.backlog.append(TaskCohort(count=arrivals, age=0))
        state.q += arrivals


def complete_and_age(
    state: WorkerState, completed: int, deadline: int | None
) -> tuple[WorkerState, int]:
    """Consume completed tasks oldest-first, age cohorts, expire late ones.

    ``deadline=None`` disables expiry. Mutates and returns ``state`` plus
    the number of tasks that reached the deadline this slot. Does not touch
    ``conceptual_q``: that update uses the pre-completion backlog and is
    applied by the caller before this step.
    """
    if completed > state.q:
        raise ValueError(
            f"completed ({completed}) exceeds pending backlog ({state.q}); "
            "policy contract violation"
        )
    if deadline is not None and deadline < 1:
        raise ValueError(f"deadline must be >= 1, got {deadline}")

    remaining = completed
    while remaining > 0:
        oldest = state.backlog[0]
        take = min(oldest.count, remaining)
        oldest.count -= take
        remaining -= take
        if oldest.count == 0:
            state.backlog.pop(0)

    expired = 0
    kept: list[TaskCohort] = []
    for cohort in state.backlog:
        cohort.age += 1
        if deadline is not None and cohort.age >= deadline:
            expired += cohort.count
        else:
            kept.append(cohort)
    state.backlog = kept
    state.q = state.q - completed - expired
    return state, expired


def to_worker_states(state: SimState, slots: int) -> list[WorkerState]:
    """Export the engine's per-worker states after ``slots`` slots as
    oldest-first cohort FIFOs.

    With a binding deadline D (the ``D`` columns of ``state.arrived``) a
    worker's backlog ``q`` is its youngest tasks, so the cohorts are the
    arrivals of its last D - 1 slots, taken newest first until they hold
    ``q``. Without one (``state.arrived`` is ``None``) ages are not engine
    state, and the backlog is one cohort of age 0.
    """
    out = []
    for i in range(len(state.ids)):
        q = int(state.q[i])
        if state.arrived is None:
            backlog = [TaskCohort(count=q)] if q else []
        else:
            arrived, backlog, left = state.arrived[i].tolist(), [], q
            d = len(arrived)
            for s in range(slots - 1, slots - d, -1):
                take = min(arrived[s % d] - arrived[(s - 1) % d], left)
                if take:
                    backlog.insert(0, TaskCohort(count=take, age=slots - s))
                left -= take
        out.append(WorkerState(backlog=backlog, q=q, conceptual_q=int(state.Q[i])))
    return out


def compute_lyapunov(states: Sequence[WorkerState]) -> float:
    """Work-concentration measure: half the sum of squared queue lengths."""
    return sum(s.q * s.q + s.conceptual_q * s.conceptual_q for s in states) / 2.0


# --- policies ---------------------------------------------------------------


@dataclass(frozen=True)
class PolicyDecision:
    """Chosen effort in [0, 1] and the tasks it completes."""

    effort: float
    completed: int


REST = PolicyDecision(effort=0.0, completed=0)


def compute_wri(phi: float, q: int, Q: int, mood: float, mu_max: int) -> float:
    """Work-rest index: phi - (q + Q) * mood * mu_max.

    Negative values mean queue pressure outweighs the rest emphasis phi,
    so the worker should work this slot.
    """
    return phi - (q + Q) * mood * mu_max


def work_effort(q: int, mood: float, mu_max: int) -> float:
    """Effort that clears the backlog at current mood, capped at 1.

    When mood * mu_max is zero no effort level is productive; returns 1 so
    that always-work policies still register full effort spent.
    """
    d = mood * mu_max
    if d == 0.0:
        return 1.0
    return min(1.0, q / d)


def _work(q: int, mood: float, mu_max: int) -> PolicyDecision:
    effort = work_effort(q, mood, mu_max)
    return PolicyDecision(effort=effort, completed=compute_mu(effort, mood, mu_max))


def decide_cpl(params: PolicyParams, q: int, Q: int, mood: float, mu_max: int) -> PolicyDecision:
    """Work iff the work-rest index is strictly negative."""
    if compute_wri(params.knob_value, q, Q, mood, mu_max) < 0.0:
        return _work(q, mood, mu_max)
    return REST


def decide_me(q: int, mood: float, mu_max: int) -> PolicyDecision:
    if q > 0:
        return _work(q, mood, mu_max)
    return REST


def decide_mt(theta1: float, q: int, mood: float, mu_max: int) -> PolicyDecision:
    if mood >= theta1 and q > 0:
        return _work(q, mood, mu_max)
    return REST


def decide_mw(theta2: float, q: int, mood: float, mu_max: int) -> PolicyDecision:
    # Threshold on potential output: q * mu(1, mood) vs mu_max * mu(1, theta2).
    if q > 0 and q * compute_mu(1.0, mood, mu_max) >= mu_max * compute_mu(1.0, theta2, mu_max):
        return _work(q, mood, mu_max)
    return REST


def decide_ac(sigma: float, q: int, mood: float, mu_max: int) -> PolicyDecision:
    """Like the index rule but blind to pending time (no conceptual queue)."""
    if sigma - q * mood * mu_max < 0.0:
        return _work(q, mood, mu_max)
    return REST


_RULES = {
    "me": lambda p, q, Q, mood, mu_max: decide_me(q, mood, mu_max),
    "mt": lambda p, q, Q, mood, mu_max: decide_mt(p.knob_value, q, mood, mu_max),
    "mw": lambda p, q, Q, mood, mu_max: decide_mw(p.knob_value, q, mood, mu_max),
    "ac": lambda p, q, Q, mood, mu_max: decide_ac(p.knob_value, q, mood, mu_max),
    "cpl": decide_cpl,
}


def decide(params: PolicyParams, q: int, Q: int, mood: float, mu_max: int) -> PolicyDecision:
    """One worker's decision under the rule named by ``params.kind``."""
    return _RULES[params.kind](params, q, Q, mood, mu_max)


# --- delegation -------------------------------------------------------------


def collective_capacity(population: Sequence[WorkerProfile]) -> float:
    """Reputation-weighted capacity of the population: sum r_i * mu_max_i."""
    if len(population) == 0:
        raise ValueError("population must be non-empty")
    values = np.array([p.reputation * p.mu_max for p in population])
    return float(values.sum())


def apportion(w_req: int, weights: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Largest-remainder split, one unit at a time (reference for the engine's).

    Awards the leftover units in order of remainder desc, weight desc, id
    asc, skipping zero weights and wrapping around the order if needed;
    trims from the end of the order if rounding ever overshoots. Weights
    whose sum is not positive are a ``ValueError``.
    """
    total = float(weights.sum())
    if not total > 0.0:
        raise ValueError(f"delegation weights must have a positive sum, got {total}")
    shares = w_req * weights / total
    base = np.floor(shares).astype(np.int64)
    leftover = w_req - int(base.sum())
    remainders = shares - base
    order = [int(i) for i in np.lexsort((ids, -weights, -remainders)) if weights[i] > 0.0]
    out = base
    i = 0
    while leftover > 0:
        out[order[i % len(order)]] += 1
        leftover -= 1
        i += 1
    i = len(order) - 1
    while leftover < 0:
        idx = order[i % len(order)]
        if out[idx] > 0:
            out[idx] -= 1
            leftover += 1
        i -= 1
    return out


def delegate(
    w_req: int,
    population: Sequence[WorkerProfile],
    states: Sequence[WorkerState],
) -> list[int]:
    """Allocate this slot's ``w_req`` tasks across workers.

    Higher reputation-weighted capacity attracts more tasks; a larger
    pending backlog repels them.
    """
    if len(population) != len(states):
        raise ValueError("population and states must align by index")
    rep = np.array([p.reputation for p in population])
    cap = np.array([p.mu_max for p in population], dtype=np.int64)
    q = np.array([s.q for s in states], dtype=np.int64)
    ids = np.array([p.id for p in population], dtype=np.int64)
    weights = rep * cap / (1.0 + q)
    return [int(v) for v in apportion(w_req, weights, ids)]
