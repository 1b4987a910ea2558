"""Slot-by-slot simulation engine.

Each slot runs a fixed phase order over the whole population:

1. delegate this slot's tasks (new cohorts enter at age 0)
2. record the observed backlog q_i(t) and the system total
3. sample per-worker mood
4. policy decision per worker -> (effort, completed)
5. conceptual-queue update from this slot's backlog and completions
6. consume completed tasks oldest-first; with a deadline, expire the
   oldest cohort and age the rest
7. Lyapunov / drift-bound diagnostics
8. emit the slot report

State is held in flat arrays (one row per worker) so a slot is a handful
of vector operations. A task's age matters only through its deadline, so
the backlog keeps one column per age below the deadline, and a single
column (the count ``q``) when tasks never expire. The same
semantics, one worker at a time, live in ``tests/oracle.py`` as the test
oracle that this engine is checked against slot by slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .delegation import apportion, collective_capacity, delegation_weights, slot_workload
from .numerics import snap_floor_array
from .policies import PolicyParams, decide
from .rng import uniform01_array
from .workers import WorkerProfile

__all__ = [
    "SimulationError", "SimConfig", "SlotReport", "RunMetrics", "SimState",
    "CounterMoods", "ConstantMoods", "MatrixMoods",
    "compute_lyapunov", "drift_bound_sides", "run", "RunResult",
]


class SimulationError(RuntimeError):
    """A phase contract was violated mid-run (indicates a policy bug)."""


@dataclass(frozen=True)
class SimConfig:
    """Identity of one run. ``deadline=None`` disables task expiry."""

    slots: int
    load_factor: float
    policy: PolicyParams
    seed: int = 0
    deadline: int | None = 3

    def __post_init__(self) -> None:
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")
        if not 0.0 < self.load_factor <= 1.0:
            raise ValueError(f"load_factor must be in (0, 1], got {self.load_factor}")
        if self.deadline is not None and self.deadline < 1:
            raise ValueError(f"deadline must be >= 1, got {self.deadline}")


@dataclass(frozen=True)
class SlotReport:
    """Population-level observables of one slot."""

    slot: int
    arrivals: int
    completions: int
    expired: int
    pending_total: int
    effort_sum: float
    expiry_ratio_sum: float
    workers_with_pending: int
    lyapunov: float
    drift_lhs: float
    drift_rhs: float


@dataclass(frozen=True)
class RunMetrics:
    """Time-averaged effort, expiry and completion rates of a run."""

    effort_avg: float
    expiry_avg: float
    completion_avg: float
    slots_counted_for_completion: int


@dataclass
class SimState:
    """Per-worker queue state plus run-length accumulators.

    ``buckets[:, a]`` holds each worker's tasks of age ``a``, one column
    per age below the deadline; without a deadline it is one column, the
    whole backlog. It is stored age-major (Fortran order), so each age is
    one contiguous column that a slot drains with one vector operation.
    ``q`` is the carried backlog (before the current slot's arrivals) and
    always equals the bucket row sums. ``lambda_max`` and ``mu_max_global``
    are the drift diagnostics' uniform bounds: the
    per-slot workload (one worker could receive everything) and the
    largest capacity.
    """

    ids: np.ndarray
    reputation: np.ndarray
    mu_max: np.ndarray
    buckets: np.ndarray
    q: np.ndarray
    Q: np.ndarray
    x_sum: np.ndarray
    mu_sum: np.ndarray
    w_req: int
    lambda_max: int
    mu_max_global: int

    @classmethod
    def from_population(
        cls, population: Sequence[WorkerProfile], config: SimConfig
    ) -> "SimState":
        n = len(population)
        if n == 0:
            raise ValueError("population must be non-empty")
        ids = np.array([p.id for p in population], dtype=np.int64)
        if len(set(ids.tolist())) != n:
            raise ValueError("worker ids must be unique")
        omega = collective_capacity(population)
        if omega <= 0.0:
            raise ValueError("population has zero collective capacity")
        w_req = slot_workload(config.load_factor, omega)
        mu_max = np.array([p.mu_max for p in population], dtype=np.int64)
        return cls(
            ids=ids,
            reputation=np.array([p.reputation for p in population]),
            mu_max=mu_max,
            buckets=np.zeros((n, config.deadline or 1), dtype=np.int64, order="F"),
            q=np.zeros(n, dtype=np.int64),
            Q=np.zeros(n, dtype=np.int64),
            x_sum=np.zeros(n, dtype=np.int64),
            mu_sum=np.zeros(n, dtype=np.int64),
            w_req=w_req,
            lambda_max=max(1, w_req),
            mu_max_global=int(mu_max.max()),
        )

    @property
    def n_workers(self) -> int:
        return len(self.ids)


class CounterMoods:
    """Default mood source: uniform [0, 1) keyed by (seed, worker id, slot)."""

    def __init__(self, seed: int):
        self.seed = seed

    def __call__(self, slot: int, ids: np.ndarray) -> np.ndarray:
        return uniform01_array(self.seed, ids.astype(np.uint64), slot)


class ConstantMoods:
    """Every worker has the same fixed mood every slot (for hand traces)."""

    def __init__(self, value: float):
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"mood must be in [0, 1], got {value}")
        self.value = value

    def __call__(self, slot: int, ids: np.ndarray) -> np.ndarray:
        return np.full(len(ids), self.value)


class MatrixMoods:
    """Scripted moods: row per slot, column per worker (for tests)."""

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values, dtype=float)

    def __call__(self, slot: int, ids: np.ndarray) -> np.ndarray:
        return self.values[slot]


def compute_lyapunov(state: SimState) -> float:
    """Work-concentration measure: half the sum of squared queue lengths."""
    return int((state.q * state.q).sum() + (state.Q * state.Q).sum()) / 2.0


def drift_bound_sides(
    q: np.ndarray,
    Q: np.ndarray,
    lam: np.ndarray,
    mu: np.ndarray,
    x: np.ndarray,
    lambda_max: int,
    mu_max_global: int,
    expired: np.ndarray | None = None,
) -> tuple[float, float]:
    """Exact one-slot Lyapunov change vs. its constant-padded upper bound.

    ``q``/``Q`` are the carried queues entering the slot, ``lam``/``mu`` the
    slot's arrivals and completions, ``x`` the conceptual-queue increments
    as fired (mu_max if the worker rested with pending tasks, else 0) and
    ``expired`` the tasks dropped at the deadline. Both sides are computed
    in integer arithmetic (doubled internally) so the comparison is exact.
    """
    q = np.asarray(q, dtype=np.int64)
    Q = np.asarray(Q, dtype=np.int64)
    lam = np.asarray(lam, dtype=np.int64)
    mu = np.asarray(mu, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    e = np.zeros_like(q) if expired is None else np.asarray(expired, dtype=np.int64)

    q_next = np.maximum(0, np.maximum(0, q + lam - mu) - e)
    Q_next = np.maximum(0, Q + x - mu)
    lhs2 = int((q_next * q_next - q * q).sum() + (Q_next * Q_next - Q * Q).sum())

    ind = (x > 0).astype(np.int64)
    const2 = lambda_max * lambda_max + mu_max_global * mu_max_global
    real2 = 2 * q * (lam - mu) - 2 * mu * lam + const2
    virt2 = 2 * Q * (mu_max_global * ind - mu) + mu_max_global * mu_max_global * (ind + 1)
    rhs2 = int(real2.sum() + virt2.sum())
    return lhs2 / 2.0, rhs2 / 2.0


def _consume_oldest_first(buckets: np.ndarray, mu: np.ndarray) -> None:
    """Remove ``mu`` tasks per worker in place, draining the oldest ages first."""
    left = mu.copy()
    for a in range(buckets.shape[1] - 1, -1, -1):
        take = np.minimum(buckets[:, a], left)
        buckets[:, a] -= take
        left -= take


def _step_arrays(
    state: SimState, config: SimConfig, t: int, mood_source
) -> tuple[SlotReport, dict[str, np.ndarray]]:
    """One slot over the state arrays; returns the report and per-worker data."""
    # Phase 1: delegation. Weights use the carried backlog, new cohorts
    # enter at age 0.
    weights = delegation_weights(state.reputation, state.mu_max, state.q)
    lam = apportion(state.w_req, weights, state.ids)
    state.buckets[:, 0] += lam

    # Phase 2: observed backlog and system total.
    q_hat = state.q + lam
    n_total = int(q_hat.sum())

    # Phase 3: moods.
    m = np.asarray(mood_source(t, state.ids), dtype=float)
    if m.shape != state.ids.shape:
        raise ValueError(f"slot {t}: mood source gave shape {m.shape}, expected {state.ids.shape}")
    if not (m.min() >= 0.0 and m.max() <= 1.0):
        raise ValueError(f"slot {t}: moods must lie in [0, 1], got [{m.min()}, {m.max()}]")

    # Phase 4: policy decisions (the floor is this module's binding, looked
    # up every slot like the other per-slot callables).
    xi, mu = decide(config.policy, q_hat, state.Q, m, state.mu_max, floor=snap_floor_array)
    if (mu > q_hat).any():
        bad = int(np.argmax(mu > q_hat))
        raise SimulationError(
            f"slot {t}: worker {int(state.ids[bad])} completed {int(mu[bad])} "
            f"of {int(q_hat[bad])} pending tasks"
        )

    # Phase 5: conceptual queues, from this slot's backlog and completions.
    x = state.mu_max * ((q_hat > 0) & (mu == 0))
    Q_next = np.maximum(0, state.Q + x - mu)

    # Phase 6: consume oldest-first; with a deadline, the oldest column
    # expires and the rest age by one slot.
    _consume_oldest_first(state.buckets, mu)
    if config.deadline is None:
        expired = np.zeros(state.n_workers, dtype=np.int64)
    else:
        expired = state.buckets[:, -1].copy()
        state.buckets[:, 1:] = state.buckets[:, :-1]
        state.buckets[:, 0] = 0
    q_next = q_hat - mu - expired
    if int(state.buckets.sum()) != int(q_next.sum()):
        raise SimulationError(f"slot {t}: backlog bookkeeping out of sync")

    # Phase 7: diagnostics against the pre-slot queues.
    lhs, rhs = drift_bound_sides(
        state.q, state.Q, lam, mu, x, state.lambda_max, state.mu_max_global, expired
    )

    # Phase 8: state handoff and report.
    state.q = q_next
    state.Q = Q_next
    state.x_sum += x
    state.mu_sum += mu
    pending = q_hat > 0
    expiry_ratio_sum = float((expired[pending] / q_hat[pending]).sum())
    report = SlotReport(
        slot=t,
        arrivals=int(lam.sum()),
        completions=int(mu.sum()),
        expired=int(expired.sum()),
        pending_total=n_total,
        effort_sum=float(xi.sum()),
        expiry_ratio_sum=expiry_ratio_sum,
        workers_with_pending=int(pending.sum()),
        lyapunov=compute_lyapunov(state),
        drift_lhs=lhs,
        drift_rhs=rhs,
    )
    per_worker = {
        "lam": lam, "mu": mu, "expired": expired, "mood": m, "effort": xi,
        "x": x, "q_hat": q_hat, "q_end": q_next, "Q_end": Q_next,
    }
    return report, per_worker


@dataclass
class RunResult:
    """Everything a finished run exposes: metrics, reports, diagnostics."""

    metrics: RunMetrics
    reports: list[SlotReport]
    final_state: SimState
    arrivals_total: int
    completions_total: int
    expired_total: int
    drift_violations: int
    trace: dict[str, np.ndarray] | None = None

    @property
    def pending_final(self) -> int:
        return int(self.final_state.q.sum())

    def conserves_tasks(self) -> bool:
        return self.arrivals_total == (
            self.completions_total + self.expired_total + self.pending_final
        )

    def stability_margins(self) -> np.ndarray:
        """Per-worker Q(T) - (sum x - sum mu); non-negative on every run."""
        s = self.final_state
        return s.Q - (s.x_sum - s.mu_sum)


def run(
    config: SimConfig,
    population: Sequence[WorkerProfile],
    mood_source=None,
    keep_reports: bool = True,
    record_worker_trace: bool = False,
) -> RunResult:
    """Simulate ``config.slots`` slots from empty queues.

    Metrics: effort and expiry rates average over all (slot, worker)
    pairs, with empty-backlog workers contributing zero expiry; the
    completion rate averages completions/pending over slots that had
    pending work.
    """
    state = SimState.from_population(population, config)
    if mood_source is None:
        mood_source = CounterMoods(config.seed)
    n = state.n_workers

    effort_total = 0.0
    expiry_ratio_total = 0.0
    completion_ratio_total = 0.0
    slots_with_pending = 0
    arrivals_total = 0
    completions_total = 0
    expired_total = 0
    drift_violations = 0
    reports: list[SlotReport] = []
    trace: dict[str, list[np.ndarray]] | None = None
    if record_worker_trace:
        trace = {}

    for t in range(config.slots):
        report, per_worker = _step_arrays(state, config, t, mood_source)
        effort_total += report.effort_sum
        expiry_ratio_total += report.expiry_ratio_sum
        if report.pending_total > 0:
            completion_ratio_total += report.completions / report.pending_total
            slots_with_pending += 1
        arrivals_total += report.arrivals
        completions_total += report.completions
        expired_total += report.expired
        if report.drift_lhs > report.drift_rhs:
            drift_violations += 1
        if keep_reports:
            reports.append(report)
        if trace is not None:
            for key, value in per_worker.items():
                trace.setdefault(key, []).append(np.array(value, copy=True))

    metrics = RunMetrics(
        effort_avg=effort_total / (config.slots * n),
        expiry_avg=expiry_ratio_total / (config.slots * n),
        completion_avg=(
            completion_ratio_total / slots_with_pending if slots_with_pending else 0.0
        ),
        slots_counted_for_completion=slots_with_pending,
    )
    return RunResult(
        metrics=metrics,
        reports=reports,
        final_state=state,
        arrivals_total=arrivals_total,
        completions_total=completions_total,
        expired_total=expired_total,
        drift_violations=drift_violations,
        trace=None if trace is None else {k: np.array(v) for k, v in trace.items()},
    )
