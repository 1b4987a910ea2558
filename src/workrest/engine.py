"""Slot-by-slot simulation engine.

Each slot runs a fixed phase order over the whole population:

1. delegate this slot's tasks
2. record the observed backlog q_i(t) and its mask q_i(t) > 0 for phases 5-6
3. sample per-worker mood
4. policy decision per worker -> (effort, completed)
5. conceptual-queue update from this slot's backlog and completions
6. completions take the oldest tasks; with a deadline, the tasks older
   than the deadline expire
7. drift-bound diagnostics on the queues phases 5-6 computed; twice the
   Lyapunov value is carried as a running Python int
8. state handoff; ``run``'s ledger adds up the slot's totals (and keeps its
   report) and carries the backlog total: the last one plus the slot workload
   less its completions and expiries

State is held in flat arrays (one row per worker) so a slot is a handful
of vector operations. Completions and expiry both remove a worker's
oldest tasks, so its backlog is always the youngest tasks it was given,
and a task's age never needs storing: with a deadline the engine keeps
the last D slots' cumulative arrivals, and without one only the count
``q``. A slot costs the same at every deadline. The same semantics, one
worker at a time and with per-age cohorts, live in ``tests/oracle.py`` as
the test oracle that this engine is checked against slot by slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .delegation import apportion, delegation_weights, slot_workload
from .numerics import snap_floor_array
from .policies import PolicyParams, decide
from .population import WorkerProfile
from .rng import uniform01_array

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
        if not 0 <= self.seed < 2**64:  # the generator reads a seed as a 64-bit word
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


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

    A deadline D binds when a task can reach it in the run (``D <= slots``;
    a longer one expires nothing). Then ``arrived`` has D columns, and
    ``arrived[:, t % D]`` holds each worker's cumulative arrivals through
    slot ``t`` (column-major, so each slot's column is contiguous);
    otherwise ``arrived`` is ``None``. ``q`` is the carried backlog (before
    the current slot's arrivals): the youngest tasks a worker was given,
    with a deadline all delegated within the last D - 1 slots. ``x_net``
    sums each worker's ``x - mu``: ``Q`` without its floor at zero.
    ``weighted_capacity`` is each worker's r * mu_max, summing to omega.
    ``mu_max_global`` is the largest capacity, the drift diagnostics'
    uniform completion bound. ``lyap2`` is twice the Lyapunov value of
    ``q`` and ``Q``, a Python int so that it never wraps.
    """

    ids: np.ndarray
    weighted_capacity: np.ndarray
    mu_max: np.ndarray
    arrived: np.ndarray | None
    q: np.ndarray
    Q: np.ndarray
    x_net: np.ndarray
    w_req: int
    mu_max_global: int
    lyap2: int = 0

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
        mu_max = np.array([p.mu_max for p in population], dtype=np.int64)
        weighted_capacity = np.array([p.reputation for p in population]) * mu_max
        w_req = slot_workload(config.load_factor, float(weighted_capacity.sum()))
        g = int(mu_max.max())
        deadline = config.deadline if (config.deadline or 0) <= config.slots else None
        # Float shares hold w_req exactly up to 2**53. A backlog total of at most
        # min(D, T) * w_req and each Q <= T * g bound every int64 sum of phase 7.
        if w_req > 2**53:
            raise ValueError(
                f"slot workload {w_req} exceeds 2**53, the bound for exact float shares")
        backlog_cap = (deadline or config.slots) * w_req
        largest = max(backlog_cap * (backlog_cap + g), n * (config.slots * g) ** 2)
        if largest >= 2**63:
            raise ValueError(f"int64 drift sums may reach {largest}, beyond 2**63 (backlog <= "
                             f"{backlog_cap}, conceptual queue <= {config.slots * g})")
        # The cumulative arrivals in ``arrived`` reach slots * w_req, below 2**63
        # too: w_req rounds lf * omega <= n * g half up, so w_req <= n * g + 1,
        # and slots * w_req <= n * (slots * g)**2 when slots * g >= 2; at
        # slots = g = 1 it is w_req <= 2**53.
        return cls(
            ids=ids,
            weighted_capacity=weighted_capacity,
            mu_max=mu_max,
            arrived=None if deadline is None else np.zeros((n, deadline), np.int64, order="F"),
            q=np.zeros(n, dtype=np.int64),
            Q=np.zeros(n, dtype=np.int64),
            x_net=np.zeros(n, dtype=np.int64),
            w_req=w_req,
            mu_max_global=g,
        )


class CounterMoods:
    """Default mood source: uniform [0, 1] keyed by (seed, worker id, slot).

    One ``uniform01_array`` call draws ``max(1, 16384 // n)`` consecutive
    slots; a slot outside that block, or an ``ids`` that is not its array
    object, draws a new block from that slot. The block is keyed by the
    identity of ``ids``, not its values, so changed ids must come in a new
    array. Rows are read-only views.
    """

    _BLOCK = 16384  # worker-slots per draw: 32 slots at n = 500, <= 128 KB

    def __init__(self, seed: int):
        self.seed = seed
        self._ids, self._first, self._block = None, 0, np.empty(0)

    def __call__(self, slot: int, ids: np.ndarray) -> np.ndarray:
        row = slot - self._first
        if ids is not self._ids or not 0 <= row < len(self._block):
            rows = max(1, self._BLOCK // max(1, len(ids)))
            self._block = uniform01_array(
                self.seed, ids, np.arange(slot, slot + rows, dtype=np.uint64)[:, None])
            self._block.flags.writeable = False
            self._ids, self._first, row = ids, slot, 0
        return self._block[row]


def drift_bound_sides(
    q: np.ndarray,
    Q: np.ndarray,
    lam: np.ndarray,
    mu: np.ndarray,
    idle: np.ndarray,
    q_next: np.ndarray,
    Q_next: np.ndarray,
    lyap2: int,
    lambda_max: int,
    mu_max_global: int,
) -> tuple[int, int, int]:
    """Exact one-slot Lyapunov change vs. its constant-padded upper bound.

    ``q``/``Q`` are the carried queues and ``lyap2`` twice their Lyapunov
    value, ``lam``/``mu`` the slot's arrivals and completions and ``q_next``/
    ``Q_next`` the outgoing queues, all int64; ``idle`` is the boolean mask of
    where the conceptual queue fired (x > 0). Returns ``(lhs2, rhs2, next_lyap2)``:
    both sides doubled and the outgoing ``2L``, as Python ints, so comparing
    them is exact at any size.
    """
    g2 = mu_max_global * mu_max_global
    cross = int(q @ (lam - mu)) - int(mu @ lam) + int(Q @ (mu_max_global * idle - mu))
    rhs2 = 2 * cross + len(q) * (lambda_max * lambda_max + 2 * g2)
    rhs2 += g2 * int(np.count_nonzero(idle))  # int: a numpy int times a big int overflows
    next2 = int(q_next @ q_next) + int(Q_next @ Q_next)
    return next2 - lyap2, rhs2, next2


def _step_arrays(
    state: SimState, config: SimConfig, t: int, mood_source
) -> tuple[int, int, float, float, int, int]:
    """One slot over the state arrays; returns the slot's ``(completions,
    expired, effort_sum, expiry_ratio_sum, lhs2, rhs2)``, the drift sides
    doubled as Python ints. Reductions call ufunc ``reduce`` bare: the ndarray
    methods wrap it in Python."""
    # Phase 1: delegation. Weights use the carried backlog.
    weights = delegation_weights(state.weighted_capacity, state.q)
    lam = apportion(state.w_req, weights, state.ids)

    # Phase 2: observed backlog and its mask (phases 5-6); its total is the ledger's.
    q_hat = state.q + lam
    pending = q_hat > 0

    # Phase 3: moods.
    m = np.asarray(mood_source(t, state.ids), dtype=float)
    if m.shape != state.ids.shape:
        raise ValueError(f"slot {t}: mood source gave shape {m.shape}, expected {state.ids.shape}")
    if not (np.minimum.reduce(m) >= 0.0 and np.maximum.reduce(m) <= 1.0):  # NaN fails
        raise ValueError(f"slot {t}: moods must lie in [0, 1], got [{m.min()}, {m.max()}]")

    # Phase 4: policy decisions, which need no backlog mask (the floor is this
    # module's binding, looked up every slot like the other per-slot callables).
    xi, mu = decide(config.policy, q_hat, state.Q, m, state.mu_max, floor=snap_floor_array)
    if np.logical_or.reduce(mu > q_hat):
        bad = int(np.argmax(mu > q_hat))
        raise SimulationError(f"slot {t}: worker {int(state.ids[bad])} completed "
                              f"{int(mu[bad])} of {int(q_hat[bad])} pending tasks")

    # Phase 5: conceptual queues, from this slot's backlog and completions.
    idle = mu < pending  # = pending & (mu == 0), as mu >= 0
    x = state.mu_max * idle
    net = x - mu
    Q_next = np.maximum(0, state.Q + net)

    # Phase 6: the backlog is each worker's youngest tasks, so with a
    # deadline D those delegated before the last D - 1 slots (this one
    # included) expire: the oldest ones, as a cohort FIFO would age them out.
    completions, expired_total, expiry_ratio_sum = int(np.add.reduce(mu)), 0, 0.0
    q_next = q_hat - mu
    if state.arrived is not None:
        ring, d = state.arrived, state.arrived.shape[1]
        # Every pending task was delegated within the last D slots (lam cancels).
        if np.logical_or.reduce(state.q > ring[:, (t - 1) % d] - ring[:, t % d]):
            raise SimulationError(f"slot {t}: backlog bookkeeping out of sync")
        through_t = np.add(ring[:, (t - 1) % d], lam, out=ring[:, t % d])
        kept = np.minimum(q_next, through_t - ring[:, (t + 1) % d])  # = q - max(0, q - recent)
        q_next, expired = kept, q_next - kept
        expired_total = int(np.add.reduce(expired))
        expiry_ratio_sum = float(np.add.reduce((expired / np.maximum(q_hat, 1))[pending]))

    # Phase 7: drift from the carried queues to the slot's outgoing ones;
    # the arrival bound is the slot workload (one worker could receive all).
    lhs2, rhs2, state.lyap2 = drift_bound_sides(state.q, state.Q, lam, mu, idle, q_next, Q_next,
                                                state.lyap2, state.w_req or 1, state.mu_max_global)

    # Phase 8: state handoff and the slot's totals.
    state.q, state.Q = q_next, Q_next
    state.x_net += net
    return completions, expired_total, float(np.add.reduce(xi)), expiry_ratio_sum, lhs2, rhs2


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

    @property
    def pending_final(self) -> int:
        return int(self.final_state.q.sum())

    def conserves_tasks(self) -> bool:
        return self.arrivals_total == (
            self.completions_total + self.expired_total + self.pending_final
        )

    def stability_margins(self) -> np.ndarray:
        """Per-worker Q(T) - (sum x - sum mu); non-negative on every run."""
        return self.final_state.Q - self.final_state.x_net


def run(
    config: SimConfig,
    population: Sequence[WorkerProfile],
    mood_source=None,
    keep_reports: bool = True,
) -> RunResult:
    """Simulate ``config.slots`` slots from empty queues.

    ``mood_source`` is any callable ``(slot, ids) -> moods`` giving one mood
    in [0, 1] per worker, in ``ids`` order; each slot's moods are checked
    for shape and range (a ``ValueError`` naming the slot). The default is
    ``CounterMoods(config.seed)``.

    Metrics: effort and expiry rates average over all (slot, worker)
    pairs, with empty-backlog workers contributing zero expiry; the
    completion rate averages completions/pending over slots that had
    pending work.
    """
    state = SimState.from_population(population, config)
    if mood_source is None:
        mood_source = CounterMoods(config.seed)
    n = len(state.ids)

    effort_total = expiry_ratio_total = completion_ratio_total = 0.0
    slots_with_pending = completions_total = expired_total = drift_violations = carried = 0
    reports: list[SlotReport] = []

    for t in range(config.slots):
        pending = carried + state.w_req  # apportion hands out w_req exactly
        completions, expired, effort, expiry_ratio, lhs2, rhs2 = _step_arrays(
            state, config, t, mood_source)
        carried = pending - completions - expired
        effort_total += effort
        expiry_ratio_total += expiry_ratio
        if pending > 0:
            completion_ratio_total += completions / pending
            slots_with_pending += 1
        completions_total += completions
        expired_total += expired
        drift_violations += lhs2 > rhs2
        if keep_reports:
            reports.append(SlotReport(
                t, state.w_req, completions, expired, pending, effort, expiry_ratio,
                state.lyap2 / 2.0, lhs2 / 2.0, rhs2 / 2.0,
            ))

    metrics = RunMetrics(
        effort_avg=effort_total / (config.slots * n),
        expiry_avg=expiry_ratio_total / (config.slots * n),
        completion_avg=completion_ratio_total / slots_with_pending if slots_with_pending else 0.0,
        slots_counted_for_completion=slots_with_pending,
    )
    return RunResult(metrics=metrics, reports=reports, final_state=state,
                     arrivals_total=config.slots * state.w_req, completions_total=completions_total,
                     expired_total=expired_total, drift_violations=drift_violations)
