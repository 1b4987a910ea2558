"""Reference simulation built only from the scalar per-worker operations.

Used to cross-check the vectorized engine: same phase order, but every
update goes through the scalar oracle in ``oracle`` one worker at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from oracle import (
    WorkerState,
    collective_capacity,
    complete_and_age,
    decide,
    delegate,
    enqueue_arrivals,
    mood_sample,
    update_conceptual_queue,
)
from workrest.delegation import slot_workload
from workrest.policies import PolicyParams
from workrest.population import WorkerProfile


@dataclass
class ShadowSlot:
    lam: list[int]
    mood: list[float]
    effort: list[float]
    mu: list[int]
    x: list[int]
    expired: list[int]
    q_end: list[int]
    Q_end: list[int]
    arrivals: int = 0
    completions: int = 0
    expired_total: int = 0
    pending_total: int = 0
    effort_sum: float = 0.0
    expiry_ratio_sum: float = 0.0


@dataclass
class ShadowSim:
    population: list[WorkerProfile]
    policy: PolicyParams
    load_factor: float
    seed: int
    deadline: int | None
    states: list[WorkerState] = field(default_factory=list)
    w_req: int = 0

    def __post_init__(self) -> None:
        self.states = [WorkerState() for _ in self.population]
        omega = collective_capacity(self.population)
        self.w_req = slot_workload(self.load_factor, omega)

    def step(self, t: int, moods: list[float] | None = None) -> ShadowSlot:
        pop, states = self.population, self.states
        lam = delegate(self.w_req, pop, states)
        for state, arrivals in zip(states, lam):
            enqueue_arrivals(state, arrivals)
        q_hat = [s.q for s in states]
        if moods is None:
            moods = [mood_sample(self.seed, p.id, t) for p in pop]
        slot = ShadowSlot(
            lam=lam, mood=list(moods), effort=[], mu=[], x=[], expired=[],
            q_end=[], Q_end=[],
        )
        for p, state, mood in zip(pop, states, moods):
            decision = decide(self.policy, state.q, state.conceptual_q, mood, p.mu_max)
            x = p.mu_max if (state.q > 0 and decision.completed == 0) else 0
            state.conceptual_q = update_conceptual_queue(
                state.conceptual_q, state.q, decision.completed, p.mu_max
            )
            _, expired = complete_and_age(state, decision.completed, self.deadline)
            slot.effort.append(decision.effort)
            slot.mu.append(decision.completed)
            slot.x.append(x)
            slot.expired.append(expired)
            slot.q_end.append(state.q)
            slot.Q_end.append(state.conceptual_q)
        slot.arrivals = int(np.sum(lam))
        slot.completions = int(np.sum(slot.mu))
        slot.expired_total = int(np.sum(slot.expired))
        slot.pending_total = int(np.sum(q_hat))
        slot.effort_sum = float(np.sum(np.asarray(slot.effort)))
        ratios = [
            e / q for e, q in zip(slot.expired, q_hat) if q > 0
        ]
        slot.expiry_ratio_sum = float(np.sum(np.asarray(ratios))) if ratios else 0.0
        return slot
