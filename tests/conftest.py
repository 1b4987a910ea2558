import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from workrest import PopulationSpec, engine, generate
from workrest.delegation import apportion
from workrest.sweep import SweepSpec, aggregate_report, run_sweep

DESK_SEED = 7
DESK_N = 500
DESK_SLOTS = 2000


def desk_sweep_spec() -> SweepSpec:
    return SweepSpec(
        policies=("me", "mt", "mw", "ac", "cpl"),
        phi_grid=(5.0, 25.0, 50.0, 100.0),
        sigma_grid=(5.0, 25.0, 50.0, 100.0),
        theta1_grid=(0.2, 0.5, 0.8),
        theta2_grid=(0.2, 0.5, 0.8),
        lf_grid=tuple(round(0.1 * k, 1) for k in range(1, 11)),
        slots=DESK_SLOTS,
        seed=DESK_SEED,
        deadline=3,
    )


def lossy_apportion(w_req, weights, ids):
    """A delegation bug: one unit of every slot's workload goes missing."""
    lam = apportion(w_req, weights, ids)
    lam[np.argmax(lam)] -= 1
    return lam


def traced_run(config, population, **kw):
    """``engine.run`` plus its per-worker arrays, one (slots, n) array per key.

    The arrays are recorded through the per-slot callables the engine looks
    up by name: ``decide`` sees the observed backlog, moods and efforts, and
    ``drift_bound_sides`` the arrivals, completions, idle mask and outgoing
    queues. The conceptual increments ``x`` are each worker's capacity where
    the idle mask fired, and expiries are exact from phase 6's definition
    ``q_next = q + lam - mu - expired``. Returns ``(result, trace)``.
    """
    trace: dict[str, list] = {}
    mu_max = np.array([p.mu_max for p in population], dtype=np.int64)

    def record(**arrays):
        for key, value in arrays.items():
            trace.setdefault(key, []).append(np.array(value, copy=True))

    decide, sides = engine.decide, engine.drift_bound_sides

    def traced_decide(params, q_hat, Q, m, *rest, **kw):
        xi, mu = decide(params, q_hat, Q, m, *rest, **kw)
        record(q_hat=q_hat, mood=m, effort=xi)
        return xi, mu

    def traced_sides(q, Q, lam, mu, idle, q_next, Q_next, *bounds):
        record(lam=lam, mu=mu, x=mu_max * idle, q_end=q_next, Q_end=Q_next,
               expired=q + lam - mu - q_next)
        return sides(q, Q, lam, mu, idle, q_next, Q_next, *bounds)

    engine.decide, engine.drift_bound_sides = traced_decide, traced_sides
    try:
        result = engine.run(config, population, **kw)
    finally:
        engine.decide, engine.drift_bound_sides = decide, sides
    return result, {key: np.array(arrays) for key, arrays in trace.items()}


@dataclass
class DeskResults:
    population: list
    spec: SweepSpec
    rows: list
    diagnostics: list
    report: list


@pytest.fixture(scope="session")
def desk(request) -> DeskResults:
    """The full desk-scale grid, computed once per test session."""
    population = generate(PopulationSpec(count=DESK_N, seed=DESK_SEED))
    spec = desk_sweep_spec()
    rows, diagnostics = run_sweep(spec, population, jobs=2, collect_diagnostics=True)
    return DeskResults(
        population=population,
        spec=spec,
        rows=rows,
        diagnostics=diagnostics,
        report=aggregate_report(rows),
    )
