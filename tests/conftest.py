import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from workrest import PopulationSpec, generate
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
