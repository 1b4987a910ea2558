"""Deterministic simulator and policy library for work-rest scheduling."""

from .delegation import apportion, slot_workload
from .engine import (
    CounterMoods,
    RunMetrics,
    RunResult,
    SimConfig,
    SimState,
    SimulationError,
    SlotReport,
    drift_bound_sides,
    run,
)
from .policies import POLICY_KINDS, PolicyParams, decide
from .population import PopulationSpec, WorkerProfile, generate, load_csv, write_csv
from .sweep import (
    ReportRow,
    SweepRow,
    SweepSpec,
    aggregate_report,
    load_sweep_csv,
    report_rows_to_csv,
    run_sweep,
    sweep_rows_to_csv,
)

__version__ = "0.1.0"
