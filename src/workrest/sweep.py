"""Grid sweeps over (policy, knob, load factor) and baseline-relative reports.

Every policy at a given (seed, load factor) sees the same mood stream, slot
workload and delegation rule; the split reads each policy's own backlogs
(weights r * mu_max / (1 + q)). The max-effort policy is run at every load
factor and serves as the 100% reference for the *_pct_of_me columns.
"""

from __future__ import annotations

import csv
import io
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Sequence

import numpy as np

from .engine import RunMetrics, RunResult, SimConfig, SimulationError, run
from .policies import KNOB_FIELDS, POLICY_KINDS, PolicyParams
from .population import WorkerProfile, read_csv

SWEEP_HEADER = [
    "policy", "knob", "knob_value", "lf", "effort_avg", "expiry_avg",
    "completion_avg", "effort_pct_of_me", "completion_pct_of_me",
]
REPORT_HEADER = [
    "policy", "mean_expiry_avg", "mean_effort_pct_of_me",
    "mean_completion_pct_of_me", "superlinearity_ratio", "region",
]
PER_SLOT_HEADER = [
    "slot", "arrivals", "completions", "expired", "pending", "effort_sum",
    "expiry_ratio_sum", "lyapunov", "drift_lhs", "drift_rhs",
]

_NA = "NA"
# The most points in a sweep, and values in one grid: a bound on what
# expanding a grid allocates before any point runs.
MAX_GRID_POINTS = 100_000
_INDEX_GRID = tuple(float(v) for v in range(5, 101, 5))
_UNIT_GRID = tuple(round(0.05 * k, 2) for k in range(1, 21))


@dataclass(frozen=True)
class SweepSpec:
    """The full experiment grid plus run-length, seed and deadline."""

    policies: tuple[str, ...] = POLICY_KINDS
    phi_grid: tuple[float, ...] = _INDEX_GRID
    sigma_grid: tuple[float, ...] = _INDEX_GRID
    theta1_grid: tuple[float, ...] = _UNIT_GRID
    theta2_grid: tuple[float, ...] = _UNIT_GRID
    lf_grid: tuple[float, ...] = _UNIT_GRID
    slots: int = 10_000
    seed: int = SimConfig.seed
    deadline: int | None = SimConfig.deadline

    def __post_init__(self) -> None:
        if unknown := [kind for kind in self.policies if kind not in POLICY_KINDS]:
            raise ValueError(f"unknown policy {unknown[0]!r}")
        # One walk over every grid value, selected or not (a load factor at an ``me`` point):
        # each must be a valid point, and no two of one grid may be equal. The first fault
        # in the walk raises, then the points bound.
        run_me = partial(SimConfig, self.slots, policy=PolicyParams("me"), seed=self.seed,
                         deadline=self.deadline)
        points = 1
        for kind, knob in KNOB_FIELDS.items():
            name, seen = f"{knob or 'lf'}_grid", {}
            if not (grid := getattr(self, name)) and (knob is None or kind in self.policies):
                raise ValueError(f"{name} must be non-empty")
            check = run_me if knob is None else lambda v: PolicyParams(kind, **{knob: v})
            for value in grid:
                if value in seen:
                    raise ValueError(f"{name} repeats {seen[value]}")
                seen[value] = value
                check(value)
            points += len(grid) if knob and kind in self.policies else 0
        if (points := points * len(self.lf_grid)) > MAX_GRID_POINTS:
            raise ValueError(f"the grid has {points} points, more than {MAX_GRID_POINTS}")

    def grid_points(self) -> list[tuple[PolicyParams, float]]:
        """Deterministic run order: ME rows first, then each selected policy's grid."""
        params = [PolicyParams("me")] + [
            PolicyParams(kind, **{knob: value})
            for kind, knob in KNOB_FIELDS.items() if knob is not None and kind in self.policies
            for value in getattr(self, f"{knob}_grid")
        ]
        return [(p, lf) for p in params for lf in self.lf_grid]


@dataclass(frozen=True)
class SweepRow:
    """One grid point's metrics plus its percentages of the ME baseline."""

    policy: str
    knob_name: str
    knob_value: float
    load_factor: float
    effort_avg: float
    expiry_avg: float
    completion_avg: float
    effort_pct_of_me: float | None
    completion_pct_of_me: float | None

    def __post_init__(self) -> None:
        # Each rate is an average of ratios in [0, 1], so no run's row leaves that range.
        for name in ("effort_avg", "expiry_avg", "completion_avg"):
            if not 0.0 <= (value := getattr(self, name)) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")


def baseline_rows(runs: Sequence[tuple[tuple[PolicyParams, float], RunMetrics]]) -> list[SweepRow]:
    """The ``SweepRow`` of each ``((params, lf), metrics)`` in ``runs``, in order, where
    ``metrics`` holds its rates (a ``SweepRow`` read back serves): each ``*_pct_of_me`` is
    its rate as a percentage of the ``me`` run's at load factor ``lf``, NA where ``runs``
    holds none or that rate is 0. This is the one rule for a row's ``*_pct_of_me``."""
    me = {lf: (m.effort_avg, m.completion_avg) for (p, lf), m in runs if p.kind == "me"}
    rows = []
    for (params, lf), metrics in runs:
        effort, completion = me.get(lf, (None, None))
        rows.append(SweepRow(
            policy=params.kind,
            knob_name=params.knob_name,
            knob_value=params.knob_value,
            load_factor=lf,
            effort_avg=metrics.effort_avg,
            expiry_avg=metrics.expiry_avg,
            completion_avg=metrics.completion_avg,
            effort_pct_of_me=_pct(metrics.effort_avg, effort),
            completion_pct_of_me=_pct(metrics.completion_avg, completion),
        ))
    return rows


@dataclass(frozen=True)
class PointDiagnostics:
    """Per-run health counters collected alongside the metrics."""

    slots: int
    drift_violations: int
    stability_ok: bool
    conserves_tasks: bool

    @classmethod
    def of(cls, result: RunResult, slots: int) -> "PointDiagnostics":
        """The health counters of one finished ``slots``-slot run."""
        return cls(
            slots=slots,
            drift_violations=result.drift_violations,
            stability_ok=bool((result.stability_margins() >= 0).all()),
            conserves_tasks=result.conserves_tasks(),
        )


def _run_point(args) -> tuple[RunMetrics, PointDiagnostics]:
    population, params, lf, slots, seed, deadline = args
    try:
        result = run(SimConfig(slots, lf, params, seed, deadline), population, keep_reports=False)
    except Exception as exc:
        # A validation error stays a ValueError and a failed invariant a
        # SimulationError, so the CLI gives each its own exit code.
        kind = next((k for k in (ValueError, SimulationError) if isinstance(exc, k)), RuntimeError)
        reason = "out of memory" if isinstance(exc, MemoryError) and not str(exc) else exc
        raise kind(f"sweep point {_point(params, lf)} failed: {reason}") from exc
    return result.metrics, PointDiagnostics.of(result, slots)


def _point(params: PolicyParams, lf: float) -> str:
    return f"(policy={params.kind}, {params.knob_name}={params.knob_value}, lf={lf})"


def _pct(value: float, baseline: float | None) -> float | None:
    if not baseline:
        return None
    return 100.0 * value / baseline


def run_sweep(
    spec: SweepSpec,
    population: Sequence[WorkerProfile],
    jobs: int = 1,
    collect_diagnostics: bool = False,
):
    """Execute the grid and build rows in deterministic grid order.

    Points are independent, so they fan out across ``jobs`` processes, one
    per point and CPU at most, or run in this process when that is one;
    the row order (and therefore the output file) is the same either way.
    Returns the row list, or ``(rows, diagnostics)`` with ``collect_diagnostics``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    points = spec.grid_points()
    payloads = [
        (tuple(population), params, lf, spec.slots, spec.seed, spec.deadline)
        for params, lf in points
    ]
    # The CPUs this process may run on, where the platform says which.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    processes = min(jobs, len(points), cpus or 1)
    if processes > 1:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            outcomes = list(pool.map(_run_point, payloads, chunksize=4))
    else:
        outcomes = [_run_point(p) for p in payloads]

    rows = baseline_rows([*zip(points, (metrics for metrics, _ in outcomes))])
    if collect_diagnostics:
        return rows, [diag for _, diag in outcomes]
    return rows


def _csv_text(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _columns(rows, text: int, number) -> list:
    """The columns of dataclass ``rows``, one per field in declaration order:
    the first ``text`` as they are, each other one as ``number`` writes a value.
    A column at a time formats faster than a row at a time."""
    columns = [*zip(*(vars(r).values() for r in rows))]
    return columns[:text] + [[*map(number, column)] for column in columns[text:]]


def _text(value: float | None) -> str:
    """``value`` as the sweep file states it: the shortest text that reads back as
    the same double (``repr``), or ``NA`` for None."""
    return _NA if value is None else repr(float(value))


def _decimals(value: float | None) -> str:
    """``value`` with six decimals, for the files people read, or ``NA`` for None."""
    return _NA if value is None else f"{value:.6f}"


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """The sweep CSV: its columns are ``SweepRow``'s fields in declaration order, each
    number as ``_text`` states it, so the file reads back as ``rows`` exactly."""
    return _csv_text(SWEEP_HEADER, zip(*_columns(rows, 2, _text)))


def _sweep_run(fields: list[str]) -> tuple[tuple[PolicyParams, float], SweepRow]:
    """The point and ``SweepRow`` of one sweep CSV record, as ``sweep`` writes it: a policy,
    its knob's name and value, and a load factor that ``PolicyParams`` and ``SimConfig``
    accept, three rates in [0, 1], then two finite numbers or ``NA``; anything else is a
    ValueError."""
    try:
        policy, knob, *numbers = fields
        values = [*map(float, numbers[:5]), *(None if s == _NA else float(s) for s in numbers[5:])]
        # filter(None, ...) drops None and 0.0, which are finite
        if len(fields) == len(SWEEP_HEADER) and all(map(math.isfinite, filter(None, values))):
            name = KNOB_FIELDS.get(policy)
            params = PolicyParams(policy, **({name: values[0]} if name else {}))
            SimConfig(slots=1, load_factor=values[1], policy=params)
            if (params.knob_name, params.knob_value) == (knob, values[0]):
                return (params, values[1]), SweepRow(policy, knob, *values)
    except ValueError as exc:
        raise ValueError(f"bad sweep row {fields!r}: {exc}") from None
    raise ValueError(f"bad sweep row {fields!r}")


def load_sweep_csv(path: str) -> list[SweepRow]:
    """The rows of the sweep CSV at ``path``. A bad row, or a point that an earlier row
    holds, is a ValueError naming its line; then a row other than the one
    ``baseline_rows`` rebuilds from the file's own rates is one naming its point."""
    seen: set[tuple[PolicyParams, float]] = set()

    def record(fields: list[str]) -> tuple[tuple[PolicyParams, float], SweepRow]:
        point, r = _sweep_run(fields)
        if point in seen:
            raise ValueError(f"repeated point {_point(*point)}")
        seen.add(point)
        return point, r

    runs = read_csv(path, SWEEP_HEADER, record)
    for ((params, lf), row), want in zip(runs, baseline_rows(runs)):
        if row != want:  # the rates are the row's own, so a percentage differs
            name = next(n for n in ("effort_pct_of_me", "completion_pct_of_me")
                        if getattr(row, n) != getattr(want, n))
            source = (f"the me row at lf {lf} gives {_text(getattr(want, name))}"
                      if (PolicyParams("me"), lf) in seen else f"the file has no me row at lf {lf}")
            raise ValueError(f"{path}: row {_point(params, lf)}: {name} is "
                             f"{_text(getattr(row, name))}, but {source}")
    return [row for _, row in runs]


@dataclass(frozen=True)
class ReportRow:
    """Per-policy aggregate over its grid rows; ``region`` places the ratio
    against the linear-productivity diagonal."""

    policy: str
    mean_expiry_avg: float
    mean_effort_pct_of_me: float | None
    mean_completion_pct_of_me: float | None
    superlinearity_ratio: float | None

    @property
    def region(self) -> str:
        ratio = self.superlinearity_ratio
        if ratio is None:
            return _NA.lower()
        return "superlinear" if ratio > 1.0 else ("sublinear" if ratio < 1.0 else "linear")


def _mean(values) -> float | None:
    """The mean of the values that are not None, None when there are none: the
    pairwise sum and one division of ``np.mean``, without its per-call cost."""
    present = [v for v in values if v is not None]
    return float(np.add.reduce(present)) / len(present) if present else None


def aggregate_report(rows: Sequence[SweepRow]) -> list[ReportRow]:
    """Per-policy means and the completion/effort superlinearity ratio.

    Policies whose ratio exceeds 1 complete a larger share of the ME
    completion rate than the share of ME effort they spend (above the
    linear-productivity diagonal); NA percentages are skipped in the
    means.
    """
    by_policy: dict[str, list[SweepRow]] = {}
    for row in rows:
        by_policy.setdefault(row.policy, []).append(row)

    out = []
    for policy, group in by_policy.items():
        effort = _mean(r.effort_pct_of_me for r in group)
        completion = _mean(r.completion_pct_of_me for r in group)
        # No ratio at a mean effort of 0.0.
        ratio = completion / effort if effort and completion is not None else None
        out.append(ReportRow(policy, _mean(r.expiry_avg for r in group), effort, completion, ratio))
    return out


def report_rows_to_csv(rows: Sequence[ReportRow]) -> str:
    """The report CSV: ``ReportRow``'s fields in declaration order, then ``region``."""
    return _csv_text(REPORT_HEADER, zip(*_columns(rows, 1, _decimals), [r.region for r in rows]))


def per_slot_csv(reports) -> str:
    """The per-slot CSV: ``SlotReport``'s fields in declaration order."""
    return _csv_text(PER_SLOT_HEADER, zip(*_columns(reports, 5, _decimals)))
