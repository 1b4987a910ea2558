"""Grid sweeps over (policy, knob, load factor) and baseline-relative reports.

Every policy at a given (seed, load factor) sees the same mood stream and
the same delegation behavior, so differences between rows isolate the
scheduling rule. The max-effort policy is run at every load factor and
serves as the 100% reference for the *_pct_of_me columns.
"""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .engine import RunMetrics, RunResult, SimConfig, run
from .policies import KNOB_FIELDS, POLICY_KINDS, PolicyParams
from .workers import WorkerProfile

SWEEP_HEADER = [
    "policy", "knob", "knob_value", "lf", "effort_avg", "expiry_avg",
    "completion_avg", "effort_pct_of_me", "completion_pct_of_me",
]
REPORT_HEADER = [
    "policy", "mean_expiry_avg", "mean_effort_pct_of_me",
    "mean_completion_pct_of_me", "superlinearity_ratio", "region",
]
PER_SLOT_HEADER = [
    "slot", "arrivals", "completions", "expired", "pending",
    "lyapunov", "drift_lhs", "drift_rhs",
]

_NA = "NA"


def default_phi_grid() -> tuple[float, ...]:
    return tuple(float(v) for v in range(5, 101, 5))


def default_theta_grid() -> tuple[float, ...]:
    return tuple(round(0.05 * k, 2) for k in range(1, 21))


def default_lf_grid() -> tuple[float, ...]:
    return tuple(round(0.05 * k, 2) for k in range(1, 21))


@dataclass(frozen=True)
class SweepSpec:
    """The full experiment grid plus run-length, seed and deadline."""

    policies: tuple[str, ...] = POLICY_KINDS
    phi_grid: tuple[float, ...] = field(default_factory=default_phi_grid)
    sigma_grid: tuple[float, ...] = field(default_factory=default_phi_grid)
    theta1_grid: tuple[float, ...] = field(default_factory=default_theta_grid)
    theta2_grid: tuple[float, ...] = field(default_factory=default_theta_grid)
    lf_grid: tuple[float, ...] = field(default_factory=default_lf_grid)
    slots: int = 10_000
    seed: int = 0
    deadline: int | None = 3

    def __post_init__(self) -> None:
        for kind in self.policies:
            if kind not in POLICY_KINDS:
                raise ValueError(f"unknown policy {kind!r}")
            knob = KNOB_FIELDS[kind]
            if knob is not None and not getattr(self, f"{knob}_grid"):
                raise ValueError(f"policy {kind!r} selected but its knob grid is empty")
        if not self.lf_grid:
            raise ValueError("lf_grid must be non-empty")
        for lf in self.lf_grid:
            if not 0.0 < lf <= 1.0:
                raise ValueError(f"load factors must be in (0, 1], got {lf}")
        for theta in (*self.theta1_grid, *self.theta2_grid):
            if not 0.0 <= theta <= 1.0:
                raise ValueError(f"thresholds must be in [0, 1], got {theta}")
        for knob in (*self.phi_grid, *self.sigma_grid):
            if knob <= 0.0:
                raise ValueError(f"index-policy knobs must be positive, got {knob}")

    def grid_points(self) -> list[tuple[PolicyParams, float]]:
        """Deterministic run order: ME rows first, then each policy's grid."""
        points: list[tuple[PolicyParams, float]] = []
        for lf in self.lf_grid:
            points.append((PolicyParams(kind="me"), lf))
        for kind, knob in KNOB_FIELDS.items():
            if knob is None or kind not in self.policies:
                continue
            for value in getattr(self, f"{knob}_grid"):
                for lf in self.lf_grid:
                    points.append((PolicyParams(kind=kind, **{knob: value}), lf))
        return points


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
        config = SimConfig(
            slots=slots, load_factor=lf, policy=params, seed=seed, deadline=deadline
        )
        result = run(config, population, keep_reports=False)
    except Exception as exc:
        raise RuntimeError(
            f"sweep point (policy={params.kind}, {params.knob_name}="
            f"{params.knob_value}, lf={lf}) failed: {exc}"
        ) from exc
    return result.metrics, PointDiagnostics.of(result, slots)


def _pct(value: float, baseline: float) -> float | None:
    if baseline == 0.0:
        return None
    return 100.0 * value / baseline


def run_sweep(
    spec: SweepSpec,
    population: Sequence[WorkerProfile],
    jobs: int = 1,
    collect_diagnostics: bool = False,
):
    """Execute the grid and build rows in deterministic grid order.

    Points are independent, so ``jobs > 1`` fans them out across
    processes; the row order (and therefore the output file) is identical
    either way. Returns the row list, or ``(rows, diagnostics)`` when
    ``collect_diagnostics`` is set.
    """
    points = spec.grid_points()
    payloads = [
        (tuple(population), params, lf, spec.slots, spec.seed, spec.deadline)
        for params, lf in points
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_run_point, payloads, chunksize=4))
    else:
        outcomes = [_run_point(p) for p in payloads]

    me_metrics: dict[float, RunMetrics] = {}
    for (params, lf), (metrics, _) in zip(points, outcomes):
        if params.kind == "me":
            me_metrics[lf] = metrics

    rows = []
    for (params, lf), (metrics, _) in zip(points, outcomes):
        base = me_metrics[lf]
        rows.append(
            SweepRow(
                policy=params.kind,
                knob_name=params.knob_name,
                knob_value=params.knob_value,
                load_factor=lf,
                effort_avg=metrics.effort_avg,
                expiry_avg=metrics.expiry_avg,
                completion_avg=metrics.completion_avg,
                effort_pct_of_me=_pct(metrics.effort_avg, base.effort_avg),
                completion_pct_of_me=_pct(metrics.completion_avg, base.completion_avg),
            )
        )
    if collect_diagnostics:
        return rows, [diag for _, diag in outcomes]
    return rows


def _fmt(value: float | None) -> str:
    return _NA if value is None else f"{value:.6f}"


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_HEADER)
    for r in rows:
        writer.writerow([
            r.policy, r.knob_name, _fmt(r.knob_value), _fmt(r.load_factor),
            _fmt(r.effort_avg), _fmt(r.expiry_avg), _fmt(r.completion_avg),
            _fmt(r.effort_pct_of_me), _fmt(r.completion_pct_of_me),
        ])
    return buf.getvalue()


def parse_sweep_csv(text: str) -> list[SweepRow]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != SWEEP_HEADER:
        raise ValueError(f"bad sweep header {header!r}, expected {SWEEP_HEADER}")

    def num(s: str) -> float | None:
        return None if s == _NA else float(s)

    rows = []
    for line in reader:
        if not line:
            continue
        if len(line) != len(SWEEP_HEADER):
            raise ValueError(f"bad sweep row {line!r}")
        rows.append(
            SweepRow(
                policy=line[0], knob_name=line[1],
                knob_value=float(line[2]), load_factor=float(line[3]),
                effort_avg=float(line[4]), expiry_avg=float(line[5]),
                completion_avg=float(line[6]),
                effort_pct_of_me=num(line[7]), completion_pct_of_me=num(line[8]),
            )
        )
    if not rows:
        raise ValueError("sweep file has no data rows")
    return rows


@dataclass(frozen=True)
class ReportRow:
    """Per-policy aggregate over its grid rows."""

    policy: str
    mean_expiry_avg: float
    mean_effort_pct_of_me: float | None
    mean_completion_pct_of_me: float | None
    superlinearity_ratio: float | None
    region: str


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
        expiry = float(np.mean([r.expiry_avg for r in group]))
        efforts = [r.effort_pct_of_me for r in group if r.effort_pct_of_me is not None]
        completions = [
            r.completion_pct_of_me for r in group if r.completion_pct_of_me is not None
        ]
        mean_effort = float(np.mean(efforts)) if efforts else None
        mean_completion = float(np.mean(completions)) if completions else None
        if mean_effort is not None and mean_effort != 0.0 and mean_completion is not None:
            ratio = mean_completion / mean_effort
            region = "superlinear" if ratio > 1.0 else ("sublinear" if ratio < 1.0 else "linear")
        else:
            ratio = None
            region = _NA.lower()
        out.append(
            ReportRow(
                policy=policy,
                mean_expiry_avg=expiry,
                mean_effort_pct_of_me=mean_effort,
                mean_completion_pct_of_me=mean_completion,
                superlinearity_ratio=ratio,
                region=region,
            )
        )
    return out


def report_rows_to_csv(rows: Sequence[ReportRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_HEADER)
    for r in rows:
        writer.writerow([
            r.policy, _fmt(r.mean_expiry_avg), _fmt(r.mean_effort_pct_of_me),
            _fmt(r.mean_completion_pct_of_me), _fmt(r.superlinearity_ratio), r.region,
        ])
    return buf.getvalue()


def per_slot_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PER_SLOT_HEADER)
    for r in reports:
        writer.writerow([
            r.slot, r.arrivals, r.completions, r.expired, r.pending_total,
            f"{r.lyapunov:.6f}", f"{r.drift_lhs:.6f}", f"{r.drift_rhs:.6f}",
        ])
    return buf.getvalue()
