"""The benchmark's workloads, their passes and the correctness gate.

A workload is a fixed shape (population size, run length, deadline and
the (policy, load factor) of each run) made from a seed. One *pass* runs
every run of the shape once through workrest's public API and returns a
``RunOutcome`` per run: the statistics the gate compares with the
reference recorded at the parent commit, and the run's health problems.

See README.md in this directory for why each workload exists and which
layers it loads.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import time
from dataclasses import dataclass, field

from workrest import engine, sweep
from workrest.engine import CounterMoods, SimConfig
from workrest.policies import PolicyParams
from workrest.population import PopulationSpec
from workrest.sweep import SweepSpec

from spans import TimedMoods, Tracer, patched

WORKLOADS = ("desk-grid", "platform-run", "no-deadline")
DEFAULT_SLOTS = {"desk-grid": 200, "platform-run": 200, "no-deadline": 2000}
# The acceptance fixture of tests/conftest.py; at this shape the sweep CSV
# must equal the committed results/desk_sweep.csv byte for byte.
DESK_FIXTURE = {"seed": 7, "n": 500, "slots": 2000}
PLATFORM_N = 5547
# References are recorded for workload seeds 0..SEED_SPACE-1; ``--seed`` is
# reduced modulo SEED_SPACE. HELD_OUT_SEED is kept for confirming claims.
SEED_SPACE = 16
DEFAULT_SEED = 7
HELD_OUT_SEED = 11

# Statistics compared with the reference. Sweep rows carry only the
# metric and percentage columns; task totals come from ``engine.run``.
TOTALS = ("arrivals", "completions", "expired", "pending")
RUN_METRICS = ("effort_avg", "expiry_avg", "completion_avg", "slots_counted_for_completion")
ROW_FIELDS = ("effort_avg", "expiry_avg", "completion_avg", "effort_pct_of_me",
              "completion_pct_of_me")


@dataclass(frozen=True)
class Shape:
    """Resolved parameters of one workload at one seed."""

    workload: str
    seed: int
    n: int
    slots: int
    deadline: int | None
    jobs: int
    runs: tuple[tuple[PolicyParams, float], ...]
    sweep_spec: SweepSpec | None = None

    @property
    def key(self) -> str:
        return f"{self.workload}/seed={self.seed}/slots={self.slots}"

    @property
    def worker_slots(self) -> int:
        """Simulated worker-slots in one pass: sum of workers x slots over runs."""
        return self.n * self.slots * len(self.runs)

    @property
    def is_desk_fixture(self) -> bool:
        return self.workload == "desk-grid" and (self.seed, self.n, self.slots) == (
            DESK_FIXTURE["seed"], DESK_FIXTURE["n"], DESK_FIXTURE["slots"])

    def population_spec(self) -> PopulationSpec:
        return PopulationSpec(count=self.n, seed=self.seed)

    def describe(self) -> dict:
        out = {
            "workload": self.workload, "seed": self.seed, "workers": self.n,
            "slots": self.slots, "deadline": self.deadline, "jobs": self.jobs,
            "worker_slots_per_pass": self.worker_slots,
        }
        if self.sweep_spec is None:
            out["runs"] = run_names(self)
        else:
            out["grid"] = dataclasses.asdict(self.sweep_spec)
        return out


def desk_sweep_spec(seed: int, slots: int) -> SweepSpec:
    """The acceptance grid of tests/conftest.py: 150 points, all five policies."""
    return SweepSpec(
        policies=("me", "mt", "mw", "ac", "cpl"),
        phi_grid=(5.0, 25.0, 50.0, 100.0),
        sigma_grid=(5.0, 25.0, 50.0, 100.0),
        theta1_grid=(0.2, 0.5, 0.8),
        theta2_grid=(0.2, 0.5, 0.8),
        lf_grid=tuple(round(0.1 * k, 1) for k in range(1, 11)),
        slots=slots,
        seed=seed,
        deadline=3,
    )


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def make_shape(workload: str, seed: int, slots: int | None = None) -> Shape:
    slots = DEFAULT_SLOTS[workload] if slots is None else slots
    if workload == "desk-grid":
        spec = desk_sweep_spec(seed, slots)
        return Shape(workload, seed, DESK_FIXTURE["n"], slots, 3, nproc(),
                     tuple(spec.grid_points()), spec)
    if workload == "platform-run":
        mid_grid = (
            PolicyParams("me"), PolicyParams("mt", theta1=0.5),
            PolicyParams("mw", theta2=0.5), PolicyParams("ac", sigma=50.0),
            PolicyParams("cpl", phi=50.0),
        )
        return Shape(workload, seed, PLATFORM_N, slots, 3, 1,
                     tuple((p, 0.5) for p in mid_grid))
    if workload == "no-deadline":
        return Shape(workload, seed, 500, slots, None, 1,
                     ((PolicyParams("ac", sigma=100.0), 1.0),))
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def run_name(kind: str, knob_name: str, knob_value: float, lf: float) -> str:
    if kind == "me":
        return f"me lf={lf}"
    return f"{kind} {knob_name}={knob_value} lf={lf}"


def run_names(shape: Shape) -> list[str]:
    return [run_name(p.kind, p.knob_name, p.knob_value, lf) for p, lf in shape.runs]


@dataclass
class RunOutcome:
    """One run's compared statistics and the invariants it broke."""

    name: str
    stats: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def _health(drift_violations: int, stability_ok: bool, conserves: bool) -> list[str]:
    problems = []
    if drift_violations:
        problems.append(f"{drift_violations} drift-bound violations")
    if not stability_ok:
        problems.append("negative stability margin")
    if not conserves:
        problems.append("task conservation fails")
    return problems


def outcome_from_result(name: str, result) -> RunOutcome:
    m = result.metrics
    stats = dict(zip(TOTALS, (result.arrivals_total, result.completions_total,
                              result.expired_total, result.pending_final)))
    stats.update({f: getattr(m, f) for f in RUN_METRICS})
    health = _health(result.drift_violations,
                     bool((result.stability_margins() >= 0).all()), result.conserves_tasks())
    return RunOutcome(name, stats, health)


def _failed_pass(shape: Shape, exc: Exception) -> list[RunOutcome]:
    reason = f"raised {type(exc).__name__}: {exc}"
    return [RunOutcome(name, problems=[reason]) for name in run_names(shape)]


@dataclass
class PassResult:
    outcomes: list[RunOutcome]
    wall: float = 0.0  # host seconds inside the run/run_sweep calls
    csv: str | None = None  # sweep CSV text, for the sweep workload
    bucket_width: int = 0  # widest final age-bucket matrix over the pass
    payload_bytes: int = 0  # pickled per-point payload of one run


def run_pass(shape: Shape, population, jobs: int | None = None) -> PassResult:
    """One untraced pass, exactly as a library user would make it."""
    try:
        if shape.sweep_spec is not None:
            t0 = time.perf_counter()
            rows, diags = sweep.run_sweep(shape.sweep_spec, population,
                                          jobs=shape.jobs if jobs is None else jobs,
                                          collect_diagnostics=True)
            return _sweep_result(rows, diags, time.perf_counter() - t0)
        out = PassResult([])
        for name, (params, lf) in zip(run_names(shape), shape.runs):
            t0 = time.perf_counter()
            result = engine.run(_config(shape, params, lf), population, keep_reports=False)
            out.wall += time.perf_counter() - t0
            out.outcomes.append(outcome_from_result(name, result))
        return out
    except Exception as exc:  # a failing run is counted, not fatal
        return PassResult(_failed_pass(shape, exc))


def traced_pass(shape: Shape, population, tracer: Tracer) -> PassResult:
    """One serial pass with every run inside an ``engine.run`` span.

    The caller has the engine's per-slot callables instrumented. Runs of
    the sweep workload go through ``sweep.run_sweep`` with one job, with
    the ``run`` it calls wrapped so that task totals are captured too.
    """
    captured = []
    widths = []

    def traced_run(run):
        def wrapper(config, population, *args, **kwargs):
            with tracer.span("engine.run"):
                result = run(config, population, *args, **kwargs)
            captured.append(result)
            buckets = getattr(result.final_state, "buckets", None)
            widths.append(0 if buckets is None else int(buckets.shape[1]))
            return result
        return wrapper

    try:
        if shape.sweep_spec is not None:
            t0 = time.perf_counter()
            with patched([(sweep, "run", traced_run)]):
                rows, diags = sweep.run_sweep(shape.sweep_spec, population, jobs=1,
                                              collect_diagnostics=True)
            out = _sweep_result(rows, diags, time.perf_counter() - t0)
            if len(captured) != len(out.outcomes):
                for outcome in out.outcomes:
                    outcome.problems.append(f"traced sweep ran {len(captured)} engine.run "
                                            f"calls for {len(out.outcomes)} rows")
            for outcome, result in zip(out.outcomes, captured):
                outcome.stats.update(outcome_from_result(outcome.name, result).stats)
        else:
            run = traced_run(engine.run)
            out = PassResult([])
            for name, (params, lf) in zip(run_names(shape), shape.runs):
                moods = TimedMoods(shape.seed, tracer, CounterMoods)
                t0 = time.perf_counter()
                result = run(_config(shape, params, lf), population,
                             mood_source=moods, keep_reports=False)
                out.wall += time.perf_counter() - t0
                out.outcomes.append(outcome_from_result(name, result))
    except Exception as exc:  # a failing run is counted, not fatal
        return PassResult(_failed_pass(shape, exc))
    out.bucket_width = max(widths, default=0)
    out.payload_bytes = point_payload_bytes(shape, population)
    return out


def point_payload_bytes(shape: Shape, population) -> int:
    """Pickled size of the first run's payload, as ``run_sweep`` ships it to
    ``_run_point``: the population goes with every point."""
    params, lf = shape.runs[0]
    payload = (tuple(population), params, lf, shape.slots, shape.seed, shape.deadline)
    return len(pickle.dumps(payload))


def _config(shape: Shape, params: PolicyParams, lf: float) -> SimConfig:
    return SimConfig(slots=shape.slots, load_factor=lf, policy=params,
                     seed=shape.seed, deadline=shape.deadline)


def _sweep_result(rows, diags, wall: float) -> PassResult:
    outcomes = []
    for row, diag in zip(rows, diags):
        outcomes.append(RunOutcome(
            run_name(row.policy, row.knob_name, row.knob_value, row.load_factor),
            {f: getattr(row, f) for f in ROW_FIELDS},
            _health(diag.drift_violations, diag.stability_ok, diag.conserves_tasks)))
    return PassResult(outcomes, wall, sweep.sweep_rows_to_csv(rows))


# --- correctness gate -------------------------------------------------------

def load_reference(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def record_reference(path, shape: Shape, result: PassResult) -> None:
    """Store one shape's outcomes (which must be healthy) in the reference file."""
    bad = [o for o in result.outcomes if o.problems]
    if bad:
        raise RuntimeError(f"refusing to record unhealthy runs: {bad[0].name}: {bad[0].problems}")
    fields = list(result.outcomes[0].stats)
    reference = load_reference(path)
    reference[shape.key] = {
        "fields": fields,
        "runs": {o.name: [o.stats[f] for f in fields] for o in result.outcomes},
    }
    # One run per line keeps the file readable and its diffs small.
    entries = []
    for key, entry in sorted(reference.items()):
        runs = ",\n".join(f"{json.dumps(name)}: {json.dumps(values)}"
                          for name, values in entry["runs"].items())
        entries.append(f'{json.dumps(key)}: {{"fields": {json.dumps(entry["fields"])}, '
                       f'"runs": {{\n{runs}}}}}')
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(entries) + "\n}\n")


def gate(outcomes: list[RunOutcome], entry: dict | None, expected: list[str]) -> list[list[str]]:
    """Failure reasons per run: health, then every statistic off the reference.

    ``expected`` names the runs the shape defines; a missing or extra run
    fails. Outcomes compare every statistic they carry, each exactly;
    ``entry=None`` skips the comparison.
    """
    reasons = [list(o.problems) for o in outcomes]
    names = [o.name for o in outcomes]
    if names != expected:
        for i, o in enumerate(outcomes):
            if i >= len(expected) or expected[i] != o.name:
                reasons[i].append("run not in the shape's run order")
        reasons.extend([[f"run {n} missing"] for n in expected[len(outcomes):]])
    if entry is None:
        return reasons
    ref_fields = entry["fields"]
    for o, r in zip(outcomes, reasons):
        ref = entry["runs"].get(o.name)
        if ref is None:
            r.append("no reference for this run")
            continue
        if not o.stats and not o.problems:
            r.append("no statistics to compare")
        ref = dict(zip(ref_fields, ref))
        for f, value in o.stats.items():
            if f not in ref:
                r.append(f"{f} not in reference")
            elif value != ref[f]:
                r.append(f"{f} = {value!r}, reference {ref[f]!r}")
    return reasons


def compare_outcomes(a: list[RunOutcome], b: list[RunOutcome], what: str) -> list[list[str]]:
    """Per run of ``a``: the statistics it shares with ``b`` that differ."""
    out = []
    for i, oa in enumerate(a):
        ob = b[i] if i < len(b) else RunOutcome(oa.name)
        r = []
        if ob.name != oa.name:
            r.append(f"{what}: run order differs")
        for f, value in oa.stats.items():
            if f in ob.stats and ob.stats[f] != value:
                r.append(f"{what}: {f} = {value!r} vs {ob.stats[f]!r}")
        out.append(r)
    return out


def csv_mismatches(csv_text: str, committed: str, names: list[str]) -> list[list[str]]:
    """Per run: whether its line of the sweep CSV differs from the committed file."""
    got, want = csv_text.splitlines(), committed.splitlines()
    out = [[] for _ in names]
    if got[:1] != want[:1] or len(got) != len(want):
        return [["sweep CSV header or row count differs from results/desk_sweep.csv"]
                for _ in names]
    for i, (g, w) in enumerate(zip(got[1:], want[1:])):
        if g != w:
            out[i].append(f"sweep CSV line {i + 2} differs from results/desk_sweep.csv")
    return out
