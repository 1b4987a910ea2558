"""workrest benchmark: one command, three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload desk-grid --seed 7 --seconds 30 --trace 0

Run from the root of a checkout; the simulator is imported from ``src/``.
With ``--trace 0`` it times untraced passes of the workload for about
``--seconds`` seconds and reports the end-to-end metrics (medians over
passes). With ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics. Every pass goes through the correctness
gate. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where attempted and
failed count simulation runs and ``error_rate = failed / attempted``.

``--record`` adds the shape's outputs to ``reference/<workload>.json``,
which the gate compares against (run it at the commit whose outputs
define "correct"); ``--slots`` selects the tests' tiny shapes and the full
desk shape. See README.md in this directory for the workloads and the
metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The simulator is always the checkout's own ``src/``, never an installed copy.
if not (ROOT / "src" / "workrest" / "__init__.py").is_file():
    sys.exit(f"perfbench: no workrest sources under {ROOT / 'src'}; run from a full checkout")
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
from spans import Tracer, instrument_engine, layer_metrics, missing_spans  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, HELD_OUT_SEED, SEED_SPACE, WORKLOADS, compare_outcomes, csv_mismatches,
    gate, load_reference, make_shape, nproc, record_reference, run_names, run_pass,
    traced_pass,
)
from workrest.population import generate, load_csv, write_csv  # noqa: E402

# Set-ups before the first pass, and after each pass.
SETUP_FIRST, SETUP_BETWEEN = 5, 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "worker_slots_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "delegation.apportion.calls": "count",
    "delegation.apportion.us_p50": "us",
    "delegation.apportion.us_p99": "us",
    "delegation.apportion.share": "fraction",
    "delegation.weights.us_p50": "us",
    "rng.moods.calls": "count",
    "rng.moods.us_p50": "us",
    "rng.moods.share": "fraction",
    "numerics.snap_floor.calls": "count",
    "numerics.snap_floor.share": "fraction",
    "engine.drift.us_p50": "us",
    "engine.drift.share": "fraction",
    "engine.slot_us_p50": "us",
    "engine.slot_us_p99": "us",
    "engine.self_share": "fraction",
    "engine.bucket_width_final": "count",
    "population.generate_s": "s",
    "population.csv_roundtrip_s": "s",
    "sweep.points": "count",
    "sweep.point_s_p50": "s",
    "sweep.point_s_p99": "s",
    "sweep.payload_bytes": "B",
    "sweep.pool_speedup": "x",
    "trace_overhead_pct": "%",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--slots", type=int, default=None,
                   help="override the workload's run length (tests, full desk shape)")
    p.add_argument("--record", action="store_true",
                   help="write this shape's outputs to reference/<workload>.json and exit")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.slots is not None and args.slots < 1:
        p.error("--slots must be >= 1")
    return args


def git_commit() -> str:
    if not (ROOT / ".git").exists():  # e.g. an exported checkout
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "workrest").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_record(args, shape) -> dict:
    return {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "requested_seed": args.seed, "workload_seed": shape.seed,
        "seed_space": SEED_SPACE, "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": nproc(), "loadavg_start": list(os.getloadavg()),
        "params": shape.describe(),
    }


class SetUp:
    """Builds the workload's inputs the way a CLI user pays for them per
    invocation: ``generate``, then a ``write_csv``/``load_csv`` round trip.

    Called again between passes so that the set-up median samples the
    whole run, not one moment of it.
    """

    def __init__(self, shape, tracer=None):
        OUT.mkdir(exist_ok=True)
        self.shape = shape
        self.tracer = tracer
        self.times: list[tuple[float, float]] = []  # (generate, round trip) seconds
        self.problem = None

    def __call__(self, repeats: int):
        """Set up ``repeats`` times; return the last loaded population."""
        for _ in range(repeats):
            # A fresh file each time, as ``gen-workers --out`` makes: rewriting
            # one file in place lets the file system stall some of the writes.
            path = str(OUT / f"population-{os.getpid()}-{len(self.times)}.csv")
            t0 = time.perf_counter_ns()
            generated = generate(self.shape.population_spec())
            t1 = time.perf_counter_ns()
            write_csv(path, generated)
            population = load_csv(path)
            t2 = time.perf_counter_ns()
            os.remove(path)
            self.times.append(((t1 - t0) / 1e9, (t2 - t1) / 1e9))
            if self.tracer is not None:
                self.tracer.add("population.generate", t0, t1)
                self.tracer.add("population.csv_roundtrip", t1, t2)
            if population != generated:
                self.problem = "population CSV round trip does not reproduce generate()"
        return population


class Gate:
    """Counts runs attempted and failed, printing every failure by name."""

    def __init__(self, shape, entry, setup):
        self.shape = shape
        self.entry = entry
        self.setup = setup
        self.expected = run_names(shape)
        self.committed_csv = None
        if shape.is_desk_fixture:
            self.committed_csv = (ROOT / "results" / "desk_sweep.csv").read_text()
        self.attempted = 0
        self.failed = 0

    def check(self, label, result, *others):
        """Gate one pass; ``others`` are per-run reason lists from cross-checks."""
        reasons = gate(result.outcomes, self.entry, self.expected)
        if self.committed_csv is not None and result.csv is not None:
            others = others + (csv_mismatches(result.csv, self.committed_csv, self.expected),)
        for extra in others:
            for r, e in zip(reasons, extra):
                r.extend(e)
        names = [o.name for o in result.outcomes] + self.expected[len(result.outcomes):]
        for name, r in zip(names, reasons):
            if self.entry is None and self.committed_csv is None:
                r.append(f"no reference recorded for {self.shape.key}")
            if self.setup.problem:
                r.append(self.setup.problem)
            self.attempted += 1
            if r:
                self.failed += 1
                print(f"FAIL {self.shape.workload} {label} run {name!r}: " + "; ".join(r))

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def _until(seconds, iteration):
    """Call ``iteration()`` (which returns its duration) while the next call
    is expected to finish within ``seconds``; at least once."""
    t_begin = time.perf_counter()
    durations = []
    while True:
        durations.append(iteration())
        if time.perf_counter() - t_begin + statistics.median(durations) > seconds:
            return len(durations)


def end_to_end(args, shape, population, setup, gate) -> dict:
    walls = []

    def iteration():
        t0 = time.perf_counter()
        result = run_pass(shape, population)
        walls.append(result.wall)
        gate.check(f"pass {len(walls)}", result)
        setup(SETUP_BETWEEN)
        return time.perf_counter() - t0

    passes = _until(args.seconds, iteration)
    wall = statistics.median(walls)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(f"info {shape.workload}: {passes} passes, wall_s per pass "
          f"min {min(walls):.4f} median {wall:.4f} max {max(walls):.4f}")
    return {
        "setup_s": statistics.median(g + c for g, c in setup.times),
        "wall_s": wall,
        "worker_slots_per_s": shape.worker_slots / wall,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(args, shape, population, setup, gate, tracer) -> dict:
    untraced, serial, traced, run_sums = [], [], [], []
    last = {}

    def iteration():
        t_begin = time.perf_counter()
        k = len(traced) + 1
        plain = run_pass(shape, population)
        untraced.append(plain.wall)
        gate.check(f"untraced pass {k}", plain)
        if shape.jobs > 1:
            one_job = run_pass(shape, population, jobs=1)
            serial.append(one_job.wall)
            gate.check(f"serial pass {k}", one_job,
                       compare_outcomes(one_job.outcomes, plain.outcomes, "serial vs pooled"))
        first_span = len(tracer)
        with instrument_engine(tracer):
            result = traced_pass(shape, population, tracer)
        traced.append(result.wall)
        run_sums.append(int(tracer.durations_ns("engine.run", since=first_span).sum()) / 1e9)
        cross = compare_outcomes(result.outcomes, plain.outcomes, "traced vs untraced")
        if plain.csv != result.csv:
            cross[0].append("traced sweep CSV differs from untraced")
        for r in cross:
            r.extend(missing_spans(tracer, first_span, len(shape.runs), shape.slots))
        gate.check(f"traced pass {k}", result, cross)
        last["result"] = result
        setup(SETUP_BETWEEN)
        return time.perf_counter() - t_begin

    # The first pass in a process pays one-off costs (allocator growth, page
    # faults); keep them out of both sides of the overhead comparison.
    gate.check("warm-up pass", run_pass(shape, population, jobs=1))
    passes = _until(args.seconds, iteration)
    print(f"info {shape.workload}: {passes} traced passes")
    metrics = layer_metrics(tracer, passes)
    points = tracer.durations_ns("engine.run") / 1e9
    unwrapped = statistics.median(serial or untraced)
    metrics.update({
        "engine.bucket_width_final": last["result"].bucket_width,
        "population.generate_s": statistics.median(g for g, _ in setup.times),
        "population.csv_roundtrip_s": statistics.median(c for _, c in setup.times),
        "sweep.points": len(shape.runs),
        "sweep.point_s_p50": float(np.percentile(points, 50)) if len(points) else 0.0,
        "sweep.point_s_p99": float(np.percentile(points, 99)) if len(points) else 0.0,
        "sweep.payload_bytes": last["result"].payload_bytes,
        "sweep.pool_speedup": statistics.median(run_sums) / statistics.median(untraced),
        "trace_overhead_pct": 100.0 * (statistics.median(traced) / unwrapped - 1.0),
    })
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    shape = make_shape(args.workload, args.seed % SEED_SPACE, args.slots)
    record = run_record(args, shape)
    print("record " + json.dumps(record))
    reference_path = HERE / "reference" / f"{args.workload}.json"

    if args.record:
        setup = SetUp(shape)
        population = setup(1)
        if setup.problem:
            sys.exit(f"perfbench: {setup.problem}")
        result = traced_pass(shape, population, Tracer())
        record_reference(reference_path, shape, result)
        print(f"recorded {shape.key} ({len(result.outcomes)} runs) in {reference_path}")
        return 0

    tracer = Tracer() if args.trace else None
    setup = SetUp(shape, tracer)
    population = setup(SETUP_FIRST)
    gate = Gate(shape, load_reference(reference_path).get(shape.key), setup)
    if args.trace:
        metrics = per_layer(args, shape, population, setup, gate, tracer)
        units = PER_LAYER
        trace_path = OUT / f"trace-{shape.workload}-seed{shape.seed}.json"
        tracer.write(trace_path, record)
        print(f"info spans: {len(tracer)} written to {trace_path}")
    else:
        metrics = end_to_end(args, shape, population, setup, gate)
        units = END_TO_END
    for name, unit in units.items():
        print(f"metric {shape.workload} {name} = {metrics[name]!r} {unit}")
    print(f"metric {shape.workload} error_rate = {gate.error_rate!r} failed/attempted "
          f"({gate.failed}/{gate.attempted} runs)")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
